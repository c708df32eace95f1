package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"bsub/internal/core"
	"bsub/internal/filter"
)

// The filter-backend ablation (ROADMAP item 4 / ISSUE 9) swaps the relay
// filter behind the internal/filter seam and replays identical traces:
// the paper's packed TCBF and the retouched decorator trading selected
// false negatives for forwarding cost. Every variant sees the same
// contacts, workload, and TTL, so delivery, forwarding cost, FPR, and
// bytes on the wire isolate the filter design itself.

// FilterBackends is the ablation's backend matrix. The paper's
// evaluation geometry (m=256, k=4) runs its relay filters well under
// half full, so the retouched default bound (0.5) would never engage;
// it is lowered to 0.1 — about 25 set positions, six keys' worth —
// where retouching visibly trades delivery for forwarding cost.
func FilterBackends() []filter.Backend {
	return []filter.Backend{
		filter.Packed{},
		filter.Retouched{MaxFill: 0.1},
	}
}

// AblateFilterBackends runs B-SUB once per filter backend over the
// fixture, all other configuration held at the paper's values.
func AblateFilterBackends(f *Fixture, ttl time.Duration) ([]AblationResult, error) {
	variants := make([]struct {
		name string
		cfg  core.Config
	}, 0, len(FilterBackends()))
	for _, b := range FilterBackends() {
		cfg := f.BSubConfig(ttl)
		cfg.Backend = b
		variants = append(variants, struct {
			name string
			cfg  core.Config
		}{name: b.Name(), cfg: cfg})
	}
	return runVariants(f, ttl, variants)
}

// BackendTraceRow is one (trace, backend) cell of the ablation grid —
// the flattened form the CSV carries.
type BackendTraceRow struct {
	Trace           string
	Backend         string
	TTLMinutes      float64
	Delivery        float64
	DelayMinutes    float64
	FwdPerDelivered float64
	FPR             float64
	InjectionFPR    float64
	ControlBytes    int64
}

// BackendTraceRows flattens one fixture's ablation results into grid
// rows.
func BackendTraceRows(trace string, ttl time.Duration, results []AblationResult) []BackendTraceRow {
	rows := make([]BackendTraceRow, 0, len(results))
	for _, r := range results {
		rows = append(rows, BackendTraceRow{
			Trace:           trace,
			Backend:         r.Variant,
			TTLMinutes:      ttl.Minutes(),
			Delivery:        r.Report.DeliveryRatio(),
			DelayMinutes:    r.Report.MeanDelay().Minutes(),
			FwdPerDelivered: r.Report.ForwardingsPerDelivered(),
			FPR:             r.Report.FPR(),
			InjectionFPR:    r.Report.InjectionFPR(),
			ControlBytes:    r.Report.ControlBytes,
		})
	}
	return rows
}

// WriteBackendAblationCSV emits the backend grid as CSV, one row per
// (trace, backend) cell.
func WriteBackendAblationCSV(w io.Writer, rows []BackendTraceRow) error {
	cw := csv.NewWriter(w)
	header := []string{
		"trace", "backend", "ttl_minutes",
		"delivery", "delay_minutes", "fwd_per_delivered",
		"fpr", "injection_fpr", "control_bytes",
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("experiments: csv header: %w", err)
	}
	for _, r := range rows {
		row := []string{
			r.Trace, r.Backend, ftoa(r.TTLMinutes),
			ftoa(r.Delivery), ftoa(r.DelayMinutes), ftoa(r.FwdPerDelivered),
			ftoa(r.FPR), ftoa(r.InjectionFPR), strconv.FormatInt(r.ControlBytes, 10),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("experiments: csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// BackendScalePoint is one backend's streamed-population outcome.
type BackendScalePoint struct {
	Backend string
	ScalePoint
}

// BackendScaleSweep runs the streamed Scale(nodes) simulation once per
// filter backend, same trace and workload streams each time.
func BackendScaleSweep(nodes, workers int, seed int64) ([]BackendScalePoint, error) {
	out := make([]BackendScalePoint, 0, len(FilterBackends()))
	for _, b := range FilterBackends() {
		cfg := core.DefaultConfig(0.1)
		cfg.Backend = b
		p, err := scaleRun(nodes, workers, seed, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: backend %s: %w", b.Name(), err)
		}
		out = append(out, BackendScalePoint{Backend: b.Name(), ScalePoint: p})
	}
	return out, nil
}

// WriteBackendScale renders the per-backend population leg as text.
func WriteBackendScale(w io.Writer, title string, points []BackendScalePoint) error {
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-10s %8s %10s %9s %9s %8s %7s %12s %10s\n",
		"backend", "nodes", "contacts", "messages", "delivery", "fwd/dlv", "fpr", "ctrl(KiB)", "wall_s"); err != nil {
		return err
	}
	for _, p := range points {
		if _, err := fmt.Fprintf(w, "%-10s %8d %10d %9d %9.3f %8.2f %7.4f %12.1f %10.2f\n",
			p.Backend, p.Nodes, p.Contacts, p.Messages, p.Delivery, p.FwdPerD, p.FPR,
			float64(p.ControlBytes)/1024, p.WallSec); err != nil {
			return err
		}
	}
	return nil
}
