package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"bsub/internal/analysis"
	"bsub/internal/metrics"
	"bsub/internal/workload"
)

// Table is one experiment artifact: a header plus rows of formatted cells,
// published as <Name>.csv. Every table and figure of the evaluation is
// rendered through it — one row per x-position, one column per series,
// matching the paper's axes — so any tool can re-plot it.
type Table struct {
	Name   string
	Header []string
	Rows   [][]string
}

// WriteCSV writes the table as CSV: the header line, then one line per row.
func (t Table) WriteCSV(w io.Writer) error {
	if err := csv.NewWriter(w).WriteAll(append([][]string{t.Header}, t.Rows...)); err != nil {
		return fmt.Errorf("experiments: %s csv: %w", t.Name, err)
	}
	return nil
}

// ftoa formats every float cell: fixed point, six decimals.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }

// floats formats a row of float cells.
func floats(vs ...float64) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = ftoa(v)
	}
	return out
}

// reportHeader names the Section VII metrics reportCells emits.
var reportHeader = []string{"delivery", "delay_minutes", "fwd_per_delivered", "fpr", "injection_fpr"}

func reportCells(r metrics.Report) []string {
	return floats(r.DeliveryRatio(), r.MeanDelay().Minutes(), r.ForwardingsPerDelivered(), r.FPR(), r.InjectionFPR())
}

// TTLTable renders a Fig. 7/8 sweep: delivery ratio, delay and
// forwardings per delivered message of PUSH, B-SUB and PULL per TTL.
func TTLTable(name string, points []TTLPoint) Table {
	t := Table{Name: name, Header: []string{
		"ttl_minutes",
		"push_delivery", "bsub_delivery", "pull_delivery",
		"push_delay_minutes", "bsub_delay_minutes", "pull_delay_minutes",
		"push_fwd_per_delivered", "bsub_fwd_per_delivered", "pull_fwd_per_delivered",
	}}
	for _, p := range points {
		t.Rows = append(t.Rows, floats(p.TTL.Minutes(),
			p.Push.DeliveryRatio(), p.BSub.DeliveryRatio(), p.Pull.DeliveryRatio(),
			p.Push.MeanDelay().Minutes(), p.BSub.MeanDelay().Minutes(), p.Pull.MeanDelay().Minutes(),
			p.Push.ForwardingsPerDelivered(), p.BSub.ForwardingsPerDelivered(), p.Pull.ForwardingsPerDelivered()))
	}
	return t
}

// DFTable renders a Fig. 9 sweep: B-SUB's metrics per decaying factor.
func DFTable(name string, points []DFPoint) Table {
	t := Table{Name: name, Header: append([]string{"df_per_minute"}, reportHeader...)}
	for _, p := range points {
		t.Rows = append(t.Rows, append([]string{ftoa(p.DF)}, reportCells(p.Report)...))
	}
	return t
}

// AblationTable renders ablation variants side by side.
func AblationTable(name string, results []AblationResult) Table {
	t := Table{Name: name, Header: append(append([]string{"variant"}, reportHeader...), "control_bytes")}
	for _, r := range results {
		row := append([]string{r.Variant}, reportCells(r.Report)...)
		t.Rows = append(t.Rows, append(row, strconv.FormatInt(r.Report.ControlBytes, 10)))
	}
	return t
}

// TraceTable renders Table I, the trace parameters.
func TraceTable(rows []Table1Row) Table {
	t := Table{Name: "table1", Header: []string{"data_set", "device", "method", "days", "nodes", "contacts"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Name, r.Device, r.Method, ftoa(r.Days),
			strconv.Itoa(r.Nodes), strconv.Itoa(r.Contacts)})
	}
	return t
}

// KeyTable renders Table II, the head of the key distribution.
func KeyTable(rows []Table2Row) Table {
	t := Table{Name: "table2", Header: []string{"key", "weight"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{string(r.Key), ftoa(r.Weight)})
	}
	return t
}

// MemoryTable renders M1, the interest-storage comparison.
func MemoryTable(m MemoryResult) Table {
	return Table{Name: "memory",
		Header: []string{"keys", "raw_bytes", "mean_key_bytes", "per_key_tcbf_bytes",
			"filter_paper_bytes", "filter_actual_bytes", "per_key_tcbf_to_raw"},
		Rows: [][]string{append([]string{strconv.Itoa(m.Keys)}, floats(m.RawBytes, m.MeanKeyBytes,
			m.PerKeyTCBFBytes, m.FilterPaperBytes, float64(m.FilterActualBytes),
			m.PerKeyTCBFBytes/(m.RawBytes/float64(m.Keys)))...)},
	}
}

// AnalysisTable renders A1: Eq. 1–3 at the evaluation geometry (m=256,
// k=4, every workload key), and Section VI-B's wasted-delivery estimates
// at the paper's FPR of 0.04.
func AnalysisTable() Table {
	const m, k, paperFPR = 256, 4, 0.04
	n := workload.NewTrendKeySet().Len()
	return Table{Name: "analysis",
		Header: []string{"m", "k", "keys", "fpr", "fill_ratio", "expected_set_bits",
			"paper_fpr", "completely_wasted", "partially_useful"},
		Rows: [][]string{append([]string{strconv.Itoa(m), strconv.Itoa(k), strconv.Itoa(n)},
			floats(analysis.FPR(m, k, n), analysis.FillRatio(m, k, n), analysis.ExpectedSetBits(m, k, n),
				paperFPR, analysis.CompletelyWastedRatio(paperFPR), analysis.PartiallyUsefulRatio(paperFPR))...)},
	}
}

// AllocationTable renders the A2 optimal-allocation sweep.
func AllocationTable(points []AllocationPoint) Table {
	t := Table{Name: "allocation",
		Header: []string{"max_bytes", "filters", "keys_per_filter", "fill_threshold", "joint_fpr"}}
	for _, p := range points {
		t.Rows = append(t.Rows, append([]string{strconv.Itoa(p.MaxBytes), strconv.Itoa(p.Allocation.Filters)},
			floats(p.Allocation.KeysPerFilter, p.Allocation.FillThreshold, p.Allocation.JointFPR)...))
	}
	return t
}
