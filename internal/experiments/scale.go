package experiments

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"bsub/internal/core"
	"bsub/internal/sim"
	"bsub/internal/tracegen"
	"bsub/internal/workload"
)

// The scale sweep (ROADMAP item 1) runs B-SUB at population scale — 10k,
// 100k, 1M nodes — over streamed traces and workloads, measuring both the
// protocol (delivery, forwardings, FPR) and the instrument (contacts/sec,
// peak RSS). Nothing here materializes a contact or message list: the
// tracegen and workload streams feed the sharded runner directly, so
// memory stays proportional to nodes and active pairs, never to events.

// DefaultScaleSizes is the full ROADMAP sweep.
var DefaultScaleSizes = []int{10_000, 100_000, 1_000_000}

// QuickScaleSizes keeps the sweep under a second for tests and -quick.
var QuickScaleSizes = []int{1_000, 5_000}

// ScaleTTL is the message TTL the scale sweep runs with. The Scale trace
// spans 24 diurnal hours; 6 hours tolerates an overnight lull without
// keeping every message alive for the whole span.
const ScaleTTL = 6 * time.Hour

// scaleMsgPerTenNodes sets the workload volume: one expected message per
// ten nodes, so large populations get proportionally large workloads
// without drowning the contact stream (~10 contacts per node).
const scaleMsgPerTenNodes = 1.0

// ScalePoint is one population size's outcome.
type ScalePoint struct {
	Nodes    int
	Workers  int
	Links    int
	Contacts int
	Messages int
	Delivery float64
	FwdPerD  float64
	FPR      float64
	// ControlBytes is the total filter bytes exchanged during contacts —
	// the wire cost of interest dissemination at this scale.
	ControlBytes int64
	WallSec      float64
	// ContactsPerSec is contacts executed per wall-clock second — the
	// instrument's throughput, protocol work included.
	ContactsPerSec float64
	// PeakRSS is the process's high-water resident set (Linux VmHWM) after
	// the run. It is cumulative across a process, so sweeps run sizes in
	// ascending order: each point's peak is dominated by its own run.
	PeakRSS int64
	// RSSPerNode is PeakRSS divided by the population size.
	RSSPerNode float64
}

// ScaleStreams builds the streamed fixture for a Scale(nodes) population:
// the contact stream, per-node interests, and the message stream. Shared
// by the sweep and cmd/bsub-sim's -nodes mode. Message rates follow
// contact activity (the streamed stand-in for centrality), normalized so
// the whole population produces about nodes/10 messages over the span.
func ScaleStreams(nodes int, seed int64) (*tracegen.Stream, []workload.Key, *workload.Stream, error) {
	cfg := tracegen.Scale(nodes, seed)
	ts, err := tracegen.NewStream(cfg)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("experiments: scale %d: %w", nodes, err)
	}
	ks := workload.NewTrendKeySet()
	interests := workload.Interests(ks, nodes, rand.New(rand.NewSource(seed)))
	activity := ts.ActivityRates()
	var sum float64
	for _, a := range activity {
		sum += a
	}
	target := float64(nodes) / 10 * scaleMsgPerTenNodes
	rates := make([]float64, len(activity))
	if sum > 0 {
		norm := target / (sum * cfg.Span.Hours())
		for i, a := range activity {
			rates[i] = a * norm
		}
	}
	return ts, interests, workload.NewStream(ks, rates, cfg.Span, seed), nil
}

// ScaleRun simulates B-SUB over a streamed Scale(nodes) trace and measures
// one ScalePoint. Workers and the epoch width follow sim defaults when
// zero; output is byte-identical at any worker count (see DESIGN.md §11).
func ScaleRun(nodes, workers int, seed int64) (ScalePoint, error) {
	return scaleRun(nodes, workers, seed, core.DefaultConfig(0.1))
}

// scaleRun is ScaleRun with the protocol configuration exposed, so the
// backend ablation can swap the relay filter under an otherwise
// identical streamed population.
func scaleRun(nodes, workers int, seed int64, cfg core.Config) (ScalePoint, error) {
	ts, interests, msgs, err := ScaleStreams(nodes, seed)
	if err != nil {
		return ScalePoint{}, err
	}

	proto := core.New(cfg)
	start := time.Now()
	rep, err := sim.Run(sim.Config{
		Source:    ts,
		MsgSource: msgs,
		Interests: interests,
		TTL:       ScaleTTL,
		Seed:      seed,
		Workers:   workers,
	}, proto)
	if err != nil {
		return ScalePoint{}, fmt.Errorf("experiments: scale %d: %w", nodes, err)
	}
	wall := time.Since(start).Seconds()

	p := ScalePoint{
		Nodes: nodes,
		// sim.Run runs zero workers as one; record the count that ran.
		Workers:      max(workers, 1),
		Links:        ts.Links(),
		Contacts:     rep.Contacts,
		Messages:     rep.Created,
		Delivery:     rep.DeliveryRatio(),
		FwdPerD:      rep.ForwardingsPerDelivered(),
		FPR:          rep.FPR(),
		ControlBytes: rep.ControlBytes,
		WallSec:      wall,
		PeakRSS:      peakRSS(),
	}
	if wall > 0 {
		p.ContactsPerSec = float64(rep.Contacts) / wall
	}
	if nodes > 0 {
		p.RSSPerNode = float64(p.PeakRSS) / float64(nodes)
	}
	return p, nil
}

// ScaleSweep runs ScaleRun at each size, ascending, so the cumulative RSS
// high-water mark tracks the size that set it.
func ScaleSweep(sizes []int, workers int, seed int64) ([]ScalePoint, error) {
	out := make([]ScalePoint, 0, len(sizes))
	for _, n := range sizes {
		p, err := ScaleRun(n, workers, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// peakRSS returns the process's resident-set high-water mark in bytes:
// VmHWM from /proc/self/status on Linux, the Go heap's OS footprint
// elsewhere (an undercount, but monotone and dependency-free).
func peakRSS() int64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}

// WriteScale renders the sweep as text.
func WriteScale(w io.Writer, title string, points []ScalePoint) error {
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%10s %8s %10s %9s %9s %8s %7s %9s %12s %10s\n",
		"nodes", "workers", "contacts", "messages", "delivery", "fwd/dlv", "fpr", "wall_s", "contacts/s", "rss_mb"); err != nil {
		return err
	}
	for _, p := range points {
		if _, err := fmt.Fprintf(w, "%10d %8d %10d %9d %9.3f %8.2f %7.4f %9.2f %12.0f %10.1f\n",
			p.Nodes, p.Workers, p.Contacts, p.Messages, p.Delivery, p.FwdPerD, p.FPR,
			p.WallSec, p.ContactsPerSec, float64(p.PeakRSS)/(1<<20)); err != nil {
			return err
		}
	}
	return nil
}

// WriteScaleCSV emits the sweep as CSV, one row per population size.
func WriteScaleCSV(w io.Writer, points []ScalePoint) error {
	cw := csv.NewWriter(w)
	header := []string{
		"nodes", "workers", "links", "contacts", "messages",
		"delivery", "fwd_per_delivered", "fpr", "control_bytes",
		"wall_seconds", "contacts_per_sec", "peak_rss_bytes", "rss_bytes_per_node",
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("experiments: csv header: %w", err)
	}
	for _, p := range points {
		row := []string{
			strconv.Itoa(p.Nodes), strconv.Itoa(p.Workers),
			strconv.Itoa(p.Links), strconv.Itoa(p.Contacts), strconv.Itoa(p.Messages),
			ftoa(p.Delivery), ftoa(p.FwdPerD), ftoa(p.FPR),
			strconv.FormatInt(p.ControlBytes, 10),
			ftoa(p.WallSec), ftoa(p.ContactsPerSec),
			strconv.FormatInt(p.PeakRSS, 10), ftoa(p.RSSPerNode),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("experiments: csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}
