package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"bsub/internal/tracegen"
	"bsub/internal/workload"
)

// ScaleTTL is the message TTL of population-scale runs (cmd/bsub-sim
// -nodes and perfbench's sim-population). The Scale trace spans 24
// diurnal hours; 6 hours tolerates an overnight lull without keeping
// every message alive for the whole span.
const ScaleTTL = 6 * time.Hour

// scaleMsgPerTenNodes sets the workload volume: one expected message per
// ten nodes, so large populations get proportionally large workloads
// without drowning the contact stream (~10 contacts per node).
const scaleMsgPerTenNodes = 1.0

// ScaleStreams builds the streamed fixture for a Scale(nodes) population:
// the contact stream, per-node interests, and the message stream. It
// feeds cmd/bsub-sim's -nodes mode and perfbench's sim-population
// workload. Nothing is materialized: the streams feed the sharded runner
// directly, so memory stays proportional to nodes and active pairs, never
// to events. Message rates follow contact activity (the streamed stand-in
// for centrality), normalized so the whole population produces about
// nodes/10 messages over the span.
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
