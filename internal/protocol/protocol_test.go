package protocol

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"bsub/internal/metrics"
	"bsub/internal/sim"
	"bsub/internal/trace"
	"bsub/internal/tracegen"
	"bsub/internal/workload"
)

// lineTrace builds a 4-node chain: 0-1, 1-2, 2-3 meeting in sequence, then
// repeating once more. Multi-hop protocols can cross it; one-hop cannot.
func lineTrace(t *testing.T) *trace.Trace {
	t.Helper()
	mk := func(a, b int, startMin int) trace.Contact {
		return trace.Contact{
			A:     trace.NodeID(a),
			B:     trace.NodeID(b),
			Start: time.Duration(startMin) * time.Minute,
			End:   time.Duration(startMin+2) * time.Minute,
		}
	}
	tr, err := trace.New("line", 4, []trace.Contact{
		mk(0, 1, 10), mk(1, 2, 20), mk(2, 3, 30),
		mk(0, 1, 40), mk(1, 2, 50), mk(2, 3, 60),
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func lineConfig(t *testing.T) sim.Config {
	return sim.Config{
		Trace:     lineTrace(t),
		Interests: []workload.Key{"w", "x", "y", "z"},
		Messages: []workload.Message{
			// Node 0 produces a message for node 3's interest "z": only a
			// multi-hop protocol can deliver it.
			{ID: 0, Key: "z", Origin: 0, Size: 100, CreatedAt: 5 * time.Minute},
			// Node 2 produces a message for its neighbour 3: one hop.
			{ID: 1, Key: "z", Origin: 2, Size: 100, CreatedAt: 25 * time.Minute},
		},
		TTL:  2 * time.Hour,
		Seed: 1,
	}
}

func TestPushDeliversMultiHop(t *testing.T) {
	rep, err := sim.Run(lineConfig(t), NewPush())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != 2 {
		t.Errorf("PUSH delivered %d/2 pairs: %s", rep.Delivered, rep)
	}
	if rep.FalseDeliveries != 0 {
		t.Errorf("PUSH made %d false deliveries", rep.FalseDeliveries)
	}
	// Flooding a 4-node chain costs more forwardings than deliveries.
	if rep.Forwardings <= rep.Delivered {
		t.Errorf("PUSH forwardings %d suspiciously low", rep.Forwardings)
	}
}

func TestPullOnlyOneHop(t *testing.T) {
	rep, err := sim.Run(lineConfig(t), NewPull())
	if err != nil {
		t.Fatal(err)
	}
	// Message 0 (0 -> 3) is out of PULL's reach; message 1 (2 -> 3) is one
	// hop and delivered.
	if rep.Delivered != 1 {
		t.Errorf("PULL delivered %d pairs, want exactly 1: %s", rep.Delivered, rep)
	}
	if rep.Forwardings != 1 {
		t.Errorf("PULL forwardings = %d, want 1 (one per delivery)", rep.Forwardings)
	}
}

func TestPushRespectsTTL(t *testing.T) {
	cfg := lineConfig(t)
	cfg.TTL = 10 * time.Minute // message 0 dies before the 1-2 contact at 20m
	rep, err := sim.Run(cfg, NewPush())
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range []int{rep.Delivered} {
		if pair > 1 {
			t.Errorf("PUSH delivered expired message: %s", rep)
		}
	}
}

func TestPushRespectsBandwidth(t *testing.T) {
	cfg := lineConfig(t)
	cfg.BandwidthBps = 1 // effectively zero: nothing fits
	rep, err := sim.Run(cfg, NewPush())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != 0 || rep.Forwardings != 0 {
		t.Errorf("PUSH moved data with no bandwidth: %s", rep)
	}
}

func TestPullNoDuplicateTransfers(t *testing.T) {
	// Contacts 0-1 repeat; PULL must not re-send (and re-count) the same
	// message to the same consumer.
	tr, err := trace.New("rep", 2, []trace.Contact{
		{A: 0, B: 1, Start: 10 * time.Minute, End: 12 * time.Minute},
		{A: 0, B: 1, Start: 20 * time.Minute, End: 22 * time.Minute},
		{A: 0, B: 1, Start: 30 * time.Minute, End: 32 * time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(sim.Config{
		Trace:     tr,
		Interests: []workload.Key{"a", "b"},
		Messages:  []workload.Message{{ID: 0, Key: "b", Origin: 0, Size: 10, CreatedAt: time.Minute}},
		TTL:       time.Hour,
		Seed:      1,
	}, NewPull())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Forwardings != 1 {
		t.Errorf("PULL re-sent a delivered message: %d forwardings", rep.Forwardings)
	}
}

// Integration: on a realistic small trace, PUSH must dominate PULL on
// delivery ratio and PULL must have the lowest overhead — the Fig. 7
// ordering.
func TestBaselineOrderingOnSyntheticTrace(t *testing.T) {
	tr, err := tracegen.Generate(tracegen.Small(21))
	if err != nil {
		t.Fatal(err)
	}
	ks := workload.NewTrendKeySet()
	rng := rand.New(rand.NewSource(21))
	interests := workload.Interests(ks, tr.Nodes, rng)
	rates, err := workload.Rates(tr.Centrality(), 2)
	if err != nil {
		t.Fatal(err)
	}
	msgs := workload.GenerateMessages(ks, rates, tr.Span(), rng)
	cfg := sim.Config{
		Trace:     tr,
		Interests: interests,
		Messages:  msgs,
		TTL:       4 * time.Hour,
		Seed:      21,
	}
	push, err := sim.Run(cfg, NewPush())
	if err != nil {
		t.Fatal(err)
	}
	pull, err := sim.Run(cfg, NewPull())
	if err != nil {
		t.Fatal(err)
	}
	if push.Delivered == 0 {
		t.Fatal("PUSH delivered nothing on a dense 12h trace")
	}
	if push.DeliveryRatio() < pull.DeliveryRatio() {
		t.Errorf("PUSH delivery %.3f below PULL %.3f", push.DeliveryRatio(), pull.DeliveryRatio())
	}
	if push.ForwardingsPerDelivered() <= pull.ForwardingsPerDelivered() {
		t.Errorf("PUSH overhead %.2f not above PULL %.2f",
			push.ForwardingsPerDelivered(), pull.ForwardingsPerDelivered())
	}
	assertSane(t, push)
	assertSane(t, pull)
}

func assertSane(t *testing.T, r metrics.Report) {
	t.Helper()
	if ratio := r.DeliveryRatio(); ratio < 0 || ratio > 1 {
		t.Errorf("%s: delivery ratio %g out of [0,1]", r.Protocol, ratio)
	}
	if r.MeanDelay() < 0 {
		t.Errorf("%s: negative delay", r.Protocol)
	}
}

// shardConfig is a streamed scale population run on the given number of
// workers, epoch width and link rate (zero: the defaults).
func shardConfig(t *testing.T, nodes, workers int, epoch time.Duration, bandwidthBps int) sim.Config {
	t.Helper()
	tc := tracegen.Scale(nodes, 7)
	cs, err := tracegen.NewStream(tc)
	if err != nil {
		t.Fatal(err)
	}
	ks := workload.NewTrendKeySet()
	rates := make([]float64, nodes)
	for i := range rates {
		rates[i] = 1
	}
	return sim.Config{
		Source:       cs,
		MsgSource:    workload.NewStream(ks, rates, tc.Span, 7),
		Interests:    workload.Interests(ks, nodes, rand.New(rand.NewSource(7))),
		TTL:          4 * time.Hour,
		Seed:         7,
		Workers:      workers,
		Epoch:        epoch,
		BandwidthBps: bandwidthBps,
	}
}

// TestBaselinesShardedDeterminism pins the baselines to the sharded
// executor's guarantee: PUSH and PULL produce reflect.DeepEqual reports at
// any worker count and epoch width. PUSH shares read-only copies across
// node stores and PULL mutates a producer copy's served-peer set, so both
// lean on the per-node state rule the executor's concurrency rests on.
// At the default 250 kbps no contact's budget runs out mid-store, so the
// order in which PUSH replicates a store cannot show in the report; the
// 8 kbps leg starves contacts, so a nondeterministic copy order does.
func TestBaselinesShardedDeterminism(t *testing.T) {
	const nodes = 200
	for _, bw := range []int{0, 8000} {
		for _, mk := range []func() sim.Protocol{
			func() sim.Protocol { return NewPush() },
			func() sim.Protocol { return NewPull() },
		} {
			base, err := sim.Run(shardConfig(t, nodes, 1, 0, bw), mk())
			if err != nil {
				t.Fatal(err)
			}
			if base.Delivered == 0 || base.Forwardings == 0 {
				t.Fatalf("%s bandwidth=%d: degenerate run: %s", base.Protocol, bw, base)
			}
			for _, tc := range []struct {
				workers int
				epoch   time.Duration
			}{
				{3, 0},
				{8, 0},
				{3, 7 * time.Minute},
				{8, time.Hour},
				{1, time.Minute},
			} {
				got, err := sim.Run(shardConfig(t, nodes, tc.workers, tc.epoch, bw), mk())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, base) {
					t.Errorf("%s bandwidth=%d workers=%d epoch=%v: report differs from workers=1:\ngot  %+v\nwant %+v",
						base.Protocol, bw, tc.workers, tc.epoch, got, base)
				}
			}
		}
	}
}
