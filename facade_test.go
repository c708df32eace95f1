package bsub_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"bsub"
)

// TestFacadeSurface exercises every wrapper the root package re-exports,
// so the public API cannot silently drift from the internals.
func TestFacadeSurface(t *testing.T) {
	// Filters.
	cfg := bsub.TCBFConfig{M: 256, K: 4, Initial: 10, DecayPerMinute: 1}

	// B-SUB's Bloom filter is the TCBF's counter-less encoding: the round
	// trip keeps every key and answers like the original.
	bf, err := bsub.NewTCBF(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := bf.Insert(fmt.Sprintf("member-%d", i), 0); err != nil {
			t.Fatal(err)
		}
	}
	bits, err := bf.Encode(bsub.CountersNone)
	if err != nil {
		t.Fatal(err)
	}
	bfBack, err := bsub.DecodeTCBF(bits, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if ok, err := bfBack.Contains(fmt.Sprintf("member-%d", i), 0); err != nil || !ok {
			t.Errorf("counter-less round trip lost member-%d (err %v)", i, err)
		}
	}
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("absent-%d", i)
		want, err := bf.Contains(k, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := bfBack.Contains(k, 0); err != nil || got != want {
			t.Errorf("counter-less round trip answers %q with %v, original %v (err %v)", k, got, want, err)
		}
	}

	tf, err := bsub.NewTCBF(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tf.Insert("k", 0); err != nil {
		t.Fatal(err)
	}
	data, err := tf.Encode(bsub.CountersFull)
	if err != nil {
		t.Fatal(err)
	}
	back, err := bsub.DecodeTCBF(data, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := back.Contains("k", 0); err != nil || !ok {
		t.Error("decode round trip lost key")
	}
	if _, err := bsub.Preference("k", tf, back, 0); err != nil {
		t.Errorf("preference: %v", err)
	}
	pool, err := bsub.NewTCBFPool(cfg, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Insert("k", 0); err != nil {
		t.Fatal(err)
	}

	// Traces.
	tr, err := bsub.NewTrace("t", 2, []bsub.Contact{
		{A: 0, B: 1, Start: 0, End: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stats().Nodes != 2 {
		t.Error("trace stats broken")
	}
	gen, err := bsub.GenerateTrace(bsub.SmallTraceConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if gen.Nodes != 20 {
		t.Error("small preset changed")
	}
	if bsub.HaggleConfig(1).Nodes != 79 || bsub.MITRealityConfig(1).Nodes != 97 {
		t.Error("trace presets changed")
	}

	// Workload.
	if bsub.NewTrendKeySet().Len() != 38 {
		t.Error("trend key set changed")
	}

	// Protocols + simulation.
	fixture, err := bsub.NewSmallFixture(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range []bsub.Protocol{
		bsub.NewPush(), bsub.NewPull(), bsub.NewBSub(bsub.DefaultProtocolConfig(0.1)),
	} {
		rep, err := bsub.Simulate(fixture, proto, time.Hour)
		if err != nil {
			t.Fatalf("%s: %v", proto.Name(), err)
		}
		if rep.Created == 0 {
			t.Errorf("%s: no messages created", proto.Name())
		}
	}
	// Run with explicit config + failure injection.
	rep, err := bsub.Run(bsub.SimConfig{
		Trace:     fixture.Trace,
		Interests: fixture.Interests,
		Messages:  fixture.Messages,
		TTL:       time.Hour,
		Seed:      1,
		Failures:  []bsub.Failure{{Node: 0, From: 0, Until: time.Hour}},
	}, bsub.NewPull())
	if err != nil {
		t.Fatal(err)
	}
	_ = rep

	// Adaptive DF modes compile and run.
	adaptive := bsub.DefaultProtocolConfig(0)
	adaptive.DFMode = bsub.DFOnlineEq5
	if _, err := bsub.Simulate(fixture, bsub.NewBSub(adaptive), time.Hour); err != nil {
		t.Fatalf("online-Eq5 mode: %v", err)
	}

	// Analysis.
	if got := bsub.FPR(256, 4, 0); got != 0 {
		t.Error("FPR(empty) != 0")
	}
	if _, err := bsub.DecayFactor(10, 20, 256, 4, 600, 0); err != nil {
		t.Errorf("decay factor: %v", err)
	}
	if _, err := bsub.OptimalAllocation(256, 4, 38, 1e6); err != nil {
		t.Errorf("allocation: %v", err)
	}

	// Fixtures' derived config.
	if df := fixture.BSubConfig(time.Hour).DecayPerMinute; df <= 0 {
		t.Errorf("fixture DF = %g", df)
	}
}

// TestFacadeLiveNode runs a two-node live mesh through the facade.
func TestFacadeLiveNode(t *testing.T) {
	var clockNS atomic.Int64
	clockNS.Store(int64(time.Hour))
	clock := func() time.Duration { return time.Duration(clockNS.Load()) }

	var delivered atomic.Int32
	consumer, err := bsub.ListenNode("127.0.0.1:0", bsub.LiveNodeConfig{
		ID:       2,
		Protocol: bsub.DefaultProtocolConfig(0.01),
		TTL:      time.Hour,
		Clock:    clock,
		OnDeliver: func(d bsub.LiveDelivery) {
			if string(d.Payload) == "hi" {
				delivered.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer consumer.Close()
	consumer.Subscribe("greetings")

	producer, err := bsub.ListenNode("127.0.0.1:0", bsub.LiveNodeConfig{
		ID:       1,
		Protocol: bsub.DefaultProtocolConfig(0.01),
		TTL:      time.Hour,
		Clock:    clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()
	if _, err := producer.Publish([]byte("hi"), "greetings"); err != nil {
		t.Fatal(err)
	}
	if err := producer.Meet(consumer.Addr()); err != nil {
		t.Fatal(err)
	}
	if delivered.Load() != 1 {
		t.Errorf("delivered %d, want 1", delivered.Load())
	}
}

// TestFacadeMesh runs a two-daemon gossip mesh through the facade:
// bootstrap via seeds, wait for the membership tables to see each other,
// and let flood dissemination carry a publish across without an explicit
// Meet.
func TestFacadeMesh(t *testing.T) {
	var delivered, freshPeers atomic.Int32
	meshCfg := bsub.MeshConfig{
		GossipInterval:  20 * time.Millisecond,
		ContactInterval: 50 * time.Millisecond,
		OnPeerChange: func(ev bsub.MeshPeerEvent) {
			if ev.Fresh && ev.To == bsub.MeshStateAlive {
				freshPeers.Add(1)
			}
		},
	}
	consumer, err := bsub.StartMesh("127.0.0.1:0", bsub.LiveNodeConfig{
		ID:       2,
		Protocol: bsub.DefaultProtocolConfig(0.01),
		TTL:      time.Hour,
		OnDeliver: func(d bsub.LiveDelivery) {
			if string(d.Payload) == "hi" {
				delivered.Add(1)
			}
		},
	}, meshCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer consumer.Close()
	consumer.Subscribe("greetings")

	prodCfg := meshCfg
	prodCfg.Seeds = []string{consumer.Addr()}
	producer, err := bsub.StartMesh("127.0.0.1:0", bsub.LiveNodeConfig{
		ID:       1,
		Protocol: bsub.DefaultProtocolConfig(0.01),
		TTL:      time.Hour,
	}, prodCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()

	deadline := time.Now().Add(10 * time.Second)
	for len(producer.Peers()) == 0 || len(consumer.Peers()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("membership never converged")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if producer.Peers()[0].State != bsub.MeshStateAlive {
		t.Errorf("peer state = %v, want alive", producer.Peers()[0].State)
	}
	if _, err := producer.Publish([]byte("hi"), "greetings"); err != nil {
		t.Fatal(err)
	}
	for delivered.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("publish never delivered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stats := producer.Stats()
	if stats.GossipAbsorbed == 0 {
		t.Error("producer absorbed no gossip")
	}
	if freshPeers.Load() == 0 {
		t.Error("no fresh-peer events fired")
	}
}
