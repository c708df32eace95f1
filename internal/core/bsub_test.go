package core

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"bsub/internal/engine"
	"bsub/internal/protocol"
	"bsub/internal/sim"
	"bsub/internal/tcbf"
	"bsub/internal/trace"
	"bsub/internal/tracegen"
	"bsub/internal/workload"
)

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "zero m", mutate: func(c *Config) { c.FilterM = 0 }},
		{name: "zero k", mutate: func(c *Config) { c.FilterK = 0 }},
		{name: "zero initial", mutate: func(c *Config) { c.InitialCounter = 0 }},
		{name: "negative df", mutate: func(c *Config) { c.DecayPerMinute = -1 }},
		{name: "zero copies", mutate: func(c *Config) { c.CopyLimit = 0 }},
		{name: "inverted thresholds", mutate: func(c *Config) { c.BrokerLow = 6; c.BrokerHigh = 2 }},
		{name: "negative low", mutate: func(c *Config) { c.BrokerLow = -1 }},
		{name: "zero window", mutate: func(c *Config) { c.Window = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig(0.1)
			tt.mutate(&cfg)
			tr := pairTrace(t, 1)
			_, err := sim.Run(sim.Config{
				Trace:     tr,
				Interests: []workload.Key{"a", "b"},
				TTL:       time.Hour,
				Seed:      1,
			}, New(cfg))
			if err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

// pairTrace returns a 2-node trace with n repeated generous contacts.
func pairTrace(t *testing.T, n int) *trace.Trace {
	t.Helper()
	contacts := make([]trace.Contact, n)
	for i := range contacts {
		start := time.Duration(10*(i+1)) * time.Minute
		contacts[i] = trace.Contact{A: 0, B: 1, Start: start, End: start + 5*time.Minute}
	}
	tr, err := trace.New("pair", 2, contacts)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBrokerBootstrapOnFirstContact(t *testing.T) {
	// Two users, zero brokers: on first contact each side sees 0 < T_l
	// brokers and designates its peer. At least one promotion must happen
	// (the first mover's peer), giving the network its first broker.
	b := New(DefaultConfig(0.1))
	_, err := sim.Run(sim.Config{
		Trace:     pairTrace(t, 1),
		Interests: []workload.Key{"a", "b"},
		TTL:       time.Hour,
		Seed:      1,
	}, b)
	if err != nil {
		t.Fatal(err)
	}
	if b.BrokerCount() == 0 {
		t.Error("no brokers emerged from the bootstrap contact")
	}
}

func TestBrokerFractionOnRealisticTrace(t *testing.T) {
	// Section VII-A: thresholds (3, 5) maintain "about 30% of the nodes
	// being brokers". Accept a generous band around that on the synthetic
	// small trace.
	tr, err := tracegen.Generate(tracegen.Small(5))
	if err != nil {
		t.Fatal(err)
	}
	ks := workload.NewTrendKeySet()
	rng := rand.New(rand.NewSource(5))
	b := New(DefaultConfig(0.05))
	_, err = sim.Run(sim.Config{
		Trace:     tr,
		Interests: workload.Interests(ks, tr.Nodes, rng),
		TTL:       4 * time.Hour,
		Seed:      5,
	}, b)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(b.BrokerCount()) / float64(tr.Nodes)
	if frac < 0.1 || frac > 0.8 {
		t.Errorf("broker fraction %.2f far outside the paper's ~0.3 regime", frac)
	}
}

func TestInterestPropagationReachesBroker(t *testing.T) {
	// After a consumer repeatedly meets a broker, the broker's relay
	// filter must contain (and reinforce) the consumer's interest.
	b := New(DefaultConfig(0.01))
	_, err := sim.Run(sim.Config{
		Trace:     pairTrace(t, 4),
		Interests: []workload.Key{"alpha", "beta"},
		TTL:       time.Hour,
		Seed:      1,
	}, b)
	if err != nil {
		t.Fatal(err)
	}
	brokers := 0
	for id := trace.NodeID(0); id < 2; id++ {
		if !b.IsBroker(id) {
			continue
		}
		brokers++
		relay := b.RelayFilter(id)
		peer := 1 - id
		ok, err := relay.ContainsPre(tcbf.Precompute(string([]workload.Key{"alpha", "beta"}[peer])), 50*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("broker %d relay filter missing peer interest", id)
		}
	}
	if brokers == 0 {
		t.Fatal("no broker formed")
	}
}

func TestEndToEndDeliveryThroughBroker(t *testing.T) {
	// 3 nodes: 1 is the hub meeting both 0 and 2 repeatedly; 0 and 2 never
	// meet. A message from 0 matching 2's interest must flow 0 -> 1 -> 2.
	mk := func(a, b int, startMin int) trace.Contact {
		return trace.Contact{
			A:     trace.NodeID(a),
			B:     trace.NodeID(b),
			Start: time.Duration(startMin) * time.Minute,
			End:   time.Duration(startMin+5) * time.Minute,
		}
	}
	tr, err := trace.New("hub", 3, []trace.Contact{
		mk(0, 1, 10), mk(1, 2, 20), mk(0, 1, 30), mk(1, 2, 40),
		mk(0, 1, 50), mk(1, 2, 60), mk(0, 1, 70), mk(1, 2, 80),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(sim.Config{
		Trace:     tr,
		Interests: []workload.Key{"x", "y", "z"},
		Messages: []workload.Message{
			// Created after the early contacts so interests have propagated.
			{ID: 0, Key: "z", Origin: 0, Size: 100, CreatedAt: 45 * time.Minute},
		},
		TTL:  3 * time.Hour,
		Seed: 1,
	}, New(DefaultConfig(0.01)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != 1 {
		t.Errorf("multi-hop delivery failed: %s", rep)
	}
}

func TestDirectDelivery(t *testing.T) {
	// Producer and consumer meet directly: the message must be delivered
	// on the first contact after creation, regardless of broker state.
	rep, err := sim.Run(sim.Config{
		Trace:     pairTrace(t, 2),
		Interests: []workload.Key{"a", "b"},
		Messages: []workload.Message{
			{ID: 0, Key: "b", Origin: 0, Size: 100, CreatedAt: time.Minute},
		},
		TTL:  time.Hour,
		Seed: 1,
	}, New(DefaultConfig(0.1)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != 1 {
		t.Errorf("direct delivery failed: %s", rep)
	}
	if rep.MeanDelay() > 10*time.Minute {
		t.Errorf("direct delivery delay %v, want the first contact at +9m", rep.MeanDelay())
	}
}

func TestCopyLimitBoundsReplication(t *testing.T) {
	// A producer meeting many brokers replicates at most CopyLimit copies
	// of each message. Build a star: node 0 meets nodes 1..6, all of which
	// become brokers interested in nothing useful; then count carried
	// copies of 0's message.
	nodes := 7
	var contacts []trace.Contact
	start := 10 * time.Minute
	// Warm-up meetings promote brokers and propagate the consumer interest
	// (node 0's peers all share interest "hot" so relay filters match).
	for round := 0; round < 3; round++ {
		for peer := 1; peer < nodes; peer++ {
			contacts = append(contacts, trace.Contact{
				A:     0,
				B:     trace.NodeID(peer),
				Start: start,
				End:   start + 2*time.Minute,
			})
			start += 3 * time.Minute
		}
	}
	tr, err := trace.New("star", nodes, contacts)
	if err != nil {
		t.Fatal(err)
	}
	interests := make([]workload.Key, nodes)
	interests[0] = "self"
	for i := 1; i < nodes; i++ {
		interests[i] = "hot"
	}
	cfg := DefaultConfig(0.001) // effectively no decay over the test span
	b := New(cfg)
	rep, err := sim.Run(sim.Config{
		Trace:     tr,
		Interests: interests,
		Messages: []workload.Message{
			// Created after the first warm-up round; key "hot" matches all
			// peers, who will also claim it via direct delivery — those are
			// not copies. Replications to brokers are the copies.
			{ID: 0, Key: "hot", Origin: 0, Size: 100, CreatedAt: 30 * time.Minute},
		},
		TTL:  5 * time.Hour,
		Seed: 1,
	}, b)
	if err != nil {
		t.Fatal(err)
	}
	carried := 0
	for id := 1; id < nodes; id++ {
		carried += b.CarriedCount(trace.NodeID(id))
	}
	if carried > cfg.CopyLimit {
		t.Errorf("%d carried copies exceed the copy limit %d", carried, cfg.CopyLimit)
	}
	if rep.Delivered == 0 {
		t.Error("star delivered nothing")
	}
}

func TestZeroBandwidthMovesNothing(t *testing.T) {
	// One-second contacts at 8 bps budget a single byte — below even the
	// identity handshake, so the whole session must be a no-op.
	var contacts []trace.Contact
	for i := 0; i < 3; i++ {
		start := time.Duration(10*(i+1)) * time.Minute
		contacts = append(contacts, trace.Contact{A: 0, B: 1, Start: start, End: start + time.Second})
	}
	tr, err := trace.New("blip", 2, contacts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(sim.Config{
		Trace:     tr,
		Interests: []workload.Key{"a", "b"},
		Messages: []workload.Message{
			{ID: 0, Key: "b", Origin: 0, Size: 100, CreatedAt: time.Minute},
		},
		TTL:          time.Hour,
		BandwidthBps: 8, // 1 byte per contact: below the handshake cost
		Seed:         1,
	}, New(DefaultConfig(0.1)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != 0 || rep.Forwardings != 0 {
		t.Errorf("data moved through a zero-bandwidth contact: %s", rep)
	}
	if rep.ControlBytes != 0 {
		t.Errorf("control bytes %d spent without budget", rep.ControlBytes)
	}
}

func TestHighDecayApproachesPull(t *testing.T) {
	// Section VII-D: "When the DF is too large ... B-SUB works like PULL".
	// With an enormous DF, relay filters forget interests instantly, so
	// only direct producer-consumer contacts deliver.
	tr, err := tracegen.Generate(tracegen.Small(13))
	if err != nil {
		t.Fatal(err)
	}
	ks := workload.NewTrendKeySet()
	rng := rand.New(rand.NewSource(13))
	interests := workload.Interests(ks, tr.Nodes, rng)
	rates, err := workload.Rates(tr.Centrality(), 2)
	if err != nil {
		t.Fatal(err)
	}
	msgs := workload.GenerateMessages(ks, rates, tr.Span(), rng)
	base := sim.Config{
		Trace:     tr,
		Interests: interests,
		Messages:  msgs,
		TTL:       4 * time.Hour,
		Seed:      13,
	}
	hot, err := sim.Run(base, New(DefaultConfig(1000)))
	if err != nil {
		t.Fatal(err)
	}
	pull, err := sim.Run(base, protocol.NewPull())
	if err != nil {
		t.Fatal(err)
	}
	// Forwarding overhead collapses toward PULL's ~1.
	if hot.ForwardingsPerDelivered() > pull.ForwardingsPerDelivered()*2+1 {
		t.Errorf("DF=1000 B-SUB overhead %.2f far above PULL %.2f",
			hot.ForwardingsPerDelivered(), pull.ForwardingsPerDelivered())
	}
}

func TestFullComparisonOrdering(t *testing.T) {
	// The headline result (Figs. 7–8): delivery PUSH >= B-SUB >= PULL (with
	// slack), and forwardings PUSH > B-SUB.
	tr, err := tracegen.Generate(tracegen.Small(31))
	if err != nil {
		t.Fatal(err)
	}
	ks := workload.NewTrendKeySet()
	rng := rand.New(rand.NewSource(31))
	interests := workload.Interests(ks, tr.Nodes, rng)
	rates, err := workload.Rates(tr.Centrality(), 2)
	if err != nil {
		t.Fatal(err)
	}
	msgs := workload.GenerateMessages(ks, rates, tr.Span(), rng)
	base := sim.Config{
		Trace:     tr,
		Interests: interests,
		Messages:  msgs,
		TTL:       4 * time.Hour,
		Seed:      31,
	}
	push, err := sim.Run(base, protocol.NewPush())
	if err != nil {
		t.Fatal(err)
	}
	bsub, err := sim.Run(base, New(DefaultConfig(0.02)))
	if err != nil {
		t.Fatal(err)
	}
	pull, err := sim.Run(base, protocol.NewPull())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("push: %s", push)
	t.Logf("bsub: %s", bsub)
	t.Logf("pull: %s", pull)

	if bsub.Delivered == 0 {
		t.Fatal("B-SUB delivered nothing")
	}
	if bsub.DeliveryRatio() > push.DeliveryRatio()+1e-9 {
		t.Errorf("B-SUB delivery %.3f above flooding %.3f (impossible ordering)",
			bsub.DeliveryRatio(), push.DeliveryRatio())
	}
	if bsub.DeliveryRatio() < pull.DeliveryRatio()*0.8 {
		t.Errorf("B-SUB delivery %.3f well below PULL %.3f",
			bsub.DeliveryRatio(), pull.DeliveryRatio())
	}
	if bsub.ForwardingsPerDelivered() >= push.ForwardingsPerDelivered() {
		t.Errorf("B-SUB overhead %.2f not below PUSH %.2f",
			bsub.ForwardingsPerDelivered(), push.ForwardingsPerDelivered())
	}
}

func TestMultiKeyDelivery(t *testing.T) {
	// Multi-key extension: a message tagged with extra keys must reach a
	// consumer whose interest matches only an extra key, and a consumer
	// with several interests must receive messages for any of them.
	rep, err := sim.Run(sim.Config{
		Trace:     pairTrace(t, 3),
		Interests: []workload.Key{"a", "b"},
		InterestSets: [][]workload.Key{
			{"a"},
			{"b", "c"}, // node 1 also follows "c"
		},
		Messages: []workload.Message{
			// Primary key misses node 1, but the extra key "b" hits.
			{ID: 0, Key: "zzz", Extra: []workload.Key{"b"}, Origin: 0, Size: 50, CreatedAt: time.Minute},
			// Primary key "c" hits node 1's secondary interest.
			{ID: 1, Key: "c", Origin: 0, Size: 50, CreatedAt: time.Minute},
		},
		TTL:  time.Hour,
		Seed: 1,
	}, New(DefaultConfig(0.1)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != 2 {
		t.Errorf("multi-key delivery: %s", rep)
	}
}

func TestInterestSetValidation(t *testing.T) {
	base := sim.Config{
		Trace:     pairTrace(t, 1),
		Interests: []workload.Key{"a", "b"},
		TTL:       time.Hour,
		Seed:      1,
	}
	bad := base
	bad.InterestSets = [][]workload.Key{{"a"}} // wrong length
	if _, err := sim.Run(bad, New(DefaultConfig(0.1))); err == nil {
		t.Error("wrong-length interest sets accepted")
	}
	bad = base
	bad.InterestSets = [][]workload.Key{{"a"}, {}} // empty set
	if _, err := sim.Run(bad, New(DefaultConfig(0.1))); err == nil {
		t.Error("empty interest set accepted")
	}
	bad = base
	bad.InterestSets = [][]workload.Key{{"a"}, {"x"}} // missing primary
	if _, err := sim.Run(bad, New(DefaultConfig(0.1))); err == nil {
		t.Error("interest set omitting the primary accepted")
	}
}

func TestMultiKeyEndToEnd(t *testing.T) {
	// Full-stack multi-key run on the synthetic small trace: multi-interest
	// consumers, multi-key messages, all three protocols stay sane and
	// B-SUB keeps its position between PUSH and PULL.
	tr, err := tracegen.Generate(tracegen.Small(47))
	if err != nil {
		t.Fatal(err)
	}
	ks := workload.NewTrendKeySet()
	rng := rand.New(rand.NewSource(47))
	sets := workload.InterestSets(ks, tr.Nodes, 3, rng)
	primaries := make([]workload.Key, len(sets))
	for i, s := range sets {
		primaries[i] = s[0]
	}
	rates, err := workload.Rates(tr.Centrality(), 2)
	if err != nil {
		t.Fatal(err)
	}
	msgs := workload.GenerateMessages(ks, rates, tr.Span(), rng)
	msgs = workload.AttachExtraKeys(msgs, ks, 2, rng)
	cfg := sim.Config{
		Trace:        tr,
		Interests:    primaries,
		InterestSets: sets,
		Messages:     msgs,
		TTL:          4 * time.Hour,
		Seed:         47,
	}
	push, err := sim.Run(cfg, protocol.NewPush())
	if err != nil {
		t.Fatal(err)
	}
	bsub, err := sim.Run(cfg, New(DefaultConfig(0.05)))
	if err != nil {
		t.Fatal(err)
	}
	pull, err := sim.Run(cfg, protocol.NewPull())
	if err != nil {
		t.Fatal(err)
	}
	if bsub.Delivered == 0 {
		t.Fatal("multi-key B-SUB delivered nothing")
	}
	if bsub.DeliveryRatio() > push.DeliveryRatio()+1e-9 {
		t.Errorf("B-SUB %.3f above PUSH %.3f", bsub.DeliveryRatio(), push.DeliveryRatio())
	}
	if bsub.ForwardingsPerDelivered() >= push.ForwardingsPerDelivered() {
		t.Errorf("B-SUB overhead %.2f not below PUSH %.2f",
			bsub.ForwardingsPerDelivered(), push.ForwardingsPerDelivered())
	}
	t.Logf("multi-key push: %s", push)
	t.Logf("multi-key bsub: %s", bsub)
	t.Logf("multi-key pull: %s", pull)
	_ = pull
}

func TestReElectionAfterBrokerOutage(t *testing.T) {
	// Failure injection: knock out a large slice of the population
	// mid-trace. The election must keep the network functional — messages
	// published after the outage window still get delivered, because
	// users meeting too few brokers promote replacements (Section V-B).
	tr, err := tracegen.Generate(tracegen.Small(83))
	if err != nil {
		t.Fatal(err)
	}
	ks := workload.NewTrendKeySet()
	rng := rand.New(rand.NewSource(83))
	interests := workload.Interests(ks, tr.Nodes, rng)
	rates, err := workload.Rates(tr.Centrality(), 2)
	if err != nil {
		t.Fatal(err)
	}
	msgs := workload.GenerateMessages(ks, rates, tr.Span(), rng)

	// Take out the 6 most-contacted nodes (the likeliest brokers) for two
	// mid-trace hours.
	counts := tr.ContactCounts()
	type nodeCount struct{ id, n int }
	ranked := make([]nodeCount, len(counts))
	for i, n := range counts {
		ranked[i] = nodeCount{id: i, n: n}
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].n > ranked[j].n })
	var failures []sim.Failure
	outageFrom, outageUntil := 4*time.Hour, 6*time.Hour
	for _, nc := range ranked[:6] {
		failures = append(failures, sim.Failure{
			Node: trace.NodeID(nc.id), From: outageFrom, Until: outageUntil,
		})
	}

	base := sim.Config{
		Trace:     tr,
		Interests: interests,
		Messages:  msgs,
		TTL:       3 * time.Hour,
		Seed:      83,
	}
	healthy, err := sim.Run(base, New(DefaultConfig(0.05)))
	if err != nil {
		t.Fatal(err)
	}
	injected := base
	injected.Failures = failures
	wounded, err := sim.Run(injected, New(DefaultConfig(0.05)))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("healthy: %s", healthy)
	t.Logf("wounded: %s", wounded)

	if wounded.Delivered == 0 {
		t.Fatal("network never recovered from the broker outage")
	}
	// Losing the hubs for 2 of 12 hours must not collapse delivery: the
	// re-election keeps it within a reasonable factor of the healthy run.
	if wounded.DeliveryRatio() < healthy.DeliveryRatio()*0.6 {
		t.Errorf("delivery collapsed under outage: %.3f vs healthy %.3f",
			wounded.DeliveryRatio(), healthy.DeliveryRatio())
	}
}

func TestPartitionedRelayEndToEnd(t *testing.T) {
	// Section VI-D in-protocol: hash-partitioning the relay filters must
	// keep the protocol functional and not inflate traffic; with the same
	// workload the FPR should not rise (each partition holds fewer keys).
	tr, err := tracegen.Generate(tracegen.Small(91))
	if err != nil {
		t.Fatal(err)
	}
	ks := workload.NewTrendKeySet()
	rng := rand.New(rand.NewSource(91))
	interests := workload.Interests(ks, tr.Nodes, rng)
	rates, err := workload.Rates(tr.Centrality(), 2)
	if err != nil {
		t.Fatal(err)
	}
	msgs := workload.GenerateMessages(ks, rates, tr.Span(), rng)
	base := sim.Config{
		Trace:     tr,
		Interests: interests,
		Messages:  msgs,
		TTL:       4 * time.Hour,
		Seed:      91,
	}

	single := DefaultConfig(0.02)
	partitioned := DefaultConfig(0.02)
	partitioned.RelayPartitions = 4

	repSingle, err := sim.Run(base, New(single))
	if err != nil {
		t.Fatal(err)
	}
	repPart, err := sim.Run(base, New(partitioned))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("h=1: %s", repSingle)
	t.Logf("h=4: %s", repPart)

	if repPart.Delivered == 0 {
		t.Fatal("partitioned relay delivered nothing")
	}
	if repPart.DeliveryRatio() < repSingle.DeliveryRatio()*0.85 {
		t.Errorf("partitioning collapsed delivery: %.3f vs %.3f",
			repPart.DeliveryRatio(), repSingle.DeliveryRatio())
	}
}

func TestRelayPartitionsValidation(t *testing.T) {
	cfg := DefaultConfig(0.1)
	cfg.RelayPartitions = -1
	if err := New(cfg).Init(&fakeEnv{nodes: 2, ttl: time.Hour}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("negative partitions accepted")
	}
	cfg.RelayPartitions = 300
	if err := New(cfg).Init(&fakeEnv{nodes: 2, ttl: time.Hour}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("oversized partitions accepted")
	}
}

// brokerSampler decorates a B-SUB run with the population's broker
// census: after each contact that carries a handshake, it samples the
// broker share through BrokerCount. It reads every node, so it needs the
// serial runner (Workers <= 1).
type brokerSampler struct {
	*BSub
	fractionSum float64
	samples     int
}

func (s *brokerSampler) OnContact(env sim.Env, a, b trace.NodeID, budget *sim.Budget) {
	elects := budget.Remaining() >= engine.HandshakeBytes
	s.BSub.OnContact(env, a, b, budget)
	if elects {
		s.fractionSum += float64(s.BrokerCount()) / float64(len(s.nodes))
		s.samples++
	}
}

func TestMeanBrokerFractionNearPaperRegime(t *testing.T) {
	// Section VII-A: "The broker allocation threshold is 3 and 5, which
	// maintains about 30% of the nodes being brokers in two traces."
	tr, err := tracegen.Generate(tracegen.Small(17))
	if err != nil {
		t.Fatal(err)
	}
	ks := workload.NewTrendKeySet()
	rng := rand.New(rand.NewSource(17))
	b := &brokerSampler{BSub: New(DefaultConfig(0.05))}
	if _, err := sim.Run(sim.Config{
		Trace:     tr,
		Interests: workload.Interests(ks, tr.Nodes, rng),
		TTL:       4 * time.Hour,
		Seed:      17,
	}, b); err != nil {
		t.Fatal(err)
	}
	if b.samples == 0 {
		t.Fatal("no samples collected")
	}
	frac := b.fractionSum / float64(b.samples)
	if frac < 0.1 || frac > 0.7 {
		t.Errorf("mean broker fraction %.2f far from the paper's ~0.3 regime", frac)
	}
	t.Logf("mean broker fraction: %.2f (final count %d/%d)",
		frac, b.BrokerCount(), tr.Nodes)
}

func TestInjectionFPRTracksTheory(t *testing.T) {
	// The ground-truth oracle classifies each producer-to-broker
	// replication as genuine or falsely injected. The measured injection
	// FPR must be a sane probability and a minority of the replications.
	// It is the false share of the relay filter's positives, FP/(FP+TP),
	// not Eq. 1's per-query rate, so the ceiling is a sanity bound, not a
	// check of the model.
	tr, err := tracegen.Generate(tracegen.Small(101))
	if err != nil {
		t.Fatal(err)
	}
	ks := workload.NewTrendKeySet()
	rng := rand.New(rand.NewSource(101))
	interests := workload.Interests(ks, tr.Nodes, rng)
	rates, err := workload.Rates(tr.Centrality(), 2)
	if err != nil {
		t.Fatal(err)
	}
	msgs := workload.GenerateMessages(ks, rates, tr.Span(), rng)
	rep, err := sim.Run(sim.Config{
		Trace:     tr,
		Interests: interests,
		Messages:  msgs,
		TTL:       4 * time.Hour,
		Seed:      101,
	}, New(DefaultConfig(0.05)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replications == 0 {
		t.Fatal("no replications recorded")
	}
	inj := rep.InjectionFPR()
	t.Logf("replications %d, falsely injected %d (injection FPR %.4f)",
		rep.Replications, rep.FalseInjections, inj)
	if inj < 0 || inj > 1 {
		t.Fatalf("injection FPR %g out of range", inj)
	}
	if inj > 0.3 {
		t.Errorf("injection FPR %.4f implausibly high: more than 0.3 of replications falsely injected", inj)
	}
}

func TestOracleMirrorsRelayDecay(t *testing.T) {
	// White-box: an interest planted via genuine-filter A-merge must leave
	// the oracle at the same time it decays out of the relay filter.
	p := newTestBSub(t, 2)
	n := &p.nodes[1]
	n.eng.Promote(0)
	n.syncRole(0)

	// A full contact at t=0 pushes consumer 0's genuine filter ("k") into
	// broker 1's relay filter and oracle.
	p.OnContact(&fakeEnv{nodes: 2, ttl: time.Hour}, 0, 1, sim.NewBudget(1<<20))

	if n.oracle.counter("k") <= 0 {
		t.Fatalf("oracle missing planted interest: %v", n.oracle.entries)
	}
	relay := n.eng.Relay()
	ok, err := relay.ContainsPre(tcbf.Precompute("k"), 0)
	if err != nil || !ok {
		t.Fatal("relay filter missing planted interest")
	}

	// DF = 0.1/min, C = 10 -> lifetime 100 minutes.
	later := 101 * time.Minute
	ok, err = relay.ContainsPre(tcbf.Precompute("k"), later)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("relay filter kept the interest past its lifetime")
	}
	p.advanceOracle(n, later)
	if c := n.oracle.counter("k"); c > 0 {
		t.Errorf("oracle counter %g survived past the filter's lifetime", c)
	}
	if len(n.oracle.entries) != 0 {
		t.Errorf("decayed key left in the oracle: %v", n.oracle.entries)
	}
}
