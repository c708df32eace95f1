// Package core adapts the transport-agnostic B-SUB engine
// (internal/engine) to the discrete-event simulator: it is the
// sim.Protocol driver for the Section VII evaluation.
//
// All protocol logic — broker election, relay-filter merges, preferential
// forwarding, copy accounting — lives in the engine's session state
// machine. This package only:
//
//   - maps trace.NodeID contacts onto engine sessions and moves the
//     sessions' wire encodings across a function call (the live node moves
//     the same bytes across TCP frames);
//   - charges every transfer to the contact's bandwidth Budget and
//     reports control/forwarding/delivery traffic to the sim.Env metrics;
//   - maintains the simulator-side ground-truth "oracle" of each relay
//     filter — the exact multiset of relayed interests with
//     TCBF-identical counter semantics but no hash collisions — used
//     solely to classify producer-to-broker matches as genuine or falsely
//     injected (Section VI-B); the protocol never reads it.
package core

import (
	"math/rand"
	"sync"
	"time"

	"bsub/internal/engine"
	"bsub/internal/sim"
	"bsub/internal/tcbf"
	"bsub/internal/trace"
	"bsub/internal/workload"
)

// Config re-exports the engine's parameter set; see engine.Config for the
// per-field paper references.
type Config = engine.Config

// DFMode selects the decaying-factor policy.
type DFMode = engine.DFMode

// DF policies (see engine's docs).
const (
	DFFixed     = engine.DFFixed
	DFOnlineEq5 = engine.DFOnlineEq5
	DFFeedback  = engine.DFFeedback
)

// BrokerMergeMode selects the broker-broker relay-filter merge operation.
type BrokerMergeMode = engine.BrokerMergeMode

// Broker merge modes (see engine's docs).
const (
	BrokerMergeMax      = engine.BrokerMergeMax
	BrokerMergeAdditive = engine.BrokerMergeAdditive
)

// DefaultConfig returns the paper's evaluation parameters with the given
// decaying factor.
func DefaultConfig(decayPerMinute float64) Config {
	return engine.DefaultConfig(decayPerMinute)
}

// node pairs a protocol engine with the simulator-side oracle state.
type node struct {
	id  trace.NodeID
	eng *engine.Node

	// oracle mirrors the relay filter's content exactly (no collisions);
	// it is active iff the node is a broker.
	oracle oracle
}

// BSub is the simulator driver; per-node protocol state lives in the
// engine.
type BSub struct {
	cfg   Config
	nodes []node

	// workers holds one scratch record per simulator worker.
	workers []*worker

	// The broker census below is cross-node diagnostic state, so it is the
	// one piece of BSub that contacts in disjoint components still share;
	// censusMu keeps it race-free under the sharded simulator. Under
	// workers > 1 the per-contact fraction samples depend on cross-
	// component interleaving, so MeanBrokerFraction is reproducible only
	// at Workers <= 1 — it feeds diagnostics, never the metrics Report.
	censusMu          sync.Mutex
	brokerFractionSum float64
	brokerSamples     int
	brokerCount       int
}

// worker is one simulator worker's scratch: its engine.SessionCache, so a
// handful of warm scratch arenas serve the whole population instead of
// one arena lingering per node, and the message slot moveCopies reports
// each moved copy through, so passing it to the sim.Env allocates
// nothing.
type worker struct {
	cache *engine.SessionCache
	msg   workload.Message
}

var _ sim.Protocol = (*BSub)(nil)

// New returns a B-SUB instance with the given configuration.
func New(cfg Config) *BSub { return &BSub{cfg: cfg} }

// Name implements sim.Protocol.
func (p *BSub) Name() string { return "B-SUB" }

// Init implements sim.Protocol.
func (p *BSub) Init(pop sim.Population, _ *rand.Rand) error {
	params, err := engine.NewParams(p.cfg, pop.TTL())
	if err != nil {
		return err
	}
	p.nodes = make([]node, pop.Nodes())
	for i := range p.nodes {
		eng := params.NewNode(i)
		eng.Subscribe(pop.InterestSet(trace.NodeID(i))...)
		p.nodes[i] = node{id: trace.NodeID(i), eng: eng}
	}
	p.workers = make([]*worker, pop.Workers())
	for i := range p.workers {
		p.workers[i] = &worker{cache: engine.NewSessionCache()}
	}
	return nil
}

// OnMessage stores the fresh message at its producer with the full copy
// budget. Simulated messages carry no payload bytes; budgets charge the
// workload's Size field.
func (p *BSub) OnMessage(_ sim.Env, msg workload.Message) {
	p.nodes[msg.Origin].eng.AddProduced(msg, nil)
}

// OnContact runs one contact session: handshake, election, interest
// propagation or relay exchange, then per-side delivery and replication
// pulls — the same step sequence the live node frames over TCP, with a
// the session initiator.
func (p *BSub) OnContact(env sim.Env, aID, bID trace.NodeID, budget *sim.Budget) {
	now := env.Now()
	a, b := &p.nodes[aID], &p.nodes[bID]

	// 1. Identity handshake. A contact too short even for this carries
	// nothing.
	if !budget.Spend(engine.HandshakeBytes) {
		return
	}
	env.RecordControl(engine.HandshakeBytes)

	// 2. Broker allocation: both sides elect on the hello snapshots, then
	// apply the exchanged verdicts — the same simultaneous round trip the
	// live node performs. Sessions draw their scratch arenas from the
	// executing worker's cache.
	cache := p.workers[env.Worker()].cache
	sa := a.eng.BeginContact(cache, budget, now)
	sb := b.eng.BeginContact(cache, budget, now)
	sa.SetPeer(sb.Hello())
	sb.SetPeer(sa.Hello())
	actA, actB := sa.Elect(), sb.Elect()
	sa.Apply(actA, actB)
	sb.Apply(actB, actA)
	p.syncRoles(a, b, now)

	// 3. Interest propagation: brokers exchange relay filters and forward
	// preferentially; mixed contacts push the consumer's genuine filter.
	if sa.RelayExchange() {
		p.exchangeRelays(env, a, sa, b, sb, now)
	} else {
		p.propagateGenuine(env, a, sa, b, sb, now)
		p.propagateGenuine(env, b, sb, a, sa, now)
	}

	// 4. Pulls, initiator first: each side asks for deliveries matching
	// its interest BF, then (brokers only) for replicas matching its
	// relay advert.
	p.deliveryPull(env, a, sa, b, sb, now)
	p.replicationPull(env, a, sa, b, sb, now)
	p.deliveryPull(env, b, sb, a, sa, now)
	p.replicationPull(env, b, sb, a, sa, now)

	// 5. Contact over: recycle both sessions' scratch arenas. Every claim
	// above was committed inline, so Release refunds nothing.
	sa.Release()
	sb.Release()
}

// syncRoles reconciles both contact sides' oracles and the broker census
// with the engines' post-election roles; an active oracle marks "was
// broker". One mutex hold covers the role flips and the census sample.
func (p *BSub) syncRoles(a, b *node, now time.Duration) {
	p.censusMu.Lock()
	defer p.censusMu.Unlock()
	p.syncRole(a, now)
	p.syncRole(b, now)
	p.brokerFractionSum += float64(p.brokerCount) / float64(len(p.nodes))
	p.brokerSamples++
}

// syncRole updates one node under censusMu.
func (p *BSub) syncRole(n *node, now time.Duration) {
	switch {
	case n.eng.IsBroker() && !n.oracle.active():
		n.oracle.start(now)
		p.brokerCount++
	case !n.eng.IsBroker() && n.oracle.active():
		n.oracle.stop()
		p.brokerCount--
	}
}

// advanceOracle mirrors the relay filter's lazy decay on the ground-truth
// oracle, using the DF currently in effect (the engine settles the filter
// before retuning the DF, and this is called at the same points).
func (p *BSub) advanceOracle(n *node, now time.Duration) {
	if n.oracle.active() {
		n.oracle.advance(now, n.eng.RelayDF())
	}
}

// propagateGenuine pushes the consumer side's genuine filter to the peer
// broker, which A-merges it into its relay filter (reinforcement), and
// mirrors the reinforcement on the broker's oracle.
func (p *BSub) propagateGenuine(env sim.Env, c *node, sc *engine.Session, br *node, sbr *engine.Session, now time.Duration) {
	if !sc.SendsGenuine() {
		return
	}
	data, err := sc.GenuineOut()
	if err != nil || data == nil {
		return
	}
	env.RecordControl(len(data))
	if err := sbr.AbsorbGenuine(data); err != nil {
		return
	}
	if !br.oracle.active() {
		return
	}
	p.advanceOracle(br, now)
	br.oracle.reinforce(c.eng.Interests(), p.cfg.InitialCounter)
}

// exchangeRelays handles a broker-broker meeting: exchange relay filters,
// make forwarding decisions against the peer's pre-merge filter, then
// merge — mirroring the merges on the ground-truth oracles.
func (p *BSub) exchangeRelays(env sim.Env, a *node, sa *engine.Session, b *node, sb *engine.Session, now time.Duration) {
	dataA, errA := sa.RelayOut()
	dataB, errB := sb.RelayOut()
	if errA != nil || errB != nil || dataA == nil || dataB == nil {
		return
	}
	env.RecordControl(len(dataA) + len(dataB))
	if sa.SetPeerRelay(dataB) != nil || sb.SetPeerRelay(dataA) != nil {
		return
	}

	p.forward(env, a, sa, b, now)
	p.forward(env, b, sb, a, now)

	if sa.MergeRelay() != nil || sb.MergeRelay() != nil {
		return
	}

	// Mirror the merge on the oracles.
	p.advanceOracle(a, now)
	p.advanceOracle(b, now)
	mergeOracles(&a.oracle, &b.oracle, p.cfg.BrokerMerge)
}

// forward moves src's preferential-forwarding candidates to dst, largest
// preference first. Forwarded messages leave src's memory ("this is to
// prevent excessive copies in the network"); a copy dst already holds is
// collapsed at src without spending budget.
func (p *BSub) forward(env sim.Env, src *node, ss *engine.Session, dst *node, now time.Duration) {
	cands, err := ss.ForwardCandidates()
	if err != nil {
		return
	}
	p.moveCopies(env, phaseForward, cands, src, ss, dst, now)
}

// deliveryPull serves the asker from the peer's own and carried messages
// matching the asker's counter-less interest BF; matching is what
// introduces delivery-side false positives, and env.Deliver classifies
// them.
func (p *BSub) deliveryPull(env sim.Env, asker *node, sAsker *engine.Session, server *node, sServer *engine.Session, now time.Duration) {
	data, err := sAsker.InterestOut()
	if err != nil || data == nil {
		return
	}
	env.RecordControl(len(data))
	matches, err := sServer.DeliveryMatches(data)
	if err != nil {
		return
	}
	p.moveCopies(env, phaseDelivery, matches, server, sServer, asker, now)
}

// replicationPull replicates the peer's matching produced messages to the
// asker broker, bounded by the per-message copy limit. The broker
// advertises its relay filter as a counter-less BF; false positives here
// are what inject useless traffic, and the oracle classifies each
// replication as genuine or injected.
func (p *BSub) replicationPull(env sim.Env, asker *node, sAsker *engine.Session, server *node, sServer *engine.Session, now time.Duration) {
	if !sAsker.SelfBroker() {
		return
	}
	data, err := sAsker.RelayAdvertOut()
	if err != nil || data == nil {
		return
	}
	env.RecordControl(len(data))
	matches, err := sServer.ReplicationMatches(data)
	if err != nil {
		return
	}
	p.moveCopies(env, phaseReplication, matches, server, sServer, asker, now)
}

// phase is the step that selected a batch of transfers; it picks how
// moveCopies lands each copy at the receiver.
type phase uint8

const (
	phaseForward phase = iota
	phaseDelivery
	phaseReplication
)

// moveCopies claims each transfer at src under the rule its step fixed and
// commits it at once (a simulated hand-off cannot be severed), then lands
// the copy at dst and reports it to the metrics, stopping when the
// contact's budget runs out.
func (p *BSub) moveCopies(env sim.Env, ph phase, transfers []engine.Transfer, src *node, ss *engine.Session, dst *node, now time.Duration) {
	m := &p.workers[env.Worker()].msg
	for _, t := range transfers {
		if ph == phaseForward && dst.eng.HasCarried(t.Msg.ID) {
			src.eng.DropCarried(t.Msg.ID) // duplicate copy: collapse it
			continue
		}
		claim, ok := ss.Claim(t)
		if !ok {
			return // out of budget
		}
		if claim == nil {
			continue
		}
		claim.Commit()
		*m = claim.Msg()
		switch ph {
		case phaseForward:
			acc := dst.eng.AcceptCarried(*m, claim.Payload(), now)
			env.RecordForwarding(m)
			if acc.Delivered {
				env.Deliver(m, dst.id)
			}
		case phaseDelivery:
			env.RecordForwarding(m)
			env.Deliver(m, dst.id)
			dst.eng.ReceiveDelivery(*m, int(src.id), now)
		case phaseReplication:
			acc := dst.eng.AcceptCarried(*m, claim.Payload(), now)
			env.RecordForwarding(m)
			p.advanceOracle(dst, now)
			genuineMatch := dst.oracle.active() && dst.oracle.genuine(m.MatchKeys())
			env.RecordReplication(!genuineMatch)
			if acc.Delivered {
				env.Deliver(m, dst.id)
			}
		}
	}
}

// --- Introspection (tests and experiments) --------------------------------

// IsBroker reports whether node id currently serves as a broker.
func (p *BSub) IsBroker(id trace.NodeID) bool { return p.nodes[id].eng.IsBroker() }

// BrokerCount returns the number of current brokers.
func (p *BSub) BrokerCount() int { return p.brokerCount }

// MeanBrokerFraction returns the broker share of the population averaged
// over all contacts — the quantity behind the paper's "[the thresholds]
// maintain about 30% of the nodes being brokers in two traces".
func (p *BSub) MeanBrokerFraction() float64 {
	if p.brokerSamples == 0 {
		return 0
	}
	return p.brokerFractionSum / float64(p.brokerSamples)
}

// RelayFilter returns node id's relay filter, or nil for non-brokers.
// Callers must not mutate it.
func (p *BSub) RelayFilter(id trace.NodeID) *tcbf.Partitioned { return p.nodes[id].eng.Relay() }

// Engine returns node id's protocol engine, for white-box tests (notably
// the sim/live parity test). Callers must not mutate it.
func (p *BSub) Engine(id trace.NodeID) *engine.Node { return p.nodes[id].eng }

// CarriedCount returns how many message copies node id currently carries.
func (p *BSub) CarriedCount(id trace.NodeID) int { return p.nodes[id].eng.CarriedCount() }
