// Package protocol implements the two baselines B-SUB is evaluated
// against in Section VII:
//
//   - PUSH: epidemic flooding — "a node replicates an event it stores to
//     every node it encounters that has not received a copy". Its delivery
//     ratio and delay are the best achievable; its overhead is the worst.
//   - PULL: one-hop interest pulling — "a node only collects messages that
//     it is interested in from its directly encountered neighbors". Its
//     overhead is minimal (one forwarding per delivery) but delivery ratio
//     and delay suffer.
//
// Both buffer copies in the msgstore.Store B-SUB's engine uses, one store
// per node, so the three protocols share one expiry and iteration rule.
// The only mutable state is per node — a node's store, and the served-peer
// set of a copy in a producer's store — so the baselines run
// unsynchronized under the sharded simulator: contacts executed
// concurrently never share a node, hence never share any of this state.
package protocol

import (
	"math/rand"

	"bsub/internal/msgstore"
	"bsub/internal/sim"
	"bsub/internal/trace"
	"bsub/internal/workload"
)

// nodeStores holds one message store per node and supplies the Init and
// OnMessage both baselines share.
type nodeStores struct {
	stores []*msgstore.Store
}

// Init implements sim.Protocol.
func (p *nodeStores) Init(pop sim.Population, _ *rand.Rand) error {
	p.stores = make([]*msgstore.Store, pop.Nodes())
	for i := range p.stores {
		p.stores[i] = msgstore.New()
	}
	return nil
}

// OnMessage stores the new message at its producer, expiring TTL after
// creation.
func (p *nodeStores) OnMessage(env sim.Env, msg workload.Message) {
	p.stores[msg.Origin].Add(&msgstore.Copy{Msg: msg, ExpiresAt: msg.CreatedAt + env.TTL()})
}

// Push is the epidemic flooding baseline. Its copies are never mutated
// once stored, so a replica is the sender's *msgstore.Copy itself: every
// node holding a message shares one read-only record.
type Push struct{ nodeStores }

var _ sim.Protocol = (*Push)(nil)

// NewPush returns a PUSH instance.
func NewPush() *Push { return &Push{} }

// Name implements sim.Protocol.
func (p *Push) Name() string { return "PUSH" }

// OnContact replicates every message each side stores to the other, budget
// permitting, and delivers to interested receivers.
func (p *Push) OnContact(env sim.Env, a, b trace.NodeID, budget *sim.Budget) {
	p.replicate(env, a, b, budget)
	p.replicate(env, b, a, budget)
}

func (p *Push) replicate(env sim.Env, from, to trace.NodeID, budget *sim.Budget) {
	dst := p.stores[to]
	for _, c := range p.stores[from].Live(env.Now()) {
		if dst.Has(c.Msg.ID) {
			continue
		}
		if !budget.Spend(c.Msg.Size) {
			return
		}
		dst.Add(c)
		env.RecordForwarding(&c.Msg)
		if c.Msg.Matches(env.InterestSet(to)) {
			env.Deliver(&c.Msg, to)
		}
	}
}

// Pull is the one-hop interest-pulling baseline. Only a message's producer
// ever stores it, so the producer copy's served-peer set is exactly the
// record of which consumers already pulled it: a producer never repeats a
// transfer to the same consumer.
type Pull struct{ nodeStores }

var _ sim.Protocol = (*Pull)(nil)

// NewPull returns a PULL instance.
func NewPull() *Pull { return &Pull{} }

// Name implements sim.Protocol.
func (p *Pull) Name() string { return "PULL" }

// OnContact lets each side pull the other's matching messages.
func (p *Pull) OnContact(env sim.Env, a, b trace.NodeID, budget *sim.Budget) {
	p.pull(env, a, b, budget)
	p.pull(env, b, a, budget)
}

// pull transfers from's stored messages that match to's interests.
func (p *Pull) pull(env sim.Env, to, from trace.NodeID, budget *sim.Budget) {
	interests := env.InterestSet(to)
	for _, c := range p.stores[from].Live(env.Now()) {
		if !c.Msg.Matches(interests) || c.SentTo(int(to)) {
			continue
		}
		if !budget.Spend(c.Msg.Size) {
			return
		}
		c.MarkSent(int(to))
		env.RecordForwarding(&c.Msg)
		env.Deliver(&c.Msg, to)
	}
}
