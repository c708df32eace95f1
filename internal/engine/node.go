package engine

import (
	"fmt"
	"sort"
	"time"

	"bsub/internal/analysis"
	"bsub/internal/msgstore"
	"bsub/internal/tcbf"
	"bsub/internal/workload"
)

// NodeID identifies a node across the mesh. It aliases int so the
// simulator's trace.NodeID indices and the live node's uint32 identifiers
// both convert trivially.
type NodeID = int

// Hello is the identity/role/degree announcement that opens a contact.
type Hello struct {
	ID     NodeID
	Broker bool
	// Degree is the number of distinct peers met within the election
	// window, excluding the contact being opened.
	Degree int
}

// Action is one side's election verdict for its peer.
type Action int

// Election actions; the values match the livenode wire bytes.
const (
	ActNone Action = iota
	ActPromote
	ActDemote
)

// Accept reports what happened to a message copy handed to a node.
type Accept struct {
	// Stored reports that the copy entered the carried store.
	Stored bool
	// Delivered reports a first-time delivery to this node's own
	// subscriptions; the adapter should surface the message to the
	// application (or the simulator's collector) exactly once.
	Delivered bool
	// Direct reports that the message came straight from its producer.
	Direct bool
}

// meeting is one peer's entry in the election window: the last time this
// node met it.
type meeting struct {
	peer NodeID
	at   time.Duration
}

// sighting is a user's record of a broker it met: when, and the degree
// the broker announced at that meeting.
type sighting struct {
	peer   NodeID
	at     time.Duration
	degree int
}

// Params is the validated, immutable parameter block that a population of
// nodes shares: the protocol configuration, the message TTL, and the
// filter geometry both imply. None of it changes after construction, so a
// simulated population holds one block instead of a copy per node, and a
// session arena rebinding between nodes of one population compares a
// pointer instead of the geometry.
type Params struct {
	cfg  Config
	ttl  time.Duration
	geom arenaGeometry
}

// NewParams validates cfg and the message lifetime ttl once and returns
// the block every node built from it shares.
func NewParams(cfg Config, ttl time.Duration) (*Params, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ttl <= 0 {
		return nil, fmt.Errorf("engine: TTL must be positive, got %v", ttl)
	}
	return &Params{
		cfg:  cfg,
		ttl:  ttl,
		geom: arenaGeometry{fcfg: cfg.FilterConfig(), partitions: cfg.partitions()},
	}, nil
}

// Node is the per-device B-SUB protocol state. It is not safe for
// concurrent use; adapters serialize access.
type Node struct {
	p  *Params
	id NodeID

	interests []workload.Key
	// preInterests mirrors interests with precomputed filter digests, so
	// per-contact filter builds (GenuineOut, InterestOut) hash nothing.
	preInterests []tcbf.PreKey
	broker       bool

	// relay is the broker's relay filter, the Section VI-D partitioned
	// TCBF; nil for plain users.
	relay *tcbf.Partitioned

	// produced holds the node's own messages with their remaining
	// replication budget; carried holds broker-relayed copies. Both are
	// nil until first use (store reads are nil-safe): at million-node
	// scale most nodes never hold a message.
	produced *msgstore.Store
	carried  *msgstore.Store

	// delivered dedups application deliveries by message ID. Lazy: nil
	// reads as empty, first write allocates.
	delivered map[int]struct{}

	// meetings holds each peer's last meeting time, one entry per peer in
	// ascending time order; a node's degree is the number of peers met
	// within the window. Expired entries are a prefix, dropped in place.
	meetings []meeting
	// sightings holds this node's latest sighting of each broker, one
	// entry per broker in ascending time order, like meetings.
	sightings []sighting

	// clockHigh is the node's time high-water mark. Every session step that
	// touches TCBF state ratchets its pinned time up to this mark (and
	// advances the mark), so concurrent sessions interleaving on one node —
	// each with a slightly older pinned clock — can never run a filter
	// operation backwards in time. Under a serialized monotone clock (the
	// simulator) the ratchet is a no-op.
	clockHigh time.Duration
}

// NewNode returns a fresh user node running p. The node's stores and
// election windows allocate lazily on first use, so an idle node costs
// one struct — the property the million-node simulator depends on.
func (p *Params) NewNode(id NodeID) *Node { return &Node{p: p, id: id} }

// ID returns the node's identifier.
func (n *Node) ID() NodeID { return n.id }

// Config returns the protocol parameters the node runs.
func (n *Node) Config() Config { return n.p.cfg }

// TTL returns the message lifetime.
func (n *Node) TTL() time.Duration { return n.p.ttl }

// Subscribe adds interest keys, deduplicating. A node's first (and, in
// the paper's workload, only) subscription shares the interned digest
// slice for its key; the shared slice has cap 1, so a second Subscribe
// relocates rather than mutating it.
func (n *Node) Subscribe(keys ...workload.Key) {
	for _, k := range keys {
		dup := false
		for _, have := range n.interests {
			if have == k {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if n.interests == nil {
			n.interests = internKeySlice(k)
			n.preInterests = internPre(k)
			continue
		}
		n.interests = append(n.interests, k)
		n.preInterests = append(n.preInterests, tcbf.Precompute(k))
	}
}

// Interests returns the node's subscriptions without copying them: the
// simulator's oracle reads them on every consumer-to-broker contact.
// Callers must not modify the slice, and it is valid until the next
// Subscribe.
func (n *Node) Interests() []workload.Key { return n.interests }

// AddProduced stores one of the node's own messages with the full copy
// budget; it expires TTL after creation.
func (n *Node) AddProduced(msg workload.Message, payload []byte) {
	if n.produced == nil {
		n.produced = msgstore.New()
	}
	n.produced.Add(&msgstore.Copy{
		Msg:       msg,
		Payload:   payload,
		Pre:       precomputeKeys(&msg),
		ExpiresAt: msg.CreatedAt + n.p.ttl,
		Copies:    n.p.cfg.CopyLimit,
	})
}

// AcceptCarried ingests a relayed copy (preferential forward or
// replication). Post-TTL copies are dropped; a copy the node itself wants
// is marked delivered (once); duplicates collapse into the existing copy.
func (n *Node) AcceptCarried(msg workload.Message, payload []byte, now time.Duration) Accept {
	var acc Accept
	if now > msg.CreatedAt+n.p.ttl {
		return acc
	}
	acc.Delivered = n.markDelivered(&msg)
	if n.carried.Has(msg.ID) {
		return acc
	}
	if n.carried == nil {
		n.carried = msgstore.New()
	}
	n.carried.Add(&msgstore.Copy{
		Msg:       msg,
		Payload:   payload,
		Pre:       precomputeKeys(&msg),
		ExpiresAt: msg.CreatedAt + n.p.ttl,
	})
	acc.Stored = true
	return acc
}

// ReceiveDelivery ingests a message served from a delivery pull. The match
// was probabilistic (Bloom filter), so the copy counts as delivered only
// if the node really wants it and has not seen it before.
func (n *Node) ReceiveDelivery(msg workload.Message, from NodeID, now time.Duration) Accept {
	var acc Accept
	if now > msg.CreatedAt+n.p.ttl {
		return acc
	}
	acc.Direct = msg.Origin == from
	acc.Delivered = n.markDelivered(&msg)
	return acc
}

// markDelivered records a first-time delivery of a wanted message. A node
// never delivers its own message to itself, even when a broker carries a
// copy back to the producer.
func (n *Node) markDelivered(msg *workload.Message) bool {
	if msg.Origin == n.id || !msg.Matches(n.interests) {
		return false
	}
	if _, dup := n.delivered[msg.ID]; dup {
		return false
	}
	if n.delivered == nil {
		n.delivered = make(map[int]struct{})
	}
	n.delivered[msg.ID] = struct{}{}
	return true
}

// IsBroker reports whether the node currently serves as a broker.
func (n *Node) IsBroker() bool { return n.broker }

// Relay returns the node's relay filter, or nil for non-brokers. Callers
// must not mutate it.
func (n *Node) Relay() *tcbf.Partitioned { return n.relay }

// RelayDF returns the decaying factor currently in effect on the relay
// filter, or zero for non-brokers.
func (n *Node) RelayDF() float64 {
	if n.relay == nil {
		return 0
	}
	return n.relay.Config().DecayPerMinute
}

// Promote installs a fresh relay filter and makes the node a broker.
// Idempotent. Exported for adapters and tests; inside a contact the
// election (Session.Apply) calls it.
//
//bsub:coldpath
func (n *Node) Promote(now time.Duration) {
	if n.broker {
		return
	}
	n.broker = true
	n.relay = tcbf.MustNewPartitioned(n.p.geom.fcfg, n.p.geom.partitions, now)
}

// Demote returns the node to plain-user duty. Carried copies remain until
// TTL so already-replicated messages can still reach consumers the
// ex-broker meets directly. Idempotent.
//
//bsub:coldpath
func (n *Node) Demote() {
	n.broker = false
	n.relay = nil
}

// RecordMeeting notes a contact with peer at the given time (Session
// records it automatically; exported for tests and adapters seeding
// history). The new time replaces the peer's old one even when it is
// older: concurrent live sessions record with older pinned clocks.
//
//bsub:hotpath
func (n *Node) RecordMeeting(peer NodeID, at time.Duration) {
	// The peer's old entry, or a new one at the back, is the slot the new
	// entry moves from to its time-ordered place i, after every entry
	// not newer than at; one copy shifts the entries in between. Recently
	// met peers and new times sit at the back, so the scans start there.
	m := n.meetings
	j := len(m) - 1
	for j >= 0 && m[j].peer != peer {
		j--
	}
	if j < 0 {
		m = append(m, meeting{})
		j = len(m) - 1
	}
	i := j
	if j+1 < len(m) && m[j+1].at <= at {
		for i = len(m) - 1; m[i].at > at; i-- {
		}
		copy(m[j:i], m[j+1:i+1])
	} else {
		for i > 0 && m[i-1].at > at {
			i--
		}
		copy(m[i+1:j+1], m[i:j])
	}
	m[i] = meeting{peer: peer, at: at}
	n.meetings = m
}

// RecordBrokerSighting seeds the election history with a broker sighting
// (tests and adapters; Session records sightings automatically). Like
// RecordMeeting, the new sighting replaces the broker's old one whatever
// their times.
//
//bsub:hotpath
func (n *Node) RecordBrokerSighting(peer NodeID, degree int, at time.Duration) {
	// The entry moves into place as in RecordMeeting.
	s := n.sightings
	j := len(s) - 1
	for j >= 0 && s[j].peer != peer {
		j--
	}
	if j < 0 {
		s = append(s, sighting{})
		j = len(s) - 1
	}
	i := j
	if j+1 < len(s) && s[j+1].at <= at {
		for i = len(s) - 1; s[i].at > at; i-- {
		}
		copy(s[j:i], s[j+1:i+1])
	} else {
		for i > 0 && s[i-1].at > at {
			i--
		}
		copy(s[i+1:j+1], s[i:j])
	}
	s[i] = sighting{peer: peer, at: at, degree: degree}
	n.sightings = s
}

// forgetSighting drops peer's sighting, if any.
//
//bsub:hotpath
func (n *Node) forgetSighting(peer NodeID) {
	s := n.sightings
	for i := len(s) - 1; i >= 0; i-- {
		if s[i].peer == peer {
			n.sightings = s[:i+copy(s[i:], s[i+1:])]
			return
		}
	}
}

// Degree counts the distinct peers met within the election window ending
// at now, dropping the expired meetings, which form the window's prefix.
//
//bsub:hotpath
func (n *Node) Degree(now time.Duration) int {
	m := n.meetings
	k := 0
	for k < len(m) && now-m[k].at > n.p.cfg.Window {
		k++
	}
	if k > 0 {
		n.meetings = m[:copy(m, m[k:])]
	}
	return len(n.meetings)
}

// countPeers counts distinct peers met within window without pruning, so
// it can use a different horizon than the election's Window. Entries older
// than the election window may already be pruned; the count is then a
// conservative lower bound. The window is time-ordered, so the count is
// the suffix after a binary search for its first entry inside the horizon.
//
//bsub:hotpath
func (n *Node) countPeers(now, window time.Duration) int {
	m := n.meetings
	lo, hi := 0, len(m)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if now-m[mid].at > window {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return len(m) - lo
}

// brokersInWindow returns the number of distinct brokers sighted within
// the window and the mean of their last-reported degrees, dropping the
// expired sightings (a prefix, as in Degree) and summing the survivors.
//
//bsub:hotpath
func (n *Node) brokersInWindow(now time.Duration) (count int, meanDegree float64) {
	s := n.sightings
	k := 0
	for k < len(s) && now-s[k].at > n.p.cfg.Window {
		k++
	}
	if k > 0 {
		s = s[:copy(s, s[k:])]
		n.sightings = s
	}
	sum := 0
	for _, e := range s {
		sum += e.degree
	}
	count = len(s)
	if count > 0 {
		meanDegree = float64(sum) / float64(count)
	}
	return count, meanDegree
}

// RetuneDF maintains the broker's decaying factor per the configured
// policy (Sections VI-B / VII-B). Session.Apply calls it once per contact;
// exported for tests.
//
//bsub:hotpath
func (n *Node) RetuneDF(now time.Duration) {
	if n.p.cfg.DFMode == DFFixed || !n.broker || n.relay == nil {
		return
	}
	ttlMin := n.p.ttl.Minutes()
	baseline := n.p.cfg.InitialCounter / ttlMin
	switch n.p.cfg.DFMode {
	case DFOnlineEq5:
		// Count the distinct peers met within the delay bound T (= TTL),
		// the broker's own live estimate of the keys it collects.
		nKeys := n.countPeers(now, n.p.ttl)
		df, err := analysis.DecayFactor(
			n.p.cfg.InitialCounter, nKeys, n.p.cfg.FilterM, n.p.cfg.FilterK, ttlMin, 0.005)
		if err != nil {
			return
		}
		_ = n.relay.SetDecayFactor(df, now)
	case DFFeedback:
		if err := n.relay.Advance(now); err != nil {
			return
		}
		df := n.relay.Config().DecayPerMinute
		if df <= 0 {
			df = baseline
		}
		est := n.relay.EstimatedFPR()
		switch {
		case est > n.p.cfg.TargetFPR:
			df *= feedbackGrow
		case est < n.p.cfg.TargetFPR/2:
			df *= feedbackShrink
		default:
			return
		}
		if df < baseline {
			df = baseline
		}
		if max := baseline * feedbackCeil; df > max {
			df = max
		}
		_ = n.relay.SetDecayFactor(df, now)
	}
}

// --- Store introspection (adapters and tests) -----------------------------

// CarriedCount returns how many relayed copies the node holds (possibly
// including not-yet-purged expired ones).
func (n *Node) CarriedCount() int { return n.carried.Len() }

// CarriedIDs returns the IDs of all carried copies in ascending order.
func (n *Node) CarriedIDs() []int { return n.carried.IDs() }

// HasCarried reports whether the node carries a copy of message id.
func (n *Node) HasCarried(id int) bool { return n.carried.Has(id) }

// DropCarried removes a carried copy without a session (the simulator
// collapses duplicate copies this way).
func (n *Node) DropCarried(id int) { n.carried.Remove(id) }

// ProducedCount returns how many own messages the node still holds.
func (n *Node) ProducedCount() int { return n.produced.Len() }

// ProducedIDs returns the IDs of all held own messages in ascending order.
func (n *Node) ProducedIDs() []int { return n.produced.IDs() }

// ProducedCopies returns the remaining replication budget of message id,
// or zero if the message is gone.
func (n *Node) ProducedCopies(id int) int {
	if c := n.produced.Get(id); c != nil {
		return c.Copies
	}
	return 0
}

// DeliveredIDs returns the IDs of all messages delivered to this node's
// subscriptions, ascending.
func (n *Node) DeliveredIDs() []int {
	out := make([]int, 0, len(n.delivered))
	for id := range n.delivered {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Purge drops expired copies from both stores, driven by the same
// TTL-from-creation rule the stores' lazy expiry uses (no separate
// wall-clock bookkeeping).
func (n *Node) Purge(now time.Duration) {
	n.produced.Live(now)
	n.carried.Live(now)
}

// ClearSentTo forgets that any produced message was served directly to
// peer. Call it when the peer is declared dead: a restarted incarnation
// starts with an empty delivered set, so the stale sent-marker would
// otherwise block redelivery forever. A live peer that was wrongly
// suspected simply dedups the repeat delivery (exactly-once per
// incarnation is the receiver's job).
func (n *Node) ClearSentTo(peer NodeID) { n.produced.ClearSentTo(peer) }
