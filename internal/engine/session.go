package engine

import (
	"fmt"
	"slices"
	"time"

	"bsub/internal/msgstore"
	"bsub/internal/tcbf"
	"bsub/internal/workload"
)

// Budget meters the bytes a contact may move; the simulator's
// sim.Budget satisfies it. A failed Spend must deduct nothing.
type Budget interface {
	Spend(n int) bool
}

// Unlimited is the Budget for transports that do not meter bytes (the
// live TCP node).
type Unlimited struct{}

// Spend always succeeds.
func (Unlimited) Spend(int) bool { return true }

// Transfer is a message copy a session step selected for the peer, with
// the claim rule the step fixed for it (see Session.Claim).
type Transfer struct {
	Msg workload.Message
	// pref is ForwardCandidates' sort key, Section VI-B's counter
	// difference; the pulls leave it zero.
	pref float64
	kind claimKind
}

// Session is one side of a contact: a pinned view of the node's role plus
// the typed protocol steps, in the order the contact runs them:
//
//	BeginContact → Hello/SetPeer → Elect/Apply →
//	  both brokers:  RelayOut/SetPeerRelay → ForwardCandidates → Claim →
//	                 MergeRelay
//	  mixed roles:   GenuineOut → AbsorbGenuine
//	  both, per side: InterestOut → DeliveryMatches → Claim;
//	                 RelayAdvertOut → ReplicationMatches → Claim
//
// A matching step fixes each Transfer's claim rule, so an adapter claims
// every selected copy the same way, whichever step chose it.
//
// Each *Out step returns the Section VI-C wire encoding (charged to the
// Budget; nil, nil when the budget refuses) and each consuming step
// decodes it, so the two adapters exchange identical bytes. Claims remove
// copies from the node's stores immediately; Commit settles them, Abort
// (or Session.Abort after a severed contact) refunds them. Spent budget
// is never refunded: a severed contact still transmitted the bytes.
//
// A session owns a scratch arena — filters, encode buffers, candidate and
// transfer lists, claim records — that Release returns to its SessionCache
// for the next contact, so a warm BeginContact → … → Release cycle allocates
// nothing. The arena implies an aliasing contract: bytes returned by an
// *Out step are read-only and valid until the same step runs again on this
// session (or the session is released), and the slices returned by
// ForwardCandidates, DeliveryMatches, and ReplicationMatches are valid
// until the same kind of step runs again. For a node with exactly one
// subscription, GenuineOut and InterestOut return bytes memoized in the
// arena and shared with every later call for the same key, on this node
// or any other the arena serves. A caller that mutated them would corrupt
// other contacts' wire bytes: the live adapter copies them into its
// frames, and the simulator adapter only decodes them.
type Session struct {
	n      *Node
	budget Budget
	now    time.Duration
	// cache is where Release returns this session.
	cache *SessionCache

	// helloBroker pins the role announced at contact start; concurrent
	// sessions on a live node may change n.broker underneath us, and the
	// election must act on what the peer was told.
	helloBroker bool
	hello       Hello

	peer    Hello
	peerSet bool

	// selfBroker/peerBroker are the post-election roles every later step
	// keys off; relay/peerRelay are the filters pinned for this contact.
	selfBroker bool
	peerBroker bool
	relay      *tcbf.Partitioned
	peerRelay  *tcbf.Partitioned // points at peerRelayBuf once set

	claims   []*Claim
	poisoned bool
	released bool

	// --- scratch arena, recycled across contacts by Release ---------------
	// Filters are allocated lazily (a plain user's sessions never build the
	// partitioned scratch); each *Out step owns a byte buffer, and decoded
	// peer state lives in its own filter so one step cannot clobber state a
	// later step still reads (SetPeerRelay's decode must survive until
	// ForwardCandidates/MergeRelay, which may interleave with the pulls).
	peerRelayBuf *tcbf.Partitioned // SetPeerRelay decode target
	genuineBuf   *tcbf.Partitioned // GenuineOut build / AbsorbGenuine decode
	advertBuf    *tcbf.Partitioned // ReplicationMatches decode target
	interestBuf  *tcbf.Filter      // InterestOut build (protocol-fixed plain BF)
	deliveryBuf  *tcbf.Filter      // DeliveryMatches decode target

	relayEnc    []byte
	genuineEnc  []byte
	interestEnc []byte
	advertEnc   []byte

	// encMemo memoizes single-key nodes' GenuineOut/InterestOut bytes by
	// key. With one subscription both encodings are pure functions of the
	// key and the arena's filter geometry — CountersUniform and
	// CountersNone carry no clock — so an arena serving many nodes encodes
	// each key once. dropArena clears it along with the geometry.
	encMemo map[workload.Key]*keyEnc
	// params is the parameter block the arena's scratch state is built
	// for. A rebind compares the incoming node's block against it by
	// pointer: nodes of one population share one block, so the geometry
	// compare runs only when an arena moves between populations.
	params *Params

	cands     []Transfer
	transfers []Transfer

	claimArena claimArena
}

// SessionCache pools released sessions' scratch arenas. One arena per
// node would leave gigabytes of idle scratch filters at million-node
// populations; an adapter that serializes its contacts (a live node
// under its lock) or runs one cache per worker (the sharded simulator)
// needs only as many arenas as it has concurrent contacts, whatever the
// population size. A cache must not be used from concurrent goroutines,
// and every node it serves should run the same filter geometry
// (Config.FilterM/FilterK/Partitions): a session rebound to a node with
// different geometry drops its arena, memoized encodings included, and
// rebuilds lazily. The zero value is an empty cache.
type SessionCache struct {
	free []*Session
}

// NewSessionCache returns an empty cache.
func NewSessionCache() *SessionCache { return &SessionCache{} }

// BeginContact opens a contact session at the given time, drawing a
// released session's scratch arena from c when one is available; Release
// returns it to c. The hello snapshot (role, degree) is taken before the
// meeting itself is recorded. Rebinding a cached arena to a different
// node is safe: every scratch filter is Reset/DecodeInto'd (which re-pins
// its clock) before use, so the arena carries no state — and in
// particular no time obligation — between nodes.
//
//bsub:hotpath
func (n *Node) BeginContact(c *SessionCache, budget Budget, now time.Duration) *Session {
	var s *Session
	if k := len(c.free); k > 0 {
		s = c.free[k-1]
		c.free[k-1] = nil
		c.free = c.free[:k-1]
		if s.n != n {
			if n.p != s.params {
				if n.p.geom != s.params.geom {
					s.dropArena()
				}
				s.params = n.p
			}
			s.n = n
		}
	} else {
		s = &Session{n: n, params: n.p}
	}
	s.cache = c
	return s.begin(budget, now)
}

// arenaGeometry is the filter geometry a session arena's scratch state
// depends on.
type arenaGeometry struct {
	fcfg       tcbf.Config
	partitions int
}

// dropArena discards geometry-dependent scratch state — the scratch
// filters and the encoding memo — so the next use rebuilds it for the
// session's current node.
//
//bsub:coldpath
func (s *Session) dropArena() {
	s.peerRelayBuf = nil
	s.genuineBuf = nil
	s.advertBuf = nil
	s.interestBuf = nil
	s.deliveryBuf = nil
	clear(s.encMemo)
}

// keyEnc holds one key's memoized interest encodings, each nil until first
// built. The bytes are shared by every caller and never mutated.
type keyEnc struct {
	genuine  []byte
	interest []byte
}

// memoFor returns the memo entry for the node's single subscription, or
// nil when the node subscribes to zero or several keys and must encode
// afresh.
//
//bsub:hotpath
func (s *Session) memoFor() *keyEnc {
	if len(s.n.interests) != 1 {
		return nil
	}
	k := s.n.interests[0]
	if e := s.encMemo[k]; e != nil {
		return e
	}
	return s.newMemo(k)
}

// newMemo adds an empty memo entry for k.
//
//bsub:coldpath
func (s *Session) newMemo(k workload.Key) *keyEnc {
	if s.encMemo == nil {
		s.encMemo = make(map[workload.Key]*keyEnc)
	}
	e := &keyEnc{}
	s.encMemo[k] = e
	return e
}

// begin (re)initializes a session for one contact.
//
//bsub:hotpath
func (s *Session) begin(budget Budget, now time.Duration) *Session {
	if budget == nil {
		budget = Unlimited{}
	}
	n := s.n
	s.budget = budget
	s.now = now
	s.ratchet()
	s.helloBroker = n.broker
	s.hello = Hello{ID: n.id, Broker: n.broker, Degree: n.Degree(now)}
	s.peer = Hello{}
	s.peerSet = false
	s.selfBroker, s.peerBroker = false, false
	s.relay, s.peerRelay = nil, nil
	s.claims = s.claims[:0]
	s.claimArena.reset()
	s.poisoned = false
	s.released = false
	return s
}

// claimLeakHook, when non-nil, observes the number of unsettled claims a
// Release had to refund. Well-behaved adapters settle every claim before
// releasing, so a non-zero count is a copy-accounting bug waiting to
// happen under the conservation invariant. Tests install an observer to
// assert hygiene; builds with the bsubdebug tag install a panicking hook
// at init so leaks fail loudly during development runs.
var claimLeakHook func(leaked int)

// Release ends the session's lifecycle: any unsettled claim is refunded
// (as by Abort) and the session's scratch arena returns to its cache,
// where the next BeginContact reuses its filters, buffers, and claim
// records.
// The session, its claims, and any slice a step returned must not be used
// after Release. Idempotent.
//
// Release forgives unsettled claims only as a severed-contact backstop:
// the refund keeps conservation intact, but leaving claims for Release to
// mop up is a bug in the caller. claimLeakHook (always-on under the
// bsubdebug build tag) asserts that the count is zero.
//
//bsub:hotpath
func (s *Session) Release() {
	if s.released {
		return
	}
	leaked := s.Abort()
	if leaked > 0 && claimLeakHook != nil {
		claimLeakHook(leaked)
	}
	s.released = true
	s.cache.free = append(s.cache.free, s)
}

// ratchet clamps the session's pinned time to the node's high-water mark.
// Live adapters run sessions concurrently: each pins its clock at
// BeginContact, then interleaves engine steps with peers' sessions on the
// same node. Shared state (the relay filter) and recycled scratch filters
// remember the latest time they were touched at, so a step running with an
// older pinned clock would trip tcbf's monotonic-clock check mid-contact.
// Ratcheting at each TCBF-touching step keeps per-node time non-decreasing;
// under serialized monotone time the ratchet never fires.
//
//bsub:hotpath
func (s *Session) ratchet() {
	if s.n.clockHigh > s.now {
		s.now = s.n.clockHigh
	} else {
		s.n.clockHigh = s.now
	}
}

// scratchRelay lazily builds the partitioned scratch filter in slot.
//
//bsub:coldpath
func (s *Session) scratchRelay(slot **tcbf.Partitioned) *tcbf.Partitioned {
	if *slot == nil {
		*slot = tcbf.MustNewPartitioned(s.n.p.geom.fcfg, s.n.p.geom.partitions, s.now)
	}
	return *slot
}

// scratchFilter lazily builds the plain scratch filter in slot.
//
//bsub:coldpath
func (s *Session) scratchFilter(slot **tcbf.Filter) *tcbf.Filter {
	if *slot == nil {
		*slot = tcbf.MustNew(s.n.p.geom.fcfg, s.now)
	}
	return *slot
}

// Hello returns the announcement this side opens the contact with.
//
//bsub:hotpath
func (s *Session) Hello() Hello { return s.hello }

// Peer returns the peer's announcement (zero until SetPeer).
//
//bsub:hotpath
func (s *Session) Peer() Hello { return s.peer }

// Now returns the contact time.
//
//bsub:hotpath
func (s *Session) Now() time.Duration { return s.now }

// SetPeer ingests the peer's hello and records the meeting.
//
//bsub:hotpath
func (s *Session) SetPeer(peer Hello) {
	s.peer = peer
	s.peerSet = true
	s.n.RecordMeeting(peer.ID, s.now)
}

// Elect runs the broker-allocation rule (Section VI-A) and returns this
// side's verdict for the peer. Brokers never run allocation; users count
// the distinct brokers sighted within the window and promote the peer
// below T_l, or demote a below-mean-degree broker peer above T_u.
//
//bsub:hotpath
func (s *Session) Elect() Action {
	if !s.peerSet || s.helloBroker {
		return ActNone
	}
	if s.peer.Broker {
		s.n.RecordBrokerSighting(s.peer.ID, s.peer.Degree, s.now)
	}
	count, meanDegree := s.n.brokersInWindow(s.now)
	switch {
	case count < s.n.p.cfg.BrokerLow && !s.peer.Broker:
		return ActPromote
	case count > s.n.p.cfg.BrokerHigh && s.peer.Broker && float64(s.peer.Degree) < meanDegree:
		// The demoted broker leaves our sighting window immediately.
		s.n.forgetSighting(s.peer.ID)
		return ActDemote
	}
	return ActNone
}

// Apply settles the election: own is this side's verdict from Elect, peer
// is the verdict the peer sent for us. It fixes the roles every later
// step uses, runs the DF retuning policy, and pins the relay filter.
//
//bsub:hotpath
func (s *Session) Apply(own, peer Action) {
	s.ratchet()
	if own == ActPromote && peer == ActPromote {
		// Mutual designation (two users in a broker-scarce neighbourhood
		// each elect the other): promote only the higher-ID side, so a
		// two-user bootstrap yields one broker and keeps a consumer. Both
		// sides compute the same tie-break from the exchanged hellos.
		if s.n.id > s.peer.ID {
			own = ActNone
		} else {
			peer = ActNone
		}
	}
	switch peer {
	case ActPromote:
		s.n.Promote(s.now)
		s.selfBroker = true
	case ActDemote:
		s.n.Demote()
		s.selfBroker = false
	default:
		// Use the announced role, not n.broker: a concurrent session may
		// have changed it since, but this contact agreed on the hello.
		s.selfBroker = s.helloBroker
	}
	switch own {
	case ActPromote:
		s.peerBroker = true
		s.n.RecordBrokerSighting(s.peer.ID, s.peer.Degree, s.now)
	case ActDemote:
		s.peerBroker = false
	default:
		s.peerBroker = s.peer.Broker
	}
	s.n.RetuneDF(s.now)
	if s.selfBroker {
		s.relay = s.n.relay
		if s.relay == nil {
			// Demoted by a concurrent session after our hello: run the
			// contact as announced against a throwaway filter.
			s.relay = tcbf.MustNewPartitioned(s.n.p.geom.fcfg, s.n.p.geom.partitions, s.now)
		}
	}
}

// SelfBroker reports this side's post-election role.
//
//bsub:hotpath
func (s *Session) SelfBroker() bool { return s.selfBroker }

// PeerBroker reports the peer's post-election role.
//
//bsub:hotpath
func (s *Session) PeerBroker() bool { return s.peerBroker }

// RelayExchange reports whether this contact is broker-broker.
//
//bsub:hotpath
func (s *Session) RelayExchange() bool { return s.selfBroker && s.peerBroker }

// SendsGenuine reports whether this side propagates its genuine interest
// filter (consumer meeting a broker).
//
//bsub:hotpath
func (s *Session) SendsGenuine() bool { return s.peerBroker && !s.selfBroker }

// ReceivesGenuine reports whether this side absorbs the peer's genuine
// interest filter (broker meeting a consumer).
//
//bsub:hotpath
func (s *Session) ReceivesGenuine() bool { return s.selfBroker && !s.peerBroker }

// GenuineOut encodes this node's genuine interest filter (counters at
// the uniform initial value) for A-merge into the peer broker's relay
// filter. Returns nil, nil when the budget refuses the transfer.
//
//bsub:hotpath
func (s *Session) GenuineOut() ([]byte, error) {
	s.ratchet()
	slot, memoized := &s.genuineEnc, false
	if e := s.memoFor(); e != nil {
		slot, memoized = &e.genuine, true
	}
	return s.interestsOut(s.scratchRelay(&s.genuineBuf), tcbf.CountersUniform, slot, memoized)
}

// interestEncoder is what GenuineOut and InterestOut need of their scratch
// filters: a partitioned TCBF and a plain TCBF respectively.
type interestEncoder interface {
	Reset(now time.Duration)
	InsertAllPre(keys []tcbf.PreKey, now time.Duration) error
	EncodeTo(dst []byte, mode tcbf.CounterMode) ([]byte, error)
}

// interestsOut returns the node's interests built into f and encoded in
// mode, charging the budget. The encoding lands in *slot: a memoized slot
// (a single-key node's memo entry) is built once into bytes of its own and
// returned as is from then on; any other slot is the session's reused
// buffer, rebuilt every call.
//
//bsub:hotpath
func (s *Session) interestsOut(f interestEncoder, mode tcbf.CounterMode, slot *[]byte, memoized bool) ([]byte, error) {
	if !memoized || *slot == nil {
		f.Reset(s.now)
		if err := f.InsertAllPre(s.n.preInterests, s.now); err != nil {
			return nil, err
		}
		enc, err := f.EncodeTo((*slot)[:0], mode)
		if err != nil {
			return nil, err
		}
		*slot = enc
	}
	data := *slot
	if !s.budget.Spend(len(data)) {
		return nil, nil
	}
	return data, nil
}

// AbsorbGenuine A-merges a peer consumer's genuine filter into the relay
// filter ("brokers use A-merge to merge the genuine filters of
// consumers"). A nil/empty input (peer budget refusal) is a no-op.
//
//bsub:hotpath
func (s *Session) AbsorbGenuine(data []byte) error {
	s.ratchet()
	if len(data) == 0 || s.relay == nil {
		return nil
	}
	// genuineBuf is safe to reuse as the decode target: a session either
	// sends or receives genuine filters, never both (the roles are fixed
	// by Apply), and the merge consumes the decoded state immediately.
	g := s.scratchRelay(&s.genuineBuf)
	if err := g.DecodeInto(data, s.now); err != nil {
		return err
	}
	return s.relay.AMerge(g, s.now)
}

// RelayOut advances and encodes this broker's relay filter with full
// counters for the broker-broker exchange. Returns nil, nil when the
// budget refuses.
//
//bsub:hotpath
func (s *Session) RelayOut() ([]byte, error) {
	s.ratchet()
	if s.relay == nil {
		return nil, nil
	}
	if err := s.relay.Advance(s.now); err != nil {
		return nil, err
	}
	data, err := s.relay.EncodeTo(s.relayEnc[:0], tcbf.CountersFull)
	if err != nil {
		return nil, err
	}
	s.relayEnc = data
	if !s.budget.Spend(len(data)) {
		return nil, nil
	}
	return data, nil
}

// SetPeerRelay ingests the peer broker's encoded relay filter — its
// pre-merge state, which forwarding decisions and MergeRelay both use.
// nil/empty input leaves the peer relay unset (no exchange happened).
//
//bsub:hotpath
func (s *Session) SetPeerRelay(data []byte) error {
	s.ratchet()
	if len(data) == 0 {
		return nil
	}
	pr := s.scratchRelay(&s.peerRelayBuf)
	if err := pr.DecodeInto(data, s.now); err != nil {
		// The in-place decode may have left a partial mix of old and new
		// state in the scratch filter; unpin it so later steps cannot act
		// on corrupt data.
		s.peerRelay = nil
		return err
	}
	s.peerRelay = pr
	return nil
}

// ForwardCandidates returns the carried messages to preferentially
// forward to the peer broker — strictly positive preference against the
// peer's pre-merge relay filter, largest first (ties by ascending ID).
// "The two brokers ... make message forwarding decisions before merging
// their relay filters."
//
//bsub:hotpath
func (s *Session) ForwardCandidates() ([]Transfer, error) {
	s.ratchet()
	if s.relay == nil || s.peerRelay == nil {
		return nil, nil
	}
	cands := s.cands[:0]
	for _, e := range s.n.carried.Live(s.now) {
		best, ok := 0.0, false
		for _, k := range e.Pre {
			pref, err := tcbf.PreferencePartitionedPre(k, s.peerRelay, s.relay, s.now)
			if err != nil {
				return nil, err
			}
			if pref > best {
				best, ok = pref, true
			}
		}
		if !ok || best <= 0 {
			continue
		}
		cands = append(cands, Transfer{Msg: e.Msg, pref: best, kind: claimCarried})
	}
	slices.SortFunc(cands, func(a, b Transfer) int {
		switch {
		case a.pref > b.pref:
			return -1
		case a.pref < b.pref:
			return 1
		case a.Msg.ID < b.Msg.ID:
			return -1
		case a.Msg.ID > b.Msg.ID:
			return 1
		}
		return 0
	})
	s.cands = cands
	return cands, nil
}

// MergeRelay folds the peer's pre-merge relay filter into this broker's
// (M-merge by default; A-merge between brokers is the Fig. 6 ablation).
// Run it after forwarding decisions. No-op without a completed exchange.
//
//bsub:hotpath
func (s *Session) MergeRelay() error {
	s.ratchet()
	if s.relay == nil || s.peerRelay == nil {
		return nil
	}
	if s.n.p.cfg.BrokerMerge == BrokerMergeAdditive {
		return s.relay.AMerge(s.peerRelay, s.now)
	}
	return s.relay.MMerge(s.peerRelay, s.now)
}

// InterestOut encodes this node's interests as a counter-less Bloom
// filter ("the consumer reports its interests in a BF (not TCBF)") to
// pull deliveries from the peer. Returns nil, nil when the budget
// refuses.
//
//bsub:hotpath
func (s *Session) InterestOut() ([]byte, error) {
	s.ratchet()
	slot, memoized := &s.interestEnc, false
	if e := s.memoFor(); e != nil {
		slot, memoized = &e.interest, true
	}
	return s.interestsOut(s.scratchFilter(&s.interestBuf), tcbf.CountersNone, slot, memoized)
}

// DeliveryMatches decodes the peer's interest BF and returns the messages
// to serve it: the node's own messages not yet sent to this peer, then
// carried copies (which the peer consumes — a carried delivery hands the
// copy off). Matching is probabilistic; the receiver decides whether a
// delivery was genuine.
//
//bsub:hotpath
func (s *Session) DeliveryMatches(data []byte) ([]Transfer, error) {
	s.ratchet()
	if !s.peerSet {
		return nil, fmt.Errorf("engine: delivery matches before peer hello")
	}
	if len(data) == 0 {
		return nil, nil
	}
	f := s.scratchFilter(&s.deliveryBuf)
	if err := f.DecodeInto(data, s.now); err != nil {
		return nil, err
	}
	out := s.transfers[:0]
	for _, e := range s.n.produced.Live(s.now) {
		if e.SentTo(s.peer.ID) {
			continue
		}
		match, err := f.ContainsAnyPre(e.Pre, s.now)
		if err != nil {
			return nil, err
		}
		if !match {
			continue
		}
		out = append(out, Transfer{Msg: e.Msg, kind: claimDirect})
	}
	for _, e := range s.n.carried.Live(s.now) {
		if e.Msg.Origin == s.peer.ID {
			continue
		}
		match, err := f.ContainsAnyPre(e.Pre, s.now)
		if err != nil {
			return nil, err
		}
		if !match {
			continue
		}
		out = append(out, Transfer{Msg: e.Msg, kind: claimCarried})
	}
	s.transfers = out
	return out, nil
}

// RelayAdvertOut advances and encodes this broker's relay filter as a
// counter-less BF advert; producers answer with matching messages to
// replicate ("false positives here are what inject useless traffic").
// Returns nil, nil when the budget refuses or the node has no relay.
//
//bsub:hotpath
func (s *Session) RelayAdvertOut() ([]byte, error) {
	s.ratchet()
	if s.relay == nil {
		return nil, nil
	}
	if err := s.relay.Advance(s.now); err != nil {
		return nil, err
	}
	data, err := s.relay.EncodeTo(s.advertEnc[:0], tcbf.CountersNone)
	if err != nil {
		return nil, err
	}
	s.advertEnc = data
	if !s.budget.Spend(len(data)) {
		return nil, nil
	}
	return data, nil
}

// ReplicationMatches decodes the peer broker's relay advert and returns
// this producer's own messages with remaining copy budget that match it.
//
//bsub:hotpath
func (s *Session) ReplicationMatches(data []byte) ([]Transfer, error) {
	s.ratchet()
	if !s.peerSet {
		return nil, fmt.Errorf("engine: replication matches before peer hello")
	}
	if len(data) == 0 {
		return nil, nil
	}
	adv := s.scratchRelay(&s.advertBuf)
	if err := adv.DecodeInto(data, s.now); err != nil {
		return nil, err
	}
	out := s.transfers[:0]
	for _, e := range s.n.produced.Live(s.now) {
		if e.Copies <= 0 {
			continue
		}
		match, err := adv.ContainsAnyPre(e.Pre, s.now)
		if err != nil {
			return nil, err
		}
		if match {
			out = append(out, Transfer{Msg: e.Msg, kind: claimReplication})
		}
	}
	s.transfers = out
	return out, nil
}

// --- Claims ---------------------------------------------------------------

// claimKind is a transfer's claim rule: it selects what Claim takes from
// the stores and what Abort refunds.
type claimKind uint8

const (
	claimCarried claimKind = iota + 1
	claimDirect
	claimReplication
)

// Claim is a message copy removed from its store pending transmission.
// Commit settles it; Abort puts it back. Exactly one of the two runs —
// later calls are no-ops.
type Claim struct {
	msg     workload.Message
	payload []byte
	settled bool

	// kind, entry, and peer fully describe the refund action; a typed
	// record instead of a closure keeps claims allocation-free.
	kind  claimKind
	n     *Node
	entry *msgstore.Copy
	peer  NodeID
}

// Msg returns the claimed message.
//
//bsub:hotpath
func (c *Claim) Msg() workload.Message { return c.msg }

// Payload returns the claimed message's payload bytes.
//
//bsub:hotpath
func (c *Claim) Payload() []byte { return c.payload }

// Commit settles the claim: the copy is spent for good.
//
//bsub:hotpath
func (c *Claim) Commit() { c.settled = true }

// Abort refunds an unsettled claim.
//
//bsub:hotpath
func (c *Claim) Abort() {
	if c.settled {
		return
	}
	c.settled = true
	switch c.kind {
	case claimCarried:
		c.n.carried.Add(c.entry)
	case claimDirect:
		c.entry.UnmarkSent(c.peer)
	case claimReplication:
		c.entry.Copies++
	}
}

// claimArena hands out Claim records from fixed-size chunks, so the
// pointers a session returns stay stable while the backing memory is
// reused across contacts. (A plain slice would not do: append growth
// relocates earlier records, dangling the *Claim pointers already handed
// to the adapter.)
type claimArena struct {
	chunks [][]Claim
	used   int
}

const claimChunkSize = 16

//bsub:hotpath
func (a *claimArena) take() *Claim {
	ci, off := a.used/claimChunkSize, a.used%claimChunkSize
	if ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]Claim, claimChunkSize))
	}
	a.used++
	c := &a.chunks[ci][off]
	*c = Claim{}
	return c
}

//bsub:hotpath
func (a *claimArena) reset() { a.used = 0 }

// Claim takes transfer t's copy under the rule its step fixed, charging
// the budget and recording the refund Abort runs:
//
//   - a carried copy leaves the carried store (preferential forward or
//     carried delivery); Abort restores it;
//   - an own message delivered directly marks this peer served ("direct
//     deliveries are not counted against the copy limit"); Abort clears
//     the mark so a later contact can retry;
//   - a replication spends one of the message's copies. Exhausting them
//     ends replication only: the message stays in the produced store (at
//     zero copies) until its TTL, so later contacts can still serve
//     matching subscribers directly. Abort restores the copy.
//
// (nil, true) means "skip this message, keep going": the copy is gone, or
// already served or exhausted. (nil, false) means "stop": no budget left,
// or the session is aborted.
//
//bsub:hotpath
func (s *Session) Claim(t Transfer) (*Claim, bool) {
	if s.poisoned {
		return nil, false
	}
	var e *msgstore.Copy
	switch t.kind {
	case claimCarried:
		e = s.n.carried.Get(t.Msg.ID)
	case claimDirect:
		if e = s.n.produced.Get(t.Msg.ID); e != nil && e.SentTo(s.peer.ID) {
			e = nil
		}
	case claimReplication:
		if e = s.n.produced.Get(t.Msg.ID); e != nil && e.Copies <= 0 {
			e = nil
		}
	}
	if e == nil {
		return nil, true
	}
	if !s.budget.Spend(e.Msg.Size) {
		return nil, false
	}
	c := s.claimArena.take()
	c.msg, c.payload = e.Msg, e.Payload
	c.kind, c.n, c.entry, c.peer = t.kind, s.n, e, s.peer.ID
	s.claims = append(s.claims, c)
	switch t.kind {
	case claimCarried:
		s.n.carried.Remove(t.Msg.ID)
	case claimDirect:
		e.MarkSent(s.peer.ID)
	case claimReplication:
		e.Copies--
	}
	return c, true
}

// Abort refunds every unsettled claim (a severed contact's MSGACKs never
// arrived) and poisons the session against further claims. It returns the
// number of copies refunded. Spent budget is not returned: the bytes of a
// severed contact were still transmitted.
//
//bsub:hotpath
func (s *Session) Abort() int {
	s.poisoned = true
	refunded := 0
	for _, c := range s.claims {
		if !c.settled {
			c.Abort()
			refunded++
		}
	}
	return refunded
}
