// Package mesh grows a livenode from a one-shot pairwise dialer into a
// long-running broker-overlay daemon: the fleet-scale robustness layer
// the paper's "practical pub-sub for human networks" needs.
//
// A Mesh wraps one livenode.Node with three cooperating mechanisms:
//
//   - Membership. A table of known peers (ID, address, role, degree,
//     last-seen) fed by periodic gossip datagrams — push-pull digests in
//     the SWIM/Serf style, riding livenode's frameGossip outside contact
//     sessions so heartbeats flow even when every contact slot is busy.
//     Peers move Alive → Suspect → Dead as heartbeats go missing, and
//     back to Alive the moment fresher evidence (a gossip entry, a
//     completed session, a BUSY answer) arrives; Dead entries linger so
//     their death keeps gossiping, then age out entirely.
//
//   - Per-peer outbound workers with backpressure. Every reachable peer
//     owns one worker goroutine and a bounded job queue (the go-ipfs
//     bitswap PubManager idiom). The scheduler and flood paths enqueue
//     "contact due" and "gossip due" tokens without ever blocking: a
//     full queue coalesces overflow into a single pending token, because
//     one contact session moves every eligible message anyway. Workers
//     reconnect on failure under capped, jittered exponential backoff.
//
//   - Flood/relay dissemination. When a fresh copy lands (published
//     locally or stored off a relay), the mesh immediately schedules
//     contacts with its live broker peers instead of waiting for the
//     periodic tick. Dissemination still runs through ordinary contact
//     sessions, so the engine's claim commit/abort discipline holds: a
//     peer dying mid-hand-off refunds the copy, and copy conservation
//     survives arbitrary churn.
//
// What degrades and what never breaks: under overload the mesh coalesces
// work (fewer, later contacts) and under partition it suspects and
// eventually declares peers dead — but it never blocks a producer, never
// drops a claimed message copy, and never delivers a message twice to
// one subscription (the engine's invariants, untouched here).
package mesh

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"bsub/internal/livenode"
	"bsub/internal/workload"
	"bsub/internal/xrand"
)

// Defaults for the mesh knobs; selected when the corresponding Config
// field is zero.
const (
	DefaultGossipInterval      = 250 * time.Millisecond
	DefaultGossipFanout        = 3
	DefaultGossipEntries       = 32
	DefaultContactInterval     = time.Second
	DefaultContactFanout       = 2
	DefaultQueueDepth          = 8
	DefaultReconnectBackoff    = 50 * time.Millisecond
	DefaultMaxReconnectBackoff = 2 * time.Second
)

// Default suspicion and probing thresholds as multiples of GossipInterval.
const (
	defaultSuspectTicks   = 6
	defaultDeadTicks      = 20
	defaultForgetTicks    = 80
	defaultDeadProbeTicks = 8
)

// Config parameterizes the mesh layer; the wrapped node keeps its own
// livenode.Config.
type Config struct {
	// GossipInterval is the event-loop tick: membership transitions are
	// evaluated and gossip heartbeats scheduled once per interval.
	GossipInterval time.Duration
	// GossipFanout is how many peers (alive and suspect — suspects get
	// probed, not abandoned) are gossiped with per tick.
	GossipFanout int
	// GossipEntries caps the membership rows carried per datagram.
	GossipEntries int
	// ContactInterval is how often a full contact session with each live
	// peer comes due.
	ContactInterval time.Duration
	// ContactFanout caps how many due contacts are scheduled per tick,
	// bounding the dial storm a large membership table could trigger.
	ContactFanout int
	// SuspectAfter / DeadAfter / ForgetAfter are the membership
	// freshness thresholds: a peer unheard-of for SuspectAfter turns
	// Suspect, for DeadAfter turns Dead (its worker stops), and a Dead
	// peer unheard-of for ForgetAfter leaves the table. Zero selects
	// 6, 20, and 80 gossip intervals respectively.
	SuspectAfter time.Duration
	DeadAfter    time.Duration
	ForgetAfter  time.Duration
	// DeadProbeInterval is the anti-entropy cadence: every interval, one
	// dead member (round-robin, least recently tried) gets a single
	// gossip probe at its last known address. Without it a healed
	// partition never remerges — both sides consider the other dead, and
	// dead members receive no gossip or contacts. Zero selects 8 gossip
	// intervals; negative disables probing.
	DeadProbeInterval time.Duration
	// QueueDepth bounds each per-peer job queue; overflow coalesces.
	QueueDepth int
	// ReconnectBackoff / MaxReconnectBackoff shape the workers' jittered
	// exponential reconnect backoff.
	ReconnectBackoff    time.Duration
	MaxReconnectBackoff time.Duration
	// Seeds are addresses gossiped with at start to bootstrap the
	// membership table.
	Seeds []string
	// Seed drives the scheduler's and the workers' jitter; zero selects 1.
	Seed int64
	// OnPeerChange, when set, receives one event per membership state
	// transition. Called from mesh goroutines with no mesh locks held.
	OnPeerChange func(PeerEvent)
}

func (c Config) withDefaults() Config {
	if c.GossipInterval <= 0 {
		c.GossipInterval = DefaultGossipInterval
	}
	if c.GossipFanout <= 0 {
		c.GossipFanout = DefaultGossipFanout
	}
	if c.GossipEntries <= 0 {
		c.GossipEntries = DefaultGossipEntries
	}
	if c.ContactInterval <= 0 {
		c.ContactInterval = DefaultContactInterval
	}
	if c.ContactFanout <= 0 {
		c.ContactFanout = DefaultContactFanout
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = defaultSuspectTicks * c.GossipInterval
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = defaultDeadTicks * c.GossipInterval
	}
	if c.ForgetAfter <= 0 {
		c.ForgetAfter = defaultForgetTicks * c.GossipInterval
	}
	if c.DeadProbeInterval == 0 {
		c.DeadProbeInterval = defaultDeadProbeTicks * c.GossipInterval
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.ReconnectBackoff <= 0 {
		c.ReconnectBackoff = DefaultReconnectBackoff
	}
	if c.MaxReconnectBackoff <= 0 {
		c.MaxReconnectBackoff = DefaultMaxReconnectBackoff
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Mesh is a long-running B-SUB mesh daemon: one live node plus
// membership, per-peer outbound workers, and eager dissemination. Create
// with Start, stop with Close.
type Mesh struct {
	node     *livenode.Node
	cfg      Config
	clock    func() time.Duration
	selfID   uint32
	selfAddr string

	closed    chan struct{}
	closeOnce sync.Once
	closeErr  error
	wg        sync.WaitGroup

	// mu guards the membership table and the scheduler rng. Nothing
	// blocking — dials, channel ops, hook calls — runs while it is held,
	// and it is always the first lock taken: mu, then a worker's mu,
	// then statsMu (both enforced by bsublint's locks analyzer, the
	// order via the rank below).
	//bsub:lockrank 10
	mu            sync.Mutex
	members       map[uint32]*member
	rng           *rand.Rand
	lastDeadProbe time.Duration

	// interests holds one decoded interest filter per downstream
	// subscriber for flood targeting (see interests.go). It has its own
	// lock and is never touched while mu is held.
	interests *interestIndex

	// statsMu guards the counters (see stats.go). Callers may hold mu
	// and a worker's mu; statsMu is always innermost.
	//bsub:lockrank 30
	statsMu  sync.Mutex
	counters Counters
}

// Start listens a live node on addr and wraps it in a mesh daemon. The
// mesh installs its own gossip handler and session/store observers into
// nodeCfg (wrapping, not replacing, any hooks already set), then begins
// gossiping with cfg.Seeds.
func Start(addr string, nodeCfg livenode.Config, cfg Config) (*Mesh, error) {
	cfg = cfg.withDefaults()
	m := &Mesh{
		cfg:       cfg,
		selfID:    nodeCfg.ID,
		closed:    make(chan struct{}),
		members:   map[uint32]*member{},
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		interests: newInterestIndex(nodeCfg.Protocol.FilterConfig()),
	}

	clock := nodeCfg.Clock
	if clock == nil {
		epoch := time.Unix(0, 0)
		clock = func() time.Duration { return time.Since(epoch) }
		nodeCfg.Clock = clock
	}
	m.clock = clock

	nodeCfg.GossipHandler = m.handleGossip
	userSession := nodeCfg.OnSession
	nodeCfg.OnSession = func(st livenode.SessionStats) {
		m.observeSession(st)
		if userSession != nil {
			userSession(st)
		}
	}
	userStored := nodeCfg.OnStored
	nodeCfg.OnStored = func(msg workload.Message) {
		m.flood(msg.MatchKeys()...)
		if userStored != nil {
			userStored(msg)
		}
	}
	userGenuine := nodeCfg.OnPeerGenuine
	nodeCfg.OnPeerGenuine = func(peer uint32, encoded []byte) {
		m.interests.observe(peer, encoded, clock())
		m.bump(&m.counters.InterestFilters)
		if userGenuine != nil {
			userGenuine(peer, encoded)
		}
	}

	node, err := livenode.Listen(addr, nodeCfg)
	if err != nil {
		return nil, fmt.Errorf("mesh: %w", err)
	}
	m.node = node
	m.selfAddr = node.Addr()

	m.wg.Add(1)
	go m.run()
	if len(cfg.Seeds) > 0 {
		m.wg.Add(1)
		go m.bootstrap(cfg.Seeds)
	}
	return m, nil
}

// Node exposes the wrapped live node (stats, engine inspection). The
// mesh owns its lifecycle; do not Close it directly.
func (m *Mesh) Node() *livenode.Node { return m.node }

// ID returns the node's mesh-unique identifier.
func (m *Mesh) ID() uint32 { return m.selfID }

// Addr returns the node's listen address.
func (m *Mesh) Addr() string { return m.selfAddr }

// Subscribe adds interest keys on the wrapped node.
func (m *Mesh) Subscribe(keys ...workload.Key) { m.node.Subscribe(keys...) }

// Publish stores a message for dissemination and, with flood enabled,
// immediately schedules contacts with live broker peers to move it.
func (m *Mesh) Publish(payload []byte, keys ...workload.Key) (int, error) {
	id, err := m.node.Publish(payload, keys...)
	if err == nil {
		m.flood(keys...)
	}
	return id, err
}

// Close stops the event loop, every peer worker, and the wrapped node,
// then waits for all of them. Safe to call concurrently and repeatedly.
func (m *Mesh) Close() error {
	m.closeOnce.Do(func() {
		close(m.closed)
		m.mu.Lock()
		for _, mb := range m.members {
			if mb.worker != nil {
				mb.worker.stop()
				mb.worker = nil
			}
		}
		m.mu.Unlock()
		m.closeErr = m.node.Close()
	})
	m.wg.Wait()
	return m.closeErr
}

// Join gossips with a seed address once, absorbing whatever membership
// the peer answers with. Used for bootstrap and rejoin after restart.
func (m *Mesh) Join(addr string) error {
	reply, err := m.node.Gossip(addr, m.digest())
	if err != nil {
		return err
	}
	m.absorb(reply)
	return nil
}

// bootstrap retries each seed a few times under the workers' backoff
// shape; a seed that stays unreachable is dropped (gossip transitivity
// finds everyone once any seed answers). The backoff separates attempts
// at one seed, so the next seed is tried as soon as the last attempt
// fails.
func (m *Mesh) bootstrap(seeds []string) {
	defer m.wg.Done()
	rng := rand.New(rand.NewSource(m.cfg.Seed + 0x5eed))
	for _, addr := range seeds {
		backoff := m.cfg.ReconnectBackoff
		for attempt := 0; m.Join(addr) != nil && attempt < maxJobRetries; attempt++ {
			timer := time.NewTimer(xrand.JitteredBackoff(backoff, rng.Float64()))
			select {
			case <-m.closed:
				timer.Stop()
				return
			case <-timer.C:
			}
			if backoff < m.cfg.MaxReconnectBackoff {
				backoff *= 2
			}
		}
	}
}

// Peers snapshots the membership table, sorted by ID.
func (m *Mesh) Peers() []Peer {
	m.mu.Lock()
	out := make([]Peer, 0, len(m.members))
	for _, mb := range m.members {
		out = append(out, mb.snapshot())
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// --- Event loop -------------------------------------------------------------

func (m *Mesh) run() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.GossipInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.closed:
			return
		case <-ticker.C:
		}
		m.tick()
	}
}

// tick advances membership states and schedules this interval's gossip
// and contact jobs. All decisions happen under mu; all enqueues (channel
// ops) happen after it is released.
func (m *Mesh) tick() {
	now := m.clock()
	var events []PeerEvent
	var gossip, contacts []*peerWorker

	m.mu.Lock()
	// 1. Freshness-driven transitions.
	for id, mb := range m.members {
		elapsed := now - mb.lastSeen
		switch mb.state {
		case StateAlive:
			if elapsed > m.cfg.SuspectAfter {
				events = append(events, m.transition(mb, StateSuspect))
			}
		case StateSuspect:
			if elapsed > m.cfg.DeadAfter {
				events = append(events, m.transition(mb, StateDead))
			}
		case StateDead:
			if elapsed > m.cfg.DeadAfter+m.cfg.ForgetAfter {
				delete(m.members, id)
				m.bump(&m.counters.Forgotten)
			}
		}
	}
	// 2. Gossip heartbeats: fanout random reachable peers; suspects are
	// deliberately eligible — a successful probe revives them.
	var candidates []*peerWorker
	for _, mb := range m.members {
		if mb.worker != nil {
			candidates = append(candidates, mb.worker)
		}
	}
	m.rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	gossip = append(gossip, candidates[:min(m.cfg.GossipFanout, len(candidates))]...)
	// 3. Due contacts, least recently contacted first, bounded by fanout.
	// A live member's worker is only nil when Close has already retired
	// the fleet under this same lock; skip, the loop is about to exit.
	var due []*member
	for _, mb := range m.members {
		if mb.state == StateAlive && mb.worker != nil && now-mb.lastContact >= m.cfg.ContactInterval {
			due = append(due, mb)
		}
	}
	sort.Slice(due, func(i, j int) bool {
		if due[i].lastContact != due[j].lastContact {
			return due[i].lastContact < due[j].lastContact
		}
		return due[i].id < due[j].id
	})
	for _, mb := range due[:min(m.cfg.ContactFanout, len(due))] {
		mb.lastContact = now
		contacts = append(contacts, mb.worker)
	}
	// 4. Dead-peer probing: suspicion alone cannot heal a partition —
	// once both sides declare the other dead, neither gossips with nor
	// contacts it again, and the split is permanent. A single low-rate
	// gossip probe of the least recently tried dead member is the
	// anti-entropy escape: one successful exchange resurrects that peer
	// and absorbs its side's fresh rows, and ordinary gossip floods the
	// remerge from there.
	var probeID uint32
	var probeAddr string
	if m.cfg.DeadProbeInterval > 0 && now-m.lastDeadProbe >= m.cfg.DeadProbeInterval {
		var probe *member
		for _, mb := range m.members {
			if mb.state != StateDead || mb.addr == "" {
				continue
			}
			if probe == nil || mb.lastContact < probe.lastContact ||
				(mb.lastContact == probe.lastContact && mb.id < probe.id) {
				probe = mb
			}
		}
		if probe != nil {
			m.lastDeadProbe = now
			probe.lastContact = now
			probeID, probeAddr = probe.id, probe.addr
		}
	}
	m.mu.Unlock()

	m.fire(events)
	for _, w := range gossip {
		w.enqueue(jobGossip)
	}
	for _, w := range contacts {
		w.enqueue(jobContact)
	}
	if probeAddr != "" {
		// One-shot goroutine rather than a worker job: dead members have
		// no worker. wg.Add here is safe against Close's Wait because
		// tick runs inside the wg-tracked run goroutine.
		m.bump(&m.counters.DeadProbes)
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			_ = m.gossipPeer(probeID, probeAddr)
		}()
	}
}

// transition moves a member to a new state, manages its worker lifecycle,
// and returns the event to fire once the lock is released. Callers hold mu.
func (m *Mesh) transition(mb *member, to PeerState) PeerEvent {
	from := mb.state
	mb.state = to
	switch {
	case to == StateDead:
		if mb.worker != nil {
			mb.worker.stop()
			mb.worker = nil
		}
		m.bump(&m.counters.Died)
	case to == StateSuspect:
		m.bump(&m.counters.Suspected)
	case to == StateAlive:
		if from == StateDead {
			m.bump(&m.counters.Rejoined)
		} else {
			m.bump(&m.counters.Recovered)
		}
		if mb.worker == nil {
			mb.worker = m.startWorker(mb.id)
		}
	}
	return PeerEvent{Peer: mb.snapshot(), From: from, To: to}
}

// startWorker creates the peer's outbound worker. Its drain goroutine
// spawns lazily on the first enqueue. Callers hold mu.
func (m *Mesh) startWorker(id uint32) *peerWorker {
	return newPeerWorker(m, id, m.cfg.QueueDepth, m.cfg.Seed^int64(id))
}

// fire delivers peer events outside all mesh locks. Declaring a peer dead
// also clears the node's direct-delivery markers for it, so a restarted
// incarnation (empty delivered set) is served again; a wrongly-suspected
// live peer just dedups the repeat.
func (m *Mesh) fire(events []PeerEvent) {
	for _, e := range events {
		if e.To == StateDead {
			m.node.ForgetDeliveries(e.Peer.ID)
			m.interests.forget(e.Peer.ID)
		}
		if m.cfg.OnPeerChange != nil {
			m.cfg.OnPeerChange(e)
		}
	}
}

// --- Gossip -----------------------------------------------------------------

// digest builds this node's membership datagram: itself first (age 0),
// then the freshest table rows up to GossipEntries.
func (m *Mesh) digest() []byte {
	now := m.clock()
	self := gossipEntry{
		ID:     m.selfID,
		Broker: m.node.IsBroker(),
		Addr:   m.selfAddr,
	}
	m.mu.Lock()
	self.Degree = len(m.members)
	rows := make([]gossipEntry, 0, len(m.members)+1)
	rows = append(rows, self)
	for _, mb := range m.members {
		rows = append(rows, gossipEntry{
			ID:     mb.id,
			Broker: mb.broker,
			Degree: mb.degree,
			Age:    max(now-mb.lastSeen, 0),
			Addr:   mb.addr,
		})
	}
	m.mu.Unlock()
	sort.Slice(rows[1:], func(i, j int) bool {
		a, b := rows[1+i], rows[1+j]
		if a.Age != b.Age {
			return a.Age < b.Age
		}
		return a.ID < b.ID
	})
	if len(rows) > m.cfg.GossipEntries {
		rows = rows[:m.cfg.GossipEntries]
	}
	return encodeGossip(rows)
}

// handleGossip answers one inbound gossip datagram: absorb the sender's
// view, reply with ours. Runs on livenode connection goroutines; pure
// in-memory work.
func (m *Mesh) handleGossip(payload []byte) []byte {
	m.absorb(payload)
	return m.digest()
}

// absorb merges a gossip payload into the membership table. Entries only
// ever move a peer's evidence forward: stale rows (older last-seen than
// what the table already holds) are ignored, fresh rows update address,
// role, and degree and may revive suspect or dead peers.
func (m *Mesh) absorb(payload []byte) {
	entries, err := decodeGossip(payload)
	if err != nil {
		m.bump(&m.counters.GossipGarbage)
		return
	}
	m.bump(&m.counters.GossipAbsorbed)
	now := m.clock()
	var events []PeerEvent

	m.mu.Lock()
	for _, e := range entries {
		if e.ID == m.selfID || e.Addr == "" {
			continue
		}
		seen := max(now-e.Age, 0)
		mb := m.members[e.ID]
		if mb == nil {
			state := m.stateFor(now - seen)
			mb = &member{
				id:       e.ID,
				addr:     e.Addr,
				broker:   e.Broker,
				degree:   e.Degree,
				state:    state,
				lastSeen: seen,
			}
			if state != StateDead {
				mb.worker = m.startWorker(e.ID)
			}
			m.members[e.ID] = mb
			events = append(events, PeerEvent{Peer: mb.snapshot(), To: state, Fresh: true})
			continue
		}
		if seen <= mb.lastSeen {
			continue
		}
		mb.lastSeen = seen
		mb.addr = e.Addr
		mb.broker = e.Broker
		mb.degree = e.Degree
		if want := m.stateFor(now - seen); want == StateAlive && mb.state != StateAlive {
			events = append(events, m.transition(mb, StateAlive))
		}
	}
	m.mu.Unlock()
	m.fire(events)
}

// stateFor classifies a peer by how stale its evidence is.
func (m *Mesh) stateFor(elapsed time.Duration) PeerState {
	switch {
	case elapsed > m.cfg.DeadAfter:
		return StateDead
	case elapsed > m.cfg.SuspectAfter:
		return StateSuspect
	}
	return StateAlive
}

// peerAddr returns the current dial address for a peer still in a
// reachable state; ok is false once the peer died or left the table.
func (m *Mesh) peerAddr(id uint32) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mb := m.members[id]
	if mb == nil || mb.state == StateDead {
		return "", false
	}
	return mb.addr, true
}

// observeAlive refreshes a peer's evidence with first-hand proof (a
// completed session, a BUSY answer, a gossip exchange).
func (m *Mesh) observeAlive(id uint32) {
	now := m.clock()
	var events []PeerEvent
	m.mu.Lock()
	if mb := m.members[id]; mb != nil {
		if now > mb.lastSeen {
			mb.lastSeen = now
		}
		if mb.state != StateAlive {
			events = append(events, m.transition(mb, StateAlive))
		}
	}
	m.mu.Unlock()
	m.fire(events)
}

// observeSession feeds contact outcomes back into membership: any session
// that identified its peer is proof of life.
func (m *Mesh) observeSession(st livenode.SessionStats) {
	if st.Peer == 0 {
		return
	}
	switch st.Outcome {
	case livenode.OutcomeCompleted, livenode.OutcomePeerBusy:
		m.observeAlive(st.Peer)
	}
}

// gossipPeer exchanges membership datagrams with one peer.
func (m *Mesh) gossipPeer(id uint32, addr string) error {
	reply, err := m.node.Gossip(addr, m.digest())
	if err != nil {
		m.bump(&m.counters.GossipFailed)
		return err
	}
	m.absorb(reply)
	m.observeAlive(id)
	return nil
}

// contactPeer runs one full contact session with a peer.
func (m *Mesh) contactPeer(id uint32, addr string) error {
	err := m.node.Meet(addr)
	if err != nil {
		m.bump(&m.counters.ContactFailures)
		return err
	}
	m.bump(&m.counters.Contacts)
	m.observeAlive(id)
	return nil
}

// flood eagerly schedules contacts so a fresh copy carrying the given
// keys starts moving now instead of at the next periodic tick. Live
// broker peers are always targeted (they relay on behalf of subscribers
// this node cannot see); live consumer peers are targeted when the
// interest index — one check of each peer's own interest filter — says
// their subscriptions match. The actual transfer still runs through
// ordinary contact sessions — claims commit on ACK and abort on sever —
// so churn mid-hand-off refunds the copy instead of losing it, and the
// periodic scheduler still visits every live peer, so an interest miss
// delays nothing but the eager contact.
func (m *Mesh) flood(keys ...workload.Key) {
	wanted := m.interests.match(keys, m.clock())
	var targets []*peerWorker
	var direct int
	m.mu.Lock()
	for _, mb := range m.members {
		if mb.state != StateAlive || mb.worker == nil {
			continue
		}
		interested := false
		if !mb.broker {
			i := sort.Search(len(wanted), func(i int) bool { return wanted[i] >= mb.id })
			interested = i < len(wanted) && wanted[i] == mb.id
		}
		if mb.broker || interested {
			// Deliberately leave lastContact alone: a flood job the worker
			// drops (peer busy) must not suppress the periodic scheduler for
			// a whole ContactInterval.
			targets = append(targets, mb.worker)
			if interested {
				direct++
			}
		}
	}
	m.mu.Unlock()
	m.bumpN(&m.counters.FloodDirect, direct)
	for _, w := range targets {
		m.bump(&m.counters.FloodTokens)
		w.enqueue(jobContact)
	}
}
