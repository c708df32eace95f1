package mesh

import (
	"errors"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bsub/internal/core"
	"bsub/internal/livenode"
	"bsub/internal/testutil"
	"bsub/internal/xrand"
)

// fakeClock is a controllable time base for driving the tick machinery
// by hand.
type fakeClock struct {
	ns atomic.Int64
}

func (c *fakeClock) now() time.Duration      { return time.Duration(c.ns.Load()) }
func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }
func newFakeClock(start time.Duration) *fakeClock {
	c := &fakeClock{}
	c.ns.Store(int64(start))
	return c
}

func nodeConfig(id uint32, clock func() time.Duration) livenode.Config {
	return livenode.Config{
		ID:       id,
		Protocol: core.DefaultConfig(0.01),
		TTL:      2 * time.Hour,
		Clock:    clock,
	}
}

// --- Gossip codec -----------------------------------------------------------

func TestGossipCodecRoundTrip(t *testing.T) {
	in := []gossipEntry{
		{ID: 1, Broker: true, Degree: 7, Age: 0, Addr: "127.0.0.1:4000"},
		{ID: 2, Broker: false, Degree: 0, Age: 1500 * time.Millisecond, Addr: "10.0.0.9:81"},
		{ID: 0xdeadbeef, Broker: true, Degree: 65535, Age: 250 * time.Millisecond, Addr: "h"},
	}
	out, err := decodeGossip(encodeGossip(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestGossipCodecClamps(t *testing.T) {
	in := []gossipEntry{{
		ID:     9,
		Degree: 1 << 20,                   // beyond uint16
		Age:    -3 * time.Second,          // clock skew must not go negative on the wire
		Addr:   string(make([]byte, 400)), // beyond maxGossipAddr
	}}
	out, err := decodeGossip(encodeGossip(in))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Degree != 1<<16-1 {
		t.Errorf("degree = %d, want clamped to %d", out[0].Degree, 1<<16-1)
	}
	if out[0].Age != 0 {
		t.Errorf("age = %v, want clamped to 0", out[0].Age)
	}
	if len(out[0].Addr) != maxGossipAddr {
		t.Errorf("addr len = %d, want truncated to %d", len(out[0].Addr), maxGossipAddr)
	}
}

func TestGossipCodecRejectsGarbage(t *testing.T) {
	valid := encodeGossip([]gossipEntry{{ID: 1, Addr: "a:1"}})
	cases := map[string][]byte{
		"empty":          {},
		"one byte":       {gossipVersion},
		"bad version":    {99, 0},
		"count beyond":   {gossipVersion, 3, 0, 0, 0, 1},
		"bad flags":      func() []byte { b := append([]byte(nil), valid...); b[6] = 7; return b }(),
		"truncated addr": valid[:len(valid)-1],
		"trailing bytes": append(append([]byte(nil), valid...), 0xff),
	}
	for name, data := range cases {
		if _, err := decodeGossip(data); !errors.Is(err, errGossipGarbage) {
			t.Errorf("%s: err = %v, want errGossipGarbage", name, err)
		}
	}
}

// --- Membership state machine -----------------------------------------------

// eventLog collects peer events thread-safely.
type eventLog struct {
	mu     sync.Mutex
	events []PeerEvent
}

func (l *eventLog) add(e PeerEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, e)
}

func (l *eventLog) snapshot() []PeerEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]PeerEvent(nil), l.events...)
}

// newBareMesh builds a mesh around a live node without starting the
// periodic event loop, so tests drive tick() by hand against a fake
// clock.
func newBareMesh(t *testing.T, id uint32, clock *fakeClock, cfg Config, log *eventLog) *Mesh {
	t.Helper()
	cfg.GossipInterval = time.Hour // irrelevant: tick runs manually
	if log != nil {
		cfg.OnPeerChange = log.add
	}
	ncfg := nodeConfig(id, clock.now)
	node, err := livenode.Listen("127.0.0.1:0", ncfg)
	if err != nil {
		t.Fatal(err)
	}
	m := &Mesh{
		node:     node,
		cfg:      cfg.withDefaults(),
		clock:    clock.now,
		selfID:   id,
		selfAddr: node.Addr(),
		closed:   make(chan struct{}),
		members:  map[uint32]*member{},
		rng:      rand.New(rand.NewSource(1)),
	}
	t.Cleanup(func() { _ = m.Close() })
	return m
}

// entry builds a single-entry gossip payload.
func entry(e gossipEntry) []byte { return encodeGossip([]gossipEntry{e}) }

func TestMembershipLifecycle(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	clock := newFakeClock(time.Hour)
	var log eventLog
	cfg := Config{
		SuspectAfter:     100 * time.Millisecond,
		DeadAfter:        300 * time.Millisecond,
		ForgetAfter:      time.Second,
		ReconnectBackoff: time.Millisecond,
	}
	m := newBareMesh(t, 1, clock, cfg, &log)

	// A fresh gossip entry lands the peer alive. "127.0.0.1:1" is a black
	// hole: jobs against it fail fast, which is fine — this test is about
	// the table, not the wire.
	m.absorb(entry(gossipEntry{ID: 2, Addr: "127.0.0.1:1", Broker: true, Degree: 3}))
	peers := m.Peers()
	if len(peers) != 1 || peers[0].State != StateAlive || !peers[0].Broker || peers[0].Degree != 3 {
		t.Fatalf("after absorb: peers = %+v", peers)
	}

	// Silence past SuspectAfter turns it suspect; past DeadAfter, dead.
	clock.advance(150 * time.Millisecond)
	m.tick()
	if s := m.Peers()[0].State; s != StateSuspect {
		t.Fatalf("after suspect window: state = %v", s)
	}
	clock.advance(200 * time.Millisecond)
	m.tick()
	if s := m.Peers()[0].State; s != StateDead {
		t.Fatalf("after dead window: state = %v", s)
	}

	// Fresh evidence revives a dead peer (rejoin), with its new address.
	m.absorb(entry(gossipEntry{ID: 2, Addr: "127.0.0.1:2"}))
	p := m.Peers()[0]
	if p.State != StateAlive || p.Addr != "127.0.0.1:2" {
		t.Fatalf("after rejoin: %+v", p)
	}

	// Dead long enough to be forgotten leaves the table entirely. States
	// advance one step per tick: suspect, dead, then the forget sweep.
	clock.advance(400 * time.Millisecond)
	m.tick() // suspect again
	clock.advance(cfg.DeadAfter + cfg.ForgetAfter)
	m.tick() // dead
	m.tick() // forgotten
	if n := len(m.Peers()); n != 0 {
		t.Fatalf("after forget window: %d peers still in table", n)
	}

	st := m.Stats()
	if st.Suspected != 2 || st.Died != 2 || st.Rejoined != 1 || st.Forgotten != 1 {
		t.Errorf("transition counters = %+v", st)
	}
	var kinds []string
	for _, e := range log.snapshot() {
		if e.Fresh {
			kinds = append(kinds, "fresh")
			continue
		}
		kinds = append(kinds, e.From.String()+">"+e.To.String())
	}
	want := []string{"fresh", "alive>suspect", "suspect>dead", "dead>alive", "alive>suspect", "suspect>dead"}
	if !reflect.DeepEqual(kinds, want) {
		t.Errorf("event sequence = %v, want %v", kinds, want)
	}
}

// TestDeadProbeResurrectsDeadPeer: once a peer is declared dead it gets
// no gossip and no contacts, so without anti-entropy a healed partition
// would stay split forever. The dead-probe path must find it again.
func TestDeadProbeResurrectsDeadPeer(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	clock := newFakeClock(time.Hour)

	// The probe target is a full mesh so it answers gossip for real.
	target, err := Start("127.0.0.1:0", nodeConfig(2, nil), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()

	var log eventLog
	cfg := Config{
		SuspectAfter:      100 * time.Millisecond,
		DeadAfter:         300 * time.Millisecond,
		DeadProbeInterval: 50 * time.Millisecond,
		ReconnectBackoff:  time.Millisecond,
	}
	m := newBareMesh(t, 1, clock, cfg, &log)

	// Walk the target's table entry to dead through pure silence. The
	// probe may fire on the very tick the peer dies (the tick both
	// transitions and schedules), so the death is asserted via counters
	// rather than by catching the transient dead state.
	m.absorb(entry(gossipEntry{ID: 2, Addr: target.Addr()}))
	clock.advance(150 * time.Millisecond)
	m.tick()
	clock.advance(200 * time.Millisecond)
	m.tick()
	m.tick()
	waitFor(t, 5*time.Second, "dead peer resurrected by probe", func() bool {
		return m.Peers()[0].State == StateAlive
	})
	st := m.Stats()
	if st.Died != 1 {
		t.Errorf("Died = %d, want 1 (the peer must actually have been declared dead)", st.Died)
	}
	if st.DeadProbes == 0 {
		t.Error("DeadProbes counter never bumped")
	}
	if st.Rejoined != 1 {
		t.Errorf("Rejoined = %d, want 1", st.Rejoined)
	}
}

// TestDeadProbeDisabled: a negative DeadProbeInterval switches the
// anti-entropy path off.
func TestDeadProbeDisabled(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	clock := newFakeClock(time.Hour)
	cfg := Config{
		SuspectAfter:      100 * time.Millisecond,
		DeadAfter:         300 * time.Millisecond,
		DeadProbeInterval: -1,
		ReconnectBackoff:  time.Millisecond,
	}
	m := newBareMesh(t, 1, clock, cfg, nil)

	m.absorb(entry(gossipEntry{ID: 2, Addr: "127.0.0.1:1"}))
	clock.advance(150 * time.Millisecond)
	m.tick()
	clock.advance(200 * time.Millisecond)
	m.tick()
	for i := 0; i < 5; i++ {
		clock.advance(time.Second)
		m.tick()
	}
	if st := m.Stats(); st.DeadProbes != 0 {
		t.Errorf("DeadProbes = %d with probing disabled, want 0", st.DeadProbes)
	}
}

func TestStaleGossipNeverRegresses(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	clock := newFakeClock(time.Hour)
	m := newBareMesh(t, 1, clock, Config{ReconnectBackoff: time.Millisecond}, nil)

	m.absorb(entry(gossipEntry{ID: 2, Addr: "127.0.0.1:1", Age: 0}))
	// A much staler view of the same peer arrives: ignored wholesale.
	m.absorb(entry(gossipEntry{ID: 2, Addr: "127.0.0.1:9", Age: time.Minute}))
	if p := m.Peers()[0]; p.Addr != "127.0.0.1:1" {
		t.Errorf("stale gossip overwrote addr: %+v", p)
	}
	// Entries about ourselves are ignored.
	m.absorb(entry(gossipEntry{ID: 1, Addr: "127.0.0.1:9"}))
	if n := len(m.Peers()); n != 1 {
		t.Errorf("self entry entered the table: %d peers", n)
	}
	// Garbage bumps the counter and changes nothing.
	m.absorb([]byte{99, 99, 99})
	if st := m.Stats(); st.GossipGarbage != 1 || len(m.Peers()) != 1 {
		t.Errorf("garbage handling: %+v", st)
	}
}

func TestDigestSelfFirstAndBounded(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	clock := newFakeClock(time.Hour)
	cfg := Config{GossipEntries: 4, ReconnectBackoff: time.Millisecond}
	m := newBareMesh(t, 1, clock, cfg, nil)
	for id := uint32(2); id <= 10; id++ {
		m.absorb(entry(gossipEntry{ID: id, Addr: "127.0.0.1:1", Age: time.Duration(id) * time.Millisecond}))
	}
	entries, err := decodeGossip(m.digest())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("digest carries %d entries, want GossipEntries = 4", len(entries))
	}
	if entries[0].ID != 1 || entries[0].Age != 0 || entries[0].Addr != m.Addr() {
		t.Errorf("digest[0] = %+v, want self with age 0", entries[0])
	}
	// The remaining slots go to the freshest peers (smallest age).
	for i, want := range []uint32{2, 3, 4} {
		if entries[1+i].ID != want {
			t.Errorf("digest[%d].ID = %d, want %d (freshest first)", 1+i, entries[1+i].ID, want)
		}
	}
}

// --- Worker backpressure ----------------------------------------------------

func TestEnqueueCoalescesOnOverflow(t *testing.T) {
	m := &Mesh{} // counters only
	w := newPeerWorker(m, 2, 1, 1)
	// Pretend a drain is already live so enqueue never spawns one and the
	// queue state stays inspectable.
	w.mu.Lock()
	w.running = true
	w.mu.Unlock()

	w.enqueue(jobGossip)  // fills the depth-1 queue
	w.enqueue(jobContact) // overflow: coalesces
	w.enqueue(jobGossip)  // gossip overflow folds into the same token
	if st := m.Stats(); st.QueueCoalesced != 2 {
		t.Errorf("QueueCoalesced = %d, want 2", st.QueueCoalesced)
	}

	// Drain by hand: the queued job first, then the single catch-up
	// contact the overflow collapsed into, then the worker parks.
	if j, ok := w.next(); !ok || j != jobGossip {
		t.Errorf("next() = %v, %v, want the queued gossip job", j, ok)
	}
	if j, ok := w.next(); !ok || j != jobContact {
		t.Errorf("next() = %v, %v, want the coalesced catch-up contact", j, ok)
	}
	if _, ok := w.next(); ok {
		t.Error("next() produced a job from an empty worker")
	}
	w.mu.Lock()
	parked := !w.running
	w.mu.Unlock()
	if !parked {
		t.Error("drained worker did not park")
	}

	// A stopped worker swallows enqueues and produces nothing.
	w.stop()
	w.stop() // idempotent
	w.enqueue(jobContact)
	if _, ok := w.next(); ok {
		t.Error("stopped worker produced a job")
	}
}

// TestJitteredDelaySpread checks the reconnect delays the mesh draws: the
// window's edges and midpoint land in [backoff/2, backoff) and distinct
// samples give distinct delays.
func TestJitteredDelaySpread(t *testing.T) {
	const backoff = 100 * time.Millisecond
	for _, sample := range []float64{0, 0.25, 0.5, 0.999999} {
		d := xrand.JitteredBackoff(backoff, sample)
		if d < backoff/2 || d >= backoff {
			t.Errorf("JitteredBackoff(%v, %v) = %v, want in [%v, %v)", backoff, sample, d, backoff/2, backoff)
		}
	}
	if xrand.JitteredBackoff(backoff, 0) == xrand.JitteredBackoff(backoff, 0.9) {
		t.Error("jitter samples collapse to one delay")
	}
}

// --- Live mesh --------------------------------------------------------------

func fastConfig(seeds ...string) Config {
	return Config{
		GossipInterval:      10 * time.Millisecond,
		ContactInterval:     30 * time.Millisecond,
		SuspectAfter:        150 * time.Millisecond,
		DeadAfter:           500 * time.Millisecond,
		ForgetAfter:         5 * time.Second,
		ReconnectBackoff:    5 * time.Millisecond,
		MaxReconnectBackoff: 100 * time.Millisecond,
		Seeds:               seeds,
	}
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestMeshConvergenceAndDissemination(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	const n = 5
	meshes := make([]*Mesh, 0, n)
	var seedAddr string
	var got sink
	for i := 0; i < n; i++ {
		ncfg := nodeConfig(uint32(i+1), nil)
		var cfg Config
		if seedAddr != "" {
			cfg = fastConfig(seedAddr)
		} else {
			cfg = fastConfig()
		}
		cfg.Seed = int64(i + 1)
		if i == n-1 {
			ncfg.OnDeliver = got.deliver
		}
		m, err := Start("127.0.0.1:0", ncfg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = m.Close() })
		if seedAddr == "" {
			seedAddr = m.Addr()
		}
		meshes = append(meshes, m)
	}
	meshes[n-1].Subscribe("news")

	// Membership converges transitively from a single seed.
	waitFor(t, 10*time.Second, "full membership", func() bool {
		for _, m := range meshes {
			st := m.Stats()
			if st.Alive != n-1 {
				return false
			}
		}
		return true
	})

	// A publish on node 1 reaches node n's subscription through contact
	// sessions alone.
	if _, err := meshes[0].Publish([]byte("over the mesh"), "news"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "delivery", func() bool { return got.count() >= 1 })
	if p := got.payloads()[0]; p != "over the mesh" {
		t.Errorf("payload = %q", p)
	}
	if got.count() > 1 {
		t.Errorf("delivered %d times, want exactly once", got.count())
	}

	// Delivery can complete before node 1's own outbound contact does
	// (the subscriber may pull the message over a contact it initiated),
	// so the counters are eventually-nonzero, not instantly.
	waitFor(t, 10*time.Second, "counters on a converged mesh", func() bool {
		st := meshes[0].Stats()
		return st.GossipAbsorbed > 0 && st.Contacts > 0
	})
}

// TestBootstrapMovesOnAfterLastFailedSeedAttempt pins bootstrap's retry
// shape at an unreachable first seed: 1+maxJobRetries dials to it, then
// the next seed at once, with no backoff sleep after the last failure.
// The backoff floor is 150 ms (half of 300 ms), so a trailing sleep would
// put the live seed's first dial at least that far behind the last dead
// one.
func TestBootstrapMovesOnAfterLastFailedSeedAttempt(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	live, err := Start("127.0.0.1:0", nodeConfig(1, nil), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = live.Close() })

	const dead = "dead-seed.invalid:1"
	var (
		mu        sync.Mutex
		deadDials []time.Time
		liveDial  time.Time
		deadAtHit int // dead dials recorded when the live seed was first dialled
	)
	ncfg := nodeConfig(2, nil)
	ncfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
		now := time.Now()
		mu.Lock()
		if addr == dead {
			deadDials = append(deadDials, now)
			mu.Unlock()
			return nil, errors.New("unreachable seed")
		}
		if addr == live.Addr() && liveDial.IsZero() {
			liveDial, deadAtHit = now, len(deadDials)
		}
		mu.Unlock()
		return net.DialTimeout("tcp", addr, timeout)
	}
	cfg := fastConfig(dead, live.Addr())
	cfg.ReconnectBackoff = 300 * time.Millisecond
	cfg.MaxReconnectBackoff = 300 * time.Millisecond
	m, err := Start("127.0.0.1:0", ncfg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })

	waitFor(t, 10*time.Second, "a dial to the live seed", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return !liveDial.IsZero()
	})
	mu.Lock()
	defer mu.Unlock()
	if deadAtHit != 1+maxJobRetries || len(deadDials) != 1+maxJobRetries {
		t.Fatalf("dead seed dialled %d times before the live seed (%d in all), want %d",
			deadAtHit, len(deadDials), 1+maxJobRetries)
	}
	if gap := liveDial.Sub(deadDials[len(deadDials)-1]); gap >= 100*time.Millisecond {
		t.Errorf("live seed dialled %v after the dead seed's last attempt, want under 100ms", gap)
	}
}

func TestMeshCloseIsIdempotent(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	m, err := Start("127.0.0.1:0", nodeConfig(1, nil), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// sink collects deliveries thread-safely.
type sink struct {
	mu   sync.Mutex
	msgs []livenode.Delivery
}

func (s *sink) deliver(d livenode.Delivery) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.msgs = append(s.msgs, d)
}

func (s *sink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.msgs)
}

func (s *sink) payloads() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.msgs))
	for i, d := range s.msgs {
		out[i] = string(d.Payload)
	}
	return out
}
