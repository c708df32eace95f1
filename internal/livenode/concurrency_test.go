package livenode

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"bsub/internal/core"
	"bsub/internal/workload"
)

// TestHubServesFourPeersConcurrently is the acceptance demo for the
// concurrent session engine: one hub completes sessions with four
// distinct peers at the same time (impossible under the seed's single
// TryLock, where the second contact was refused). A barrier inside the
// hub's OnDeliver holds every session open until all four are in flight,
// so the overlap is proven, not scheduled by luck.
func TestHubServesFourPeersConcurrently(t *testing.T) {
	const peers = 4
	clock := newMeshClock(time.Hour)

	release := make(chan struct{})
	var barrierMu sync.Mutex
	arrived := 0
	var sessionsMu sync.Mutex
	var finished []SessionStats

	hub, err := Listen("127.0.0.1:0", Config{
		ID:          1,
		Protocol:    core.DefaultConfig(0.01),
		TTL:         2 * time.Hour,
		Clock:       clock.now,
		MaxSessions: peers,
		OnDeliver: func(Delivery) {
			barrierMu.Lock()
			arrived++
			if arrived == peers {
				close(release)
			}
			barrierMu.Unlock()
			select {
			case <-release:
			case <-time.After(8 * time.Second):
				// Let the session finish; the overlap assertions below
				// will report the failure.
			}
		},
		OnSession: func(st SessionStats) {
			sessionsMu.Lock()
			finished = append(finished, st)
			sessionsMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Close() })

	mesh := make([]*Node, peers)
	for i := range mesh {
		mesh[i] = startNode(t, uint32(10+i), clock, nil)
		topic := workload.Key(fmt.Sprintf("topic-%d", i))
		hub.Subscribe(topic)
		if _, err := mesh[i].Publish([]byte(fmt.Sprintf("post-%d", i)), topic); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, peers)
	for i := range mesh {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = mesh[i].Meet(hub.Addr())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("peer %d meet: %v", i, err)
		}
	}

	// A dialer's Meet returns once it has read the hub's last frame; the
	// hub's own bookkeeping (counters, then the OnSession hook) finishes
	// just after. Wait for it before checking what it recorded.
	waitActive(t, hub, 0)
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		sessionsMu.Lock()
		n := len(finished)
		sessionsMu.Unlock()
		if n >= peers {
			break
		}
		time.Sleep(time.Millisecond)
	}

	stats := hub.Stats()
	if stats.MaxActive < peers {
		t.Errorf("hub MaxActive = %d, want >= %d concurrent sessions", stats.MaxActive, peers)
	}
	if stats.Completed < peers {
		t.Errorf("hub completed %d sessions, want >= %d", stats.Completed, peers)
	}
	if stats.FramesIn == 0 || stats.FramesOut == 0 || stats.BytesIn == 0 || stats.BytesOut == 0 {
		t.Errorf("hub frame/byte counters empty: %+v", stats)
	}
	if stats.Active != 0 {
		t.Errorf("hub Active = %d after all sessions ended", stats.Active)
	}

	sessionsMu.Lock()
	defer sessionsMu.Unlock()
	distinct := make(map[uint32]struct{})
	for _, st := range finished {
		if st.Outcome != OutcomeCompleted {
			t.Errorf("session with peer %d: outcome %v (phase %v, err %v)",
				st.Peer, st.Outcome, st.Phase, st.Err)
			continue
		}
		if st.Phase != PhaseDone {
			t.Errorf("completed session with peer %d stopped at phase %v", st.Peer, st.Phase)
		}
		if st.Initiator {
			t.Errorf("hub recorded an initiator session it never dialed (peer %d)", st.Peer)
		}
		if st.FramesIn == 0 || st.BytesOut == 0 {
			t.Errorf("session with peer %d has empty transfer counters: %+v", st.Peer, st)
		}
		distinct[st.Peer] = struct{}{}
	}
	if len(distinct) < peers {
		t.Errorf("hub completed sessions with %d distinct peers, want %d", len(distinct), peers)
	}
}

// occupy opens a raw TCP connection that pins one of addr's session
// slots: the responder accepts, acquires a slot, and blocks reading the
// HELLO that never comes. Close the returned conn to free the slot.
// occupy pins one of the node's session slots: it dials, sends a valid
// HELLO, and then stalls mid-session. A silent connect is not enough — a
// slot is taken when the first frame arrives, not at TCP connect, so idle
// connections cannot starve contacts.
func occupy(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, frameHello, hello{ID: 4242}.encode()); err != nil {
		t.Fatal(err)
	}
	return conn
}

// waitActive polls until the node reports want active sessions.
func waitActive(t *testing.T, n *Node, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if n.Stats().Active == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("node never reached %d active sessions (now %d)", want, n.Stats().Active)
}

func TestBusyFrameRefusalAndMeetRetry(t *testing.T) {
	clock := newMeshClock(time.Hour)
	hub, err := Listen("127.0.0.1:0", Config{
		ID:          1,
		Protocol:    core.DefaultConfig(0.01),
		TTL:         time.Hour,
		Clock:       clock.now,
		MaxSessions: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Close() })

	// Pin the hub's only slot, then dial with retries disabled: the hub
	// must answer an explicit BUSY frame, surfaced as ErrPeerBusy.
	blocker := occupy(t, hub.Addr())
	waitActive(t, hub, 1)

	oneShot, err := Listen("127.0.0.1:0", Config{
		ID:           2,
		Protocol:     core.DefaultConfig(0.01),
		TTL:          time.Hour,
		Clock:        clock.now,
		MeetAttempts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = oneShot.Close() })
	if err := oneShot.Meet(hub.Addr()); !errors.Is(err, ErrPeerBusy) {
		t.Fatalf("meet against a full hub: err = %v, want ErrPeerBusy", err)
	}
	if got := hub.Stats().RefusedBusy; got != 1 {
		t.Errorf("hub RefusedBusy = %d, want 1", got)
	}
	if got := oneShot.Stats().PeerBusy; got != 1 {
		t.Errorf("dialer PeerBusy = %d, want 1", got)
	}

	// With retries enabled, Meet must ride out the busy window: free the
	// slot mid-backoff and the retry succeeds.
	patient, err := Listen("127.0.0.1:0", Config{
		ID:           3,
		Protocol:     core.DefaultConfig(0.01),
		TTL:          time.Hour,
		Clock:        clock.now,
		MeetAttempts: 20,
		MeetBackoff:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = patient.Close() })
	go func() {
		time.Sleep(20 * time.Millisecond)
		_ = blocker.Close()
	}()
	if err := patient.Meet(hub.Addr()); err != nil {
		t.Fatalf("meet with retries: %v", err)
	}
	stats := patient.Stats()
	if stats.Completed != 1 {
		t.Errorf("patient Completed = %d, want 1", stats.Completed)
	}
	if stats.PeerBusy == 0 {
		t.Error("patient never saw a BUSY answer; the retry path was not exercised")
	}
}

func TestMeetRefusesAtLocalCapacity(t *testing.T) {
	clock := newMeshClock(time.Hour)
	peer := startNode(t, 2, clock, nil)
	n, err := Listen("127.0.0.1:0", Config{
		ID:           1,
		Protocol:     core.DefaultConfig(0.01),
		TTL:          time.Hour,
		Clock:        clock.now,
		MeetAttempts: 2,
		MeetBackoff:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })

	// Fill every local slot; Meet must refuse without dialing.
	for i := 0; i < cap(n.sessions); i++ {
		n.sessions <- struct{}{}
	}
	if err := n.Meet(peer.Addr()); !errors.Is(err, ErrBusy) {
		t.Fatalf("meet at local capacity: err = %v, want ErrBusy", err)
	}
	if got := n.Stats().RefusedBusy; got != 2 {
		t.Errorf("RefusedBusy = %d, want one per attempt (2)", got)
	}
	for i := 0; i < cap(n.sessions); i++ {
		<-n.sessions
	}
	if err := n.Meet(peer.Addr()); err != nil {
		t.Fatalf("meet after slots freed: %v", err)
	}
}

// TestConcurrentSubscribePublishClose hammers the public API from many
// goroutines while sessions run, then races several Close calls. The
// race detector is the real assertion; the seed's double-close panicked
// here.
func TestConcurrentSubscribePublishClose(t *testing.T) {
	clock := newMeshClock(time.Hour)
	a := startNode(t, 1, clock, nil)
	b := startNode(t, 2, clock, nil)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				a.Subscribe(workload.Key(fmt.Sprintf("k-%d-%d", g, i)))
				if _, err := a.Publish([]byte("x"), workload.Key(fmt.Sprintf("p-%d-%d", g, i))); err != nil {
					t.Error(err)
					return
				}
				_ = a.Interests()
				_ = a.IsBroker()
				_ = a.CarriedCount()
				_ = a.Stats()
			}
		}(g)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				// Busy refusals are fine under contention; wedging is not.
				_ = a.Meet(b.Addr())
				_ = b.Meet(a.Addr())
			}
		}()
	}
	wg.Wait()

	// Concurrent Close calls: the seed's select/default check let two
	// goroutines both close(n.closed) and panic.
	var closers sync.WaitGroup
	for g := 0; g < 8; g++ {
		closers.Add(1)
		go func() {
			defer closers.Done()
			if err := a.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
	}
	closers.Wait()
	if err := a.Close(); err != nil {
		t.Errorf("close after concurrent closes: %v", err)
	}
}

func TestNextAcceptDelayBacksOff(t *testing.T) {
	want := []time.Duration{
		5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond,
		40 * time.Millisecond, 80 * time.Millisecond, 160 * time.Millisecond,
		320 * time.Millisecond, 640 * time.Millisecond, time.Second, time.Second,
	}
	var d time.Duration
	for i, w := range want {
		d = nextAcceptDelay(d)
		if d != w {
			t.Fatalf("step %d: delay = %v, want %v", i, d, w)
		}
	}
}

func TestPhaseAndOutcomeStrings(t *testing.T) {
	phases := []SessionPhase{PhaseConnect, PhaseHello, PhaseElection, PhaseGenuine, PhaseRelay, PhasePull, PhaseDone}
	for _, p := range phases {
		if p.String() == "unknown" {
			t.Errorf("phase %d has no name", p)
		}
	}
	if SessionPhase(200).String() != "unknown" {
		t.Error("out-of-range phase not reported unknown")
	}
	outcomes := []SessionOutcome{OutcomeCompleted, OutcomeError, OutcomePeerBusy, OutcomeRefusedBusy, OutcomeDialError}
	for _, o := range outcomes {
		if o.String() == "unknown" {
			t.Errorf("outcome %d has no name", o)
		}
	}
	if SessionOutcome(200).String() != "unknown" {
		t.Error("out-of-range outcome not reported unknown")
	}
}

// TestDialFailureCountsAndRetries: a dial against a dead address is
// retried MeetAttempts times and accounted as DialErrors.
func TestDialFailureCountsAndRetries(t *testing.T) {
	clock := newMeshClock(time.Hour)
	// Grab an address that is certainly unbound.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	_ = ln.Close()

	n, err := Listen("127.0.0.1:0", Config{
		ID:           1,
		Protocol:     core.DefaultConfig(0.01),
		TTL:          time.Hour,
		Clock:        clock.now,
		MeetAttempts: 3,
		MeetBackoff:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	if err := n.Meet(dead); err == nil {
		t.Fatal("meeting a dead address succeeded")
	}
	if got := n.Stats().DialErrors; got != 3 {
		t.Errorf("DialErrors = %d, want one per attempt (3)", got)
	}
	if got := n.Stats().Started; got != 0 {
		t.Errorf("Started = %d after pure dial failures, want 0", got)
	}
}
