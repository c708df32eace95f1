package livenode

import (
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"bsub/internal/core"
	"bsub/internal/testutil"
	"bsub/internal/xrand"
)

// TestJitteredBackoffSpread is the regression test for the pure-doubling
// backoff: every Meet retry delay must land inside the equal-jitter window
// [backoff/2, backoff), and the samples must actually spread instead of
// collapsing onto the ceiling.
func TestJitteredBackoffSpread(t *testing.T) {
	const backoff = 200 * time.Millisecond
	rng := rand.New(rand.NewSource(7))
	seen := map[time.Duration]bool{}
	var lo, hi time.Duration = backoff, 0
	for i := 0; i < 1000; i++ {
		d := xrand.JitteredBackoff(backoff, rng.Float64())
		if d < backoff/2 || d >= backoff {
			t.Fatalf("delay %v outside the jitter window [%v, %v)", d, backoff/2, backoff)
		}
		seen[d] = true
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if len(seen) < 100 {
		t.Errorf("1000 samples produced only %d distinct delays — not jittered", len(seen))
	}
	// The draws must cover most of the window, not cluster at one edge.
	if lo > backoff/2+backoff/8 {
		t.Errorf("smallest delay %v sits far from the window floor %v", lo, backoff/2)
	}
	if hi < backoff-backoff/8 {
		t.Errorf("largest delay %v sits far from the window ceiling %v", hi, backoff)
	}
}

// TestMeetRetriesCounted: every BUSY-driven retry must surface in the
// MeetRetries counter.
func TestMeetRetriesCounted(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	clock := newMeshClock(time.Hour)
	n, err := Listen("127.0.0.1:0", Config{
		ID:           1,
		Protocol:     core.DefaultConfig(0.01),
		TTL:          time.Hour,
		Clock:        clock.now,
		MeetAttempts: 3,
		MeetBackoff:  time.Millisecond,
		DialTimeout:  100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })

	// A dead address fails every attempt; attempts-1 retries follow.
	dead := reservedDeadAddr(t)
	if err := n.Meet(dead); err == nil {
		t.Fatal("meet against a dead address succeeded")
	}
	if c := n.Stats(); c.MeetRetries != 2 {
		t.Errorf("MeetRetries = %d, want 2 (3 attempts)", c.MeetRetries)
	}
}

// reservedDeadAddr returns a loopback address that refuses connections:
// the port was bound and released, so nothing listens there.
func reservedDeadAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	_ = l.Close()
	return addr
}

// TestGossipExchange: gossip frames must round-trip outside contact
// sessions, hit the configured handler, and bump both sides' counters.
func TestGossipExchange(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	clock := newMeshClock(time.Hour)
	var got []byte
	responder, err := Listen("127.0.0.1:0", Config{
		ID:       2,
		Protocol: core.DefaultConfig(0.01),
		TTL:      time.Hour,
		Clock:    clock.now,
		GossipHandler: func(payload []byte) []byte {
			got = append([]byte(nil), payload...)
			return []byte("pong")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = responder.Close() })
	dialer := startNode(t, 1, clock, nil)

	reply, err := dialer.Gossip(responder.Addr(), []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "pong" || string(got) != "ping" {
		t.Errorf("gossip round trip: sent %q got %q, handler saw %q", "ping", reply, got)
	}
	if c := dialer.Stats(); c.GossipSent != 1 {
		t.Errorf("dialer GossipSent = %d, want 1", c.GossipSent)
	}
	if c := responder.Stats(); c.GossipAnswered != 1 {
		t.Errorf("responder GossipAnswered = %d, want 1", c.GossipAnswered)
	}
}

// TestGossipWithoutHandlerDropped: a node with no GossipHandler must drop
// inbound gossip without answering — and without burning a session slot.
func TestGossipWithoutHandlerDropped(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	clock := newMeshClock(time.Hour)
	responder := startNode(t, 2, clock, nil)
	dialer := startNode(t, 1, clock, nil)

	if _, err := dialer.Gossip(responder.Addr(), []byte("ping")); err == nil {
		t.Fatal("gossip against a handler-less node succeeded")
	}
	if c := responder.Stats(); c.GossipAnswered != 0 {
		t.Errorf("GossipAnswered = %d, want 0", c.GossipAnswered)
	}
	// The node must still serve ordinary contacts.
	if err := dialer.Meet(responder.Addr()); err != nil {
		t.Fatalf("contact after dropped gossip: %v", err)
	}
}

// TestDialHook: Config.Dial must carry every outbound connection — Meet
// and Gossip — so a fabric can interpose on the transport.
func TestDialHook(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	clock := newMeshClock(time.Hour)
	responder, err := Listen("127.0.0.1:0", Config{
		ID:            2,
		Protocol:      core.DefaultConfig(0.01),
		TTL:           time.Hour,
		Clock:         clock.now,
		GossipHandler: func(payload []byte) []byte { return payload },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = responder.Close() })

	dials := 0
	refuse := errors.New("interposed transport says no")
	dialer, err := Listen("127.0.0.1:0", Config{
		ID:           1,
		Protocol:     core.DefaultConfig(0.01),
		TTL:          time.Hour,
		Clock:        clock.now,
		MeetAttempts: 1,
		Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			dials++
			if dials > 2 {
				return nil, refuse
			}
			return net.DialTimeout("tcp", addr, timeout)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dialer.Close() })

	if err := dialer.Meet(responder.Addr()); err != nil {
		t.Fatalf("meet through the dial hook: %v", err)
	}
	if _, err := dialer.Gossip(responder.Addr(), []byte("x")); err != nil {
		t.Fatalf("gossip through the dial hook: %v", err)
	}
	if dials != 2 {
		t.Fatalf("dial hook saw %d dials, want 2", dials)
	}
	// Once the hook refuses, the failure surfaces unwrapped-able.
	if err := dialer.Meet(responder.Addr()); !errors.Is(err, refuse) {
		t.Errorf("meet with refusing hook: err = %v, want %v", err, refuse)
	}
}
