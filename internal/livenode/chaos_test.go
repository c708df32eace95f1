package livenode

import (
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"bsub/internal/core"
	"bsub/internal/faultnet"
	"bsub/internal/tcbf"
	"bsub/internal/testutil"
	"bsub/internal/workload"
)

// faultnet's frame-exact cuts parse the livenode header layout; if the
// wire format changes, the two must move together.
func TestFaultnetUnderstandsOurFraming(t *testing.T) {
	if faultnet.FrameHeaderLen != frameHeaderLen {
		t.Fatalf("faultnet.FrameHeaderLen = %d, livenode frameHeaderLen = %d",
			faultnet.FrameHeaderLen, frameHeaderLen)
	}
}

// interestBytes encodes a counter-less interest filter over keys, as a
// hand-rolled wire peer would send in an interest-BF frame.
func interestBytes(t *testing.T, n *Node, now time.Duration, keys ...workload.Key) []byte {
	t.Helper()
	f, err := tcbf.New(n.filterCfg, now)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InsertAll(keys, now); err != nil {
		t.Fatal(err)
	}
	out, err := f.Encode(tcbf.CountersNone)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// advertBytes encodes a partitioned counter-less relay advert over keys,
// as a hand-rolled broker peer would send in a replication pull.
func advertBytes(t *testing.T, n *Node, now time.Duration, keys ...workload.Key) []byte {
	t.Helper()
	parts := n.cfg.Protocol.RelayPartitions
	if parts < 1 {
		parts = 1
	}
	f := tcbf.MustNewPartitioned(n.filterCfg, parts, now)
	for _, k := range keys {
		if err := f.InsertPre(tcbf.Precompute(k), now); err != nil {
			t.Fatal(err)
		}
	}
	out, err := f.Encode(tcbf.CountersNone)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// pullOneMessageWithoutAck speaks phases 0–2 (HELLO, election, genuine) of
// the contact protocol against node from the initiator side, then sends
// one interest-BF pull request and reads back one frameMessage — which it
// never ACKs. Returns with the message frame consumed and the session
// parked exactly inside the sender's awaitAck.
//
// In both callers the node ends up the consumer side of the genuine phase
// (it elects this peer a broker, or the peer announced itself as one), so
// the harness reads the node's genuine frame and never sends its own.
// A non-nil emptyDeliveryPull runs an empty delivery pull first so the
// responder moves on to the replication answer.
func pullOneMessageWithoutAck(t *testing.T, conn net.Conn, peerHello hello, pullPurpose byte, pullBody, emptyDeliveryPull []byte) {
	t.Helper()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeFrame(conn, frameHello, peerHello.encode()); err != nil {
		t.Fatal(err)
	}
	if _, err := expectFrame(conn, frameHello); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, frameElection, []byte{electNone}); err != nil {
		t.Fatal(err)
	}
	if _, err := expectFrame(conn, frameElection); err != nil {
		t.Fatal(err)
	}
	if _, err := expectFrame(conn, frameGenuine); err != nil {
		t.Fatal(err)
	}
	if emptyDeliveryPull != nil {
		if err := writeFrame(conn, frameInterestBF, append([]byte{pullDelivery}, emptyDeliveryPull...)); err != nil {
			t.Fatal(err)
		}
		if _, err := expectFrame(conn, frameEndMessages); err != nil {
			t.Fatal(err)
		}
	}
	if err := writeFrame(conn, frameInterestBF, append([]byte{pullPurpose}, pullBody...)); err != nil {
		t.Fatal(err)
	}
	if _, err := expectFrame(conn, frameMessage); err != nil {
		t.Fatal(err)
	}
	// The copy is in flight and unACKed: vanish, as a peer walking out
	// of radio range the moment the frame landed.
}

// TestSeverBeforeAckRefundsCarriedCopy is the regression test for the
// pre-ACK silent-loss bug: a carried copy was spent the moment
// writeFrame returned, so a contact severed right after the message
// frame — before the receiver processed it — destroyed the copy. With
// ACKed hand-off the claim must be refunded.
func TestSeverBeforeAckRefundsCarriedCopy(t *testing.T) {
	clock := newMeshClock(time.Hour)
	node := startNode(t, 1, clock, nil)
	now := clock.now()
	node.acceptCarried(workload.Message{
		ID:        4242,
		Key:       "hot",
		Origin:    7,
		CreatedAt: now,
	}, []byte("precious copy"), now)
	if node.CarriedCount() != 1 {
		t.Fatal("carried copy not planted")
	}

	local, remote := net.Pipe()
	defer local.Close()
	done := make(chan error, 1)
	go func() { done <- node.runContact(remote, false) }()

	pullOneMessageWithoutAck(t, local, hello{ID: 99}, pullDelivery,
		interestBytes(t, node, now, "hot"), nil)
	local.Close() // sever before the ACK

	err := <-done
	if err == nil {
		t.Fatal("severed session reported success")
	}
	if node.CarriedCount() != 1 {
		t.Fatalf("carried copies after severed, unACKed hand-off = %d, want 1 (refunded)",
			node.CarriedCount())
	}
	c := node.Stats()
	if c.MsgsRefunded != 1 {
		t.Errorf("MsgsRefunded = %d, want 1", c.MsgsRefunded)
	}
	if c.Severed != 1 {
		t.Errorf("Severed = %d, want 1 (got outcome %v)", c.Severed, err)
	}
}

// TestSeverBeforeAckRefundsReplicationCopy covers the produced-store
// variant: a replication hand-off decrements the copy budget when
// claimed; severing before the ACK must refund the copy — including
// re-inserting a message the claim had removed at copies == 0.
func TestSeverBeforeAckRefundsReplicationCopy(t *testing.T) {
	clock := newMeshClock(time.Hour)
	node := startNode(t, 1, clock, nil)
	now := clock.now()
	id, err := node.Publish([]byte("replicate me"), "hot")
	if err != nil {
		t.Fatal(err)
	}
	copyLimit := core.DefaultConfig(0.01).CopyLimit

	local, remote := net.Pipe()
	defer local.Close()
	done := make(chan error, 1)
	go func() { done <- node.runContact(remote, false) }()

	// Present as a broker so the responder answers a replication pull;
	// the empty delivery pull runs first to stay in protocol lockstep.
	pullOneMessageWithoutAck(t, local, hello{ID: 99, Broker: true}, pullReplication,
		advertBytes(t, node, now, "hot"), interestBytes(t, node, now))
	local.Close() // sever before the ACK

	if err := <-done; err == nil {
		t.Fatal("severed session reported success")
	}
	node.mu.Lock()
	copies := node.eng.ProducedCopies(id)
	node.mu.Unlock()
	if copies == 0 {
		t.Fatal("produced message vanished after severed, unACKed replication")
	}
	if copies != copyLimit {
		t.Errorf("copies = %d, want %d (claim refunded)", copies, copyLimit)
	}
	if c := node.Stats(); c.MsgsRefunded != 1 {
		t.Errorf("MsgsRefunded = %d, want 1", c.MsgsRefunded)
	}
}

// TestTimedOutOutcome: a peer that connects and then stalls must be cut
// by the per-frame deadline and accounted as a timeout.
func TestTimedOutOutcome(t *testing.T) {
	clock := newMeshClock(time.Hour)
	cfg := Config{
		ID:             1,
		Protocol:       core.DefaultConfig(0.01),
		TTL:            time.Hour,
		Clock:          clock.now,
		SessionTimeout: 50 * time.Millisecond,
	}
	node, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })

	local, remote := net.Pipe()
	defer local.Close()
	defer remote.Close()
	done := make(chan error, 1)
	go func() { done <- node.runContact(remote, false) }()
	// Never send the HELLO; the responder's first frame read must expire.
	err = <-done
	if err == nil {
		t.Fatal("stalled session reported success")
	}
	if c := node.Stats(); c.TimedOut != 1 {
		t.Errorf("TimedOut = %d, want 1 (err %v)", c.TimedOut, err)
	}
}

// TestCorruptOutcome: a bit flip in flight must surface as
// ErrCorruptFrame and be accounted as corruption, not a decoder panic.
func TestCorruptOutcome(t *testing.T) {
	clock := newMeshClock(time.Hour)
	a := startNode(t, 1, clock, nil)
	b := startNode(t, 2, clock, nil)

	ca, cb := net.Pipe()
	// Flip a bit inside the initiator's HELLO frame body.
	fa := faultnet.Wrap(ca, faultnet.Plan{FlipMask: 0x10, FlipByte: frameHeaderLen + 2})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _ = a.runContact(fa, true); fa.Close() }()
	go func() { defer wg.Done(); _ = b.runContact(cb, false); cb.Close() }()
	wg.Wait()

	if c := b.Stats(); c.Corrupt != 1 {
		t.Errorf("responder Corrupt = %d, want 1", c.Corrupt)
	}
}

// chaosPlan deterministically cycles through every fault mode, with
// seeded offsets so a failure reproduces bit-for-bit.
func chaosPlan(rng *rand.Rand, mode int) faultnet.Plan {
	switch mode % 6 {
	case 0:
		return faultnet.Plan{Latency: time.Millisecond}
	case 1:
		return faultnet.Plan{FlipMask: 1 << uint(rng.Intn(8)), FlipByte: int64(10 + rng.Intn(400))}
	case 2:
		return faultnet.Plan{CutWriteAfter: int64(20 + rng.Intn(600))}
	case 3:
		return faultnet.Plan{CutReadAfter: int64(20 + rng.Intn(600))}
	case 4:
		return faultnet.Plan{Seed: rng.Int63(), PartialWrites: true}
	default:
		return faultnet.Plan{CutWriteAfterFrames: 1 + rng.Intn(10)}
	}
}

// TestChaosFaultySessionsConserveCopies drives many concurrent sessions
// through every fault mode and asserts the failure-model invariants:
// message copies are conserved (nothing a severed contact touched is
// lost), no message is ever delivered twice, the nodes still serve clean
// contacts afterwards, and no goroutine leaks.
func TestChaosFaultySessionsConserveCopies(t *testing.T) {
	const chaosRounds = 8
	testutil.CheckGoroutineLeaks(t)
	clock := newMeshClock(time.Hour)

	type recorder struct {
		mu   sync.Mutex
		seen map[int]int
	}
	topics := []workload.Key{"alpha", "beta", "gamma", "delta", "omega"}
	nodes := make([]*Node, len(topics))
	recs := make([]*recorder, len(topics))
	for i := range nodes {
		rec := &recorder{seen: make(map[int]int)}
		recs[i] = rec
		n, err := Listen("127.0.0.1:0", Config{
			ID:             uint32(i + 1),
			Protocol:       core.DefaultConfig(0.01),
			TTL:            12 * time.Hour,
			Clock:          clock.now,
			SessionTimeout: 2 * time.Second,
			OnDeliver: func(d Delivery) {
				rec.mu.Lock()
				rec.seen[d.Message.ID]++
				rec.mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		n.Subscribe(topics[i])
	}
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()

	// Every node publishes one message for every other node's topic.
	type published struct {
		id     int
		key    workload.Key
		origin int
	}
	var pubs []published
	for i, n := range nodes {
		for j, topic := range topics {
			if i == j {
				continue
			}
			id, err := n.Publish([]byte("chaos payload"), topic)
			if err != nil {
				t.Fatal(err)
			}
			pubs = append(pubs, published{id: id, key: topic, origin: i})
		}
	}

	// Storm: six pipe contacts per round, all concurrent — the hub
	// (nodes[0]) runs four sessions at once while the peers pair off —
	// each through a different deterministic fault plan. Errors are the
	// point; panics, deadlocks, and lost copies are the bugs.
	rng := rand.New(rand.NewSource(1))
	pairs := [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {3, 4}}
	mode := 0
	for round := 0; round < chaosRounds; round++ {
		var wg sync.WaitGroup
		for _, p := range pairs {
			dialer, responder := nodes[p[0]], nodes[p[1]]
			ca, cb := net.Pipe()
			fc := faultnet.Wrap(ca, chaosPlan(rng, mode))
			mode++
			wg.Add(2)
			go func() { defer wg.Done(); _ = dialer.runContact(fc, true); fc.Close() }()
			go func() { defer wg.Done(); _ = responder.runContact(cb, false); cb.Close() }()
		}
		wg.Wait()
		clock.advance(time.Minute)
	}

	// The faults must actually have registered as failures.
	var faults uint64
	for _, n := range nodes {
		c := n.Stats()
		faults += c.Severed + c.Corrupt + c.TimedOut
	}
	if faults == 0 {
		t.Error("chaos storm produced no severed/corrupt/timed-out sessions")
	}

	// Recovery: clean full-mesh contacts over real TCP. Every node must
	// still serve a clean session, and — because severed hand-offs were
	// refunded, never lost — every subscriber must end up with every
	// matching message exactly once.
	for round := 0; round < 5; round++ {
		for i := range nodes {
			for j := range nodes {
				if i == j {
					continue
				}
				if err := nodes[i].Meet(nodes[j].Addr()); err != nil {
					t.Fatalf("clean contact %d->%d after chaos failed: %v", i, j, err)
				}
			}
		}
		clock.advance(time.Minute)
	}

	for j, rec := range recs {
		rec.mu.Lock()
		for _, p := range pubs {
			if p.origin == j || p.key != topics[j] {
				continue
			}
			if got := rec.seen[p.id]; got != 1 {
				t.Errorf("node %d saw message %d (%s) %d times, want exactly 1 — copies not conserved",
					j, p.id, p.key, got)
			}
		}
		for id, count := range rec.seen {
			if count > 1 {
				t.Errorf("node %d saw message %d delivered %d times", j, id, count)
			}
		}
		rec.mu.Unlock()
	}

	// Shutdown must release every session goroutine; the leak check
	// registered at the top verifies it after cleanup.
	for _, n := range nodes {
		_ = n.Close()
	}
}
