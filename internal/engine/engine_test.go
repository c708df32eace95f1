package engine

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"bsub/internal/tcbf"
	"bsub/internal/workload"
)

func mustNode(t *testing.T, id NodeID, cfg Config, ttl time.Duration) *Node {
	t.Helper()
	p, err := NewParams(cfg, ttl)
	if err != nil {
		t.Fatal(err)
	}
	return p.NewNode(id)
}

// contact runs the hello/election round trip between two nodes and
// returns the two sessions, post-election.
func contact(a, b *Node, budget Budget, now time.Duration) (*Session, *Session) {
	cache := NewSessionCache()
	sa := a.BeginContact(cache, budget, now)
	sb := b.BeginContact(cache, budget, now)
	sa.SetPeer(sb.Hello())
	sb.SetPeer(sa.Hello())
	actA, actB := sa.Elect(), sb.Elect()
	sa.Apply(actA, actB)
	sb.Apply(actB, actA)
	return sa, sb
}

func TestNodeValidation(t *testing.T) {
	cfg := DefaultConfig(0.1)
	if _, err := NewParams(cfg, 0); err == nil {
		t.Error("zero TTL accepted")
	}
	cfg.CopyLimit = 0
	if _, err := NewParams(cfg, time.Hour); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestPromoteCreatesRelayFilter(t *testing.T) {
	n := mustNode(t, 1, DefaultConfig(0.1), time.Hour)
	n.Promote(0)
	if !n.IsBroker() || n.Relay() == nil {
		t.Fatal("promotion did not install a relay filter")
	}
	relay := n.Relay()
	n.Promote(0) // idempotent
	if n.Relay() != relay {
		t.Error("re-promotion replaced the relay filter")
	}
}

func TestDemoteKeepsCarriedCopies(t *testing.T) {
	n := mustNode(t, 1, DefaultConfig(0.1), time.Hour)
	n.Promote(0)
	n.AcceptCarried(workload.Message{ID: 9, Key: "k"}, nil, 0)
	n.Demote()
	if n.IsBroker() || n.Relay() != nil {
		t.Error("demotion incomplete")
	}
	if !n.HasCarried(9) {
		t.Error("demotion dropped carried copies; they should serve until TTL")
	}
	n.Demote() // idempotent on non-brokers
}

func TestElectDemotesBelowAverageBroker(t *testing.T) {
	// A user that has sighted more than T_u brokers within the window
	// demotes a broker whose degree is below the sighted average.
	cfg := DefaultConfig(0.1)
	user := mustNode(t, 0, cfg, time.Hour)
	weak := mustNode(t, 1, cfg, time.Hour)
	weak.Promote(0)

	now := 10 * time.Minute
	// Six prior sightings (count > T_u = 5) of well-connected brokers.
	for i := 2; i < 8; i++ {
		user.RecordBrokerSighting(i, 10, now)
	}
	// The weak broker announces degree 0 (no meetings): below average.
	su, sw := contact(user, weak, Unlimited{}, now)
	if weak.IsBroker() {
		t.Error("below-average broker not demoted")
	}
	if su.PeerBroker() || sw.SelfBroker() {
		t.Error("sessions did not settle on the demotion")
	}
	if _, still := sightingsMap(user)[weak.id]; still {
		t.Error("demoted broker still sighted")
	}
}

func TestElectSparesAboveAverageBroker(t *testing.T) {
	cfg := DefaultConfig(0.1)
	user := mustNode(t, 0, cfg, time.Hour)
	strong := mustNode(t, 1, cfg, time.Hour)
	strong.Promote(0)

	now := 10 * time.Minute
	// The strong broker has met many peers recently.
	for i := 2; i < 9; i++ {
		strong.RecordMeeting(i, now)
	}
	// Six sightings of weaker brokers (degree 1).
	for i := 2; i < 8; i++ {
		user.RecordBrokerSighting(i, 1, now)
	}
	contact(user, strong, Unlimited{}, now)
	if !strong.IsBroker() {
		t.Error("above-average broker was demoted")
	}
}

func TestBrokersDoNotElect(t *testing.T) {
	cfg := DefaultConfig(0.1)
	broker := mustNode(t, 0, cfg, time.Hour)
	peer := mustNode(t, 1, cfg, time.Hour)
	broker.Promote(0)
	cache := NewSessionCache()
	sb := broker.BeginContact(cache, Unlimited{}, time.Minute)
	sp := peer.BeginContact(cache, Unlimited{}, time.Minute)
	sb.SetPeer(sp.Hello())
	if act := sb.Elect(); act != ActNone {
		t.Errorf("a broker elected %v; Section V-B forbids it", act)
	}
}

func TestElectPromotesWhenFewBrokers(t *testing.T) {
	cfg := DefaultConfig(0.1)
	user := mustNode(t, 0, cfg, time.Hour)
	peer := mustNode(t, 1, cfg, time.Hour)
	su, sp := contact(user, peer, Unlimited{}, time.Minute)
	if !peer.IsBroker() {
		t.Error("peer not promoted despite broker scarcity")
	}
	if !su.PeerBroker() || !sp.SelfBroker() {
		t.Error("sessions did not settle on the promotion")
	}
	if _, ok := sightingsMap(user)[peer.id]; !ok {
		t.Error("promotion not recorded as a sighting")
	}
}

func TestMutualPromotionTieBreak(t *testing.T) {
	// Two broker-scarce users each elect the other; only the higher-ID
	// side may take broker duty, or a two-user network loses its consumer.
	cfg := DefaultConfig(0.1)
	a := mustNode(t, 4, cfg, time.Hour)
	b := mustNode(t, 7, cfg, time.Hour)
	sa, sb := contact(a, b, Unlimited{}, time.Minute)
	if a.IsBroker() {
		t.Error("lower-ID side promoted on a mutual designation")
	}
	if !b.IsBroker() {
		t.Error("higher-ID side not promoted")
	}
	if !sa.SendsGenuine() || !sb.ReceivesGenuine() {
		t.Error("post-election roles inconsistent with the tie-break")
	}
}

func TestDegreePrunesOutsideWindow(t *testing.T) {
	cfg := DefaultConfig(0.1)
	n := mustNode(t, 0, cfg, time.Hour)
	window := cfg.Window
	n.RecordMeeting(1, 0)
	n.RecordMeeting(2, window/2)
	n.RecordMeeting(3, window)
	now := window + time.Minute
	// Peer 1 (too old) pruned; 2 and 3 inside the window.
	if got := n.Degree(now); got != 2 {
		t.Errorf("degree = %d, want 2", got)
	}
	if _, still := meetingsMap(n)[1]; still {
		t.Error("stale meeting not pruned")
	}
}

func TestBrokersInWindowPrunes(t *testing.T) {
	cfg := DefaultConfig(0.1)
	n := mustNode(t, 0, cfg, time.Hour)
	window := cfg.Window
	n.RecordBrokerSighting(1, 4, 0)
	n.RecordBrokerSighting(2, 8, window)
	count, mean := n.brokersInWindow(window + time.Minute)
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	if mean != 8 {
		t.Errorf("mean degree = %g, want 8", mean)
	}
	count, mean = n.brokersInWindow(3 * window)
	if count != 0 || mean != 0 {
		t.Errorf("expired sightings: count=%d mean=%g", count, mean)
	}
}

func TestRetuneDFFeedbackDirection(t *testing.T) {
	// A saturated relay filter must raise the DF; an empty one must lower
	// it toward the baseline. Start well above the C/TTL floor so both
	// directions are observable.
	cfg := DefaultConfig(1.0)
	cfg.DFMode = DFFeedback
	cfg.TargetFPR = 0.002
	n := mustNode(t, 0, cfg, time.Hour)
	n.Promote(0)

	// Saturate the relay filter well past the target FPR.
	genuine := tcbf.MustNewPartitioned(cfg.FilterConfig(), 1, 0)
	for _, k := range workload.NewTrendKeySet().Keys() {
		if err := genuine.InsertPre(tcbf.Precompute(k), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Relay().AMerge(genuine, 0); err != nil {
		t.Fatal(err)
	}
	before := n.RelayDF()
	n.RetuneDF(0)
	after := n.RelayDF()
	if after <= before {
		t.Errorf("saturated filter: DF %g -> %g, want increase", before, after)
	}

	// Drain the filter (huge decay interval) and retune: DF must shrink
	// back toward the baseline.
	if err := n.Relay().Advance(100 * time.Hour); err != nil {
		t.Fatal(err)
	}
	before = n.RelayDF()
	n.RetuneDF(100 * time.Hour)
	after = n.RelayDF()
	if after >= before {
		t.Errorf("empty filter: DF %g -> %g, want decrease", before, after)
	}
}

func TestRetuneDFOnlineScalesWithDegree(t *testing.T) {
	cfg := DefaultConfig(0)
	cfg.DFMode = DFOnlineEq5
	quiet := mustNode(t, 0, cfg, time.Hour)
	busy := mustNode(t, 1, cfg, time.Hour)
	quiet.Promote(0)
	busy.Promote(0)
	now := 30 * time.Minute
	for i := 2; i < 12; i++ {
		busy.RecordMeeting(i, now)
	}
	quiet.RetuneDF(now)
	busy.RetuneDF(now)
	if busy.RelayDF() <= quiet.RelayDF() {
		t.Errorf("busy broker DF %g not above quiet broker DF %g "+
			"(more collected keys -> faster decay per Eq. 5)", busy.RelayDF(), quiet.RelayDF())
	}
}

func TestHelloSnapshotExcludesCurrentContact(t *testing.T) {
	// The degree a node announces must not count the meeting being opened:
	// both sides snapshot their hello before SetPeer records the peer.
	cfg := DefaultConfig(0.1)
	a := mustNode(t, 0, cfg, time.Hour)
	b := mustNode(t, 1, cfg, time.Hour)
	a.RecordMeeting(5, time.Minute)
	cache := NewSessionCache()
	sa := a.BeginContact(cache, Unlimited{}, 2*time.Minute)
	if got := sa.Hello().Degree; got != 1 {
		t.Fatalf("hello degree = %d, want 1", got)
	}
	sb := b.BeginContact(cache, Unlimited{}, 2*time.Minute)
	sa.SetPeer(sb.Hello())
	if got := a.Degree(2 * time.Minute); got != 2 {
		t.Errorf("post-SetPeer degree = %d, want 2", got)
	}
}

func TestGenuinePropagationRoundTrip(t *testing.T) {
	// Consumer -> broker genuine propagation must plant the consumer's
	// interests in the broker's relay filter, through the wire encoding.
	cfg := DefaultConfig(0.01)
	consumer := mustNode(t, 0, cfg, time.Hour)
	broker := mustNode(t, 1, cfg, time.Hour)
	consumer.Subscribe("alpha", "beta")
	broker.Promote(0)

	sc, sb := contact(consumer, broker, Unlimited{}, time.Minute)
	if !sc.SendsGenuine() || !sb.ReceivesGenuine() {
		t.Fatal("mixed contact did not settle on genuine propagation")
	}
	data, err := sc.GenuineOut()
	if err != nil || data == nil {
		t.Fatalf("GenuineOut: %v (data=%v)", err, data)
	}
	if err := sb.AbsorbGenuine(data); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"alpha", "beta"} {
		ok, err := broker.Relay().ContainsPre(tcbf.Precompute(k), time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("relay filter missing propagated interest %q", k)
		}
	}
}

// carried, direct and replication build transfers with an explicit claim
// rule, so a test can claim a stored message by ID without running the
// matching step that would otherwise select it.
func carried(id int) Transfer {
	return Transfer{Msg: workload.Message{ID: id}, kind: claimCarried}
}

func direct(id int) Transfer {
	return Transfer{Msg: workload.Message{ID: id}, kind: claimDirect}
}

func replication(id int) Transfer {
	return Transfer{Msg: workload.Message{ID: id}, kind: claimReplication}
}

func TestClaimAbortRefundsCopies(t *testing.T) {
	// Every claim type must refund on abort: carried copies return, direct
	// sends unmark, replication budgets restore.
	cfg := DefaultConfig(0.1)
	n := mustNode(t, 0, cfg, time.Hour)
	peer := mustNode(t, 1, cfg, time.Hour)
	msgC := workload.Message{ID: 1, Key: "k", Origin: 9, Size: 10}
	msgP := workload.Message{ID: 2, Key: "k", Origin: 0, Size: 10}
	n.AcceptCarried(msgC, nil, 0)
	n.AddProduced(msgP, nil)

	s, _ := contact(n, peer, Unlimited{}, time.Minute)

	cc, ok := s.Claim(carried(1))
	if cc == nil || !ok {
		t.Fatal("carried claim refused")
	}
	if n.HasCarried(1) {
		t.Fatal("claim left the carried copy in the store")
	}
	cd, ok := s.Claim(direct(2))
	if cd == nil || !ok {
		t.Fatal("direct claim refused")
	}
	cr, ok := s.Claim(replication(2))
	if cr == nil || !ok {
		t.Fatal("replication claim refused")
	}
	if got := n.ProducedCopies(2); got != cfg.CopyLimit-1 {
		t.Fatalf("copies after claim = %d, want %d", got, cfg.CopyLimit-1)
	}

	if refunded := s.Abort(); refunded != 3 {
		t.Fatalf("Abort refunded %d claims, want 3", refunded)
	}
	if !n.HasCarried(1) {
		t.Error("aborted carried claim not restored")
	}
	if got := n.ProducedCopies(2); got != cfg.CopyLimit {
		t.Errorf("aborted replication left copies at %d, want %d", got, cfg.CopyLimit)
	}
	if c, _ := s.Claim(direct(2)); c != nil {
		t.Error("poisoned session handed out a claim")
		c.Abort()
	}
	// The aborted direct send must be retryable in a fresh session.
	s2, _ := contact(n, peer, Unlimited{}, 2*time.Minute)
	if c, ok := s2.Claim(direct(2)); c == nil || !ok {
		t.Error("aborted direct send not retryable")
	}
}

func TestClaimReplicationExhaustsBudgetOnly(t *testing.T) {
	// Exhaustion ends replication, not direct service: the message stays
	// in the produced store at zero copies until TTL, further replication
	// claims are refused, and an abort of the last claim restores the copy.
	cfg := DefaultConfig(0.1)
	cfg.CopyLimit = 1
	n := mustNode(t, 0, cfg, time.Hour)
	peer := mustNode(t, 1, cfg, time.Hour)
	n.AddProduced(workload.Message{ID: 3, Key: "k", Origin: 0, Size: 5}, nil)
	s, _ := contact(n, peer, Unlimited{}, time.Minute)
	c, ok := s.Claim(replication(3))
	if c == nil || !ok {
		t.Fatal("replication claim refused")
	}
	if n.ProducedCount() != 1 {
		t.Fatal("exhausted message evicted from the produced store")
	}
	if n.ProducedCopies(3) != 0 {
		t.Fatal("claimed last copy still counted")
	}
	c.Abort()
	if n.ProducedCopies(3) != 1 {
		t.Fatal("aborted last-copy claim not restored")
	}
	// Re-claim and commit: replication is over, but the message remains
	// for direct delivery until its TTL.
	c, _ = s.Claim(replication(3))
	if c == nil {
		t.Fatal("re-claim refused")
	}
	c.Commit()
	if n.ProducedCount() != 1 {
		t.Error("committed last copy evicted the message")
	}
	if c2, ok := s.Claim(replication(3)); c2 != nil || !ok {
		t.Error("exhausted message still claimable for replication")
	}
	if c2, ok := s.Claim(direct(3)); c2 == nil || !ok {
		t.Error("exhausted message not claimable for direct delivery")
	} else {
		c2.Abort()
	}
	// Past the TTL the store finally lets go.
	if n.Purge(2 * time.Hour); n.ProducedCount() != 0 {
		t.Error("expired message still stored")
	}
}

func TestClearSentToReopensDirectDelivery(t *testing.T) {
	// A committed direct delivery pins a per-peer sent-marker; declaring
	// the peer dead clears it so a restarted incarnation is served again.
	cfg := DefaultConfig(0.1)
	n := mustNode(t, 0, cfg, time.Hour)
	peer := mustNode(t, 1, cfg, time.Hour)
	n.AddProduced(workload.Message{ID: 7, Key: "k", Origin: 0, Size: 5}, nil)
	s, _ := contact(n, peer, Unlimited{}, time.Minute)
	c, ok := s.Claim(direct(7))
	if c == nil || !ok {
		t.Fatal("direct claim refused")
	}
	c.Commit()
	if c2, ok := s.Claim(direct(7)); c2 != nil || !ok {
		t.Fatal("served message claimable again without a reset")
	}
	n.ClearSentTo(1)
	s2, _ := contact(n, peer, Unlimited{}, 2*time.Minute)
	c3, ok := s2.Claim(direct(7))
	if c3 == nil || !ok {
		t.Fatal("cleared sent-marker did not reopen direct delivery")
	}
	c3.Abort()
}

// budgetN is a test Budget with a fixed byte pool.
type budgetN struct{ left int }

func (b *budgetN) Spend(n int) bool {
	if n > b.left {
		return false
	}
	b.left -= n
	return true
}

func TestBudgetRefusalReturnsNil(t *testing.T) {
	cfg := DefaultConfig(0.1)
	consumer := mustNode(t, 0, cfg, time.Hour)
	broker := mustNode(t, 1, cfg, time.Hour)
	consumer.Subscribe("x")
	broker.Promote(0)
	sc, _ := contact(consumer, broker, &budgetN{left: 1}, time.Minute)
	data, err := sc.GenuineOut()
	if err != nil {
		t.Fatal(err)
	}
	if data != nil {
		t.Error("budget refusal still produced wire bytes")
	}
	if c, ok := sc.Claim(direct(99)); c != nil || !ok {
		t.Error("missing message should skip, not stop")
	}
}

// TestRelayAdvertSizeMatchesAdvert holds the size-only advert to the
// advert it stands for, on twin brokers whose relay filters carry pending
// decay: under a budget that admits the advert, RelayAdvertSize spends
// exactly len(RelayAdvertOut()); under one a byte short, or empty, both
// refuse and spend nothing; and either way both leave the relay filter in
// the same state, settled as the encoding settles it.
func TestRelayAdvertSizeMatchesAdvert(t *testing.T) {
	cfg := DefaultConfig(0.1)
	const now = 10 * time.Minute
	for _, keys := range []int{0, 2, 60} { // empty, location list, bitmap
		twin := func() *Node {
			n := mustNode(t, 0, cfg, time.Hour)
			n.Promote(0)
			for i := 0; i < keys; i++ {
				if err := n.Relay().InsertPre(tcbf.Precompute(workload.Key(fmt.Sprintf("k%d", i))), 0); err != nil {
					t.Fatal(err)
				}
			}
			return n
		}
		session := func(n *Node, budget Budget) *Session {
			s, _ := contact(n, mustNode(t, 1, cfg, time.Hour), budget, now)
			if !s.SelfBroker() {
				t.Fatal("twin broker lost its role")
			}
			return s
		}
		advert, err := session(twin(), Unlimited{}).RelayAdvertOut()
		if err != nil || advert == nil {
			t.Fatalf("keys=%d: unlimited advert = %v, %v", keys, advert, err)
		}
		want := len(advert)
		for _, left := range []int{want + 7, want, want - 1, 0} {
			sizedNode, sentNode := twin(), twin()
			sizedBudget, sentBudget := &budgetN{left: left}, &budgetN{left: left}
			n, err := session(sizedNode, sizedBudget).RelayAdvertSize()
			if err != nil {
				t.Fatal(err)
			}
			data, err := session(sentNode, sentBudget).RelayAdvertOut()
			if err != nil {
				t.Fatal(err)
			}
			wantN := 0
			if left >= want {
				wantN = want
			}
			if n != wantN || len(data) != wantN || (wantN == 0 && data != nil) {
				t.Errorf("keys=%d budget %d: RelayAdvertSize = %d, RelayAdvertOut = %d bytes; want both %d",
					keys, left, n, len(data), wantN)
			}
			if sizedBudget.left != sentBudget.left {
				t.Errorf("keys=%d budget %d: size-only advert left %d bytes, advert %d",
					keys, left, sizedBudget.left, sentBudget.left)
			}
			if !reflect.DeepEqual(sizedNode.Relay(), sentNode.Relay()) {
				t.Errorf("keys=%d budget %d: size-only advert left the relay filter in another state", keys, left)
			}
		}
	}
}

// TestPullPredicates pins the two conditions under which the simulator
// skips a server's match step: CanReplicate holds exactly while a live
// produced message has copy budget left, and purges expired produced
// copies as ReplicationMatches does; StoresEmpty holds only while both
// stores hold nothing at all.
func TestPullPredicates(t *testing.T) {
	cfg := DefaultConfig(0.1)
	n := mustNode(t, 0, cfg, time.Hour)
	peer := mustNode(t, 1, cfg, time.Hour)
	check := func(at time.Duration, canReplicate, empty bool) {
		t.Helper()
		s, _ := contact(n, peer, Unlimited{}, at)
		if got := s.CanReplicate(); got != canReplicate {
			t.Errorf("at %v: CanReplicate = %v, want %v", at, got, canReplicate)
		}
		if got := s.StoresEmpty(); got != empty {
			t.Errorf("at %v: StoresEmpty = %v, want %v", at, got, empty)
		}
	}
	const at = 30 * time.Minute
	check(0, false, true)
	n.AcceptCarried(workload.Message{ID: 1, Key: "k", Origin: 2, CreatedAt: 0}, nil, 0)
	check(at, false, false)
	n.AddProduced(workload.Message{ID: 2, Key: "k", Origin: 0, CreatedAt: at}, nil)
	check(at, true, false)
	for n.ProducedCopies(2) > 0 {
		s, _ := contact(n, peer, Unlimited{}, at)
		if c, ok := s.Claim(replication(2)); c == nil || !ok {
			t.Fatal("replication claim refused")
		}
	}
	check(at, false, false)
	n.AddProduced(workload.Message{ID: 3, Key: "k", Origin: 0, CreatedAt: 0}, nil)
	check(at, true, false)
	// Message 3 expires at 60 minutes, and CanReplicate purges it.
	check(61*time.Minute, false, false)
	if n.ProducedCount() != 1 || n.ProducedCopies(2) != 0 {
		t.Errorf("CanReplicate kept %d produced copies; want only message 2, exhausted", n.ProducedCount())
	}
}

func TestPurgeDropsExpired(t *testing.T) {
	// TTL expiry is decay-driven (CreatedAt + TTL), not a wall-clock loop.
	cfg := DefaultConfig(0.1)
	n := mustNode(t, 0, cfg, time.Hour)
	n.AcceptCarried(workload.Message{ID: 1, Key: "k", Origin: 2, CreatedAt: 0}, nil, 0)
	n.AddProduced(workload.Message{ID: 2, Key: "k", Origin: 0, CreatedAt: 30 * time.Minute}, nil)
	n.Purge(61 * time.Minute)
	if n.CarriedCount() != 0 {
		t.Error("expired carried copy survived purge")
	}
	if n.ProducedCount() != 1 {
		t.Error("live produced message purged")
	}
	n.Purge(91 * time.Minute)
	if n.ProducedCount() != 0 {
		t.Error("expired produced message survived purge")
	}
}

func TestAcceptCarriedSemantics(t *testing.T) {
	cfg := DefaultConfig(0.1)
	n := mustNode(t, 5, cfg, time.Hour)
	n.Subscribe("want")

	// Post-TTL copies are dropped outright.
	acc := n.AcceptCarried(workload.Message{ID: 1, Key: "x", CreatedAt: 0}, nil, 2*time.Hour)
	if acc.Stored || acc.Delivered {
		t.Error("post-TTL copy accepted")
	}
	// A wanted message delivers exactly once, and duplicates collapse.
	m := workload.Message{ID: 2, Key: "want", Origin: 1, CreatedAt: 0}
	acc = n.AcceptCarried(m, nil, time.Minute)
	if !acc.Stored || !acc.Delivered {
		t.Errorf("first copy: %+v", acc)
	}
	acc = n.AcceptCarried(m, nil, 2*time.Minute)
	if acc.Stored || acc.Delivered {
		t.Errorf("duplicate copy: %+v", acc)
	}
	if n.CarriedCount() != 1 {
		t.Error("duplicate grew the carried store")
	}
	// A node's own message never delivers to itself.
	own := workload.Message{ID: 3, Key: "want", Origin: 5, CreatedAt: 0}
	if acc := n.AcceptCarried(own, nil, time.Minute); acc.Delivered {
		t.Error("node delivered its own message to itself")
	}
}
