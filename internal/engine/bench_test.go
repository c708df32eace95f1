package engine

import (
	"fmt"
	"testing"
	"time"

	"bsub/internal/tcbf"
	"bsub/internal/workload"
)

// contactCase is one variant of the engine contact cycle shared by
// BenchmarkEngineContact and TestContactAllocationFree.
type contactCase struct {
	name string
	mode BrokerMergeMode
	// dense makes the left node a plain user carrying a Haggle-shaped
	// election history — 78 peers met and 25 brokers sighted inside the
	// window — so the contact runs the user's census, genuine propagation
	// and its interest pull, not the broker-broker relay exchange.
	dense bool
	// forward ages the right broker's relay filter by 30 minutes against
	// the left's and skips the relay merges, so every one of the right
	// broker's carried copies has a positive preference toward the left
	// and preferential forwarding sorts and claims them all.
	forward bool
}

// contactCases lists the variants. mmerge and amerge are the baseline
// rows of DESIGN.md §8: broker-broker contacts in both merge modes, with
// equal relay filters and so no forwarding; forward is the broker-broker
// contact that forwards; dense is the mixed-role Haggle shape.
var contactCases = []contactCase{
	{name: "mmerge", mode: BrokerMergeMax},
	{name: "amerge", mode: BrokerMergeAdditive},
	{name: "forward", mode: BrokerMergeMax, forward: true},
	{name: "dense", mode: BrokerMergeMax, dense: true},
}

// newContactRig builds the two nodes of a variant and returns one full
// contact cycle between them, plus reseed, which restores the relay
// filters the cycle's merges keep reinforcing. Both nodes subscribe to one
// key and run at a fixed time, so the stores and histories are stationary
// and iterations are comparable: the right node is a broker carrying 16
// relayed copies, the left a broker whose 32 relayed interests feed the
// relay exchange — or, in the dense variant, a plain user with a
// Haggle-shaped history. Both brokers insert the same interests, and an
// insert sets a counter to its initial value, so their relay filters are
// equal and no copy is forwarded unless the forward variant ages the
// right one.
func newContactRig(tb testing.TB, c contactCase) (contact, reseed func()) {
	const ttl = 100 * time.Hour
	now := time.Hour
	cfg := DefaultConfig(0.01)
	cfg.BrokerMerge = c.mode
	params, err := NewParams(cfg, ttl)
	if err != nil {
		tb.Fatal(err)
	}
	left, right := params.NewNode(1), params.NewNode(2)
	left.Subscribe("news")
	right.Subscribe("sports")

	var topics []workload.Key
	var pres []tcbf.PreKey
	for i := 0; i < 32; i++ {
		topics = append(topics, workload.Key(fmt.Sprintf("topic-%02d", i)))
		pres = append(pres, tcbf.Precompute(topics[i]))
	}
	rightAt := now
	if c.forward {
		rightAt = now - 30*time.Minute
	}
	reseed = func() {
		right.Demote()
		right.Promote(rightAt)
		if !c.dense {
			left.Demote()
			left.Promote(now)
			for r := 0; r < 3; r++ {
				if err := left.Relay().InsertAllPre(pres, now); err != nil {
					tb.Fatal(err)
				}
			}
		}
		if err := right.Relay().InsertAllPre(pres, rightAt); err != nil {
			tb.Fatal(err)
		}
	}
	reseed()
	for i := 0; i < 16; i++ {
		right.AcceptCarried(workload.Message{
			ID:        1000 + i,
			Key:       topics[i],
			Origin:    3,
			Size:      100,
			CreatedAt: now,
		}, nil, now)
	}
	if c.dense {
		// Both sides met 78 peers over the last hour; the user sighted 25
		// of them as brokers, with degrees averaging below the right
		// broker's, so no election verdict changes a role.
		for p := 0; p < 78; p++ {
			at := now - time.Duration(p)*45*time.Second
			left.RecordMeeting(100+p, at)
			right.RecordMeeting(100+p, at)
			if p < 25 {
				left.RecordBrokerSighting(100+p, 20+p, at)
			}
		}
	}

	fatal := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	cache := NewSessionCache()
	contact = func() {
		sl := left.BeginContact(cache, nil, now)
		sr := right.BeginContact(cache, nil, now)
		sl.SetPeer(sr.Hello())
		sr.SetPeer(sl.Hello())
		actL, actR := sl.Elect(), sr.Elect()
		sl.Apply(actL, actR)
		sr.Apply(actR, actL)

		if sl.RelayExchange() {
			dl, err := sl.RelayOut()
			fatal(err)
			dr, err := sr.RelayOut()
			fatal(err)
			fatal(sl.SetPeerRelay(dr))
			fatal(sr.SetPeerRelay(dl))
			cands, err := sr.ForwardCandidates()
			fatal(err)
			if c.forward && len(cands) < 2 {
				tb.Fatalf("forward contact has %d candidates, want at least 2", len(cands))
			}
			for _, f := range cands {
				if claim, ok := sr.Claim(f); claim == nil && !ok {
					tb.Fatal("claim refused")
				}
			}
			if !c.forward {
				fatal(sl.MergeRelay())
				fatal(sr.MergeRelay())
			}
		}
		if sl.SendsGenuine() {
			g, err := sl.GenuineOut()
			fatal(err)
			fatal(sr.AbsorbGenuine(g))
		}

		for _, pair := range [][2]*Session{{sl, sr}, {sr, sl}} {
			asker, server := pair[0], pair[1]
			in, err := asker.InterestOut()
			fatal(err)
			_, err = server.DeliveryMatches(in)
			fatal(err)
			adv, err := asker.RelayAdvertOut()
			fatal(err)
			_, err = server.ReplicationMatches(adv)
			fatal(err)
		}

		// Abort refunds the forwarding claims — the stores return to
		// their seeded state — and Release recycles both sessions'
		// scratch arenas, so warm cycles measure the steady-state
		// (allocation-free) contact path.
		sr.Abort()
		sl.Abort()
		sr.Release()
		sl.Release()
	}
	return contact, reseed
}

// BenchmarkEngineContact measures one full contact session through the
// engine per variant (see contactCases): hello/election, the relay-filter
// encode/decode exchange with preferential-forwarding decisions, copy
// claims and the configured merge, or the user's genuine propagation, and
// both sides' delivery and replication pulls.
func BenchmarkEngineContact(b *testing.B) {
	for _, c := range contactCases {
		b.Run(c.name, func(b *testing.B) {
			contact, reseed := newContactRig(b, c)
			contact() // warm the arenas before timing
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%64 == 0 && i > 0 {
					// Merges accumulate counters across iterations (the
					// additive mode exponentially); a periodic amortized
					// reseed keeps the filters in a realistic regime.
					reseed()
				}
				contact()
			}
		})
	}
}

// BenchmarkElectionWindow measures one contact's election-window work on a
// user whose window holds 8 or 80 peers (80 is about Haggle's degree):
// record the meeting, read the degree and the DFOnlineEq5 horizon count,
// record the peer as a broker sighting, and take the broker census. Each
// iteration meets the peer met longest ago, one second after the last
// contact, so the window slides without anything expiring and the peer
// scans run their full length.
func BenchmarkElectionWindow(b *testing.B) {
	for _, peers := range []int{8, 80} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			const ttl = 100 * time.Hour
			params, err := NewParams(DefaultConfig(0.01), ttl)
			if err != nil {
				b.Fatal(err)
			}
			n := params.NewNode(0)
			now := time.Hour
			contact := func(i int) {
				now += time.Second
				peer := 1 + i%peers
				n.RecordMeeting(peer, now)
				d := n.Degree(now) + n.countPeers(now, ttl)
				n.RecordBrokerSighting(peer, d, now)
				n.brokersInWindow(now)
			}
			for i := 0; i < peers; i++ { // fill the window before timing
				contact(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				contact(i)
			}
		})
	}
}
