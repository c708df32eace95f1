package engine

import (
	"testing"
	"time"

	"bsub/internal/workload"
)

// FuzzSessionSteps drives two engine nodes through arbitrary session step
// orderings, truncated wire inputs, interleaved claims, and mid-contact
// aborts, and asserts the copy-conservation invariant after every
// operation: for every published message, the copies in the producer
// store, the carried stores, in flight under unsettled claims, and
// consumed by committed hand-offs sum exactly to the copy limit. A failed
// or truncated step may error, but it must never create or destroy a
// copy.
func FuzzSessionSteps(f *testing.F) {
	// Reach the deep paths quickly: promote both, contact, relay
	// exchange, forward, settle.
	f.Add([]byte{
		1, 0, // publish at A
		2, 0, 2, 1, // promote A, promote B
		0, 0, // begin contact
		5, 1, // relay exchange
		8, 0, // replication claim
		9, 0, // commit it
		0, 0, // fresh contact
		6, 0, // forward claim
		9, 0, // commit it
		11, 0, // abort sessions
	})
	f.Add([]byte{1, 0, 0, 0, 3, 0, 4, 0, 7, 0, 10, 0, 12, 9, 13, 0})
	f.Add([]byte{1, 1, 1, 2, 0, 0, 7, 3, 9, 0, 9, 1, 11, 0, 0, 0, 7, 0, 10, 0})
	// Scratch-arena reuse: claim, sever (refund + release), then run a new
	// contact on the recycled session memory and claim/commit again.
	f.Add([]byte{
		1, 0, 1, 1, // publish at A and B
		2, 0, 2, 1, // promote both
		0, 0, 5, 1, 6, 0, // contact, relay exchange, forward claim
		11, 0, // sever: abort the claim, release both arenas
		0, 0, 5, 1, 6, 0, // fresh contact reusing the arenas
		9, 0, 11, 0, // commit, sever again
	})
	f.Add([]byte{
		1, 0, 0, 0, 7, 0, // publish, contact, delivery claims
		11, 0, // sever: release with claims outstanding
		0, 0, 7, 1, 9, 0, 10, 0, // reused arena: claim both ways, settle
		11, 0, 0, 0, 8, 0, 9, 0, // third reuse: replication claim + commit
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		const ttl = 1000 * time.Hour
		cfg := DefaultConfig(0.05)
		params, err := NewParams(cfg, ttl)
		if err != nil {
			t.Fatal(err)
		}
		a, b := params.NewNode(1), params.NewNode(2)
		a.Subscribe("alpha", "news")
		b.Subscribe("beta")
		nodes := [2]*Node{a, b}

		// recvMode distinguishes how a committed claim's copy lands at the
		// receiver, mirroring what each adapter does with the bytes.
		type recvMode int
		const (
			recvStore   recvMode = iota // AcceptCarried: forward / replication
			recvDeliver                 // ReceiveDelivery: delivery pull
			recvNone                    // direct claim: no copy accounting
		)
		type pend struct {
			claim   *Claim
			session *Session
			recv    *Node
			sender  *Node
			mode    recvMode
			counts  bool // claim moved a real copy (carried/replication)
		}

		var (
			now      = time.Hour
			cache    = NewSessionCache()
			sa, sb   *Session
			pending  []pend
			born     = map[int]int{}
			consumed = map[int]int{}
			msgs     = map[int]workload.Message{}
			nextID   = 1
		)
		keys := []workload.Key{"news", "beta", "mix"}

		settleSessions := func() {
			// Drop the severed sessions' claims from the pending list
			// first: Release refunds exactly the unsettled ones and then
			// recycles the claim arena, so the next contact reuses the
			// records and our stale pointers must be gone by then.
			kept := pending[:0]
			for _, p := range pending {
				if p.session != sa && p.session != sb {
					kept = append(kept, p)
				}
			}
			pending = kept
			for _, s := range []*Session{sa, sb} {
				if s != nil {
					// Abort plays the adapter's part on a severed contact —
					// refund whatever was claimed — so Release never has
					// leftovers to mop up (see claimLeakHook).
					s.Abort()
					s.Release()
				}
			}
			sa, sb = nil, nil
		}
		truncate := func(data []byte, arg byte) []byte {
			if data == nil || arg&3 != 3 {
				return data
			}
			n := int(arg) % (len(data) + 1)
			return data[:n]
		}
		checkConservation := func(op int) {
			inflight := map[int]int{}
			for _, p := range pending {
				if p.counts {
					inflight[p.claim.Msg().ID]++
				}
			}
			for id, want := range born {
				total := inflight[id] + consumed[id]
				for _, n := range nodes {
					total += n.ProducedCopies(id)
					if n.HasCarried(id) {
						total++
					}
				}
				if total != want {
					t.Fatalf("op %d: message %d copies not conserved: %d != %d "+
						"(inflight %d, consumed %d)",
						op, id, total, want, inflight[id], consumed[id])
				}
			}
		}

		for op := 0; op+1 < len(data) && op < 1000; op += 2 {
			code, arg := data[op], data[op+1]
			switch code % 14 {
			case 0: // begin a fresh contact (prior sessions sever)
				settleSessions()
				sa = a.BeginContact(cache, nil, now)
				sb = b.BeginContact(cache, nil, now)
				sa.SetPeer(sb.Hello())
				sb.SetPeer(sa.Hello())
				actA, actB := sa.Elect(), sb.Elect()
				sa.Apply(actA, actB)
				sb.Apply(actB, actA)
			case 1: // publish
				origin := nodes[int(arg)&1]
				msg := workload.Message{
					ID:        nextID,
					Key:       keys[int(arg)%len(keys)],
					Origin:    origin.ID(),
					Size:      10,
					CreatedAt: now,
				}
				origin.AddProduced(msg, nil)
				born[nextID] = cfg.CopyLimit
				msgs[nextID] = msg
				nextID++
			case 2: // flip a role outside the contact
				n := nodes[int(arg)&1]
				if arg&2 == 0 {
					n.Promote(now)
				} else {
					n.Demote()
				}
			case 3: // genuine A -> B
				if sa != nil && sa.SendsGenuine() {
					if data, err := sa.GenuineOut(); err == nil {
						_ = sb.AbsorbGenuine(truncate(data, arg))
					}
				}
			case 4: // genuine B -> A
				if sb != nil && sb.SendsGenuine() {
					if data, err := sb.GenuineOut(); err == nil {
						_ = sa.AbsorbGenuine(truncate(data, arg))
					}
				}
			case 5: // relay filter exchange, possibly truncated
				if sa != nil {
					da, errA := sa.RelayOut()
					db, errB := sb.RelayOut()
					if errA == nil && errB == nil {
						_ = sa.SetPeerRelay(truncate(db, arg))
						_ = sb.SetPeerRelay(truncate(da, arg>>2))
					}
				}
			case 6: // claim one preferential-forward candidate
				if sa == nil {
					break
				}
				s, sender, recv := sa, a, b
				if arg&1 == 1 {
					s, sender, recv = sb, b, a
				}
				cands, err := s.ForwardCandidates()
				if err != nil || len(cands) == 0 {
					break
				}
				cand := cands[int(arg>>1)%len(cands)]
				if claim, _ := s.Claim(cand); claim != nil {
					pending = append(pending, pend{
						claim: claim, session: s, recv: recv, sender: sender,
						mode: recvStore, counts: true,
					})
				}
			case 7: // delivery pull: match and claim up to two transfers
				if sa == nil {
					break
				}
				asker, server := sa, sb
				askN, servN := a, b
				if arg&1 == 1 {
					asker, server, askN, servN = sb, sa, b, a
				}
				out, err := asker.InterestOut()
				if err != nil {
					break
				}
				transfers, err := server.DeliveryMatches(truncate(out, arg))
				if err != nil {
					break
				}
				for i, tr := range transfers {
					if i == 2 {
						break
					}
					mode, counts := recvNone, false
					if tr.kind == claimCarried {
						mode, counts = recvDeliver, true
					}
					if claim, _ := server.Claim(tr); claim != nil {
						pending = append(pending, pend{
							claim: claim, session: server, recv: askN,
							sender: servN, mode: mode, counts: counts,
						})
					}
				}
			case 8: // replication pull: broker advert, producer claims a copy
				if sa == nil {
					break
				}
				asker, server := sa, sb
				askN, servN := a, b
				if arg&1 == 1 {
					asker, server, askN, servN = sb, sa, b, a
				}
				out, err := asker.RelayAdvertOut()
				if err != nil || out == nil {
					break
				}
				transfers, err := server.ReplicationMatches(truncate(out, arg))
				if err != nil || len(transfers) == 0 {
					break
				}
				tr := transfers[int(arg>>1)%len(transfers)]
				if claim, _ := server.Claim(tr); claim != nil {
					pending = append(pending, pend{
						claim: claim, session: server, recv: askN, sender: servN,
						mode: recvStore, counts: true,
					})
				}
			case 9: // commit a pending claim: receiver processes, then ACK
				if len(pending) == 0 {
					break
				}
				i := int(arg) % len(pending)
				p := pending[i]
				pending = append(pending[:i], pending[i+1:]...)
				id := p.claim.Msg().ID
				switch p.mode {
				case recvStore:
					acc := p.recv.AcceptCarried(p.claim.Msg(), p.claim.Payload(), now)
					if p.counts && !acc.Stored {
						consumed[id]++
					}
				case recvDeliver:
					p.recv.ReceiveDelivery(p.claim.Msg(), p.sender.ID(), now)
					if p.counts {
						consumed[id]++
					}
				case recvNone:
					p.recv.ReceiveDelivery(p.claim.Msg(), p.sender.ID(), now)
				}
				p.claim.Commit()
			case 10: // abort a pending claim: the ACK never came
				if len(pending) == 0 {
					break
				}
				i := int(arg) % len(pending)
				pending[i].claim.Abort()
				pending = append(pending[:i], pending[i+1:]...)
			case 11: // sever the contact: refund everything unsettled
				settleSessions()
			case 12: // time passes
				now += time.Duration(1+int(arg)%10) * time.Minute
			case 13: // purge both stores
				a.Purge(now)
				b.Purge(now)
			}
			checkConservation(op)
		}
	})
}
