package engine

import (
	"fmt"
	"maps"
	"testing"
	"time"
	"unsafe"

	"bsub/internal/xrand"
)

// refCensus is the straightforward election bookkeeping the windowed
// census must reproduce: every query scans and prunes the whole history.
type refCensus struct {
	window    time.Duration
	meetings  map[NodeID]time.Duration
	sightings map[NodeID]sighting
}

func (r *refCensus) degree(now time.Duration) int {
	d := 0
	for peer, at := range r.meetings {
		if now-at <= r.window {
			d++
		} else {
			delete(r.meetings, peer)
		}
	}
	return d
}

func (r *refCensus) brokers(now time.Duration) (int, float64) {
	count, sum := 0, 0
	for id, s := range r.sightings {
		if now-s.at > r.window {
			delete(r.sightings, id)
			continue
		}
		count++
		sum += s.degree
	}
	if count == 0 {
		return 0, 0
	}
	return count, float64(sum) / float64(count)
}

func (r *refCensus) countPeers(now, window time.Duration) int {
	d := 0
	for _, at := range r.meetings {
		if now-at <= window {
			d++
		}
	}
	return d
}

// meetingsMap returns n's meeting window as a peer -> time map. A peer
// listed twice collapses here; windowsFault reports that.
func meetingsMap(n *Node) map[NodeID]time.Duration {
	m := make(map[NodeID]time.Duration, len(n.meetings))
	for _, e := range n.meetings {
		m[e.peer] = e.at
	}
	return m
}

// sightingsMap returns n's sighting window as a peer -> sighting map.
func sightingsMap(n *Node) map[NodeID]sighting {
	m := make(map[NodeID]sighting, len(n.sightings))
	for _, e := range n.sightings {
		m[e.peer] = e
	}
	return m
}

// windowsFault describes the first broken invariant of n's election
// windows, or returns "": each window is in ascending time order with one
// entry per peer.
func windowsFault(n *Node) string {
	peers := map[NodeID]bool{}
	for i, e := range n.meetings {
		if i > 0 && n.meetings[i-1].at > e.at {
			return fmt.Sprintf("meetings out of time order at %d: %v", i, n.meetings)
		}
		if peers[e.peer] {
			return fmt.Sprintf("peer %d met twice: %v", e.peer, n.meetings)
		}
		peers[e.peer] = true
	}
	clear(peers)
	for i, e := range n.sightings {
		if i > 0 && n.sightings[i-1].at > e.at {
			return fmt.Sprintf("sightings out of time order at %d: %v", i, n.sightings)
		}
		if peers[e.peer] {
			return fmt.Sprintf("broker %d sighted twice: %v", e.peer, n.sightings)
		}
		peers[e.peer] = true
	}
	return ""
}

// TestWindowedCensusMatchesFullScan drives the time-ordered election
// windows against the full-scan map reference on seeded random histories:
// record times out of order (as concurrent live sessions produce them),
// brokers re-sighted with new degrees, Elect's demotion removal through a
// real session, absurd degrees far outside int32 range, and countPeers
// after pruning. Every call must return the same count and mean degree and
// leave the same window contents as the reference's maps, and after every
// step both windows must be time-ordered and peer-unique. A failure names
// its seed and step, so it replays exactly.
func TestWindowedCensusMatchesFullScan(t *testing.T) {
	var seen struct {
		outOfOrder, resighted, demoted, prunedMeet, prunedSight, absurd int
	}
	for seed := uint64(1); seed <= 8; seed++ {
		cfg := DefaultConfig(0.1)
		n := mustNode(t, 0, cfg, time.Hour)
		ref := &refCensus{
			window:    cfg.Window,
			meetings:  map[NodeID]time.Duration{},
			sightings: map[NodeID]sighting{},
		}
		rng := xrand.New(seed)
		clock := time.Duration(0)
		// jitter is a recent time no later than the clock: concurrent
		// sessions record with older pinned clocks, now and then older
		// than everything already recorded.
		jitter := func() time.Duration {
			lag := 90
			if rng.Intn(10) == 0 {
				lag = 360
			}
			at := clock - time.Duration(rng.Intn(lag))*time.Minute
			if at < 0 {
				at = 0
			}
			return at
		}
		degree := func() int {
			if rng.Intn(200) == 0 {
				return 1 << 40 // an absurd announcement, far outside int32 range
			}
			return rng.Intn(80)
		}
		check := func(step int, op string) {
			t.Helper()
			if got := meetingsMap(n); !maps.Equal(got, ref.meetings) {
				t.Fatalf("seed %d step %d (%s): meetings %v, reference %v", seed, step, op, got, ref.meetings)
			}
			if got := sightingsMap(n); !maps.Equal(got, ref.sightings) {
				t.Fatalf("seed %d step %d (%s): sightings %v, reference %v", seed, step, op, got, ref.sightings)
			}
			if fault := windowsFault(n); fault != "" {
				t.Fatalf("seed %d step %d (%s): %s", seed, step, op, fault)
			}
		}
		for step := 0; step < 4000; step++ {
			clock += time.Duration(rng.Intn(20)) * time.Minute
			peer := rng.Intn(40)
			switch op := rng.Intn(6); op {
			case 0: // a meeting, possibly recorded late
				at := jitter()
				if prev, ok := ref.meetings[peer]; ok && at < prev {
					seen.outOfOrder++
				}
				n.RecordMeeting(peer, at)
				ref.meetings[peer] = at
				check(step, "RecordMeeting")
			case 1: // a sighting, possibly of a broker seen before
				at, d := jitter(), degree()
				if _, ok := ref.sightings[peer]; ok {
					seen.resighted++
				}
				if d > 1<<31 {
					seen.absurd++
				}
				n.RecordBrokerSighting(peer, d, at)
				ref.sightings[peer] = sighting{peer: peer, at: at, degree: d}
				check(step, "RecordBrokerSighting")
			case 2: // degree at a query time that may trail some records
				now := jitter()
				before := len(ref.meetings)
				want := ref.degree(now)
				if got := n.Degree(now); got != want {
					t.Fatalf("seed %d step %d: Degree(%v) = %d, reference %d", seed, step, now, got, want)
				}
				if len(ref.meetings) < before {
					seen.prunedMeet++
				}
				check(step, "Degree")
			case 3: // broker census
				now := jitter()
				before := len(ref.sightings)
				wantCount, wantMean := ref.brokers(now)
				count, mean := n.brokersInWindow(now)
				if count != wantCount || mean != wantMean {
					t.Fatalf("seed %d step %d: brokersInWindow(%v) = (%d, %g), reference (%d, %g)",
						seed, step, now, count, mean, wantCount, wantMean)
				}
				if len(ref.sightings) < before {
					seen.prunedSight++
				}
				check(step, "brokersInWindow")
			case 4: // a real contact: hello, meeting, election
				d := degree()
				s := n.BeginContact(NewSessionCache(), nil, clock)
				now := s.Now()
				if got, want := s.Hello().Degree, ref.degree(now); got != want {
					t.Fatalf("seed %d step %d: hello degree %d, reference %d", seed, step, got, want)
				}
				s.SetPeer(Hello{ID: peer, Broker: true, Degree: d})
				ref.meetings[peer] = now
				act := s.Elect()
				ref.sightings[peer] = sighting{peer: peer, at: now, degree: d}
				count, mean := ref.brokers(now)
				want := ActNone
				if count > cfg.BrokerHigh && float64(d) < mean {
					want = ActDemote
					delete(ref.sightings, peer)
					seen.demoted++
				}
				if act != want {
					t.Fatalf("seed %d step %d: Elect = %v, reference %v", seed, step, act, want)
				}
				s.Release()
				check(step, "Elect")
			case 5: // countPeers after pruning, over horizons around the window
				now := jitter()
				for _, w := range []time.Duration{time.Hour, cfg.Window, 2 * cfg.Window} {
					if got, want := n.countPeers(now, w), ref.countPeers(now, w); got != want {
						t.Fatalf("seed %d step %d: countPeers(%v, %v) = %d, reference %d", seed, step, now, w, got, want)
					}
				}
				check(step, "countPeers")
			}
		}
	}
	// The randomized walk must actually have covered every case it claims.
	if seen.outOfOrder == 0 || seen.resighted == 0 || seen.demoted == 0 ||
		seen.prunedMeet == 0 || seen.prunedSight == 0 || seen.absurd == 0 {
		t.Errorf("walk missed a case: %+v", seen)
	}
}

// TestNodeSizeClass pins the per-node footprint the million-node simulator
// depends on: Node stays in the 160-byte allocation class. Growing it shows
// up as RSS per node. (msgstore's TestCopySizeClass pins a message copy.)
func TestNodeSizeClass(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Node{}); got > 160 {
		t.Errorf("unsafe.Sizeof(Node{}) = %d, want <= 160", got)
	}
}
