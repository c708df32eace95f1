package msgstore

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
	"unsafe"

	"bsub/internal/workload"
)

func msg(id int) workload.Message {
	return workload.Message{ID: id, Key: "k", Origin: 0, Size: 10, CreatedAt: 0}
}

// copyOf returns a copy of message id expiring at expiresAt.
func copyOf(id int, expiresAt time.Duration) *Copy {
	return &Copy{Msg: msg(id), ExpiresAt: expiresAt}
}

// liveIDs returns the IDs Live reports at now, in order.
func liveIDs(s *Store, now time.Duration) []int {
	var ids []int
	for _, c := range s.Live(now) {
		ids = append(ids, c.Msg.ID)
	}
	return ids
}

func TestAddHasRemove(t *testing.T) {
	s := New()
	if s.Has(1) {
		t.Fatal("empty store has message")
	}
	s.Add(copyOf(1, time.Hour))
	if !s.Has(1) || s.Get(1) == nil {
		t.Fatal("store lost message")
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	s.Remove(1)
	if s.Has(1) || s.Get(1) != nil {
		t.Fatal("remove failed")
	}
}

func TestNilStoreReadsEmpty(t *testing.T) {
	var s *Store
	if s.Has(1) || s.Get(1) != nil || s.Len() != 0 || s.Live(0) != nil || s.IDs() != nil {
		t.Error("nil store does not read as empty")
	}
	s.Remove(1)
	s.ClearSentTo(1)
}

func TestLiveSortedAndPurges(t *testing.T) {
	s := New()
	s.Add(copyOf(3, time.Hour))
	s.Add(copyOf(1, time.Hour))
	s.Add(copyOf(2, time.Minute)) // expires early
	if got := liveIDs(s, 30*time.Minute); !slices.Equal(got, []int{1, 3}) {
		t.Fatalf("live = %v", got)
	}
	if s.Has(2) {
		t.Error("expired entry not purged")
	}
}

func TestLiveAtExactExpiry(t *testing.T) {
	s := New()
	s.Add(copyOf(1, time.Hour))
	if got := s.Live(time.Hour); len(got) != 1 {
		t.Error("message expired at exactly TTL boundary; should still be live")
	}
	if got := s.Live(time.Hour + 1); len(got) != 0 {
		t.Error("message survived past expiry")
	}
}

func TestAddReplaces(t *testing.T) {
	s := New()
	s.Add(&Copy{Msg: msg(1), ExpiresAt: time.Minute, Copies: 1})
	s.Add(&Copy{Msg: msg(1), ExpiresAt: time.Hour, Copies: 5})
	if got := s.Get(1).Copies; got != 5 {
		t.Errorf("replace did not update copies: %d", got)
	}
	if got := liveIDs(s, 30*time.Minute); !slices.Equal(got, []int{1}) {
		t.Errorf("replaced entry expired early or was indexed twice: %v", got)
	}
}

func TestLiveOrderAfterChurn(t *testing.T) {
	s := New()
	// Interleave adds, removes, re-adds, and Live calls to exercise the
	// incremental index.
	s.Add(copyOf(5, time.Hour))
	s.Add(copyOf(2, time.Hour))
	if got := liveIDs(s, 0); !slices.Equal(got, []int{2, 5}) {
		t.Fatalf("live = %v", got)
	}
	s.Add(copyOf(9, time.Hour))
	s.Add(copyOf(1, time.Hour))
	s.Remove(5)
	s.Add(copyOf(5, time.Hour)) // re-add while index slot is stale
	s.Add(copyOf(3, time.Hour))
	if got, want := liveIDs(s, 0), []int{1, 2, 3, 5, 9}; !slices.Equal(got, want) {
		t.Fatalf("live = %v, want %v", got, want)
	}
}

func TestLiveManyRandomOrderStable(t *testing.T) {
	s := New()
	ids := []int{77, 3, 41, 12, 9, 55, 23, 8, 99, 0}
	for _, id := range ids {
		s.Add(copyOf(id, time.Hour))
		// Interleave reads so merging happens in several rounds.
		_ = s.Live(0)
	}
	got := liveIDs(s, 0)
	want := slices.Clone(ids)
	sort.Ints(want)
	if !slices.Equal(got, want) {
		t.Fatalf("live = %v, want %v", got, want)
	}
	if !slices.Equal(s.IDs(), want) {
		t.Fatalf("IDs = %v, want %v", s.IDs(), want)
	}
}

func TestSentToAndClear(t *testing.T) {
	s := New()
	a, b := copyOf(1, time.Hour), copyOf(2, time.Hour)
	s.Add(a)
	s.Add(b)
	if a.SentTo(7) {
		t.Fatal("fresh copy already served")
	}
	a.MarkSent(7)
	a.MarkSent(8)
	b.MarkSent(7)
	if !a.SentTo(7) || !a.SentTo(8) || !b.SentTo(7) || b.SentTo(8) {
		t.Fatal("served-peer sets wrong after MarkSent")
	}
	a.UnmarkSent(8)
	if a.SentTo(8) || !a.SentTo(7) {
		t.Fatal("UnmarkSent forgot the wrong peer")
	}
	s.ClearSentTo(7)
	if a.SentTo(7) || b.SentTo(7) {
		t.Error("ClearSentTo left a served mark")
	}
}

// refLive is the reference Live: the unexpired copies of ref in ID order
// (a sort over the map's keys), purging the expired ones from ref.
func refLive(ref map[int]*Copy, now time.Duration) []*Copy {
	ids := make([]int, 0, len(ref))
	for id, c := range ref {
		if now > c.ExpiresAt {
			delete(ref, id)
			continue
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]*Copy, len(ids))
	for i, id := range ids {
		out[i] = ref[id]
	}
	return out
}

// TestStoreMatchesMapReference drives a store through seeded random adds,
// re-adds, replacements, removals and reads, with expiries around a clock
// that moves forward, and checks every read against a map[int]*Copy
// reference whose ID order comes from a sort.
func TestStoreMatchesMapReference(t *testing.T) {
	var adds, readds, replaces int
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, ref, held := New(), map[int]*Copy{}, map[int]bool{}
		var now time.Duration
		for step := 0; step < 600; step++ {
			id := rng.Intn(40)
			switch rng.Intn(10) {
			case 0, 1, 2:
				switch _, present := ref[id]; {
				case present:
					replaces++
				case held[id]:
					readds++
				default:
					adds++
				}
				c := copyOf(id, now+time.Duration(rng.Intn(5)-1)*time.Minute)
				s.Add(c)
				ref[id], held[id] = c, true
			case 3:
				s.Remove(id)
				delete(ref, id)
			case 4:
				if got, want := s.Get(id), ref[id]; got != want {
					t.Fatalf("seed %d step %d: Get(%d) = %p, want %p", seed, step, id, got, want)
				}
			case 5:
				if got, want := s.Has(id), ref[id] != nil; got != want {
					t.Fatalf("seed %d step %d: Has(%d) = %v, want %v", seed, step, id, got, want)
				}
			case 6:
				if got, want := s.Len(), len(ref); got != want {
					t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, got, want)
				}
			case 7:
				want := make([]int, 0, len(ref))
				for id := range ref {
					want = append(want, id)
				}
				sort.Ints(want)
				if got := s.IDs(); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: IDs = %v, want %v", seed, step, got, want)
				}
			case 8:
				now += time.Duration(rng.Intn(3)) * time.Minute
			default:
				if got, want := s.Live(now), refLive(ref, now); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: Live(%v) = %v, want %v", seed, step, now, got, want)
				}
			}
		}
	}
	if adds == 0 || readds == 0 || replaces == 0 {
		t.Errorf("tapes never exercised every add: %d adds, %d re-adds, %d replacements", adds, readds, replaces)
	}
}

// TestCopySizeClass pins the per-copy footprint the million-node simulator
// depends on: growing Copy shows up as RSS per node.
func TestCopySizeClass(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Copy{}); got != 144 {
		t.Errorf("unsafe.Sizeof(Copy{}) = %d, want 144", got)
	}
}
