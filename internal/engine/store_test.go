package engine

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"bsub/internal/workload"
)

// referenceSettle is the index merge settleIndex replaced: a forward merge
// into a freshly allocated slice, collapsing each re-added ID with its
// stale slot.
func referenceSettle(sorted, pending []int) []int {
	pending = slices.Clone(pending)
	sort.Ints(pending)
	merged := make([]int, 0, len(sorted)+len(pending))
	i, j := 0, 0
	for i < len(sorted) && j < len(pending) {
		switch {
		case sorted[i] < pending[j]:
			merged = append(merged, sorted[i])
			i++
		case sorted[i] > pending[j]:
			merged = append(merged, pending[j])
			j++
		default:
			merged = append(merged, sorted[i])
			i, j = i+1, j+1
		}
	}
	merged = append(merged, sorted[i:]...)
	return append(merged, pending[j:]...)
}

// TestSettleIndexMatchesReference drives a store through seeded random
// adds, removals, re-adds and reads, and checks that every in-place merge
// leaves exactly the index the allocating merge produced.
func TestSettleIndexMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := newStore()
		for step := 0; step < 400; step++ {
			id := rng.Intn(40)
			switch op := rng.Intn(10); {
			case op < 5:
				s.add(&stored{msg: workload.Message{ID: id}, expiresAt: time.Hour})
			case op < 8:
				s.remove(id)
			default:
				want := referenceSettle(s.sorted, s.pending)
				s.settleIndex()
				if !slices.Equal(s.sorted, want) {
					t.Fatalf("seed %d step %d: index %v, want %v", seed, step, s.sorted, want)
				}
				if len(s.pending) != 0 {
					t.Fatalf("seed %d step %d: %d IDs left pending", seed, step, len(s.pending))
				}
				s.live(0)
			}
		}
	}
}
