//go:build !race

package engine

import (
	"testing"
	"time"

	"bsub/internal/workload"
)

// TestContactAllocationFree pins the tentpole property of the contact hot
// path: a warm BeginContact → full contact → Release cycle performs zero
// heap allocations on the default packed TCBF backend, in both broker
// merge modes and in the dense mixed-role contact (election census,
// memoized genuine and interest encodings). The retouched backend rides
// the same cycle and, retouching in place, stays at zero too. Excluded
// under -race (the race runtime allocates during bookkeeping).
func TestContactAllocationFree(t *testing.T) {
	for _, c := range contactCases {
		t.Run(c.name, func(t *testing.T) {
			contact, _ := newContactRig(t, c)
			contact() // warm the arenas
			if avg := testing.AllocsPerRun(50, contact); avg != 0 {
				t.Errorf("warm contact: %g allocs per run, want 0", avg)
			}
		})
	}
}

// TestStoreLiveAllocationFree pins the in-place index merge: on a warm
// store, reading after an add merges the new ID into the index without a
// fresh buffer. Each run indexes one new ID (its slot was swept by the
// previous read) and one re-added ID (its stale slot still indexed).
func TestStoreLiveAllocationFree(t *testing.T) {
	s := newStore()
	var entries []*stored
	for id := 0; id < 64; id++ {
		e := &stored{msg: workload.Message{ID: id}, expiresAt: time.Hour}
		entries = append(entries, e)
		s.add(e)
	}
	run := 0
	cycle := func() {
		fresh, readded := entries[run%32], entries[32+run%32]
		run++
		s.remove(fresh.msg.ID)
		s.live(0) // sweeps fresh's slot
		s.add(fresh)
		s.remove(readded.msg.ID)
		s.add(readded)
		if got := len(s.live(0)); got != len(entries) {
			t.Fatalf("live returned %d copies, want %d", got, len(entries))
		}
	}
	cycle() // warm the index and read buffers
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("warm add+read: %g allocs per run, want 0", avg)
	}
}
