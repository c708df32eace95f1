//go:build !race

package msgstore

import (
	"testing"
	"time"
)

// TestStoreLiveAllocationFree pins a warm store's add-and-read cycle at
// zero allocations: a removed copy added back is an insert in place, into
// capacity the store already has, and Live returns the store's own copy
// slice. Each run adds back one ID removed before a read and one removed
// just before its add. Excluded under -race (the race runtime allocates
// during bookkeeping).
func TestStoreLiveAllocationFree(t *testing.T) {
	s := New()
	var copies []*Copy
	for id := 0; id < 64; id++ {
		c := copyOf(id, time.Hour)
		copies = append(copies, c)
		s.Add(c)
	}
	run := 0
	cycle := func() {
		fresh, readded := copies[run%32], copies[32+run%32]
		run++
		s.Remove(fresh.Msg.ID)
		s.Live(0) // sweeps fresh's slot
		s.Add(fresh)
		s.Remove(readded.Msg.ID)
		s.Add(readded)
		if got := len(s.Live(0)); got != len(copies) {
			t.Fatalf("live returned %d copies, want %d", got, len(copies))
		}
	}
	cycle() // warm the store
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("warm add+read: %g allocs per run, want 0", avg)
	}
}
