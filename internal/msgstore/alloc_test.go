//go:build !race

package msgstore

import (
	"testing"
	"time"
)

// TestStoreLiveAllocationFree pins the in-place index merge: on a warm
// store, reading after an add merges the new ID into the index without a
// fresh buffer. Each run indexes one new ID (its slot was swept by the
// previous read) and one re-added ID (its stale slot still indexed).
// Excluded under -race (the race runtime allocates during bookkeeping).
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
	cycle() // warm the index and read buffers
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("warm add+read: %g allocs per run, want 0", avg)
	}
}
