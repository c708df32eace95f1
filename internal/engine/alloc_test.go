//go:build !race

package engine

import "testing"

// TestContactAllocationFree pins the tentpole property of the contact hot
// path: a warm BeginContact → full contact → Release cycle performs zero
// heap allocations, in both broker merge modes and in the dense mixed-role
// contact (election census, memoized genuine and interest encodings).
// Excluded under -race (the race runtime allocates during bookkeeping).
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
