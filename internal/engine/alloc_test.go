//go:build !race

package engine

import "testing"

// TestContactAllocationFree pins the tentpole property of the contact hot
// path: a warm BeginContact → full contact → Release cycle performs zero
// heap allocations on the default packed TCBF backend, in both broker
// merge modes and in the dense mixed-role contact (election census,
// memoized genuine and interest encodings). The alternative filter
// backends ride the same cycle: retouching works in place and a
// stationary autoscaling stack never grows, so both stay at zero; the
// Bloofi tree allocates by design (per-insert rebuilds, absorb-as-leaf
// clones) and is pinned to a budget with ~2x headroom so a hot-path
// regression still trips the guard. Excluded under -race (the race
// runtime allocates during bookkeeping).
func TestContactAllocationFree(t *testing.T) {
	for _, c := range contactCases {
		t.Run(c.name, func(t *testing.T) {
			contact, _ := newContactRig(t, c)
			contact() // warm the arenas
			if avg := testing.AllocsPerRun(50, contact); avg > c.allocs {
				t.Errorf("warm contact: %g allocs per run, want <= %g", avg, c.allocs)
			}
		})
	}
}
