//go:build !race

package core

import "testing"

// TestAdapterContactAllocationFree pins the adapter's share of the warm
// broker-broker contact at zero heap allocations, in both merge modes:
// the engine session is allocation-free (see engine's
// TestContactAllocationFree) and the oracle merge unions both brokers'
// entries in place, with no snapshot. Each oracle holds far more than 8
// keys, beyond what a map snapshot could keep on the stack. Excluded
// under -race (the race runtime allocates during bookkeeping).
func TestAdapterContactAllocationFree(t *testing.T) {
	for _, c := range []struct {
		name string
		mode BrokerMergeMode
	}{{"mmerge", BrokerMergeMax}, {"amerge", BrokerMergeAdditive}} {
		t.Run(c.name, func(t *testing.T) {
			p, contact, _ := newAdapterContactRig(t, c.mode)
			for i := range p.nodes {
				if n := len(p.nodes[i].oracle.entries); n <= 8 {
					t.Fatalf("node %d oracle holds %d keys, want > 8", i, n)
				}
			}
			if avg := testing.AllocsPerRun(50, contact); avg != 0 {
				t.Errorf("warm broker-broker contact: %g allocs per run, want 0", avg)
			}
		})
	}
}
