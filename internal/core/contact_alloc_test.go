//go:build !race

package core

import "testing"

// TestAdapterContactAllocationFree pins the adapter's share of the warm
// broker-broker contact at zero heap allocations, in both merge modes:
// the engine session is allocation-free (see engine's
// TestContactAllocationFree), the oracle merge unions both brokers'
// entries in place, with no snapshot, and the copy each contact delivers
// reaches the sim.Env through the worker's message slot. Each oracle
// holds far more than 8 keys, beyond what a map snapshot could keep on
// the stack. Excluded under -race (the race runtime allocates during
// bookkeeping).
func TestAdapterContactAllocationFree(t *testing.T) {
	for _, c := range []struct {
		name string
		mode BrokerMergeMode
	}{{"mmerge", BrokerMergeMax}, {"amerge", BrokerMergeAdditive}} {
		t.Run(c.name, func(t *testing.T) {
			p, contact, _, env := newAdapterContactRig(t, c.mode)
			for i := range p.nodes {
				if n := len(p.nodes[i].oracle.entries); n <= 8 {
					t.Fatalf("node %d oracle holds %d keys, want > 8", i, n)
				}
			}
			before := env.delivered
			if avg := testing.AllocsPerRun(50, contact); avg != 0 {
				t.Errorf("warm broker-broker contact: %g allocs per run, want 0", avg)
			}
			// AllocsPerRun makes one warm-up run before the 50 it counts.
			if got := env.delivered - before; got != 51 {
				t.Errorf("%d deliveries over 51 contacts, want one each", got)
			}
		})
	}
}
