//go:build !race

package core

import "testing"

// TestAdapterContactAllocationFree pins the adapter's share of a warm
// contact at zero heap allocations, for broker-broker contacts in both
// merge modes and for a broker meeting a consumer: the engine session is
// allocation-free (see engine's TestContactAllocationFree), the oracle
// merge unions both brokers' entries in place, with no snapshot, genuine
// reinforcement reads the consumer's interests without copying them, and
// the copy each contact delivers reaches the sim.Env through the worker's
// message slot. Each broker's oracle holds far more than 8 keys, beyond
// what a map snapshot could keep on the stack. Node 1 holds no message,
// so every contact also runs the pulls the simulator charges without
// bytes: node 0's relay advert by size only, and its interest BF with no
// decode at node 1. Excluded under -race (the race runtime allocates
// during bookkeeping).
func TestAdapterContactAllocationFree(t *testing.T) {
	for _, c := range adapterCases {
		t.Run(c.name, func(t *testing.T) {
			p, contact, _, env := newAdapterContactRig(t, c)
			if n := p.nodes[1].eng; n.ProducedCount() != 0 || n.CarriedCount() != 0 {
				t.Fatalf("node 1 holds %d produced and %d carried copies, want none",
					n.ProducedCount(), n.CarriedCount())
			}
			for i := range p.nodes {
				if !p.nodes[i].oracle.active() {
					continue
				}
				if n := len(p.nodes[i].oracle.entries); n <= 8 {
					t.Fatalf("node %d oracle holds %d keys, want > 8", i, n)
				}
			}
			before := env.delivered
			if avg := testing.AllocsPerRun(50, contact); avg != 0 {
				t.Errorf("warm %s contact: %g allocs per run, want 0", c.name, avg)
			}
			// AllocsPerRun makes one warm-up run before the 50 it counts.
			if got := env.delivered - before; got != 51 {
				t.Errorf("%d deliveries over 51 contacts, want one each", got)
			}
		})
	}
}
