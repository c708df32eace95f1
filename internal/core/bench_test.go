package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"bsub/internal/sim"
	"bsub/internal/tcbf"
	"bsub/internal/workload"
)

// adapterCase is one variant of the adapter contact rig shared by
// BenchmarkAdapterContact and TestAdapterContactAllocationFree.
type adapterCase struct {
	name string
	mode BrokerMergeMode
	// consumer keeps node 1 a plain user, so the contact is a broker
	// meeting a consumer: node 1 pushes its genuine filter and node 0's
	// oracle mirrors the reinforcement, instead of the relay exchange.
	consumer bool
}

// adapterCases lists the variants: broker-broker contacts in both merge
// modes, and the broker-meets-consumer contact of genuine propagation.
var adapterCases = []adapterCase{
	{name: "mmerge", mode: BrokerMergeMax},
	{name: "amerge", mode: BrokerMergeAdditive},
	{name: "genuine", mode: BrokerMergeMax, consumer: true},
}

// newAdapterContactRig builds a two-node BSub and returns one warm
// contact through OnContact, plus reseed, which restores the relay
// filters and oracles the contact's merges and reinforcements keep
// growing, and the env, which counts deliveries. Brokers relay trend-set
// keys — node 0 the first 24, node 1 the last 24 — so in a broker-broker
// contact the first merge unions them into trend-set-sized (38-key)
// oracles on both sides; in the consumer variant node 1 stays a user. Node
// 0 holds one message node 1 subscribes to, and each contact first
// forgets that it was served, so every contact moves it in node 1's
// delivery pull. The clock stands still, so no counter decays and
// iterations are comparable.
func newAdapterContactRig(tb testing.TB, c adapterCase) (p *BSub, contact, reseed func(), env *fakeEnv) {
	const now = time.Hour
	cfg := DefaultConfig(0.1)
	cfg.BrokerMerge = c.mode
	p = New(cfg)
	env = &fakeEnv{nodes: 2, now: now, ttl: time.Hour}
	if err := p.Init(env, rand.New(rand.NewSource(1))); err != nil {
		tb.Fatal(err)
	}
	keys := workload.NewTrendKeySet().Keys()
	relayed := [2][]workload.Key{keys[:24], keys[len(keys)-24:]}
	var pres [2][]tcbf.PreKey
	for i, ks := range relayed {
		for _, k := range ks {
			pres[i] = append(pres[i], tcbf.Precompute(k))
		}
	}
	reseed = func() {
		for i := range p.nodes {
			n := &p.nodes[i]
			n.eng.Demote()
			if i == 1 && c.consumer {
				n.syncRole(now)
				continue
			}
			n.eng.Promote(now)
			n.syncRole(now)
			if err := n.eng.Relay().InsertAllPre(pres[i], now); err != nil {
				tb.Fatal(err)
			}
			n.oracle.start(now)
			n.oracle.reinforce(relayed[i], cfg.InitialCounter)
		}
	}
	reseed()
	p.OnMessage(env, workload.Message{ID: 1, Key: "k", Origin: 0, Size: 10, CreatedAt: now})
	// An effectively unbounded budget: no run of the rig can drain it.
	budget := sim.NewBudget(math.MaxInt)
	contact = func() {
		p.nodes[0].eng.ClearSentTo(1)
		p.OnContact(env, 0, 1, budget)
	}
	contact()
	if !p.IsBroker(0) || p.IsBroker(1) == c.consumer {
		tb.Fatalf("rig contact changed a role: brokers %v, %v", p.IsBroker(0), p.IsBroker(1))
	}
	if env.delivered != 1 {
		tb.Fatalf("rig contact delivered %d messages, want 1", env.delivered)
	}
	return p, contact, reseed, env
}

// BenchmarkAdapterContact measures one warm contact through
// BSub.OnContact per rig variant: the engine session (election, relay
// exchange and merges or genuine propagation, pulls) plus the adapter's
// oracle upkeep on trend-set-sized oracles and one delivered copy.
func BenchmarkAdapterContact(b *testing.B) {
	for _, c := range adapterCases {
		b.Run(c.name, func(b *testing.B) {
			_, contact, reseed, _ := newAdapterContactRig(b, c)
			contact() // warm the arenas before timing
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%64 == 0 && i > 0 {
					// Additive merges double every counter per contact;
					// an amortized reseed keeps them in a realistic regime.
					reseed()
				}
				contact()
			}
		})
	}
}
