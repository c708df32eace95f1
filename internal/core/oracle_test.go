package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"bsub/internal/workload"
)

// mapOracle is the reference the slice-backed oracle replaced: one map
// per broker (nil while off), decayed by a full walk and merged through a
// snapshot of one side.
type mapOracle struct {
	m  map[workload.Key]float64
	at time.Duration
}

func (o *mapOracle) advance(now time.Duration, df float64) {
	if o.m == nil {
		return
	}
	elapsed := now - o.at
	o.at = now
	if elapsed <= 0 || df == 0 {
		return
	}
	dec := df * elapsed.Minutes()
	for k, c := range o.m {
		c -= dec
		if c <= 0 {
			delete(o.m, k)
		} else {
			o.m[k] = c
		}
	}
}

func mergeMapOracle(dst, src map[workload.Key]float64, mode BrokerMergeMode) {
	for k, c := range src {
		switch {
		case mode == BrokerMergeAdditive:
			dst[k] += c
		case c > dst[k]:
			dst[k] = c
		}
	}
}

func exchangeMapOracles(a, b *mapOracle, mode BrokerMergeMode) {
	snapA := make(map[workload.Key]float64, len(a.m))
	for k, c := range a.m {
		snapA[k] = c
	}
	mergeMapOracle(a.m, b.m, mode)
	mergeMapOracle(b.m, snapA, mode)
}

func (o *mapOracle) genuine(keys []workload.Key) bool {
	for _, k := range keys {
		if o.m[k] > 0 {
			return true
		}
	}
	return false
}

// sameOracle reports how got differs from the reference, or "".
func sameOracle(got *oracle, want *mapOracle) string {
	if got.active() != (want.m != nil) {
		return fmt.Sprintf("active %v, want %v", got.active(), want.m != nil)
	}
	if !got.active() {
		return ""
	}
	if got.at != want.at {
		return fmt.Sprintf("clock %v, want %v", got.at, want.at)
	}
	if len(got.entries) != len(want.m) {
		return fmt.Sprintf("%d keys, want %d", len(got.entries), len(want.m))
	}
	if !sort.SliceIsSorted(got.entries, func(i, j int) bool { return got.entries[i].key < got.entries[j].key }) {
		return "entries out of key order"
	}
	for i, e := range got.entries {
		if i > 0 && got.entries[i-1].key == e.key {
			return fmt.Sprintf("key %q stored twice", e.key)
		}
		c, ok := want.m[e.key]
		if !ok {
			return fmt.Sprintf("extra key %q", e.key)
		}
		if math.Float64bits(e.c) != math.Float64bits(c) {
			return fmt.Sprintf("key %q counter %v (%#x), want %v (%#x)",
				e.key, e.c, math.Float64bits(e.c), c, math.Float64bits(c))
		}
	}
	return ""
}

// TestOracleMatchesMapReference drives the slice-backed oracles and the
// map reference through the same seeded random sequences — promotion,
// demotion, decay at varying elapsed times and DFs, genuine
// reinforcement, broker-broker merges, and replication lookups including
// keys no broker relays — and requires every counter to agree bit for
// bit after every step, under both broker merge modes.
func TestOracleMatchesMapReference(t *testing.T) {
	keys := workload.NewTrendKeySet().Keys()
	lookups := append(append([]workload.Key(nil), keys...), "absent", "zz-absent", "")
	dfs := []float64{0, 0.01, 0.1, 0.37, 1.5}
	counters := []float64{10, 1, 0.3, 7.25}
	const brokers = 6
	for _, c := range []struct {
		name string
		mode BrokerMergeMode
	}{{"mmerge", BrokerMergeMax}, {"amerge", BrokerMergeAdditive}} {
		mode := c.mode
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 30; seed++ {
				rng := rand.New(rand.NewSource(seed))
				var sut [brokers]oracle
				var ref [brokers]mapOracle
				var now time.Duration
				pickKeys := func(pool []workload.Key) []workload.Key {
					out := make([]workload.Key, 1+rng.Intn(3))
					for i := range out {
						out[i] = pool[rng.Intn(len(pool))]
					}
					return out
				}
				for step := 0; step < 600; step++ {
					i := rng.Intn(brokers)
					s, r := &sut[i], &ref[i]
					switch op := rng.Intn(20); {
					case op < 2: // promotion
						if !s.active() {
							s.start(now)
							r.m, r.at = make(map[workload.Key]float64), now
						}
					case op < 3: // demotion
						s.stop()
						r.m = nil
					case op < 8: // time passes; decay at the DF in effect
						now += time.Duration(rng.Intn(40)) * time.Minute / 4
						df := dfs[rng.Intn(len(dfs))]
						if s.active() {
							s.advance(now, df)
						}
						r.advance(now, df)
					case op < 13: // genuine reinforcement
						if s.active() {
							ks, c := pickKeys(keys), counters[rng.Intn(len(counters))]
							s.reinforce(ks, c)
							for _, k := range ks {
								r.m[k] += c
							}
						}
					case op < 17: // broker-broker merge
						j := rng.Intn(brokers)
						if j != i && s.active() && sut[j].active() {
							mergeOracles(s, &sut[j], mode)
							exchangeMapOracles(r, &ref[j], mode)
						}
					default: // replication lookup
						if s.active() {
							ks := pickKeys(lookups)
							if got, want := s.genuine(ks), r.genuine(ks); got != want {
								t.Fatalf("seed %d step %d: genuine(%q) = %v, want %v", seed, step, ks, got, want)
							}
						}
					}
					for b := range sut {
						if diff := sameOracle(&sut[b], &ref[b]); diff != "" {
							t.Fatalf("seed %d step %d broker %d: %s", seed, step, b, diff)
						}
					}
				}
			}
		})
	}
}
