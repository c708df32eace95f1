package experiments

import (
	"math/rand"
	"slices"
	"testing"

	"bsub/internal/analysis"
	"bsub/internal/core"
	"bsub/internal/sim"
	"bsub/internal/workload"
)

// TestFPRColumnIsLive pins why the fpr column of Fig. 9 and the ablations
// reads 0 on the paper's workload. The column counts deliveries to nodes
// that never subscribed to the message's key: a consumer's interest filter
// matched by a Bloom-filter false positive. With one interest per node,
// that filter holds one key, and Eq. 1 at (m=256, k=4, n=1) gives an FPR
// near 6·10⁻⁸: over the run's ~10⁴ deliveries none is expected. Give each
// node up to five interests (keeping its own) and Eq. 1 rises to about
// 3·10⁻⁵ per match, and false deliveries appear. A zero in the column is
// the filter's precision at one key, not a silenced metric.
func TestFPRColumnIsLive(t *testing.T) {
	if testing.Short() {
		t.Skip("two MIT-fixture simulations at the 20 h TTL")
	}
	if one, five := analysis.FPR(256, 4, 1), analysis.FPR(256, 4, 5); one > 1e-7 || five < 1e-5 {
		t.Fatalf("Eq. 1 FPR at (256, 4): n=1 gives %.2g, n=5 gives %.2g; want about 6e-8 and 3e-5", one, five)
	}
	f, err := NewMITFixture(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := f.simConfig(Fig9TTL)
	oneKey, err := sim.Run(cfg, core.New(core.DefaultConfig(0.138)))
	if err != nil {
		t.Fatal(err)
	}
	if oneKey.FalseDeliveries != 0 || oneKey.Delivered < 10_000 {
		t.Errorf("one key per node: %d false of %d delivered; Eq. 1 at n=1 expects 0 false among >10k",
			oneKey.FalseDeliveries, oneKey.Delivered)
	}

	sets := workload.InterestSets(f.Keys, len(f.Interests), 5, rand.New(rand.NewSource(f.Seed)))
	for i, set := range sets {
		if !slices.Contains(set, f.Interests[i]) {
			sets[i] = append([]workload.Key{f.Interests[i]}, set...)
		}
	}
	cfg.InterestSets = sets
	fiveKeys, err := sim.Run(cfg, core.New(core.DefaultConfig(0.138)))
	if err != nil {
		t.Fatal(err)
	}
	if fiveKeys.FalseDeliveries == 0 || fiveKeys.FPR() <= 0 {
		t.Errorf("up to five keys per node: %d false of %d delivered; Eq. 1 at n=5 expects false deliveries",
			fiveKeys.FalseDeliveries, fiveKeys.Delivered)
	}
	t.Logf("one key: %s", oneKey)
	t.Logf("five keys: %s", fiveKeys)
}
