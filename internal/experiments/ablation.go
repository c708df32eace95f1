package experiments

import (
	"fmt"
	"time"

	"bsub/internal/core"
	"bsub/internal/metrics"
	"bsub/internal/sim"
)

// Ablations quantify the design choices the paper argues for
// qualitatively:
//
//   - M-merge between brokers (Fig. 6's bogus-counter argument) vs the
//     naive A-merge.
//   - Decay (Section VI-A) vs counters that never decrease.
//   - The producer copy limit C (Section V-D).
//   - The broker-election thresholds (T_l, T_u) of Section V-B.
//   - The TCBF geometry (m, k) behind the Eq. 1 FPR trade-off.
//
// Each ablation runs B-SUB variants over the same fixture and reports the
// Section VII metrics side by side.

// AblationResult is one variant's outcome.
type AblationResult struct {
	Variant string
	Report  metrics.Report
}

// runVariants executes each configured variant over the fixture.
func runVariants(f *Fixture, ttl time.Duration, variants []struct {
	name string
	cfg  core.Config
}) ([]AblationResult, error) {
	out := make([]AblationResult, 0, len(variants))
	for _, v := range variants {
		rep, err := sim.Run(f.simConfig(ttl), core.New(v.cfg))
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation %q: %w", v.name, err)
		}
		out = append(out, AblationResult{Variant: v.name, Report: rep})
	}
	return out, nil
}

// AblateMerge compares M-merge (the paper's choice for broker-broker
// interest exchange) against A-merge (the bogus-counter trap of Fig. 6).
func AblateMerge(f *Fixture, ttl time.Duration) ([]AblationResult, error) {
	base := f.BSubConfig(ttl)
	aMerge := base
	aMerge.BrokerMerge = core.BrokerMergeAdditive
	return runVariants(f, ttl, []struct {
		name string
		cfg  core.Config
	}{
		{name: "M-merge (paper)", cfg: base},
		{name: "A-merge (bogus counters)", cfg: aMerge},
	})
}

// AblateDecay compares the Eq. 5 decaying factor against no decay at all
// (Section VI-A's warning: stale interests, more useless traffic).
func AblateDecay(f *Fixture, ttl time.Duration) ([]AblationResult, error) {
	withDF := f.BSubConfig(ttl)
	noDF := withDF
	noDF.DecayPerMinute = 0
	return runVariants(f, ttl, []struct {
		name string
		cfg  core.Config
	}{
		{name: fmt.Sprintf("DF=%.4f (Eq. 5)", withDF.DecayPerMinute), cfg: withDF},
		{name: "DF=0 (no decay)", cfg: noDF},
	})
}

// AblateCopyLimit sweeps the producer replication bound C.
func AblateCopyLimit(f *Fixture, ttl time.Duration, limits []int) ([]AblationResult, error) {
	variants := make([]struct {
		name string
		cfg  core.Config
	}, 0, len(limits))
	for _, c := range limits {
		cfg := f.BSubConfig(ttl)
		cfg.CopyLimit = c
		variants = append(variants, struct {
			name string
			cfg  core.Config
		}{name: fmt.Sprintf("C=%d", c), cfg: cfg})
	}
	return runVariants(f, ttl, variants)
}

// AblateBrokerThresholds sweeps the election bounds (T_l, T_u).
func AblateBrokerThresholds(f *Fixture, ttl time.Duration, bounds [][2]int) ([]AblationResult, error) {
	variants := make([]struct {
		name string
		cfg  core.Config
	}, 0, len(bounds))
	for _, b := range bounds {
		cfg := f.BSubConfig(ttl)
		cfg.BrokerLow, cfg.BrokerHigh = b[0], b[1]
		variants = append(variants, struct {
			name string
			cfg  core.Config
		}{name: fmt.Sprintf("Tl=%d Tu=%d", b[0], b[1]), cfg: cfg})
	}
	return runVariants(f, ttl, variants)
}

// AblateGeometry sweeps the TCBF bit-vector length and hash count,
// trading control bytes against false positives.
func AblateGeometry(f *Fixture, ttl time.Duration, geoms [][2]int) ([]AblationResult, error) {
	variants := make([]struct {
		name string
		cfg  core.Config
	}, 0, len(geoms))
	for _, g := range geoms {
		cfg := f.BSubConfig(ttl)
		cfg.FilterM, cfg.FilterK = g[0], g[1]
		variants = append(variants, struct {
			name string
			cfg  core.Config
		}{name: fmt.Sprintf("m=%d k=%d", g[0], g[1]), cfg: cfg})
	}
	return runVariants(f, ttl, variants)
}

// AblateDFPolicy compares the three decaying-factor policies: the paper's
// precomputed Eq. 5 DF, the Section VII-B online per-broker variant, and
// the Section VI-B FPR-feedback controller.
func AblateDFPolicy(f *Fixture, ttl time.Duration, targetFPR float64) ([]AblationResult, error) {
	fixed := f.BSubConfig(ttl)

	online := core.DefaultConfig(0)
	online.DFMode = core.DFOnlineEq5

	feedback := core.DefaultConfig(0)
	feedback.DFMode = core.DFFeedback
	feedback.TargetFPR = targetFPR

	return runVariants(f, ttl, []struct {
		name string
		cfg  core.Config
	}{
		{name: fmt.Sprintf("fixed Eq.5 (DF=%.4f)", fixed.DecayPerMinute), cfg: fixed},
		{name: "online Eq.5 (per broker)", cfg: online},
		{name: fmt.Sprintf("FPR feedback (target %.3f)", targetFPR), cfg: feedback},
	})
}

// AblateRelayPartitions sweeps the Section VI-D partition count applied to
// relay filters.
func AblateRelayPartitions(f *Fixture, ttl time.Duration, hs []int) ([]AblationResult, error) {
	variants := make([]struct {
		name string
		cfg  core.Config
	}, 0, len(hs))
	for _, h := range hs {
		cfg := f.BSubConfig(ttl)
		cfg.RelayPartitions = h
		variants = append(variants, struct {
			name string
			cfg  core.Config
		}{name: fmt.Sprintf("h=%d", h), cfg: cfg})
	}
	return runVariants(f, ttl, variants)
}
