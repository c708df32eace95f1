package analysis

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"bsub/internal/tcbf"
)

func TestFPRPaperSetting(t *testing.T) {
	// Section VII-A: "The worst case FPR of the filter storing 38 keys, in
	// theory, in this setting [m=256, k=4], is 0.04."
	got := FPR(256, 4, 38)
	if math.Abs(got-0.04) > 0.01 {
		t.Errorf("FPR(256,4,38) = %.4f, want about 0.04", got)
	}
}

func TestFPREdgeCases(t *testing.T) {
	if got := FPR(256, 4, 0); got != 0 {
		t.Errorf("empty filter FPR = %g, want 0", got)
	}
	if got := FPR(256, 4, -1); got != 0 {
		t.Errorf("negative n FPR = %g, want 0", got)
	}
	if got := FPR(8, 2, 1000000); got < 0.99 {
		t.Errorf("saturated filter FPR = %g, want near 1", got)
	}
}

func TestFPRMonotoneInN(t *testing.T) {
	prev := 0.0
	for n := 1; n <= 200; n++ {
		cur := FPR(256, 4, n)
		if cur < prev {
			t.Fatalf("FPR decreased at n=%d: %g -> %g", n, prev, cur)
		}
		prev = cur
	}
}

func TestExpectedSetBitsAndFillRatio(t *testing.T) {
	m, k, n := 256, 4, 38
	bits := ExpectedSetBits(m, k, n)
	if bits <= 0 || bits >= float64(m) {
		t.Fatalf("ExpectedSetBits = %g out of (0, %d)", bits, m)
	}
	if fr := FillRatio(m, k, n); math.Abs(fr-bits/float64(m)) > 1e-12 {
		t.Errorf("FillRatio inconsistent with ExpectedSetBits")
	}
}

func TestKeysFromFillRatioInvertsEq3(t *testing.T) {
	m, k := 256, 4
	for _, n := range []int{1, 5, 20, 38, 60} {
		fr := FillRatio(m, k, n)
		back := KeysFromFillRatio(m, k, fr)
		if math.Abs(back-float64(n)) > 1e-6 {
			t.Errorf("round trip n=%d gave %.6f", n, back)
		}
	}
	if KeysFromFillRatio(m, k, 0) != 0 {
		t.Error("fr=0 should give 0 keys")
	}
	if !math.IsInf(KeysFromFillRatio(m, k, 1), 1) {
		t.Error("fr=1 should give +Inf keys")
	}
}

func TestFPRMatchesEmpiricalBloom(t *testing.T) {
	// Validate Eq. 1 against a real filter: measured FPR over many absent
	// probes should track the formula. A TCBF at DF 0 never decays, so its
	// existential query is the classic Bloom filter's.
	m, k, n := 1024, 4, 80
	f := tcbf.MustNew(tcbf.Config{M: m, K: k, Initial: 1}, 0)
	for i := 0; i < n; i++ {
		if err := f.Insert(fmt.Sprintf("member-%d", i), 0); err != nil {
			t.Fatal(err)
		}
	}
	fp, probes := 0, 30000
	for i := 0; i < probes; i++ {
		ok, err := f.Contains(fmt.Sprintf("absent-%d", i), 0)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			fp++
		}
	}
	measured := float64(fp) / float64(probes)
	theory := FPR(m, k, n)
	if measured > theory*2+0.01 || measured < theory/3-0.01 {
		t.Errorf("measured FPR %.4f vs theoretical %.4f", measured, theory)
	}
}

func TestExpectedMinBinomial(t *testing.T) {
	if got := ExpectedMinBinomial(0, 0.1, 4); got != 0 {
		t.Errorf("n=0: got %g, want 0", got)
	}
	if got := ExpectedMinBinomial(100, 0, 4); got != 0 {
		t.Errorf("p=0: got %g, want 0", got)
	}
	// k=1 reduces to the plain binomial mean n*p.
	got := ExpectedMinBinomial(200, 0.05, 1)
	if math.Abs(got-10) > 0.1 {
		t.Errorf("k=1 mean: got %g, want 10", got)
	}
	// Minimum of more variables is smaller.
	one := ExpectedMinBinomial(200, 0.05, 1)
	four := ExpectedMinBinomial(200, 0.05, 4)
	if four >= one {
		t.Errorf("min of 4 (%g) not below min of 1 (%g)", four, one)
	}
	// p=1 means every draw hits: min = n regardless of k.
	if got := ExpectedMinBinomial(7, 1, 3); math.Abs(got-7) > 1e-9 {
		t.Errorf("p=1: got %g, want 7", got)
	}
}

func TestExpectedMinBinomialMonteCarlo(t *testing.T) {
	// Cross-check against a brute-force enumeration for tiny parameters:
	// n=3, p=0.5, k=2. Min of two iid Binomial(3, 1/2).
	// PMF: 1/8, 3/8, 3/8, 1/8. E[min] = sum_{c>=1} P(X>c-1)^2
	//   = P(X>=1)^2 + P(X>=2)^2 + P(X>=3)^2
	//   = (7/8)^2 + (4/8)^2 + (1/8)^2 = (49+16+1)/64 = 66/64.
	want := 66.0 / 64.0
	got := ExpectedMinBinomial(3, 0.5, 2)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("got %g, want %g", got, want)
	}
}

func TestDecayFactor(t *testing.T) {
	// Section VII-B: "The DF for T = 10 hours is set to 0.138/min ... which
	// is obtained by counting the number of different nodes met in 10
	// hours." With C=10, T=600 min and few accidental increments, DF should
	// land near C/T ~ 0.0167 scaled by (1+E[min]); for the paper's 0.138 the
	// accidental-increment term dominates. We check the structural
	// properties rather than the opaque constant.
	df0, err := DecayFactor(10, 0, 256, 4, 600, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(df0-10.0/600) > 1e-9 {
		t.Errorf("no accidental keys: DF = %g, want C/T = %g", df0, 10.0/600)
	}
	dfBusy, err := DecayFactor(10, 500, 256, 4, 600, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dfBusy <= df0 {
		t.Errorf("DF with 500 collected keys (%g) not above baseline (%g)", dfBusy, df0)
	}
	dfDelta, err := DecayFactor(10, 0, 256, 4, 600, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dfDelta-df0-0.01) > 1e-9 {
		t.Errorf("delta not added: %g vs %g+0.01", dfDelta, df0)
	}
}

func TestDecayFactorValidation(t *testing.T) {
	if _, err := DecayFactor(0, 10, 256, 4, 600, 0); err == nil {
		t.Error("zero initial accepted")
	}
	if _, err := DecayFactor(10, 10, 256, 4, 0, 0); err == nil {
		t.Error("zero T accepted")
	}
	if _, err := DecayFactor(10, 10, 256, 4, 600, -1); err == nil {
		t.Error("negative delta accepted")
	}
}

func TestExpectedUniqueKeys(t *testing.T) {
	if got := ExpectedUniqueKeys(38, 0); got != 0 {
		t.Errorf("no draws: got %g", got)
	}
	// Far more draws than keys saturates at the key population.
	got := ExpectedUniqueKeys(38, 10000)
	if math.Abs(got-38) > 0.01 {
		t.Errorf("saturation: got %g, want ~38", got)
	}
	// One draw yields exactly one distinct key.
	if got := ExpectedUniqueKeys(38, 1); math.Abs(got-1) > 1e-9 {
		t.Errorf("one draw: got %g, want 1", got)
	}
	// Monotone in draws.
	prev := 0.0
	for n := 1; n < 200; n++ {
		cur := ExpectedUniqueKeys(38, n)
		if cur < prev {
			t.Fatalf("not monotone at n=%d", n)
		}
		prev = cur
	}
}

func TestJointFPR(t *testing.T) {
	single := JointFPR(256, 4, []int{38})
	if math.Abs(single-FPR(256, 4, 38)) > 1e-12 {
		t.Errorf("single-filter joint FPR %g != Eq. 1 %g", single, FPR(256, 4, 38))
	}
	split := JointFPR(256, 4, []int{19, 19})
	crammed := JointFPR(256, 4, []int{38})
	if split >= crammed {
		t.Errorf("splitting keys raised FPR: %g >= %g", split, crammed)
	}
	if got := JointFPR(256, 4, nil); got != 0 {
		t.Errorf("empty collection FPR = %g", got)
	}
}

func TestMemoryBitsMonotoneInH(t *testing.T) {
	prev := 0.0
	for h := 1; h <= 16; h++ {
		cur := MemoryBits(256, 4, 64, h)
		if cur < prev-1e-9 {
			t.Fatalf("memory decreased at h=%d: %g -> %g", h, prev, cur)
		}
		prev = cur
	}
	if MemoryBits(256, 4, 64, 0) != 0 {
		t.Error("h=0 should cost nothing")
	}
}

func TestOptimalAllocation(t *testing.T) {
	m, k, n := 256, 4, 64
	oneFilter := MemoryBits(m, k, n, 1)

	// Exactly one filter's worth of storage: h=1.
	a, err := OptimalAllocation(m, k, n, oneFilter)
	if err != nil {
		t.Fatal(err)
	}
	if a.Filters != 1 {
		t.Errorf("tight bound: h=%d, want 1", a.Filters)
	}

	// Generous storage: more filters, lower FPR.
	b, err := OptimalAllocation(m, k, n, oneFilter*6)
	if err != nil {
		t.Fatal(err)
	}
	if b.Filters <= a.Filters {
		t.Errorf("generous bound did not increase h: %d vs %d", b.Filters, a.Filters)
	}
	if b.JointFPR >= a.JointFPR {
		t.Errorf("more filters did not lower FPR: %g vs %g", b.JointFPR, a.JointFPR)
	}
	if b.MemoryBits > oneFilter*6 {
		t.Errorf("allocation exceeds bound: %g > %g", b.MemoryBits, oneFilter*6)
	}
	if b.FillThreshold <= 0 || b.FillThreshold >= 1 {
		t.Errorf("fill threshold %g out of (0,1)", b.FillThreshold)
	}

	// Infeasible bound.
	if _, err := OptimalAllocation(m, k, n, 1); !errors.Is(err, ErrInfeasible) {
		t.Errorf("infeasible bound: error = %v, want ErrInfeasible", err)
	}
	// Invalid arguments.
	if _, err := OptimalAllocation(0, 4, 10, 1e9); err == nil {
		t.Error("m=0 accepted")
	}
}

func TestWastedRatios(t *testing.T) {
	fpr := 0.04
	if got := CompletelyWastedRatio(fpr); math.Abs(got-0.0016) > 1e-12 {
		t.Errorf("completely wasted = %g, want 0.0016", got)
	}
	if got := PartiallyUsefulRatio(fpr); math.Abs(got-0.0384) > 1e-12 {
		t.Errorf("partially useful = %g, want 0.0384", got)
	}
}

// Property: FPR is always a probability, for arbitrary geometry.
func TestFPRBoundedProperty(t *testing.T) {
	prop := func(m, k, n uint16) bool {
		mm, kk, nn := int(m%4096)+1, int(k%16)+1, int(n)
		f := FPR(mm, kk, nn)
		return f >= 0 && f <= 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: joint FPR of a split never exceeds the crammed single filter.
func TestSplitNeverWorseProperty(t *testing.T) {
	prop := func(nRaw, hRaw uint8) bool {
		n := int(nRaw)%100 + 2
		h := int(hRaw)%8 + 2
		m, k := 256, 4
		per := make([]int, h)
		for i := 0; i < h; i++ {
			per[i] = n / h
		}
		per[0] += n % h
		return JointFPR(m, k, per) <= JointFPR(m, k, []int{n})+1e-12
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkOptimalAllocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = OptimalAllocation(256, 4, 200, 40000)
	}
}

func BenchmarkExpectedMinBinomial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ExpectedMinBinomial(500, 4.0/256, 4)
	}
}

func TestGeometryFor(t *testing.T) {
	tests := []struct {
		n      int
		target float64
	}{
		{n: 38, target: 0.04},
		{n: 38, target: 0.001},
		{n: 1, target: 0.01},
		{n: 1000, target: 0.02},
	}
	for _, tt := range tests {
		g, err := GeometryFor(tt.n, tt.target)
		if err != nil {
			t.Fatalf("GeometryFor(%d, %g): %v", tt.n, tt.target, err)
		}
		if g.FPR > tt.target {
			t.Errorf("GeometryFor(%d, %g) = %+v exceeds the target", tt.n, tt.target, g)
		}
		// The recommendation should not be grossly oversized: halving m
		// must violate the target (within rounding slack for tiny filters).
		if g.M > 16 {
			if half := FPR(g.M/2, g.K, tt.n); half <= tt.target {
				t.Errorf("GeometryFor(%d, %g) oversized: m/2=%d still meets target (fpr %g)",
					tt.n, tt.target, g.M/2, half)
			}
		}
	}
}

func TestGeometryForPaperSetting(t *testing.T) {
	// The paper's 256/4 for 38 keys yields FPR 0.04; the optimizer should
	// recommend a geometry in the same size class for that target.
	g, err := GeometryFor(38, 0.0402)
	if err != nil {
		t.Fatal(err)
	}
	if g.M < 180 || g.M > 320 {
		t.Errorf("recommended m=%d far from the paper's 256", g.M)
	}
}

func TestGeometryForValidation(t *testing.T) {
	if _, err := GeometryFor(0, 0.01); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := GeometryFor(10, 0); err == nil {
		t.Error("target 0 accepted")
	}
	if _, err := GeometryFor(10, 1); err == nil {
		t.Error("target 1 accepted")
	}
}

// Property: the recommendation always meets its target.
func TestGeometryForMeetsTargetProperty(t *testing.T) {
	prop := func(nRaw uint8, tRaw uint8) bool {
		n := int(nRaw)%200 + 1
		target := (float64(tRaw)+1)/300 + 0.0005 // (0.0005, ~0.85)
		g, err := GeometryFor(n, target)
		if err != nil {
			return false
		}
		return g.FPR <= target
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
