package hashkit

import (
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		m, k    int
		wantErr bool
	}{
		{name: "valid small", m: 8, k: 2},
		{name: "valid paper eval", m: 256, k: 4},
		{name: "valid max k", m: 1024, k: MaxK},
		{name: "zero m", m: 0, k: 2, wantErr: true},
		{name: "negative m", m: -5, k: 2, wantErr: true},
		{name: "zero k", m: 8, k: 0, wantErr: true},
		{name: "negative k", m: 8, k: -1, wantErr: true},
		{name: "k too large", m: 8, k: MaxK + 1, wantErr: true},
		{name: "m of one", m: 1, k: 1},
		{name: "m beyond 32 bits", m: math.MaxUint32 + 1, k: 2, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			h, err := New(tt.m, tt.k)
			if (err != nil) != tt.wantErr {
				t.Fatalf("New(%d, %d) error = %v, wantErr %v", tt.m, tt.k, err, tt.wantErr)
			}
			if err != nil {
				return
			}
			if h.M() != tt.m || h.K() != tt.k {
				t.Errorf("got (M,K) = (%d,%d), want (%d,%d)", h.M(), h.K(), tt.m, tt.k)
			}
		})
	}
}

func TestMustNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(0, 0) did not panic")
		}
	}()
	MustNew(0, 0)
}

func TestPositionsInRange(t *testing.T) {
	h := MustNew(256, 4)
	keys := []string{"", "a", "NewMoon", "Twitter'sNew", "funnybutnotcool", "openwebawards", "日本語"}
	for _, key := range keys {
		for _, p := range h.Positions(nil, key) {
			if int(p) >= h.M() {
				t.Errorf("Positions(%q) produced out-of-range position %d (m=%d)", key, p, h.M())
			}
		}
	}
}

func TestPositionsDeterministic(t *testing.T) {
	h := MustNew(256, 4)
	a := h.Positions(nil, "Thanksgiving")
	b := h.Positions(nil, "Thanksgiving")
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("position %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestPositionsCount(t *testing.T) {
	for _, k := range []int{1, 2, 4, 7, 16} {
		h := MustNew(512, k)
		if got := len(h.Positions(nil, "key")); got != k {
			t.Errorf("k=%d: got %d positions", k, got)
		}
	}
}

func TestPositionsAppendsToDst(t *testing.T) {
	h := MustNew(64, 3)
	dst := make([]uint32, 0, 8)
	dst = append(dst, 99)
	out := h.Positions(dst, "x")
	if len(out) != 4 {
		t.Fatalf("got len %d, want 4", len(out))
	}
	if out[0] != 99 {
		t.Errorf("existing element clobbered: %d", out[0])
	}
}

func TestPositionsDistinctKeysUsuallyDiffer(t *testing.T) {
	h := MustNew(1<<16, 4)
	seen := make(map[[4]uint32]string)
	collisions := 0
	keys := []string{
		"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
		"iota", "kappa", "lambda", "mu", "nu", "xi", "omicron", "pi",
	}
	for _, key := range keys {
		ps := h.Positions(nil, key)
		var sig [4]uint32
		copy(sig[:], ps)
		if prev, ok := seen[sig]; ok {
			t.Logf("signature collision between %q and %q", prev, key)
			collisions++
		}
		seen[sig] = key
	}
	if collisions > 0 {
		t.Errorf("%d full-signature collisions among %d keys in a 2^16 space", collisions, len(keys))
	}
}

// Property: every derived position is always within [0, m) for arbitrary
// keys and a range of filter geometries.
func TestPositionsInRangeProperty(t *testing.T) {
	geometries := []struct{ m, k int }{{1, 1}, {2, 2}, {100, 3}, {256, 4}, {4096, 8}}
	for _, g := range geometries {
		h := MustNew(g.m, g.k)
		prop := func(key string) bool {
			for _, p := range h.Positions(nil, key) {
				if int(p) >= g.m {
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Errorf("m=%d k=%d: %v", g.m, g.k, err)
		}
	}
}

// Property: position derivation is a pure function of the key.
func TestPositionsPureProperty(t *testing.T) {
	h := MustNew(509, 5) // prime m exercises the non-power-of-two path
	prop := func(key string) bool {
		a := h.Positions(nil, key)
		b := h.Positions(nil, key)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: the inlined FNV-1a/64 in DigestOf matches the standard
// library's hash/fnv bit-for-bit — the digest halves are a wire-visible
// protocol constant (they decide every filter bit), so the allocation-free
// rewrite must not drift from the reference implementation.
func TestDigestMatchesStdlibFNV(t *testing.T) {
	prop := func(key string) bool {
		f := fnv.New64a()
		_, _ = f.Write([]byte(key))
		sum := f.Sum64()
		d := DigestOf(key)
		return d.h1 == uint32(sum) && d.h2 == uint32(sum>>32)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
	for _, key := range []string{"", "a", "openwebawards", "日本語"} {
		if !prop(key) {
			t.Errorf("DigestOf(%q) differs from hash/fnv", key)
		}
	}
}

// Property: Positions is exactly PositionsDigest over the precomputed
// digest, for arbitrary keys.
func TestPositionsDigestEquivalence(t *testing.T) {
	h := MustNew(256, 4)
	prop := func(key string) bool {
		a := h.Positions(nil, key)
		b := h.PositionsDigest(nil, DigestOf(key))
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return len(a) == len(b)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestDigestOfAllocationFree(t *testing.T) {
	h := MustNew(256, 4)
	buf := make([]uint32, 0, 4)
	if avg := testing.AllocsPerRun(100, func() {
		buf = h.PositionsDigest(buf[:0], DigestOf("openwebawards"))
	}); avg != 0 {
		t.Errorf("DigestOf+PositionsDigest allocates %.1f times per run, want 0", avg)
	}
}

func BenchmarkPositions(b *testing.B) {
	h := MustNew(256, 4)
	buf := make([]uint32, 0, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = h.Positions(buf[:0], "openwebawards")
	}
}
