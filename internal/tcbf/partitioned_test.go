package tcbf

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestNewPartitionedValidation(t *testing.T) {
	cfg := testConfig()
	for _, h := range []int{0, -1, 256} {
		if _, err := NewPartitioned(cfg, h, 0); err == nil {
			t.Errorf("h=%d accepted", h)
		}
	}
	bad := cfg
	bad.M = 0
	if _, err := NewPartitioned(bad, 2, 0); err == nil {
		t.Error("invalid per-partition config accepted")
	}
	p, err := NewPartitioned(cfg, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Partitions() != 4 {
		t.Errorf("partitions = %d", p.Partitions())
	}
}

// TestNewPartitionedBrokenConfigs pins the constructor every relay and
// scratch filter is built through: each broken geometry or partition
// count is refused with an error naming the offending parameter, and
// MustNewPartitioned panics on the same input.
func TestNewPartitionedBrokenConfigs(t *testing.T) {
	valid := testConfig()
	cases := []struct {
		name       string
		cfg        Config
		partitions int
		wantErr    string // substring the error must carry
	}{
		{"zero-m", Config{M: 0, K: 4, Initial: 10}, 1, "bit-vector length"},
		{"negative-m", Config{M: -8, K: 4, Initial: 10}, 1, "bit-vector length"},
		{"zero-k", Config{M: 256, K: 0, Initial: 10}, 1, "hash count"},
		{"zero-initial", Config{M: 256, K: 4}, 1, "initial counter"},
		{"negative-decay", Config{M: 256, K: 4, Initial: 10, DecayPerMinute: -1}, 1, "decay factor"},
		{"zero-partitions", valid, 0, "partition count"},
		{"too-many-partitions", valid, 256, "partition count"},
		{"far-too-many-partitions", valid, 300, "partition count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewPartitioned(tc.cfg, tc.partitions, time.Hour)
			if err == nil {
				t.Fatalf("NewPartitioned accepted broken config %+v partitions=%d", tc.cfg, tc.partitions)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not name the problem (want %q)", err, tc.wantErr)
			}
			defer func() {
				if recover() == nil {
					t.Errorf("MustNewPartitioned did not panic on a config NewPartitioned rejects")
				}
			}()
			MustNewPartitioned(tc.cfg, tc.partitions, time.Hour)
		})
	}
}

// TestNewPartitionedAcceptsDefaults is the positive control: the
// evaluation geometry yields an empty filter with the requested
// partition count.
func TestNewPartitionedAcceptsDefaults(t *testing.T) {
	for _, tc := range []struct {
		name       string
		partitions int
	}{{"one-partition", 1}, {"three-partitions", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewPartitioned(testConfig(), tc.partitions, time.Hour)
			if err != nil {
				t.Fatalf("NewPartitioned rejected the evaluation geometry: %v", err)
			}
			if p.Partitions() != tc.partitions {
				t.Errorf("partitions = %d, want %d", p.Partitions(), tc.partitions)
			}
			if p.SetBits() != 0 {
				t.Errorf("fresh filter has %d set bits", p.SetBits())
			}
		})
	}
}

// preKeys precomputes every key, in order.
func preKeys(keys []string) []PreKey {
	out := make([]PreKey, len(keys))
	for i, k := range keys {
		out[i] = Precompute(k)
	}
	return out
}

func TestPartitionedInsertContains(t *testing.T) {
	p := MustNewPartitioned(testConfig(), 4, 0)
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	if err := p.InsertAllPre(preKeys(keys), 0); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		ok, err := p.ContainsPre(Precompute(k), 0)
		if err != nil || !ok {
			t.Errorf("lost %q", k)
		}
	}
}

func TestPartitionedRoutingIsStableAndSpread(t *testing.T) {
	p := MustNewPartitioned(testConfig(), 4, 0)
	used := make(map[int]int)
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("key-%d", i)
		r := p.routePre(Precompute(k))
		if r != p.routePre(Precompute(k)) {
			t.Fatalf("routing unstable for %q", k)
		}
		if r < 0 || r >= 4 {
			t.Fatalf("route %d out of range", r)
		}
		used[r]++
	}
	if len(used) < 3 {
		t.Errorf("64 keys landed in only %d of 4 partitions: %v", len(used), used)
	}
}

func TestPartitionedDecay(t *testing.T) {
	p := MustNewPartitioned(testConfig(), 3, 0) // C=10, DF=1/min
	if err := p.InsertPre(Precompute("fleeting"), 0); err != nil {
		t.Fatal(err)
	}
	ok, err := p.ContainsPre(Precompute("fleeting"), 11*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("key survived decay")
	}
}

func TestPartitionedMerges(t *testing.T) {
	cfg := testConfig()
	a := MustNewPartitioned(cfg, 4, 0)
	b := MustNewPartitioned(cfg, 4, 0)
	if err := a.InsertPre(Precompute("shared"), 0); err != nil {
		t.Fatal(err)
	}
	if err := b.InsertPre(Precompute("shared"), 0); err != nil {
		t.Fatal(err)
	}
	if err := b.InsertPre(Precompute("b-only"), 0); err != nil {
		t.Fatal(err)
	}

	am := MustNewPartitioned(cfg, 4, 0)
	if err := am.AMerge(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := am.AMerge(b, 0); err != nil {
		t.Fatal(err)
	}
	min, err := am.MinCounterPre(Precompute("shared"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if min != 20 {
		t.Errorf("A-merged counter = %g, want 20", min)
	}

	mm := MustNewPartitioned(cfg, 4, 0)
	if err := mm.MMerge(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := mm.MMerge(b, 0); err != nil {
		t.Fatal(err)
	}
	min, err = mm.MinCounterPre(Precompute("shared"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if min != 10 {
		t.Errorf("M-merged counter = %g, want max 10", min)
	}
	ok, err := mm.ContainsPre(Precompute("b-only"), 0)
	if err != nil || !ok {
		t.Error("M-merge lost b-only")
	}
}

func TestPartitionedMergeMismatch(t *testing.T) {
	cfg := testConfig()
	a := MustNewPartitioned(cfg, 2, 0)
	b := MustNewPartitioned(cfg, 4, 0)
	if err := a.AMerge(b, 0); !errors.Is(err, ErrGeometry) {
		t.Errorf("A-merge mismatch error = %v", err)
	}
	if err := a.MMerge(b, 0); !errors.Is(err, ErrGeometry) {
		t.Errorf("M-merge mismatch error = %v", err)
	}
	if _, err := PreferencePartitionedPre(Precompute("k"), b, a, 0); !errors.Is(err, ErrGeometry) {
		t.Errorf("preference mismatch error = %v", err)
	}
}

func TestPreferencePartitionedPre(t *testing.T) {
	cfg := testConfig()
	self := MustNewPartitioned(cfg, 4, 0)
	peer := MustNewPartitioned(cfg, 4, 0)
	if err := peer.InsertPre(Precompute("k"), 0); err != nil {
		t.Fatal(err)
	}
	pref, err := PreferencePartitionedPre(Precompute("k"), peer, self, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pref != 10 {
		t.Errorf("preference = %g, want 10", pref)
	}
}

func TestPartitionedLowersJointFPR(t *testing.T) {
	// The whole point of VI-D: the same keys split over 4 partitions give
	// a lower estimated FPR than crammed into one filter of the same
	// per-filter geometry.
	cfg := Config{M: 128, K: 4, Initial: 10, DecayPerMinute: 0}
	one := MustNewPartitioned(cfg, 1, 0)
	four := MustNewPartitioned(cfg, 4, 0)
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("key-%d", i)
		if err := one.InsertPre(Precompute(k), 0); err != nil {
			t.Fatal(err)
		}
		if err := four.InsertPre(Precompute(k), 0); err != nil {
			t.Fatal(err)
		}
	}
	if four.EstimatedFPR() >= one.EstimatedFPR() {
		t.Errorf("4 partitions FPR %.4f not below 1 partition %.4f",
			four.EstimatedFPR(), one.EstimatedFPR())
	}
}

func TestPartitionedEncodeDecodeRoundTrip(t *testing.T) {
	cfg := testConfig()
	p := MustNewPartitioned(cfg, 4, 0)
	keys := []string{"alpha", "beta", "gamma"}
	if err := p.InsertAllPre(preKeys(keys), 0); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []CounterMode{CountersNone, CountersUniform, CountersFull} {
		data, err := p.Encode(mode)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		got, err := DecodePartitioned(data, cfg, 0)
		if err != nil {
			t.Fatalf("mode %d decode: %v", mode, err)
		}
		if got.Partitions() != 4 {
			t.Fatalf("partitions = %d", got.Partitions())
		}
		for _, k := range keys {
			ok, err := got.ContainsPre(Precompute(k), 0)
			if err != nil || !ok {
				t.Errorf("mode %d lost %q", mode, k)
			}
		}
	}
}

func TestPartitionedEncodeSkipsEmptyPartitions(t *testing.T) {
	cfg := testConfig()
	p := MustNewPartitioned(cfg, 8, 0)
	if err := p.InsertPre(Precompute("only"), 0); err != nil {
		t.Fatal(err)
	}
	sparse, err := p.WireSize(CountersUniform)
	if err != nil {
		t.Fatal(err)
	}
	single := MustNewPartitioned(cfg, 1, 0)
	if err := single.InsertPre(Precompute("only"), 0); err != nil {
		t.Fatal(err)
	}
	dense, err := single.WireSize(CountersUniform)
	if err != nil {
		t.Fatal(err)
	}
	// 7 empty partitions cost 4 bytes each, not a full filter encoding.
	if sparse > dense+8*4+2 {
		t.Errorf("sparse pool wire size %d B; empties not compressed (single: %d B)", sparse, dense)
	}
}

func TestDecodePartitionedRejectsCorrupt(t *testing.T) {
	cfg := testConfig()
	p := MustNewPartitioned(cfg, 2, 0)
	if err := p.InsertPre(Precompute("k"), 0); err != nil {
		t.Fatal(err)
	}
	good, err := p.Encode(CountersFull)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		data []byte
	}{
		{name: "empty", data: nil},
		{name: "bad magic", data: append([]byte{0xAA}, good[1:]...)},
		{name: "zero partitions", data: []byte{wireMagic ^ 0x0F, 0}},
		{name: "truncated length", data: good[:3]},
		{name: "truncated body", data: good[:len(good)-2]},
		{name: "trailing bytes", data: append(append([]byte{}, good...), 0xFF)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := DecodePartitioned(tt.data, cfg, 0); !errors.Is(err, ErrCorrupt) {
				t.Errorf("error = %v, want ErrCorrupt", err)
			}
		})
	}
}

// Property: partitioned membership round-trips across arbitrary key sets
// in both counter modes, with decay pending at encode time, and the decoded
// copy refuses genuine inserts.
func TestPartitionedRoundTripProperty(t *testing.T) {
	cfg := Config{M: 256, K: 4, Initial: 10, DecayPerMinute: 1}
	prop := func(keys []string, hRaw uint8) bool {
		h := int(hRaw)%8 + 1
		p := MustNewPartitioned(cfg, h, 0)
		for _, k := range keys {
			if err := p.InsertPre(Precompute(k), 0); err != nil {
				return false
			}
		}
		now := time.Minute
		if p.Advance(now) != nil {
			return false
		}
		for _, mode := range []CounterMode{CountersNone, CountersFull} {
			data, err := p.Encode(mode)
			if err != nil {
				return false
			}
			got, err := DecodePartitioned(data, cfg, now)
			if err != nil {
				return false
			}
			for _, k := range keys {
				ok, err := got.ContainsPre(Precompute(k), now)
				if err != nil || !ok {
					return false
				}
			}
			if !errors.Is(got.InsertPre(Precompute("genuine-after-decode"), now), ErrMerged) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: DecodePartitioned never panics on arbitrary bytes.
func TestDecodePartitionedNeverPanicsProperty(t *testing.T) {
	cfg := testConfig()
	prop := func(data []byte) bool {
		_, _ = DecodePartitioned(data, cfg, 0)
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// An unknown counter mode must be refused even when every partition is
// empty: the per-partition encoder that also checks it never runs on an
// empty partition's body.
func TestPartitionedEncodeRejectsUnknownMode(t *testing.T) {
	cfg := testConfig()
	empty := MustNewPartitioned(cfg, 4, 0)
	one := MustNewPartitioned(cfg, 4, 0)
	if err := one.InsertPre(Precompute("k"), 0); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Partitioned{empty, one} {
		for _, mode := range []CounterMode{0, CountersFull + 1, 9} {
			if b, err := p.EncodeTo(nil, mode); err == nil {
				t.Errorf("mode %d on %d set bits: encoded %x, want an error", mode, p.SetBits(), b)
			}
			if _, err := p.Encode(mode); err == nil {
				t.Errorf("Encode mode %d on %d set bits: no error", mode, p.SetBits())
			}
		}
	}
}
