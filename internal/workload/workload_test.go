package workload

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestTrendKeySetShape(t *testing.T) {
	ks := NewTrendKeySet()
	if ks.Len() != 38 {
		t.Fatalf("key count = %d, want the paper's 38", ks.Len())
	}
	// Table II head.
	wantHead := []float64{0.132, 0.103, 0.0887, 0.0739}
	for i, want := range wantHead {
		if math.Abs(ks.Weight(i)-want) > 1e-9 {
			t.Errorf("weight[%d] = %g, want Table II's %g", i, ks.Weight(i), want)
		}
	}
	// Weights sum to 1 and are non-increasing through the tail.
	sum := 0.0
	for i := 0; i < ks.Len(); i++ {
		sum += ks.Weight(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %g", sum)
	}
	for i := len(wantHead); i < ks.Len(); i++ {
		if ks.Weight(i) > ks.Weight(len(wantHead)-1)+1e-12 {
			t.Errorf("tail weight %d (%g) above head minimum", i, ks.Weight(i))
		}
	}
	// Mean key length should be in the neighbourhood of the paper's 11.5 B.
	if mean := ks.MeanKeyBytes(); mean < 7 || mean > 16 {
		t.Errorf("mean key length %.1f B implausibly far from the paper's 11.5 B", mean)
	}
}

func TestNewKeySetValidation(t *testing.T) {
	tests := []struct {
		name    string
		keys    []Key
		weights []float64
	}{
		{name: "empty", keys: nil, weights: nil},
		{name: "length mismatch", keys: []Key{"a"}, weights: []float64{1, 2}},
		{name: "zero weight", keys: []Key{"a", "b"}, weights: []float64{1, 0}},
		{name: "negative weight", keys: []Key{"a", "b"}, weights: []float64{1, -1}},
		{name: "NaN weight", keys: []Key{"a", "b"}, weights: []float64{1, math.NaN()}},
		{name: "inf weight", keys: []Key{"a", "b"}, weights: []float64{1, math.Inf(1)}},
		{name: "duplicate key", keys: []Key{"a", "a"}, weights: []float64{1, 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewKeySet(tt.keys, tt.weights); err == nil {
				t.Error("invalid key set accepted")
			}
		})
	}
}

func TestSampleFollowsWeights(t *testing.T) {
	ks, err := NewKeySet([]Key{"hot", "cold"}, []float64{0.9, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	hot := 0
	n := 20000
	for i := 0; i < n; i++ {
		if ks.Sample(rng) == "hot" {
			hot++
		}
	}
	frac := float64(hot) / float64(n)
	if math.Abs(frac-0.9) > 0.02 {
		t.Errorf("hot sampled %.3f of the time, want ~0.9", frac)
	}
}

func TestSampleTrendHead(t *testing.T) {
	ks := NewTrendKeySet()
	rng := rand.New(rand.NewSource(2))
	counts := make(map[Key]int)
	n := 50000
	for i := 0; i < n; i++ {
		counts[ks.Sample(rng)]++
	}
	top := ks.Key(0)
	frac := float64(counts[top]) / float64(n)
	if math.Abs(frac-0.132) > 0.01 {
		t.Errorf("top key sampled %.3f, want Table II's 0.132", frac)
	}
}

func TestInterests(t *testing.T) {
	ks := NewTrendKeySet()
	rng := rand.New(rand.NewSource(3))
	in := Interests(ks, 79, rng)
	if len(in) != 79 {
		t.Fatalf("got %d interests", len(in))
	}
	valid := make(map[Key]struct{})
	for _, k := range ks.Keys() {
		valid[k] = struct{}{}
	}
	for i, k := range in {
		if _, ok := valid[k]; !ok {
			t.Errorf("node %d interest %q not in key set", i, k)
		}
	}
}

func TestRates(t *testing.T) {
	centrality := []float64{0.1, 0.2, 0.4, 0}
	rates, err := Rates(centrality, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 4, 8, 0}
	for i := range want {
		if math.Abs(rates[i]-want[i]) > 1e-12 {
			t.Errorf("rate[%d] = %g, want %g", i, rates[i], want[i])
		}
	}
	if _, err := Rates(centrality, 0); err == nil {
		t.Error("zero base rate accepted")
	}
	if _, err := Rates([]float64{0, 0}, 2); err == nil {
		t.Error("all-zero centrality accepted")
	}
}

func TestGenerateMessages(t *testing.T) {
	ks := NewTrendKeySet()
	rng := rand.New(rand.NewSource(4))
	rates := []float64{2, 4, 0}
	span := 50 * time.Hour
	msgs := GenerateMessages(ks, rates, span, rng)

	if len(msgs) == 0 {
		t.Fatal("no messages generated")
	}
	// Expected total: (2+4) * 50 = 300.
	if math.Abs(float64(len(msgs))-300) > 75 {
		t.Errorf("generated %d messages, expected about 300", len(msgs))
	}
	var from2 int
	for i, m := range msgs {
		if m.ID != i {
			t.Fatalf("IDs not sequential at %d", i)
		}
		if i > 0 && msgs[i].CreatedAt < msgs[i-1].CreatedAt {
			t.Fatalf("messages not time-sorted at %d", i)
		}
		if m.Size < 1 || m.Size > MaxMessageBytes {
			t.Errorf("message %d size %d out of [1,%d]", i, m.Size, MaxMessageBytes)
		}
		if m.CreatedAt < 0 || m.CreatedAt >= span {
			t.Errorf("message %d created at %v outside span", i, m.CreatedAt)
		}
		if m.Origin == 2 {
			from2++
		}
	}
	if from2 != 0 {
		t.Errorf("zero-rate node produced %d messages", from2)
	}
}

func TestGenerateMessagesRateProportionality(t *testing.T) {
	ks := NewTrendKeySet()
	rng := rand.New(rand.NewSource(5))
	msgs := GenerateMessages(ks, []float64{1, 5}, 200*time.Hour, rng)
	byOrigin := map[int]int{}
	for _, m := range msgs {
		byOrigin[m.Origin]++
	}
	ratio := float64(byOrigin[1]) / float64(byOrigin[0])
	if ratio < 3.5 || ratio > 7 {
		t.Errorf("rate-5 node produced %.1fx the messages of rate-1 node, want ~5x", ratio)
	}
}

// Property: sampling always returns a key from the set.
func TestSampleMembershipProperty(t *testing.T) {
	ks := NewTrendKeySet()
	valid := make(map[Key]struct{})
	for _, k := range ks.Keys() {
		valid[k] = struct{}{}
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			if _, ok := valid[ks.Sample(rng)]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: arbitrary positive weights normalize and sample without error.
func TestNewKeySetNormalizesProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		keys := make([]Key, len(raw))
		weights := make([]float64, len(raw))
		for i, r := range raw {
			keys[i] = Key(rune('a'+i%26)) + Key(rune('0'+i/26%10)) + Key(rune('0'+i/260))
			weights[i] = float64(r%1000) + 1
		}
		ks, err := NewKeySet(keys, weights)
		if err != nil {
			return false
		}
		sum := 0.0
		for i := 0; i < ks.Len(); i++ {
			sum += ks.Weight(i)
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSample(b *testing.B) {
	ks := NewTrendKeySet()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ks.Sample(rng)
	}
}

func TestMatchKeys(t *testing.T) {
	single := Message{ID: 0, Key: "a"}
	if got := single.MatchKeys(); len(got) != 1 || got[0] != "a" {
		t.Errorf("single-key MatchKeys = %v", got)
	}
	multi := Message{ID: 1, Key: "a", Extra: []Key{"b", "c"}}
	got := multi.MatchKeys()
	want := []Key{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("MatchKeys = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("MatchKeys[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestMessageMatches checks Matches against the MatchKeys double loop it
// replaced, for single- and multi-key messages.
func TestMessageMatches(t *testing.T) {
	msgs := []Message{
		{ID: 0, Key: "a"},
		{ID: 1, Key: "a", Extra: []Key{"b", "c"}},
	}
	sets := [][]Key{nil, {"a"}, {"b"}, {"c", "z"}, {"z"}, {"y", "z"}}
	for _, m := range msgs {
		for _, set := range sets {
			want := false
			for _, k := range m.MatchKeys() {
				want = want || slices.Contains(set, k)
			}
			if got := m.Matches(set); got != want {
				t.Errorf("message %d Matches(%v) = %v, want %v", m.ID, set, got, want)
			}
		}
	}
}

func TestInterestSets(t *testing.T) {
	ks := NewTrendKeySet()
	rng := rand.New(rand.NewSource(6))
	sets := InterestSets(ks, 50, 3, rng)
	if len(sets) != 50 {
		t.Fatalf("got %d sets", len(sets))
	}
	sawMulti := false
	for i, set := range sets {
		if len(set) < 1 || len(set) > 3 {
			t.Errorf("node %d has %d interests, want 1..3", i, len(set))
		}
		if len(set) > 1 {
			sawMulti = true
		}
		seen := make(map[Key]struct{})
		for _, k := range set {
			if _, dup := seen[k]; dup {
				t.Errorf("node %d has duplicate interest %q", i, k)
			}
			seen[k] = struct{}{}
		}
	}
	if !sawMulti {
		t.Error("no node received multiple interests")
	}
	// perNode below 1 clamps to 1.
	for _, set := range InterestSets(ks, 5, 0, rng) {
		if len(set) != 1 {
			t.Errorf("clamped set has %d interests", len(set))
		}
	}
}

func TestAttachExtraKeys(t *testing.T) {
	ks := NewTrendKeySet()
	rng := rand.New(rand.NewSource(7))
	rates := []float64{5}
	msgs := GenerateMessages(ks, rates, 100*time.Hour, rng)
	msgs = AttachExtraKeys(msgs, ks, 2, rng)
	sawExtra := false
	for _, m := range msgs {
		if len(m.Extra) > 2 {
			t.Errorf("message %d has %d extra keys", m.ID, len(m.Extra))
		}
		if len(m.Extra) > 0 {
			sawExtra = true
		}
		seen := map[Key]struct{}{m.Key: {}}
		for _, k := range m.Extra {
			if _, dup := seen[k]; dup {
				t.Errorf("message %d repeats key %q", m.ID, k)
			}
			seen[k] = struct{}{}
		}
	}
	if !sawExtra {
		t.Error("no message received extra keys")
	}
	// extraPerMsg below 1 is a no-op.
	before := len(msgs[0].Extra)
	msgs = AttachExtraKeys(msgs, ks, 0, rng)
	if len(msgs[0].Extra) != before {
		t.Error("extraPerMsg=0 mutated messages")
	}
}

func TestAttachExtraKeysTinyPopulation(t *testing.T) {
	ks, err := NewKeySet([]Key{"only", "other"}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	msgs := []Message{{ID: 0, Key: "only"}}
	msgs = AttachExtraKeys(msgs, ks, 5, rng)
	if len(msgs[0].Extra) > 1 {
		t.Errorf("extra keys %v exceed the population", msgs[0].Extra)
	}
}
