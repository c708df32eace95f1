package tcbf

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func testConfig() Config {
	return Config{M: 256, K: 4, Initial: 10, DecayPerMinute: 1}
}

func mustInsert(t *testing.T, f *Filter, key string, now time.Duration) {
	t.Helper()
	if err := f.Insert(key, now); err != nil {
		t.Fatalf("insert %q: %v", key, err)
	}
}

func mustContains(t *testing.T, f *Filter, key string, now time.Duration) bool {
	t.Helper()
	ok, err := f.Contains(key, now)
	if err != nil {
		t.Fatalf("contains %q: %v", key, err)
	}
	return ok
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{name: "paper eval", cfg: Config{M: 256, K: 4, Initial: 10, DecayPerMinute: 0.138}},
		{name: "no decay", cfg: Config{M: 64, K: 2, Initial: 1, DecayPerMinute: 0}},
		{name: "zero m", cfg: Config{M: 0, K: 4, Initial: 10}, wantErr: true},
		{name: "zero k", cfg: Config{M: 64, K: 0, Initial: 10}, wantErr: true},
		{name: "zero initial", cfg: Config{M: 64, K: 2, Initial: 0}, wantErr: true},
		{name: "negative initial", cfg: Config{M: 64, K: 2, Initial: -3}, wantErr: true},
		{name: "negative df", cfg: Config{M: 64, K: 2, Initial: 1, DecayPerMinute: -1}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.cfg, 0)
			if (err != nil) != tt.wantErr {
				t.Errorf("New() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestInsertSetsInitialValue(t *testing.T) {
	f := MustNew(testConfig(), 0)
	mustInsert(t, f, "k0", 0)
	min, err := f.MinCounter("k0", 0)
	if err != nil {
		t.Fatal(err)
	}
	if min != 10 {
		t.Errorf("MinCounter = %g, want initial 10", min)
	}
}

func TestInsertDoesNotBumpExistingCounters(t *testing.T) {
	// "If the counter has already been set, we do not change its value."
	cfg := Config{M: 4, K: 2, Initial: 10, DecayPerMinute: 1}
	f := MustNew(cfg, 0)
	mustInsert(t, f, "a", 0)
	if err := f.Advance(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// Re-inserting the same key after decay must NOT restore the counters:
	// its bits are still set (counter 5), so they are left unchanged.
	mustInsert(t, f, "a", 5*time.Minute)
	min, err := f.MinCounter("a", 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if min != 5 {
		t.Errorf("MinCounter after re-insert = %g, want 5 (unchanged)", min)
	}
}

func TestDecayRemovesKeys(t *testing.T) {
	f := MustNew(testConfig(), 0) // C=10, DF=1/min
	mustInsert(t, f, "ephemeral", 0)
	if !mustContains(t, f, "ephemeral", 9*time.Minute) {
		t.Fatal("key decayed too early (9 min, lifetime 10 min)")
	}
	if mustContains(t, f, "ephemeral", 11*time.Minute) {
		t.Error("key survived past its decay lifetime")
	}
}

func TestDecayExactBoundary(t *testing.T) {
	f := MustNew(testConfig(), 0)
	mustInsert(t, f, "k", 0)
	// At exactly C/DF minutes the counter hits zero: removed.
	if mustContains(t, f, "k", 10*time.Minute) {
		t.Error("counter should reach zero at exactly 10 minutes")
	}
}

func TestZeroDFNeverDecays(t *testing.T) {
	cfg := testConfig()
	cfg.DecayPerMinute = 0
	f := MustNew(cfg, 0)
	mustInsert(t, f, "forever", 0)
	if !mustContains(t, f, "forever", 1000*time.Hour) {
		t.Error("DF=0 filter lost a key")
	}
}

// TestClockSkewRejected calls every temporal entry point of each shape with
// a clock earlier than the filter's: each must refuse with ErrClockSkew and
// leave both filters as they were, every partition's counters, clock,
// merged flag and DF included (a retune that drops the error would still
// apply it). Besides the shapes built at one clock, a bare filter's merge
// peer is put ahead alone, and two h=3 cases put one partition ahead of
// the others, as an insert does to its key's partition: the filter's own,
// where every call must refuse, and the merge peer's, where both merges
// must. DecodeInto is left out: it restarts the filter's clock at its
// now.
func TestClockSkewRejected(t *testing.T) {
	pre := Precompute("x")
	calls := []struct {
		name string
		call func(f, peer subject, now time.Duration) error
	}{
		{"insert", func(f, _ subject, now time.Duration) error { return f.insert([]string{"x"}, now) }},
		{"InsertPre", func(f, _ subject, now time.Duration) error { return f.InsertPre(pre, now) }},
		{"Advance", func(f, _ subject, now time.Duration) error { return f.Advance(now) }},
		{"SetDecayFactor", func(f, _ subject, now time.Duration) error { return f.SetDecayFactor(2, now) }},
		{"AMerge", func(f, peer subject, now time.Duration) error { return f.merge(peer, now, true) }},
		{"MMerge", func(f, peer subject, now time.Duration) error { return f.merge(peer, now, false) }},
		{"ContainsPre", func(f, _ subject, now time.Duration) error { _, err := f.ContainsPre(pre, now); return err }},
		{"MinCounterPre", func(f, _ subject, now time.Duration) error { _, err := f.MinCounterPre(pre, now); return err }},
	}
	// whole puts every partition's clock ahead of the call; partOfX only
	// the partition "x" routes to, which at h=3 is not partition 0, so a
	// partition-by-partition loop meets it after changing another.
	whole := func(s subject) error { return s.Advance(time.Hour) }
	partOfX := func(s subject) error {
		parts := s.partitions()
		i := int(pre.route % uint32(len(parts)))
		if i == 0 {
			t.Fatal("x routes to partition 0; skew a partition a partition-wise loop reaches later")
		}
		return parts[i].Advance(time.Hour)
	}
	type skewCase struct {
		name             string
		h                int
		selfAhead        func(subject) error
		peerAhead        func(subject) error
		refusesOnlyMerge bool
	}
	var cases []skewCase
	for _, sh := range shapes {
		cases = append(cases, skewCase{name: sh.name, h: sh.h, selfAhead: whole, peerAhead: whole})
	}
	cases = append(cases,
		skewCase{name: "filter-peer-ahead", h: 0, peerAhead: whole, refusesOnlyMerge: true},
		skewCase{name: "part3-self-partition-ahead", h: 3, selfAhead: partOfX},
		skewCase{name: "part3-peer-partition-ahead", h: 3, peerAhead: partOfX, refusesOnlyMerge: true})
	for _, sc := range cases {
		for _, c := range calls {
			if sc.refusesOnlyMerge && c.name != "AMerge" && c.name != "MMerge" {
				continue
			}
			t.Run(sc.name+"/"+c.name, func(t *testing.T) {
				f, peer := newSubject(testConfig(), sc.h, 0), newSubject(testConfig(), sc.h, 0)
				keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
				if err := f.insert(keys[:4], 0); err != nil {
					t.Fatal(err)
				}
				if err := peer.insert(keys[4:], 0); err != nil {
					t.Fatal(err)
				}
				for _, ahead := range []struct {
					s   subject
					fwd func(subject) error
				}{{f, sc.selfAhead}, {peer, sc.peerAhead}} {
					if ahead.fwd == nil {
						continue
					}
					if err := ahead.fwd(ahead.s); err != nil {
						t.Fatal(err)
					}
				}
				fBefore, peerBefore := statesOf(f), statesOf(peer)
				if err := c.call(f, peer, 30*time.Minute); !errors.Is(err, ErrClockSkew) {
					t.Errorf("error = %v, want ErrClockSkew", err)
				}
				if got, want := f.Config().DecayPerMinute, testConfig().DecayPerMinute; got != want {
					t.Errorf("DF = %g after a refused call, want %g", got, want)
				}
				if got := statesOf(f); !reflect.DeepEqual(got, fBefore) {
					t.Errorf("refused call changed the filter:\n got %+v\nwant %+v", got, fBefore)
				}
				if got := statesOf(peer); !reflect.DeepEqual(got, peerBefore) {
					t.Errorf("refused call changed the peer:\n got %+v\nwant %+v", got, peerBefore)
				}
			})
		}
	}
}

// filterState is one partition's full state: counters, clock, pending
// decay, DF and merged flag.
type filterState struct {
	words                   []uint64
	cfg                     Config
	last                    time.Duration
	merged                  bool
	tickNanos, pendingNanos int64
	pendingTicks            uint32
}

// statesOf snapshots every partition of s.
func statesOf(s subject) []filterState {
	var out []filterState
	for _, f := range s.partitions() {
		out = append(out, filterState{slices.Clone(f.words), f.cfg, f.last, f.merged, f.tickNanos, f.pendingNanos, f.pendingTicks})
	}
	return out
}

func TestInsertIntoMergedFilterFails(t *testing.T) {
	a := MustNew(testConfig(), 0)
	b := MustNew(testConfig(), 0)
	mustInsert(t, b, "k", 0)
	if err := a.AMerge(b, 0); err != nil {
		t.Fatal(err)
	}
	if !a.Merged() {
		t.Fatal("A-merge target not marked merged")
	}
	err := a.Insert("new", 0)
	if !errors.Is(err, ErrMerged) {
		t.Errorf("insert into merged filter: error = %v, want ErrMerged", err)
	}
	// The documented workaround: insert into a fresh filter, then merge.
	fresh := MustNew(testConfig(), 0)
	mustInsert(t, fresh, "new", 0)
	if err := a.AMerge(fresh, 0); err != nil {
		t.Fatal(err)
	}
	if !mustContains(t, a, "new", 0) {
		t.Error("workaround failed to add key")
	}
}

func TestAMergeSumsCounters(t *testing.T) {
	// Fig. 3: A-merge of two filters holding the same key doubles the
	// counters; that is the reinforcement mechanism.
	a := MustNew(testConfig(), 0)
	b := MustNew(testConfig(), 0)
	mustInsert(t, a, "k", 0)
	mustInsert(t, b, "k", 0)
	if err := a.AMerge(b, 0); err != nil {
		t.Fatal(err)
	}
	min, err := a.MinCounter("k", 0)
	if err != nil {
		t.Fatal(err)
	}
	if min != 20 {
		t.Errorf("A-merged counter = %g, want 20", min)
	}
}

func TestMMergeTakesMax(t *testing.T) {
	// Fig. 3: M-merge keeps the max counter, preventing bogus inflation.
	a := MustNew(testConfig(), 0)
	b := MustNew(testConfig(), 0)
	mustInsert(t, a, "k", 0)
	if err := a.Advance(3 * time.Minute); err != nil { // a's counter: 7
		t.Fatal(err)
	}
	mustInsert(t, b, "k", 3*time.Minute) // b's counter: 10
	if err := a.MMerge(b, 3*time.Minute); err != nil {
		t.Fatal(err)
	}
	min, err := a.MinCounter("k", 3*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if min != 10 {
		t.Errorf("M-merged counter = %g, want max 10", min)
	}
	if ok, err := b.Contains("k", 3*time.Minute); err != nil || !ok || b.Merged() {
		t.Error("M-merge modified its source filter")
	}
}

func TestMMergeIdempotent(t *testing.T) {
	a := MustNew(testConfig(), 0)
	b := MustNew(testConfig(), 0)
	mustInsert(t, b, "k0", 0)
	mustInsert(t, b, "k1", 0)
	if err := a.MMerge(b, 0); err != nil {
		t.Fatal(err)
	}
	first := snapshot(a)
	if err := a.MMerge(b, 0); err != nil {
		t.Fatal(err)
	}
	second := snapshot(a)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("M-merge not idempotent at bit %d: %g vs %g", i, first[i], second[i])
		}
	}
}

func TestBogusCounterScenario(t *testing.T) {
	// Fig. 6: brokers B and C meet each other frequently but meet consumer
	// A only once. With M-merge, repeated broker meetings must NOT inflate
	// A's interest counters; with A-merge they would (the bug the paper
	// avoids). We verify both behaviours.
	now := time.Duration(0)
	cfg := testConfig()

	genuine := func() *Filter {
		g := MustNew(cfg, now)
		if err := g.Insert("A-interest", now); err != nil {
			t.Fatal(err)
		}
		return g
	}

	// M-merge path (what B-SUB does between brokers).
	bRelay := MustNew(cfg, now)
	cRelay := MustNew(cfg, now)
	if err := bRelay.AMerge(genuine(), now); err != nil { // B meets A once
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ { // B and C meet repeatedly
		if err := cRelay.MMerge(bRelay, now); err != nil {
			t.Fatal(err)
		}
		if err := bRelay.MMerge(cRelay, now); err != nil {
			t.Fatal(err)
		}
	}
	mMin, err := bRelay.MinCounter("A-interest", now)
	if err != nil {
		t.Fatal(err)
	}
	if mMin > cfg.Initial {
		t.Errorf("M-merge inflated counter to %g (> initial %g): bogus counters", mMin, cfg.Initial)
	}

	// A-merge path (what the paper warns against).
	bRelay2 := MustNew(cfg, now)
	cRelay2 := MustNew(cfg, now)
	if err := bRelay2.AMerge(genuine(), now); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := cRelay2.AMerge(bRelay2, now); err != nil {
			t.Fatal(err)
		}
		if err := bRelay2.AMerge(cRelay2, now); err != nil {
			t.Fatal(err)
		}
	}
	aMin, err := bRelay2.MinCounter("A-interest", now)
	if err != nil {
		t.Fatal(err)
	}
	if aMin <= cfg.Initial {
		t.Errorf("A-merge between brokers should have produced bogus counters, got %g", aMin)
	}
}

func TestReinforcement(t *testing.T) {
	// Section V-C: each time a consumer meets the same broker, A-merging
	// the genuine filter raises the broker's counters for those interests.
	cfg := testConfig()
	relay := MustNew(cfg, 0)
	for meet := 1; meet <= 3; meet++ {
		now := time.Duration(meet) * time.Minute
		g := MustNew(cfg, now)
		if err := g.Insert("news", now); err != nil {
			t.Fatal(err)
		}
		if err := relay.AMerge(g, now); err != nil {
			t.Fatal(err)
		}
	}
	// After 3 meetings with DF=1/min over 2 minutes elapsed: roughly
	// 10-2 + 10-1 + 10 = 27; must exceed a single insertion's 10.
	min, err := relay.MinCounter("news", 3*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if min <= cfg.Initial {
		t.Errorf("reinforced counter %g not above initial %g", min, cfg.Initial)
	}
}

func TestPreference(t *testing.T) {
	cfg := testConfig()
	now := time.Duration(0)
	peer := MustNew(cfg, now)
	self := MustNew(cfg, now)

	// Key absent from self (g=0): preference is peer's min counter.
	mustInsert(t, peer, "k", now)
	p, err := Preference("k", peer, self, now)
	if err != nil {
		t.Fatal(err)
	}
	if p != 10 {
		t.Errorf("preference with g=0: got %g, want 10", p)
	}

	// Key in both: preference is f-g.
	g := MustNew(cfg, now)
	mustInsert(t, g, "k", now)
	if err := self.AMerge(g, now); err != nil {
		t.Fatal(err)
	}
	g2 := MustNew(cfg, now)
	mustInsert(t, g2, "k", now)
	if err := peer.AMerge(g2, now); err != nil { // peer now at 20
		t.Fatal(err)
	}
	p, err = Preference("k", peer, self, now)
	if err != nil {
		t.Fatal(err)
	}
	if p != 10 {
		t.Errorf("preference f-g: got %g, want 20-10=10", p)
	}

	// Key absent from both: preference 0.
	p, err = Preference("missing", peer, self, now)
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Errorf("preference of absent key: got %g, want 0", p)
	}
}

func TestGeometryMismatch(t *testing.T) {
	a := MustNew(Config{M: 256, K: 4, Initial: 10}, 0)
	for _, g := range []struct{ m, k int }{{128, 4}, {256, 3}, {64, 2}} {
		b := MustNew(Config{M: g.m, K: g.k, Initial: 10}, 0)
		if err := a.AMerge(b, 0); !errors.Is(err, ErrGeometry) {
			t.Errorf("A-merge with (%d,%d): error = %v, want ErrGeometry", g.m, g.k, err)
		}
		if err := a.MMerge(b, 0); !errors.Is(err, ErrGeometry) {
			t.Errorf("M-merge with (%d,%d): error = %v, want ErrGeometry", g.m, g.k, err)
		}
	}
}

func TestFigure4Scenario(t *testing.T) {
	// Fig. 4: keys inserted at different times decay; with C=10 and
	// DF=1/time-unit, k0 inserted (and re-inserted) latest survives longest.
	// We model: k0 at t=0 and reinforced via A-merge at t=9; k1 at t=0;
	// k2 at t=2. After t=19 only k0 remains.
	cfg := Config{M: 256, K: 2, Initial: 10, DecayPerMinute: 1}
	f := MustNew(cfg, 0)
	mustInsert(t, f, "k0", 0)
	mustInsert(t, f, "k1", 0)
	mustInsert(t, f, "k2", 2*time.Minute)

	refresh := MustNew(cfg, 9*time.Minute)
	mustInsert(t, refresh, "k0", 9*time.Minute)
	if err := f.AMerge(refresh, 9*time.Minute); err != nil {
		t.Fatal(err)
	}

	at := 15 * time.Minute
	if !mustContains(t, f, "k0", at) {
		t.Error("k0 should survive at t=15 (reinforced)")
	}
	if mustContains(t, f, "k1", at) {
		t.Error("k1 should have decayed by t=15")
	}
	if mustContains(t, f, "k2", at) {
		t.Error("k2 should have decayed by t=15")
	}
}

func TestCloneIndependence(t *testing.T) {
	f := MustNew(testConfig(), 0)
	mustInsert(t, f, "orig", 0)
	c := f.Clone()
	if err := c.Advance(20 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !mustContains(t, f, "orig", 0) {
		t.Error("advancing clone decayed the original")
	}
	if mustContains(t, c, "orig", 20*time.Minute) {
		t.Error("clone failed to decay")
	}
}

func TestSetDecayFactor(t *testing.T) {
	f := MustNew(testConfig(), 0) // DF=1
	mustInsert(t, f, "k", 0)
	if err := f.SetDecayFactor(0.1, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	// 5 minutes at DF=1 leaves counter 5; then DF=0.1 for 40 more minutes
	// leaves 1: still present.
	if !mustContains(t, f, "k", 45*time.Minute) {
		t.Error("key decayed despite lowered DF")
	}
	if err := f.SetDecayFactor(-1, 45*time.Minute); err == nil {
		t.Error("negative DF accepted")
	}
}

func TestResetClearsState(t *testing.T) {
	f := MustNew(testConfig(), 0)
	other := MustNew(testConfig(), 0)
	mustInsert(t, other, "k", 0)
	if err := f.AMerge(other, 0); err != nil {
		t.Fatal(err)
	}
	f.Reset(time.Minute)
	if f.SetBits() != 0 {
		t.Error("reset left set bits")
	}
	if f.Merged() {
		t.Error("reset left merged flag")
	}
	if err := f.Insert("again", time.Minute); err != nil {
		t.Errorf("insert after reset: %v", err)
	}
}

// snapshot lists the counters of each filter in turn.
func snapshot(fs ...*Filter) []float64 {
	var out []float64
	for _, f := range fs {
		for p := 0; p < f.M(); p++ {
			out = append(out, f.Counter(p))
		}
	}
	return out
}

// --- Properties -----------------------------------------------------------

// Property: no false negatives while counters are alive, at every shape.
func TestNoFalseNegativesProperty(t *testing.T) {
	cfg := Config{M: 512, K: 4, Initial: 10, DecayPerMinute: 1}
	forShapes(t, func(t *testing.T, h int) {
		prop := func(keys []string) bool {
			f := newSubject(cfg, h, 0)
			if f.insert(keys, 0) != nil {
				return false
			}
			// Initial=10, DF=1/min: every key outlives its tenth minute.
			for _, now := range []time.Duration{0, 10*time.Minute - time.Second} {
				for _, k := range keys {
					ok, err := f.contains(k, now)
					if err != nil || !ok {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Error(err)
		}
	})
}

// Property: M-merge is commutative on counters.
func TestMMergeCommutativeProperty(t *testing.T) { mergeCommutes(t, false) }

// Property: A-merge is commutative on counters.
func TestAMergeCommutativeProperty(t *testing.T) { mergeCommutes(t, true) }

// mergeCommutes checks, at every shape, that merging B into A leaves the
// same counters as merging A into B.
func mergeCommutes(t *testing.T, additive bool) {
	cfg := Config{M: 256, K: 4, Initial: 10, DecayPerMinute: 1}
	forShapes(t, func(t *testing.T, h int) {
		prop := func(ka, kb []string) bool {
			build := func(keys []string) subject {
				f := newSubject(cfg, h, 0)
				_ = f.insert(keys, 0)
				return f
			}
			ab, ba := build(ka), build(kb)
			if ab.merge(build(kb), 0, additive) != nil || ba.merge(build(ka), 0, additive) != nil {
				return false
			}
			return slices.Equal(snapshot(ab.partitions()...), snapshot(ba.partitions()...))
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Error(err)
		}
	})
}

// Property: decay is monotone — counters never increase under Advance,
// decaying in two steps equals decaying in one, and every counter is zero
// once its lifetime Initial/DF has passed.
func TestDecayMonotoneAndComposableProperty(t *testing.T) {
	cfg := Config{M: 256, K: 4, Initial: 100, DecayPerMinute: 0.5}
	const lifetime = 200 * time.Minute
	forShapes(t, func(t *testing.T, h int) {
		prop := func(keys []string, aMin, bMin uint8) bool {
			one, two := newSubject(cfg, h, 0), newSubject(cfg, h, 0)
			if one.insert(keys, 0) != nil || two.insert(keys, 0) != nil {
				return false
			}
			a := time.Duration(aMin) * time.Minute
			b := a + time.Duration(bMin)*time.Minute
			before := snapshot(one.partitions()...)
			if one.Advance(b) != nil {
				return false
			}
			if two.Advance(a) != nil || two.Advance(b) != nil {
				return false
			}
			sOne, sTwo := snapshot(one.partitions()...), snapshot(two.partitions()...)
			for i := range sOne {
				if sOne[i] > before[i] {
					return false // grew under decay
				}
				if math.Abs(sOne[i]-sTwo[i]) > 1e-6 {
					return false // not composable
				}
				if b >= lifetime && sOne[i] != 0 {
					return false // outlived its lifetime
				}
			}
			return true
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Error(err)
		}
	})
}

// TestPropertyWireRoundTrip: at every shape, a filter holding part of the
// key universe, with 45 s of decay pending, keeps exactly its membership
// across the wire in both counter modes, lands every key's CountersFull
// counter within the 1-byte quantization (max/255 plus one tick, max
// bounded by the lane ceiling), and the decoded copy refuses a genuine
// insert.
func TestPropertyWireRoundTrip(t *testing.T) {
	forShapes(t, func(t *testing.T, h int) {
		cfg := tapeConfig(h)
		f := newSubject(cfg, h, 0)
		if err := f.insert(modelKeys[:8], 0); err != nil {
			t.Fatal(err)
		}
		now := 45 * time.Second
		tol := (float64(refLaneMax)/255 + 1) * (cfg.Initial / refInitTicks)
		for _, mode := range []CounterMode{CountersNone, CountersFull} {
			data, err := f.Encode(mode)
			if err != nil {
				t.Fatalf("encode mode %d: %v", mode, err)
			}
			cp, err := f.decode(data, now)
			if err != nil {
				t.Fatalf("decode mode %d: %v", mode, err)
			}
			for _, k := range modelKeys {
				was, err1 := f.contains(k, now)
				is, err2 := cp.contains(k, now)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if was != is {
					t.Errorf("key %q membership %v -> %v across the wire (mode %d)", k, was, is, mode)
				}
				if mode != CountersFull {
					continue
				}
				orig, err1 := f.minCounter(k, now)
				got, err2 := cp.minCounter(k, now)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if math.Abs(orig-got) > tol {
					t.Errorf("key %q counter %g -> %g beyond quantization tolerance %g", k, orig, got, tol)
				}
			}
			if err := cp.insert([]string{"genuine-after-decode"}, now); !errors.Is(err, ErrMerged) {
				t.Errorf("decoded filter accepted a genuine insert (mode %d): err %v", mode, err)
			}
		}
	})
}

// Property: merged filter contains everything either operand contained,
// for both merge flavours.
func TestMergeSupersetProperty(t *testing.T) {
	prop := func(ka, kb []string, useMax bool) bool {
		cfg := Config{M: 512, K: 4, Initial: 10, DecayPerMinute: 1}
		a := MustNew(cfg, 0)
		b := MustNew(cfg, 0)
		for _, k := range ka {
			_ = a.Insert(k, 0)
		}
		for _, k := range kb {
			_ = b.Insert(k, 0)
		}
		var err error
		if useMax {
			err = a.MMerge(b, 0)
		} else {
			err = a.AMerge(b, 0)
		}
		if err != nil {
			return false
		}
		for _, k := range append(ka, kb...) {
			ok, cErr := a.Contains(k, 0)
			if cErr != nil || !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	f := MustNew(Config{M: 256, K: 4, Initial: 10, DecayPerMinute: 1}, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Reset(0)
		_ = f.Insert("openwebawards", 0)
	}
}

func BenchmarkAMerge(b *testing.B) {
	cfg := Config{M: 256, K: 4, Initial: 10, DecayPerMinute: 1}
	src := MustNew(cfg, 0)
	for i := 0; i < 10; i++ {
		_ = src.Insert(fmt.Sprintf("k%d", i), 0)
	}
	dst := MustNew(cfg, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = dst.AMerge(src, 0)
	}
}

func BenchmarkPreferentialQuery(b *testing.B) {
	cfg := Config{M: 256, K: 4, Initial: 10, DecayPerMinute: 1}
	peer := MustNew(cfg, 0)
	self := MustNew(cfg, 0)
	_ = peer.Insert("hot-topic", 0)
	_ = self.Insert("hot-topic", 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = Preference("hot-topic", peer, self, 0)
	}
}
