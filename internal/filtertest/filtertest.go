// Package filtertest is the differential conformance harness for the
// relay filter the engine holds, the packed partitioned TCBF
// (*tcbf.Partitioned). It lifts the TCBF's map-of-counters reference
// model (internal/tcbf's model test) from positions to keys and from one
// filter to a partitioned one: a deliberately naive key-level model
// tracks every key's membership strength in integer ticks — insert
// adopts the filter's own observed post-insert minimum counter (the one
// commitment a Bloom-family insert makes: collider-held positions are
// not refreshed, so a fully covered key inherits the colliders' shorter
// lifetime, while an uncovered key gets exactly 1024 ticks), decay
// erodes whole ticks eagerly with a nanosecond remainder, A-merge
// saturate-adds, M-merge takes the max — and a randomized op tape drives
// a filter pair and the model pair in lockstep, checking after every op:
//
//   - no false negatives: a key whose true counter is still comfortably
//     positive must be reported present.
//   - exact counters: on keys proven collision-free (by set-bit
//     additivity probing through the filter's own API), MinCounter must
//     equal the model tick-for-tick, and the preferential query must
//     equal the Section IV-A formula on model counters.
//
// The filter is also held to the structural invariants:
// insert must fail with tcbf.ErrMerged exactly when the model is merged;
// MinCounter must be positive exactly when Contains is true; merges
// commute; and Encode→DecodeInto must reproduce membership exactly and
// counters to within the wire format's declared precision —
// CountersFull quantizes each counter to one byte relative to the
// filter's maximum (Section VI-C), so a round trip may move a counter by
// up to max/255 plus one tick, and the clamp that keeps set bits set can
// lift a near-zero counter by the same amount. Decoded state must also
// reject further inserts (the uniform merged-state contract).
//
// Two tolerances keep the checks honest rather than lenient. Collisions
// can only ever inflate a key's filter counters above its true counter,
// so a filter value below the model is a bug — but only on collision-free
// keys is equality required. And membership checks grant a one-tick
// boundary allowance for a DF retune (see slack); a real false-negative
// bug (a cleared or lost key) fails by hundreds of ticks, not one.
package filtertest

import (
	"errors"
	"math"
	"testing"
	"time"

	"bsub/internal/tcbf"
)

// Model constants restating the packed representation's documented
// fixed-point scheme independently: Insert writes 1024 ticks, a counter
// saturates at 32767 ticks.
const (
	refInitTicks = 1024
	refLaneMax   = 32767
)

// refTickNanos restates the tick duration longhand: the nanoseconds DF
// takes to erode one tick's worth (Initial/1024) of counter value.
func refTickNanos(initial, perMinute float64) int64 {
	if perMinute <= 0 {
		return 0
	}
	quantum := initial / refInitTicks
	t := math.Round(quantum / perMinute * float64(time.Minute))
	if t < 1 {
		return 1
	}
	if t >= float64(math.MaxInt64) {
		return math.MaxInt64
	}
	return int64(t)
}

// refModel is the key-level reference: each key's true counter assuming
// no hash collisions ever happen. Filters can only look better than this
// (collisions inflate counters), never worse.
type refModel struct {
	cfg       tcbf.Config
	c         map[string]uint32 // key → counter ticks
	last      time.Duration
	merged    bool
	tickNanos int64
	remNanos  int64
}

func newRefModel(cfg tcbf.Config, now time.Duration) *refModel {
	return &refModel{
		cfg:       cfg,
		c:         make(map[string]uint32),
		last:      now,
		tickNanos: refTickNanos(cfg.Initial, cfg.DecayPerMinute),
	}
}

func (r *refModel) advance(now time.Duration) {
	elapsed := now - r.last
	r.last = now
	if elapsed == 0 || r.tickNanos == 0 {
		return
	}
	r.remNanos += int64(elapsed)
	if r.remNanos < 0 {
		r.remNanos = math.MaxInt64
	}
	ticks := uint64(r.remNanos / r.tickNanos)
	r.remNanos %= r.tickNanos
	if ticks == 0 {
		return
	}
	if ticks > refLaneMax {
		ticks = refLaneMax
	}
	for k, c := range r.c {
		if uint64(c) <= ticks {
			delete(r.c, k)
		} else {
			r.c[k] = c - uint32(ticks)
		}
	}
}

// insertGate advances the model and mirrors the merged-state insert
// rejection; on success the caller records the outcome per key with
// adopt.
func (r *refModel) insertGate(now time.Duration) error {
	if r.merged {
		return tcbf.ErrMerged
	}
	r.advance(now)
	return nil
}

// adopt records the filter's own post-insert minimum counter for key.
// That observation is the only membership commitment a Bloom-family
// insert makes: positions already holding collider counters are not
// refreshed, so a key whose positions are fully covered by other keys'
// bits inherits the colliders' remaining lifetime instead of a fresh
// refInitTicks — and for an uncovered key the adopted value is exactly
// refInitTicks. From the adoption on, decay erodes it deterministically
// and merges may only raise it, which is what the membership laws
// assert.
func (r *refModel) adopt(key string, ticks uint32) {
	if ticks == 0 {
		delete(r.c, key)
		return
	}
	if ticks > refLaneMax {
		ticks = refLaneMax
	}
	r.c[key] = ticks
}

func (r *refModel) merge(other *refModel, now time.Duration, additive bool) {
	r.advance(now)
	other.advance(now)
	for k, c := range other.c {
		switch {
		case r.c[k] == 0:
			r.c[k] = c
		case additive:
			sum := uint64(r.c[k]) + uint64(c)
			if sum > refLaneMax {
				sum = refLaneMax
			}
			r.c[k] = uint32(sum)
		case c > r.c[k]:
			r.c[k] = c
		}
	}
	r.merged = true
}

func (r *refModel) ticks(key string, now time.Duration) uint32 {
	r.advance(now)
	return r.c[key]
}

func (r *refModel) counter(key string, now time.Duration) float64 {
	return float64(r.ticks(key, now)) * (r.cfg.Initial / refInitTicks)
}

func (r *refModel) setDF(perMinute float64, now time.Duration) {
	r.advance(now)
	r.cfg.DecayPerMinute = perMinute
	r.tickNanos = refTickNanos(r.cfg.Initial, perMinute)
}

func (r *refModel) reset(now time.Duration) {
	r.c = make(map[string]uint32)
	r.last = now
	r.merged = false
	r.remNanos = 0
}

// Keys is the op-tape key universe. Small enough that the fuzzer can
// express every key, large enough that M=256/K=4 leaves both some
// colliding and some provably collision-free keys.
var Keys = []string{
	"alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
	"golf", "hotel", "india", "juliet", "kilo", "lima",
}

// IsolatedKeys returns the subset of Keys sharing no filter position with
// any other universe key, probed through the filter's own set-bit
// accounting: a fresh filter holding every key except k gains exactly k's
// solo set-bit count when k is added iff k's positions are untouched by
// the rest. Only on these keys can the filter be held to exact counter
// equality with the key-level model.
func IsolatedKeys(t *testing.T, cfg tcbf.Config, partitions int) map[string]bool {
	t.Helper()
	solo := make(map[string]int, len(Keys))
	for _, k := range Keys {
		f := tcbf.MustNewPartitioned(cfg, partitions, 0)
		if err := f.InsertPre(tcbf.Precompute(k), 0); err != nil {
			t.Fatalf("isolation probe insert %q: %v", k, err)
		}
		solo[k] = f.SetBits()
	}
	isolated := make(map[string]bool)
	for _, k := range Keys {
		f := tcbf.MustNewPartitioned(cfg, partitions, 0)
		for _, other := range Keys {
			if other != k {
				if err := f.InsertPre(tcbf.Precompute(other), 0); err != nil {
					t.Fatalf("isolation probe insert %q: %v", other, err)
				}
			}
		}
		rest := f.SetBits()
		if err := f.InsertPre(tcbf.Precompute(k), 0); err != nil {
			t.Fatalf("isolation probe insert %q: %v", k, err)
		}
		if f.SetBits() == rest+solo[k] {
			isolated[k] = true
		}
	}
	return isolated
}

// Subject names one partition count under conformance test.
type Subject struct {
	Name       string
	Partitions int
}

// state drives one filter pair and one model pair in lockstep.
type state struct {
	t        *testing.T
	sub      Subject
	cfg      tcbf.Config
	quantum  float64
	f1, f2   *tcbf.Partitioned
	scratch  *tcbf.Partitioned
	r1, r2   *refModel
	isolated map[string]bool
	now      time.Duration
}

func newState(t *testing.T, sub Subject, cfg tcbf.Config) *state {
	t.Helper()
	return &state{
		t:        t,
		sub:      sub,
		cfg:      cfg,
		quantum:  cfg.Initial / refInitTicks,
		f1:       tcbf.MustNewPartitioned(cfg, sub.Partitions, 0),
		f2:       tcbf.MustNewPartitioned(cfg, sub.Partitions, 0),
		scratch:  tcbf.MustNewPartitioned(cfg, sub.Partitions, 0),
		r1:       newRefModel(cfg, 0),
		r2:       newRefModel(cfg, 0),
		isolated: IsolatedKeys(t, cfg, sub.Partitions),
	}
}

// fail reports a law violation, naming the subject and the property.
func (st *state) fail(property, format string, args ...any) {
	st.t.Helper()
	st.t.Fatalf("subject=%s property=%s: "+format,
		append([]any{st.sub.Name, property}, args...)...)
}

// slack is the membership boundary allowance. The one operation that
// changes the tick length mid-life is a DF retune: filter and model both
// bank the elapsed time at the old length and carry the sub-tick
// remainder into the new one, so they agree on every key's expiry, and
// the suite and fuzz corpus pass with no allowance at all. One tick
// (0.1% of a single insert's 1024) absorbs a rounding difference at a
// retune boundary without masking a lost key.
func (st *state) slack() float64 { return st.quantum }

// checkKey holds one filter/model pair to the laws for one key.
func (st *state) checkKey(tag, name string, f *tcbf.Partitioned, r *refModel, key string) {
	st.t.Helper()
	pre := tcbf.Precompute(key)
	has, err := f.ContainsPre(pre, st.now)
	if err != nil {
		st.fail("query", "%s: %s contains %q: %v", tag, name, key, err)
	}
	minC, err := f.MinCounterPre(pre, st.now)
	if err != nil {
		st.fail("query", "%s: %s min counter %q: %v", tag, name, key, err)
	}
	if (minC > 0) != has {
		st.fail("counter-membership-consistency",
			"%s: %s key %q: MinCounter %v but Contains %v", tag, name, key, minC, has)
	}
	ref := r.counter(key, st.now)
	if !has && ref > st.slack() {
		st.fail("no-false-negatives",
			"%s: %s key %q absent with true counter %v", tag, name, key, ref)
	}
	if st.isolated[key] && minC != ref {
		st.fail("exact-counters",
			"%s: %s key %q min counter %v, model %v", tag, name, key, minC, ref)
	}
}

// checkAll sweeps the whole key universe on both pairs after an op.
func (st *state) checkAll(tag string) {
	st.t.Helper()
	for _, key := range Keys {
		st.checkKey(tag, "f1", st.f1, st.r1, key)
		st.checkKey(tag, "f2", st.f2, st.r2, key)
	}
}

// step applies one (op, arg) tape pair to filters and models in lockstep.
func (st *state) step(op, arg byte) {
	st.t.Helper()
	key := Keys[int(arg)%len(Keys)]
	switch op % 12 {
	case 0, 1: // insert (single or batch) into f1 / f2
		f, r := st.f1, st.r1
		if op%12 == 1 {
			f, r = st.f2, st.r2
		}
		keys := []string{key}
		var ferr error
		if arg%2 == 0 {
			ferr = f.InsertPre(tcbf.Precompute(key), st.now)
		} else {
			keys = append(keys, Keys[(int(arg)+5)%len(Keys)])
			ferr = f.InsertAllPre([]tcbf.PreKey{tcbf.Precompute(keys[0]), tcbf.Precompute(keys[1])}, st.now)
		}
		rerr := r.insertGate(st.now)
		if (ferr != nil) != (rerr != nil) {
			st.fail("merged-insert-parity",
				"insert %q: filter err %v, model err %v", key, ferr, rerr)
		}
		if ferr != nil && !errors.Is(ferr, tcbf.ErrMerged) {
			st.fail("merged-insert-parity", "insert %q: err %v is not ErrMerged", key, ferr)
		}
		if ferr == nil {
			for _, k := range keys {
				minC, err := f.MinCounterPre(tcbf.Precompute(k), st.now)
				if err != nil {
					st.fail("query", "min counter after insert %q: %v", k, err)
				}
				if minC <= 0 {
					st.fail("no-false-negatives",
						"key %q absent immediately after insert", k)
				}
				r.adopt(k, uint32(math.Round(minC/st.quantum)))
			}
		}
	case 2: // whole seconds pass
		st.advance(st.now + time.Duration(arg)*time.Second)
	case 3: // A-merge f2 into f1
		if err := st.f1.AMerge(st.f2, st.now); err != nil {
			st.fail("merge", "amerge: %v", err)
		}
		st.r1.merge(st.r2, st.now, true)
	case 4: // M-merge f2 into f1
		if err := st.f1.MMerge(st.f2, st.now); err != nil {
			st.fail("merge", "mmerge: %v", err)
		}
		st.r1.merge(st.r2, st.now, false)
	case 5: // query surface consistency: single and batched
		pre := tcbf.Precompute(key)
		got, err := st.f1.ContainsPre(pre, st.now)
		if err != nil {
			st.fail("query", "contains pre: %v", err)
		}
		gotAny, err := st.f1.ContainsAnyPre([]tcbf.PreKey{pre}, st.now)
		if err != nil {
			st.fail("query", "contains any pre: %v", err)
		}
		if got != gotAny {
			st.fail("query-surface-consistency",
				"contains %q = %v / any %v", key, got, gotAny)
		}
	case 6: // preferential query, f2 as peer
		got, err := tcbf.PreferencePartitionedPre(tcbf.Precompute(key), st.f2, st.f1, st.now)
		if err != nil {
			st.fail("preference", "preference %q: %v", key, err)
		}
		if st.isolated[key] {
			peer := st.r2.counter(key, st.now)
			self := st.r1.counter(key, st.now)
			want := peer
			if self != 0 {
				want = peer - self
			}
			if got != want {
				st.fail("exact-counters", "preference %q = %v, model %v", key, got, want)
			}
		}
	case 7: // wire round-trip through the scratch filter
		st.checkWire()
	case 8: // retune DF on f1; occasionally reset f2 to unlock inserts
		df := float64(arg%40) / 8.0
		if err := st.f1.SetDecayFactor(df, st.now); err != nil {
			st.fail("decay", "set df: %v", err)
		}
		st.r1.setDF(df, st.now)
		if arg%4 == 0 {
			st.f2.Reset(st.now)
			st.r2.reset(st.now)
		}
	case 9: // reinforcement burst toward saturation
		for j := 0; j < 20; j++ {
			if err := st.f1.AMerge(st.f2, st.now); err != nil {
				st.fail("merge", "amerge burst: %v", err)
			}
			st.r1.merge(st.r2, st.now, true)
		}
	case 10: // sub-tick time: the nanosecond remainder carry
		st.advance(st.now + time.Duration(arg)*37*time.Millisecond)
	case 11: // decay monotonicity across an advance
		before := make([]float64, len(Keys))
		for i, k := range Keys {
			c, err := st.f1.MinCounterPre(tcbf.Precompute(k), st.now)
			if err != nil {
				st.fail("query", "min counter %q: %v", k, err)
			}
			before[i] = c
		}
		st.advance(st.now + time.Duration(arg)*time.Second)
		for i, k := range Keys {
			after, err := st.f1.MinCounterPre(tcbf.Precompute(k), st.now)
			if err != nil {
				st.fail("query", "min counter %q: %v", k, err)
			}
			if after > before[i] {
				st.fail("decay-monotonicity",
					"key %q min counter rose %v -> %v across pure time", k, before[i], after)
			}
		}
	}
	st.checkAll("after op")
}

func (st *state) advance(to time.Duration) {
	st.t.Helper()
	st.now = to
	if err := st.f1.Advance(st.now); err != nil {
		st.fail("decay", "advance f1: %v", err)
	}
	if err := st.f2.Advance(st.now); err != nil {
		st.fail("decay", "advance f2: %v", err)
	}
	st.r1.advance(st.now)
	st.r2.advance(st.now)
}

// checkWire encodes f1 with full counters, decodes into the scratch
// filter, and holds the copy to an exact round trip (membership, and
// counters within the wire quantization) plus the decoded-state merged
// contract.
func (st *state) checkWire() {
	st.t.Helper()
	data, err := st.f1.Encode(tcbf.CountersFull)
	if err != nil {
		st.fail("wire", "encode: %v", err)
	}
	appended, err := st.f1.EncodeTo([]byte{0xDE, 0xAD}, tcbf.CountersFull)
	if err != nil {
		st.fail("wire", "encode to: %v", err)
	}
	if len(appended) != len(data)+2 || string(appended[2:]) != string(data) {
		st.fail("wire", "EncodeTo bytes diverge from Encode")
	}
	if err := st.scratch.DecodeInto(data, st.now); err != nil {
		st.fail("wire", "decode into: %v", err)
	}
	for _, key := range Keys {
		pre := tcbf.Precompute(key)
		hasOrig, err := st.f1.ContainsPre(pre, st.now)
		if err != nil {
			st.fail("wire", "contains orig %q: %v", key, err)
		}
		hasCopy, err := st.scratch.ContainsPre(pre, st.now)
		if err != nil {
			st.fail("wire", "contains copy %q: %v", key, err)
		}
		if hasCopy != hasOrig {
			st.fail("round-trip-exact",
				"key %q membership %v -> %v across the wire", key, hasOrig, hasCopy)
		}
		mOrig, err := st.f1.MinCounterPre(pre, st.now)
		if err != nil {
			st.fail("wire", "min orig %q: %v", key, err)
		}
		mCopy, err := st.scratch.MinCounterPre(pre, st.now)
		if err != nil {
			st.fail("wire", "min copy %q: %v", key, err)
		}
		// CountersFull carries one quantized byte per set bit, scaled to
		// the filter's maximum counter (Section VI-C): decoding moves a
		// counter by at most max/255 plus one tick of rounding, with the
		// keep-set-bits-set clamp hitting the same bound from below. max
		// is bounded by the lane ceiling.
		wireTol := (float64(refLaneMax)/255 + 1) * st.quantum
		if math.Abs(mOrig-mCopy) > wireTol {
			st.fail("round-trip-exact",
				"key %q min counter %v -> %v across the wire, beyond quantization tolerance %v",
				key, mOrig, mCopy, wireTol)
		}
	}
	// Decoded state is a peer's view: the uniform contract says it must
	// refuse further inserts with ErrMerged.
	if err := st.scratch.InsertPre(tcbf.Precompute(Keys[0]), st.now); !errors.Is(err, tcbf.ErrMerged) {
		st.fail("merged-insert-parity", "insert into decoded filter: err %v, want ErrMerged", err)
	}
}

// DefaultConfig is the conformance geometry: the paper's M=256/K=4 with a
// fast decay so short tapes cross many tick boundaries.
func DefaultConfig() tcbf.Config {
	return tcbf.Config{M: 256, K: 4, Initial: 3, DecayPerMinute: 1}
}

// RunTape interprets a byte tape as (op, arg) pairs against one subject,
// failing the test on any divergence from the laws.
func RunTape(t *testing.T, sub Subject, tape []byte) {
	t.Helper()
	st := newState(t, sub, DefaultConfig())
	for i := 0; i+1 < len(tape); i += 2 {
		st.step(tape[i], tape[i+1])
	}
}
