package tcbf

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// This file checks the TCBF against a deliberately naive reference model: a
// map of position → counter ticks, straight-line reimplementations of
// insert, decay, both merges, and both queries, and an independent
// stdlib-FNV reimplementation of the double-hashing position derivation.
// The reference mirrors the documented fixed-point semantics — integer
// ticks of quantum Initial/1024, eager whole-tick decay with a nanosecond
// remainder, saturation at laneMax — with longhand arithmetic and none of
// the production shortcuts (no SWAR words, no lazy settlement, no guard
// bits, no inline FNV, no scratch reuse). A randomized op tape drives the
// real filter and the model in lockstep, comparing the full effective
// counter state tick-for-tick after every op — so every word-parallel pass
// and every lazy-decay fold in the production code must agree exactly with
// the obvious per-counter implementation. The tape runs against a bare
// Filter and against the relay filter the engine holds, a Partitioned at
// one and three partitions with one model per partition, routed by an
// independent restatement of the routing hash. FuzzTCBFModel feeds the
// same interpreter coverage-guided tapes.

// refPositions derives the k bit positions for key with hash/fnv and
// uint64 arithmetic — independent of hashkit's inline FNV and
// overflow-avoiding modular stepping.
func refPositions(m, k int, key string) []int {
	h := fnv.New64a()
	_, _ = io.WriteString(h, key)
	sum := h.Sum64()
	h1 := uint64(uint32(sum))
	h2 := uint64(uint32(sum>>32) | 1)
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = int((h1%uint64(m) + uint64(i)*(h2%uint64(m))) % uint64(m))
	}
	return out
}

// refInitTicks and refLaneMax restate the packed representation's documented
// constants independently: Insert writes 1024 ticks and a counter can never
// exceed 32767 ticks.
const (
	refInitTicks = 1024
	refLaneMax   = 32767
)

// refTickNanos restates tickNanosFor longhand: the nanoseconds DF takes to
// erode one tick's worth (Initial/1024) of counter value, rounded to the
// nearest nanosecond, clamped to at least 1 and at most MaxInt64.
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

// refTCBF is the reference model. Counter ticks live in a map (absent ==
// 0); every temporal rule is written out longhand, and decay is applied
// eagerly on every advance — the opposite of the production filter's lazy
// pending-debt scheme, which must be observationally identical.
type refTCBF struct {
	m, k      int
	cfg       Config
	c         map[int]uint32 // position → counter ticks
	last      time.Duration
	merged    bool
	tickNanos int64
	remNanos  int64 // progress toward the next whole tick
}

func newRefTCBF(cfg Config, now time.Duration) *refTCBF {
	return &refTCBF{
		m: cfg.M, k: cfg.K, cfg: cfg,
		c:         make(map[int]uint32),
		last:      now,
		tickNanos: refTickNanos(cfg.Initial, cfg.DecayPerMinute),
	}
}

func (r *refTCBF) advance(now time.Duration) {
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
		ticks = refLaneMax // no counter exceeds refLaneMax, so deeper decay is moot
	}
	for p, c := range r.c {
		if uint64(c) <= ticks {
			delete(r.c, p)
		} else {
			r.c[p] = c - uint32(ticks)
		}
	}
}

func (r *refTCBF) insert(key string, now time.Duration) error {
	if r.merged {
		return ErrMerged
	}
	r.advance(now)
	for _, p := range refPositions(r.m, r.k, key) {
		if r.c[p] == 0 {
			r.c[p] = refInitTicks
		}
	}
	return nil
}

func (r *refTCBF) merge(other *refTCBF, now time.Duration, additive bool) {
	r.advance(now)
	other.advance(now)
	for p, c := range other.c {
		switch {
		case r.c[p] == 0:
			r.c[p] = c
		case additive:
			sum := uint64(r.c[p]) + uint64(c)
			if sum > refLaneMax {
				sum = refLaneMax
			}
			r.c[p] = uint32(sum)
		case c > r.c[p]:
			r.c[p] = c
		}
	}
	r.merged = true
}

func (r *refTCBF) contains(key string, now time.Duration) bool {
	r.advance(now)
	for _, p := range refPositions(r.m, r.k, key) {
		if r.c[p] == 0 {
			return false
		}
	}
	return true
}

func (r *refTCBF) minCounter(key string, now time.Duration) float64 {
	r.advance(now)
	minT := uint32(math.MaxUint32)
	for _, p := range refPositions(r.m, r.k, key) {
		if r.c[p] < minT {
			minT = r.c[p]
		}
	}
	return float64(minT) * (r.cfg.Initial / refInitTicks)
}

func (r *refTCBF) setDF(perMinute float64, now time.Duration) {
	r.advance(now)
	r.cfg.DecayPerMinute = perMinute
	r.tickNanos = refTickNanos(r.cfg.Initial, perMinute)
}

func (r *refTCBF) reset(now time.Duration) {
	r.c = make(map[int]uint32)
	r.last = now
	r.merged = false
	r.remNanos = 0
}

// uniform reports whether all set counters share one tick value (vacuously
// true when empty) — the precondition CountersUniform encoding enforces.
func (r *refTCBF) uniform() bool {
	first := uint32(0)
	for _, c := range r.c {
		if first == 0 {
			first = c
		} else if c != first {
			return false
		}
	}
	return true
}

// refLocBits restates bitsFor longhand: the smallest width b >= 1 with
// 2^b >= m.
func refLocBits(m int) int {
	b := 1
	for 1<<b < m {
		b++
	}
	return b
}

// refEncode is a longhand Section VI-C encoder over the model's counters:
// sorted positions from the map, the 11-byte header spelled out field by
// field, locations through the bit-at-a-time bitWriter (or a bitmap set
// bit by bit), and counter bytes rounded from v times the reciprocal
// 255/max, floored at 1. The reciprocal multiply, not an exact integer
// rounding, is the wire rule (see quantizeTick).
func refEncode(r *refTCBF, mode CounterMode) ([]byte, error) {
	if mode == CountersUniform && !r.uniform() {
		return nil, ErrNotUniform
	}
	pos := make([]int, 0, len(r.c))
	maxT := uint32(0)
	for p, c := range r.c {
		pos = append(pos, p)
		if c > maxT {
			maxT = c
		}
	}
	sort.Ints(pos)
	nSet := len(pos)
	locBits := refLocBits(r.m)
	bitmap := nSet*locBits >= r.m
	flags := byte(mode)
	if bitmap {
		flags |= 0x04
	}
	out := []byte{0xB5, flags,
		byte(r.m >> 24), byte(r.m >> 16), byte(r.m >> 8), byte(r.m),
		byte(r.k),
		byte(nSet >> 24), byte(nSet >> 16), byte(nSet >> 8), byte(nSet)}
	if bitmap {
		vec := make([]byte, (r.m+7)/8)
		for _, p := range pos {
			vec[p/8] |= 1 << (p % 8)
		}
		out = append(out, vec...)
	} else {
		w := bitWriter{out: out}
		for _, p := range pos {
			w.write(uint64(p), locBits)
		}
		out = w.finish()
	}
	if mode == CountersNone {
		return out, nil
	}
	scale := math.Float64bits(float64(maxT) * (r.cfg.Initial / refInitTicks))
	for sh := 56; sh >= 0; sh -= 8 {
		out = append(out, byte(scale>>sh))
	}
	if mode == CountersFull {
		for _, p := range pos {
			q := math.Floor(float64(r.c[p])*(255/float64(maxT)) + 0.5)
			if q < 1 {
				q = 1
			}
			out = append(out, byte(q))
		}
	}
	return out, nil
}

// dirtyPrefix returns the two bytes DE AD with spare capacity full of
// garbage, so an encoder appending to it must write every byte it claims:
// one it skips shows up as garbage instead of a lucky zero.
func dirtyPrefix() []byte {
	b := bytes.Repeat([]byte{0xA5}, 4096)
	b[0], b[1] = 0xDE, 0xAD
	return b[:2]
}

// refRoute restates the partition routing hash with hash/fnv: FNV-1a/32
// over a 0x7A prefix byte plus the key.
func refRoute(key string, h int) int {
	d := fnv.New32a()
	_, _ = d.Write([]byte{0x7A})
	_, _ = io.WriteString(d, key)
	return int(d.Sum32() % uint32(h))
}

// refEncodePartitioned is the longhand partitioned encoder: magic 0xBA,
// the partition count, then each partition as a 4-byte big-endian length
// and its refEncode bytes, an empty partition as a zero length alone.
func refEncodePartitioned(parts []*refTCBF, mode CounterMode) ([]byte, error) {
	out := []byte{0xBA, byte(len(parts))}
	for _, r := range parts {
		if len(r.c) == 0 {
			out = append(out, 0, 0, 0, 0)
			continue
		}
		b, err := refEncode(r, mode)
		if err != nil {
			return nil, err
		}
		n := len(b)
		out = append(out, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
		out = append(out, b...)
	}
	return out, nil
}

// subject is one filter under the lockstep tape. A *Filter is driven
// through its string-key API, a *Partitioned through its precomputed-key
// API; both expose the shared methods directly and the rest through the
// lower-case adapters, and each opens its partitions (one for a *Filter)
// to the state comparison.
type subject interface {
	Config() Config
	Advance(now time.Duration) error
	SetDecayFactor(perMinute float64, now time.Duration) error
	Reset(now time.Duration)
	Encode(mode CounterMode) ([]byte, error)
	EncodeTo(dst []byte, mode CounterMode) ([]byte, error)
	WireSize(mode CounterMode) (int, error)
	DecodeInto(data []byte, now time.Duration) error
	InsertPre(k PreKey, now time.Duration) error
	ContainsPre(k PreKey, now time.Duration) (bool, error)
	ContainsAnyPre(keys []PreKey, now time.Duration) (bool, error)
	MinCounterPre(k PreKey, now time.Duration) (float64, error)

	insert(keys []string, now time.Duration) error
	contains(key string, now time.Duration) (bool, error)
	minCounter(key string, now time.Duration) (float64, error)
	preference(key string, peer subject, now time.Duration) (float64, error)
	merge(src subject, now time.Duration, additive bool) error
	decode(data []byte, now time.Duration) (subject, error)
	refEncode(refs []*refTCBF, mode CounterMode) ([]byte, error)
	partitions() []*Filter
	clone() subject
}

type filterSubject struct{ *Filter }

func (s filterSubject) insert(keys []string, now time.Duration) error {
	if len(keys) == 1 {
		return s.Insert(keys[0], now)
	}
	return s.InsertAll(keys, now)
}

func (s filterSubject) contains(key string, now time.Duration) (bool, error) {
	return s.Contains(key, now)
}

func (s filterSubject) minCounter(key string, now time.Duration) (float64, error) {
	return s.MinCounter(key, now)
}

func (s filterSubject) preference(key string, peer subject, now time.Duration) (float64, error) {
	return Preference(key, peer.(filterSubject).Filter, s.Filter, now)
}

func (s filterSubject) merge(src subject, now time.Duration, additive bool) error {
	if additive {
		return s.AMerge(src.(filterSubject).Filter, now)
	}
	return s.MMerge(src.(filterSubject).Filter, now)
}

func (s filterSubject) decode(data []byte, now time.Duration) (subject, error) {
	f, err := Decode(data, s.Config(), now)
	return filterSubject{f}, err
}

func (s filterSubject) refEncode(refs []*refTCBF, mode CounterMode) ([]byte, error) {
	return refEncode(refs[0], mode)
}

func (s filterSubject) partitions() []*Filter { return []*Filter{s.Filter} }

func (s filterSubject) clone() subject { return filterSubject{s.Clone()} }

type partSubject struct{ *Partitioned }

func (s partSubject) insert(keys []string, now time.Duration) error {
	if len(keys) == 1 {
		return s.InsertPre(Precompute(keys[0]), now)
	}
	pre := make([]PreKey, len(keys))
	for i, k := range keys {
		pre[i] = Precompute(k)
	}
	return s.InsertAllPre(pre, now)
}

func (s partSubject) contains(key string, now time.Duration) (bool, error) {
	return s.ContainsPre(Precompute(key), now)
}

func (s partSubject) minCounter(key string, now time.Duration) (float64, error) {
	return s.MinCounterPre(Precompute(key), now)
}

func (s partSubject) preference(key string, peer subject, now time.Duration) (float64, error) {
	return PreferencePartitionedPre(Precompute(key), peer.(partSubject).Partitioned, s.Partitioned, now)
}

func (s partSubject) merge(src subject, now time.Duration, additive bool) error {
	if additive {
		return s.AMerge(src.(partSubject).Partitioned, now)
	}
	return s.MMerge(src.(partSubject).Partitioned, now)
}

func (s partSubject) decode(data []byte, now time.Duration) (subject, error) {
	p, err := DecodePartitioned(data, s.Config(), now)
	return partSubject{p}, err
}

func (s partSubject) refEncode(refs []*refTCBF, mode CounterMode) ([]byte, error) {
	return refEncodePartitioned(refs, mode)
}

func (s partSubject) partitions() []*Filter { return s.parts }

func (s partSubject) clone() subject { return partSubject{s.Clone()} }

// newSubject returns a bare *Filter for h == 0, else a *Partitioned with h
// partitions.
func newSubject(cfg Config, h int, now time.Duration) subject {
	if h == 0 {
		return filterSubject{MustNew(cfg, now)}
	}
	return partSubject{MustNewPartitioned(cfg, h, now)}
}

// shapes are the subjects every law is held on: the bare filter, and the
// relay filter the engine holds at one and at three partitions.
var shapes = []struct {
	name string
	h    int
}{{"filter", 0}, {"part1", 1}, {"part3", 3}}

// forShapes runs fn once per shape: the bare filter as "filter", and the
// relay-filter shapes grouped as "partitioned/part1" and
// "partitioned/part3", so -run '/partitioned' selects the engine's filter.
func forShapes(t *testing.T, fn func(t *testing.T, h int)) {
	t.Run(shapes[0].name, func(t *testing.T) { fn(t, shapes[0].h) })
	t.Run("partitioned", func(t *testing.T) {
		for _, sh := range shapes[1:] {
			t.Run(sh.name, func(t *testing.T) { fn(t, sh.h) })
		}
	})
}

// tapeConfig is the tape geometry of each shape, with a fast decay so
// short tapes cross many tick boundaries. The bare filter's M=64 makes
// collisions frequent, which is the point; the partitioned shapes run the
// paper's M=256 per partition.
func tapeConfig(h int) Config {
	if h == 0 {
		return Config{M: 64, K: 4, Initial: 3, DecayPerMinute: 1}
	}
	return Config{M: 256, K: 4, Initial: 3, DecayPerMinute: 1}
}

// modelState is the interpreter state: two subject/model pairs (so merges
// have a source), a monotonic clock, and a scratch subject for DecodeInto.
// Each subject has one reference model per partition, and a key's model is
// the one refRoute picks.
type modelState struct {
	t               *testing.T
	f1, f2, scratch subject
	r1, r2          []*refTCBF
	now             time.Duration
}

func newModelState(t *testing.T, h int) *modelState {
	cfg := tapeConfig(h)
	st := &modelState{
		t:       t,
		f1:      newSubject(cfg, h, 0),
		f2:      newSubject(cfg, h, 0),
		scratch: newSubject(cfg, h, 0),
	}
	for range st.f1.partitions() {
		st.r1 = append(st.r1, newRefTCBF(cfg, 0))
		st.r2 = append(st.r2, newRefTCBF(cfg, 0))
	}
	return st
}

// route returns the model of key's partition.
func route(refs []*refTCBF, key string) *refTCBF {
	return refs[refRoute(key, len(refs))]
}

// compare holds both subjects to their models after an op: every
// partition's merged flag and full effective counter state tick for tick,
// then every key's membership and minimum counter through the subject's
// own query API — positive exactly when the key is present.
func (st *modelState) compare(tag string) {
	t := st.t
	t.Helper()
	pairs := []struct {
		name string
		f    subject
		refs []*refTCBF
	}{{"f1", st.f1, st.r1}, {"f2", st.f2, st.r2}}
	for _, pr := range pairs {
		for i, part := range pr.f.partitions() {
			r := pr.refs[i]
			if part.Merged() != r.merged {
				t.Fatalf("%s: %s[%d] merged = %v, model %v", tag, pr.name, i, part.Merged(), r.merged)
			}
			for p := 0; p < r.m; p++ {
				// Effective ticks must match the model exactly — the packed
				// filter's lazily pending decay is invisible from outside.
				if got, want := part.effTick(uint32(p)), r.c[p]; got != want {
					t.Fatalf("%s: %s[%d] ticks[%d] = %d, model %d", tag, pr.name, i, p, got, want)
				}
				// And the float view is the same multiple of the same quantum.
				if got, want := part.Counter(p), float64(r.c[p])*(r.cfg.Initial/refInitTicks); got != want {
					t.Fatalf("%s: %s[%d] counter[%d] = %v, model %v", tag, pr.name, i, p, got, want)
				}
			}
		}
		for _, key := range modelKeys {
			has, err := pr.f.contains(key, st.now)
			if err != nil {
				t.Fatalf("%s: %s contains %q: %v", tag, pr.name, key, err)
			}
			minC, err := pr.f.minCounter(key, st.now)
			if err != nil {
				t.Fatalf("%s: %s min counter %q: %v", tag, pr.name, key, err)
			}
			if (minC > 0) != has {
				t.Fatalf("%s: %s key %q: min counter %v but contains %v", tag, pr.name, key, minC, has)
			}
			r := route(pr.refs, key)
			if want := r.contains(key, st.now); has != want {
				t.Fatalf("%s: %s contains %q = %v, model %v", tag, pr.name, key, has, want)
			}
			if want := r.minCounter(key, st.now); minC != want {
				t.Fatalf("%s: %s min counter %q = %v, model %v", tag, pr.name, key, minC, want)
			}
		}
	}
}

// modelKeys is the small key universe; collisions in a 64-bit filter are
// frequent, which is the point.
var modelKeys = []string{
	"alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
	"golf", "hotel", "india", "juliet", "kilo", "lima",
}

// step applies one (op, arg) pair to the subjects and the models and fails
// the test on any divergence — in errors, results, or full counter state.
func (st *modelState) step(op, arg byte) {
	t := st.t
	t.Helper()
	key := modelKeys[int(arg)%len(modelKeys)]
	other := modelKeys[(int(arg)+5)%len(modelKeys)]
	switch op % 11 {
	case 0, 1: // insert into f1 / f2: one key, or for an odd arg a batch of two
		f, refs := st.f1, st.r1
		if op%11 == 1 {
			f, refs = st.f2, st.r2
		}
		keys := []string{key}
		if arg%2 == 1 {
			keys = append(keys, other)
		}
		ferr := f.insert(keys, st.now)
		var rerr error
		for _, k := range keys {
			if rerr = route(refs, k).insert(k, st.now); rerr != nil {
				break
			}
		}
		// Insert fails with ErrMerged exactly when the model is merged.
		if (ferr != nil) != (rerr != nil) || (ferr != nil && !errors.Is(ferr, ErrMerged)) {
			t.Fatalf("insert %q: filter err %v, model err %v", keys, ferr, rerr)
		}
	case 2: // time passes (fractional minutes exercise decay rounding)
		st.advance(time.Duration(arg) * time.Second)
	case 3, 4: // A-merge / M-merge f2 into f1
		additive := op%11 == 3
		if err := st.f1.merge(st.f2, st.now, additive); err != nil {
			t.Fatalf("merge (additive %v): %v", additive, err)
		}
		for i := range st.r1 {
			st.r1[i].merge(st.r2[i], st.now, additive)
		}
	case 5: // the precomputed-key query surface, single and batched
		pre := Precompute(key)
		has, err := st.f1.ContainsPre(pre, st.now)
		if err != nil {
			t.Fatalf("contains pre: %v", err)
		}
		minC, err := st.f1.MinCounterPre(pre, st.now)
		if err != nil {
			t.Fatalf("min counter pre: %v", err)
		}
		hasAny, err := st.f1.ContainsAnyPre([]PreKey{pre, Precompute(other)}, st.now)
		if err != nil {
			t.Fatalf("contains any pre: %v", err)
		}
		r := route(st.r1, key)
		want := r.contains(key, st.now)
		wantAny := want || route(st.r1, other).contains(other, st.now)
		if has != want || hasAny != wantAny || minC != r.minCounter(key, st.now) {
			t.Fatalf("contains pre %q = %v, any %v, min counter %v; model %v, %v, %v",
				key, has, hasAny, minC, want, wantAny, r.minCounter(key, st.now))
		}
	case 6: // preferential query f2 (peer) vs f1 (self), Section IV-A
		got, err := st.f1.preference(key, st.f2, st.now)
		if err != nil {
			t.Fatalf("preference: %v", err)
		}
		peer := route(st.r2, key).minCounter(key, st.now)
		self := route(st.r1, key).minCounter(key, st.now)
		want := peer
		if self != 0 {
			want = peer - self
		}
		if got != want {
			t.Fatalf("preference %q = %v, model %v", key, got, want)
		}
	case 7: // wire round-trip: Encode==EncodeTo, Decode==DecodeInto
		st.checkWire(CountersNone + CounterMode(arg)%3)
	case 8: // retune DF (coarse grid keeps decay values interesting)
		df := float64(arg%40) / 8.0
		if err := st.f1.SetDecayFactor(df, st.now); err != nil {
			t.Fatalf("set df: %v", err)
		}
		for _, r := range st.r1 {
			r.setDF(df, st.now)
		}
		// f2 must stay merge-compatible in geometry only; its DF is
		// independent, so also reset it occasionally to unlock inserts.
		if arg%4 == 0 {
			st.f2.Reset(st.now)
			for _, r := range st.r2 {
				r.reset(st.now)
			}
		}
	case 9: // reinforcement burst: drive counters into saturation
		for j := 0; j < 40; j++ {
			if err := st.f1.merge(st.f2, st.now, true); err != nil {
				t.Fatalf("amerge burst: %v", err)
			}
			for i := range st.r1 {
				st.r1[i].merge(st.r2[i], st.now, true)
			}
		}
	case 10: // sub-tick time: exercise the nanosecond remainder carry
		st.advance(time.Duration(arg) * 37 * time.Millisecond)
	}
	st.compare("after op")
}

// advance moves the clock on by d for both subjects and both models, and
// holds every counter to monotone decay across the step.
func (st *modelState) advance(d time.Duration) {
	t := st.t
	t.Helper()
	before := st.ticks()
	st.now += d
	for _, f := range []subject{st.f1, st.f2} {
		if err := f.Advance(st.now); err != nil {
			t.Fatalf("advance: %v", err)
		}
	}
	for i := range st.r1 {
		st.r1[i].advance(st.now)
		st.r2[i].advance(st.now)
	}
	for i, after := range st.ticks() {
		if after > before[i] {
			t.Fatalf("counter %d rose %d -> %d across %v of pure time", i, before[i], after, d)
		}
	}
}

// ticks lists both subjects' effective counters, partition by partition.
func (st *modelState) ticks() []uint32 {
	var out []uint32
	for _, f := range []subject{st.f1, st.f2} {
		for _, part := range f.partitions() {
			for p := 0; p < part.M(); p++ {
				out = append(out, part.effTick(uint32(p)))
			}
		}
	}
	return out
}

// checkWire pins the encoder byte for byte to the longhand reference
// encoder over the models' counters, the append-style encoder and the
// in-place decoder to their allocating counterparts on f1's current
// state, the size-only WireSize to the encoding's length and to the state
// encoding leaves, and the uniform mode's refusal of non-uniform counters
// to the models' view. The decoded copy keeps every set bit, lands each
// counter within the wire quantization, and refuses inserts on every
// partition.
func (st *modelState) checkWire(mode CounterMode) {
	t := st.t
	t.Helper()
	for _, r := range st.r1 {
		r.advance(st.now) // encoding reflects the advanced clock
	}
	want, wantErr := st.f1.refEncode(st.r1, mode)
	sized := st.f1.clone()
	size, sizeErr := sized.WireSize(mode)
	plain, err := st.f1.Encode(mode)
	if (sizeErr != nil) != (err != nil) || (err == nil && size != len(plain)) {
		t.Fatalf("WireSize (mode %d) = %d, %v; Encode gave %d bytes, %v", mode, size, sizeErr, len(plain), err)
	}
	for i, f := range st.f1.partitions() {
		if g := sized.partitions()[i]; !slices.Equal(g.words, f.words) ||
			g.pendingTicks != f.pendingTicks || g.pendingNanos != f.pendingNanos || g.last != f.last {
			t.Fatalf("WireSize (mode %d) left partition %d in another state than Encode", mode, i)
		}
	}
	if mode == CountersUniform {
		if (wantErr != nil) != (err != nil) || (err != nil && !errors.Is(err, ErrNotUniform)) {
			t.Fatalf("uniform encode err = %v, reference err %v", err, wantErr)
		}
		if err != nil {
			if _, err2 := st.f1.EncodeTo(nil, mode); !errors.Is(err2, ErrNotUniform) {
				t.Fatalf("EncodeTo uniform err = %v, Encode refused", err2)
			}
			return
		}
	} else if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !bytes.Equal(plain, want) {
		t.Fatalf("Encode (mode %d) = %x, reference %x", mode, plain, want)
	}
	appended, err := st.f1.EncodeTo(dirtyPrefix(), mode)
	if err != nil {
		t.Fatalf("encode to: %v", err)
	}
	if !bytes.Equal(appended[:2], []byte{0xDE, 0xAD}) || !bytes.Equal(appended[2:], plain) {
		t.Fatalf("EncodeTo bytes diverge from Encode (mode %d)", mode)
	}
	fresh, err := st.f1.decode(plain, st.now)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := st.scratch.DecodeInto(plain, st.now); err != nil {
		t.Fatalf("decode into: %v", err)
	}
	// CountersFull carries one quantized byte per set bit, scaled to the
	// partition's maximum counter (Section VI-C): decoding moves a counter
	// by at most max/255 plus one tick of rounding, with the
	// keep-set-bits-set clamp hitting the same bound from below. max is
	// bounded by the lane ceiling.
	tol := (float64(refLaneMax)/255 + 1) * (st.f1.Config().Initial / refInitTicks)
	orig, got, into := st.f1.partitions(), fresh.partitions(), st.scratch.partitions()
	for i := range orig {
		for p := 0; p < orig[i].M(); p++ {
			o, c := orig[i].Counter(p), got[i].Counter(p)
			if into[i].Counter(p) != c {
				t.Fatalf("DecodeInto [%d] counter[%d] = %v, Decode %v (mode %d)", i, p, into[i].Counter(p), c, mode)
			}
			if (c > 0) != (o > 0) {
				t.Fatalf("decode flipped bit [%d] %d (mode %d)", i, p, mode)
			}
			if mode == CountersFull && math.Abs(o-c) > tol {
				t.Fatalf("[%d] counter[%d] %v -> %v across the wire, beyond quantization tolerance %v", i, p, o, c, tol)
			}
		}
		// Decoded state is a peer's view of unknown provenance: every
		// partition, an empty one included, must refuse genuine inserts.
		for _, f := range []*Filter{got[i], into[i]} {
			if err := f.Insert(modelKeys[0], st.now); !errors.Is(err, ErrMerged) {
				t.Fatalf("insert into decoded partition %d (mode %d): err %v, want ErrMerged", i, mode, err)
			}
		}
	}
}

// runModelTape interprets a byte tape as (op, arg) pairs against the
// subject with h partitions (h == 0: a bare *Filter).
func runModelTape(t *testing.T, h int, tape []byte) {
	t.Helper()
	st := newModelState(t, h)
	for i := 0; i+1 < len(tape); i += 2 {
		st.step(tape[i], tape[i+1])
	}
}

// randomTapes runs seeds 1..seeds, each a random tape of ops (op, arg)
// pairs, against the subject with h partitions.
func randomTapes(t *testing.T, h, seeds, ops int) {
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		tape := make([]byte, 2*ops)
		rng.Read(tape)
		t.Run("", func(t *testing.T) {
			runModelTape(t, h, tape)
		})
	}
}

// TestTCBFDifferentialModel drives the bare filter through long random op
// tapes; it runs under -race in make check.
func TestTCBFDifferentialModel(t *testing.T) {
	randomTapes(t, 0, 8, 400)
}

// TestFilterConformance drives the relay filter the engine holds, a
// *Partitioned at one and three partitions, through random op tapes.
func TestFilterConformance(t *testing.T) {
	for _, sh := range shapes[1:] {
		t.Run(sh.name, func(t *testing.T) {
			randomTapes(t, sh.h, 6, 300)
		})
	}
}

// FuzzTCBFModel hands the differential interpreter to the fuzzer: the
// first byte picks the subject (shapes[b%3]: the bare filter, one
// partition, three partitions), the rest is the op tape, and any
// coverage-guided tape on which a subject and the naive model disagree is
// a real bug.
func FuzzTCBFModel(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 2, 3, 0, 5, 1, 7, 2})                                             // filter: insert, merge, query, wire
	f.Add([]byte{0, 0, 0, 2, 90, 5, 0, 4, 0, 6, 0})                                            // filter: decay then M-merge
	f.Add([]byte{0, 0, 3, 8, 16, 2, 200, 5, 3, 7, 0, 7, 1, 7, 2})                              // filter: DF retune + all wire modes
	f.Add([]byte{0, 1, 5, 3, 0, 0, 5, 8, 4, 1, 7, 4, 0, 2, 30, 6, 5})                          // filter: merged-insert rejection path
	f.Add([]byte{0, 0, 1, 1, 1, 9, 0, 5, 1, 9, 0, 9, 0, 5, 1, 7, 2, 2, 255, 5, 1})             // filter: saturation at laneMax, then decay back down
	f.Add([]byte{0, 0, 0, 10, 1, 5, 0, 10, 255, 5, 0, 10, 3, 2, 1, 5, 0, 8, 9, 10, 100, 5, 0}) // filter: sub-tick remainder carry across DF retune
	f.Add([]byte{0, 1, 2, 3, 0, 2, 240, 2, 240, 2, 240, 5, 2, 0, 2, 7, 2})                     // filter: decay far past zero, reinsert, wire
	f.Add([]byte{1, 0, 1, 1, 2, 3, 0, 5, 1, 7, 2})                                             // part1: insert, merge, query, wire
	f.Add([]byte{1, 0, 0, 2, 90, 6, 0, 4, 0, 6, 0})                                            // part1: decay then M-merge
	f.Add([]byte{2, 0, 3, 8, 16, 2, 200, 5, 3, 7, 2, 9, 0})                                    // part3: DF retune, burst
	f.Add([]byte{1, 1, 5, 3, 0, 0, 5, 8, 4, 1, 7, 4, 0, 2, 30})                                // part1: merged-insert path
	f.Add([]byte{2, 0, 1, 1, 1, 9, 0, 6, 1, 9, 0, 6, 1, 2, 255})                               // part3: saturation, decay
	f.Add([]byte{2, 0, 0, 10, 1, 5, 0, 10, 255, 6, 0, 2, 3})                                   // part3: sub-tick carry + monotonicity
	f.Add([]byte{1, 9, 0, 9, 1, 9, 2, 9, 3, 7, 2, 5, 0})                                       // part1: burst, wire
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) < 1 {
			t.Skip("empty tape")
		}
		if len(tape) > 4096 {
			t.Skip("tape longer than useful")
		}
		runModelTape(t, shapes[int(tape[0])%len(shapes)].h, tape[1:])
	})
}

// TestPartitionedEncodeMatchesReference drives a partitioned filter and
// one reference model per partition through staggered inserts, pending
// decay that empties whole partitions, merges, DF retunes and resets, and
// compares the partitioned encoding byte for byte with the longhand
// reference in every counter mode after each step. Partition counts
// above the key count guarantee empty partitions from the start; M=100
// packs 7-bit locations, so lists end on every possible partial byte.
func TestPartitionedEncodeMatchesReference(t *testing.T) {
	var sawEmpty, sawBitmap, sawList, sawRefused bool
	tails := map[int]bool{}
	for _, tc := range []struct{ m, k, h int }{{64, 4, 1}, {64, 4, 3}, {64, 4, 16}, {100, 3, 1}, {100, 2, 2}, {100, 1, 1}} {
		cfg := Config{M: tc.m, K: tc.k, Initial: 3, DecayPerMinute: 1}
		h := tc.h
		rng := rand.New(rand.NewSource(int64(tc.m + h)))
		p := MustNewPartitioned(cfg, h, 0)
		donor := MustNewPartitioned(cfg, h, 0)
		refs := make([]*refTCBF, h)
		donorRefs := make([]*refTCBF, h)
		for i := range refs {
			refs[i] = newRefTCBF(cfg, 0)
			donorRefs[i] = newRefTCBF(cfg, 0)
		}
		now := time.Duration(0)
		check := func(stage string) {
			t.Helper()
			for mode := CountersNone; mode <= CountersFull; mode++ {
				nonEmpty := 0
				for _, r := range refs {
					r.advance(now)
					if n := len(r.c); n > 0 {
						nonEmpty++
						sawBitmap = sawBitmap || n*refLocBits(r.m) >= r.m
						if n*refLocBits(r.m) < r.m {
							sawList = true
							tails[n*refLocBits(r.m)%8] = true
						}
					}
				}
				sawEmpty = sawEmpty || (nonEmpty > 0 && nonEmpty < h)
				want, wantErr := refEncodePartitioned(refs, mode)
				sawRefused = sawRefused || wantErr != nil
				got, err := p.EncodeTo(dirtyPrefix(), mode)
				if (err != nil) != (wantErr != nil) || (err != nil && !errors.Is(err, ErrNotUniform)) {
					t.Fatalf("m=%d h=%d %s mode %d: err %v, reference err %v", tc.m, h, stage, mode, err, wantErr)
				}
				if err != nil {
					continue
				}
				if !bytes.Equal(got[:2], []byte{0xDE, 0xAD}) || !bytes.Equal(got[2:], want) {
					t.Fatalf("m=%d h=%d %s mode %d:\n got %x\nwant %x", tc.m, h, stage, mode, got[2:], want)
				}
			}
		}
		for step := 0; step < 400; step++ {
			key := modelKeys[rng.Intn(len(modelKeys))]
			switch op := rng.Intn(7); {
			case op <= 1 && !refs[0].merged:
				if err := p.InsertPre(Precompute(key), now); err != nil {
					t.Fatal(err)
				}
				refs[refRoute(key, h)].insert(key, now)
			case op == 2:
				if err := donor.InsertPre(Precompute(key), now); err != nil {
					t.Fatal(err)
				}
				donorRefs[refRoute(key, h)].insert(key, now)
			case op == 3:
				additive := rng.Intn(2) == 0
				var err error
				if additive {
					err = p.AMerge(donor, now)
				} else {
					err = p.MMerge(donor, now)
				}
				if err != nil {
					t.Fatal(err)
				}
				for i := range refs {
					refs[i].merge(donorRefs[i], now, additive)
				}
			case op == 4:
				df := float64(rng.Intn(6)) / 2
				if err := p.SetDecayFactor(df, now); err != nil {
					t.Fatal(err)
				}
				for _, r := range refs {
					r.setDF(df, now)
				}
			case op == 5:
				// Start over, which unlocks inserts into p again.
				p.Reset(now)
				for _, r := range refs {
					r.reset(now)
				}
			default:
				// Mostly sub-minute steps with a sub-tick remainder, now
				// and then long enough to decay whole partitions away.
				now += time.Duration(rng.Intn(90))*time.Second + 37*time.Millisecond
				if rng.Intn(8) == 0 {
					now += 3 * time.Minute
				}
				if err := p.Advance(now); err != nil {
					t.Fatal(err)
				}
				if err := donor.Advance(now); err != nil {
					t.Fatal(err)
				}
				for i := range refs {
					refs[i].advance(now)
					donorRefs[i].advance(now)
				}
			}
			check(fmt.Sprintf("step %d", step))
		}
	}
	if !sawEmpty || !sawBitmap || !sawList || !sawRefused || len(tails) != 8 {
		t.Fatalf("cases not reached: empty partition %v, bitmap %v, list %v, uniform refusal %v, list tail lengths %v",
			sawEmpty, sawBitmap, sawList, sawRefused, tails)
	}
}
