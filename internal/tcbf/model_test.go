package tcbf

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
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
// the obvious per-counter implementation. FuzzTCBFModel feeds the same
// interpreter coverage-guided tapes.

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

// modelState is the interpreter state: two filter/model pairs (so merges
// have a source), a monotonic clock, and a scratch filter for DecodeInto.
type modelState struct {
	f1, f2  *Filter
	r1, r2  *refTCBF
	scratch *Filter
	now     time.Duration
}

func newModelState(cfg Config) *modelState {
	return &modelState{
		f1:      MustNew(cfg, 0),
		f2:      MustNew(cfg, 0),
		r1:      newRefTCBF(cfg, 0),
		r2:      newRefTCBF(cfg, 0),
		scratch: MustNew(cfg, 0),
	}
}

func (st *modelState) compare(t *testing.T, tag string) {
	t.Helper()
	pairs := []struct {
		name string
		f    *Filter
		r    *refTCBF
	}{{"f1", st.f1, st.r1}, {"f2", st.f2, st.r2}}
	for _, pr := range pairs {
		if pr.f.Merged() != pr.r.merged {
			t.Fatalf("%s: %s merged = %v, model %v", tag, pr.name, pr.f.Merged(), pr.r.merged)
		}
		for p := 0; p < pr.r.m; p++ {
			// Effective ticks must match the model exactly — the packed
			// filter's lazily pending decay is invisible from outside.
			if got, want := pr.f.effTick(uint32(p)), pr.r.c[p]; got != want {
				t.Fatalf("%s: %s ticks[%d] = %d, model %d", tag, pr.name, p, got, want)
			}
			// And the float view is the same multiple of the same quantum.
			if got, want := pr.f.Counter(p), float64(pr.r.c[p])*(pr.r.cfg.Initial/refInitTicks); got != want {
				t.Fatalf("%s: %s counter[%d] = %v, model %v", tag, pr.name, p, got, want)
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

// step applies one (op, arg) pair to the filter and the model and fails the
// test on any divergence — in errors, results, or full counter state.
func (st *modelState) step(t *testing.T, op, arg byte) {
	t.Helper()
	key := modelKeys[int(arg)%len(modelKeys)]
	switch op % 12 {
	case 0, 1: // insert into f1 / f2
		f, r := st.f1, st.r1
		if op%12 == 1 {
			f, r = st.f2, st.r2
		}
		ferr := f.Insert(key, st.now)
		rerr := r.insert(key, st.now)
		if (ferr != nil) != (rerr != nil) || (ferr != nil && !errors.Is(ferr, ErrMerged)) {
			t.Fatalf("insert %q: filter err %v, model err %v", key, ferr, rerr)
		}
	case 2: // time passes (fractional minutes exercise decay rounding)
		st.now += time.Duration(arg) * time.Second
		if err := st.f1.Advance(st.now); err != nil {
			t.Fatalf("advance f1: %v", err)
		}
		if err := st.f2.Advance(st.now); err != nil {
			t.Fatalf("advance f2: %v", err)
		}
		st.r1.advance(st.now)
		st.r2.advance(st.now)
	case 3: // A-merge f2 into f1
		if err := st.f1.AMerge(st.f2, st.now); err != nil {
			t.Fatalf("amerge: %v", err)
		}
		st.r1.merge(st.r2, st.now, true)
	case 4: // M-merge f2 into f1
		if err := st.f1.MMerge(st.f2, st.now); err != nil {
			t.Fatalf("mmerge: %v", err)
		}
		st.r1.merge(st.r2, st.now, false)
	case 5: // existential query, plain, precomputed, and batched
		got, err := st.f1.Contains(key, st.now)
		if err != nil {
			t.Fatalf("contains: %v", err)
		}
		gotPre, err := st.f1.ContainsPre(Precompute(key), st.now)
		if err != nil {
			t.Fatalf("contains pre: %v", err)
		}
		batch := []PreKey{Precompute(key)}
		gotAny, err := st.f1.ContainsAnyPre(batch, st.now)
		if err != nil {
			t.Fatalf("contains any pre: %v", err)
		}
		if want := st.r1.contains(key, st.now); got != want || gotPre != want || gotAny != want {
			t.Fatalf("contains %q = %v/%v/%v, model %v", key, got, gotPre, gotAny, want)
		}
	case 6: // min-counter query
		got, err := st.f1.MinCounter(key, st.now)
		if err != nil {
			t.Fatalf("min counter: %v", err)
		}
		if want := st.r1.minCounter(key, st.now); got != want {
			t.Fatalf("min counter %q = %v, model %v", key, got, want)
		}
	case 7: // preferential query f2 (peer) vs f1 (self)
		got, err := Preference(key, st.f2, st.f1, st.now)
		if err != nil {
			t.Fatalf("preference: %v", err)
		}
		peer := st.r2.minCounter(key, st.now)
		self := st.r1.minCounter(key, st.now)
		want := peer
		if self != 0 {
			want = peer - self
		}
		if got != want {
			t.Fatalf("preference %q = %v, model %v", key, got, want)
		}
	case 8: // wire round-trip: Encode==EncodeTo, Decode==DecodeInto
		mode := CountersNone + CounterMode(arg)%3
		st.checkWire(t, mode)
	case 9: // retune DF (coarse grid keeps decay values interesting)
		df := float64(arg%40) / 8.0
		if err := st.f1.SetDecayFactor(df, st.now); err != nil {
			t.Fatalf("set df: %v", err)
		}
		st.r1.setDF(df, st.now)
		// f2 must stay merge-compatible in geometry only; its DF is
		// independent, so also reset it occasionally to unlock inserts.
		if arg%4 == 0 {
			st.f2.Reset(st.now)
			st.r2.reset(st.now)
		}
	case 10: // reinforcement burst: drive counters into saturation
		for j := 0; j < 40; j++ {
			if err := st.f1.AMerge(st.f2, st.now); err != nil {
				t.Fatalf("amerge burst: %v", err)
			}
			st.r1.merge(st.r2, st.now, true)
		}
	case 11: // sub-tick time: exercise the nanosecond remainder carry
		st.now += time.Duration(arg) * 37 * time.Millisecond
		if err := st.f1.Advance(st.now); err != nil {
			t.Fatalf("advance f1: %v", err)
		}
		if err := st.f2.Advance(st.now); err != nil {
			t.Fatalf("advance f2: %v", err)
		}
		st.r1.advance(st.now)
		st.r2.advance(st.now)
	}
	st.compare(t, "after op")
}

// checkWire pins the encoder byte for byte to the longhand reference
// encoder over the model's counters, the append-style encoder and the
// in-place decoder to their allocating counterparts on f1's current
// state, and the uniform mode's refusal of non-uniform counters to the
// model's view.
func (st *modelState) checkWire(t *testing.T, mode CounterMode) {
	t.Helper()
	st.r1.advance(st.now) // encoding reflects the advanced clock
	want, wantErr := refEncode(st.r1, mode)
	plain, err := st.f1.Encode(mode)
	if mode == CountersUniform {
		if (wantErr != nil) != (err != nil) || (err != nil && !errors.Is(err, ErrNotUniform)) {
			t.Fatalf("uniform encode err = %v, model uniform %v", err, st.r1.uniform())
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
	prefix := dirtyPrefix()
	appended, err := st.f1.EncodeTo(prefix, mode)
	if err != nil {
		t.Fatalf("encode to: %v", err)
	}
	if !bytes.Equal(appended[:2], []byte{0xDE, 0xAD}) || !bytes.Equal(appended[2:], plain) {
		t.Fatalf("EncodeTo bytes diverge from Encode (mode %d)", mode)
	}
	fresh, err := Decode(plain, st.f1.Config(), st.now)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := st.scratch.DecodeInto(plain, st.now); err != nil {
		t.Fatalf("decode into: %v", err)
	}
	for p := 0; p < st.f1.M(); p++ {
		if fresh.Counter(p) != st.scratch.Counter(p) {
			t.Fatalf("DecodeInto counter[%d] = %v, Decode %v (mode %d)",
				p, st.scratch.Counter(p), fresh.Counter(p), mode)
		}
		// Decoding must preserve the set-bit structure exactly.
		if (fresh.Counter(p) > 0) != (st.f1.Counter(p) > 0) {
			t.Fatalf("decode flipped bit %d (mode %d)", p, mode)
		}
	}
	if fresh.Merged() != st.scratch.Merged() {
		t.Fatalf("DecodeInto merged = %v, Decode %v", st.scratch.Merged(), fresh.Merged())
	}
}

// runModelTape interprets a byte tape as (op, arg) pairs.
func runModelTape(t *testing.T, tape []byte) {
	t.Helper()
	cfg := Config{M: 64, K: 4, Initial: 3, DecayPerMinute: 1}
	st := newModelState(cfg)
	for i := 0; i+1 < len(tape); i += 2 {
		st.step(t, tape[i], tape[i+1])
	}
}

// TestTCBFDifferentialModel drives long random op tapes; it runs under
// -race in make check.
func TestTCBFDifferentialModel(t *testing.T) {
	const ops = 400
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tape := make([]byte, 2*ops)
		rng.Read(tape)
		t.Run("", func(t *testing.T) {
			runModelTape(t, tape)
		})
	}
}

// FuzzTCBFModel hands the differential interpreter to the fuzzer: any
// coverage-guided tape on which the filter and the naive model disagree is
// a real bug.
func FuzzTCBFModel(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 3, 0, 5, 1, 8, 2})                                             // insert, merge, query, wire
	f.Add([]byte{0, 0, 2, 90, 6, 0, 4, 0, 7, 0})                                            // decay then M-merge
	f.Add([]byte{0, 3, 9, 16, 2, 200, 5, 3, 8, 0, 8, 1, 8, 2})                              // DF retune + all wire modes
	f.Add([]byte{1, 5, 3, 0, 0, 5, 9, 4, 1, 7, 4, 0, 2, 30, 7, 5})                          // merged-insert rejection path
	f.Add([]byte{0, 1, 1, 1, 10, 0, 6, 1, 10, 0, 10, 0, 6, 1, 8, 2, 2, 255, 6, 1})          // saturation at laneMax, then decay back down
	f.Add([]byte{0, 0, 11, 1, 5, 0, 11, 255, 6, 0, 11, 3, 2, 1, 6, 0, 9, 9, 11, 100, 6, 0}) // sub-tick remainder carry across DF retune
	f.Add([]byte{1, 2, 3, 0, 2, 240, 2, 240, 2, 240, 5, 2, 0, 2, 8, 2})                     // decay far past zero, reinsert, wire
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) > 4096 {
			t.Skip("tape longer than useful")
		}
		runModelTape(t, tape)
	})
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
