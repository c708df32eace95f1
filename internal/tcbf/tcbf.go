// Package tcbf implements the Temporal Counting Bloom Filter (TCBF), the
// core data structure of the B-SUB paper (Section IV).
//
// A TCBF associates a counter with every bit of a Bloom filter, but unlike a
// Counting Bloom filter the counters do not track insertion multiplicity.
// Instead:
//
//   - Insert sets the counters of the key's hashed bits to an initial value
//     C; counters that are already set are left unchanged.
//   - A-merge (additive) combines two filters by OR-ing the bit-vectors and
//     summing counters; it is used when a broker absorbs a consumer's
//     genuine filter, so repeated meetings "reinforce" the interest.
//   - M-merge (maximum) takes the counter-wise maximum; it is used between
//     brokers to prevent the bogus-counter feedback loop of Fig. 6.
//   - Decaying constantly decrements every non-zero counter at the decaying
//     factor (DF); a bit whose counter reaches zero is reset, which is the
//     only form of deletion the TCBF supports.
//
// Queries come in two forms: the existential query (is the key present?)
// and the preferential query (Section IV-A), which compares the minimum
// counter of a key's bits across two filters and drives forwarding
// decisions between brokers.
//
// Counters are fixed-point: a counter is an integer number of ticks of
// quantum = Initial/1024 counter units, packed four 16-bit lanes to a
// uint64 word (see packed.go), so decay and both merges are word-parallel
// SWAR passes over M/4 words instead of M floating-point counters.
//
// All temporal behaviour is driven by an explicit clock passed by the
// caller (a time.Duration offset from an arbitrary epoch). Decay is doubly
// lazy: Advance only converts elapsed time into a pending whole-tick debt
// (integer nanosecond arithmetic, so decay composes exactly across
// arbitrary Advance sequences), and the debt is settled word-at-a-time on
// the next insert or encode, folded for free into the next merge pass, or
// applied on the fly by queries without touching the stored words at all.
// Settling is exact, since saturating subtraction composes, so it is
// invisible to every observer; but because encoding settles, Encode and
// EncodeTo mutate the filter and fall under the same single-owner rule as
// inserts and merges. A TCBF is a pure data structure with no background
// goroutines.
package tcbf

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"

	"bsub/internal/hashkit"
)

var (
	// ErrMerged is returned by Insert on a filter that has been the target
	// of a merge. The paper: "We can only insert a key into a filter that
	// has never been merged before"; insert into a fresh TCBF and merge it
	// instead.
	ErrMerged = errors.New("tcbf: cannot insert into a merged filter")

	// ErrGeometry is returned when two filters with different bit-vector
	// lengths, hash counts, or counter scales are combined.
	ErrGeometry = errors.New("tcbf: filter geometry mismatch")

	// ErrClockSkew is returned when an operation's clock precedes the
	// filter's last-observed clock; simulated time must be monotonic.
	ErrClockSkew = errors.New("tcbf: clock moved backwards")
)

// Config holds the tunable parameters of a TCBF.
type Config struct {
	// M is the bit-vector length. The paper's evaluation uses 256.
	M int
	// K is the number of hash functions. The paper's evaluation uses 4.
	K int
	// Initial is the value C a counter is set to on insertion.
	Initial float64
	// DecayPerMinute is the decaying factor (DF): the amount subtracted
	// from every non-zero counter per minute of elapsed time. Zero disables
	// decay (the DF = 0 configuration of Fig. 9).
	DecayPerMinute float64
}

func (c Config) validate() error {
	if c.Initial <= 0 {
		return fmt.Errorf("tcbf: initial counter value must be positive, got %g", c.Initial)
	}
	if c.DecayPerMinute < 0 {
		return fmt.Errorf("tcbf: decay factor must be non-negative, got %g", c.DecayPerMinute)
	}
	return nil
}

// Validate reports whether New would accept the configuration: the
// counter scale and decay factor must be usable and the geometry must be
// accepted by the hasher. It is exposed so higher layers — notably the
// engine's Config.Validate — can reject an inconsistent configuration
// before any filter is built or any engine state depends on it.
func (c Config) Validate() error {
	if err := c.validate(); err != nil {
		return err
	}
	if _, err := hashkit.New(c.M, c.K); err != nil {
		return fmt.Errorf("tcbf: filter geometry (%d,%d): %w", c.M, c.K, err)
	}
	return nil
}

// Filter is a Temporal Counting Bloom Filter. It is not safe for concurrent
// use; in the simulator each node owns its filters.
type Filter struct {
	hasher  hashkit.Hasher
	words   []uint64 // packed 16-bit tick lanes, four per word (packed.go)
	cfg     Config
	last    time.Duration
	merged  bool
	scratch []uint32

	quantum    float64 // counter units per tick: Initial / initTicks
	invQuantum float64 // ticks per counter unit
	tickNanos  int64   // elapsed nanoseconds per tick of decay; 0 when DF == 0

	pendingNanos int64  // elapsed decay time not yet converted into whole ticks
	pendingTicks uint32 // whole ticks of decay not yet applied to the words
}

// New returns an empty TCBF configured by cfg, with its clock at now.
func New(cfg Config, now time.Duration) (*Filter, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	hasher, err := hashkit.New(cfg.M, cfg.K)
	if err != nil {
		return nil, fmt.Errorf("tcbf: %w", err)
	}
	f := &Filter{
		hasher:  hasher,
		words:   make([]uint64, wordsFor(cfg.M)),
		cfg:     cfg,
		last:    now,
		scratch: make([]uint32, 0, cfg.K),
		quantum: cfg.Initial / initTicks,
	}
	f.invQuantum = initTicks / cfg.Initial
	f.tickNanos = tickNanosFor(f.quantum, cfg.DecayPerMinute)
	return f, nil
}

// tickNanosFor returns how many nanoseconds must elapse for one tick of
// decay: the time DF takes to erode one quantum of counter value. Decay is
// then pure integer arithmetic — floor(elapsed/tickNanos) ticks with the
// remainder carried — so splitting an interval across Advance calls decays
// exactly as much as one combined call.
//
//bsub:hotpath
func tickNanosFor(quantum, perMinute float64) int64 {
	if perMinute <= 0 {
		return 0
	}
	t := math.Round(quantum / perMinute * float64(time.Minute))
	if t < 1 {
		return 1
	}
	if t >= float64(math.MaxInt64) {
		return math.MaxInt64
	}
	return int64(t)
}

// MustNew is New for parameters known to be valid; it panics on invalid
// input and is intended for tests and package-level defaults.
//
//bsub:coldpath
func MustNew(cfg Config, now time.Duration) *Filter {
	f, err := New(cfg, now)
	if err != nil {
		panic(err)
	}
	return f
}

// M returns the bit-vector length.
//
//bsub:hotpath
func (f *Filter) M() int { return f.hasher.M() }

// K returns the number of hash functions.
//
//bsub:hotpath
func (f *Filter) K() int { return f.hasher.K() }

// Config returns the filter's configuration.
//
//bsub:hotpath
func (f *Filter) Config() Config { return f.cfg }

// Merged reports whether the filter has been the target of a merge and can
// therefore no longer accept direct insertions.
//
//bsub:hotpath
func (f *Filter) Merged() bool { return f.merged }

// SetDecayFactor retunes the DF after settling decay up to now. The paper
// (Section VI-B) recommends adjusting the DF online by observing the
// resulting FPR. Partial progress toward the next tick carries over and is
// re-interpreted at the new rate.
//
//bsub:hotpath
func (f *Filter) SetDecayFactor(perMinute float64, now time.Duration) error {
	if perMinute < 0 {
		return fmt.Errorf("tcbf: decay factor must be non-negative, got %g", perMinute)
	}
	if err := f.Advance(now); err != nil {
		return err
	}
	f.cfg.DecayPerMinute = perMinute
	f.tickNanos = tickNanosFor(f.quantum, perMinute)
	return nil
}

// Advance records decay for the time elapsed since the filter was last
// touched. It is O(1): elapsed time is banked as a pending whole-tick debt
// (plus a sub-tick nanosecond remainder), and the counter words are only
// swept when something next needs them. Every other temporal method calls
// it implicitly; it is exported so callers can settle a filter before
// inspecting counters directly.
//
//bsub:hotpath
func (f *Filter) Advance(now time.Duration) error {
	if err := f.checkClock(now); err != nil {
		return err
	}
	elapsed := now - f.last
	f.last = now
	if elapsed == 0 || f.tickNanos == 0 {
		return nil
	}
	f.pendingNanos += int64(elapsed)
	if f.pendingNanos < 0 {
		// Overflow; a debt this large clears every counter regardless.
		f.pendingNanos = math.MaxInt64
	}
	if f.pendingNanos >= f.tickNanos {
		t := uint64(f.pendingNanos/f.tickNanos) + uint64(f.pendingTicks)
		f.pendingNanos %= f.tickNanos
		if t > laneMax {
			t = laneMax // lanes cannot exceed laneMax, so deeper debt is moot
		}
		f.pendingTicks = uint32(t)
	}
	return nil
}

// checkClock refuses an operation whose clock precedes the filter's.
//
//bsub:hotpath
func (f *Filter) checkClock(now time.Duration) error {
	if now < f.last {
		return fmt.Errorf("%w: filter at %v, operation at %v", ErrClockSkew, f.last, now)
	}
	return nil
}

// settle applies the pending decay debt to the stored words, one saturating
// subtract per four counters.
//
//bsub:hotpath
func (f *Filter) settle() {
	if f.pendingTicks == 0 {
		return
	}
	d := bcast(f.pendingTicks)
	for i, w := range f.words {
		if w != 0 {
			f.words[i] = satSubWord(w, d)
		}
	}
	f.pendingTicks = 0
}

// rawTick returns the stored lane at position p, ignoring pending decay.
//
//bsub:hotpath
func (f *Filter) rawTick(p uint32) uint32 {
	return uint32(f.words[p>>laneShift]>>((p&(lanesPerWord-1))*laneBits)) & laneMask
}

// effTick returns the lane at position p with pending decay applied on the
// fly — the counter value an eager implementation would hold.
//
//bsub:hotpath
func (f *Filter) effTick(p uint32) uint32 {
	if r := f.rawTick(p); r > f.pendingTicks {
		return r - f.pendingTicks
	}
	return 0
}

// setLane stores v into the lane at position p.
//
//bsub:hotpath
func (f *Filter) setLane(p, v uint32) {
	sh := (p & (lanesPerWord - 1)) * laneBits
	f.words[p>>laneShift] = f.words[p>>laneShift]&^(uint64(laneMask)<<sh) | uint64(v)<<sh
}

// PreKey is a key whose hashes — the double-hashing digest that decides
// its filter bits and the routing hash that picks its partition — have
// been computed once up front. Hot paths that probe the same key against
// many filters, or the same filter across many contacts, precompute keys
// at subscription/store time and never touch the key bytes again.
type PreKey struct {
	// Key is the original key string.
	Key string

	dig   hashkit.Digest
	route uint32
}

// Precompute hashes key once for both bit derivation and partition
// routing. The resulting PreKey behaves identically to the plain string
// key in every filter operation.
func Precompute(key string) PreKey {
	return PreKey{Key: key, dig: hashkit.DigestOf(key), route: routeHash(key)}
}

// Insert adds key at time now, setting the counters of its hashed bits to
// the initial value C. Counters that are already non-zero are left
// unchanged ("the results of insertions are always a TCBF with identical
// counters of a value of C"). Inserting into a merged filter returns
// ErrMerged.
func (f *Filter) Insert(key string, now time.Duration) error {
	return f.insertDigest(key, hashkit.DigestOf(key), now)
}

// InsertPre is Insert for a precomputed key.
//
//bsub:hotpath
func (f *Filter) InsertPre(k PreKey, now time.Duration) error {
	return f.insertDigest(k.Key, k.dig, now)
}

//bsub:hotpath
func (f *Filter) insertDigest(key string, d hashkit.Digest, now time.Duration) error {
	if f.merged {
		return fmt.Errorf("insert %q: %w", key, ErrMerged)
	}
	if err := f.Advance(now); err != nil {
		return err
	}
	// Settle before writing: a fresh lane must start its decay from now,
	// not inherit the debt banked before it existed.
	f.settle()
	f.scratch = f.hasher.PositionsDigest(f.scratch[:0], d)
	for _, p := range f.scratch {
		if f.rawTick(p) == 0 {
			f.setLane(p, initTicks)
		}
	}
	return nil
}

// InsertAll inserts each key in keys at time now.
func (f *Filter) InsertAll(keys []string, now time.Duration) error {
	for _, k := range keys {
		if err := f.Insert(k, now); err != nil {
			return err
		}
	}
	return nil
}

// InsertAllPre inserts every precomputed key at time now in a single pass:
// one clock advance, one decay settlement, then back-to-back lane writes —
// the batch path an engine contact uses for its whole message set.
//
//bsub:hotpath
func (f *Filter) InsertAllPre(keys []PreKey, now time.Duration) error {
	if len(keys) == 0 {
		return f.Advance(now)
	}
	if f.merged {
		return fmt.Errorf("insert %q: %w", keys[0].Key, ErrMerged)
	}
	if err := f.Advance(now); err != nil {
		return err
	}
	f.settle()
	for i := range keys {
		f.scratch = f.hasher.PositionsDigest(f.scratch[:0], keys[i].dig)
		for _, p := range f.scratch {
			if f.rawTick(p) == 0 {
				f.setLane(p, initTicks)
			}
		}
	}
	return nil
}

// Contains answers the existential query: it reports whether key may be in
// the filter at time now. The TCBF bears the same FPR as the classic BF for
// existential queries, but the FPR tends to decrease over time as decayed
// elements are removed.
func (f *Filter) Contains(key string, now time.Duration) (bool, error) {
	return f.containsDigest(hashkit.DigestOf(key), now)
}

// ContainsPre is Contains for a precomputed key.
//
//bsub:hotpath
func (f *Filter) ContainsPre(k PreKey, now time.Duration) (bool, error) {
	return f.containsDigest(k.dig, now)
}

//bsub:hotpath
func (f *Filter) containsDigest(d hashkit.Digest, now time.Duration) (bool, error) {
	if err := f.Advance(now); err != nil {
		return false, err
	}
	return f.containsAdvanced(d), nil
}

// containsAdvanced answers the existential query against an already-advanced
// filter without settling: a lane survives pending decay iff it exceeds the
// pending debt.
//
//bsub:hotpath
func (f *Filter) containsAdvanced(d hashkit.Digest) bool {
	f.scratch = f.hasher.PositionsDigest(f.scratch[:0], d)
	for _, p := range f.scratch {
		if f.rawTick(p) <= f.pendingTicks {
			return false
		}
	}
	return true
}

// ContainsAnyPre reports whether at least one precomputed key may be in the
// filter at time now, advancing the clock once for the whole batch — the
// one-pass probe an engine contact runs over its message set.
//
//bsub:hotpath
func (f *Filter) ContainsAnyPre(keys []PreKey, now time.Duration) (bool, error) {
	if err := f.Advance(now); err != nil {
		return false, err
	}
	for i := range keys {
		if f.containsAdvanced(keys[i].dig) {
			return true, nil
		}
	}
	return false, nil
}

// MinCounter returns the minimum counter value over key's hashed bits at
// time now; it is zero when the key is absent. A key's remaining lifetime
// under decay is MinCounter/DF, which is why the minimum (not the sum)
// defines both removal (Section IV-A) and preference.
func (f *Filter) MinCounter(key string, now time.Duration) (float64, error) {
	return f.minCounterDigest(hashkit.DigestOf(key), now)
}

// MinCounterPre is MinCounter for a precomputed key.
//
//bsub:hotpath
func (f *Filter) MinCounterPre(k PreKey, now time.Duration) (float64, error) {
	return f.minCounterDigest(k.dig, now)
}

//bsub:hotpath
func (f *Filter) minCounterDigest(d hashkit.Digest, now time.Duration) (float64, error) {
	if err := f.Advance(now); err != nil {
		return 0, err
	}
	f.scratch = f.hasher.PositionsDigest(f.scratch[:0], d)
	minT := uint32(laneMax + 1)
	for _, p := range f.scratch {
		if t := f.effTick(p); t < minT {
			minT = t
		}
	}
	if minT > laneMax {
		return 0, nil
	}
	return float64(minT) * f.quantum, nil
}

// mergeCheck validates that two filters can be combined and advances both
// clocks to now. Filters must also agree on the counter scale (Initial):
// tick counts quantized against different C values are not comparable.
//
//bsub:hotpath
func (f *Filter) mergeCheck(other *Filter, now time.Duration) error {
	if f.M() != other.M() || f.K() != other.K() {
		return fmt.Errorf("%w: (%d,%d) vs (%d,%d)", ErrGeometry, f.M(), f.K(), other.M(), other.K())
	}
	if f.cfg.Initial != other.cfg.Initial {
		return fmt.Errorf("%w: counter scale C=%g vs C=%g", ErrGeometry, f.cfg.Initial, other.cfg.Initial)
	}
	// Check both clocks before advancing either, so a refused merge
	// leaves f as it was.
	if err := other.checkClock(now); err != nil {
		return err
	}
	if err := f.Advance(now); err != nil {
		return err
	}
	return other.Advance(now)
}

// AMerge merges other into f additively: the bit-vectors are OR-ed and the
// counters summed, saturating at the lane maximum (32x the insertion value
// C). Used when a broker absorbs a consumer's genuine filter, so that
// repeated meetings reinforce the consumer's interests (Section V-C). Both
// filters' pending decay is folded into the merge pass; f becomes a merged
// filter.
//
//bsub:hotpath
func (f *Filter) AMerge(other *Filter, now time.Duration) error {
	if err := f.mergeCheck(other, now); err != nil {
		return err
	}
	fw := f.words
	if f.pendingTicks == 0 && other.pendingTicks == 0 {
		// Nothing to fold: pure word-parallel sum, skipping empty source
		// words (satAddWord(a, 0) == a for guard-clear lanes).
		for i, b := range other.words {
			if b != 0 {
				fw[i] = satAddWord(fw[i], b)
			}
		}
	} else {
		pf, po := bcast(f.pendingTicks), bcast(other.pendingTicks)
		for i, b := range other.words {
			fw[i] = satAddWord(satSubWord(fw[i], pf), satSubWord(b, po))
		}
		f.pendingTicks = 0
	}
	f.merged = true
	return nil
}

// MMerge merges other into f by taking the counter-wise maximum. Used
// between brokers so frequently-meeting broker pairs do not inflate each
// other's counters in a loop (the bogus-counter problem of Fig. 6). Both
// filters' pending decay is folded into the merge pass; f becomes a merged
// filter.
//
//bsub:hotpath
func (f *Filter) MMerge(other *Filter, now time.Duration) error {
	if err := f.mergeCheck(other, now); err != nil {
		return err
	}
	fw := f.words
	if f.pendingTicks == 0 && other.pendingTicks == 0 {
		// Nothing to fold: pure word-parallel max, skipping empty source
		// words (maxWord(a, 0) == a for guard-clear lanes).
		for i, b := range other.words {
			if b != 0 {
				fw[i] = maxWord(fw[i], b)
			}
		}
	} else {
		pf, po := bcast(f.pendingTicks), bcast(other.pendingTicks)
		for i, b := range other.words {
			fw[i] = maxWord(satSubWord(fw[i], pf), satSubWord(b, po))
		}
		f.pendingTicks = 0
	}
	f.merged = true
	return nil
}

// Preference implements the preferential query of Section IV-A: for key x
// it compares peer's minimum counter f against self's minimum counter g and
// returns f-g when g is non-zero, or f when g is zero. A positive
// preference means the peer is a better carrier for messages matching x.
func Preference(key string, peer, self *Filter, now time.Duration) (float64, error) {
	return preferenceDigest(hashkit.DigestOf(key), peer, self, now)
}

// PreferencePre is Preference for a precomputed key.
//
//bsub:hotpath
func PreferencePre(k PreKey, peer, self *Filter, now time.Duration) (float64, error) {
	return preferenceDigest(k.dig, peer, self, now)
}

//bsub:hotpath
func preferenceDigest(d hashkit.Digest, peer, self *Filter, now time.Duration) (float64, error) {
	pf, err := peer.minCounterDigest(d, now)
	if err != nil {
		return 0, fmt.Errorf("peer: %w", err)
	}
	g, err := self.minCounterDigest(d, now)
	if err != nil {
		return 0, fmt.Errorf("self: %w", err)
	}
	if g == 0 {
		return pf, nil
	}
	return pf - g, nil
}

// Counter returns the counter at bit position p; p must be in [0, M). The
// value reflects the last Advance'd clock, with any still-pending decay
// applied on the fly.
func (f *Filter) Counter(p int) float64 {
	return float64(f.effTick(uint32(p))) * f.quantum
}

// SetBits returns the number of positions with non-zero counters as of the
// last Advance'd clock, four lanes per popcount.
//
//bsub:hotpath
func (f *Filter) SetBits() int {
	d := bcast(f.pendingTicks)
	n := 0
	for _, w := range f.words {
		if w != 0 {
			n += bits.OnesCount64(nzLanes(satSubWord(w, d)))
		}
	}
	return n
}

// FillRatio returns the ratio of set bits to vector length.
//
//bsub:hotpath
func (f *Filter) FillRatio() float64 {
	return float64(f.SetBits()) / float64(f.M())
}

// EstimatedFPR estimates the existential-query false-positive rate from the
// observed fill ratio (FillRatio^K).
//
//bsub:hotpath
func (f *Filter) EstimatedFPR() float64 {
	return math.Pow(f.FillRatio(), float64(f.K()))
}

// Clone returns a deep copy of the filter, preserving clock, merge status,
// counters, and pending decay.
func (f *Filter) Clone() *Filter {
	c := &Filter{
		hasher:       f.hasher,
		words:        make([]uint64, len(f.words)),
		cfg:          f.cfg,
		last:         f.last,
		merged:       f.merged,
		scratch:      make([]uint32, 0, f.cfg.K),
		quantum:      f.quantum,
		invQuantum:   f.invQuantum,
		tickNanos:    f.tickNanos,
		pendingNanos: f.pendingNanos,
		pendingTicks: f.pendingTicks,
	}
	copy(c.words, f.words)
	return c
}

// Reset clears all counters, pending decay, and the merged flag and sets
// the clock to now, returning the filter to the state New would produce —
// which is what lets scratch filters be reused across contacts instead of
// reallocated.
//
//bsub:hotpath
func (f *Filter) Reset(now time.Duration) {
	for i := range f.words {
		f.words[i] = 0
	}
	f.merged = false
	f.last = now
	f.pendingNanos = 0
	f.pendingTicks = 0
}
