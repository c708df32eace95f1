package tcbf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"
)

// CounterMode selects how much counter information accompanies a filter on
// the wire (Section VI-C's optimizations).
type CounterMode uint8

const (
	// CountersNone strips counters entirely: the receiver only needs
	// membership, e.g. a broker requesting messages from a producer. The
	// paper: "it does not need to report the counters, which cuts the size".
	// This form is the classic Bloom filter of Section III.
	CountersNone CounterMode = iota + 1
	// CountersUniform transmits a single counter value shared by all set
	// bits, e.g. a freshly built genuine filter whose counters all equal C.
	// The paper: "If all the counters of a filter are identical, we merely
	// save one value".
	CountersUniform
	// CountersFull transmits one quantized byte per set bit, the general
	// case for relay filters.
	CountersFull
)

const (
	wireMagic   = 0xB5
	flagBitmap  = 0x04 // bit-vector sent raw instead of as a location list
	counterBits = 8    // "We use a 1-byte counter" (Section VI-C)
	// maxWireM caps the bit-vector length a decoder will allocate for; a
	// hostile header must not be able to demand gigabytes. Far above any
	// realistic TCBF (the paper uses 256 bits).
	maxWireM = 1 << 24
)

var (
	// ErrCorrupt is returned by Decode for malformed input.
	ErrCorrupt = errors.New("tcbf: corrupt encoding")

	// ErrNotUniform is returned by Encode in CountersUniform mode when the
	// filter's set counters are not all equal: flattening them to a single
	// value would silently discard reinforcement state. Encode with
	// CountersFull instead.
	ErrNotUniform = errors.New("tcbf: counters not uniform")
)

// Encode serializes the filter's set bits (and, per mode, counters) into
// the compact wire format of Section VI-C. Instead of shipping the raw
// m-bit vector, the encoder writes the locations of the set bits, each in
// ceil(log2 m) bits, whenever that is smaller (n_set * ceil(log2 m) < m);
// otherwise it falls back to the raw bitmap. Counters are quantized to one
// byte relative to the filter's maximum counter.
//
// Pending decay is settled into the stored counters first (see
// EncodeTo), so the bytes always reflect the last Advance'd clock.
func (f *Filter) Encode(mode CounterMode) ([]byte, error) {
	return f.EncodeTo(nil, mode)
}

// EncodeTo appends the filter's wire encoding to dst and returns the
// extended slice — the same bytes Encode produces, but into a
// caller-reused buffer, so a warm hot path encodes without allocating.
//
// EncodeTo settles pending decay into the stored counters as it scans
// them, so it is a mutating call under the same single-owner rule as a
// merge: it must not run concurrently with any other use of the filter.
// The settlement is exact (saturating subtraction composes), so no query,
// merge or later encoding can observe it.
//
// In CountersUniform mode the filter's set counters must actually be
// uniform; ErrNotUniform is returned otherwise.
//
//bsub:hotpath
func (f *Filter) EncodeTo(dst []byte, mode CounterMode) ([]byte, error) {
	dst, _, err := f.encodeTo(dst, mode)
	return dst, err
}

// checkMode rejects a CounterMode outside the three defined ones.
//
//bsub:hotpath
func checkMode(mode CounterMode) error {
	if mode < CountersNone || mode > CountersFull {
		return fmt.Errorf("tcbf: unknown counter mode %d", mode)
	}
	return nil
}

// wireStats is what a filter's encoding depends on besides the counters
// themselves: the set-bit count, the largest counter in ticks (zero in
// CountersNone mode), the location layout, and the exact encoded size.
type wireStats struct {
	nSet      int
	maxT      uint32
	useBitmap bool
	locBits   int // bits per listed location, ceil(log2 m)
	locLen    int
	size      int
}

// statsScan is the pass every encoding starts with, and all that
// WireSize runs: one pass over the counter words that settles pending
// decay in place and yields everything the output size depends on.
// Popcount of the lane flags counts set bits; when the mode carries
// counters, a running maxWord accumulates the per-lane maximum, and in
// uniform mode uniformity is a whole-word compare against the first
// value broadcast into every non-zero lane. Settled words are written
// back, so the emission pass (and every later operation) reads effective
// counters directly.
//
//bsub:hotpath
func (f *Filter) statsScan(mode CounterMode) (wireStats, error) {
	var st wireStats
	if err := checkMode(mode); err != nil {
		return st, err
	}
	words := f.words
	pend := bcast(f.pendingTicks)
	f.pendingTicks = 0
	nSet := 0
	var accMax, firstW uint64
	uniformT := true
	for i, w := range words {
		if pend != 0 {
			w = satSubWord(w, pend)
			words[i] = w
		}
		nz := nzLanes(w)
		nSet += bits.OnesCount64(nz)
		if mode == CountersNone {
			continue // membership only: no scale, no uniformity
		}
		accMax = maxWord(accMax, w)
		if mode == CountersUniform && w != 0 {
			if firstW == 0 {
				firstW = bcast(uint32(w>>uint(bits.TrailingZeros64(nz))) & laneMask)
			}
			if w != firstW&(nz*laneMask) {
				uniformT = false
			}
		}
	}
	maxT := uint32(accMax) & laneMask
	for s := laneBits; s < 64; s += laneBits {
		if v := uint32(accMax>>s) & laneMask; v > maxT {
			maxT = v
		}
	}
	if mode == CountersUniform && !uniformT {
		return st, fmt.Errorf("%w: %d set counters span multiple values", ErrNotUniform, nSet)
	}

	// The output size: an 11-byte header, the locations, and per mode an
	// 8-byte scale plus one byte per set counter.
	m := f.M()
	st.nSet, st.maxT, st.locBits = nSet, maxT, bitsFor(m)
	st.useBitmap = nSet*st.locBits >= m
	st.locLen = (nSet*st.locBits + 7) / 8
	if st.useBitmap {
		st.locLen = (m + 7) / 8
	}
	st.size = 11 + st.locLen
	switch mode {
	case CountersUniform:
		st.size += 8
	case CountersFull:
		st.size += 8 + nSet
	}
	return st, nil
}

// encodeTo is EncodeTo that also returns the encoded set-bit count, which
// lets the partitioned encoder drop an empty partition's body without a
// separate emptiness scan. It makes two passes over the counter words:
// statsScan, then one emission pass that writes the locations (list or
// bitmap) and the counter bytes at precomputed offsets of a buffer grown
// once.
//
//bsub:hotpath
func (f *Filter) encodeTo(dst []byte, mode CounterMode) ([]byte, int, error) {
	st, err := f.statsScan(mode)
	if err != nil {
		return nil, 0, err
	}
	nSet, locBits, locLen := st.nSet, st.locBits, st.locLen
	start := len(dst)
	if cap(dst)-start < st.size {
		dst = growBuf(dst, st.size)
	}
	dst = dst[:start+st.size]
	out := dst[start:]

	m := f.M()
	out[0] = wireMagic
	out[1] = byte(mode)
	if st.useBitmap {
		out[1] |= flagBitmap
	}
	binary.BigEndian.PutUint32(out[2:], uint32(m))
	out[6] = byte(f.K())
	binary.BigEndian.PutUint32(out[7:], uint32(nSet))
	loc, ctr := out[11:11+locLen], out[11+locLen:]
	if mode != CountersNone {
		binary.BigEndian.PutUint64(ctr, math.Float64bits(float64(st.maxT)*f.quantum))
		ctr = ctr[8:]
	}
	if nSet == 0 {
		return dst, 0, nil
	}

	// Emission pass: one walk over the settled words writes each set
	// counter's location and, in full mode, its quantized byte next to
	// it. The bitmap gets each word's lane flags as a 4-bit group; the
	// list packs each position in locBits bits, MSB first, draining the
	// accumulator a byte at a time (locBits <= 24 for any decodable
	// geometry, so it never fills).
	words := f.words
	full := mode == CountersFull
	qs := 255.0 / float64(st.maxT) // hoisted reciprocal; maxT > 0 when nSet > 0
	ci := 0
	if st.useBitmap {
		clear(loc)
		for wi, w := range words {
			if w == 0 {
				continue
			}
			nz := nzLanes(w)
			// Lane flags sit at bits 0,16,32,48; fold them to bits 0..3.
			loc[wi/2] |= byte((nz|nz>>15|nz>>30|nz>>45)&0xF) << (lanesPerWord * (wi % 2))
			for ; full && nz != 0; nz &= nz - 1 {
				ctr[ci] = quantizeTick(uint32(w>>bits.TrailingZeros64(nz))&laneMask, qs)
				ci++
			}
		}
		return dst, nSet, nil
	}
	var cur uint64
	ncur, li := 0, 0
	for wi, w := range words {
		if w == 0 {
			continue
		}
		for nz := nzLanes(w); nz != 0; nz &= nz - 1 {
			sh := bits.TrailingZeros64(nz)
			cur = cur<<locBits | uint64(wi*lanesPerWord+sh/laneBits)
			ncur += locBits
			for ncur >= 8 {
				ncur -= 8
				loc[li] = byte(cur >> ncur)
				li++
			}
			if full {
				ctr[ci] = quantizeTick(uint32(w>>sh)&laneMask, qs)
				ci++
			}
		}
	}
	if ncur > 0 {
		loc[li] = byte(cur << (8 - ncur))
	}
	return dst, nSet, nil
}

// growBuf returns dst with room for n more bytes: the amortized growth of
// a caller's reused encode buffer, which a warm buffer never reaches.
//
//bsub:coldpath
func growBuf(dst []byte, n int) []byte { return slices.Grow(dst, n) }

// wireHeader is the parsed fixed-size prefix of a filter encoding.
type wireHeader struct {
	mode   CounterMode
	bitmap bool
	m, k   int
	nSet   int
	body   []byte
}

// parseHeader validates the fixed 11-byte header and returns it with the
// remaining body bytes.
//
//bsub:hotpath
func parseHeader(data []byte) (wireHeader, error) {
	var h wireHeader
	if len(data) < 11 {
		return h, fmt.Errorf("%w: truncated header (%d bytes)", ErrCorrupt, len(data))
	}
	if data[0] != wireMagic {
		return h, fmt.Errorf("%w: bad magic 0x%02x", ErrCorrupt, data[0])
	}
	flags := data[1]
	h.mode = CounterMode(flags &^ flagBitmap)
	if h.mode < CountersNone || h.mode > CountersFull {
		return h, fmt.Errorf("%w: unknown counter mode %d", ErrCorrupt, h.mode)
	}
	h.bitmap = flags&flagBitmap != 0
	h.m = int(binary.BigEndian.Uint32(data[2:6]))
	h.k = int(data[6])
	h.nSet = int(binary.BigEndian.Uint32(data[7:11]))
	if h.m > maxWireM {
		return h, fmt.Errorf("%w: bit-vector length %d exceeds decoder cap %d", ErrCorrupt, h.m, maxWireM)
	}
	if h.nSet > h.m {
		return h, fmt.Errorf("%w: %d set bits exceed vector length %d", ErrCorrupt, h.nSet, h.m)
	}
	h.body = data[11:]
	return h, nil
}

// Decode reconstructs a filter from data. The decay configuration (initial
// value and DF) is not on the wire — peers running the same protocol share
// it — so the caller supplies cfg's Initial and DecayPerMinute; M and K are
// read from the wire and must match cfg when cfg specifies them (non-zero).
// The decoded filter's clock starts at now and it is marked merged, since
// its provenance is unknown.
//
// Filters encoded with CountersNone decode with every set counter equal to
// cfg.Initial. Wire counter values are re-quantized to the receiver's tick
// scale (cfg.Initial/1024 per tick), clamped to [1 tick, 32*Initial].
func Decode(data []byte, cfg Config, now time.Duration) (*Filter, error) {
	h, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	if cfg.M != 0 && cfg.M != h.m {
		return nil, fmt.Errorf("%w: wire m=%d, expected %d", ErrCorrupt, h.m, cfg.M)
	}
	if cfg.K != 0 && cfg.K != h.k {
		return nil, fmt.Errorf("%w: wire k=%d, expected %d", ErrCorrupt, h.k, cfg.K)
	}
	cfg.M, cfg.K = h.m, h.k
	f, err := New(cfg, now)
	if err != nil {
		return nil, err
	}
	if err := f.decodeBody(h); err != nil {
		return nil, err
	}
	return f, nil
}

// DecodeInto reconstructs a filter from data in place, reusing f's counter
// slab instead of allocating a fresh filter — the hot-path variant of
// Decode for a scratch filter reused across contacts. The wire geometry
// must match f's (the protocol fixes m and k globally); on any error f is
// left in an unspecified state and must be Reset before reuse. As with
// Decode, f's clock restarts at now and f is marked merged.
//
//bsub:hotpath
func (f *Filter) DecodeInto(data []byte, now time.Duration) error {
	h, err := parseHeader(data)
	if err != nil {
		return err
	}
	if h.m != f.M() || h.k != f.K() {
		return fmt.Errorf("%w: wire geometry (%d,%d), filter has (%d,%d)",
			ErrCorrupt, h.m, h.k, f.M(), f.K())
	}
	f.Reset(now)
	return f.decodeBody(h)
}

// decodeBody fills a zeroed filter of matching geometry from a parsed
// encoding, marking it merged. Locations and counters stream through in
// one paired pass, each lane OR-ed into its (zero) word. List-mode
// locations must be strictly increasing — the encoder only emits them in
// ascending order — so a decoded filter always has exactly the header's
// set-bit count, as the bitmap check already guarantees in bitmap mode.
// It allocates nothing.
//
//bsub:hotpath
func (f *Filter) decodeBody(h wireHeader) error {
	f.merged = true
	body := h.body
	locBits := bitsFor(h.m)
	locEnd := (h.nSet*locBits + 7) / 8
	if h.bitmap {
		locEnd = (h.m + 7) / 8
		if len(body) < locEnd {
			return fmt.Errorf("%w: truncated bitmap", ErrCorrupt)
		}
		if tail := h.m & 7; tail != 0 && body[locEnd-1]>>tail != 0 {
			return fmt.Errorf("%w: bitmap bits beyond vector length", ErrCorrupt)
		}
		found := 0
		for off := 0; off < locEnd; off += 8 {
			found += bits.OnesCount64(bitmapChunk(body[:locEnd], off))
		}
		if found != h.nSet {
			return fmt.Errorf("%w: bitmap has %d set bits, header says %d", ErrCorrupt, found, h.nSet)
		}
	} else if len(body) < locEnd {
		return fmt.Errorf("%w: truncated location list", ErrCorrupt)
	}

	// Determine the counter value source before walking the positions, so
	// positions and counters stream through in one paired pass. The wire
	// carries counter units; they become ticks at the receiver's scale.
	uniformTick := uint32(0)
	scale := 0.0 // ticks per quantized-byte unit, CountersFull only
	counters := []byte(nil)
	switch h.mode {
	case CountersNone:
		uniformTick = initTicks
	case CountersUniform:
		if len(body) < locEnd+8 {
			return fmt.Errorf("%w: truncated uniform counter", ErrCorrupt)
		}
		u := math.Float64frombits(binary.BigEndian.Uint64(body[locEnd:]))
		// Zero is only legal on an empty filter: a "set" bit with a zero
		// counter is a contradiction (decay would have cleared the bit).
		if u < 0 || (u == 0 && h.nSet > 0) || math.IsNaN(u) || math.IsInf(u, 0) {
			return fmt.Errorf("%w: bad counter value %g", ErrCorrupt, u)
		}
		if h.nSet > 0 {
			uniformTick = f.tickFromValue(u)
		}
	case CountersFull:
		if len(body) < locEnd+8+h.nSet {
			return fmt.Errorf("%w: truncated counters", ErrCorrupt)
		}
		maxC := math.Float64frombits(binary.BigEndian.Uint64(body[locEnd:]))
		if maxC < 0 || (maxC == 0 && h.nSet > 0) || math.IsNaN(maxC) || math.IsInf(maxC, 0) {
			return fmt.Errorf("%w: bad counter scale %g", ErrCorrupt, maxC)
		}
		counters = body[locEnd+8 : locEnd+8+h.nSet]
		scale = maxC / 255 * f.invQuantum
	}

	words := f.words
	loc := body[:locEnd]
	if h.bitmap {
		i := 0
		for off := 0; off < len(loc); off += 8 {
			for x := bitmapChunk(loc, off); x != 0; x &= x - 1 {
				p := off*8 + bits.TrailingZeros64(x)
				t := uniformTick
				if counters != nil {
					q := counters[i]
					i++
					if q == 0 {
						// The encoder reserves 0 for unset; a zero byte for
						// a set bit is always corruption.
						return fmt.Errorf("%w: zero counter byte for set bit %d", ErrCorrupt, p)
					}
					t = tickFromScaled(q, scale)
				}
				words[p>>laneShift] |= uint64(t) << (uint(p&(lanesPerWord-1)) * laneBits)
			}
		}
		return nil
	}

	// Location list: an MSB-first bit accumulator refilled a byte at a
	// time holds at most locBits+7 live bits, well inside the word.
	mask := uint64(1)<<locBits - 1
	var acc uint64
	nacc, bi, prev := 0, 0, -1
	for i := 0; i < h.nSet; i++ {
		for nacc < locBits {
			acc = acc<<8 | uint64(loc[bi])
			bi++
			nacc += 8
		}
		nacc -= locBits
		p := int(acc >> nacc & mask)
		if p >= h.m || p <= prev {
			return fmt.Errorf("%w: location %d out of range or order", ErrCorrupt, p)
		}
		prev = p
		t := uniformTick
		if counters != nil {
			q := counters[i]
			if q == 0 {
				return fmt.Errorf("%w: zero counter byte for set bit %d", ErrCorrupt, p)
			}
			t = tickFromScaled(q, scale)
		}
		words[p>>laneShift] |= uint64(t) << (uint(p&(lanesPerWord-1)) * laneBits)
	}
	return nil
}

// bitmapChunk returns the 64 bitmap bits starting at byte off — bitmap
// bit p at bit p-8*off — reading past the end of loc as zeros.
//
//bsub:hotpath
func bitmapChunk(loc []byte, off int) uint64 {
	if len(loc)-off >= 8 {
		return binary.LittleEndian.Uint64(loc[off:])
	}
	var x uint64
	for k := len(loc) - 1; k >= off; k-- {
		x = x<<8 | uint64(loc[k])
	}
	return x
}

// WireSize returns the number of bytes Encode would produce in the given
// mode, without producing them: it runs only the encoder's stats scan.
// Like EncodeTo it settles pending decay in place, so it leaves the
// filter in the state an encoding would, under the same single-owner
// rule. The simulator charges a relay advert nobody will match with it
// (engine.Session.RelayAdvertSize).
//
//bsub:hotpath
func (f *Filter) WireSize(mode CounterMode) (int, error) {
	st, err := f.statsScan(mode)
	return st.size, err
}

// PaperWireBits returns the Section VI-C analytic size, in bits, of a
// filter with nSet set bits over an m-bit vector: the set-bit locations
// (ceil(log2 m) bits each, or the raw bitmap when smaller) plus counters
// per mode. It excludes framing overhead and is used by the memory
// experiment (M1) to match the paper's accounting.
func PaperWireBits(nSet, m int, mode CounterMode) int {
	locBits := nSet * bitsFor(m)
	if locBits >= m {
		locBits = m
	}
	switch mode {
	case CountersNone:
		return locBits
	case CountersUniform:
		return locBits + counterBits
	default:
		return locBits + nSet*counterBits
	}
}

// quantizeTick maps a tick count v in [1, max] to a wire byte in [1, 255]
// by rounding v*255/max, reserving 0 for unset so that a set bit never
// round-trips to unset. qs is the caller-hoisted reciprocal 255/max, which
// turns the per-byte division into a multiply. The product v*qs is
// rounded twice (once in qs), so this is not exactly the integer
// round-half-up formula (v*510+max)/(2*max): when v*255/max is exactly a
// half-integer and max is not a power of two, v*qs can land an ulp below
// it and round down (v=25, max=50 gives 127, not 128) — 6451 of the
// 5.4e8 (v, max) pairs with max <= laneMax. The bytes this produces are
// the wire format peers already exchange, so the rule stays as it is.
//
//bsub:hotpath
func quantizeTick(v uint32, qs float64) byte {
	q := uint32(float64(v)*qs + 0.5)
	if q < 1 {
		q = 1
	}
	return byte(q)
}

// tickFromValue converts a wire counter value (in counter units) to this
// filter's tick scale, clamping to [1, laneMax]: the bit is set on the
// wire, so it must stay set after re-quantization.
//
//bsub:hotpath
func (f *Filter) tickFromValue(c float64) uint32 {
	// c >= 0 here, so truncating c*invQuantum + 0.5 is round-half-up —
	// math.Round without its negative-zero branches.
	t := c*f.invQuantum + 0.5
	if t < 1 {
		return 1
	}
	if t > laneMax {
		return laneMax
	}
	return uint32(t)
}

// tickFromScaled converts a quantized wire byte to ticks given the
// precomputed ticks-per-byte-unit scale, clamping like tickFromValue.
//
//bsub:hotpath
func tickFromScaled(q byte, scale float64) uint32 {
	// q and scale are non-negative, so truncation after +0.5 rounds half up.
	t := float64(q)*scale + 0.5
	if t < 1 {
		return 1
	}
	if t > laneMax {
		return laneMax
	}
	return uint32(t)
}

// bitsFor returns ceil(log2 m) for m >= 1, with a floor of 1 bit.
//
//bsub:hotpath
func bitsFor(m int) int {
	b := 0
	for v := m - 1; v > 0; v >>= 1 {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}
