package tcbf

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestEncodeDecodeRoundTripFull(t *testing.T) {
	cfg := testConfig()
	f := MustNew(cfg, 0)
	keys := []string{"NewMoon", "Twitter'sNew", "funnybutnotcool", "openwebawards"}
	for _, k := range keys {
		mustInsert(t, f, k, 0)
	}
	// Give the counters distinct values via decay + reinforcement.
	refresh := MustNew(cfg, 4*time.Minute)
	mustInsert(t, refresh, "NewMoon", 4*time.Minute)
	if err := f.AMerge(refresh, 4*time.Minute); err != nil {
		t.Fatal(err)
	}

	data, err := f.Encode(CountersFull)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data, cfg, 4*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if got.SetBits() != f.SetBits() {
		t.Fatalf("set bits: got %d, want %d", got.SetBits(), f.SetBits())
	}
	for _, k := range keys {
		ok, err := got.Contains(k, 4*time.Minute)
		if err != nil || !ok {
			t.Errorf("decoded filter lost %q", k)
		}
	}
	// Counters survive within quantization error (max/255).
	for p := 0; p < f.M(); p++ {
		want := f.Counter(p)
		gotC := got.Counter(p)
		if (want == 0) != (gotC == 0) {
			t.Fatalf("bit %d: set-ness changed (%g vs %g)", p, want, gotC)
		}
		if want > 0 && math.Abs(want-gotC) > 16.0/255+1e-9 {
			t.Errorf("bit %d: counter %g decoded as %g", p, want, gotC)
		}
	}
	if !got.Merged() {
		t.Error("decoded filter should be marked merged")
	}
}

func TestEncodeDecodeUniform(t *testing.T) {
	cfg := testConfig()
	f := MustNew(cfg, 0)
	mustInsert(t, f, "a", 0)
	mustInsert(t, f, "b", 0)
	data, err := f.Encode(CountersUniform)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < got.M(); p++ {
		if c := got.Counter(p); c != 0 && c != cfg.Initial {
			t.Errorf("uniform decode: counter %g, want %g", c, cfg.Initial)
		}
	}
}

func TestEncodeDecodeCounterless(t *testing.T) {
	cfg := testConfig()
	f := MustNew(cfg, 0)
	mustInsert(t, f, "a", 0)
	data, err := f.Encode(CountersNone)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := got.Contains("a", 0)
	if err != nil || !ok {
		t.Error("counter-less round trip lost key")
	}
	min, err := got.MinCounter("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if min != cfg.Initial {
		t.Errorf("counter-less decode counter %g, want initial %g", min, cfg.Initial)
	}
}

func TestEncodeEmptyFilter(t *testing.T) {
	cfg := testConfig()
	f := MustNew(cfg, 0)
	for _, mode := range []CounterMode{CountersNone, CountersUniform, CountersFull} {
		data, err := f.Encode(mode)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		got, err := Decode(data, cfg, 0)
		if err != nil {
			t.Fatalf("mode %d decode: %v", mode, err)
		}
		if got.SetBits() != 0 {
			t.Errorf("mode %d: empty filter decoded with %d set bits", mode, got.SetBits())
		}
	}
}

func TestEncodeModesAreOrderedBySize(t *testing.T) {
	f := MustNew(testConfig(), 0)
	for i := 0; i < 8; i++ {
		mustInsert(t, f, fmt.Sprintf("key-%d", i), 0)
	}
	none, _ := f.WireSize(CountersNone)
	uniform, _ := f.WireSize(CountersUniform)
	full, _ := f.WireSize(CountersFull)
	if !(none < uniform && uniform < full) {
		t.Errorf("sizes not ordered: none=%d uniform=%d full=%d", none, uniform, full)
	}
}

func TestEncodeFallsBackToBitmapWhenDense(t *testing.T) {
	// With m=64 and many keys, the location list exceeds the bitmap and the
	// encoder must switch form. Both forms must round-trip.
	cfg := Config{M: 64, K: 4, Initial: 10, DecayPerMinute: 1}
	f := MustNew(cfg, 0)
	for i := 0; i < 40; i++ {
		mustInsert(t, f, fmt.Sprintf("dense-%d", i), 0)
	}
	if f.SetBits()*bitsFor(64) < 64 {
		t.Skip("filter unexpectedly sparse")
	}
	data, err := f.Encode(CountersFull)
	if err != nil {
		t.Fatal(err)
	}
	if data[1]&flagBitmap == 0 {
		t.Error("dense filter did not use bitmap form")
	}
	got, err := Decode(data, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.SetBits() != f.SetBits() {
		t.Errorf("bitmap round trip: %d set bits, want %d", got.SetBits(), f.SetBits())
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	cfg := testConfig()
	f := MustNew(cfg, 0)
	mustInsert(t, f, "k", 0)
	good, err := f.Encode(CountersFull)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		data []byte
	}{
		{name: "empty", data: nil},
		{name: "short header", data: good[:5]},
		{name: "bad magic", data: append([]byte{0x00}, good[1:]...)},
		{name: "truncated body", data: good[:len(good)-3]},
		{name: "bad mode", data: corruptByte(good, 1, 0x00)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(tt.data, cfg, 0); !errors.Is(err, ErrCorrupt) {
				t.Errorf("Decode(%s) error = %v, want ErrCorrupt", tt.name, err)
			}
		})
	}
}

func TestDecodeGeometryMismatch(t *testing.T) {
	f := MustNew(Config{M: 128, K: 2, Initial: 10}, 0)
	mustInsert(t, f, "k", 0)
	data, err := f.Encode(CountersFull)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data, Config{M: 256, K: 2, Initial: 10}, 0); !errors.Is(err, ErrCorrupt) {
		t.Errorf("m mismatch: error = %v, want ErrCorrupt", err)
	}
	if _, err := Decode(data, Config{M: 128, K: 4, Initial: 10}, 0); !errors.Is(err, ErrCorrupt) {
		t.Errorf("k mismatch: error = %v, want ErrCorrupt", err)
	}
	// Zero M/K in cfg means "accept the wire geometry".
	if _, err := Decode(data, Config{Initial: 10}, 0); err != nil {
		t.Errorf("wildcard geometry rejected: %v", err)
	}
}

func TestPaperWireBits(t *testing.T) {
	// Section VII-A: a 256-bit vector with 4 hashes encodes a single key in
	// at most 4 locations x 8 bits = 4 bytes (5 with the uniform counter).
	if got := PaperWireBits(4, 256, CountersNone); got != 32 {
		t.Errorf("single-key location bits = %d, want 32", got)
	}
	if got := PaperWireBits(4, 256, CountersUniform); got != 40 {
		t.Errorf("single-key uniform bits = %d, want 40", got)
	}
	if got := PaperWireBits(4, 256, CountersFull); got != 64 {
		t.Errorf("single-key full bits = %d, want 64", got)
	}
	// Dense filters cap at the raw bitmap.
	if got := PaperWireBits(200, 256, CountersNone); got != 256 {
		t.Errorf("dense filter bits = %d, want bitmap 256", got)
	}
}

func TestBitsFor(t *testing.T) {
	tests := []struct{ m, want int }{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {256, 8}, {257, 9}, {1024, 10},
	}
	for _, tt := range tests {
		if got := bitsFor(tt.m); got != tt.want {
			t.Errorf("bitsFor(%d) = %d, want %d", tt.m, got, tt.want)
		}
	}
}

// bitWriter and bitReader are a longhand, bit-at-a-time MSB-first packer
// pair. EncodeTo and decodeBody pack and unpack location bits inline with
// byte-wide accumulators; this pair is the independent reference the
// longhand wire encoder in model_test.go and the location-list tests
// build on.
type bitWriter struct {
	out  []byte
	cur  uint64
	ncur int
}

func (w *bitWriter) write(v uint64, bits int) {
	for i := bits - 1; i >= 0; i-- {
		w.cur = w.cur<<1 | (v>>uint(i))&1
		w.ncur++
		if w.ncur == 8 {
			w.out = append(w.out, byte(w.cur))
			w.cur, w.ncur = 0, 0
		}
	}
}

func (w *bitWriter) finish() []byte {
	if w.ncur > 0 {
		w.out = append(w.out, byte(w.cur<<uint(8-w.ncur)))
		w.cur, w.ncur = 0, 0
	}
	return w.out
}

type bitReader struct {
	data []byte
	pos  int // bit position
}

func (r *bitReader) read(n int) (uint64, bool) {
	if r.pos+n > len(r.data)*8 {
		return 0, false
	}
	var v uint64
	for i := 0; i < n; i++ {
		v = v<<1 | uint64(r.data[r.pos>>3]>>(7-r.pos&7))&1
		r.pos++
	}
	return v, true
}

func TestBitWriterReaderRoundTrip(t *testing.T) {
	var w bitWriter
	vals := []uint64{0, 1, 255, 13, 200, 7}
	for _, v := range vals {
		w.write(v, 8)
	}
	r := bitReader{data: w.finish()}
	for i, want := range vals {
		got, ok := r.read(8)
		if !ok || got != want {
			t.Errorf("value %d: got %d (ok=%v), want %d", i, got, ok, want)
		}
	}
	if _, ok := r.read(8); ok {
		t.Error("read past end succeeded")
	}
}

func TestBitWriterOddWidths(t *testing.T) {
	var w bitWriter
	vals := []uint64{5, 2, 7, 0, 6, 1}
	for _, v := range vals {
		w.write(v, 3)
	}
	r := bitReader{data: w.finish()}
	for i, want := range vals {
		got, ok := r.read(3)
		if !ok || got != want {
			t.Errorf("value %d: got %d (ok=%v), want %d", i, got, ok, want)
		}
	}
}

// Property: encode/decode round-trips membership for arbitrary key sets in
// all counter modes.
func TestEncodeRoundTripProperty(t *testing.T) {
	cfg := Config{M: 512, K: 4, Initial: 10, DecayPerMinute: 1}
	for _, mode := range []CounterMode{CountersNone, CountersUniform, CountersFull} {
		mode := mode
		prop := func(keys []string) bool {
			f := MustNew(cfg, 0)
			for _, k := range keys {
				_ = f.Insert(k, 0)
			}
			data, err := f.Encode(mode)
			if err != nil {
				return false
			}
			got, err := Decode(data, cfg, 0)
			if err != nil {
				return false
			}
			for _, k := range keys {
				ok, err := got.Contains(k, 0)
				if err != nil || !ok {
					return false
				}
			}
			return got.SetBits() == f.SetBits()
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Errorf("mode %d: %v", mode, err)
		}
	}
}

// Property: Decode never panics on arbitrary byte soup.
func TestDecodeNeverPanicsProperty(t *testing.T) {
	cfg := testConfig()
	prop := func(data []byte) bool {
		_, _ = Decode(data, cfg, 0)
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func corruptByte(data []byte, idx int, val byte) []byte {
	out := make([]byte, len(data))
	copy(out, data)
	out[idx] = val
	return out
}

func BenchmarkEncodeFull(b *testing.B) {
	f := MustNew(Config{M: 256, K: 4, Initial: 10, DecayPerMinute: 1}, 0)
	for i := 0; i < 10; i++ {
		_ = f.Insert(fmt.Sprintf("k%d", i), 0)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = f.Encode(CountersFull)
	}
}

func BenchmarkDecodeFull(b *testing.B) {
	cfg := Config{M: 256, K: 4, Initial: 10, DecayPerMinute: 1}
	f := MustNew(cfg, 0)
	for i := 0; i < 10; i++ {
		_ = f.Insert(fmt.Sprintf("k%d", i), 0)
	}
	data, _ := f.Encode(CountersFull)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = Decode(data, cfg, 0)
	}
}

func TestDecodeRejectsHugeGeometry(t *testing.T) {
	// Regression: a hostile header declaring a multi-gigabyte bit-vector
	// must be rejected before allocation (found by FuzzDecode).
	data := []byte{wireMagic, byte(CountersFull), 0xA5, 0xD9, 0xF2, 0x40, 0x24, 0, 0, 0, 0, 0, 0, 0xA5}
	if _, err := Decode(data, Config{Initial: 10}, 0); !errors.Is(err, ErrCorrupt) {
		t.Errorf("huge-m header: error = %v, want ErrCorrupt", err)
	}
}

// listWire builds a list-mode CountersNone encoding of the given
// positions, in the given order, with the longhand bitWriter.
func listWire(m, k int, pos []int) []byte {
	n := len(pos)
	w := bitWriter{out: []byte{wireMagic, byte(CountersNone),
		byte(m >> 24), byte(m >> 16), byte(m >> 8), byte(m), byte(k),
		byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}}
	for _, p := range pos {
		w.write(uint64(p), refLocBits(m))
	}
	return w.finish()
}

// The inline location reader must unpack every width the encoder can
// emit, and reject lists that are not strictly increasing: a duplicate or
// out-of-order location would leave the decoded filter with fewer set
// bits than the header's count.
func TestDecodeLocationList(t *testing.T) {
	for _, tc := range []struct {
		m   int
		pos []int
	}{
		{2, []int{1}},
		{5, []int{0, 4}},
		{37, []int{0, 1, 17, 36}},
		{256, []int{3, 9, 200, 255}},
		{1000, []int{7, 511, 512, 999}},
		{1 << 20, []int{0, 65535, 1<<20 - 1}},
	} {
		f, err := Decode(listWire(tc.m, 2, tc.pos), Config{Initial: 10}, 0)
		if err != nil {
			t.Fatalf("m=%d %v: %v", tc.m, tc.pos, err)
		}
		if got := f.SetBits(); got != len(tc.pos) {
			t.Fatalf("m=%d: %d set bits, want %d", tc.m, got, len(tc.pos))
		}
		if got, want := f.FillRatio(), float64(len(tc.pos))/float64(tc.m); got != want {
			t.Errorf("m=%d: fill ratio %g, want %g", tc.m, got, want)
		}
		for _, p := range tc.pos {
			if f.Counter(p) != 10 {
				t.Fatalf("m=%d: counter[%d] = %v, want 10", tc.m, p, f.Counter(p))
			}
		}
	}
	for name, pos := range map[string][]int{
		"duplicate":    {3, 9, 9, 40},
		"descending":   {40, 9},
		"out of order": {3, 40, 9, 41},
		"out of range": {3, 64},
	} {
		if _, err := Decode(listWire(64, 2, pos), Config{Initial: 10}, 0); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s list %v: err = %v, want ErrCorrupt", name, pos, err)
		}
	}
}

// Encoding settles pending decay in place, and that must be invisible:
// after encoding, counters, minimum counters, a following merge and a
// second encoding all match an un-encoded clone — with a sub-tick decay
// remainder pending, and across a decay-factor retune.
func TestEncodeIsObservablyPure(t *testing.T) {
	cfg := Config{M: 128, K: 4, Initial: 10, DecayPerMinute: 1}
	keys := []string{"a", "b", "c", "d", "e", "f"}
	pres := preKeys(keys)
	build := func() (*Filter, *Partitioned, *Filter, *Partitioned) {
		f, p := MustNew(cfg, 0), MustNewPartitioned(cfg, 3, 0)
		of, op := MustNew(cfg, 0), MustNewPartitioned(cfg, 3, 0)
		for i, k := range keys {
			at := time.Duration(i) * 50 * time.Second
			dst, pdst := f, p
			if i%3 == 2 {
				dst, pdst = of, op
			}
			if err := dst.Insert(k, at); err != nil {
				t.Fatal(err)
			}
			if err := pdst.InsertPre(pres[i], at); err != nil {
				t.Fatal(err)
			}
		}
		return f, p, of, op
	}
	// Both halves of each pair see the same operations; only the first
	// was encoded beforehand.
	same := func(stage string, f, c *Filter, p, pc *Partitioned, now time.Duration) {
		t.Helper()
		for i := 0; i < f.M(); i++ {
			if f.Counter(i) != c.Counter(i) {
				t.Fatalf("%s: counter[%d] = %v, clone %v", stage, i, f.Counter(i), c.Counter(i))
			}
		}
		for _, k := range pres {
			a, err1 := f.MinCounterPre(k, now)
			b, err2 := c.MinCounterPre(k, now)
			pa, err3 := p.MinCounterPre(k, now)
			pb, err4 := pc.MinCounterPre(k, now)
			if err := errors.Join(err1, err2, err3, err4); err != nil {
				t.Fatal(err)
			}
			if a != b || pa != pb {
				t.Fatalf("%s: MinCounterPre(%s) = %v/%v, clone %v/%v", stage, k.Key, a, pa, b, pb)
			}
		}
		if f.SetBits() != c.SetBits() || p.SetBits() != pc.SetBits() {
			t.Fatalf("%s: SetBits %d/%d, clone %d/%d", stage, f.SetBits(), p.SetBits(), c.SetBits(), pc.SetBits())
		}
	}
	encodeAll := func(f *Filter, p *Partitioned) []byte {
		t.Helper()
		var out []byte
		for _, mode := range []CounterMode{CountersFull, CountersNone} {
			var err error
			if out, err = f.EncodeTo(out, mode); err != nil {
				t.Fatal(err)
			}
			if out, err = p.EncodeTo(out, mode); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}

	for _, additive := range []bool{false, true} {
		f, p, of, op := build()
		// 7m30.123s: whole ticks pending plus a sub-tick remainder.
		now := 7*time.Minute + 30*time.Second + 123*time.Millisecond
		for _, err := range []error{f.Advance(now), p.Advance(now)} {
			if err != nil {
				t.Fatal(err)
			}
		}
		if f.pendingTicks == 0 || f.pendingNanos == 0 {
			t.Fatalf("setup: pending ticks %d, remainder %d ns; want both non-zero", f.pendingTicks, f.pendingNanos)
		}
		c, pc := f.Clone(), p.Clone()
		encodeAll(f, p)
		same("after encode", f, c, p, pc, now)

		// A merge after the encode, at a later clock.
		now += 95*time.Second + 7*time.Millisecond
		oc, opc := of.Clone(), op.Clone()
		merge := func(f, o *Filter, p, op *Partitioned) {
			t.Helper()
			var err1, err2 error
			if additive {
				err1, err2 = f.AMerge(o, now), p.AMerge(op, now)
			} else {
				err1, err2 = f.MMerge(o, now), p.MMerge(op, now)
			}
			if err := errors.Join(err1, err2); err != nil {
				t.Fatal(err)
			}
		}
		merge(f, of, p, op)
		merge(c, oc, pc, opc)
		same("after merge", f, c, p, pc, now)
		if second, want := encodeAll(f, p), encodeAll(c, pc); !bytes.Equal(second, want) {
			t.Fatalf("second encoding %x, un-encoded clone %x", second, want)
		}

		// Pending decay, an encode, then a DF retune and more decay.
		now += 2*time.Minute + 11*time.Millisecond
		for _, err := range []error{f.Advance(now), p.Advance(now)} {
			if err != nil {
				t.Fatal(err)
			}
		}
		c, pc = f.Clone(), p.Clone()
		encodeAll(f, p)
		retune := now + 13*time.Second
		for _, err := range []error{
			f.SetDecayFactor(2.5, retune), p.SetDecayFactor(2.5, retune),
			c.SetDecayFactor(2.5, retune), pc.SetDecayFactor(2.5, retune),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		now = retune + 41*time.Second + 3*time.Millisecond
		same("after retune", f, c, p, pc, now)
		if second, want := encodeAll(f, p), encodeAll(c, pc); !bytes.Equal(second, want) {
			t.Fatalf("after retune: encoding %x, un-encoded clone %x", second, want)
		}
	}
}

// The counter-byte rounding is part of the wire format: a reciprocal
// multiply that rounds a few exact half-way quotients down. Pin it so a
// "fix" to exact integer rounding cannot silently change encoded bytes.
func TestQuantizeTickWireRule(t *testing.T) {
	for _, tc := range []struct {
		v, max uint32
		want   byte
	}{
		{25, 50, 127},     // 127.5 exactly, rounded down by the reciprocal
		{45, 50, 229},     // 229.5 likewise
		{512, 1024, 128},  // 127.5 with an exact (dyadic) reciprocal: up
		{1, 32767, 1},     // floor at 1: a set bit never encodes as unset
		{1024, 1024, 255}, // the maximum always encodes as 255
	} {
		if got := quantizeTick(tc.v, 255/float64(tc.max)); got != tc.want {
			t.Errorf("quantizeTick(%d, 255/%d) = %d, want %d", tc.v, tc.max, got, tc.want)
		}
	}
}
