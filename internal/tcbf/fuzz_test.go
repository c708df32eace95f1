package tcbf

import (
	"encoding/binary"
	"encoding/hex"
	"testing"
	"time"
)

// FuzzDecode hardens the wire decoder against adversarial bytes: it must
// never panic, and any successfully decoded filter must be internally
// consistent and hold exactly the set-bit count its header declares.
func FuzzDecode(f *testing.F) {
	cfg := Config{M: 256, K: 4, Initial: 10, DecayPerMinute: 1}
	seedFilter := MustNew(cfg, 0)
	for _, k := range []string{"a", "b", "c"} {
		if err := seedFilter.Insert(k, 0); err != nil {
			f.Fatal(err)
		}
	}
	for _, mode := range []CounterMode{CountersNone, CountersUniform, CountersFull} {
		data, err := seedFilter.Encode(mode)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{wireMagic})

	// Packed-representation edges: a filter saturated at laneMax by
	// repeated A-merges, a filter one tick away from decaying out
	// (quantization scale boundary), and a float64-era byte stream.
	sat := MustNew(cfg, 0)
	donor := MustNew(cfg, 0)
	for _, k := range []string{"a", "b", "c"} {
		if err := donor.Insert(k, 0); err != nil {
			f.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		if err := sat.AMerge(donor, 0); err != nil {
			f.Fatal(err)
		}
	}
	data, err := sat.Encode(CountersFull)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)

	low := MustNew(cfg, 0)
	if err := low.Insert("a", 0); err != nil {
		f.Fatal(err)
	}
	tick := time.Duration(tickNanosFor(low.quantum, cfg.DecayPerMinute))
	if err := low.Advance(10*time.Minute - tick); err != nil {
		f.Fatal(err)
	}
	if data, err = low.Encode(CountersFull); err != nil {
		f.Fatal(err)
	}
	f.Add(data)

	if old, err := hex.DecodeString(goldenWireFull); err == nil {
		f.Add(old)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := Decode(data, Config{Initial: 10, DecayPerMinute: 1}, 0)
		if err != nil {
			return
		}
		// Whatever decoded must be well-formed: geometry sane, counters
		// non-negative, set-bit count consistent.
		if decoded.M() <= 0 || decoded.K() <= 0 {
			t.Fatalf("decoded filter with geometry (%d,%d)", decoded.M(), decoded.K())
		}
		set := 0
		for p := 0; p < decoded.M(); p++ {
			c := decoded.Counter(p)
			if c < 0 {
				t.Fatalf("negative counter %g at %d", c, p)
			}
			if c > float64(laneMax)*decoded.quantum {
				t.Fatalf("counter %g at %d exceeds the lane saturation cap", c, p)
			}
			if c > 0 {
				set++
			}
		}
		if set != decoded.SetBits() {
			t.Fatalf("SetBits %d != scan %d", decoded.SetBits(), set)
		}
		// Every accepted encoding sets exactly the header's count: the
		// bitmap must carry that many bits and a location list must be
		// strictly increasing, so no duplicate can collapse two entries.
		if nSet := int(binary.BigEndian.Uint32(data[7:11])); set != nSet {
			t.Fatalf("decoded %d set bits, header says %d", set, nSet)
		}
		// Re-encoding a decoded filter must succeed.
		if _, err := decoded.Encode(CountersFull); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
	})
}

// FuzzEncodeDecodeRoundTrip checks membership survival for arbitrary key
// material.
func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	f.Add("key-one", "key-two")
	f.Add("", "日本語")
	f.Fuzz(func(t *testing.T, k1, k2 string) {
		cfg := Config{M: 128, K: 3, Initial: 5, DecayPerMinute: 0.5}
		filter := MustNew(cfg, 0)
		if err := filter.Insert(k1, 0); err != nil {
			t.Fatal(err)
		}
		if err := filter.Insert(k2, 0); err != nil {
			t.Fatal(err)
		}
		data, err := filter.Encode(CountersFull)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(data, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{k1, k2} {
			ok, err := got.Contains(k, 0)
			if err != nil || !ok {
				t.Fatalf("round trip lost %q (err=%v)", k, err)
			}
		}
	})
}
