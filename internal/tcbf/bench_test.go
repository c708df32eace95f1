package tcbf

import (
	"fmt"
	"testing"
	"time"
)

// Hot-path benchmarks for the zero-allocation variants: precomputed-key
// queries, in-place merge targets, and the append/in-place wire codecs.
// BenchmarkEncodeFull/BenchmarkDecodeFull in encode_test.go cover the
// allocating counterparts.

func benchFilter(b *testing.B, keys int) *Filter {
	b.Helper()
	f := MustNew(Config{M: 256, K: 4, Initial: 10, DecayPerMinute: 1}, 0)
	for i := 0; i < keys; i++ {
		if err := f.Insert(fmt.Sprintf("key-%03d", i), 0); err != nil {
			b.Fatal(err)
		}
	}
	return f
}

func BenchmarkInsertPre(b *testing.B) {
	f := benchFilter(b, 0)
	pre := Precompute("bench-key")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Reset(0)
		if err := f.InsertPre(pre, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContainsPre(b *testing.B) {
	f := benchFilter(b, 32)
	pre := Precompute("key-007")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ContainsPre(pre, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMMergeInPlace(b *testing.B) {
	f := benchFilter(b, 32)
	other := benchFilter(b, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.MMerge(other, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeTo(b *testing.B) {
	f := benchFilter(b, 32)
	// Encode once so the timed loop reuses a grown buffer.
	buf, err := f.EncodeTo(nil, CountersFull)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = f.EncodeTo(buf[:0], CountersFull)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeInto(b *testing.B) {
	f := benchFilter(b, 32)
	data, err := f.Encode(CountersFull)
	if err != nil {
		b.Fatal(err)
	}
	dst := MustNew(f.Config(), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dst.DecodeInto(data, time.Duration(0)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionedEncodeTo(b *testing.B) {
	p := MustNewPartitioned(Config{M: 256, K: 4, Initial: 10, DecayPerMinute: 1}, 4, 0)
	for i := 0; i < 64; i++ {
		if err := p.InsertPre(Precompute(fmt.Sprintf("key-%03d", i)), 0); err != nil {
			b.Fatal(err)
		}
	}
	var buf []byte
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = p.EncodeTo(buf[:0], CountersFull)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPopulationCodec is the codec in the regime a large simulated
// population runs it: each op advances one of a few thousand sparse relay
// filters (about a tenth of the bits set, counters spread by staggered
// inserts and reinforcement) by one tick of pending decay, encodes it with
// full counters, decodes that into one warm scratch filter, and encodes
// it again as a counter-less advert — the codec work of one relay
// exchange. Round-robin over the population keeps the encoded filters
// out of cache, as they are when contacts pick nodes at random. The
// population is rebuilt (off the clock) before decay could empty it.
func BenchmarkPopulationCodec(b *testing.B) { populationCodec(b, false) }

// BenchmarkPopulationWireSize is BenchmarkPopulationCodec with the advert
// charged by size only (WireSize), as the simulator charges an advert
// whose peer has nothing to replicate: the stats scan runs, the emission
// pass does not.
func BenchmarkPopulationWireSize(b *testing.B) { populationCodec(b, true) }

// populationCodec runs the population codec benchmark, with the advert
// either encoded or, with sizeOnly, only sized.
func populationCodec(b *testing.B, sizeOnly bool) {
	const (
		filters = 4096
		rounds  = 512 // ticks of decay between rebuilds; counters start >= 1024 ticks
	)
	cfg := Config{M: 256, K: 4, Initial: 10, DecayPerMinute: 0.1}
	tick := time.Duration(tickNanosFor(cfg.Initial/initTicks, cfg.DecayPerMinute))
	pop := make([]*Partitioned, filters)
	var now time.Duration
	build := func() {
		for i := range pop {
			p := MustNewPartitioned(cfg, 1, now)
			boost := MustNewPartitioned(cfg, 1, now)
			for j := 0; j < 6; j++ {
				key := fmt.Sprintf("relay-%d-%d", i, j)
				target := p
				if j%3 == 0 {
					target = boost
				}
				if err := target.InsertPre(Precompute(key), now+time.Duration(j)*tick); err != nil {
					b.Fatal(err)
				}
			}
			if err := p.AMerge(boost, now+8*tick); err != nil {
				b.Fatal(err)
			}
			pop[i] = p
		}
		now += 8 * tick
	}
	build()
	scratch := MustNewPartitioned(cfg, 1, now)
	// Encode every filter once so the timed loop reuses buffers grown to
	// the largest encoding.
	var full, advert []byte
	var err error
	for _, p := range pop {
		if full, err = p.EncodeTo(full[:0], CountersFull); err != nil {
			b.Fatal(err)
		}
		if advert, err = p.EncodeTo(advert[:0], CountersNone); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % filters
		if k == 0 {
			if i/filters%rounds == rounds-1 {
				b.StopTimer()
				build()
				b.StartTimer()
			}
			now += tick
		}
		p := pop[k]
		if err = p.Advance(now); err != nil {
			b.Fatal(err)
		}
		if full, err = p.EncodeTo(full[:0], CountersFull); err != nil {
			b.Fatal(err)
		}
		if err = scratch.DecodeInto(full, now); err != nil {
			b.Fatal(err)
		}
		if sizeOnly {
			_, err = p.WireSize(CountersNone)
		} else {
			advert, err = p.EncodeTo(advert[:0], CountersNone)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
