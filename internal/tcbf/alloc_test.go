//go:build !race

package tcbf

import (
	"testing"
	"time"
)

// Allocation-regression guards for the contact hot path: once warm, the
// core TCBF operations must not allocate at all. The file is excluded
// under -race because the race runtime adds bookkeeping allocations that
// testing.AllocsPerRun observes.

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(100, f); avg != 0 {
		t.Errorf("%s: %g allocs per run, want 0", name, avg)
	}
}

func TestFilterOpsAllocationFree(t *testing.T) {
	cfg := Config{M: 256, K: 4, Initial: 10, DecayPerMinute: 1}
	f := MustNew(cfg, 0)
	other := MustNew(cfg, 0)
	for i, k := range modelKeys {
		target := f
		if i%2 == 0 {
			target = other
		}
		if err := target.Insert(k, 0); err != nil {
			t.Fatal(err)
		}
	}
	pre := Precompute("alpha")
	now := time.Minute

	assertZeroAllocs(t, "Insert", func() {
		f.Reset(now)
		for _, k := range modelKeys {
			if err := f.Insert(k, now); err != nil {
				t.Fatal(err)
			}
		}
	})
	assertZeroAllocs(t, "ContainsPre", func() {
		if _, err := f.ContainsPre(pre, now); err != nil {
			t.Fatal(err)
		}
	})
	assertZeroAllocs(t, "Contains", func() {
		if _, err := f.Contains("alpha", now); err != nil {
			t.Fatal(err)
		}
	})
	assertZeroAllocs(t, "MMerge", func() {
		if err := f.MMerge(other, now); err != nil {
			t.Fatal(err)
		}
	})
	assertZeroAllocs(t, "AMerge", func() {
		if err := f.AMerge(other, now); err != nil {
			t.Fatal(err)
		}
	})

	pres := preKeys(modelKeys)
	assertZeroAllocs(t, "InsertAllPre", func() {
		f.Reset(now)
		if err := f.InsertAllPre(pres, now); err != nil {
			t.Fatal(err)
		}
	})
	assertZeroAllocs(t, "ContainsAnyPre", func() {
		if _, err := f.ContainsAnyPre(pres, now); err != nil {
			t.Fatal(err)
		}
	})

	// Uniform mode refuses non-uniform counters, so encode it from a
	// freshly re-inserted filter (all counters at C) and the other modes
	// from the merged state.
	var buf []byte
	var err error
	for _, mode := range []CounterMode{CountersNone, CountersUniform, CountersFull} {
		buf, err = f.EncodeTo(buf[:0], mode)
		if err != nil {
			t.Fatal(err)
		}
		mode := mode
		assertZeroAllocs(t, "EncodeTo", func() {
			buf, err = f.EncodeTo(buf[:0], mode)
			if err != nil {
				t.Fatal(err)
			}
		})
		assertZeroAllocs(t, "WireSize", func() {
			if _, err := f.WireSize(mode); err != nil {
				t.Fatal(err)
			}
		})
		dec := MustNew(cfg, 0)
		assertZeroAllocs(t, "DecodeInto", func() {
			if err := dec.DecodeInto(buf, now); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPartitionedOpsAllocationFree(t *testing.T) {
	cfg := Config{M: 256, K: 4, Initial: 10, DecayPerMinute: 1}
	p := MustNewPartitioned(cfg, 4, 0)
	q := MustNewPartitioned(cfg, 4, 0)
	pres := preKeys(modelKeys)
	if err := p.InsertAllPre(pres, 0); err != nil {
		t.Fatal(err)
	}
	if err := q.InsertAllPre(pres, 0); err != nil {
		t.Fatal(err)
	}
	now := time.Minute

	assertZeroAllocs(t, "InsertAllPre", func() {
		p.Reset(now)
		if err := p.InsertAllPre(pres, now); err != nil {
			t.Fatal(err)
		}
	})
	assertZeroAllocs(t, "PreferencePartitionedPre", func() {
		if _, err := PreferencePartitionedPre(pres[0], q, p, now); err != nil {
			t.Fatal(err)
		}
	})
	var buf []byte
	var err error
	buf, err = p.EncodeTo(buf[:0], CountersFull)
	if err != nil {
		t.Fatal(err)
	}
	assertZeroAllocs(t, "Partitioned.EncodeTo", func() {
		buf, err = p.EncodeTo(buf[:0], CountersFull)
		if err != nil {
			t.Fatal(err)
		}
	})
	assertZeroAllocs(t, "Partitioned.WireSize", func() {
		if _, err := p.WireSize(CountersNone); err != nil {
			t.Fatal(err)
		}
	})
	dec := MustNewPartitioned(cfg, 4, 0)
	assertZeroAllocs(t, "Partitioned.DecodeInto", func() {
		if err := dec.DecodeInto(buf, now); err != nil {
			t.Fatal(err)
		}
	})
}
