package filtertest

import (
	"math"
	"testing"
	"time"

	"bsub/internal/tcbf"
)

// Standalone property tests of the packed TCBF at each subject's
// partition count. The differential tape harness (filtertest.go) checks
// the same contract statistically; these pin each law directly, one
// property per test, so a violation fails with the subject's name and the
// property on the first line.

// newSubjectFilter builds a fresh filter for a conformance subject.
func newSubjectFilter(t *testing.T, sub Subject, now time.Duration) *tcbf.Partitioned {
	t.Helper()
	f, err := tcbf.NewPartitioned(DefaultConfig(), sub.Partitions, now)
	if err != nil {
		t.Fatalf("%s: New: %v", sub.Name, err)
	}
	return f
}

// TestPropertyNoFalseNegatives: the filter must report every inserted key
// present until decay takes its counter to zero.
func TestPropertyNoFalseNegatives(t *testing.T) {
	t0 := time.Hour
	for _, sub := range subjects() {
		t.Run(sub.Name, func(t *testing.T) {
			f := newSubjectFilter(t, sub, t0)
			for _, k := range Keys {
				if err := f.InsertPre(tcbf.Precompute(k), t0); err != nil {
					t.Fatalf("%s: insert %q: %v", sub.Name, k, err)
				}
			}
			// Initial=3, DF=1/min: every key outlives the first 2 minutes.
			for _, dt := range []time.Duration{0, 30 * time.Second, 2 * time.Minute} {
				for _, k := range Keys {
					ok, err := f.ContainsPre(tcbf.Precompute(k), t0+dt)
					if err != nil {
						t.Fatalf("%s: contains %q: %v", sub.Name, k, err)
					}
					if !ok {
						t.Errorf("%s: no-false-negatives: key %q absent %v after insert",
							sub.Name, k, dt)
					}
				}
			}
		})
	}
}

// TestPropertyMergeCommutative: the filter must produce identical
// post-merge counter state whichever side absorbs the other, for both the
// additive and the maximum merge.
func TestPropertyMergeCommutative(t *testing.T) {
	t0 := time.Hour
	for _, sub := range subjects() {
		for _, mode := range []string{"amerge", "mmerge"} {
			mode := mode
			t.Run(sub.Name+"/"+mode, func(t *testing.T) {
				build := func(keys []string, reps int) *tcbf.Partitioned {
					f := newSubjectFilter(t, sub, t0)
					for r := 0; r < reps; r++ {
						for _, k := range keys {
							if err := f.InsertPre(tcbf.Precompute(k), t0); err != nil {
								t.Fatalf("%s: insert %q: %v", sub.Name, k, err)
							}
						}
					}
					return f
				}
				// Overlapping key sets with different reinforcement depth,
				// so addition and maximum actually differ.
				ab, ba := build(Keys[:8], 2), build(Keys[4:], 1)
				a2, b2 := build(Keys[:8], 2), build(Keys[4:], 1)
				merge := func(dst, src *tcbf.Partitioned) error {
					if mode == "amerge" {
						return dst.AMerge(src, t0)
					}
					return dst.MMerge(src, t0)
				}
				if err := merge(ab, ba); err != nil {
					t.Fatalf("%s: %s A<-B: %v", sub.Name, mode, err)
				}
				if err := merge(b2, a2); err != nil {
					t.Fatalf("%s: %s B<-A: %v", sub.Name, mode, err)
				}
				if ab.SetBits() != b2.SetBits() {
					t.Errorf("%s: merge-commutative: %s set bits %d vs %d by merge order",
						sub.Name, mode, ab.SetBits(), b2.SetBits())
				}
				for _, k := range Keys {
					pk := tcbf.Precompute(k)
					ca, err := ab.MinCounterPre(pk, t0)
					if err != nil {
						t.Fatal(err)
					}
					cb, err := b2.MinCounterPre(pk, t0)
					if err != nil {
						t.Fatal(err)
					}
					if ca != cb {
						t.Errorf("%s: merge-commutative: %s key %q counter %g vs %g by merge order",
							sub.Name, mode, k, ca, cb)
					}
				}
			})
		}
	}
}

// TestPropertyWireRoundTrip: encoding and decoding must reproduce
// membership exactly at every partition count, and counters within the 1-byte
// wire quantization (maxCounter/255 plus one clamp tick).
func TestPropertyWireRoundTrip(t *testing.T) {
	t0 := time.Hour
	for _, sub := range subjects() {
		t.Run(sub.Name, func(t *testing.T) {
			f := newSubjectFilter(t, sub, t0)
			for _, k := range Keys[:8] {
				if err := f.InsertPre(tcbf.Precompute(k), t0); err != nil {
					t.Fatalf("%s: insert %q: %v", sub.Name, k, err)
				}
			}
			now := t0 + 45*time.Second
			for _, mode := range []tcbf.CounterMode{tcbf.CountersNone, tcbf.CountersFull} {
				data, err := f.Encode(mode)
				if err != nil {
					t.Fatalf("%s: encode mode %d: %v", sub.Name, mode, err)
				}
				cp := newSubjectFilter(t, sub, now)
				if err := cp.DecodeInto(data, now); err != nil {
					t.Fatalf("%s: decode mode %d: %v", sub.Name, mode, err)
				}
				for _, k := range Keys {
					was, err := f.ContainsPre(tcbf.Precompute(k), now)
					if err != nil {
						t.Fatal(err)
					}
					is, err := cp.ContainsPre(tcbf.Precompute(k), now)
					if err != nil {
						t.Fatal(err)
					}
					if was != is {
						t.Errorf("%s: wire-round-trip: key %q membership %v -> %v across the wire (mode %d)",
							sub.Name, k, was, is, mode)
					}
				}
				if mode == tcbf.CountersFull {
					quantum := DefaultConfig().Initial / 1024
					tol := (32767.0/255 + 1) * quantum
					for _, k := range Keys {
						pk := tcbf.Precompute(k)
						orig, err := f.MinCounterPre(pk, now)
						if err != nil {
							t.Fatal(err)
						}
						got, err := cp.MinCounterPre(pk, now)
						if err != nil {
							t.Fatal(err)
						}
						if math.Abs(orig-got) > tol {
							t.Errorf("%s: wire-round-trip: key %q counter %g -> %g beyond quantization tolerance %g",
								sub.Name, k, orig, got, tol)
						}
					}
				}
				// A decoded filter carries a peer's interests; genuine
				// inserts must be refused uniformly.
				if err := cp.InsertPre(tcbf.Precompute("genuine-after-decode"), now); err == nil {
					t.Errorf("%s: wire-round-trip: decoded filter accepted a genuine insert (mode %d)",
						sub.Name, mode)
				}
			}
		})
	}
}

// TestPropertyDecayMonotone: with no inserts, a key's counter must never
// increase as time passes, and must reach zero (membership gone) after
// its lifetime Initial/DF.
func TestPropertyDecayMonotone(t *testing.T) {
	t0 := time.Hour
	for _, sub := range subjects() {
		t.Run(sub.Name, func(t *testing.T) {
			f := newSubjectFilter(t, sub, t0)
			for _, k := range Keys {
				if err := f.InsertPre(tcbf.Precompute(k), t0); err != nil {
					t.Fatalf("%s: insert %q: %v", sub.Name, k, err)
				}
			}
			last := make(map[string]float64, len(Keys))
			for _, k := range Keys {
				last[k] = math.Inf(1)
			}
			for dt := time.Duration(0); dt <= 4*time.Minute; dt += 20 * time.Second {
				now := t0 + dt
				for _, k := range Keys {
					c, err := f.MinCounterPre(tcbf.Precompute(k), now)
					if err != nil {
						t.Fatalf("%s: counter %q: %v", sub.Name, k, err)
					}
					if c > last[k] {
						t.Errorf("%s: decay-monotone: key %q counter rose %g -> %g at +%v",
							sub.Name, k, last[k], c, dt)
					}
					last[k] = c
				}
			}
			// Initial=3, DF=1/min: all counters are zero from 3min on; the
			// loop above ends at +4min, so membership must be gone now.
			for _, k := range Keys {
				ok, err := f.ContainsPre(tcbf.Precompute(k), t0+4*time.Minute)
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					t.Errorf("%s: decay-monotone: key %q still present a full minute past its lifetime",
						sub.Name, k)
				}
			}
		})
	}
}
