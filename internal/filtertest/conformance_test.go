package filtertest

import (
	"math/rand"
	"testing"
)

// subjects is the partition matrix under conformance: the paper's single
// relay filter and a Section VI-D partitioned one.
func subjects() []Subject {
	return []Subject{
		{Name: "tcbf", Partitions: 1},
		{Name: "tcbf-part3", Partitions: 3},
	}
}

// TestFilterConformance drives every subject through random op tapes in
// lockstep with the key-level reference model; it runs under -race in
// make check.
func TestFilterConformance(t *testing.T) {
	const ops = 300
	for _, sub := range subjects() {
		t.Run(sub.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 6; seed++ {
				rng := rand.New(rand.NewSource(seed))
				tape := make([]byte, 2*ops)
				rng.Read(tape)
				RunTape(t, sub, tape)
			}
		})
	}
}

// FuzzFilterModel hands the conformance interpreter to the fuzzer: the
// first tape byte picks the partition count (even bytes select tcbf, one
// partition; odd bytes tcbf-part3, three), the rest is the op tape, and
// any input on which the filter violates a law is a real bug.
func FuzzFilterModel(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 2, 3, 0, 5, 1, 7, 2})               // tcbf: insert, merge, query, wire
	f.Add([]byte{2, 0, 0, 2, 90, 6, 0, 4, 0, 6, 0})              // tcbf: decay then M-merge
	f.Add([]byte{3, 0, 3, 8, 16, 2, 200, 5, 3, 7, 0, 9, 0})      // tcbf-part3: DF retune, burst
	f.Add([]byte{4, 1, 5, 3, 0, 0, 5, 8, 4, 1, 7, 4, 0, 2, 30})  // tcbf: merged-insert path
	f.Add([]byte{1, 0, 1, 1, 1, 9, 0, 6, 1, 9, 0, 6, 1, 2, 255}) // tcbf-part3: saturation, decay
	f.Add([]byte{3, 0, 0, 10, 1, 5, 0, 10, 255, 6, 0, 11, 3})    // tcbf-part3: sub-tick carry + monotonicity
	f.Add([]byte{4, 9, 0, 9, 1, 9, 2, 9, 3, 7, 0, 5, 0})         // tcbf: burst, wire
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) < 1 {
			t.Skip("empty tape")
		}
		if len(tape) > 2048 {
			t.Skip("tape longer than useful")
		}
		subs := subjects()
		RunTape(t, subs[int(tape[0])%len(subs)], tape[1:])
	})
}
