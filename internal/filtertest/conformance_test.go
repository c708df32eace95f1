package filtertest

import (
	"math/rand"
	"testing"

	"bsub/internal/filter"
)

// Subjects is the backend matrix under conformance: the packed TCBF
// default (single and multi-partition) and the retouched decorator, whose
// low fill bound forces clearing inside short tapes.
func subjects() []Subject {
	return []Subject{
		{Name: "tcbf", Backend: filter.Packed{}, Partitions: 1},
		{Name: "tcbf-part3", Backend: filter.Packed{}, Partitions: 3},
		{Name: "retouched", Backend: filter.Retouched{MaxFill: 0.12}, Partitions: 1},
	}
}

// TestFilterConformance drives every backend through random op tapes in
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
// first tape byte picks the backend (modulo the subject count: 0 and 3
// select tcbf, 1 and 4 tcbf-part3, 2 retouched), the rest is the op
// tape, and any input on which a backend violates its declared laws is
// a real bug.
func FuzzFilterModel(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 2, 3, 0, 5, 1, 7, 2})               // insert, merge, query, wire
	f.Add([]byte{2, 0, 0, 2, 90, 6, 0, 4, 0, 6, 0})              // retouched: decay then M-merge
	f.Add([]byte{3, 0, 3, 8, 16, 2, 200, 5, 3, 7, 0, 9, 0})      // tcbf: DF retune, burst
	f.Add([]byte{4, 1, 5, 3, 0, 0, 5, 8, 4, 1, 7, 4, 0, 2, 30})  // tcbf-part3: merged-insert path
	f.Add([]byte{1, 0, 1, 1, 1, 9, 0, 6, 1, 9, 0, 6, 1, 2, 255}) // partitions: saturation, decay
	f.Add([]byte{3, 0, 0, 10, 1, 5, 0, 10, 255, 6, 0, 11, 3})    // tcbf: sub-tick carry + monotonicity
	f.Add([]byte{4, 9, 0, 9, 1, 9, 2, 9, 3, 7, 0, 5, 0})         // tcbf-part3: burst, wire
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
