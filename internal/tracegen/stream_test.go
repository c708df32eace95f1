package tracegen

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"bsub/internal/trace"
)

// TestStreamMatchesGenerate is the streamed-vs-materialized equivalence
// check: collecting the stream must reproduce Generate's contact sequence
// exactly. Generate collects a stream and then re-sorts through trace.New,
// so equality also proves the heap emits contacts already in trace.New's
// (Start, End, A, B) order.
func TestStreamMatchesGenerate(t *testing.T) {
	for _, cfg := range []Config{Small(3), MITReality3Day(7)} {
		tr, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := trace.Collect(s)
		if len(got) != len(tr.Contacts) {
			t.Fatalf("%s: stream emitted %d contacts, Generate %d", cfg.Name, len(got), len(tr.Contacts))
		}
		for i := range got {
			if got[i] != tr.Contacts[i] {
				t.Fatalf("%s: contact %d differs: stream %+v vs generate %+v",
					cfg.Name, i, got[i], tr.Contacts[i])
			}
		}
		if s.Emitted() != len(got) {
			t.Errorf("Emitted() = %d, want %d", s.Emitted(), len(got))
		}
	}
}

// TestStreamOrderIsSorted double-checks the stream's emission order against
// the trace.New comparator directly.
func TestStreamOrderIsSorted(t *testing.T) {
	s, err := NewStream(Small(11))
	if err != nil {
		t.Fatal(err)
	}
	prev, ok := s.Next()
	if !ok {
		t.Fatal("empty stream")
	}
	for {
		c, ok := s.Next()
		if !ok {
			break
		}
		if c.Start < prev.Start ||
			(c.Start == prev.Start && c.End < prev.End) ||
			(c.Start == prev.Start && c.End == prev.End && c.A < prev.A) ||
			(c.Start == prev.Start && c.End == prev.End && c.A == prev.A && c.B <= prev.B) {
			t.Fatalf("out of order: %+v after %+v", c, prev)
		}
		prev = c
	}
}

// TestStreamNextAllocFree pins the per-contact cost of the hot path:
// popping and re-heapifying must not allocate.
func TestStreamNextAllocFree(t *testing.T) {
	cfg := Small(5)
	cfg.TargetContacts = 50_000
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(10_000, func() {
		if _, ok := s.Next(); !ok {
			t.Fatal("stream exhausted mid-measurement")
		}
	})
	if got != 0 {
		t.Errorf("Next allocates %.1f objects per contact, want 0", got)
	}
}

// TestStreamEqualStartsPopInOrder plants heap entries whose starts tie
// and checks that they pop in (End, A, B) order: the inline start key
// must hand every tie to the pair table. The stream's span is empty, so
// each pop retires its pair.
func TestStreamEqualStartsPopInOrder(t *testing.T) {
	const at = 5 * time.Minute
	pairs := []pairStream{
		{end: at + 3*time.Minute, a: 0, b: 1},
		{end: at + time.Minute, a: 4, b: 6},
		{end: at + time.Minute, a: 2, b: 9},
		{end: at + 2*time.Minute, a: 1, b: 2},
		{end: at + time.Minute, a: 2, b: 3},
		{end: at - time.Minute, a: 7, b: 8}, // starts earlier
		{end: at + time.Minute, a: 3, b: 4}, // starts later
	}
	starts := []time.Duration{at, at, at, at, at, at - 2*time.Minute, at + 10*time.Second}
	want := []trace.Contact{
		{A: 7, B: 8, Start: at - 2*time.Minute, End: at - time.Minute},
		{A: 2, B: 3, Start: at, End: at + time.Minute},
		{A: 2, B: 9, Start: at, End: at + time.Minute},
		{A: 4, B: 6, Start: at, End: at + time.Minute},
		{A: 1, B: 2, Start: at, End: at + 2*time.Minute},
		{A: 0, B: 1, Start: at, End: at + 3*time.Minute},
		{A: 3, B: 4, Start: at + 10*time.Second, End: at + time.Minute},
	}
	// Every planted order of the entries must pop the same sequence.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		s := &Stream{pairs: append([]pairStream(nil), pairs...)}
		for i := range s.pairs {
			s.pairs[i].rate = 1
			s.heap = append(s.heap, heapEntry{start: starts[i], idx: int32(i)})
		}
		rng.Shuffle(len(s.heap), func(i, j int) { s.heap[i], s.heap[j] = s.heap[j], s.heap[i] })
		for i := len(s.heap)/2 - 1; i >= 0; i-- {
			s.siftDown(i)
		}
		for i, w := range want {
			c, ok := s.Next()
			if !ok || c != w {
				t.Fatalf("trial %d: pop %d = %+v, %v; want %+v", trial, i, c, ok, w)
			}
		}
		if _, ok := s.Next(); ok {
			t.Fatalf("trial %d: stream outlived its planted entries", trial)
		}
	}
}

// TestPairTableNeverRegrows checks that NewStream sizes the pair table
// once: the sampled cross-link count is binomial, and a table sized to its
// mean overflows for about half the seeds, so each append regrow copies
// the whole table. A stream whose table regrew has a capacity above the
// one NewStream allocated.
func TestPairTableNeverRegrows(t *testing.T) {
	const nodes = 2000
	for seed := int64(1); seed <= 60; seed++ {
		cfg := Scale(nodes, seed)
		s, err := NewStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Replay NewStream's community draw to count same-community pairs.
		rng := rand.New(rand.NewSource(cfg.Seed))
		activityWeights(rng, cfg.Nodes, cfg.ActivityAlpha)
		size := make([]int64, cfg.Communities)
		for _, c := range assignCommunities(rng, cfg.Nodes, cfg.Communities) {
			size[c]++
		}
		var same int64
		for _, m := range size {
			same += m * (m - 1) / 2
		}
		allocated := pairCapacity(same, int64(nodes)*(nodes-1)/2-same, cfg.CrossLinkProb)
		if int64(cap(s.pairs)) != allocated || int64(s.Links()) > allocated {
			t.Fatalf("seed %d: %d links in a pair table of capacity %d; NewStream allocated %d",
				seed, s.Links(), cap(s.pairs), allocated)
		}
	}
}

// BenchmarkStreamNext times one contact of a sim-population-sized stream
// (50k nodes, about a million linked pairs): the heap pop, the pair's next
// draw and the sift. A stream that runs dry is rebuilt off the clock.
func BenchmarkStreamNext(b *testing.B) {
	cfg := Scale(50_000, 201)
	s, err := NewStream(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Next(); !ok {
			b.StopTimer()
			if s, err = NewStream(cfg); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// TestStreamMemoryIsActivePairs is the memory-ceiling smoke test: a
// 100k-node population has ~5×10⁹ node pairs, but the stream must
// instantiate only the linked ones (~10 per node here). The heap growth
// bound (128 MB) is ~50 bytes per linked pair with slack — materializing
// pair state for all pairs would need hundreds of GB.
func TestStreamMemoryIsActivePairs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a 100k-node stream")
	}
	const nodes = 100_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	s, err := NewStream(Scale(nodes, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Draw a slice of the schedule to prove generation works lazily.
	for i := 0; i < 10_000; i++ {
		if _, ok := s.Next(); !ok {
			t.Fatalf("stream exhausted after %d contacts", i)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)

	links := s.Links()
	totalPairs := int64(nodes) * (nodes - 1) / 2
	if int64(links) > totalPairs/100 {
		t.Fatalf("stream linked %d of %d pairs; pair graph is not sparse", links, totalPairs)
	}
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	const ceiling = 128 << 20
	if grew > ceiling {
		t.Errorf("stream setup grew the heap by %d MB for %d linked pairs; want O(linked pairs) under %d MB",
			grew>>20, links, ceiling>>20)
	}
}

// TestPairAt exhaustively checks the triangular index decode against the
// lexicographic pair enumeration for several population sizes, plus the
// float-precision-sensitive boundary rows of a million-node population.
func TestPairAt(t *testing.T) {
	for _, n := range []int64{2, 3, 5, 17, 64} {
		k := int64(0)
		for i := int64(0); i < n; i++ {
			for j := i + 1; j < n; j++ {
				gi, gj := pairAt(n, k)
				if gi != i || gj != j {
					t.Fatalf("pairAt(%d, %d) = (%d, %d), want (%d, %d)", n, k, gi, gj, i, j)
				}
				k++
			}
		}
	}
	const big = int64(1_000_000)
	total := big * (big - 1) / 2
	for _, k := range []int64{0, 1, big - 2, big - 1, big, total / 2, total - 2, total - 1} {
		i, j := pairAt(big, k)
		if i < 0 || j <= i || j >= big {
			t.Fatalf("pairAt(%d, %d) = (%d, %d) out of range", big, k, i, j)
		}
		if got := rowStart(big, i) + (j - i - 1); got != k {
			t.Fatalf("pairAt(%d, %d) = (%d, %d) encodes back to %d", big, k, i, j, got)
		}
	}
}

// TestCrossLinkSamplingLaw checks the geometric-gap sampler: the realized
// cross-link count must match the binomial expectation, and links must be
// deterministic for a seed.
func TestCrossLinkSamplingLaw(t *testing.T) {
	cfg := Small(21)
	cfg.Nodes = 400
	cfg.Communities = 40
	cfg.TargetContacts = 4000
	cfg.CrossLinkProb = 0.05
	a, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Links() != b.Links() {
		t.Fatalf("same seed linked %d vs %d pairs", a.Links(), b.Links())
	}
	// ~40 communities of ~10: same-community links ≈ 40·C(10,2) ≈ 1800;
	// cross links ≈ 0.05 · (C(400,2) − 1800) ≈ 3900. Allow ±25%.
	sameApprox := 1800.0
	crossExp := 0.05 * (float64(400*399/2) - sameApprox)
	crossGot := float64(a.Links()) - sameApprox
	if math.Abs(crossGot-crossExp)/crossExp > 0.25 {
		t.Errorf("cross links ≈ %.0f, want within 25%% of %.0f", crossGot, crossExp)
	}
}

// TestScalePreset sanity-checks the sweep configuration at a small size.
func TestScalePreset(t *testing.T) {
	cfg := Scale(10_000, 1)
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes() != 10_000 {
		t.Fatalf("nodes = %d", s.Nodes())
	}
	rates := s.ActivityRates()
	if len(rates) != 10_000 {
		t.Fatalf("rates length %d", len(rates))
	}
	positive := 0
	for _, r := range rates {
		if r > 0 {
			positive++
		}
	}
	if positive < 9_000 {
		t.Errorf("only %d/10000 nodes have linked pairs", positive)
	}
	n := 0
	var last time.Duration
	for {
		c, ok := s.Next()
		if !ok {
			break
		}
		last = c.Start
		n++
	}
	if math.Abs(float64(n)-100_000)/100_000 > 0.25 {
		t.Errorf("scale stream emitted %d contacts, want ~100000", n)
	}
	if last > cfg.Span {
		t.Errorf("contact starts at %v, past span %v", last, cfg.Span)
	}
}

// TestLinkedPairCapRejectsDensePopulations: a huge fully-connected config
// must be refused up front instead of attempting an O(n²) enumeration.
func TestLinkedPairCapRejectsDensePopulations(t *testing.T) {
	cfg := Scale(1_000_000, 1)
	cfg.CrossLinkProb = 0 // legacy "fully connected"
	if _, err := NewStream(cfg); err == nil {
		t.Fatal("10¹¹-pair configuration accepted")
	}
}
