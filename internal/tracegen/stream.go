package tracegen

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"bsub/internal/trace"
	"bsub/internal/xrand"
)

// maxLinkedPairs caps the linked-pair graph a Stream will instantiate.
// Memory is O(linked pairs) (~56 bytes each), so the cap bounds setup to a
// few GB; configurations that exceed it (huge fully-connected populations)
// need a sparser CrossLinkProb or smaller communities.
const maxLinkedPairs = 1 << 27

// minContactDuration floors the exponential contact-length draw; Bluetooth
// loggers cannot record contacts shorter than their scan interval.
const minContactDuration = 10 * time.Second

// crossSalt decorrelates the cross-link sampling stream from the per-pair
// contact streams derived from the same root seed.
const crossSalt = 0xb5ad4eceda1ce2a9

// pairSeed derives the deterministic, order-independent RNG for pair (a, b)
// from the root seed; a pair's contact sequence does not depend on when its
// stream is instantiated or what other pairs exist.
func pairSeed(seed int64, a, b int32) xrand.PRNG {
	return xrand.New(uint64(seed) ^ (uint64(uint32(a))<<32 | uint64(uint32(b))))
}

// pairStream is one linked pair's lazily evaluated Poisson contact process:
// the buffered next contact [start, end), the candidate-arrival clock t (in
// hours), the previous emitted contact's end (pairs cannot overlap
// themselves), the pair's own generator, and its calibrated peak rate.
type pairStream struct {
	start, end time.Duration
	prevEnd    time.Duration
	t          float64
	rng        xrand.PRNG
	rate       float64 // contacts per hour at peak activity
	a, b       int32
}

// advance draws candidate arrivals until one is accepted (diurnal thinning,
// no self-overlap) or the span is exhausted, buffering the accepted contact
// in start/end. Durations are drawn eagerly with acceptance so the heap
// comparator below is total.
//
//bsub:hotpath
func (p *pairStream) advance(s *Stream) bool {
	for {
		p.t += p.rng.Exp() / p.rate
		if p.t >= s.limitHours {
			return false
		}
		if s.diurnal && p.rng.Float64() >= diurnalActivity(p.t) {
			continue
		}
		start := time.Duration(p.t * float64(time.Hour))
		if start <= p.prevEnd {
			continue // pairs cannot be in two simultaneous contacts
		}
		d := time.Duration(p.rng.Exp() * s.meanDur)
		if d < minContactDuration {
			d = minContactDuration
		}
		p.start, p.end = start, start+d
		p.prevEnd = p.end
		return true
	}
}

// Stream produces a synthetic trace's contacts one at a time in the exact
// order trace.New sorts into — (Start, End, A, B) ascending — without ever
// materializing the schedule. It holds one pairStream per *linked* pair
// (same-community pairs plus the sparse sampled cross links) merged through
// a binary heap keyed on each pair's buffered next contact, so memory is
// O(linked pairs) and per-contact cost is O(log linked pairs).
type Stream struct {
	cfg        Config
	limitHours float64
	meanDur    float64 // MeanContactDuration in time.Duration units
	diurnal    bool
	pairs      []pairStream
	heap       []int32   // indices into pairs, min-heap on buffered contact
	rates      []float64 // lazily computed by ActivityRates
	emitted    int
}

var _ trace.Source = (*Stream)(nil)

// NewStream validates cfg and instantiates the linked-pair graph. The
// weight and community draws reuse the same root-seeded math/rand stream
// the materializing generator always used; per-pair contact randomness
// comes from derived compact generators (see pairSeed).
func NewStream(cfg Config) (*Stream, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	weights := activityWeights(rng, cfg.Nodes, cfg.ActivityAlpha)
	community := cfg.CommunityAssignment
	if community == nil {
		community = assignCommunities(rng, cfg.Nodes, cfg.Communities)
	}

	comms := cfg.Communities
	if comms < 1 {
		comms = 1
	}
	members := make([][]int32, comms)
	for i, c := range community {
		members[c] = append(members[c], int32(i))
	}

	crossLink := cfg.CrossLinkProb
	if crossLink == 0 {
		crossLink = 1 // legacy meaning: fully connected
	}

	// Guard the linked-pair budget before enumerating anything.
	var sameLinks int64
	for _, m := range members {
		sameLinks += int64(len(m)) * int64(len(m)-1) / 2
	}
	totalPairs := int64(cfg.Nodes) * int64(cfg.Nodes-1) / 2
	expLinks := sameLinks + int64(crossLink*float64(totalPairs-sameLinks))
	if expLinks > maxLinkedPairs {
		return nil, fmt.Errorf("tracegen: ~%d linked pairs exceeds the %d cap; lower CrossLinkProb or use more, smaller communities", expLinks, maxLinkedPairs)
	}

	s := &Stream{
		cfg:        cfg,
		limitHours: cfg.Span.Hours(),
		meanDur:    float64(cfg.MeanContactDuration),
		diurnal:    cfg.Diurnal,
		pairs:      make([]pairStream, 0, expLinks),
	}

	shapeSum := 0.0
	addPair := func(a, b int32, same bool) {
		sh := weights[a] * weights[b]
		if same {
			sh *= cfg.CommunityBias
		}
		// rate temporarily holds the uncalibrated shape.
		s.pairs = append(s.pairs, pairStream{a: a, b: b, rate: sh})
		shapeSum += sh
	}

	// Same-community pairs are always linked. Member lists are built in
	// node order, so m is ascending and a < b holds.
	for _, m := range members {
		for x := 0; x < len(m); x++ {
			for y := x + 1; y < len(m); y++ {
				addPair(m[x], m[y], true)
			}
		}
	}

	if crossLink >= 1 {
		for i := 0; i < cfg.Nodes; i++ {
			for j := i + 1; j < cfg.Nodes; j++ {
				if community[i] != community[j] {
					addPair(int32(i), int32(j), false)
				}
			}
		}
	} else {
		// Sample each cross-community pair independently with probability
		// crossLink by jumping geometric gaps through the triangular pair
		// index space: O(links) work instead of O(n²) coin flips, and
		// exactly the same per-pair inclusion law.
		crossRng := xrand.New(uint64(cfg.Seed) ^ crossSalt)
		lnq := math.Log1p(-crossLink)
		k := int64(-1)
		for {
			gap := math.Log(1-crossRng.Float64()) / lnq
			if gap >= float64(totalPairs-k) {
				break // jumped past the last pair
			}
			k += 1 + int64(gap)
			if k >= totalPairs {
				break
			}
			i, j := pairAt(int64(cfg.Nodes), k)
			if community[i] == community[j] {
				continue // already linked unconditionally
			}
			addPair(int32(i), int32(j), false)
		}
	}

	if len(s.pairs) == 0 {
		return nil, fmt.Errorf("tracegen: configuration produced no linked pairs")
	}

	// Calibrate the base rate so the expected accepted contact count hits
	// the target (same law as the materializing generator), then start
	// every pair stream and heapify the ones with a contact inside the span.
	meanAct := 1.0
	if cfg.Diurnal {
		meanAct = meanDiurnalActivity()
	}
	base := float64(cfg.TargetContacts) / (shapeSum * s.limitHours * meanAct)
	s.heap = make([]int32, 0, len(s.pairs))
	for idx := range s.pairs {
		p := &s.pairs[idx]
		p.rate *= base
		p.rng = pairSeed(cfg.Seed, p.a, p.b)
		p.prevEnd = -1
		if p.rate > 0 && p.advance(s) {
			s.heap = append(s.heap, int32(idx))
		}
	}
	for i := len(s.heap)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
	return s, nil
}

// Nodes returns the population size.
func (s *Stream) Nodes() int { return s.cfg.Nodes }

// Links returns the number of linked pairs the stream instantiated — the
// quantity generation memory is proportional to.
func (s *Stream) Links() int { return len(s.pairs) }

// Emitted returns the number of contacts produced so far.
func (s *Stream) Emitted() int { return s.emitted }

// ActivityRates returns each node's expected contact rate (contacts per
// hour at peak activity, summed over its linked pairs) — the scale
// workload's stand-in for trace centrality, available without materializing
// a single contact.
func (s *Stream) ActivityRates() []float64 {
	if s.rates == nil {
		s.rates = make([]float64, s.cfg.Nodes)
		for i := range s.pairs {
			p := &s.pairs[i]
			s.rates[p.a] += p.rate
			s.rates[p.b] += p.rate
		}
	}
	return s.rates
}

// Next pops the earliest buffered contact, advances that pair's stream, and
// restores the heap. Allocation-free.
//
//bsub:hotpath
func (s *Stream) Next() (trace.Contact, bool) {
	if len(s.heap) == 0 {
		return trace.Contact{}, false
	}
	top := s.heap[0]
	p := &s.pairs[top]
	c := trace.Contact{A: trace.NodeID(p.a), B: trace.NodeID(p.b), Start: p.start, End: p.end}
	if p.advance(s) {
		s.siftDown(0)
	} else {
		last := len(s.heap) - 1
		s.heap[0] = s.heap[last]
		s.heap = s.heap[:last]
		if last > 0 {
			s.siftDown(0)
		}
	}
	s.emitted++
	return c, true
}

// less orders heap entries by their buffered contact: (Start, End, A, B),
// the same total order trace.New sorts materialized traces into. Distinct
// pairs differ in (A, B), so the order is total.
//
//bsub:hotpath
func (s *Stream) less(x, y int32) bool {
	px, py := &s.pairs[x], &s.pairs[y]
	if px.start != py.start {
		return px.start < py.start
	}
	if px.end != py.end {
		return px.end < py.end
	}
	if px.a != py.a {
		return px.a < py.a
	}
	return px.b < py.b
}

//bsub:hotpath
func (s *Stream) siftDown(i int) {
	for {
		l := 2*i + 1
		if l >= len(s.heap) {
			return
		}
		least := l
		if r := l + 1; r < len(s.heap) && s.less(s.heap[r], s.heap[l]) {
			least = r
		}
		if !s.less(s.heap[least], s.heap[i]) {
			return
		}
		s.heap[i], s.heap[least] = s.heap[least], s.heap[i]
		i = least
	}
}

// pairAt maps a triangular pair index k in [0, n(n-1)/2) to the pair
// (i, j), i < j, in lexicographic order. Row i occupies indices
// [rowStart(i), rowStart(i+1)). The float inversion is corrected with
// integer comparisons, so boundary precision cannot misplace a pair.
func pairAt(n, k int64) (int64, int64) {
	fi := math.Floor((float64(2*n-1) - math.Sqrt(float64((2*n-1)*(2*n-1)-8*k))) / 2)
	i := int64(fi)
	if i < 0 {
		i = 0
	}
	for i > 0 && rowStart(n, i) > k {
		i--
	}
	for rowStart(n, i+1) <= k {
		i++
	}
	return i, i + 1 + (k - rowStart(n, i))
}

func rowStart(n, i int64) int64 { return i * (2*n - 1 - i) / 2 }
