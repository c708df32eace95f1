// Package experiments assembles the paper's evaluation (Section VII): the
// fixtures (traces + workloads), the parameter sweeps behind every figure,
// and the table computations. Both cmd/experiments and the repository's
// benchmark harness drive these runners.
//
// Experiment index (see DESIGN.md §4):
//
//	T1   Table I   — trace parameters
//	T2   Table II  — top-4 key distribution
//	F7   Fig. 7    — delivery/delay/forwardings vs TTL, Haggle
//	F8   Fig. 8    — same, MIT Reality (busiest 3-day window)
//	F9   Fig. 9    — four metrics vs decaying factor, both traces
//	M1   §VI-C/VII — TCBF vs raw-string interest storage
//	A1   Eq. 1–3   — worst-case FPR of the evaluation filter
//	A2   Eq. 7–10  — optimal TCBF allocation under a storage bound
package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"bsub/internal/analysis"
	"bsub/internal/core"
	"bsub/internal/metrics"
	"bsub/internal/protocol"
	"bsub/internal/sim"
	"bsub/internal/tcbf"
	"bsub/internal/trace"
	"bsub/internal/tracegen"
	"bsub/internal/workload"
)

// Fixture bundles a trace with its Section VII-A workload.
type Fixture struct {
	Name      string
	Trace     *trace.Trace
	Interests []workload.Key
	Messages  []workload.Message
	Keys      *workload.KeySet
	Seed      int64
}

// NewFixture builds a fixture from an existing trace: interests drawn by
// key weight, message rates proportional to centrality with the paper's
// base rate, sizes uniform in [1, 140].
func NewFixture(name string, tr *trace.Trace, seed int64) (*Fixture, error) {
	ks := workload.NewTrendKeySet()
	rng := rand.New(rand.NewSource(seed))
	interests := workload.Interests(ks, tr.Nodes, rng)
	rates, err := workload.Rates(tr.Centrality(), workload.DefaultBaseRatePerHour)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	msgs := workload.GenerateMessages(ks, rates, tr.Span(), rng)
	return &Fixture{
		Name:      name,
		Trace:     tr,
		Interests: interests,
		Messages:  msgs,
		Keys:      ks,
		Seed:      seed,
	}, nil
}

// NewHaggleFixture generates the synthetic Haggle (Infocom'06) stand-in and
// its workload.
func NewHaggleFixture(seed int64) (*Fixture, error) {
	tr, err := tracegen.Generate(tracegen.HaggleInfocom06(seed))
	if err != nil {
		return nil, fmt.Errorf("experiments: haggle: %w", err)
	}
	return NewFixture("Haggle(Infocom06)", tr, seed)
}

// NewMITFixture generates the synthetic MIT Reality 3-day slice the paper
// simulates on ("the 3 day records from the MIT Reality trace"): a
// busy-campus window generated directly at the density the paper's
// delivery results imply (see tracegen.MITReality3Day).
func NewMITFixture(seed int64) (*Fixture, error) {
	window, err := tracegen.Generate(tracegen.MITReality3Day(seed))
	if err != nil {
		return nil, fmt.Errorf("experiments: mit: %w", err)
	}
	return NewFixture("MIT Reality", window, seed)
}

// NewSmallFixture generates the quick 20-node fixture used by tests,
// examples, and -short benchmarks.
func NewSmallFixture(seed int64) (*Fixture, error) {
	tr, err := tracegen.Generate(tracegen.Small(seed))
	if err != nil {
		return nil, fmt.Errorf("experiments: small: %w", err)
	}
	return NewFixture("Small", tr, seed)
}

// BSubConfig derives the paper's B-SUB configuration for a TTL: the DF is
// computed from Eq. 5 with T = TTL and the number of keys a broker collects
// estimated from the trace ("the number of encountered nodes in T is
// obtained by analyzing the traces"), plus the small constant the paper
// adds for unmodeled cases.
func (f *Fixture) BSubConfig(ttl time.Duration) core.Config {
	cfg := core.DefaultConfig(0)
	nKeys := f.meanPeersWithin(ttl)
	df, err := analysis.DecayFactor(cfg.InitialCounter, nKeys, cfg.FilterM, cfg.FilterK, ttl.Minutes(), 0.005)
	if err != nil {
		// ttl > 0 is enforced by sim.Config validation; fall back to the
		// no-accident baseline.
		df = cfg.InitialCounter / ttl.Minutes()
	}
	cfg.DecayPerMinute = df
	return cfg
}

// meanPeersWithin estimates how many distinct peers a node meets within a
// window, averaged over nodes and over eight window positions.
func (f *Fixture) meanPeersWithin(window time.Duration) int {
	span := f.Trace.Span()
	if window >= span {
		s := f.Trace.Stats()
		return int(s.MeanDegree + 0.5)
	}
	const samples = 8
	step := (span - window) / samples
	total, count := 0, 0
	for s := 0; s < samples; s++ {
		from := time.Duration(s) * step
		perNode := make(map[trace.NodeID]map[trace.NodeID]struct{})
		for _, c := range f.Trace.Contacts {
			if c.Start < from || c.Start >= from+window {
				continue
			}
			addPeer(perNode, c.A, c.B)
			addPeer(perNode, c.B, c.A)
		}
		for _, m := range perNode {
			total += len(m)
			count++
		}
	}
	if count == 0 {
		return 1
	}
	return total / count
}

func addPeer(m map[trace.NodeID]map[trace.NodeID]struct{}, a, b trace.NodeID) {
	if m[a] == nil {
		m[a] = make(map[trace.NodeID]struct{})
	}
	m[a][b] = struct{}{}
}

func (f *Fixture) simConfig(ttl time.Duration) sim.Config {
	return sim.Config{
		Trace:     f.Trace,
		Interests: f.Interests,
		Messages:  f.Messages,
		TTL:       ttl,
		Seed:      f.Seed,
	}
}

// --- F7 / F8: TTL sweeps ---------------------------------------------------

// TTLPoint is one x-position of Figs. 7 and 8: the three protocols' metrics
// at a given TTL.
type TTLPoint struct {
	TTL  time.Duration
	Push metrics.Report
	BSub metrics.Report
	Pull metrics.Report
}

// DefaultTTLs mirrors the figures' log-scaled x-axis (minutes).
func DefaultTTLs() []time.Duration {
	mins := []int{10, 20, 50, 100, 200, 500, 1000}
	out := make([]time.Duration, len(mins))
	for i, m := range mins {
		out[i] = time.Duration(m) * time.Minute
	}
	return out
}

// TTLSweep runs PUSH, B-SUB (with Eq. 5's DF for each TTL), and PULL across
// the TTL axis. The 3·len(ttls) independent simulations run concurrently,
// bounded by GOMAXPROCS; results are deterministic regardless of
// scheduling because each simulation is self-contained and seeded.
func TTLSweep(f *Fixture, ttls []time.Duration) ([]TTLPoint, error) {
	out := make([]TTLPoint, len(ttls))
	type job struct {
		name  string
		run   func() (metrics.Report, error)
		store func(*TTLPoint, metrics.Report)
	}
	var jobs []func() error
	var mu sync.Mutex
	var firstErr error
	for i, ttl := range ttls {
		i, ttl := i, ttl
		for _, j := range []job{
			{
				name:  "push",
				run:   func() (metrics.Report, error) { return sim.Run(f.simConfig(ttl), protocol.NewPush()) },
				store: func(p *TTLPoint, r metrics.Report) { p.Push = r },
			},
			{
				name: "bsub",
				run: func() (metrics.Report, error) {
					return sim.Run(f.simConfig(ttl), core.New(f.BSubConfig(ttl)))
				},
				store: func(p *TTLPoint, r metrics.Report) { p.BSub = r },
			},
			{
				name:  "pull",
				run:   func() (metrics.Report, error) { return sim.Run(f.simConfig(ttl), protocol.NewPull()) },
				store: func(p *TTLPoint, r metrics.Report) { p.Pull = r },
			},
		} {
			jobs = append(jobs, func() error {
				rep, err := j.run()
				if err != nil {
					return fmt.Errorf("experiments: %s ttl=%v: %w", j.name, ttl, err)
				}
				mu.Lock()
				out[i].TTL = ttl
				j.store(&out[i], rep)
				mu.Unlock()
				return nil
			})
		}
	}
	if err := runBounded(jobs, &mu, &firstErr); err != nil {
		return nil, err
	}
	return out, nil
}

// runBounded executes jobs with at most GOMAXPROCS workers, returning the
// first error.
func runBounded(jobs []func() error, mu *sync.Mutex, firstErr *error) error {
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for _, job := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if err := job(); err != nil {
				mu.Lock()
				if *firstErr == nil {
					*firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return *firstErr
}

// --- F9: DF sweep ------------------------------------------------------------

// DFPoint is one x-position of Fig. 9: B-SUB's metrics at a decaying
// factor.
type DFPoint struct {
	DF     float64 // per minute
	Report metrics.Report
}

// DefaultDFs mirrors Fig. 9's x-axis (per-minute decaying factors).
func DefaultDFs() []float64 {
	return []float64{0, 0.138, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0}
}

// Fig9TTL is the sweep's fixed TTL: "The TTL is set to 20 hours."
const Fig9TTL = 20 * time.Hour

// DFSweep runs B-SUB across the DF axis at a fixed TTL, one concurrent
// simulation per DF value.
func DFSweep(f *Fixture, dfs []float64, ttl time.Duration) ([]DFPoint, error) {
	out := make([]DFPoint, len(dfs))
	var mu sync.Mutex
	var firstErr error
	jobs := make([]func() error, 0, len(dfs))
	for i, df := range dfs {
		i, df := i, df
		jobs = append(jobs, func() error {
			rep, err := sim.Run(f.simConfig(ttl), core.New(core.DefaultConfig(df)))
			if err != nil {
				return fmt.Errorf("experiments: bsub df=%g: %w", df, err)
			}
			mu.Lock()
			out[i] = DFPoint{DF: df, Report: rep}
			mu.Unlock()
			return nil
		})
	}
	if err := runBounded(jobs, &mu, &firstErr); err != nil {
		return nil, err
	}
	return out, nil
}

// TheoreticalWorstFPR is Fig. 9(d)'s dashed bound: the Eq. 1 FPR of the
// evaluation filter holding every key (m=256, k=4, n=38) — about 0.04.
func TheoreticalWorstFPR() float64 {
	return analysis.FPR(256, 4, workload.NewTrendKeySet().Len())
}

// --- T1 / T2: tables --------------------------------------------------------

// Table1Row mirrors one column of the paper's Table I.
type Table1Row struct {
	Name     string
	Device   string
	Method   string
	Days     float64
	Nodes    int
	Contacts int
}

// Table1 generates both traces and reports their parameters.
func Table1(seed int64) ([]Table1Row, error) {
	haggle, err := tracegen.Generate(tracegen.HaggleInfocom06(seed))
	if err != nil {
		return nil, fmt.Errorf("experiments: table1 haggle: %w", err)
	}
	mit, err := tracegen.Generate(tracegen.MITRealityFull(seed))
	if err != nil {
		return nil, fmt.Errorf("experiments: table1 mit: %w", err)
	}
	hs, ms := haggle.Stats(), mit.Stats()
	return []Table1Row{
		{Name: "Haggle(Infocom'06)", Device: "iMote", Method: "Bluetooth",
			Days: hs.Span.Hours() / 24, Nodes: hs.Nodes, Contacts: hs.Contacts},
		{Name: "MIT reality", Device: "phone", Method: "Bluetooth",
			Days: ms.Span.Hours() / 24, Nodes: ms.Nodes, Contacts: ms.Contacts},
	}, nil
}

// Table2Row is one entry of Table II: a key and its selection probability.
type Table2Row struct {
	Key    workload.Key
	Weight float64
}

// Table2 reports the top-n keys of the workload distribution.
func Table2(n int) []Table2Row {
	ks := workload.NewTrendKeySet()
	if n > ks.Len() {
		n = ks.Len()
	}
	out := make([]Table2Row, n)
	for i := 0; i < n; i++ {
		out[i] = Table2Row{Key: ks.Key(i), Weight: ks.Weight(i)}
	}
	return out
}

// --- M1: memory comparison ---------------------------------------------------

// MemoryResult compares TCBF interest storage against raw strings
// (Sections VI-C and VII-A).
type MemoryResult struct {
	Keys int
	// RawBytes is the raw-string representation: key bytes plus a 2-byte
	// length/control prefix per key.
	RawBytes float64
	// PerKeyTCBFBytes is the paper's per-key bound: k locations of
	// ceil(log2 m) bits plus the shared counter ("at most, 5 bytes are
	// used to encode a single key").
	PerKeyTCBFBytes float64
	// FilterPaperBytes is the Eq. 8 accounting for one filter holding all
	// keys with per-bit counters.
	FilterPaperBytes float64
	// FilterActualBytes is the real wire size of this repository's encoder
	// for the same filter.
	FilterActualBytes int
	// MeanKeyBytes is the average raw key length.
	MeanKeyBytes float64
}

// MemoryComparison measures interest-storage cost for the paper's 38-key
// workload in the m=256, k=4 configuration.
func MemoryComparison() (MemoryResult, error) {
	ks := workload.NewTrendKeySet()
	const perKeyControl = 2
	raw := 0.0
	for _, k := range ks.Keys() {
		raw += float64(len(k) + perKeyControl)
	}
	cfg := tcbf.Config{M: 256, K: 4, Initial: 10, DecayPerMinute: 1}
	f, err := tcbf.New(cfg, 0)
	if err != nil {
		return MemoryResult{}, err
	}
	if err := f.InsertAll(ks.Keys(), 0); err != nil {
		return MemoryResult{}, err
	}
	actual, err := f.WireSize(tcbf.CountersFull)
	if err != nil {
		return MemoryResult{}, err
	}
	return MemoryResult{
		Keys:              ks.Len(),
		RawBytes:          raw,
		PerKeyTCBFBytes:   float64(tcbf.PaperWireBits(cfg.K, cfg.M, tcbf.CountersUniform)) / 8,
		FilterPaperBytes:  float64(tcbf.PaperWireBits(f.SetBits(), cfg.M, tcbf.CountersFull)) / 8,
		FilterActualBytes: actual,
		MeanKeyBytes:      ks.MeanKeyBytes(),
	}, nil
}

// --- A1 / A2: analytical experiments ------------------------------------------

// AllocationPoint is one storage bound of the A2 sweep.
type AllocationPoint struct {
	MaxBytes   int
	Allocation analysis.Allocation
}

// AllocationSweep runs the Eq. 9–10 optimizer over a range of storage
// bounds for the evaluation geometry and key population.
func AllocationSweep(maxBytes []int) ([]AllocationPoint, error) {
	n := workload.NewTrendKeySet().Len()
	out := make([]AllocationPoint, 0, len(maxBytes))
	for _, mb := range maxBytes {
		a, err := analysis.OptimalAllocation(256, 4, n, float64(mb)*8)
		if err != nil {
			return nil, fmt.Errorf("experiments: allocation bound %dB: %w", mb, err)
		}
		out = append(out, AllocationPoint{MaxBytes: mb, Allocation: a})
	}
	return out, nil
}
