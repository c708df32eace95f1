// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index).
//
// Benchmarks exercise the exact code paths that regenerate each artifact.
// To keep `go test -bench=.` tractable they run on the 20-node fixture and
// reduced sweeps; the full-scale artifacts (79-node Haggle, 97-node MIT,
// complete axes) are produced by `go run ./cmd/experiments`, which shares
// these code paths, and recorded in EXPERIMENTS.md.
//
// Custom metrics attached to the figure benchmarks (delivery ratio,
// forwardings, FPR) expose the reproduced series directly in benchmark
// output.
package bsub

import (
	"sync/atomic"
	"testing"
	"time"

	"bsub/internal/analysis"
	"bsub/internal/core"
	"bsub/internal/experiments"
	"bsub/internal/livenode"
	"bsub/internal/protocol"
	"bsub/internal/sim"
	"bsub/internal/tcbf"
	"bsub/internal/tracegen"
	"bsub/internal/workload"
)

func benchFixture(b *testing.B) *experiments.Fixture {
	b.Helper()
	f, err := experiments.NewSmallFixture(1)
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkTable1TraceStats regenerates Table I: both synthetic traces and
// their parameters.
func BenchmarkTable1TraceStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 2 {
			b.Fatal("table 1 malformed")
		}
	}
}

// BenchmarkTable2KeyDistribution regenerates Table II: the workload key
// weights.
func BenchmarkTable2KeyDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2(4)
		if rows[0].Weight < 0.131 || rows[0].Weight > 0.133 {
			b.Fatal("table 2 malformed")
		}
	}
}

// benchTTLSweep runs the Fig. 7/8 pipeline at one representative TTL and
// reports the three series as custom metrics.
func benchTTLSweep(b *testing.B, f *experiments.Fixture) {
	b.Helper()
	var last []experiments.TTLPoint
	for i := 0; i < b.N; i++ {
		points, err := experiments.TTLSweep(f, []time.Duration{2 * time.Hour})
		if err != nil {
			b.Fatal(err)
		}
		last = points
	}
	if len(last) > 0 {
		p := last[0]
		b.ReportMetric(p.Push.DeliveryRatio(), "push-delivery")
		b.ReportMetric(p.BSub.DeliveryRatio(), "bsub-delivery")
		b.ReportMetric(p.Pull.DeliveryRatio(), "pull-delivery")
		b.ReportMetric(p.BSub.ForwardingsPerDelivered(), "bsub-fwd")
	}
}

// BenchmarkFig7HaggleTTLSweep exercises the Fig. 7 pipeline (PUSH vs B-SUB
// vs PULL across TTL) on the bench fixture.
func BenchmarkFig7HaggleTTLSweep(b *testing.B) {
	benchTTLSweep(b, benchFixture(b))
}

// BenchmarkFig8MITTTLSweep exercises the Fig. 8 pipeline. The full MIT
// fixture takes minutes to generate, so the bench shares the small fixture
// with a different seed (the pipeline is identical; only the trace
// differs).
func BenchmarkFig8MITTTLSweep(b *testing.B) {
	f, err := experiments.NewSmallFixture(2)
	if err != nil {
		b.Fatal(err)
	}
	benchTTLSweep(b, f)
}

// BenchmarkFig9DFSweep exercises the Fig. 9 pipeline (B-SUB across the
// decaying factor) and reports the FPR series endpoint.
func BenchmarkFig9DFSweep(b *testing.B) {
	f := benchFixture(b)
	var last []experiments.DFPoint
	for i := 0; i < b.N; i++ {
		points, err := experiments.DFSweep(f, []float64{0, 1}, 4*time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		last = points
	}
	if len(last) == 2 {
		b.ReportMetric(last[0].Report.FPR(), "fpr-df0")
		b.ReportMetric(last[1].Report.FPR(), "fpr-df1")
		b.ReportMetric(experiments.TheoreticalWorstFPR(), "fpr-bound")
	}
}

// BenchmarkMemoryEncoding regenerates the M1 comparison: TCBF vs raw-string
// interest storage.
func BenchmarkMemoryEncoding(b *testing.B) {
	var m experiments.MemoryResult
	var err error
	for i := 0; i < b.N; i++ {
		m, err = experiments.MemoryComparison()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.PerKeyTCBFBytes, "tcbf-B/key")
	b.ReportMetric(m.RawBytes/float64(m.Keys), "raw-B/key")
}

// BenchmarkOptimalAllocation regenerates the A2 optimizer sweep.
func BenchmarkOptimalAllocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AllocationSweep([]int{250, 280, 320, 500}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalysisFPR regenerates the A1 numbers (Eq. 1–3 at the
// evaluation geometry).
func BenchmarkAnalysisFPR(b *testing.B) {
	var fpr float64
	for i := 0; i < b.N; i++ {
		fpr = analysis.FPR(256, 4, 38)
	}
	b.ReportMetric(fpr, "fpr")
}

// --- Micro-benchmarks: the hot paths behind the figures ---------------------

// BenchmarkProtocolContact measures one B-SUB contact session end to end.
func BenchmarkProtocolContact(b *testing.B) {
	tr, err := tracegen.Generate(tracegen.Small(1))
	if err != nil {
		b.Fatal(err)
	}
	f, err := experiments.NewFixture("bench", tr, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Config{
		Trace:     f.Trace,
		Interests: f.Interests,
		Messages:  f.Messages,
		TTL:       2 * time.Hour,
		Seed:      1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg, core.New(core.DefaultConfig(0.1))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(f.Trace.Contacts)), "contacts/op")
}

// BenchmarkPushFlood measures the flooding baseline on the same fixture,
// the simulator's worst-case load.
func BenchmarkPushFlood(b *testing.B) {
	f := benchFixture(b)
	cfg := sim.Config{
		Trace:     f.Trace,
		Interests: f.Interests,
		Messages:  f.Messages,
		TTL:       2 * time.Hour,
		Seed:      1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg, protocol.NewPush()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCBFRoundTrip measures the filter wire path a single contact
// pays: build genuine filter, encode, decode, merge.
func BenchmarkTCBFRoundTrip(b *testing.B) {
	cfg := tcbf.Config{M: 256, K: 4, Initial: 10, DecayPerMinute: 0.1}
	relay := tcbf.MustNew(cfg, 0)
	keys := workload.NewTrendKeySet().Keys()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		genuine := tcbf.MustNew(cfg, 0)
		if err := genuine.Insert(keys[i%len(keys)], 0); err != nil {
			b.Fatal(err)
		}
		data, err := genuine.Encode(tcbf.CountersUniform)
		if err != nil {
			b.Fatal(err)
		}
		decoded, err := tcbf.Decode(data, cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := relay.AMerge(decoded, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionedTCBF measures the Section VI-D partitioned filter's
// insert + query path.
func BenchmarkPartitionedTCBF(b *testing.B) {
	cfg := tcbf.Config{M: 256, K: 4, Initial: 10, DecayPerMinute: 0.1}
	p := tcbf.MustNewPartitioned(cfg, 4, 0)
	var keys []tcbf.PreKey
	for _, k := range workload.NewTrendKeySet().Keys() {
		keys = append(keys, tcbf.Precompute(k))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		if err := p.InsertPre(k, 0); err != nil {
			b.Fatal(err)
		}
		if _, err := p.ContainsPre(k, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveSession measures one full contact session of the prototype
// node over loopback TCP: handshake, election, filter exchange, message
// transfer.
func BenchmarkLiveSession(b *testing.B) {
	var clockNS atomic.Int64
	clockNS.Store(int64(time.Hour))
	clock := func() time.Duration { return time.Duration(clockNS.Load()) }
	mk := func(id uint32) *livenode.Node {
		n, err := livenode.Listen("127.0.0.1:0", livenode.Config{
			ID:       id,
			Protocol: core.DefaultConfig(0.01),
			TTL:      time.Hour,
			Clock:    clock,
		})
		if err != nil {
			b.Fatal(err)
		}
		return n
	}
	producer := mk(1)
	defer producer.Close()
	consumer := mk(2)
	defer consumer.Close()
	consumer.Subscribe("bench")
	if _, err := producer.Publish([]byte("payload"), "bench"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := producer.Meet(consumer.Addr()); err != nil {
			b.Fatal(err)
		}
	}
}
