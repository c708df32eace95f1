package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"bsub/internal/core"
	"bsub/internal/experiments"
	"bsub/internal/metrics"
	"bsub/internal/sim"
	"bsub/internal/trace"
	"bsub/internal/tracegen"
	"bsub/internal/workload"
)

// Span names recorded around the simulator's layers.
const (
	spanRun       = "sim.run"
	spanTracegen  = "tracegen.next"
	spanTrace     = "trace.next"
	spanWorkload  = "workload.next"
	spanOnContact = "core.on_contact"
	spanOnMessage = "core.on_message"
)

// --- Decorators -------------------------------------------------------------

// contactSource wraps the trace.Source a replay reads. It always counts
// the contacts it yields (the output check compares that count with
// Report.Contacts); with a lane set it also records a span per Next call.
type contactSource struct {
	src     trace.Source
	name    string
	yielded int
	clk     clock
	lane    *lane
}

func (s *contactSource) Nodes() int { return s.src.Nodes() }

func (s *contactSource) Next() (trace.Contact, bool) {
	if s.lane == nil {
		c, ok := s.src.Next()
		if ok {
			s.yielded++
		}
		return c, ok
	}
	t0 := s.clk.now()
	c, ok := s.src.Next()
	s.lane.spans = append(s.lane.spans, span{Name: s.name, Start: t0, End: s.clk.now()})
	if ok {
		s.yielded++
	}
	return c, ok
}

// messageSource records a span per workload.Source Next call.
type messageSource struct {
	src  workload.Source
	clk  clock
	lane *lane
}

func (s *messageSource) Next() (workload.Message, bool) {
	t0 := s.clk.now()
	m, ok := s.src.Next()
	s.lane.spans = append(s.lane.spans, span{Name: spanWorkload, Start: t0, End: s.clk.now()})
	return m, ok
}

// timedProtocol records a span per OnContact and OnMessage call into the
// lane of the executing worker (sim.Env.Worker), so parallel workers
// never share a buffer or a lock.
type timedProtocol struct {
	sim.Protocol
	clk   clock
	lanes []lane
}

func (p *timedProtocol) Init(pop sim.Population, rng *rand.Rand) error {
	p.lanes = make([]lane, pop.Workers())
	return p.Protocol.Init(pop, rng)
}

func (p *timedProtocol) OnMessage(env sim.Env, msg workload.Message) {
	t0 := p.clk.now()
	p.Protocol.OnMessage(env, msg)
	l := &p.lanes[env.Worker()]
	l.spans = append(l.spans, span{Name: spanOnMessage, Start: t0, End: p.clk.now()})
}

func (p *timedProtocol) OnContact(env sim.Env, a, b trace.NodeID, budget *sim.Budget) {
	t0 := p.clk.now()
	p.Protocol.OnContact(env, a, b, budget)
	l := &p.lanes[env.Worker()]
	l.spans = append(l.spans, span{Name: spanOnContact, Start: t0, End: p.clk.now()})
}

// --- Legs -------------------------------------------------------------------

// population is the sim-population size: large enough that the per-pair
// stream heap and the node table outgrow the CPU caches.
const population = 50_000

// paperTTLs are the TTLs sim-paper alternates between, one per sub-seed,
// from the short end of the Fig. 7/8 axis where delivery is still
// TTL-limited.
var paperTTLs = []time.Duration{50 * time.Minute, 100 * time.Minute}

// paperSubSeeds is how many workload seeds one sim-paper round replays.
// Each contributes a Haggle and an MIT leg; pooling their exact counts
// keeps the per-seed scatter of the small fixtures out of the metrics.
const paperSubSeeds = 10

// paperTraceSeed fixes sim-paper's two contact traces. They stand in for
// the paper's recorded Haggle and MIT traces, which are fixed datasets;
// --seed varies the workload (interests and messages) replayed over them.
const paperTraceSeed = 1

// simLeg is one sim.Run: a fixture generated from a seed, replayed by
// B-SUB at a TTL.
type simLeg struct {
	fixture string // "population", "haggle" or "mit"
	seed    int64
	ttl     time.Duration
}

// legsFor returns the legs one round of a simulator workload replays.
func legsFor(workloadName string, seed int64) []simLeg {
	if workloadName == "sim-population" {
		return []simLeg{{fixture: "population", seed: seed, ttl: experiments.ScaleTTL}}
	}
	legs := make([]simLeg, 0, 2*paperSubSeeds)
	for i := 0; i < paperSubSeeds; i++ {
		sub := seed*paperSubSeeds + int64(i)
		ttl := paperTTLs[i%len(paperTTLs)]
		legs = append(legs, simLeg{"haggle", sub, ttl}, simLeg{"mit", sub, ttl})
	}
	return legs
}

// legInputs is a built leg: the generated inputs and the constructed
// protocol, ready to replay.
type legInputs struct {
	nodes     int
	source    trace.Source
	srcName   string
	msgs      workload.Source
	interests []workload.Key
	proto     *core.BSub
}

// fixtureInputs replays a materialized fixture at the paper's B-SUB
// configuration for ttl.
func fixtureInputs(f *experiments.Fixture, ttl time.Duration) legInputs {
	return legInputs{
		nodes: f.Trace.Nodes, source: f.Trace.Source(), srcName: spanTrace,
		msgs: workload.SliceSource(f.Messages), interests: f.Interests,
		proto: core.New(f.BSubConfig(ttl)),
	}
}

// build generates the leg's inputs and constructs its protocol — the work
// setup_s times.
func (l simLeg) build() (legInputs, error) {
	var cfg tracegen.Config
	var name string
	switch l.fixture {
	case "population":
		ts, interests, msgs, err := experiments.ScaleStreams(population, l.seed)
		if err != nil {
			return legInputs{}, err
		}
		return legInputs{
			nodes: ts.Nodes(), source: ts, srcName: spanTracegen, msgs: msgs,
			interests: interests, proto: core.New(core.DefaultConfig(0.1)),
		}, nil
	case "haggle":
		cfg, name = tracegen.HaggleInfocom06(paperTraceSeed), "Haggle(Infocom06)"
	default:
		cfg, name = tracegen.MITReality3Day(paperTraceSeed), "MIT Reality"
	}
	tr, err := tracegen.Generate(cfg)
	if err != nil {
		return legInputs{}, err
	}
	f, err := experiments.NewFixture(name, tr, l.seed)
	if err != nil {
		return legInputs{}, err
	}
	return fixtureInputs(f, l.ttl), nil
}

// legOutcome is what one replay produced.
type legOutcome struct {
	// setup is the user CPU time spent building the leg's inputs and
	// protocol; run and runCPU are sim.Run's wall and process CPU time.
	setup, run, runCPU time.Duration
	report             metrics.Report
	yielded            int
	nodes              int
	srcName            string
	proto              *core.BSub
	// Traced replays only: the spans, with spans[0] the sim.run span.
	spans []span
	// Untraced replays only: runtime allocation and GC deltas, and the
	// settled resident set with the replay's protocol state still live.
	mem memDelta
	rss int64
}

type memDelta struct {
	allocBytes, allocs uint64
	gcCycles           uint32
	gcPause            time.Duration
}

// replay builds and runs one leg. With traced set the sources and the
// protocol are wrapped in span-recording decorators; otherwise only the
// contact source is wrapped, to count what it yields.
func replay(l simLeg, workers int, traced bool) (legOutcome, error) {
	runtime.GC()
	in, setup, err := timeSetup(l.build)
	if err != nil {
		return legOutcome{}, fmt.Errorf("%s seed %d: %w", l.fixture, l.seed, err)
	}
	out, err := runInputs(in, l.ttl, l.seed, workers, traced)
	if err != nil {
		return legOutcome{}, fmt.Errorf("%s seed %d: %w", l.fixture, l.seed, err)
	}
	out.setup = setup
	return out, nil
}

// timeSetup runs build on a goroutine locked to its OS thread and returns
// the user CPU time that thread spent. It leaves out kernel page-fault
// time and the collector's background workers, which on a shared VM vary
// two- to fourfold with the host's memory state while the set-up code's
// own work does not.
func timeSetup(build func() (legInputs, error)) (legInputs, time.Duration, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0, err := threadUserTime()
	if err != nil {
		return legInputs{}, 0, err
	}
	in, err := build()
	if err != nil {
		return legInputs{}, 0, err
	}
	t1, err := threadUserTime()
	return in, t1 - t0, err
}

// runInputs replays built inputs once.
func runInputs(in legInputs, ttl time.Duration, seed int64, workers int, traced bool) (legOutcome, error) {
	clk := newClock()
	var pump lane
	src := &contactSource{src: in.source, name: in.srcName, clk: clk}
	var msgs workload.Source = in.msgs
	var proto sim.Protocol = in.proto
	var tp *timedProtocol
	if traced {
		src.lane = &pump
		msgs = &messageSource{src: in.msgs, clk: clk, lane: &pump}
		tp = &timedProtocol{Protocol: in.proto, clk: clk}
		proto = tp
	}
	cfg := sim.Config{
		Source:    src,
		MsgSource: msgs,
		Interests: in.interests,
		TTL:       ttl,
		Seed:      seed,
		Workers:   workers,
	}

	runtime.GC()
	var before, after runtime.MemStats
	if !traced {
		runtime.ReadMemStats(&before)
	}
	c0, err := cpuTime()
	if err != nil {
		return legOutcome{}, err
	}
	start := clk.now()
	rep, err := sim.Run(cfg, proto)
	end := clk.now()
	c1, cerr := cpuTime()
	if err == nil {
		err = cerr
	}
	if err != nil {
		return legOutcome{}, err
	}
	out := legOutcome{
		run: end - start, runCPU: c1 - c0, report: rep, yielded: src.yielded,
		nodes: in.nodes, srcName: in.srcName, proto: in.proto,
	}
	if traced {
		out.spans = append(out.spans, span{Name: spanRun, Start: start, End: end, Parent: -1})
		out.spans = append(out.spans, pump.spans...)
		for i := range tp.lanes {
			out.spans = append(out.spans, tp.lanes[i].spans...)
		}
	} else {
		runtime.ReadMemStats(&after)
		if out.rss, err = settledRSS(); err != nil {
			return legOutcome{}, err
		}
		out.mem = memDelta{
			allocBytes: after.TotalAlloc - before.TotalAlloc,
			allocs:     after.Mallocs - before.Mallocs,
			gcCycles:   after.NumGC - before.NumGC,
			gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		}
	}
	return out, nil
}

// checkLeg applies the per-replay output checks and returns the
// violations found.
func checkLeg(l simLeg, o legOutcome) []string {
	var bad []string
	if o.report.Contacts != o.yielded {
		bad = append(bad, fmt.Sprintf("%s seed %d: report counts %d contacts, source yielded %d",
			l.fixture, l.seed, o.report.Contacts, o.yielded))
	}
	if o.report.Delivered > o.report.Deliverable {
		bad = append(bad, fmt.Sprintf("%s seed %d: delivered %d > deliverable %d",
			l.fixture, l.seed, o.report.Delivered, o.report.Deliverable))
	}
	return bad
}

// sameReport reports whether two replays produced identical reports.
func sameReport(a, b metrics.Report) bool { return reflect.DeepEqual(a, b) }

// --- Rounds -----------------------------------------------------------------

// round is one pass over a workload's legs.
type round struct {
	legs []legOutcome
}

// runRound replays every leg untraced, dropping each protocol once its
// leg is done so a round holds one population at a time.
func runRound(legs []simLeg, workers int) (round, error) {
	var r round
	for _, l := range legs {
		o, err := replay(l, workers, false)
		if err != nil {
			return round{}, err
		}
		o.proto = nil
		r.legs = append(r.legs, o)
	}
	return r, nil
}

func (r round) setup() time.Duration {
	var d time.Duration
	for _, o := range r.legs {
		d += o.setup
	}
	return d
}

func (r round) run() time.Duration {
	var d time.Duration
	for _, o := range r.legs {
		d += o.run
	}
	return d
}

func (r round) runCPU() time.Duration {
	var d time.Duration
	for _, o := range r.legs {
		d += o.runCPU
	}
	return d
}

// rssPerNode is the largest settled resident set of the round's replays
// over the largest population among them.
func (r round) rssPerNode() float64 {
	var rss int64
	nodes := 0
	for _, o := range r.legs {
		rss = max(rss, o.rss)
		nodes = max(nodes, o.nodes)
	}
	return float64(rss) / float64(nodes)
}

func (r round) contacts() int {
	n := 0
	for _, o := range r.legs {
		n += o.report.Contacts
	}
	return n
}

// exact holds the round's pooled report counts: every leg's counts summed,
// so ratios weigh legs by their traffic.
type exact struct {
	created, deliverable, delivered, deliveryEvents int
	forwardings, replications, falseInjections      int
	controlBytes, dataBytes                         int64
	lateDrops, contacts                             int
	delayP50ms, delayP90ms                          float64 // mean over legs
}

func (r round) exact() exact {
	var e exact
	for _, o := range r.legs {
		rp := o.report
		e.created += rp.Created
		e.deliverable += rp.Deliverable
		e.delivered += rp.Delivered
		e.deliveryEvents += rp.DeliveryEvents
		e.forwardings += rp.Forwardings
		e.replications += rp.Replications
		e.falseInjections += rp.FalseInjections
		e.controlBytes += rp.ControlBytes
		e.dataBytes += rp.DataBytes
		e.lateDrops += rp.LateDrops
		e.contacts += rp.Contacts
		e.delayP50ms += ms(rp.DelayPercentile(0.5))
		e.delayP90ms += ms(rp.DelayPercentile(0.9))
	}
	if n := float64(len(r.legs)); n > 0 {
		e.delayP50ms /= n
		e.delayP90ms /= n
	}
	return e
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// --- Workload runners -------------------------------------------------------

// runSim measures a simulator workload untraced. A first, untimed round
// warms the process up; timed rounds then repeat until the measuring
// time is spent (at least minRounds). Timing metrics are medians over the
// timed rounds. The exact metrics come from the first round, and every
// later round must reproduce its reports exactly.
func runSim(workloadName string, seed int64, seconds float64) (result, error) {
	const minRounds = 3
	legs := legsFor(workloadName, seed)
	workers := runtime.GOMAXPROCS(0)
	res := result{}
	var first round
	var setups, rates, rssPerNode []float64
	var began time.Time
	for n := 0; n <= minRounds || time.Since(began).Seconds() < seconds; n++ {
		if n == 1 {
			began = time.Now()
		}
		r, err := runRound(legs, workers)
		if err != nil {
			return res, err
		}
		for i, o := range r.legs {
			res.attempted++
			bad := checkLeg(legs[i], o)
			if n > 0 && !sameReport(o.report, first.legs[i].report) {
				bad = append(bad, fmt.Sprintf("%s seed %d: round %d report differs from round 0", legs[i].fixture, legs[i].seed, n))
			}
			res.fail(bad...)
		}
		if n == 0 {
			first = r
			continue
		}
		setups = append(setups, r.setup().Seconds())
		rates = append(rates, float64(r.contacts())/r.runCPU().Seconds())
		rssPerNode = append(rssPerNode, r.rssPerNode())
	}
	res.note("timed rounds %d after one warm-up, legs per round %d, workers %d", len(setups), len(legs), workers)
	res.note("per-round setup_s %.4g", setups)
	res.note("per-round contacts_per_s %.6g", rates)
	e := first.exact()
	res.set("setup_s", median(setups))
	res.set("contacts_per_s", median(rates))
	res.set("rss_per_node_bytes", median(rssPerNode))
	res.set("delivery_ratio", ratio(float64(e.delivered), float64(e.deliverable)))
	res.set("fwd_per_delivered", ratio(float64(e.forwardings), float64(e.deliveryEvents)))
	res.set("control_bytes_per_contact", ratio(float64(e.controlBytes), float64(e.contacts)))
	res.set("latency_p50_ms", e.delayP50ms)
	return res, nil
}

// traceSim runs one untraced and one traced round of a simulator
// workload and reports the per-layer metrics. The two rounds must
// produce identical reports: the decorators may not perturb the program.
func traceSim(workloadName string, seed int64, spansOut func([]span) error) (result, error) {
	legs := legsFor(workloadName, seed)
	workers := runtime.GOMAXPROCS(0)
	res := result{}
	plain, err := runRound(legs, workers)
	if err != nil {
		return res, err
	}
	for i, o := range plain.legs {
		res.attempted++
		res.fail(checkLeg(legs[i], o)...)
	}

	var onContact []time.Duration
	var srcCalls, msgCalls, ocCalls int
	var srcBusy, msgBusy, ocBusy, omBusy, protoBusy, self, traced time.Duration
	var fillSum, fprSum float64
	var brokerSamples, brokers, carried int
	var tracedRound round
	for i, l := range legs {
		o, err := replay(l, workers, true)
		if err != nil {
			return res, err
		}
		res.attempted++
		bad := checkLeg(l, o)
		if !sameReport(o.report, plain.legs[i].report) {
			bad = append(bad, fmt.Sprintf("%s seed %d: traced report differs from untraced", l.fixture, l.seed))
		}
		res.fail(bad...)

		n, b := layerTotals(o.spans, o.srcName)
		srcCalls += n
		srcBusy += b
		n, b = layerTotals(o.spans, spanWorkload)
		msgCalls += n
		msgBusy += b
		n, b = layerTotals(o.spans, spanOnContact)
		ocCalls += n
		ocBusy += b
		protoBusy += b
		_, b = layerTotals(o.spans, spanOnMessage)
		omBusy += b
		protoBusy += b
		onContact = append(onContact, durations(o.spans, spanOnContact)...)
		self += selfTime(o.spans[0], o.spans[1:])
		for j := range o.spans {
			o.spans[j].Req = int64(i)
		}
		traced += o.run

		for id := 0; id < o.nodes; id++ {
			nid := trace.NodeID(id)
			carried += o.proto.CarriedCount(nid)
			if !o.proto.IsBroker(nid) {
				continue
			}
			f := o.proto.RelayFilter(nid)
			fillSum += float64(f.SetBits()) / float64(f.Config().M*f.Partitions())
			fprSum += f.EstimatedFPR()
			brokerSamples++
		}
		brokers += o.proto.BrokerCount()
		if err := spansOut(o.spans); err != nil {
			return res, err
		}
		o.spans, o.proto = nil, nil
		tracedRound.legs = append(tracedRound.legs, o)
	}

	srcPrefix := "tracegen"
	if workloadName == "sim-paper" {
		srcPrefix = "trace"
	}
	res.set(srcPrefix+".next_calls", float64(srcCalls))
	res.set(srcPrefix+".next_busy_s", srcBusy.Seconds())
	res.set("workload.next_calls", float64(msgCalls))
	res.set("workload.next_busy_s", msgBusy.Seconds())
	res.set("core.on_contact_calls", float64(ocCalls))
	res.set("core.on_contact_busy_s", ocBusy.Seconds())
	res.set("core.on_contact_p50_us", durPercentile(onContact, 0.5, time.Microsecond))
	res.set("core.on_contact_p99_us", durPercentile(onContact, 0.99, time.Microsecond))
	res.set("core.on_message_busy_s", omBusy.Seconds())
	res.set("sim.run_s", traced.Seconds())
	res.set("sim.self_s", self.Seconds())
	res.set("sim.worker_utilization", ratio(protoBusy.Seconds(), float64(workers)*traced.Seconds()))

	e := tracedRound.exact()
	res.set("metrics.contacts", float64(e.contacts))
	res.set("metrics.created", float64(e.created))
	res.set("metrics.delivered", float64(e.delivered))
	res.set("metrics.forwardings", float64(e.forwardings))
	res.set("metrics.replications", float64(e.replications))
	res.set("metrics.false_injections", float64(e.falseInjections))
	res.set("metrics.control_bytes", float64(e.controlBytes))
	res.set("metrics.data_bytes", float64(e.dataBytes))
	res.set("metrics.late_drops", float64(e.lateDrops))
	res.set("metrics.delay_p90_ms", e.delayP90ms)
	res.set("filter.relay_fill_mean", ratio(fillSum, float64(brokerSamples)))
	res.set("filter.estimated_fpr_mean", ratio(fprSum, float64(brokerSamples)))
	res.set("filter.observed_fpr", ratio(float64(e.falseInjections), float64(e.replications)))
	res.set("engine.brokers", float64(brokers)/float64(len(legs)))
	res.set("engine.carried_total", float64(carried)/float64(len(legs)))

	var mem memDelta
	for _, o := range plain.legs {
		mem.allocBytes += o.mem.allocBytes
		mem.allocs += o.mem.allocs
		mem.gcCycles += o.mem.gcCycles
		mem.gcPause += o.mem.gcPause
	}
	contacts := float64(plain.contacts())
	res.set("runtime.alloc_bytes_per_contact", float64(mem.allocBytes)/contacts)
	res.set("runtime.allocs_per_contact", float64(mem.allocs)/contacts)
	res.set("runtime.gc_cycles", float64(mem.gcCycles))
	res.set("runtime.gc_pause_s", mem.gcPause.Seconds())
	res.set("bench.tracing_overhead", traced.Seconds()/plain.run().Seconds()-1)
	res.note("untraced sim.Run %.3fs, traced %.3fs, legs %d, workers %d", plain.run().Seconds(), traced.Seconds(), len(legs), workers)
	return res, nil
}
