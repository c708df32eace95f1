package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bsub/internal/core"
	"bsub/internal/livenode"
	"bsub/internal/mesh"
	"bsub/internal/workload"
)

// mesh-flood runs one episode per meshEpisode of measuring time. Each
// starts meshDaemons
// mesh.Start daemons in this process on loopback, subscribes them across
// the trend key set, lets periodic contacts elect brokers, then feeds them
// from one open-loop publisher goroutine at meshRate messages per second.
// Pooling several short-lived fleets averages over the broker sets and
// session races a single fleet settles into.
const (
	meshDaemons = 4
	// meshEpisode is how long one episode publishes.
	meshEpisode = 5 * time.Second
	// meshRate is far below the loopback mesh's saturation: one message's
	// flood finishes before the next is due.
	meshRate = 20
	// meshSubscribersPerKey: every key has this many subscribing daemons,
	// so every message has at least one subscriber besides its publisher.
	meshSubscribersPerKey = 2
	// meshWarmup lets periodic contacts elect brokers and spread interest
	// filters before the first publish.
	meshWarmup = 1500 * time.Millisecond
	// meshDrain bounds how long after the last publish an episode waits
	// for outstanding (message, subscriber) pairs; a pair still missing
	// then is a failed operation.
	meshDrain = 5 * time.Second
	// meshTTL is the message lifetime. It bounds the stores a contact
	// session scans while staying far above any healthy delivery latency.
	meshTTL = 10 * time.Second
	// meshSetupSamples is how many fleets an episode starts, timing each
	// for setup_s; only the last carries the measurement.
	meshSetupSamples = 8
	meshPayload      = 64
	meshStartWithin  = 10 * time.Second
)

const meshInterval = time.Second / meshRate

// pub is one scheduled publish: which daemon publishes which key.
type pub struct {
	daemon int
	key    workload.Key
}

// meshPlan is the generated input of one episode.
type meshPlan struct {
	subs [][]workload.Key // per daemon
	pubs []pub
}

// planMesh derives an episode's subscriptions and publish schedule from
// seed. Keys are shuffled, then dealt so every key has
// meshSubscribersPerKey distinct subscribers and every daemon holds the
// same number of keys (within one); publishers and keys are drawn
// uniformly. Which daemon the election leaves a consumer then changes no
// daemon's share of the traffic.
func planMesh(seed int64, daemons int, seconds float64) meshPlan {
	rng := rand.New(rand.NewSource(seed))
	keys := workload.NewTrendKeySet().Keys()
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	p := meshPlan{subs: make([][]workload.Key, daemons)}
	for j, k := range keys {
		for i := 0; i < meshSubscribersPerKey; i++ {
			d := (j + i) % daemons
			p.subs[d] = append(p.subs[d], k)
		}
	}
	for i := 0; i < int(seconds*meshRate); i++ {
		p.pubs = append(p.pubs, pub{daemon: rng.Intn(daemons), key: keys[rng.Intn(len(keys))]})
	}
	return p
}

// subscribers returns which daemons subscribe to key.
func (p meshPlan) subscribers(key workload.Key) []int {
	var out []int
	for d, keys := range p.subs {
		for _, k := range keys {
			if k == key {
				out = append(out, d)
				break
			}
		}
	}
	return out
}

// pair is one (message, subscriber) delivery: the message's publish
// sequence number and the receiving daemon.
type pair struct {
	seq    int
	daemon int
}

// sessionRec is what the traced run keeps of one livenode session.
type sessionRec struct {
	end     time.Duration
	dur     time.Duration
	outcome livenode.SessionOutcome
	bytes   int64
	frames  int
}

// meshCollector receives the hooks of one fleet. Due instants come from
// the schedule, so a delivery that races ahead of its Publish call still
// finds its latency.
type meshCollector struct {
	clk    clock
	origin time.Duration // due instant of publish 0
	traced bool
	stored atomic.Int64

	mu         sync.Mutex
	got        map[pair]int
	latency    []time.Duration
	deliveries []span // traced: Start is the due instant, Req the sequence number
	sessions   []sessionRec
}

func (c *meshCollector) onDeliver(daemon int) func(livenode.Delivery) {
	return func(d livenode.Delivery) {
		now := c.clk.now()
		if len(d.Payload) < 8 {
			return
		}
		seq := int(binary.BigEndian.Uint64(d.Payload))
		due := c.origin + time.Duration(seq)*meshInterval
		c.mu.Lock()
		c.got[pair{seq, daemon}]++
		c.latency = append(c.latency, now-due)
		if c.traced {
			c.deliveries = append(c.deliveries, span{Name: "mesh.deliver", Start: due, End: now, Req: int64(seq)})
		}
		c.mu.Unlock()
	}
}

func (c *meshCollector) onStored(workload.Message) { c.stored.Add(1) }

func (c *meshCollector) onSession(st livenode.SessionStats) {
	now := c.clk.now()
	c.mu.Lock()
	c.sessions = append(c.sessions, sessionRec{
		end: now, dur: st.Duration, outcome: st.Outcome,
		bytes: st.BytesIn + st.BytesOut, frames: st.FramesIn + st.FramesOut,
	})
	c.mu.Unlock()
}

// startFleet starts one daemon per plan subscription list, each seeded
// with the addresses of the ones before it, and waits until every
// membership table shows all peers Alive.
func startFleet(plan meshPlan, col *meshCollector) ([]*mesh.Mesh, error) {
	var fleet []*mesh.Mesh
	var addrs []string
	for i := range plan.subs {
		id := uint32(i + 1)
		ncfg := livenode.Config{
			ID: id, Protocol: core.DefaultConfig(0.01), TTL: meshTTL,
			OnDeliver: col.onDeliver(i), OnStored: col.onStored,
		}
		if col.traced {
			ncfg.OnSession = col.onSession
		}
		m, err := mesh.Start("127.0.0.1:0", ncfg, mesh.Config{Seeds: append([]string(nil), addrs...), Seed: int64(id)})
		if err != nil {
			closeFleet(fleet)
			return nil, err
		}
		m.Subscribe(plan.subs[i]...)
		fleet = append(fleet, m)
		addrs = append(addrs, m.Addr())
	}
	deadline := time.Now().Add(meshStartWithin)
	for {
		ready := true
		for _, m := range fleet {
			if m.Stats().Alive != len(fleet)-1 {
				ready = false
				break
			}
		}
		if ready {
			return fleet, nil
		}
		if time.Now().After(deadline) {
			closeFleet(fleet)
			return nil, fmt.Errorf("mesh: membership did not converge within %v", meshStartWithin)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func closeFleet(fleet []*mesh.Mesh) {
	for _, m := range fleet {
		_ = m.Close() // shutdown errors carry no measurement
	}
}

// fleetTotals sums the counters the benchmark reads off the daemons.
type fleetTotals struct {
	contacts, contactFailures, reconnects, coalesced, floodTokens, floodDirect uint64
	peerBusy, refusedBusy, meetRetries, refunded, bytesOut                     uint64
	maxActive                                                                  int
}

func totals(fleet []*mesh.Mesh) fleetTotals {
	var t fleetTotals
	for _, m := range fleet {
		s := m.Stats()
		t.contacts += s.Contacts
		t.contactFailures += s.ContactFailures
		t.reconnects += s.Reconnects
		t.coalesced += s.QueueCoalesced
		t.floodTokens += s.FloodTokens
		t.floodDirect += s.FloodDirect
		n := m.Node().Stats()
		t.peerBusy += n.PeerBusy
		t.refusedBusy += n.RefusedBusy
		t.meetRetries += n.MeetRetries
		t.refunded += n.MsgsRefunded
		t.bytesOut += n.BytesOut
		t.maxActive = max(t.maxActive, n.MaxActive)
	}
	return t
}

// add accumulates the counter growth from before to after into t; the
// session high-water mark is a maximum, not a sum.
func (t *fleetTotals) add(after, before fleetTotals) {
	t.contacts += after.contacts - before.contacts
	t.contactFailures += after.contactFailures - before.contactFailures
	t.reconnects += after.reconnects - before.reconnects
	t.coalesced += after.coalesced - before.coalesced
	t.floodTokens += after.floodTokens - before.floodTokens
	t.floodDirect += after.floodDirect - before.floodDirect
	t.peerBusy += after.peerBusy - before.peerBusy
	t.refusedBusy += after.refusedBusy - before.refusedBusy
	t.meetRetries += after.meetRetries - before.meetRetries
	t.refunded += after.refunded - before.refunded
	t.bytesOut += after.bytesOut - before.bytesOut
	t.maxActive = max(t.maxActive, after.maxActive)
}

// meshOutcome pools what a run's episodes produced.
type meshOutcome struct {
	setups     []float64 // CPU seconds per fleet start
	expected   int
	delivered  int
	duplicates int
	stored     int64
	latency    []time.Duration
	counters   fleetTotals
	cpu        time.Duration
	rss        []float64 // settled resident bytes per episode, fleet live
	brokers    []int
	late       []time.Duration // per publish: actual minus due
	publish    []time.Duration // traced: Publish call durations
	sessions   []sessionRec    // traced: sessions ending while publishing or draining
	spans      []span          // traced
	problems   []string
}

// flood runs the episodes of one run: seconds of publishing split into
// episodes of about meshEpisode each, at least one.
func flood(seed int64, daemons int, seconds float64, traced bool) (*meshOutcome, error) {
	out := &meshOutcome{}
	episodes := max(1, int(math.Round(seconds/meshEpisode.Seconds())))
	for e := 0; e < episodes; e++ {
		plan := planMesh(seed*1000+int64(e), daemons, seconds/float64(episodes))
		if err := out.episode(plan, traced); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// episode starts a fleet (timing it), warms it up, publishes the plan
// open-loop, drains, checks the deliveries, and stops the fleet.
func (out *meshOutcome) episode(plan meshPlan, traced bool) error {
	clk := newClock()
	col := &meshCollector{clk: clk, traced: traced, got: map[pair]int{}}
	var fleet []*mesh.Mesh
	for i := 0; i < meshSetupSamples; i++ {
		runtime.GC()
		c0, err := cpuTime()
		if err != nil {
			return err
		}
		f, err := startFleet(plan, col)
		if err != nil {
			return err
		}
		c1, err := cpuTime()
		if err != nil {
			closeFleet(f)
			return err
		}
		out.setups = append(out.setups, (c1 - c0).Seconds())
		if i < meshSetupSamples-1 {
			closeFleet(f)
		} else {
			fleet = f
		}
	}
	defer closeFleet(fleet)
	time.Sleep(meshWarmup)

	runtime.GC()
	before := totals(fleet)
	cpu0, err := cpuTime()
	if err != nil {
		return err
	}
	expected := map[pair]bool{}
	payload := make([]byte, meshPayload)
	col.origin = clk.now() + 10*time.Millisecond
	// Span ids are global across episodes; the clock restarts per episode.
	base := int32(len(out.spans))
	out.spans = append(out.spans, span{Name: "mesh.run", Start: col.origin, Parent: -1})
	pubSpan := map[int]int32{}
	for seq, p := range plan.pubs {
		due := col.origin + time.Duration(seq)*meshInterval
		if wait := due - clk.now(); wait > 0 {
			time.Sleep(wait)
		}
		binary.BigEndian.PutUint64(payload, uint64(seq))
		t0 := clk.now()
		_, err := fleet[p.daemon].Publish(payload, p.key)
		t1 := clk.now()
		out.late = append(out.late, t0-due)
		if traced {
			out.publish = append(out.publish, t1-t0)
			pubSpan[seq] = int32(len(out.spans))
			out.spans = append(out.spans, span{Name: "mesh.publish", Start: t0, End: t1, Parent: base, Req: int64(seq)})
		}
		if err != nil {
			out.problems = append(out.problems, fmt.Sprintf("publish %d: %v", seq, err))
			continue
		}
		for _, d := range plan.subscribers(p.key) {
			if d != p.daemon {
				expected[pair{seq, d}] = true
			}
		}
	}
	drainBy := clk.now() + meshDrain
	for clk.now() < drainBy {
		col.mu.Lock()
		done := len(col.got) >= len(expected)
		col.mu.Unlock()
		if done {
			break
		}
		time.Sleep(time.Millisecond)
	}
	end := clk.now()
	out.spans[base].End = end
	cpu1, err := cpuTime()
	if err != nil {
		return err
	}
	out.cpu += cpu1 - cpu0
	out.counters.add(totals(fleet), before)
	rss, err := settledRSS()
	if err != nil {
		return err
	}
	out.rss = append(out.rss, float64(rss))
	brokers := 0
	for _, m := range fleet {
		if m.Node().IsBroker() {
			brokers++
		}
	}
	out.brokers = append(out.brokers, brokers)
	out.stored += col.stored.Load()

	col.mu.Lock()
	defer col.mu.Unlock()
	out.check(expected, col.got)
	out.latency = append(out.latency, col.latency...)
	for _, s := range col.deliveries {
		s.Parent = -1
		if i, ok := pubSpan[int(s.Req)]; ok {
			s.Parent = i
		}
		out.spans = append(out.spans, s)
	}
	for _, s := range col.sessions {
		if s.end >= col.origin && s.end <= end {
			out.sessions = append(out.sessions, s)
			out.spans = append(out.spans, span{Name: "livenode.session", Start: s.end - s.dur, End: s.end, Parent: base, Req: -1})
		}
	}
	return nil
}

// check applies the Floodsub safety and liveness checks to one episode:
// each expected pair delivered exactly once, nothing delivered to a
// non-subscriber. Every violation is one failed operation.
func (out *meshOutcome) check(expected map[pair]bool, got map[pair]int) {
	out.expected += len(expected)
	var missing, duplicates, spurious int
	for p := range expected {
		switch n := got[p]; {
		case n == 0:
			missing++
		default:
			out.delivered++
			duplicates += n - 1
		}
	}
	for p, n := range got {
		if !expected[p] {
			spurious += n
		}
	}
	out.duplicates += duplicates
	if missing > 0 {
		out.problems = append(out.problems, fmt.Sprintf("mesh: %d of %d pairs not delivered within %v of the last publish", missing, len(expected), meshDrain))
	}
	if duplicates > 0 {
		out.problems = append(out.problems, fmt.Sprintf("mesh: %d duplicate deliveries", duplicates))
	}
	if spurious > 0 {
		out.problems = append(out.problems, fmt.Sprintf("mesh: %d deliveries to non-subscribers", spurious))
	}
}

// account adds the outcome's operations and check violations to res.
func (out *meshOutcome) account(res *result) {
	res.attempted += out.expected
	res.fail(out.problems...)
}

// runMesh measures mesh-flood untraced.
func runMesh(seed int64, seconds float64) (result, error) {
	res := result{}
	o, err := flood(seed, meshDaemons, seconds, false)
	if err != nil {
		return res, err
	}
	o.account(&res)
	c := o.counters
	res.set("setup_s", median(o.setups))
	res.set("contacts_per_s", ratio(float64(c.contacts), o.cpu.Seconds()))
	res.set("rss_per_node_bytes", median(o.rss)/meshDaemons)
	res.set("delivery_ratio", ratio(float64(o.delivered), float64(o.expected)))
	res.set("fwd_per_delivered", ratio(float64(o.stored)+float64(len(o.latency)), float64(o.delivered)))
	res.set("control_bytes_per_contact", ratio(float64(c.bytesOut), float64(c.contacts)))
	res.set("latency_p50_ms", durPercentile(o.latency, 0.5, time.Millisecond))
	res.note("daemons %d, episodes %d, rate %d/s, pairs %d, deliveries %d, brokers %v, sessions %d",
		meshDaemons, len(o.brokers), meshRate, o.expected, len(o.latency), o.brokers, c.contacts)
	return res, nil
}

// traceMesh runs mesh-flood's episodes once untraced and once with the
// session hook and publish spans recording, each for half the measuring
// time, and reports the per-layer metrics of the traced pass.
func traceMesh(seed int64, seconds float64, spansOut func([]span) error) (result, error) {
	res := result{}
	plain, err := flood(seed, meshDaemons, seconds/2, false)
	if err != nil {
		return res, err
	}
	plain.account(&res)
	o, err := flood(seed, meshDaemons, seconds/2, true)
	if err != nil {
		return res, err
	}
	o.account(&res)

	var sessDur []time.Duration
	var busy time.Duration
	var completed int
	var sessBytes int64
	var sessFrames int
	for _, s := range o.sessions {
		busy += s.dur
		if s.outcome == livenode.OutcomeCompleted {
			completed++
			sessDur = append(sessDur, s.dur)
			sessBytes += s.bytes
			sessFrames += s.frames
		}
	}
	c := o.counters
	brokers := 0
	for _, b := range o.brokers {
		brokers += b
	}
	res.set("mesh.publish_p50_us", durPercentile(o.publish, 0.5, time.Microsecond))
	res.set("mesh.publish_p99_us", durPercentile(o.publish, 0.99, time.Microsecond))
	res.set("mesh.latency_p90_ms", durPercentile(o.latency, 0.9, time.Millisecond))
	res.set("mesh.latency_p99_ms", durPercentile(o.latency, 0.99, time.Millisecond))
	res.set("mesh.flood_tokens", float64(c.floodTokens))
	res.set("mesh.flood_direct", float64(c.floodDirect))
	res.set("mesh.queue_coalesced", float64(c.coalesced))
	res.set("mesh.contacts", float64(c.contacts))
	res.set("mesh.contact_failures", float64(c.contactFailures))
	res.set("mesh.reconnects", float64(c.reconnects))
	res.set("mesh.brokers", float64(brokers)/float64(len(o.brokers)))
	res.set("mesh.duplicates", float64(o.duplicates))
	res.set("mesh.sessions_per_delivery", ratio(float64(c.contacts), float64(o.delivered)))
	res.set("mesh.wire_bytes_per_delivery", ratio(float64(c.bytesOut), float64(o.delivered)))
	res.set("livenode.session_p50_ms", durPercentile(sessDur, 0.5, time.Millisecond))
	res.set("livenode.session_p90_ms", durPercentile(sessDur, 0.9, time.Millisecond))
	res.set("livenode.session_busy_s", busy.Seconds())
	res.set("livenode.completed_ratio", ratio(float64(completed), float64(len(o.sessions))))
	res.set("livenode.peer_busy", float64(c.peerBusy))
	res.set("livenode.refused_busy", float64(c.refusedBusy))
	res.set("livenode.meet_retries", float64(c.meetRetries))
	res.set("livenode.msgs_refunded", float64(c.refunded))
	res.set("livenode.bytes_per_session", ratio(float64(sessBytes), float64(completed)))
	res.set("livenode.frames_per_session", ratio(float64(sessFrames), float64(completed)))
	res.set("livenode.max_active", float64(c.maxActive))
	res.set("bench.generator_late_ms", durPercentile(o.late, 0.99, time.Millisecond))
	p50 := durPercentile(o.latency, 0.5, time.Millisecond)
	plainP50 := durPercentile(plain.latency, 0.5, time.Millisecond)
	res.set("bench.tracing_overhead", ratio(p50, plainP50)-1)
	res.note("latency p50 untraced %.3fms, traced %.3fms; brokers per episode %v", plainP50, p50, o.brokers)
	return res, spansOut(o.spans)
}
