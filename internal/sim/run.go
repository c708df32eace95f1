package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"bsub/internal/metrics"
	"bsub/internal/trace"
	"bsub/internal/workload"
	"bsub/internal/xrand"
)

// population implements Population: the immutable facts every worker
// shares. Reads are concurrent; nothing here mutates after Init.
type population struct {
	interests    []workload.Key
	interestSets [][]workload.Key
	subscribers  map[workload.Key][]trace.NodeID
	ttl          time.Duration
	n            int
	workers      int
}

func (p *population) Nodes() int                           { return p.n }
func (p *population) Interest(n trace.NodeID) workload.Key { return p.interests[n] }
func (p *population) TTL() time.Duration                   { return p.ttl }
func (p *population) Workers() int                         { return p.workers }

func (p *population) InterestSet(n trace.NodeID) []workload.Key {
	if p.interestSets != nil {
		return p.interestSets[n]
	}
	return p.interests[n : n+1]
}

// deliverable reports whether any node other than the producer subscribes
// to one of the message's keys.
func (p *population) deliverable(m *workload.Message) bool {
	for _, k := range m.MatchKeys() {
		for _, n := range p.subscribers[k] {
			if int(n) != m.Origin {
				return true
			}
		}
	}
	return false
}

// workerEnv implements Env for one worker goroutine. The clock tracks the
// event being executed; the RNG lazily reseeds per event so protocol
// draws are independent of worker assignment and epoch width.
type workerEnv struct {
	*population
	collector *metrics.Collector
	now       time.Duration
	worker    int
	comp      int32 // executing component's epoch-local index
	budget    Budget
	evSeed    uint64
	rngSeeded bool
	rngSrc    xrand.PRNG
	rng       *rand.Rand
}

var _ Env = (*workerEnv)(nil)

func (e *workerEnv) Now() time.Duration  { return e.now }
func (e *workerEnv) Worker() int         { return e.worker }
func (e *workerEnv) RecordControl(n int) { e.collector.ControlBytes(n) }
func (e *workerEnv) RecordReplication(falsePositive bool) {
	e.collector.Replication(falsePositive)
}

func (e *workerEnv) RecordForwarding(msg *workload.Message) {
	e.collector.Forwarding()
	e.collector.DataBytes(msg.Size)
}

func (e *workerEnv) Deliver(msg *workload.Message, to trace.NodeID) {
	if e.now > msg.CreatedAt+e.ttl {
		e.collector.LateDrop()
		return
	}
	e.collector.DataBytes(msg.Size)
	if int(to) != msg.Origin && msg.Matches(e.InterestSet(to)) {
		e.collector.GenuineDelivery(msg.ID, int(to), e.now-msg.CreatedAt)
		return
	}
	e.collector.FalseDelivery(msg.ID)
}

// RNG seeds on first use within each event, from the event's own identity
// (root seed, time, node pair). The draw stream a protocol sees during a
// contact session is therefore a pure function of the contact itself —
// byte-identical at any worker count and any epoch width. The source is a
// splitmix64 PRNG, so the per-event reseed costs one multiply.
func (e *workerEnv) RNG() *rand.Rand {
	if !e.rngSeeded {
		e.rngSrc.Seed(int64(e.evSeed))
		e.rngSeeded = true
	}
	return e.rng
}

// event is one buffered epoch event: a contact (msg < 0) or a message
// creation (msg indexes the epoch's message buffer, b is unused).
type event struct {
	at   time.Duration
	end  time.Duration
	a, b trace.NodeID
	msg  int32
	comp int32
}

// executor buffers one epoch of events, partitions them into
// contact-connected components with a stamped union-find, and runs the
// components on worker goroutines. All scratch state is reused across
// epochs, so steady-state execution does not allocate per event.
type executor struct {
	proto       Protocol
	pop         *population
	envs        []*workerEnv
	epoch       time.Duration
	curEpoch    int64
	bytesPerSec float64
	seedBase    uint64

	events []event
	msgs   []workload.Message

	parent []int32
	stamp  []int32
	cur    int32

	comps     map[int32]int32 // component root -> dense component index
	compFirst []int32         // component -> epoch-local first event index
	compCount []int32
	compOff   []int32
	order     []int32 // event indices, counting-sorted by component

	next atomic.Int32 // shared component cursor during a flush
}

func newExecutor(cfg *Config, proto Protocol, pop *population, epoch time.Duration) *executor {
	ex := &executor{
		proto:       proto,
		pop:         pop,
		epoch:       epoch,
		bytesPerSec: float64(cfg.BandwidthBps) / 8,
		seedBase:    xrand.Mix64(uint64(cfg.Seed)),
		parent:      make([]int32, pop.n),
		stamp:       make([]int32, pop.n),
		comps:       make(map[int32]int32),
	}
	for w := 0; w < pop.workers; w++ {
		env := &workerEnv{
			population: pop,
			collector:  metrics.NewCollector(proto.Name()),
			worker:     w,
		}
		env.rng = rand.New(&env.rngSrc)
		ex.envs = append(ex.envs, env)
	}
	return ex
}

// eventSeed derives the RNG seed for one event from the root seed and the
// event's identity. It deliberately ignores epochs, components, and
// workers, so protocol draws survive any re-sharding of the same run.
func (ex *executor) eventSeed(ev *event) uint64 {
	h := ex.seedBase ^ uint64(ev.at)
	h = xrand.Mix64(h)
	h ^= uint64(uint32(ev.a))<<32 | uint64(uint32(ev.b))
	return xrand.Mix64(h)
}

// find returns the stamped union-find root of node x, initializing the
// node's entry on first touch in the current epoch.
func (ex *executor) find(x int32) int32 {
	if ex.stamp[x] != ex.cur {
		ex.stamp[x] = ex.cur
		ex.parent[x] = x
		return x
	}
	for ex.parent[x] != x {
		ex.parent[x] = ex.parent[ex.parent[x]] // path halving
		x = ex.parent[x]
	}
	return x
}

func (ex *executor) union(a, b int32) {
	ra, rb := ex.find(a), ex.find(b)
	if ra != rb {
		ex.parent[rb] = ra
	}
}

// flush partitions the buffered epoch into components and executes them,
// returning after every worker has passed the epoch barrier.
func (ex *executor) flush() {
	if len(ex.events) == 0 {
		return
	}
	ex.cur++
	for i := range ex.events {
		ev := &ex.events[i]
		if ev.msg < 0 {
			ex.union(int32(ev.a), int32(ev.b))
		} else {
			ex.find(int32(ev.a)) // stamp the producer's singleton
		}
	}

	// Dense component indices in first-event order: deterministic no
	// matter how the union-find shaped its trees.
	clear(ex.comps)
	ex.compFirst = ex.compFirst[:0]
	ex.compCount = ex.compCount[:0]
	for i := range ex.events {
		ev := &ex.events[i]
		r := ex.find(int32(ev.a))
		ci, ok := ex.comps[r]
		if !ok {
			ci = int32(len(ex.compFirst))
			ex.comps[r] = ci
			ex.compFirst = append(ex.compFirst, int32(i))
			ex.compCount = append(ex.compCount, 0)
		}
		ev.comp = ci
		ex.compCount[ci]++
	}

	// Stable counting sort: each component's events in buffered (global
	// time) order, all components packed into one flat index array.
	ncomp := len(ex.compFirst)
	ex.compOff = ex.compOff[:0]
	off := int32(0)
	for _, c := range ex.compCount {
		ex.compOff = append(ex.compOff, off)
		off += c
	}
	if cap(ex.order) < len(ex.events) {
		ex.order = make([]int32, len(ex.events))
	}
	ex.order = ex.order[:len(ex.events)]
	fill := append([]int32(nil), ex.compOff...)
	for i := range ex.events {
		c := ex.events[i].comp
		ex.order[fill[c]] = int32(i)
		fill[c]++
	}

	// Execute: workers pull components off a shared cursor. Which worker
	// runs which component is scheduling noise — components share no
	// nodes and collectors merge exactly — so output stays byte-identical.
	if len(ex.envs) == 1 || ncomp == 1 {
		for ci := 0; ci < ncomp; ci++ {
			ex.runComponent(ex.envs[0], int32(ci))
		}
	} else {
		ex.next.Store(0)
		var wg sync.WaitGroup
		nw := len(ex.envs)
		if nw > ncomp {
			nw = ncomp
		}
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func(env *workerEnv) {
				defer wg.Done()
				for {
					ci := ex.next.Add(1) - 1
					if int(ci) >= ncomp {
						return
					}
					ex.runComponent(env, ci)
				}
			}(ex.envs[w])
		}
		wg.Wait() // the epoch barrier
	}

	ex.events = ex.events[:0]
	ex.msgs = ex.msgs[:0]
}

// runComponent executes one component's events in global time order.
func (ex *executor) runComponent(env *workerEnv, ci int32) {
	env.comp = ci
	start := ex.compOff[ci]
	endOff := start + ex.compCount[ci]
	for _, idx := range ex.order[start:endOff] {
		ev := &ex.events[idx]
		env.now = ev.at
		env.evSeed = ex.eventSeed(ev)
		env.rngSeeded = false
		if ev.msg >= 0 {
			m := ex.msgs[ev.msg]
			env.collector.MessageCreated(ex.pop.deliverable(&m))
			ex.proto.OnMessage(env, m)
			continue
		}
		env.collector.Contact()
		env.budget.reset(int((ev.end - ev.at).Seconds() * ex.bytesPerSec))
		ex.proto.OnContact(env, ev.a, ev.b, &env.budget)
	}
}

// Run replays cfg against proto and returns the metrics report.
func Run(cfg Config, proto Protocol) (metrics.Report, error) {
	if err := cfg.validate(); err != nil {
		return metrics.Report{}, err
	}
	if cfg.BandwidthBps == 0 {
		cfg.BandwidthBps = DefaultBandwidthBps
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	epoch := cfg.Epoch
	if epoch <= 0 {
		epoch = DefaultEpoch
	}

	n := cfg.nodes()
	pop := &population{
		interests:    cfg.Interests,
		interestSets: cfg.InterestSets,
		subscribers:  make(map[workload.Key][]trace.NodeID, len(cfg.Interests)),
		ttl:          cfg.TTL,
		n:            n,
		workers:      workers,
	}
	for i := 0; i < n; i++ {
		for _, k := range pop.InterestSet(trace.NodeID(i)) {
			pop.subscribers[k] = append(pop.subscribers[k], trace.NodeID(i))
		}
	}

	if err := proto.Init(pop, rand.New(rand.NewSource(cfg.Seed))); err != nil {
		return metrics.Report{}, fmt.Errorf("sim: init %s: %w", proto.Name(), err)
	}

	src := cfg.Source
	if src == nil {
		src = cfg.Trace.Source()
	}
	msrc := cfg.MsgSource
	if msrc == nil {
		msrc = workload.SliceSource(cfg.Messages)
	}

	ex := newExecutor(&cfg, proto, pop, epoch)

	// Pump the two time-sorted streams into epoch buffers, flushing at
	// each epoch boundary. Messages win ties, matching the sequential
	// simulator's historical order.
	curMsg, haveMsg := msrc.Next()
	curC, haveC := src.Next()
	nmsgs := 0
	for haveMsg || haveC {
		takeMsg := haveMsg && (!haveC || curMsg.CreatedAt <= curC.Start)
		var at time.Duration
		if takeMsg {
			at = curMsg.CreatedAt
		} else {
			at = curC.Start
		}
		if at < 0 {
			return metrics.Report{}, fmt.Errorf("sim: negative event time %v", at)
		}
		if ei := int64(at / epoch); ei > ex.curEpoch {
			ex.flush()
			ex.curEpoch = ei
		}
		if takeMsg {
			if curMsg.Origin < 0 || curMsg.Origin >= n {
				return metrics.Report{}, fmt.Errorf("sim: message %d origin %d out of range", nmsgs, curMsg.Origin)
			}
			if nmsgs > 0 && len(ex.msgs) > 0 && curMsg.CreatedAt < ex.msgs[len(ex.msgs)-1].CreatedAt {
				return metrics.Report{}, fmt.Errorf("sim: message stream not sorted at %d", nmsgs)
			}
			ex.events = append(ex.events, event{
				at:  curMsg.CreatedAt,
				a:   trace.NodeID(curMsg.Origin),
				b:   -1,
				msg: int32(len(ex.msgs)),
			})
			ex.msgs = append(ex.msgs, curMsg)
			nmsgs++
			curMsg, haveMsg = msrc.Next()
			continue
		}
		if !(down(cfg.Failures, curC.A, curC.Start) || down(cfg.Failures, curC.B, curC.Start)) {
			ex.events = append(ex.events, event{
				at:  curC.Start,
				end: curC.End,
				a:   curC.A,
				b:   curC.B,
				msg: -1,
			})
		}
		curC, haveC = src.Next()
	}
	ex.flush()

	total := ex.envs[0].collector
	for _, env := range ex.envs[1:] {
		total.Merge(env.collector)
	}
	return total.Report(), nil
}
