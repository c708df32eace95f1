package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"bsub/internal/trace"
	"bsub/internal/workload"
)

func TestBudget(t *testing.T) {
	b := NewBudget(100)
	if !b.Spend(60) {
		t.Fatal("spend within budget failed")
	}
	if b.Remaining() != 40 {
		t.Fatalf("remaining = %d, want 40", b.Remaining())
	}
	if b.Spend(41) {
		t.Fatal("overspend succeeded")
	}
	if b.Remaining() != 40 {
		t.Fatal("failed spend deducted bytes")
	}
	if !b.Spend(40) {
		t.Fatal("exact spend failed")
	}
	if b.Spend(1) {
		t.Fatal("spend from empty budget succeeded")
	}
	if b.Spend(-5) {
		t.Fatal("negative spend succeeded")
	}
	if NewBudget(-10).Remaining() != 0 {
		t.Fatal("negative budget not clamped")
	}
}

// probe records the event sequence the simulator feeds a protocol.
// Its slices are shared state, so probe tests run at Workers <= 1.
type probe struct {
	events   []string
	onMsg    func(env Env, msg workload.Message)
	onTouch  func(env Env, a, b trace.NodeID, budget *Budget)
	initErr  error
	nowAtEvt []time.Duration
}

var _ Protocol = (*probe)(nil)

func (p *probe) Name() string                            { return "probe" }
func (p *probe) Init(pop Population, _ *rand.Rand) error { return p.initErr }
func (p *probe) OnMessage(env Env, msg workload.Message) {
	p.events = append(p.events, "msg")
	p.nowAtEvt = append(p.nowAtEvt, env.Now())
	if p.onMsg != nil {
		p.onMsg(env, msg)
	}
}
func (p *probe) OnContact(env Env, a, b trace.NodeID, budget *Budget) {
	p.events = append(p.events, "contact")
	p.nowAtEvt = append(p.nowAtEvt, env.Now())
	if p.onTouch != nil {
		p.onTouch(env, a, b, budget)
	}
}

func twoNodeTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tr, err := trace.New("t", 2, []trace.Contact{
		{A: 0, B: 1, Start: 10 * time.Minute, End: 11 * time.Minute},
		{A: 0, B: 1, Start: 30 * time.Minute, End: 31 * time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func baseConfig(t *testing.T) Config {
	return Config{
		Trace:     twoNodeTrace(t),
		Interests: []workload.Key{"a", "b"},
		Messages: []workload.Message{
			{ID: 0, Key: "b", Origin: 0, Size: 100, CreatedAt: 5 * time.Minute},
			{ID: 1, Key: "a", Origin: 1, Size: 100, CreatedAt: 20 * time.Minute},
		},
		TTL:  time.Hour,
		Seed: 1,
	}
}

func TestRunEventOrdering(t *testing.T) {
	p := &probe{}
	if _, err := Run(baseConfig(t), p); err != nil {
		t.Fatal(err)
	}
	want := []string{"msg", "contact", "msg", "contact"}
	if len(p.events) != len(want) {
		t.Fatalf("events = %v", p.events)
	}
	for i := range want {
		if p.events[i] != want[i] {
			t.Fatalf("event %d = %q, want %q (all: %v)", i, p.events[i], want[i], p.events)
		}
	}
	for i := 1; i < len(p.nowAtEvt); i++ {
		if p.nowAtEvt[i] < p.nowAtEvt[i-1] {
			t.Fatal("clock moved backwards across events")
		}
	}
}

func TestRunBudgetFromContactDuration(t *testing.T) {
	var got int
	p := &probe{}
	p.onTouch = func(_ Env, _, _ trace.NodeID, b *Budget) { got = b.Remaining() }
	cfg := baseConfig(t)
	cfg.BandwidthBps = 8000 // 1000 bytes/sec; contacts are 60s
	if _, err := Run(cfg, p); err != nil {
		t.Fatal(err)
	}
	if got != 60000 {
		t.Errorf("budget = %d bytes, want 60s * 1000 B/s", got)
	}
}

func TestRunDeliveryClassification(t *testing.T) {
	p := &probe{}
	p.onTouch = func(env Env, a, b trace.NodeID, _ *Budget) {
		msg0 := &workload.Message{ID: 0, Key: "b", Origin: 0, Size: 10, CreatedAt: 5 * time.Minute}
		env.Deliver(msg0, 1) // genuine
		env.Deliver(msg0, 0) // producer: classified false
	}
	rep, err := Run(baseConfig(t), p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != 1 {
		t.Errorf("delivered = %d, want 1", rep.Delivered)
	}
	if rep.FalseDeliveries != 1 {
		t.Errorf("false deliveries = %d, want 1", rep.FalseDeliveries)
	}
	// Deliverable pairs: msg0 key "b" -> node 1; msg1 key "a" -> node 0.
	if rep.Deliverable != 2 {
		t.Errorf("deliverable = %d, want 2", rep.Deliverable)
	}
	if rep.DeliveryRatio() != 0.5 {
		t.Errorf("delivery ratio = %g", rep.DeliveryRatio())
	}
	if rep.Contacts != 2 {
		t.Errorf("contacts = %d, want 2", rep.Contacts)
	}
}

func TestRunRefusesLateDelivery(t *testing.T) {
	p := &probe{}
	p.onTouch = func(env Env, a, b trace.NodeID, _ *Budget) {
		if env.Now() < 30*time.Minute {
			return
		}
		// TTL is 15 minutes; message 0 was created at 5m, now it is 30m.
		late := &workload.Message{ID: 0, Key: "b", Origin: 0, Size: 10, CreatedAt: 5 * time.Minute}
		env.Deliver(late, 1)
	}
	cfg := baseConfig(t)
	cfg.TTL = 15 * time.Minute
	rep, err := Run(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != 0 {
		t.Errorf("late delivery accepted: %d", rep.Delivered)
	}
	if rep.LateDrops != 1 {
		t.Errorf("late drops = %d, want 1", rep.LateDrops)
	}
}

func TestRunValidation(t *testing.T) {
	good := baseConfig(t)
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "nil trace", mutate: func(c *Config) { c.Trace = nil }},
		{name: "trace and source", mutate: func(c *Config) { c.Source = c.Trace.Source() }},
		{name: "interest count", mutate: func(c *Config) { c.Interests = c.Interests[:1] }},
		{name: "zero ttl", mutate: func(c *Config) { c.TTL = 0 }},
		{name: "negative bandwidth", mutate: func(c *Config) { c.BandwidthBps = -1 }},
		{name: "negative workers", mutate: func(c *Config) { c.Workers = -1 }},
		{name: "too many workers", mutate: func(c *Config) { c.Workers = MaxWorkers + 1 }},
		{name: "negative epoch", mutate: func(c *Config) { c.Epoch = -time.Minute }},
		{name: "unsorted messages", mutate: func(c *Config) {
			c.Messages[0].CreatedAt, c.Messages[1].CreatedAt = c.Messages[1].CreatedAt, c.Messages[0].CreatedAt
		}},
		{name: "origin out of range", mutate: func(c *Config) { c.Messages[0].Origin = 99 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := baseConfig(t)
			tt.mutate(&cfg)
			if _, err := Run(cfg, &probe{}); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
	if _, err := Run(good, &probe{}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestRunStreamedValidation: origin-range and sort checks still fire when
// the workload arrives through a stream (checked at the pump, since the
// stream cannot be inspected up front).
func TestRunStreamedValidation(t *testing.T) {
	cfg := baseConfig(t)
	cfg.MsgSource = workload.SliceSource([]workload.Message{
		{ID: 0, Key: "b", Origin: 99, Size: 10, CreatedAt: time.Minute},
	})
	cfg.Messages = nil
	if _, err := Run(cfg, &probe{}); err == nil {
		t.Error("streamed out-of-range origin accepted")
	}

	cfg = baseConfig(t)
	cfg.MsgSource = workload.SliceSource([]workload.Message{
		{ID: 0, Key: "b", Origin: 0, Size: 10, CreatedAt: 2 * time.Minute},
		{ID: 1, Key: "a", Origin: 1, Size: 10, CreatedAt: time.Minute},
	})
	cfg.Messages = nil
	if _, err := Run(cfg, &probe{}); err == nil {
		t.Error("streamed unsorted workload accepted")
	}

	// Contacts are checked the same way: a node beyond the population
	// would index past the executor's tables, and a contact earlier than
	// its predecessor would run the protocol's clock backwards.
	cfg = baseConfig(t)
	cfg.Trace = nil
	cfg.Source = &contactList{nodes: 2, contacts: []trace.Contact{
		{A: 0, B: 5, Start: time.Minute, End: 2 * time.Minute},
	}}
	if _, err := Run(cfg, &probe{}); err == nil {
		t.Error("streamed out-of-range contact accepted")
	}

	cfg = baseConfig(t)
	cfg.Trace = nil
	cfg.Source = &contactList{nodes: 2, contacts: []trace.Contact{
		{A: 0, B: 1, Start: 25 * time.Minute, End: 26 * time.Minute},
		{A: 0, B: 1, Start: 5 * time.Minute, End: 6 * time.Minute},
	}}
	p := &probe{}
	if _, err := Run(cfg, p); err == nil {
		t.Errorf("streamed unsorted contacts accepted; clock ran %v", p.nowAtEvt)
	}
}

// contactList is a trace.Source over a fixed contact list, with no
// checks of its own.
type contactList struct {
	nodes    int
	contacts []trace.Contact
}

func (l *contactList) Nodes() int { return l.nodes }

func (l *contactList) Next() (trace.Contact, bool) {
	if len(l.contacts) == 0 {
		return trace.Contact{}, false
	}
	c := l.contacts[0]
	l.contacts = l.contacts[1:]
	return c, true
}

func TestRunInitError(t *testing.T) {
	p := &probe{initErr: errInit}
	if _, err := Run(baseConfig(t), p); err == nil {
		t.Error("init error swallowed")
	}
}

var errInit = errTest("init failed")

type errTest string

func (e errTest) Error() string { return string(e) }

func TestRunZeroBandwidthDefault(t *testing.T) {
	var got int
	p := &probe{}
	p.onTouch = func(_ Env, _, _ trace.NodeID, b *Budget) { got = b.Remaining() }
	cfg := baseConfig(t)
	cfg.BandwidthBps = 0
	if _, err := Run(cfg, p); err != nil {
		t.Fatal(err)
	}
	want := int(60 * float64(DefaultBandwidthBps) / 8)
	if got != want {
		t.Errorf("default-bandwidth budget = %d, want %d", got, want)
	}
}

func TestFailureWindowsSkipContacts(t *testing.T) {
	p := &probe{}
	cfg := baseConfig(t)
	// Node 1 is down across the first contact (at 10m) but back for the
	// second (at 30m).
	cfg.Failures = []Failure{{Node: 1, From: 5 * time.Minute, Until: 20 * time.Minute}}
	if _, err := Run(cfg, p); err != nil {
		t.Fatal(err)
	}
	contacts := 0
	for _, e := range p.events {
		if e == "contact" {
			contacts++
		}
	}
	if contacts != 1 {
		t.Errorf("got %d contacts, want 1 (first skipped during outage)", contacts)
	}
}

func TestFailureValidation(t *testing.T) {
	tests := []struct {
		name string
		f    Failure
	}{
		{name: "node out of range", f: Failure{Node: 99, From: 0, Until: time.Minute}},
		{name: "negative node", f: Failure{Node: -1, From: 0, Until: time.Minute}},
		{name: "inverted window", f: Failure{Node: 0, From: time.Hour, Until: time.Minute}},
		{name: "negative start", f: Failure{Node: 0, From: -time.Minute, Until: time.Minute}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := baseConfig(t)
			cfg.Failures = []Failure{tt.f}
			if _, err := Run(cfg, &probe{}); err == nil {
				t.Error("invalid failure accepted")
			}
		})
	}
}

// echoProtocol delivers every message to every interested node at the
// first contact after creation — a reference protocol used to check the
// simulator's accounting invariants across random workloads. Its pending
// queue is global, so it must run at Workers <= 1.
type echoProtocol struct {
	nodes   int
	pending []workload.Message
}

func (e *echoProtocol) Name() string { return "echo" }
func (e *echoProtocol) Init(pop Population, _ *rand.Rand) error {
	e.nodes = pop.Nodes()
	return nil
}
func (e *echoProtocol) OnMessage(_ Env, m workload.Message) { e.pending = append(e.pending, m) }
func (e *echoProtocol) OnContact(env Env, a, b trace.NodeID, _ *Budget) {
	for i := range e.pending {
		for n := 0; n < e.nodes; n++ {
			env.Deliver(&e.pending[i], trace.NodeID(n))
		}
	}
	e.pending = nil
}

// Property: across arbitrary seeds, the simulator's accounting invariants
// hold — delivered <= deliverable <= created, ratios in [0,1].
func TestAccountingInvariantsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		tr, err := traceForSeed(seed)
		if err != nil {
			return false
		}
		ks := workload.NewTrendKeySet()
		rng := rand.New(rand.NewSource(seed))
		interests := workload.Interests(ks, tr.Nodes, rng)
		rates := make([]float64, tr.Nodes)
		for i := range rates {
			rates[i] = 3
		}
		msgs := workload.GenerateMessages(ks, rates, tr.Span(), rng)
		rep, err := Run(Config{
			Trace:     tr,
			Interests: interests,
			Messages:  msgs,
			TTL:       tr.Span() + time.Hour,
			Seed:      seed,
		}, &echoProtocol{})
		if err != nil {
			return false
		}
		if rep.Delivered > rep.Deliverable || rep.Deliverable > rep.Created {
			return false
		}
		if r := rep.DeliveryRatio(); r < 0 || r > 1 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func traceForSeed(seed int64) (*trace.Trace, error) {
	rng := rand.New(rand.NewSource(seed))
	nodes := 4 + rng.Intn(8)
	var contacts []trace.Contact
	at := time.Duration(0)
	for i := 0; i < 40; i++ {
		a := trace.NodeID(rng.Intn(nodes))
		b := trace.NodeID(rng.Intn(nodes))
		if a == b {
			b = (b + 1) % trace.NodeID(nodes)
		}
		at += time.Duration(1+rng.Intn(10)) * time.Minute
		contacts = append(contacts, trace.Contact{A: a, B: b, Start: at, End: at + time.Minute})
	}
	return trace.New("prop", nodes, contacts)
}

func TestEnvGetters(t *testing.T) {
	p := &probe{}
	p.onTouch = func(env Env, a, b trace.NodeID, _ *Budget) {
		if env.Interest(0) != "a" || env.Interest(1) != "b" {
			t.Error("Interest getter wrong")
		}
		if env.TTL() != time.Hour {
			t.Error("TTL getter wrong")
		}
		if env.Workers() != 1 {
			t.Errorf("Workers() = %d, want 1", env.Workers())
		}
		if env.Worker() != 0 {
			t.Errorf("Worker() = %d, want 0", env.Worker())
		}
		env.RecordControl(7)
		env.RecordReplication(true)
		env.RecordReplication(false)
	}
	rep, err := Run(baseConfig(t), p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ControlBytes != 14 { // two contacts
		t.Errorf("control bytes = %d, want 14", rep.ControlBytes)
	}
	if rep.Replications != 4 || rep.FalseInjections != 2 {
		t.Errorf("replications/injections = %d/%d, want 4/2", rep.Replications, rep.FalseInjections)
	}
	if got := rep.InjectionFPR(); got != 0.5 {
		t.Errorf("injection FPR = %g, want 0.5", got)
	}
}
