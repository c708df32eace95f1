// Package sim is the discrete-event DTN simulator the B-SUB evaluation
// runs on (Section VII-A). It replays a contact schedule against a message
// workload, handing each contact to the protocol under test as a
// bandwidth-budgeted session ("the average transmission rate is 250Kbps.
// The durations of all the contacts are already recorded in the trace"),
// and collects the Section VII metrics.
//
// Contacts and messages arrive through trace.Source and workload.Source
// streams, so populations far larger than memory-resident traces can be
// simulated. Execution is sharded: events are buffered into fixed-width
// epochs, partitioned into contact-connected node components, and the
// components run on worker goroutines that merge at the epoch barrier (see
// DESIGN.md §11). Output is byte-identical for any worker count and any
// epoch width: components within an epoch share no nodes, protocol state
// is per-node, protocol RNG streams derive from the root seed plus each
// event's own identity, and the shard-local metrics collectors merge
// exactly.
package sim

import (
	"fmt"
	"math/rand"
	"time"

	"bsub/internal/trace"
	"bsub/internal/workload"
)

// DefaultBandwidthBps is the paper's effective Bluetooth rate: 250 Kbps.
const DefaultBandwidthBps = 250_000

// DefaultEpoch is the default epoch width. Correctness never depends on
// the width — only load-balancing granularity does.
const DefaultEpoch = 10 * time.Minute

// MaxWorkers bounds Config.Workers; more workers than that is certainly a
// misconfiguration, not a parallelism request.
const MaxWorkers = 1024

// Budget is a contact session's remaining byte allowance. All transfers —
// control filters and message payloads — draw from it.
type Budget struct {
	remaining int
}

// NewBudget returns a budget of n bytes; negative n is treated as zero.
func NewBudget(n int) *Budget {
	b := &Budget{}
	b.reset(n)
	return b
}

// reset re-arms a budget in place; the sharded runner reuses one Budget
// per worker to keep the per-contact path allocation-free.
func (b *Budget) reset(n int) {
	if n < 0 {
		n = 0
	}
	b.remaining = n
}

// Spend deducts n bytes and reports success; a failed spend deducts
// nothing (the transfer does not happen at all, as a partial message is
// useless).
func (b *Budget) Spend(n int) bool {
	if n < 0 || n > b.remaining {
		return false
	}
	b.remaining -= n
	return true
}

// Remaining returns the unspent byte allowance.
func (b *Budget) Remaining() int { return b.remaining }

// Population is the static view of the simulated population a protocol
// receives at Init: size, subscriptions, lifetimes, and the worker count
// it should size any per-worker state for.
type Population interface {
	// Nodes returns the population size.
	Nodes() int
	// Interest returns the node's primary subscribed key.
	Interest(n trace.NodeID) workload.Key
	// InterestSet returns all of the node's subscriptions (the multi-key
	// extension); for the paper's one-interest workload it has length 1.
	InterestSet(n trace.NodeID) []workload.Key
	// TTL returns the message lifetime; messages expire TTL after creation.
	TTL() time.Duration
	// Workers returns the number of execution workers the simulation runs
	// with (>= 1). Protocols that keep per-worker scratch state (session
	// caches) size it from this.
	Workers() int
}

// Env is the protocol's window into the running simulation: population
// facts, the executing worker's clock, and metric recording. Each worker
// goroutine has its own Env; an Env handed to OnMessage/OnContact is only
// valid for the duration of that call.
type Env interface {
	Population
	// Now returns the current simulation time of the executing worker.
	Now() time.Duration
	// Worker returns the executing worker's index in [0, Workers()).
	Worker() int
	// RNG returns a deterministic random source for protocol decisions. It
	// is seeded from the root seed and the executing event's identity —
	// never from the worker, epoch, or component — so draws are
	// byte-identical at any worker count and epoch width.
	RNG() *rand.Rand
	// Deliver records the arrival of msg at node to. The simulator
	// classifies it as genuine (to is interested) or false, deduplicates
	// pairs, and refuses post-TTL deliveries.
	Deliver(msg *workload.Message, to trace.NodeID)
	// RecordForwarding counts one message copy moving between nodes.
	RecordForwarding(msg *workload.Message)
	// RecordReplication counts one producer-to-broker copy, flagging
	// whether the triggering filter match was a false positive against
	// protocol-maintained ground truth (Section VI-B's falsely injected
	// messages).
	RecordReplication(falsePositive bool)
	// RecordControl counts protocol control bytes (already budgeted).
	RecordControl(n int)
}

// Protocol is a routing scheme under test: PUSH, PULL, or B-SUB. Protocol
// state must be per-node: OnMessage and OnContact are invoked concurrently
// for events whose node sets are disjoint, and the env argument identifies
// the executing worker. State shared across nodes must be either
// synchronized or sized per worker (see Population.Workers).
type Protocol interface {
	// Name labels the protocol in reports.
	Name() string
	// Init prepares per-node state. It is called once before any event.
	Init(pop Population, rng *rand.Rand) error
	// OnMessage delivers a freshly created message to its origin node.
	OnMessage(env Env, msg workload.Message)
	// OnContact runs one contact session between nodes a and b. The
	// protocol spends budget on whatever control and data exchange its
	// rules dictate.
	OnContact(env Env, a, b trace.NodeID, budget *Budget)
}

// Config assembles one simulation run.
type Config struct {
	// Trace drives the contact schedule from a materialized trace.
	// Exactly one of Trace and Source must be set.
	Trace *trace.Trace
	// Source drives the contact schedule from a stream (tracegen.Stream at
	// population scale). Contacts must arrive in (Start, End, A, B) order.
	Source trace.Source
	// Interests holds one key per node.
	Interests []workload.Key
	// InterestSets optionally widens each node's subscription to several
	// keys (the multi-key extension). When set it must be node-parallel
	// and each set must contain that node's Interests entry.
	InterestSets [][]workload.Key
	// Messages is the pre-generated workload, sorted by CreatedAt. Ignored
	// when MsgSource is set.
	Messages []workload.Message
	// MsgSource streams the message workload instead of Messages.
	MsgSource workload.Source
	// TTL is the message lifetime ("identical to their maximum tolerable
	// delay").
	TTL time.Duration
	// BandwidthBps is the effective link rate; zero selects
	// DefaultBandwidthBps.
	BandwidthBps int
	// Seed feeds the protocol's RNG.
	Seed int64
	// Failures injects node outages: while a node is down its radio is
	// off, so every contact involving it is skipped (the device's stored
	// state survives — it was only powered off). Used to test the broker
	// election's self-healing.
	Failures []Failure
	// Workers is the number of execution goroutines; zero means 1. Any
	// value produces byte-identical output for the same seed.
	Workers int
	// Epoch is the sharding epoch width; zero selects DefaultEpoch. Any
	// positive value produces byte-identical output for the same seed.
	Epoch time.Duration
}

// Failure is one node outage window [From, Until).
type Failure struct {
	Node  trace.NodeID
	From  time.Duration
	Until time.Duration
}

// nodes returns the population size implied by the contact schedule.
func (c Config) nodes() int {
	if c.Source != nil {
		return c.Source.Nodes()
	}
	if c.Trace != nil {
		return c.Trace.Nodes
	}
	return 0
}

func (c Config) validate() error {
	switch {
	case c.Trace == nil && c.Source == nil:
		return fmt.Errorf("sim: nil trace and nil source")
	case c.Trace != nil && c.Source != nil:
		return fmt.Errorf("sim: both trace and source set")
	case c.TTL <= 0:
		return fmt.Errorf("sim: TTL must be positive, got %v", c.TTL)
	case c.BandwidthBps < 0:
		return fmt.Errorf("sim: bandwidth must be non-negative, got %d", c.BandwidthBps)
	case c.Workers < 0 || c.Workers > MaxWorkers:
		return fmt.Errorf("sim: workers must be in [0,%d], got %d", MaxWorkers, c.Workers)
	case c.Epoch < 0:
		return fmt.Errorf("sim: epoch must be non-negative, got %v", c.Epoch)
	}
	n := c.nodes()
	if len(c.Interests) != n {
		return fmt.Errorf("sim: %d interests for %d nodes", len(c.Interests), n)
	}
	for i, fl := range c.Failures {
		if fl.Node < 0 || int(fl.Node) >= n {
			return fmt.Errorf("sim: failure %d node %d out of range", i, fl.Node)
		}
		if fl.Until <= fl.From || fl.From < 0 {
			return fmt.Errorf("sim: failure %d window [%v,%v) invalid", i, fl.From, fl.Until)
		}
	}
	if c.InterestSets != nil {
		if len(c.InterestSets) != n {
			return fmt.Errorf("sim: %d interest sets for %d nodes", len(c.InterestSets), n)
		}
		for i, set := range c.InterestSets {
			if len(set) == 0 {
				return fmt.Errorf("sim: node %d has an empty interest set", i)
			}
			found := false
			for _, k := range set {
				if k == c.Interests[i] {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("sim: node %d interest set omits its primary interest %q", i, c.Interests[i])
			}
		}
	}
	return nil
}

// down reports whether node n is inside a failure window at time t.
func down(failures []Failure, n trace.NodeID, t time.Duration) bool {
	for _, f := range failures {
		if f.Node == n && t >= f.From && t < f.Until {
			return true
		}
	}
	return false
}
