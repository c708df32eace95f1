// Package bsub is a Go implementation of B-SUB, the Bloom-filter-based
// content-based publish-subscribe system for human networks (HUNETs) of
// Zhao and Wu, "B-SUB: A Practical Bloom-Filter-Based Publish-Subscribe
// System for Human Networks" (ICDCS 2010), together with the full
// simulation substrate its evaluation runs on.
//
// The package re-exports the public surface of the internal modules:
//
//   - TCBF — the Temporal Counting Bloom Filter, the paper's core data
//     structure: counting Bloom filter with time-decaying counters,
//     additive and maximum merges, and preferential queries.
//   - Protocol — the B-SUB routing protocol (broker election, interest
//     propagation, preferential forwarding) plus the PUSH and PULL
//     baselines.
//   - Simulator — a deterministic, bandwidth-aware contact-trace replay
//     engine with the paper's evaluation metrics.
//   - Traces — contact-trace modelling, text I/O, statistics, and
//     synthetic generators calibrated to the Haggle (Infocom'06) and MIT
//     Reality datasets.
//   - Analysis — the closed-form model of Eq. 1–10 (FPR, fill ratio,
//     decaying factor, joint FPR, memory, optimal filter allocation).
//
// Quick start: build a fixture, run the three protocols, print a report.
//
//	fixture, err := bsub.NewSmallFixture(1)
//	if err != nil { ... }
//	report, err := bsub.Simulate(fixture, bsub.NewBSub(bsub.DefaultProtocolConfig(0.1)), 4*time.Hour)
//	fmt.Println(report)
//
// See the examples/ directory for complete programs and EXPERIMENTS.md for
// the paper-reproduction results.
package bsub

import (
	"time"

	"bsub/internal/analysis"
	"bsub/internal/core"
	"bsub/internal/engine"
	"bsub/internal/experiments"
	"bsub/internal/livenode"
	"bsub/internal/mesh"
	"bsub/internal/metrics"
	"bsub/internal/protocol"
	"bsub/internal/sim"
	"bsub/internal/tcbf"
	"bsub/internal/trace"
	"bsub/internal/tracegen"
	"bsub/internal/workload"
)

// --- Filters ---------------------------------------------------------------

type (
	// TCBF is the Temporal Counting Bloom Filter of Section IV.
	TCBF = tcbf.Filter
	// TCBFConfig parameterizes a TCBF.
	TCBFConfig = tcbf.Config
	// TCBFPool is the dynamic multi-filter allocation of Section VI-D.
	TCBFPool = tcbf.Pool
	// PartitionedTCBF hash-routes keys across h sub-filters (Section VI-D
	// made protocol-usable); ProtocolConfig.RelayPartitions applies it to
	// B-SUB's relay filters.
	PartitionedTCBF = tcbf.Partitioned
	// CounterMode selects the wire encoding of a TCBF's counters.
	CounterMode = tcbf.CounterMode
)

// Counter wire modes (Section VI-C optimizations).
const (
	CountersNone    = tcbf.CountersNone
	CountersUniform = tcbf.CountersUniform
	CountersFull    = tcbf.CountersFull
)

// NewTCBF returns an empty Temporal Counting Bloom Filter with its clock at
// now.
func NewTCBF(cfg TCBFConfig, now time.Duration) (*TCBF, error) { return tcbf.New(cfg, now) }

// DecodeTCBF reconstructs a TCBF from its wire form.
func DecodeTCBF(data []byte, cfg TCBFConfig, now time.Duration) (*TCBF, error) {
	return tcbf.Decode(data, cfg, now)
}

// NewTCBFPool returns a dynamic TCBF pool that allocates a fresh filter
// when the fill ratio exceeds threshold.
func NewTCBFPool(cfg TCBFConfig, threshold float64, now time.Duration) (*TCBFPool, error) {
	return tcbf.NewPool(cfg, threshold, now)
}

// NewPartitionedTCBF returns an empty partitioned TCBF with h partitions.
func NewPartitionedTCBF(cfg TCBFConfig, h int, now time.Duration) (*PartitionedTCBF, error) {
	return tcbf.NewPartitioned(cfg, h, now)
}

// Preference runs the preferential query of Section IV-A.
func Preference(key string, peer, self *TCBF, now time.Duration) (float64, error) {
	return tcbf.Preference(key, peer, self, now)
}

// --- Protocols ---------------------------------------------------------------

type (
	// Protocol is a routing scheme runnable by the simulator.
	Protocol = sim.Protocol
	// BSubProtocol is the B-SUB protocol of Section V.
	BSubProtocol = core.BSub
	// ProtocolConfig holds B-SUB's tunables.
	ProtocolConfig = core.Config
)

// Decaying-factor policies (Sections VI-B and VII-B).
const (
	// DFFixed uses ProtocolConfig.DecayPerMinute unchanged.
	DFFixed = core.DFFixed
	// DFOnlineEq5 lets each broker recompute its DF from its own contact
	// history via Eq. 5.
	DFOnlineEq5 = core.DFOnlineEq5
	// DFFeedback steers the DF toward ProtocolConfig.TargetFPR.
	DFFeedback = core.DFFeedback
)

// NewBSub returns a B-SUB protocol instance.
func NewBSub(cfg ProtocolConfig) *BSubProtocol { return core.New(cfg) }

// --- Engine ------------------------------------------------------------------
//
// The transport-agnostic protocol core shared by the simulator driver and
// the live TCP node. Downstream users can drive it over their own
// transport: open an EngineSession per contact, move each step's byte
// encoding to the peer however the medium allows, and settle the claims.

type (
	// Engine owns one node's complete B-SUB protocol state: interests,
	// relay filter, broker role, and message stores with copy accounting.
	Engine = engine.Node
	// EngineSession is one side of a contact: the typed protocol steps in
	// contact order, producing and consuming wire encodings.
	EngineSession = engine.Session
	// EngineClaim is a message copy pending transmission: Commit spends
	// it, Abort refunds it.
	EngineClaim = engine.Claim
	// EngineBudget meters the bytes a contact may move.
	EngineBudget = engine.Budget
)

// NewEngine returns a protocol engine for one node.
func NewEngine(id int, cfg ProtocolConfig, ttl time.Duration) (*Engine, error) {
	params, err := engine.NewParams(cfg, ttl)
	if err != nil {
		return nil, err
	}
	return params.NewNode(id), nil
}

// DefaultProtocolConfig returns the paper's evaluation parameters with the
// given decaying factor (per minute).
func DefaultProtocolConfig(decayPerMinute float64) ProtocolConfig {
	return core.DefaultConfig(decayPerMinute)
}

// NewPush returns the epidemic-flooding baseline.
func NewPush() Protocol { return protocol.NewPush() }

// NewPull returns the one-hop pulling baseline.
func NewPull() Protocol { return protocol.NewPull() }

// --- Traces -------------------------------------------------------------------

type (
	// Trace is a contact trace.
	Trace = trace.Trace
	// Contact is one pairwise meeting.
	Contact = trace.Contact
	// NodeID identifies a node in a trace.
	NodeID = trace.NodeID
	// TraceStats summarizes a trace (Table I).
	TraceStats = trace.Stats
	// TraceGenConfig parameterizes the synthetic generator.
	TraceGenConfig = tracegen.Config
)

// NewTrace validates and sorts contacts into a Trace.
func NewTrace(name string, nodes int, contacts []Contact) (*Trace, error) {
	return trace.New(name, nodes, contacts)
}

// GenerateTrace synthesizes a contact trace.
func GenerateTrace(cfg TraceGenConfig) (*Trace, error) { return tracegen.Generate(cfg) }

// HaggleConfig returns the generator preset for the Haggle (Infocom'06)
// stand-in.
func HaggleConfig(seed int64) TraceGenConfig { return tracegen.HaggleInfocom06(seed) }

// MITRealityConfig returns the generator preset for the MIT Reality
// stand-in.
func MITRealityConfig(seed int64) TraceGenConfig { return tracegen.MITRealityFull(seed) }

// SmallTraceConfig returns the compact 20-node preset.
func SmallTraceConfig(seed int64) TraceGenConfig { return tracegen.Small(seed) }

// --- Workload -------------------------------------------------------------------

type (
	// Key identifies message content.
	Key = workload.Key
	// Message is a content-addressed message.
	Message = workload.Message
	// KeySet is a weighted key population.
	KeySet = workload.KeySet
)

// NewTrendKeySet returns the paper's 38-key Twitter-Trend workload.
func NewTrendKeySet() *KeySet { return workload.NewTrendKeySet() }

// --- Simulation -----------------------------------------------------------------

type (
	// SimConfig assembles one simulation run.
	SimConfig = sim.Config
	// Failure is a node outage window for failure-injection runs.
	Failure = sim.Failure
	// Report is a metrics summary.
	Report = metrics.Report
	// Fixture bundles a trace with its workload.
	Fixture = experiments.Fixture
)

// Run replays cfg against proto.
func Run(cfg SimConfig, proto Protocol) (Report, error) { return sim.Run(cfg, proto) }

// NewHaggleFixture builds the Haggle evaluation fixture.
func NewHaggleFixture(seed int64) (*Fixture, error) { return experiments.NewHaggleFixture(seed) }

// NewMITFixture builds the MIT Reality evaluation fixture (busiest 3-day
// window).
func NewMITFixture(seed int64) (*Fixture, error) { return experiments.NewMITFixture(seed) }

// NewSmallFixture builds the compact test fixture.
func NewSmallFixture(seed int64) (*Fixture, error) { return experiments.NewSmallFixture(seed) }

// Simulate runs proto over a fixture with the given TTL.
func Simulate(f *Fixture, proto Protocol, ttl time.Duration) (Report, error) {
	return sim.Run(sim.Config{
		Trace:     f.Trace,
		Interests: f.Interests,
		Messages:  f.Messages,
		TTL:       ttl,
		Seed:      f.Seed,
	}, proto)
}

// --- Live prototype ---------------------------------------------------------------

type (
	// LiveNode is a wire-level B-SUB node running over real TCP — the
	// prototype HUNET system the paper names as future work. It runs
	// contact sessions with distinct peers concurrently, bounded by
	// LiveNodeConfig.MaxSessions.
	LiveNode = livenode.Node
	// LiveNodeConfig parameterizes a LiveNode.
	LiveNodeConfig = livenode.Config
	// LiveDelivery is a message that reached a LiveNode's subscriptions.
	LiveDelivery = livenode.Delivery
	// LiveSessionStats records one contact attempt of a LiveNode: peer,
	// initiator, deepest phase, frames/bytes, duration, and outcome.
	LiveSessionStats = livenode.SessionStats
	// LiveCounters is a snapshot of a LiveNode's session activity, from
	// LiveNode.Stats.
	LiveCounters = livenode.Counters
)

// Sentinel errors of the live node, for errors.Is matching by callers
// implementing their own retry policies.
var (
	// ErrLiveBusy: the local node is at MaxSessions capacity.
	ErrLiveBusy = livenode.ErrBusy
	// ErrLivePeerBusy: the remote node answered BUSY.
	ErrLivePeerBusy = livenode.ErrPeerBusy
	// ErrLiveCorruptFrame: a frame failed its CRC check — link noise or
	// a torn write; the session is aborted and unacknowledged copies are
	// refunded to the sender.
	ErrLiveCorruptFrame = livenode.ErrCorruptFrame
	// ErrLiveVersionMismatch: the peer's HELLO carries a different wire
	// protocol version.
	ErrLiveVersionMismatch = livenode.ErrVersionMismatch
)

// ListenNode starts a live B-SUB node serving contact sessions on addr.
func ListenNode(addr string, cfg LiveNodeConfig) (*LiveNode, error) {
	return livenode.Listen(addr, cfg)
}

// --- Mesh daemon -------------------------------------------------------------------

type (
	// Mesh is a long-running HUNET daemon wrapped around a LiveNode:
	// gossip-fed membership with alive/suspect/dead transitions, one
	// backpressured outbound worker per live peer, and flood/relay
	// dissemination of stored messages. It keeps running through peer
	// churn; see Mesh.Close for shutdown.
	Mesh = mesh.Mesh
	// MeshConfig holds the mesh daemon's knobs (gossip cadence and
	// fanout, contact cadence, queue depth, reconnect backoff, and the
	// suspect/dead/forget timeouts).
	MeshConfig = mesh.Config
	// MeshCounters is a snapshot of a mesh daemon's lifetime activity,
	// from Mesh.Stats.
	MeshCounters = mesh.Counters
	// MeshPeer is a point-in-time snapshot of one membership entry.
	MeshPeer = mesh.Peer
	// MeshPeerState is a membership entry's health: alive, suspect, or
	// dead.
	MeshPeerState = mesh.PeerState
	// MeshPeerEvent reports one membership transition through
	// MeshConfig.OnPeerChange.
	MeshPeerEvent = mesh.PeerEvent
)

// Membership states of a mesh peer.
const (
	MeshStateAlive   = mesh.StateAlive
	MeshStateSuspect = mesh.StateSuspect
	MeshStateDead    = mesh.StateDead
)

// StartMesh listens a live node on addr and runs the mesh daemon around
// it: periodic gossip keeps the membership table fresh, per-peer workers
// schedule contacts, and newly stored messages are flooded to live
// brokers.
func StartMesh(addr string, nodeCfg LiveNodeConfig, cfg MeshConfig) (*Mesh, error) {
	return mesh.Start(addr, nodeCfg, cfg)
}

// --- Analysis --------------------------------------------------------------------

// FPR returns the Eq. 1 false-positive rate of an (m, k) Bloom filter
// holding n keys.
func FPR(m, k, n int) float64 { return analysis.FPR(m, k, n) }

// DecayFactor derives the Eq. 5 decaying factor.
func DecayFactor(initial float64, nKeys, m, k int, tMinutes, delta float64) (float64, error) {
	return analysis.DecayFactor(initial, nKeys, m, k, tMinutes, delta)
}

// OptimalAllocation solves the Eq. 9–10 filter-allocation problem.
func OptimalAllocation(m, k, n int, maxBits float64) (analysis.Allocation, error) {
	return analysis.OptimalAllocation(m, k, n, maxBits)
}

// GeometryFor recommends the smallest (m, k) whose Eq. 1 FPR at n keys
// stays within targetFPR — the design-time sizing helper.
func GeometryFor(n int, targetFPR float64) (analysis.Geometry, error) {
	return analysis.GeometryFor(n, targetFPR)
}
