// Package engine is the transport-agnostic B-SUB protocol core shared by
// the simulator adapter (internal/core) and the live TCP node
// (internal/livenode).
//
// The engine owns all per-node protocol state — interests, the partitioned
// TCBF relay filter (Section VI-D), broker role and election bookkeeping,
// and the produced/carried message stores (internal/msgstore, the store
// the PUSH/PULL baselines run on too) with copy accounting — and
// exposes a pure session state machine: BeginContact pins a contact
// session, whose typed steps (hello/election, genuine-filter propagation,
// relay exchange with preferential forwarding, interest-BF pulls) each
// produce or consume the Section VI-C wire encodings directly. Adapters
// decide only how those bytes travel: the simulator hands them across a
// function call, the live node wraps them in CRC-framed TCP messages.
// Because both adapters exchange the very same bytes, they make identical
// protocol decisions on identical contact sequences — the property the
// parity test in internal/livenode pins down.
//
// Nodes are built from a Params block: NewParams validates the protocol
// configuration and message TTL once, and Params.NewNode builds each node
// on it, so a simulated population shares one block.
//
// Every transfer is charged against a Budget (the simulator's bandwidth
// accountant or the live node's Unlimited), and message hand-off is split
// into claim/commit/abort so the live node's MSGACK refund semantics plug
// in unchanged: a claim removes the copy from its store, Commit spends it
// for good, Abort refunds it.
//
// The engine itself is not safe for concurrent use; adapters serialize
// access (the live node holds one mutex around every engine call, never
// across network I/O).
package engine

import (
	"fmt"
	"time"

	"bsub/internal/tcbf"
)

// Config holds B-SUB's tunable parameters with the paper's evaluation
// defaults documented per field.
type Config struct {
	// FilterM is the TCBF bit-vector length ("a bit-vector of 256 bits").
	FilterM int
	// FilterK is the TCBF hash count ("4 hash functions").
	FilterK int
	// InitialCounter is the TCBF insertion value C.
	InitialCounter float64
	// DecayPerMinute is the decaying factor DF. Zero disables decay
	// (interests never leave relay filters).
	DecayPerMinute float64
	// CopyLimit is the producer replication bound C ("the maximum number
	// of copies that can be forwarded by producers is 3").
	CopyLimit int
	// BrokerLow is T_l: meeting fewer brokers than this within Window
	// triggers a promotion.
	BrokerLow int
	// BrokerHigh is T_u: meeting more brokers than this within Window
	// triggers a demotion attempt.
	BrokerHigh int
	// Window is the broker-allocation time window W ("the time window is
	// 5 hours").
	Window time.Duration
	// BrokerMerge selects how brokers combine each other's relay filters.
	// The paper uses the maximum (M-merge) to avoid the bogus-counter
	// feedback loop of Fig. 6; the additive variant exists for ablation.
	// The zero value means BrokerMergeMax.
	BrokerMerge BrokerMergeMode
	// DFMode selects how the decaying factor is maintained. The zero
	// value (DFFixed) uses DecayPerMinute as given.
	DFMode DFMode
	// TargetFPR is the relay-filter false-positive rate the DFFeedback
	// controller steers toward (Section VI-B: "we can tentatively adjust
	// the DF, then re-adjust its value by observing the resultant FPR;
	// until a desirable FPR is achieved"). Required positive when DFMode
	// is DFFeedback.
	TargetFPR float64
	// RelayPartitions applies the Section VI-D multi-filter allocation to
	// relay filters: interests are hash-routed across this many TCBFs,
	// lowering the joint false-positive rate (Eq. 7) at the cost of more
	// control bytes. Zero or one means a single filter (the paper's
	// evaluation setting).
	RelayPartitions int
}

// DFMode selects the decaying-factor policy.
type DFMode int

const (
	// DFFixed uses Config.DecayPerMinute unchanged (the paper's
	// evaluation setting, with the DF precomputed from Eq. 5).
	DFFixed DFMode = iota
	// DFOnlineEq5 recomputes each broker's DF from its own contact
	// history: "it is straightforward to set an appropriate DF online by
	// counting the number of nodes a broker meets in the time window"
	// (Section VII-B). The TTL plays the role of the delay bound T.
	DFOnlineEq5
	// DFFeedback steers the DF so the relay filter's estimated FPR tracks
	// Config.TargetFPR (Section VI-B's observe-and-adjust loop): too many
	// false positives -> decay faster; comfortably below target -> decay
	// slower and let interests propagate further.
	DFFeedback
)

// BrokerMergeMode selects the broker-broker relay-filter merge operation.
type BrokerMergeMode int

const (
	// BrokerMergeMax is the paper's M-merge (the default).
	BrokerMergeMax BrokerMergeMode = iota
	// BrokerMergeAdditive is the A-merge the paper warns against between
	// brokers (Fig. 6); provided for the ablation study.
	BrokerMergeAdditive
)

// DefaultConfig returns the paper's evaluation parameters with the given
// decaying factor.
func DefaultConfig(decayPerMinute float64) Config {
	return Config{
		FilterM:        256,
		FilterK:        4,
		InitialCounter: 10,
		DecayPerMinute: decayPerMinute,
		CopyLimit:      3,
		BrokerLow:      3,
		BrokerHigh:     5,
		Window:         5 * time.Hour,
	}
}

// Validate rejects unusable parameter combinations.
func (c Config) Validate() error {
	switch {
	case c.CopyLimit < 1:
		return fmt.Errorf("engine: copy limit must be at least 1, got %d", c.CopyLimit)
	case c.BrokerLow < 0 || c.BrokerHigh < c.BrokerLow:
		return fmt.Errorf("engine: broker thresholds (%d,%d) invalid", c.BrokerLow, c.BrokerHigh)
	case c.Window <= 0:
		return fmt.Errorf("engine: window must be positive, got %v", c.Window)
	case c.BrokerMerge != BrokerMergeMax && c.BrokerMerge != BrokerMergeAdditive:
		return fmt.Errorf("engine: unknown broker merge mode %d", c.BrokerMerge)
	case c.DFMode < DFFixed || c.DFMode > DFFeedback:
		return fmt.Errorf("engine: unknown DF mode %d", c.DFMode)
	case c.DFMode == DFFeedback && c.TargetFPR <= 0:
		return fmt.Errorf("engine: DF feedback requires a positive target FPR, got %g", c.TargetFPR)
	case c.RelayPartitions < 0 || c.RelayPartitions > 255:
		return fmt.Errorf("engine: relay partitions must be in [0,255], got %d", c.RelayPartitions)
	}
	// The TCBF checks the filter geometry, counter scale and decay
	// factor, so a config that passes here never reaches a filter
	// constructor that would reject it.
	if err := c.FilterConfig().Validate(); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	return nil
}

// FilterConfig returns the per-filter TCBF geometry the protocol runs on.
func (c Config) FilterConfig() tcbf.Config {
	return tcbf.Config{
		M:              c.FilterM,
		K:              c.FilterK,
		Initial:        c.InitialCounter,
		DecayPerMinute: c.DecayPerMinute,
	}
}

// partitions normalizes the configured partition count (zero means one).
//
//bsub:hotpath
func (c Config) partitions() int {
	if c.RelayPartitions < 1 {
		return 1
	}
	return c.RelayPartitions
}

// HandshakeBytes is the cost of the identity/role/degree exchange at
// contact start.
const HandshakeBytes = 16

// Bounds for the DFFeedback controller: never decay slower than the Eq. 5
// no-accident baseline C/T, never faster than one initial-value per
// minute's worth of decay scaled by feedbackCeil.
const (
	feedbackGrow   = 1.25
	feedbackShrink = 0.85
	feedbackCeil   = 10.0 // x the baseline
)
