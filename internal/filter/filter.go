// Package filter defines the interface seam between the forwarding
// engine and its interest-filter implementation. B-SUB's behavior is a
// function of the filter it forwards with: the paper's TCBF buys compact
// interest encoding with false-positive forwardings, and the related
// work shows that trade is tunable — Retouched Bloom Filters accept
// selected false negatives to cut wasted cost. The Filter interface
// captures exactly the operations internal/engine performs on its relay
// filters (insert/contains/batch/decay/merge/encode/preference), so
// the two backends, Packed and Retouched, can be swapped behind the seam
// and ablated on identical traces.
//
// The packed TCBF remains the default backend and the seam is free on
// the hot path: Packed's Filter is a thin pointer wrapper around
// *tcbf.Partitioned, method dispatch through the interface does not
// allocate, and the engine's contact loop stays at 0 allocs/op.
package filter

import (
	"fmt"
	"time"

	"bsub/internal/tcbf"
)

// Filter is the engine-facing filter contract: everything a node's relay
// filter must support over one contact — settle decay, batch-insert the
// node's genuine interests, answer existential and preferential queries
// for carried messages, merge the peer's filter in, and encode/decode
// itself for the wire. Times are simulation clocks threaded explicitly,
// as everywhere in the deterministic core.
//
// Implementations are not safe for concurrent use; the engine serializes
// access per node.
type Filter interface {
	// Config returns the decay/geometry configuration the filter was
	// built from.
	Config() tcbf.Config
	// Partitions returns the Section VI-D partition count (1 when the
	// backend does not partition).
	Partitions() int

	// Reset returns the filter to its freshly-constructed empty state
	// with all clocks at now, so scratch filters can be reused across
	// contacts instead of reallocated.
	Reset(now time.Duration)
	// Advance settles time decay up to now.
	Advance(now time.Duration) error
	// SetDecayFactor retunes the decay factor after settling decay —
	// the Section V-B feedback controller's knob.
	SetDecayFactor(perMinute float64, now time.Duration) error

	Insert(key string, now time.Duration) error
	InsertAll(keys []string, now time.Duration) error
	InsertPre(k tcbf.PreKey, now time.Duration) error
	InsertAllPre(keys []tcbf.PreKey, now time.Duration) error

	Contains(key string, now time.Duration) (bool, error)
	ContainsPre(k tcbf.PreKey, now time.Duration) (bool, error)
	ContainsAnyPre(keys []tcbf.PreKey, now time.Duration) (bool, error)
	// MinCounterPre returns the key's minimum counter — the TCBF
	// membership strength backing the preferential query. Plain-BF-like
	// backends report a constant positive value for contained keys.
	MinCounterPre(k tcbf.PreKey, now time.Duration) (float64, error)
	// PreferencePre runs the Section IV-A preferential query with the
	// receiver as self: positive means peer is the better carrier for k.
	// peer must come from the same backend.
	PreferencePre(k tcbf.PreKey, peer Filter, now time.Duration) (float64, error)

	// AMerge folds other into the receiver additively (consumer→broker
	// reinforcement); MMerge by maximum (broker↔broker, the Fig. 6
	// bogus-counter fix). other must come from the same backend.
	AMerge(other Filter, now time.Duration) error
	MMerge(other Filter, now time.Duration) error

	Encode(mode tcbf.CounterMode) ([]byte, error)
	// EncodeTo appends the wire encoding to dst and returns the extended
	// slice — the allocation-free variant for caller-reused buffers.
	// Encoding may settle pending decay into the receiver's storage, so
	// Encode and EncodeTo are mutating calls, like the merges.
	EncodeTo(dst []byte, mode tcbf.CounterMode) ([]byte, error)
	// DecodeInto reconstructs the filter from data in place, reusing the
	// receiver's storage; on error the receiver is unspecified and must
	// be Reset before reuse.
	DecodeInto(data []byte, now time.Duration) error

	// SetBits returns the number of set positions; EstimatedFPR the
	// fill-ratio false-positive estimate (Eq. 7 mean for partitioned
	// backends).
	SetBits() int
	EstimatedFPR() float64
}

// Laws declares which contract properties a backend keeps and which it
// deliberately relaxes. The conformance suite reads these to decide what
// to assert: every backend is run against the same differential model,
// but e.g. a retouched filter is *allowed* bounded false negatives while
// tcbf is not. Every backend must also keep the properties no backend
// relaxes: merges commute, A-merge accumulates per-position counters by
// saturating addition exactly as one flat TCBF would, and
// Encode→DecodeInto reproduces counter state exactly (up to the counter
// mode's declared precision).
type Laws struct {
	// NoFalseNegatives: a key inserted and not yet decayed away is
	// always reported present.
	NoFalseNegatives bool
	// BoundedFalseNegatives: false negatives may occur, but only for
	// keys whose reference counter is at or below the backend's reported
	// cutoff (Retouched-BF selected clearing).
	BoundedFalseNegatives bool
	// ExactCounters: MinCounterPre matches the collision-aware reference
	// model exactly (filter counter ≥ reference counter, equal absent
	// collisions).
	ExactCounters bool
}

// Backend constructs Filters of one implementation. Backends are small
// comparable value types so engine configs can be compared for arena
// compatibility.
type Backend interface {
	// Name is the backend's ablation-row identifier ("tcbf" or
	// "retouched").
	Name() string
	// Validate rejects an inconsistent configuration before any filter
	// is built — the interface-boundary geometry check; engines must
	// call it before New.
	Validate(cfg tcbf.Config, partitions int) error
	// New builds an empty filter with all clocks at now.
	New(cfg tcbf.Config, partitions int, now time.Duration) (Filter, error)
	// Laws reports the contract properties this backend keeps.
	Laws() Laws
}

// Default is the backend the engine uses when none is configured: the
// paper's packed partitioned TCBF.
var Default Backend = Packed{}

// MustNew is Backend.New for known-validated parameters.
//
//bsub:coldpath
func MustNew(b Backend, cfg tcbf.Config, partitions int, now time.Duration) Filter {
	f, err := b.New(cfg, partitions, now)
	if err != nil {
		panic(fmt.Sprintf("filter: %s backend rejected validated config: %v", b.Name(), err))
	}
	return f
}

// errPeerBackend builds the cross-backend merge/preference error.
//
//bsub:coldpath
func errPeerBackend(want string, got Filter) error {
	return fmt.Errorf("filter: %s backend cannot operate on a %T peer", want, got)
}

// errPartitions builds the out-of-range partition-count error.
//
//bsub:coldpath
func errPartitions(partitions int) error {
	return fmt.Errorf("filter: partition count must be in [1,255], got %d", partitions)
}
