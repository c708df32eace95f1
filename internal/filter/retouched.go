package filter

import (
	"fmt"
	"time"

	"bsub/internal/tcbf"
)

// DefaultRetouchMaxFill is the fill-ratio bound Retouched clears down to
// when Retouched.MaxFill is zero.
const DefaultRetouchMaxFill = 0.5

// Retouched is the Retouched-Bloom-Filter backend (Donnet et al.,
// "Retouched Bloom Filters: Allowing Networked Applications to Trade Off
// Selected False Positives Against False Negatives"): a decorator over
// the packed partitioned TCBF that, after every counter-raising operation
// (insert, A-merge, M-merge), clears the set positions with the lowest
// counters until the fill ratio is back under MaxFill. Cleared bits turn
// would-be false positives into false negatives — but only *selected*
// ones: because hash collisions can only inflate a position's counter, a
// key's minimum filter counter is at least its true (collision-free)
// counter, so a single clearing pass can drop a key only if its counter
// mass at that moment is at or below the pass's largest cleared value.
// Reinforcement compounds across passes, though — a merge can re-add
// counter mass to a position an earlier pass cleared, so the lifetime a
// key has "lost" to retouching is bounded by the *sum* of the passes'
// largest cleared values, not their maximum. That cumulative bound is
// tracked and exposed as the filter's Cutoff: every false negative is a
// key whose un-retouched remaining lifetime was at most Cutoff — the
// low-value keys whose forwarding was most likely wasted traffic.
type Retouched struct {
	// MaxFill is the fill-ratio bound retouching clears down to; zero
	// means DefaultRetouchMaxFill. Must be in (0, 1].
	MaxFill float64
}

// Name implements Backend.
func (Retouched) Name() string { return "retouched" }

// Laws implements Backend: retouching deliberately relaxes the
// no-false-negative guarantee to the bounded, selected form, and clears
// counters, so MinCounter no longer tracks the reference model. The wire
// format is the packed TCBF's, so round-trips stay exact, and retouching
// is a deterministic function of the merged counter state, so merges
// still commute.
func (Retouched) Laws() Laws {
	return Laws{BoundedFalseNegatives: true}
}

func (r Retouched) maxFill() float64 {
	if r.MaxFill == 0 {
		return DefaultRetouchMaxFill
	}
	return r.MaxFill
}

// Validate implements Backend.
func (r Retouched) Validate(cfg tcbf.Config, partitions int) error {
	if mf := r.maxFill(); mf <= 0 || mf > 1 {
		return fmt.Errorf("filter: retouch fill bound %g outside (0,1]", mf)
	}
	return Packed{}.Validate(cfg, partitions)
}

// New implements Backend.
func (r Retouched) New(cfg tcbf.Config, partitions int, now time.Duration) (Filter, error) {
	if err := r.Validate(cfg, partitions); err != nil {
		return nil, err
	}
	p, err := tcbf.NewPartitioned(cfg, partitions, now)
	if err != nil {
		return nil, err
	}
	return &retouchedFilter{Partitioned: p, maxFill: r.maxFill()}, nil
}

// retouchedFilter decorates *tcbf.Partitioned with post-operation
// retouching. The embedded pointer promotes the query/encode surface;
// every counter-raising operation is overridden to retouch afterwards.
type retouchedFilter struct {
	*tcbf.Partitioned
	maxFill float64
	// cutoff accumulates the largest counter value cleared by each
	// retouching pass since the last Reset, plus the bounds inherited from
	// merged peers — the false-negative bound: a key reported absent
	// despite being live lost at most this much true counter mass to
	// clearing in total, here or in a peer before it was merged in,
	// however merges re-added and re-cleared it along the way.
	cutoff float64
}

// Cutoff returns the current false-negative bound: every false negative
// this filter can produce is a key whose true (collision-free) counter
// would have been at most this value had no bits ever been cleared. Zero
// means no bits have been cleared and the filter has no false negatives.
func (f *retouchedFilter) Cutoff() float64 { return f.cutoff }

func (f *retouchedFilter) retouch(now time.Duration) error {
	c, err := f.Partitioned.Retouch(f.maxFill, now)
	f.cutoff += c
	return err
}

// Insert implements Filter.
func (f *retouchedFilter) Insert(key string, now time.Duration) error {
	if err := f.Partitioned.Insert(key, now); err != nil {
		return err
	}
	return f.retouch(now)
}

// InsertAll implements Filter.
func (f *retouchedFilter) InsertAll(keys []string, now time.Duration) error {
	if err := f.Partitioned.InsertAll(keys, now); err != nil {
		return err
	}
	return f.retouch(now)
}

// InsertPre implements Filter.
func (f *retouchedFilter) InsertPre(k tcbf.PreKey, now time.Duration) error {
	if err := f.Partitioned.InsertPre(k, now); err != nil {
		return err
	}
	return f.retouch(now)
}

// InsertAllPre implements Filter.
func (f *retouchedFilter) InsertAllPre(keys []tcbf.PreKey, now time.Duration) error {
	if err := f.Partitioned.InsertAllPre(keys, now); err != nil {
		return err
	}
	return f.retouch(now)
}

// AMerge implements Filter.
func (f *retouchedFilter) AMerge(other Filter, now time.Duration) error {
	o, ok := other.(*retouchedFilter)
	if !ok {
		return errPeerBackend("retouched", other)
	}
	if err := f.Partitioned.AMerge(o.Partitioned, now); err != nil {
		return err
	}
	// Each A-merge adds the peer's counters, and with them whatever mass
	// the peer's own retouching removed.
	f.cutoff += o.cutoff
	return f.retouch(now)
}

// MMerge implements Filter.
func (f *retouchedFilter) MMerge(other Filter, now time.Duration) error {
	o, ok := other.(*retouchedFilter)
	if !ok {
		return errPeerBackend("retouched", other)
	}
	if err := f.Partitioned.MMerge(o.Partitioned, now); err != nil {
		return err
	}
	// A maximum is short of the true maximum by at most the larger loss.
	f.cutoff = max(f.cutoff, o.cutoff)
	return f.retouch(now)
}

// PreferencePre implements Filter with the receiver as self.
func (f *retouchedFilter) PreferencePre(k tcbf.PreKey, peer Filter, now time.Duration) (float64, error) {
	o, ok := peer.(*retouchedFilter)
	if !ok {
		return 0, errPeerBackend("retouched", peer)
	}
	return tcbf.PreferencePartitionedPre(k, o.Partitioned, f.Partitioned, now)
}

// Reset implements Filter; the false-negative bound restarts with the
// counters.
func (f *retouchedFilter) Reset(now time.Duration) {
	f.Partitioned.Reset(now)
	f.cutoff = 0
}

// DecodeInto implements Filter. The decoded state is a peer's filter
// whose clearing history is unknown here, so the local cutoff restarts;
// the bound only ever describes clearings this instance performed.
func (f *retouchedFilter) DecodeInto(data []byte, now time.Duration) error {
	f.cutoff = 0
	return f.Partitioned.DecodeInto(data, now)
}
