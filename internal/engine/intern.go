package engine

import (
	"sync"

	"bsub/internal/tcbf"
	"bsub/internal/workload"
)

// preKeyCache interns the one-element PreKey slice of each single-key
// message and subscription. The key universe is small (a workload KeySet)
// while copies are legion — at million-node scale, interning collapses
// what would be one 56-byte slice per stored copy and per node into one
// per distinct key. The cached slices are immutable by contract: they are
// handed out at len == cap == 1, so any append relocates instead of
// scribbling on the shared array. sync.Map because live-node adapters
// drive engines from concurrent goroutines; the value is a pure function
// of the key, so racing fills agree.
var preKeyCache sync.Map // workload.Key -> []tcbf.PreKey

// internPre returns the shared digest slice for a single key.
func internPre(k workload.Key) []tcbf.PreKey {
	if v, ok := preKeyCache.Load(k); ok {
		return v.([]tcbf.PreKey)
	}
	pre := make([]tcbf.PreKey, 1)
	pre[0] = tcbf.Precompute(k)
	v, _ := preKeyCache.LoadOrStore(k, pre)
	return v.([]tcbf.PreKey)
}

// keySliceCache interns one-element interest slices the same way, for
// Node.Subscribe's single-subscription fast path.
var keySliceCache sync.Map // workload.Key -> []workload.Key

// internKeySlice returns the shared one-element slice holding k, at
// len == cap == 1 (append relocates, never mutates).
func internKeySlice(k workload.Key) []workload.Key {
	if v, ok := keySliceCache.Load(k); ok {
		return v.([]workload.Key)
	}
	v, _ := keySliceCache.LoadOrStore(k, []workload.Key{k})
	return v.([]workload.Key)
}

// precomputeKeys hashes all of a message's match keys once at store time,
// so per-contact filter queries reuse the digests instead of rehashing.
// Single-key messages (the paper's workload) share interned digests.
func precomputeKeys(m *workload.Message) []tcbf.PreKey {
	if len(m.Extra) == 0 {
		return internPre(m.Key)
	}
	out := make([]tcbf.PreKey, 1, 1+len(m.Extra))
	out[0] = tcbf.Precompute(m.Key)
	for _, k := range m.Extra {
		out = append(out, tcbf.Precompute(k))
	}
	return out
}
