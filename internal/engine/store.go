package engine

import (
	"sort"
	"sync"
	"time"

	"bsub/internal/tcbf"
	"bsub/internal/workload"
)

// stored is one message copy held by a node: the message, its payload (nil
// inside the simulator, real bytes on a live node), its match keys with
// precomputed filter digests, its expiry, the producer-side replication
// budget, and the set of peers the copy was directly served to.
type stored struct {
	msg       workload.Message
	payload   []byte
	pre       []tcbf.PreKey
	expiresAt time.Duration
	copies    int
	sent      map[NodeID]struct{}
}

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

//bsub:hotpath
func (e *stored) sentTo(peer NodeID) bool {
	_, ok := e.sent[peer]
	return ok
}

//bsub:coldpath
func (e *stored) markSent(peer NodeID) {
	if e.sent == nil {
		e.sent = make(map[NodeID]struct{})
	}
	e.sent[peer] = struct{}{}
}

// store is a keyed message buffer with lazy TTL expiry and deterministic
// (ID-ordered) iteration — msgstore.Store's incremental-index design,
// extended with payloads and direct-send bookkeeping. live is called once
// or twice per contact on hot paths, so new IDs accumulate in a small
// pending list merged into the sorted index on the next read instead of
// re-sorting the whole buffer every contact.
//
// Read methods are nil-receiver-safe (a nil store reads as empty), which
// is what lets Node allocate its stores lazily: most nodes in a
// million-node population never hold a message, and pay nothing.
type store struct {
	entries map[int]*stored
	sorted  []int
	pending []int
	// liveBuf backs the slice live returns, reused call to call.
	liveBuf []*stored
}

func newStore() *store { return &store{entries: make(map[int]*stored)} }

// add inserts (or replaces) a copy.
//
//bsub:hotpath
func (s *store) add(e *stored) {
	if _, exists := s.entries[e.msg.ID]; !exists {
		s.pending = append(s.pending, e.msg.ID)
	}
	s.entries[e.msg.ID] = e
}

//bsub:hotpath
func (s *store) has(id int) bool {
	if s == nil {
		return false
	}
	_, ok := s.entries[id]
	return ok
}

//bsub:hotpath
func (s *store) get(id int) *stored {
	if s == nil {
		return nil
	}
	return s.entries[id]
}

//bsub:hotpath
func (s *store) remove(id int) {
	if s == nil {
		return
	}
	delete(s.entries, id)
}

//bsub:hotpath
func (s *store) len() int {
	if s == nil {
		return 0
	}
	return len(s.entries)
}

// live returns the unexpired copies sorted by ID, purging expired entries
// (and sweeping stale index slots) as a side effect. The returned slice is
// valid until the next store call — the backing buffer is reused by the
// next live call.
//
//bsub:hotpath
func (s *store) live(now time.Duration) []*stored {
	if s == nil {
		return nil
	}
	s.settleIndex()
	out := s.liveBuf[:0]
	kept := s.sorted[:0]
	for _, id := range s.sorted {
		e, ok := s.entries[id]
		if !ok {
			continue // removed: sweep
		}
		if now > e.expiresAt {
			delete(s.entries, id)
			continue
		}
		kept = append(kept, id)
		out = append(out, e)
	}
	s.sorted = kept
	s.liveBuf = out
	return out
}

// ids returns all present IDs (possibly expired) in ascending order.
func (s *store) ids() []int {
	if s == nil {
		return nil
	}
	out := make([]int, 0, len(s.entries))
	for id := range s.entries {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// settleIndex merges pending IDs into the sorted index, in place: the
// index grows by len(pending) and the merge runs from the back, so no
// unread index slot is overwritten and no second buffer is needed. A
// re-added ID (removed, then added again before its stale slot was swept)
// meets its old slot in the merge and keeps one of the two; the gap those
// collapses leave is compacted out at the end.
//
//bsub:coldpath
func (s *store) settleIndex() {
	if len(s.pending) == 0 {
		return
	}
	sort.Ints(s.pending)
	n := len(s.sorted)
	s.sorted = append(s.sorted, s.pending...)
	i, j, w := n-1, len(s.pending)-1, len(s.sorted)-1
	for ; j >= 0; w-- {
		switch {
		case i >= 0 && s.sorted[i] > s.pending[j]:
			s.sorted[w] = s.sorted[i]
			i--
		case i >= 0 && s.sorted[i] == s.pending[j]: // re-added ID already indexed
			s.sorted[w] = s.sorted[i]
			i, j = i-1, j-1
		default:
			s.sorted[w] = s.pending[j]
			j--
		}
	}
	// s.sorted[:i+1] is unmerged and in place; close the gap of w-i slots
	// the collapses left after it.
	if w > i {
		s.sorted = append(s.sorted[:i+1], s.sorted[w+1:]...)
	}
	s.pending = s.pending[:0]
}
