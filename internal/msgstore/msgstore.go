// Package msgstore is the one per-node message buffer every protocol
// runs on — B-SUB's engine and the PUSH/PULL baselines alike: a keyed
// store of message copies with lazy TTL expiry and deterministic
// (ID-ordered) iteration.
//
// Live is called once or twice per contact on hot paths, so the store
// maintains its ID-ordered index incrementally: new IDs accumulate in a
// small pending list that is merged, in place, into the main index on the
// next read instead of re-sorting the whole buffer every contact, and the
// slice Live returns is a buffer reused call to call. A warm add-and-read
// cycle allocates nothing.
//
// Read methods are nil-receiver-safe (a nil store reads as empty), which
// lets owners allocate stores lazily: most nodes in a million-node
// population never hold a message, and pay nothing. A store is not safe
// for concurrent use.
package msgstore

import (
	"sort"
	"time"

	"bsub/internal/tcbf"
	"bsub/internal/workload"
)

// Copy is one message copy held by a node: the message, its payload (nil
// inside the simulator, real bytes on a live node), its match keys with
// precomputed filter digests (nil when the owner never queries a filter),
// its expiry, the producer-side replication budget, and the set of peers
// the copy was already served to.
type Copy struct {
	Msg       workload.Message
	Payload   []byte
	Pre       []tcbf.PreKey
	ExpiresAt time.Duration
	Copies    int
	sent      map[int]struct{}
}

// SentTo reports whether the copy was already served to peer.
//
//bsub:hotpath
func (c *Copy) SentTo(peer int) bool {
	_, ok := c.sent[peer]
	return ok
}

// MarkSent records that the copy was served to peer.
//
//bsub:coldpath
func (c *Copy) MarkSent(peer int) {
	if c.sent == nil {
		c.sent = make(map[int]struct{})
	}
	c.sent[peer] = struct{}{}
}

// UnmarkSent forgets that the copy was served to peer.
//
//bsub:hotpath
func (c *Copy) UnmarkSent(peer int) { delete(c.sent, peer) }

// Store holds message copies for one node, keyed by message ID. The zero
// value is not usable; construct with New.
type Store struct {
	entries map[int]*Copy
	// sorted is an ascending index of (possibly stale) message IDs; stale
	// slots are swept during Live.
	sorted []int
	// pending are IDs added since the last Live call.
	pending []int
	// liveBuf backs the slice Live returns, reused call to call.
	liveBuf []*Copy
}

// New returns an empty store.
func New() *Store { return &Store{entries: make(map[int]*Copy)} }

// Add inserts (or replaces) a copy, keyed by its message ID.
//
//bsub:hotpath
func (s *Store) Add(c *Copy) {
	if _, exists := s.entries[c.Msg.ID]; !exists {
		s.pending = append(s.pending, c.Msg.ID)
	}
	s.entries[c.Msg.ID] = c
}

// Has reports whether the store holds message id (possibly expired).
//
//bsub:hotpath
func (s *Store) Has(id int) bool {
	if s == nil {
		return false
	}
	_, ok := s.entries[id]
	return ok
}

// Get returns the copy of message id (possibly expired), or nil.
//
//bsub:hotpath
func (s *Store) Get(id int) *Copy {
	if s == nil {
		return nil
	}
	return s.entries[id]
}

// Remove drops message id if present. Its index slot is swept lazily.
//
//bsub:hotpath
func (s *Store) Remove(id int) {
	if s == nil {
		return
	}
	delete(s.entries, id)
}

// Len returns the number of stored copies, including not-yet-purged
// expired ones.
//
//bsub:hotpath
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	return len(s.entries)
}

// Live returns the unexpired copies sorted by ID, purging expired ones
// (and sweeping stale index slots) as a side effect. A copy expires once
// now passes its ExpiresAt; at exactly ExpiresAt it is still live. The
// returned slice is valid until the next Store call — the backing buffer
// is reused by the next Live call.
//
//bsub:hotpath
func (s *Store) Live(now time.Duration) []*Copy {
	if s == nil {
		return nil
	}
	s.settleIndex()
	out := s.liveBuf[:0]
	kept := s.sorted[:0]
	for _, id := range s.sorted {
		c, ok := s.entries[id]
		if !ok {
			continue // removed: sweep
		}
		if now > c.ExpiresAt {
			delete(s.entries, id)
			continue
		}
		kept = append(kept, id)
		out = append(out, c)
	}
	s.sorted = kept
	s.liveBuf = out
	return out
}

// IDs returns all present IDs (possibly expired) in ascending order.
func (s *Store) IDs() []int {
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

// ClearSentTo forgets, on every copy, that it was served to peer.
func (s *Store) ClearSentTo(peer int) {
	if s == nil {
		return
	}
	for _, c := range s.entries {
		c.UnmarkSent(peer)
	}
}

// settleIndex merges pending IDs into the sorted index, in place: the
// index grows by len(pending) and the merge runs from the back, so no
// unread index slot is overwritten and no second buffer is needed. A
// re-added ID (removed, then added again before its stale slot was swept)
// meets its old slot in the merge and keeps one of the two; the gap those
// collapses leave is compacted out at the end.
//
//bsub:coldpath
func (s *Store) settleIndex() {
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
