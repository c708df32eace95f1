// Package msgstore is the one per-node message buffer every protocol
// runs on — B-SUB's engine and the PUSH/PULL baselines alike: a keyed
// store of message copies with lazy TTL expiry and deterministic
// (ID-ordered) iteration.
//
// A store is two parallel slices kept in ascending ID order: the IDs and
// their copies. Stores are small (a few live copies per node in the
// paper's replays), so Has, Get and Remove binary-search the IDs, Add
// appends when the ID is above every stored one (a producer's own
// messages always are) and inserts in place otherwise, and Live is one
// pass that compacts expired copies out and returns the copy slice
// itself. A warm add-and-read cycle allocates nothing.
//
// Read methods are nil-receiver-safe (a nil store reads as empty), which
// lets owners allocate stores lazily: most nodes in a million-node
// population never hold a message, and pay nothing. A store is not safe
// for concurrent use.
package msgstore

import (
	"slices"
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
// value is an empty store.
type Store struct {
	// ids is ascending; copies[i] is the copy of message ids[i].
	ids    []int
	copies []*Copy
}

// New returns an empty store.
func New() *Store { return &Store{} }

// find binary-searches ids for id, returning where it is or would be
// inserted and whether it is there. Written out, the search inlines into
// its callers, which a generic slices.BinarySearch call does not.
//
//bsub:hotpath
func (s *Store) find(id int) (int, bool) {
	lo, hi := 0, len(s.ids)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.ids[m] < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(s.ids) && s.ids[lo] == id
}

// Add inserts (or replaces) a copy, keyed by its message ID. An ID above
// every stored one appends, as a producer's own messages always do.
//
//bsub:hotpath
func (s *Store) Add(c *Copy) {
	id := c.Msg.ID
	if n := len(s.ids); n == 0 || s.ids[n-1] < id {
		s.ids = append(s.ids, id)
		s.copies = append(s.copies, c)
		return
	}
	i, ok := s.find(id)
	if ok {
		s.copies[i] = c
		return
	}
	s.ids = slices.Insert(s.ids, i, id)
	s.copies = slices.Insert(s.copies, i, c)
}

// Has reports whether the store holds message id (possibly expired).
//
//bsub:hotpath
func (s *Store) Has(id int) bool {
	if s == nil {
		return false
	}
	_, ok := s.find(id)
	return ok
}

// Get returns the copy of message id (possibly expired), or nil.
//
//bsub:hotpath
func (s *Store) Get(id int) *Copy {
	if s == nil {
		return nil
	}
	if i, ok := s.find(id); ok {
		return s.copies[i]
	}
	return nil
}

// Remove drops message id if present.
//
//bsub:hotpath
func (s *Store) Remove(id int) {
	if s == nil {
		return
	}
	if i, ok := s.find(id); ok {
		s.ids = slices.Delete(s.ids, i, i+1)
		s.copies = slices.Delete(s.copies, i, i+1)
	}
}

// Len returns the number of stored copies, including not-yet-purged
// expired ones.
//
//bsub:hotpath
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	return len(s.ids)
}

// Live returns the unexpired copies sorted by ID, purging expired ones as
// a side effect. A copy expires once now passes its ExpiresAt; at exactly
// ExpiresAt it is still live. The returned slice is the store's own: it
// is valid until the next Store call, and callers must not modify it.
//
//bsub:hotpath
func (s *Store) Live(now time.Duration) []*Copy {
	if s == nil {
		return nil
	}
	w := 0
	for i, c := range s.copies {
		if now > c.ExpiresAt {
			continue
		}
		if w < i {
			s.ids[w], s.copies[w] = s.ids[i], c
		}
		w++
	}
	if w < len(s.copies) {
		clear(s.copies[w:])
		s.ids, s.copies = s.ids[:w], s.copies[:w]
	}
	return s.copies
}

// IDs returns all present IDs (possibly expired) in ascending order.
func (s *Store) IDs() []int {
	if s == nil {
		return nil
	}
	return append(make([]int, 0, len(s.ids)), s.ids...)
}

// ClearSentTo forgets, on every copy, that it was served to peer.
func (s *Store) ClearSentTo(peer int) {
	if s == nil {
		return
	}
	for _, c := range s.copies {
		c.UnmarkSent(peer)
	}
}
