package mesh

import (
	"sort"
	"sync"
	"time"

	"bsub/internal/tcbf"
	"bsub/internal/workload"
)

// interestIndex is the mesh broker tier's view of downstream subscriber
// interests: one decoded interest filter per peer, fed by the livenode
// OnPeerGenuine hook as consumers hand their genuine filters over during
// contact sessions. When a fresh copy lands, one pass over those filters
// picks the consumers worth an eager flood contact.
//
// The index is advisory: flooding is an acceleration of the periodic
// contact scheduler, which still visits every live peer each
// ContactInterval, so a stale or missing entry can only delay delivery,
// never lose it. Peers whose interest encoding cannot be decoded as a
// packed partitioned TCBF of this mesh's geometry (another wire format or
// bit-vector length) are kept as opaque entries and always included in
// flood targeting.
//
// interestIndex has its own mutex; nothing blocking runs under it, and it
// is never held together with Mesh.mu.
type interestIndex struct {
	// mu is ranked after every Mesh lock: flood targeting reads the
	// index from code paths that already released mu, and the rank
	// guarantees no path ever reverses that.
	//bsub:lockrank 40
	mu  sync.Mutex
	cfg tcbf.Config
	// peers maps each peer to its decoded interest filter; nil marks an
	// opaque peer.
	peers map[uint32]*tcbf.Partitioned
	// clock high-water mark: filters reject time moving backwards, and
	// hook and flood goroutines may observe the mesh clock out of order.
	last time.Duration
}

func newInterestIndex(cfg tcbf.Config) *interestIndex {
	return &interestIndex{cfg: cfg, peers: map[uint32]*tcbf.Partitioned{}}
}

// clamp keeps filter clocks monotonic under out-of-order observers.
// Callers hold ix.mu.
func (ix *interestIndex) clamp(now time.Duration) time.Duration {
	if now > ix.last {
		ix.last = now
	}
	return ix.last
}

// observe records a peer's freshest interest filter encoding. All
// methods tolerate a nil index (tests build bare Mesh values) by
// treating it as permanently empty.
func (ix *interestIndex) observe(peer uint32, encoded []byte, now time.Duration) {
	if ix == nil {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	now = ix.clamp(now)
	f, err := tcbf.DecodePartitioned(encoded, ix.cfg, now)
	if err != nil {
		f = nil
	}
	ix.peers[peer] = f
}

// forget drops a dead peer's entry.
func (ix *interestIndex) forget(peer uint32) {
	if ix == nil {
		return
	}
	ix.mu.Lock()
	delete(ix.peers, peer)
	ix.mu.Unlock()
}

// match returns the peers worth an eager flood contact for a message
// carrying the given keys: every opaque peer (cannot be ruled out), plus
// each decodable peer whose own filter holds one of the keys. Sorted by
// ID. A filter error degrades to "flood everyone known" rather than
// suppressing dissemination.
func (ix *interestIndex) match(keys []workload.Key, now time.Duration) []uint32 {
	if ix == nil || len(keys) == 0 {
		return nil
	}
	pres := make([]tcbf.PreKey, len(keys))
	for i, k := range keys {
		pres[i] = tcbf.Precompute(string(k))
	}

	ix.mu.Lock()
	ids := make([]uint32, 0, len(ix.peers))
	now = ix.clamp(now)
	for id, f := range ix.peers {
		if f == nil {
			ids = append(ids, id)
			continue
		}
		ok, err := f.ContainsAnyPre(pres, now)
		if err != nil {
			ids = ids[:0]
			for id := range ix.peers {
				ids = append(ids, id)
			}
			break
		}
		if ok {
			ids = append(ids, id)
		}
	}
	ix.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// size reports how many peers have entries (introspection for tests).
func (ix *interestIndex) size() int {
	if ix == nil {
		return 0
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return len(ix.peers)
}
