package mesh

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"bsub/internal/livenode"
	"bsub/internal/xrand"
)

// job is one unit of outbound work for a peer worker.
type job uint8

const (
	// jobGossip: exchange one membership datagram with the peer.
	jobGossip job = iota + 1
	// jobContact: run one full contact session (Meet) with the peer.
	jobContact
)

// maxJobRetries bounds the reconnect loop of a single job; beyond it the
// job is abandoned and the periodic scheduler (or the suspicion state
// machine) decides what happens to the peer next.
const maxJobRetries = 4

// peerWorker is the per-peer outbound scheduler, the bitswap msgQueue
// idiom: each live peer owns one, so contact and gossip attempts to one
// destination are serialized, retried under capped jittered exponential
// backoff, and never block the mesh's event loop or the other peers.
//
// Backpressure: jobs land in a bounded queue. When it is full the
// enqueue degrades gracefully — the job collapses into a single pending
// "contact due" token (coalesced) instead of blocking the producer or
// silently dropping work. A contact session moves every eligible message
// anyway, so N coalesced contact tokens and one token do the same work.
//
// The drain goroutine parks: it exits when the queue (and the coalesced
// token) are empty and is respawned by the next enqueue. At most one
// drain runs per worker at any moment, so job execution stays serialized
// per peer while a mesh of hundreds of in-process nodes — the chaos
// suite's shape — holds goroutines proportional to in-flight work, not
// to membership table size.
type peerWorker struct {
	m  *Mesh
	id uint32

	depth int
	quit  chan struct{}
	rng   *rand.Rand // guarded by the single-drain invariant

	// mu guards the queue and lifecycle flags; nothing blocking runs
	// while it is held (enforced by bsublint's locks analyzer). It
	// nests inside Mesh.mu (Close and peer transitions stop workers
	// under the membership lock) and outside statsMu.
	//bsub:lockrank 20
	mu        sync.Mutex
	queue     []job
	coalesced bool
	running   bool // a drain goroutine is live (or being spawned)
	stopped   bool
}

func newPeerWorker(m *Mesh, id uint32, queueDepth int, seed int64) *peerWorker {
	return &peerWorker{
		m:     m,
		id:    id,
		depth: queueDepth,
		quit:  make(chan struct{}),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// stop retires the worker: pending jobs are dropped, an in-flight drain
// is interrupted at its next backoff or queue check, and future enqueues
// become no-ops. Idempotent; safe to call with Mesh.mu held (nothing
// here blocks).
func (w *peerWorker) stop() {
	w.mu.Lock()
	if !w.stopped {
		w.stopped = true
		close(w.quit)
	}
	w.mu.Unlock()
}

// enqueue hands the worker a job without ever blocking. On overflow a
// contact token is coalesced; gossip jobs fold into the same token — a
// contact session carries strictly more information than a heartbeat.
// The wg.Add for a fresh drain happens inside the critical section that
// checked stopped, so it is ordered before Close's stop/Wait sequence.
func (w *peerWorker) enqueue(j job) {
	var spawn, overflow bool
	w.mu.Lock()
	switch {
	case w.stopped:
		w.mu.Unlock()
		return
	case len(w.queue) < w.depth:
		w.queue = append(w.queue, j)
	default:
		w.coalesced = true
		overflow = true
	}
	if !w.running {
		w.running = true
		w.m.wg.Add(1)
		spawn = true
	}
	w.mu.Unlock()
	if overflow {
		w.m.bumpCoalesced()
	}
	if spawn {
		go func() { w.drain() }()
	}
}

// next pops the drain's next job. When queue and coalesced token are both
// empty — or the worker was stopped — it parks the drain by clearing
// running under the same lock, so no enqueued job can ever be stranded
// between "queue looked empty" and "goroutine exited".
func (w *peerWorker) next() (job, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stopped {
		w.running = false
		return 0, false
	}
	if len(w.queue) > 0 {
		j := w.queue[0]
		copy(w.queue, w.queue[1:])
		w.queue = w.queue[:len(w.queue)-1]
		return j, true
	}
	if w.coalesced {
		w.coalesced = false
		return jobContact, true
	}
	w.running = false
	return 0, false
}

func (w *peerWorker) drain() {
	defer w.m.wg.Done()
	for {
		j, ok := w.next()
		if !ok {
			return
		}
		w.perform(j)
	}
}

// perform runs one job, reconnecting on failure under capped, jittered
// exponential backoff. A BUSY answer (either side at session capacity) is
// not a failure: the peer is provably alive and the contact comes due
// again on the next scheduler tick. Retries stop when the peer leaves the
// membership table's reachable states or the worker is stopped.
func (w *peerWorker) perform(j job) {
	backoff := w.m.cfg.ReconnectBackoff
	for attempt := 0; ; attempt++ {
		addr, ok := w.m.peerAddr(w.id)
		if !ok {
			return
		}
		var err error
		switch j {
		case jobGossip:
			err = w.m.gossipPeer(w.id, addr)
		case jobContact:
			err = w.m.contactPeer(w.id, addr)
		}
		if err == nil {
			return
		}
		if errors.Is(err, livenode.ErrPeerBusy) || errors.Is(err, livenode.ErrBusy) {
			w.m.observeAlive(w.id)
			return
		}
		if attempt >= maxJobRetries {
			return
		}
		w.m.bumpReconnects()
		delay := xrand.JitteredBackoff(backoff, w.rng.Float64())
		timer := time.NewTimer(delay)
		select {
		case <-w.quit:
			timer.Stop()
			return
		case <-timer.C:
		}
		if backoff < w.m.cfg.MaxReconnectBackoff {
			backoff *= 2
		}
	}
}
