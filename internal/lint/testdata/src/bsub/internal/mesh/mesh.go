// Package mesh exercises the locks analyzer over the mesh daemon's
// idioms: the event loop must collect targets under the membership lock
// and enqueue after releasing it, and worker queues must never see a
// channel op while a lock is held.
package mesh

import (
	"sync"
	"time"
)

type worker struct {
	mu    sync.Mutex
	jobs  chan int
	queue []int
	depth int
}

// enqueueChannelUnderLock is the forbidden shape: a send is blocking even
// when the surrounding select has a default, because the select belongs
// to the statement, not the lock analysis.
func (w *worker) enqueueChannelUnderLock(j int) {
	w.mu.Lock()
	select {
	case w.jobs <- j: // want `channel send while w.mu is held`
	default:
	}
	w.mu.Unlock()
}

// enqueueSliceUnderLock is the blessed shape: bounded slice queue, pure
// memory ops under the lock.
func (w *worker) enqueueSliceUnderLock(j int) {
	w.mu.Lock()
	if len(w.queue) < w.depth {
		w.queue = append(w.queue, j)
	}
	w.mu.Unlock()
}

type daemon struct {
	mu      sync.Mutex
	wg      sync.WaitGroup
	workers []*worker
	hook    func()
}

// scheduleCollectThenEnqueue is the event-loop idiom: pick targets under
// the lock, act after releasing it.
func (d *daemon) scheduleCollectThenEnqueue() {
	var targets []*worker
	d.mu.Lock()
	targets = append(targets, d.workers...)
	d.mu.Unlock()
	for _, w := range targets {
		w.enqueueSliceUnderLock(1)
	}
}

// spawnUnderLock: starting a goroutine is non-blocking, and the goroutine
// body runs with a clean slate.
func (d *daemon) spawnUnderLock() {
	d.mu.Lock()
	d.wg.Add(1) // Add never blocks; only Wait does
	go func() {
		defer d.wg.Done()
		time.Sleep(1)
	}()
	d.mu.Unlock()
}

func (d *daemon) waitUnderLock() {
	d.mu.Lock()
	d.wg.Wait() // want `sync wait while d.mu is held`
	d.mu.Unlock()
}

func (d *daemon) fireHookUnderLock() {
	d.mu.Lock()
	d.hook() // want `call through a function value while d.mu is held`
	d.mu.Unlock()
}

// fireHookAfterUnlock is the blessed event pattern: collect under the
// lock, fire after.
func (d *daemon) fireHookAfterUnlock() {
	d.mu.Lock()
	h := d.hook
	d.mu.Unlock()
	h()
}

func (d *daemon) backoffUnderLock() {
	d.mu.Lock()
	time.Sleep(1) // want `time.Sleep while d.mu is held`
	d.mu.Unlock()
}

// nestedLocks: statsMu-style nesting is fine; the inner lock methods are
// not blocking operations themselves.
func (d *daemon) nestedLocks(w *worker) {
	d.mu.Lock()
	w.mu.Lock()
	w.queue = w.queue[:0]
	w.mu.Unlock()
	d.mu.Unlock()
}
