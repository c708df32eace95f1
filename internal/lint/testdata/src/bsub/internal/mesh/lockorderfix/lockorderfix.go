// Package lockorderfix exercises the locks analyzer's rank check: mutexes
// annotated //bsub:lockrank N must be acquired in increasing rank
// order, directly or through package-local calls, and any mutex that
// nests with a ranked one must itself be ranked.
package lockorderfix

import "sync"

type daemon struct {
	mu sync.Mutex //bsub:lockrank 10
	//bsub:lockrank 20
	workerMu sync.Mutex
	statsMu  sync.Mutex //bsub:lockrank 30
	otherMu  sync.Mutex // unranked; must never nest with the ranked set
	freeMu   sync.Mutex // unranked; nests only with other unranked locks
	spareMu  sync.Mutex
	count    int
}

// orderedNesting follows the declared order: 10 then 20 then 30.
func (d *daemon) orderedNesting() {
	d.mu.Lock()
	d.workerMu.Lock()
	d.statsMu.Lock()
	d.count++
	d.statsMu.Unlock()
	d.workerMu.Unlock()
	d.mu.Unlock()
}

// invertedNesting takes statsMu before mu: the deadlock pair.
func (d *daemon) invertedNesting() {
	d.statsMu.Lock()
	d.mu.Lock() // want `inverts the declared lock order`
	d.mu.Unlock()
	d.statsMu.Unlock()
}

// selfDeadlock reacquires a mutex it already holds.
func (d *daemon) selfDeadlock() {
	d.mu.Lock()
	d.mu.Lock() // want `self-deadlock`
	d.mu.Unlock()
	d.mu.Unlock()
}

// bump is the stats pattern: acquires statsMu, callable under mu.
func (d *daemon) bump() {
	d.statsMu.Lock()
	d.count++
	d.statsMu.Unlock()
}

// transitiveOrdered calls bump (rank 30) under mu (rank 10): legal.
func (d *daemon) transitiveOrdered() {
	d.mu.Lock()
	d.bump()
	d.mu.Unlock()
}

// grab acquires mu.
func (d *daemon) grab() {
	d.mu.Lock()
	d.count++
	d.mu.Unlock()
}

// transitiveInverted calls grab (rank 10) while holding statsMu
// (rank 30): the same deadlock, one call deep.
func (d *daemon) transitiveInverted() {
	d.statsMu.Lock()
	d.grab() // want `call to grab acquires daemon\.mu \(lockrank 10\) while daemon\.statsMu \(lockrank 30\) is held`
	d.statsMu.Unlock()
}

// rankedUnderUnranked nests a ranked lock under an unannotated one:
// the annotation set must stay closed over everything that nests.
func (d *daemon) rankedUnderUnranked() {
	d.otherMu.Lock()
	d.mu.Lock() // want `while unranked mutex d\.otherMu is held`
	d.mu.Unlock()
	d.otherMu.Unlock()
}

// unrankedUnderRanked is the same gap from the other side.
func (d *daemon) unrankedUnderRanked() {
	d.mu.Lock()
	d.otherMu.Lock() // want `unranked mutex \(otherMu\) while daemon\.mu \(lockrank 10\) is held`
	d.otherMu.Unlock()
	d.mu.Unlock()
}

// unrankedPair: two unranked mutexes may nest freely — there is no
// declared order to check them against.
func (d *daemon) unrankedPair() {
	d.freeMu.Lock()
	d.spareMu.Lock()
	d.spareMu.Unlock()
	d.freeMu.Unlock()
}

// sequentialNotNested: release before reacquire is not nesting.
func (d *daemon) sequentialNotNested() {
	d.statsMu.Lock()
	d.count++
	d.statsMu.Unlock()
	d.mu.Lock()
	d.count++
	d.mu.Unlock()
}

// goroutineCleanSlate: the spawned body runs on its own stack without
// the spawner's locks.
func (d *daemon) goroutineCleanSlate() {
	d.statsMu.Lock()
	go func() {
		d.mu.Lock()
		d.count++
		d.mu.Unlock()
	}()
	d.statsMu.Unlock()
}

// deferredUnlockHeld: a deferred Unlock keeps the lock held for the
// rest of the body, so the inversion below still fires.
func (d *daemon) deferredUnlockHeld() {
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	d.mu.Lock() // want `inverts the declared lock order`
	d.mu.Unlock()
}

type badranks struct {
	//bsub:lockrank ten
	m sync.Mutex // want `rank must be a decimal integer`
	//bsub:lockrank 5
	n int // want `not a sync\.Mutex`
}

func (b *badranks) use() {
	b.m.Lock()
	b.n++
	b.m.Unlock()
}
