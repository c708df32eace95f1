// Package livenode exercises the locks analyzer's blocking check: no
// blocking operation while a mutex is held.
package livenode

import (
	"net"
	"sync"
	"time"
)

type node struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	conn net.Conn
	ch   chan int
}

func (n *node) writeUnderLock(b []byte) {
	n.mu.Lock()
	n.conn.Write(b) // want `net.Conn.Write while n.mu is held`
	n.mu.Unlock()
}

func (n *node) writeAfterUnlock(b []byte) {
	n.mu.Lock()
	n.mu.Unlock()
	_, _ = n.conn.Write(b)
}

func (n *node) deferredUnlock(b []byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, _ = n.conn.Write(b) // want `net.Conn.Write while n.mu is held`
}

func (n *node) deadlineUnderLock(t time.Time) {
	n.mu.Lock()
	defer n.mu.Unlock()
	_ = n.conn.SetDeadline(t) // deadline setters never touch the wire
}

func (n *node) sendUnderLock(v int) {
	n.mu.Lock()
	n.ch <- v // want `channel send while n.mu is held`
	n.mu.Unlock()
}

func (n *node) sleepUnderLock() {
	n.mu.Lock()
	time.Sleep(1) // want `time.Sleep while n.mu is held`
	n.mu.Unlock()
}

func (n *node) flush() {
	_, _ = n.conn.Write(nil)
}

func (n *node) flushUnderLock() {
	n.mu.Lock()
	n.flush() // want `call to flush, which blocks while n.mu is held`
	n.mu.Unlock()
}

func (n *node) spawnUnderLock() {
	n.mu.Lock()
	go func() {
		_, _ = n.conn.Write(nil) // the goroutine does not hold the spawner's lock
	}()
	n.mu.Unlock()
}

func (n *node) branchUnlock(b []byte, fast bool) {
	n.mu.Lock()
	if fast {
		n.mu.Unlock()
		_, _ = n.conn.Write(b) // this branch released the lock first
		return
	}
	n.mu.Unlock()
}

func (n *node) recvUnderLock() {
	n.mu.Lock()
	select { // want `select without default while n.mu is held`
	case v := <-n.ch: // want `channel receive while n.mu is held`
		_ = v
	}
	n.mu.Unlock()
}

func (n *node) pollNoLock() {
	select {
	case v := <-n.ch:
		_ = v
	default:
	}
}

func (n *node) hookUnderLock(hook func()) {
	n.mu.Lock()
	hook() // want `call through a function value while n.mu is held`
	n.mu.Unlock()
}

func (n *node) rlockRead(b []byte) {
	n.rw.RLock()
	_, _ = n.conn.Read(b) // want `net.Conn.Read while n.rw is held`
	n.rw.RUnlock()
}
