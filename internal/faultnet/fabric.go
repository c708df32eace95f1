package faultnet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ErrPartitioned is the synthetic dial error a Fabric returns for a dial
// that crosses a partition boundary. It unwraps to a timeout-shaped
// failure the same way an unreachable radio peer does.
var ErrPartitioned = errors.New("faultnet: destination unreachable (partitioned)")

// Fabric is a test-side network controller: it hands out dial functions
// that consult a mutable partition map, so a suite can split a mesh of
// real TCP nodes into groups, let them churn, and heal the split — all
// deterministically and without touching the nodes themselves.
//
// Nodes are known by stable keys (survive restarts and address changes);
// listen addresses are bound to keys with Register. A dial from key A to
// the address of key B fails with ErrPartitioned while A and B sit in
// different groups, and every already-established connection between them
// is severed the moment Partition is called — both halves of a real
// partition. Unregistered addresses belong to the default group 0.
// No network or blocking call runs while f.mu is held; the dial in
// Dialer's closure happens between its two critical sections.
type Fabric struct {
	mu    sync.Mutex
	group map[string]int      // key -> partition group (missing = 0)
	keyOf map[string]string   // listen addr -> key
	conns map[*Conn][2]string // live dialed conns -> {fromKey, toKey}
}

// NewFabric returns a healed fabric: every key in group 0. Dialed
// connections are wrapped with the zero Plan, which injects no faults;
// the fabric's only failures are partitions.
func NewFabric() *Fabric {
	return &Fabric{
		group: map[string]int{},
		keyOf: map[string]string{},
		conns: map[*Conn][2]string{},
	}
}

// Register binds a listen address to a node key. Re-registering a key
// with a new address (a restarted node) replaces nothing: old addresses
// keep resolving to the key until Forget, mirroring stale DNS.
func (f *Fabric) Register(key, addr string) {
	f.mu.Lock()
	f.keyOf[addr] = key
	f.mu.Unlock()
}

// Forget unbinds an address (e.g. a dead node's port being recycled).
func (f *Fabric) Forget(addr string) {
	f.mu.Lock()
	delete(f.keyOf, addr)
	f.mu.Unlock()
}

// Partition splits the fabric: keys listed in groups[i] join group i+1,
// every unlisted key returns to group 0. Established connections that now
// cross a group boundary are severed immediately — both endpoints see the
// link die, exactly like a mid-contact radio partition.
func (f *Fabric) Partition(groups ...[]string) {
	f.mu.Lock()
	f.group = map[string]int{}
	for i, keys := range groups {
		for _, k := range keys {
			f.group[k] = i + 1
		}
	}
	f.severCrossGroup()
	f.mu.Unlock()
}

// Heal reunites the fabric: every key returns to group 0 and future dials
// succeed again. Connections severed during the partition stay dead —
// healing restores reachability, not broken sessions.
func (f *Fabric) Heal() {
	f.mu.Lock()
	f.group = map[string]int{}
	f.mu.Unlock()
}

// Reachable reports whether a dial from key to addr would currently cross
// a partition boundary.
func (f *Fabric) Reachable(key, addr string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reachableLocked(key, addr)
}

func (f *Fabric) reachableLocked(key, addr string) bool {
	return f.group[key] == f.group[f.keyOf[addr]]
}

// severCrossGroup cuts every tracked connection whose endpoints sit in
// different groups and drops already-dead entries. Callers hold f.mu.
func (f *Fabric) severCrossGroup() {
	for c, link := range f.conns {
		if c.Severed() {
			delete(f.conns, c)
			continue
		}
		if f.group[link[0]] != f.group[link[1]] {
			c.Sever()
			delete(f.conns, c)
		}
	}
}

// Dialer returns a dial function for the node known as key, shaped for
// livenode's Config.Dial hook. The dial consults the partition map twice:
// before dialing, and again after the TCP handshake — a partition that
// lands mid-handshake kills the connection before the caller sees it, and
// a heal that lands mid-handshake lets it through.
func (f *Fabric) Dialer(key string) func(addr string, timeout time.Duration) (net.Conn, error) {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		f.mu.Lock()
		if !f.reachableLocked(key, addr) {
			f.mu.Unlock()
			return nil, fmt.Errorf("faultnet: dial %s from %s: %w", addr, key, ErrPartitioned)
		}
		to := f.keyOf[addr]
		f.mu.Unlock()

		raw, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		conn := Wrap(raw, Plan{})

		f.mu.Lock()
		if !f.reachableLocked(key, addr) {
			f.mu.Unlock()
			conn.Sever()
			return nil, fmt.Errorf("faultnet: dial %s from %s: %w", addr, key, ErrPartitioned)
		}
		f.conns[conn] = [2]string{key, to}
		f.mu.Unlock()
		return conn, nil
	}
}
