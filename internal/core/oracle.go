package core

import (
	"slices"
	"strings"
	"time"

	"bsub/internal/workload"
)

// oracle is the ground-truth mirror of one broker's relay filter: the
// exact multiset of relayed interest keys, each with a TCBF-semantics
// counter but no hash collisions. It exists only to classify
// producer-to-broker replications as genuine or falsely injected (Section
// VI-B); the protocol never reads it.
//
// The entries live in one slice sorted by key. Its length is bounded by
// the workload's interest keys (38 for the trend set), so decay compacts
// it in place, a lookup is a binary search, and a broker-broker merge is a
// linear pass over both sides that allocates nothing once the slices have
// grown to the union. Every counter operation is per key — decay
// subtracts and drops the key at <= 0, reinforcement adds C, a merge takes
// the max or the sum — so the results are bit-identical to those of any
// other container applying the same float operations (oracle_test.go
// checks this against a map reference).
//
// Every stored counter is positive: a key enters at 0 + C with C > 0
// (engine.Config.Validate enforces it), max and sum of positives stay
// positive, and decay drops a key as soon as its counter reaches zero.
//
// The zero oracle is off. Its node's promotion to broker starts it and a
// demotion stops it, dropping the backing array; entries is non-nil
// exactly while the oracle is on, so the node needs no separate marker.
type oracle struct {
	entries []oracleEntry
	at      time.Duration // decay clock: the time of the last advance
}

// oracleEntry is one relayed interest and its counter.
type oracleEntry struct {
	key workload.Key
	c   float64
}

// oracleStartCap is a started oracle's initial capacity, enough for the
// few interests a fresh broker relays before its first merge.
const oracleStartCap = 4

// start switches the oracle on, empty, with its decay clock at now.
func (o *oracle) start(now time.Duration) {
	*o = oracle{entries: make([]oracleEntry, 0, oracleStartCap), at: now}
}

// stop switches the oracle off and releases its entries.
func (o *oracle) stop() { *o = oracle{} }

// active reports whether the oracle is on, i.e. its node is a broker.
func (o *oracle) active() bool { return o.entries != nil }

// advance decays every counter by df per minute elapsed since the last
// advance and compacts out the keys that reach zero — the relay filter's
// lazy decay, taken at the same points.
func (o *oracle) advance(now time.Duration, df float64) {
	elapsed := now - o.at
	o.at = now
	if elapsed <= 0 || df == 0 {
		return
	}
	dec := df * elapsed.Minutes()
	kept := o.entries[:0]
	for _, e := range o.entries {
		e.c -= dec
		if e.c <= 0 {
			continue
		}
		kept = append(kept, e)
	}
	clear(o.entries[len(kept):])
	o.entries = kept
}

// find returns the index of k's entry, or the index it would be inserted
// at, and whether it is present.
func (o *oracle) find(k workload.Key) (int, bool) {
	return slices.BinarySearchFunc(o.entries, k, func(e oracleEntry, k workload.Key) int {
		return strings.Compare(e.key, k)
	})
}

// counter returns k's counter, 0 when absent.
func (o *oracle) counter(k workload.Key) float64 {
	if i, ok := o.find(k); ok {
		return o.entries[i].c
	}
	return 0
}

// reinforce adds c to the counter of every key — the A-merge of a
// consumer's genuine filter.
func (o *oracle) reinforce(keys []workload.Key, c float64) {
	for _, k := range keys {
		i, ok := o.find(k)
		if !ok {
			o.entries = slices.Insert(o.entries, i, oracleEntry{key: k})
		}
		o.entries[i].c += c
	}
}

// genuine reports whether any of keys is present in the oracle.
func (o *oracle) genuine(keys []workload.Key) bool {
	for _, k := range keys {
		if o.counter(k) > 0 {
			return true
		}
	}
	return false
}

// mergeOracles applies the broker merge to both brokers of a meeting, as
// if each merged the other's pre-merge entries into its own. max and IEEE
// addition are both commutative, so both sides end with the same entries:
// the union is built once, backward and in place in a's slice, and copied
// into b's.
func mergeOracles(a, b *oracle, mode BrokerMergeMode) {
	n, m := len(a.entries), len(b.entries)
	u := n + m
	for i, j := 0, 0; i < n && j < m; {
		switch c := strings.Compare(a.entries[i].key, b.entries[j].key); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			u--
			i, j = i+1, j+1
		}
	}
	a.entries = slices.Grow(a.entries, u-n)[:u]
	// Writing from the back never overtakes an unread entry of a; once b
	// is consumed, a's unread prefix is already in place.
	i, j := n-1, m-1
	for w := u - 1; j >= 0; w-- {
		c := -1
		if i >= 0 {
			c = strings.Compare(a.entries[i].key, b.entries[j].key)
		}
		switch {
		case c > 0:
			a.entries[w] = a.entries[i]
			i--
		case c < 0:
			a.entries[w] = b.entries[j]
			j--
		default:
			a.entries[w] = oracleEntry{key: b.entries[j].key, c: mergeCounter(a.entries[i].c, b.entries[j].c, mode)}
			i, j = i-1, j-1
		}
	}
	b.entries = append(b.entries[:0], a.entries...)
}

// mergeCounter merges one key's counters: the max, or the sum under
// additive merging.
func mergeCounter(dst, src float64, mode BrokerMergeMode) float64 {
	switch {
	case mode == BrokerMergeAdditive:
		return dst + src
	case src > dst:
		return src
	}
	return dst
}
