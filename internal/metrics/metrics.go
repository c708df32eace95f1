// Package metrics collects the three evaluation metrics of Section VII
// (delivery ratio, delay, overhead) plus the false-positive rate of
// delivered messages (Fig. 9(d)).
//
// Accounting follows the paper's per-message convention:
//
//   - A message is "deliverable" when at least one node other than its
//     producer subscribes to its key.
//   - It is "delivered" when the first interested consumer receives it;
//     the delivery ratio is delivered / deliverable messages and the delay
//     is that first arrival's latency ("we only consider the delay of
//     delivered messages").
//   - Overhead is total message forwardings divided by delivered messages
//     ("dividing the number of forwardings in the network by the number of
//     messages that have been delivered").
//   - The FPR is "the ratio of the number of falsely delivered messages to
//     the total number of delivered messages": a message counts as falsely
//     delivered when a Bloom-filter false positive hands it to a consumer
//     who never subscribed.
package metrics

import (
	"fmt"
	"sort"
	"time"
)

// Collector accumulates raw simulation events. It is not safe for
// concurrent use; the sharded simulator gives each worker its own
// collector and combines them with Merge at epoch barriers.
type Collector struct {
	protocol    string
	created     int
	deliverable int

	delivered map[int]time.Duration // message -> first genuine delivery delay
	events    map[pairKey]struct{}  // distinct (message, consumer) deliveries
	falseMsg  map[int]struct{}      // messages with >= 1 false delivery

	forwardings     int
	replications    int
	falseInjections int
	controlBytes    int64
	dataBytes       int64
	lateDrops       int
	contacts        int
}

type pairKey struct {
	msg  int
	node int
}

// NewCollector returns an empty collector labelled with the protocol name.
func NewCollector(protocol string) *Collector {
	return &Collector{
		protocol:  protocol,
		delivered: make(map[int]time.Duration),
		events:    make(map[pairKey]struct{}),
		falseMsg:  make(map[int]struct{}),
	}
}

// MessageCreated records a generated message and whether any consumer
// subscribes to its key (making it deliverable).
func (c *Collector) MessageCreated(deliverable bool) {
	c.created++
	if deliverable {
		c.deliverable++
	}
}

// GenuineDelivery records a delivery to an interested consumer. The
// earliest genuine delivery of each message defines its delay; each
// distinct (message, consumer) pair counts as one delivery event for the
// overhead metric. Keeping the minimum delay (rather than the first
// recorded one) makes the operation order-independent, so shard-local
// collectors fed out of global time order still merge to the exact
// sequential answer.
func (c *Collector) GenuineDelivery(msgID, consumer int, delay time.Duration) {
	c.events[pairKey{msg: msgID, node: consumer}] = struct{}{}
	if cur, ok := c.delivered[msgID]; ok && cur <= delay {
		return
	}
	c.delivered[msgID] = delay
}

// FalseDelivery records a delivery to a consumer that was not interested
// in the message — the cost of a Bloom-filter false positive. A message is
// counted falsely delivered at most once.
func (c *Collector) FalseDelivery(msgID int) {
	c.falseMsg[msgID] = struct{}{}
}

// Forwarding records one message copy moving between two nodes.
func (c *Collector) Forwarding() { c.forwardings++ }

// Replication records a producer-to-broker copy, flagging whether the
// relay-filter match that triggered it was a false positive (the broker
// relays no genuine interest in the message — ground truth the simulator
// keeps outside the filters). These are Section VI-B's falsely injected
// messages.
func (c *Collector) Replication(falsePositive bool) {
	c.replications++
	if falsePositive {
		c.falseInjections++
	}
}

// ControlBytes records protocol control traffic (filters, identities).
func (c *Collector) ControlBytes(n int) { c.controlBytes += int64(n) }

// DataBytes records message payload traffic.
func (c *Collector) DataBytes(n int) { c.dataBytes += int64(n) }

// LateDrop records a delivery attempt after the message's TTL, which the
// simulator refuses.
func (c *Collector) LateDrop() { c.lateDrops++ }

// Contact records one executed contact session; bsub-sim -nodes and
// perfbench divide the total by wall time for their contacts-per-second
// throughput figure.
func (c *Collector) Contact() { c.contacts++ }

// Merge folds other into c. Every constituent is merged exactly — counters
// sum, delivery-event and false-delivery sets union, per-message delays
// take the minimum — so merging shard-local collectors in any order yields
// the same totals as one sequential collector observing every event
// (Merge is commutative and associative over disjoint or overlapping event
// sets). other is left unchanged.
func (c *Collector) Merge(other *Collector) {
	c.created += other.created
	c.deliverable += other.deliverable
	c.forwardings += other.forwardings
	c.replications += other.replications
	c.falseInjections += other.falseInjections
	c.controlBytes += other.controlBytes
	c.dataBytes += other.dataBytes
	c.lateDrops += other.lateDrops
	c.contacts += other.contacts
	for id, d := range other.delivered {
		if cur, ok := c.delivered[id]; !ok || d < cur {
			c.delivered[id] = d
		}
	}
	for k := range other.events {
		c.events[k] = struct{}{}
	}
	for id := range other.falseMsg {
		c.falseMsg[id] = struct{}{}
	}
}

// Report freezes the collector into an immutable summary.
func (c *Collector) Report() Report {
	var total time.Duration
	delays := make([]time.Duration, 0, len(c.delivered))
	for _, d := range c.delivered {
		total += d
		delays = append(delays, d)
	}
	sort.Slice(delays, func(i, j int) bool { return delays[i] < delays[j] })
	return Report{
		Protocol:        c.protocol,
		Created:         c.created,
		Deliverable:     c.deliverable,
		Delivered:       len(c.delivered),
		DeliveryEvents:  len(c.events),
		FalseDeliveries: len(c.falseMsg),
		Forwardings:     c.forwardings,
		Replications:    c.replications,
		FalseInjections: c.falseInjections,
		ControlBytes:    c.controlBytes,
		DataBytes:       c.dataBytes,
		LateDrops:       c.lateDrops,
		Contacts:        c.contacts,
		totalDelay:      total,
		sortedDelays:    delays,
	}
}

// Report is an immutable metrics summary.
type Report struct {
	Protocol        string
	Created         int
	Deliverable     int
	Delivered       int
	DeliveryEvents  int
	FalseDeliveries int
	Forwardings     int
	Replications    int
	FalseInjections int
	ControlBytes    int64
	DataBytes       int64
	LateDrops       int
	Contacts        int
	totalDelay      time.Duration
	sortedDelays    []time.Duration
}

// DeliveryRatio returns delivered / deliverable messages, in [0, 1].
func (r Report) DeliveryRatio() float64 {
	if r.Deliverable == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.Deliverable)
}

// MeanDelay returns the mean first-delivery delay of delivered messages.
func (r Report) MeanDelay() time.Duration {
	if r.Delivered == 0 {
		return 0
	}
	return r.totalDelay / time.Duration(r.Delivered)
}

// DelayPercentile returns the p-quantile (p in [0,1]) of first-delivery
// delays; zero when nothing was delivered. The mean alone hides the tail
// that store-carry-forward networks are famous for.
func (r Report) DelayPercentile(p float64) time.Duration {
	if len(r.sortedDelays) == 0 {
		return 0
	}
	if p <= 0 {
		return r.sortedDelays[0]
	}
	if p >= 1 {
		return r.sortedDelays[len(r.sortedDelays)-1]
	}
	idx := int(p * float64(len(r.sortedDelays)))
	if idx >= len(r.sortedDelays) {
		idx = len(r.sortedDelays) - 1
	}
	return r.sortedDelays[idx]
}

// ForwardingsPerDelivered returns total forwardings divided by delivery
// events (Fig. 7(c)/8(c)): "dividing the number of forwardings in the
// network by the number of messages that have been delivered". Counting
// each delivered message instance makes PULL's overhead exactly 1, as the
// paper reports.
func (r Report) ForwardingsPerDelivered() float64 {
	if r.DeliveryEvents == 0 {
		return 0
	}
	return float64(r.Forwardings) / float64(r.DeliveryEvents)
}

// InjectionFPR returns falsely injected / all producer-to-broker
// replications. A replication happens only after the broker's relay
// advert matched the message, so this is the false share of the filter's
// positives, FP/(FP+TP). It is not Eq. 1's false-positive rate, which is
// FP/(FP+TN) over queries for absent keys (Section VI-B), and the two
// must not be compared directly.
func (r Report) InjectionFPR() float64 {
	if r.Replications == 0 {
		return 0
	}
	return float64(r.FalseInjections) / float64(r.Replications)
}

// FPR returns falsely delivered / all delivered messages (Fig. 9(d)).
func (r Report) FPR() float64 {
	total := r.Delivered + r.FalseDeliveries
	if total == 0 {
		return 0
	}
	return float64(r.FalseDeliveries) / float64(total)
}

// String renders a one-line summary.
func (r Report) String() string {
	return fmt.Sprintf("%s: delivery=%.3f delay=%s fwd/delivered=%.2f fpr=%.4f (delivered %d/%d, false %d, fwd %d)",
		r.Protocol, r.DeliveryRatio(), r.MeanDelay().Round(time.Second),
		r.ForwardingsPerDelivered(), r.FPR(),
		r.Delivered, r.Deliverable, r.FalseDeliveries, r.Forwardings)
}
