package mesh

// Counters aggregates mesh-level behavior over a daemon's lifetime:
// membership churn, scheduler throughput, and the backpressure and
// reconnect machinery the robustness story depends on. Alive, Suspect,
// and Dead are point-in-time table sizes filled in by Stats; everything
// else accumulates monotonically.
type Counters struct {
	// Alive / Suspect / Dead are the membership table's current
	// composition at snapshot time.
	Alive   int
	Suspect int
	Dead    int

	// GossipAbsorbed counts membership datagrams decoded and merged;
	// GossipGarbage counts payloads rejected wholesale by the codec;
	// GossipFailed counts outbound gossip exchanges that died on I/O.
	GossipAbsorbed uint64
	GossipGarbage  uint64
	GossipFailed   uint64

	// Contacts counts completed outbound contact sessions scheduled by
	// the mesh; ContactFailures counts attempts that errored (busy
	// answers are neither — they reschedule).
	Contacts        uint64
	ContactFailures uint64

	// Reconnects counts backoff-then-retry rounds in the peer workers:
	// each increment is one failed attempt that the worker will retry
	// after a jittered delay.
	Reconnects uint64

	// QueueCoalesced counts jobs that arrived at a full worker queue and
	// collapsed into the single pending catch-up token instead of
	// blocking or being dropped.
	QueueCoalesced uint64

	// FloodTokens counts eager contact tokens issued by the
	// dissemination path (Publish or a newly stored copy). FloodDirect
	// is the subset aimed at non-broker peers whose own interest filters
	// matched the fresh message's keys.
	FloodTokens uint64
	FloodDirect uint64

	// InterestFilters counts downstream genuine (interest) filters
	// recorded in the interest index via contact sessions.
	InterestFilters uint64

	// DeadProbes counts anti-entropy gossip probes sent to dead members
	// (the partition-heal escape hatch; see Config.DeadProbeInterval).
	DeadProbes uint64

	// Membership transition counts: Suspected (alive → suspect), Died
	// (suspect → dead), Rejoined (dead → alive), Recovered (suspect →
	// alive), Forgotten (dead entries aged out of the table).
	Suspected uint64
	Died      uint64
	Rejoined  uint64
	Recovered uint64
	Forgotten uint64
}

// Stats snapshots the mesh counters plus the membership table's current
// state composition.
func (m *Mesh) Stats() Counters {
	m.statsMu.Lock()
	out := m.counters
	m.statsMu.Unlock()
	m.mu.Lock()
	for _, mb := range m.members {
		switch mb.state {
		case StateAlive:
			out.Alive++
		case StateSuspect:
			out.Suspect++
		case StateDead:
			out.Dead++
		}
	}
	m.mu.Unlock()
	return out
}

// bump increments one cumulative counter under statsMu. Callers may hold
// mu (lock order is always mu then statsMu, never the reverse).
func (m *Mesh) bump(field *uint64) {
	m.statsMu.Lock()
	*field++
	m.statsMu.Unlock()
}

// bumpN adds n to one cumulative counter under statsMu; a no-op for n<=0.
func (m *Mesh) bumpN(field *uint64, n int) {
	if n <= 0 {
		return
	}
	m.statsMu.Lock()
	*field += uint64(n)
	m.statsMu.Unlock()
}

func (m *Mesh) bumpCoalesced()  { m.bump(&m.counters.QueueCoalesced) }
func (m *Mesh) bumpReconnects() { m.bump(&m.counters.Reconnects) }
