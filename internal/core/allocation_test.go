package core

import (
	"math/rand"
	"testing"
	"time"

	"bsub/internal/sim"
	"bsub/internal/trace"
	"bsub/internal/workload"
)

// fakeEnv is a minimal sim.Env for white-box protocol tests. It counts
// the deliveries it is handed.
type fakeEnv struct {
	nodes     int
	now       time.Duration
	ttl       time.Duration
	delivered int
}

var _ sim.Env = (*fakeEnv)(nil)

func (e *fakeEnv) Now() time.Duration                 { return e.now }
func (e *fakeEnv) Worker() int                        { return 0 }
func (e *fakeEnv) Workers() int                       { return 1 }
func (e *fakeEnv) RNG() *rand.Rand                    { return rand.New(rand.NewSource(1)) }
func (e *fakeEnv) Nodes() int                         { return e.nodes }
func (e *fakeEnv) Interest(trace.NodeID) workload.Key { return "k" }
func (e *fakeEnv) InterestSet(n trace.NodeID) []workload.Key {
	return []workload.Key{"k"}
}
func (e *fakeEnv) TTL() time.Duration                      { return e.ttl }
func (e *fakeEnv) Deliver(*workload.Message, trace.NodeID) { e.delivered++ }
func (e *fakeEnv) RecordForwarding(*workload.Message)      {}
func (e *fakeEnv) RecordReplication(bool)                  {}
func (e *fakeEnv) RecordControl(int)                       {}

func newTestBSub(t *testing.T, nodes int) *BSub {
	t.Helper()
	p := New(DefaultConfig(0.1))
	if err := p.Init(&fakeEnv{nodes: nodes, ttl: time.Hour}, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	return p
}

// The broker-allocation white-box tests (promotion, demotion, window
// pruning, DF retuning) live in internal/engine, where the logic now is;
// this package keeps the adapter-level tests.

func TestAdapterTracksBrokerCensus(t *testing.T) {
	// BrokerCount and the adapter's oracle lifecycle must follow the
	// engine's election outcomes across a contact.
	p := newTestBSub(t, 3)
	if p.BrokerCount() != 0 {
		t.Fatalf("fresh run has %d brokers", p.BrokerCount())
	}
	budget := sim.NewBudget(1 << 20)
	p.OnContact(&fakeEnv{nodes: 3, ttl: time.Hour}, 0, 1, budget)
	// Broker scarcity makes both users elect the other; the engine's
	// tie-break promotes only the higher-ID side.
	if p.BrokerCount() != 1 {
		t.Fatalf("after first contact BrokerCount = %d, want 1", p.BrokerCount())
	}
	if p.IsBroker(0) || !p.IsBroker(1) {
		t.Errorf("bootstrap roles: broker0=%v broker1=%v, want only node 1",
			p.IsBroker(0), p.IsBroker(1))
	}
	if p.nodes[0].oracle.active() {
		t.Error("user node grew an oracle")
	}
	if !p.nodes[1].oracle.active() {
		t.Error("broker node missing its oracle")
	}
	if p.nodes[2].oracle.active() {
		t.Error("bystander node grew an oracle")
	}
}
