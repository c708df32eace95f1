package livenode

import (
	"math/rand"
	"net"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"bsub/internal/core"
	"bsub/internal/sim"
	"bsub/internal/tcbf"
	"bsub/internal/trace"
	"bsub/internal/workload"
)

// parityEnv is a minimal sim.Env for driving the core adapter outside the
// discrete-event runner: shared clock, fixed interests, metrics discarded.
type parityEnv struct {
	clock     *meshClock
	interests [][]workload.Key
	ttl       time.Duration
}

func (e *parityEnv) Now() time.Duration                        { return e.clock.now() }
func (e *parityEnv) Worker() int                               { return 0 }
func (e *parityEnv) Workers() int                              { return 1 }
func (e *parityEnv) RNG() *rand.Rand                           { return rand.New(rand.NewSource(1)) }
func (e *parityEnv) Nodes() int                                { return len(e.interests) }
func (e *parityEnv) Interest(n trace.NodeID) workload.Key      { return e.interests[n][0] }
func (e *parityEnv) InterestSet(n trace.NodeID) []workload.Key { return e.interests[n] }
func (e *parityEnv) TTL() time.Duration                        { return e.ttl }
func (e *parityEnv) Deliver(*workload.Message, trace.NodeID)   {}
func (e *parityEnv) RecordForwarding(*workload.Message)        {}
func (e *parityEnv) RecordReplication(bool)                    {}
func (e *parityEnv) RecordControl(int)                         {}

// engineSnapshot is the protocol-visible state of one node: everything a
// forwarding or election decision can depend on.
type engineSnapshot struct {
	Broker    bool
	Relay     []byte // CountersFull encoding; nil for users
	Carried   []int
	Produced  []int
	Copies    map[int]int
	Delivered []int
}

func canonInts(ids []int) []int {
	if len(ids) == 0 {
		return []int{}
	}
	sort.Ints(ids)
	return ids
}

// liveContact runs one full contact session between two live nodes over
// an in-process pipe, the dialer as initiator.
func liveContact(t *testing.T, dialer, responder *Node) {
	t.Helper()
	ca, cb := net.Pipe()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); errs[0] = dialer.runContact(ca, true); ca.Close() }()
	go func() { defer wg.Done(); errs[1] = responder.runContact(cb, false); cb.Close() }()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("live contact side %d: %v", i, err)
		}
	}
}

// TestSimLiveParity replays one deterministic contact sequence twice —
// once through the simulator adapter (direct engine session calls), once
// through pairs of in-process live nodes framing the same sessions over
// net.Pipe — and asserts the protocol state is identical after every
// contact: broker elections, relay-filter contents (to the byte),
// forwarding decisions (visible as carried/produced/delivered sets and
// copy budgets). Both adapters drive the same engine, so any divergence
// is an adapter reordering or re-implementing protocol logic.
func TestSimLiveParity(t *testing.T) {
	const n = 4
	cfg := core.DefaultConfig(0.01)
	interests := [][]workload.Key{
		0: {"alpha"},
		1: {"news"},
		2: {"gamma"},
		3: {"beta"},
	}
	clock := newMeshClock(time.Hour)
	ttl := 6 * time.Hour

	// Simulator side.
	simSide := core.New(cfg)
	env := &parityEnv{clock: clock, interests: interests[:], ttl: ttl}
	if err := simSide.Init(env, nil); err != nil {
		t.Fatal(err)
	}

	// Live side: node IDs are the sim node indices.
	live := make([]*Node, n)
	for i := range live {
		node, err := Listen("127.0.0.1:0", Config{
			ID:       uint32(i),
			Protocol: cfg,
			TTL:      ttl,
			Clock:    clock.now,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = node.Close() })
		node.Subscribe(interests[i]...)
		live[i] = node
	}

	simSnap := func(i int) engineSnapshot {
		return snapshotEngine(t, simSide, live[i], true)
	}
	liveSnap := func(i int) engineSnapshot {
		return snapshotEngine(t, simSide, live[i], false)
	}

	// One deterministic script: elections with the mutual-promotion
	// tie-break, genuine propagation with A-merge reinforcement,
	// replication, a broker-broker relay exchange with preferential
	// forwarding, carried delivery, and duplicate suppression.
	type step struct {
		contact [2]int // contact[0] dials
		publish int    // publisher index when key != ""
		key     workload.Key
		advance time.Duration
		check   func()
	}
	script := []step{
		{contact: [2]int{1, 2}}, // mutual promote -> 2 is broker
		{contact: [2]int{0, 3}}, // mutual promote -> 3 is broker
		{advance: 5 * time.Minute},
		{contact: [2]int{1, 3}}, // genuine "news" -> 3's relay
		{advance: 5 * time.Minute},
		{contact: [2]int{1, 3}}, // A-merge reinforcement at 3
		{publish: 0, key: "news"},
		{advance: 5 * time.Minute},
		{contact: [2]int{0, 2}}, // replication: 2 pulls a copy
		{advance: 5 * time.Minute},
		{contact: [2]int{2, 3}}, // broker-broker: forward 2 -> 3
		{check: func() {
			// Preferential forwarding must have moved the copy toward the
			// reinforced broker; otherwise the script isn't testing it.
			if live[2].CarriedCount() != 0 || live[3].CarriedCount() != 1 {
				t.Fatalf("forwarding did not move the copy: carried 2=%d 3=%d",
					live[2].CarriedCount(), live[3].CarriedCount())
			}
		}},
		{advance: 5 * time.Minute},
		{contact: [2]int{1, 3}}, // carried delivery to 1
		{contact: [2]int{0, 1}}, // direct pull deduped at 1
	}
	for si, st := range script {
		switch {
		case st.check != nil:
			st.check()
			continue
		case st.advance != 0:
			clock.advance(st.advance)
			continue
		case st.key != "":
			payload := []byte("parity payload")
			id, err := live[st.publish].Publish(payload, st.key)
			if err != nil {
				t.Fatal(err)
			}
			simSide.OnMessage(env, workload.Message{
				ID:        id,
				Key:       st.key,
				Origin:    st.publish,
				Size:      len(payload),
				CreatedAt: clock.now(),
			})
			continue
		}
		a, b := st.contact[0], st.contact[1]
		simSide.OnContact(env, trace.NodeID(a), trace.NodeID(b), sim.NewBudget(1<<30))
		liveContact(t, live[a], live[b])
		for i := 0; i < n; i++ {
			simS, liveS := simSnap(i), liveSnap(i)
			if !reflect.DeepEqual(simS, liveS) {
				t.Fatalf("step %d (contact %d-%d): node %d diverged\nsim:  %+v\nlive: %+v",
					si, a, b, i, simS, liveS)
			}
		}
	}

	// The script must actually have exercised the interesting machinery.
	if !simSide.IsBroker(2) || !simSide.IsBroker(3) {
		t.Error("script no longer promotes nodes 2 and 3")
	}
	finalDelivered := liveSnapDelivered(live[1])
	if len(finalDelivered) != 1 {
		t.Errorf("consumer 1 delivered set = %v, want exactly the published message", finalDelivered)
	}
}

func liveSnapDelivered(n *Node) []int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return canonInts(n.eng.DeliveredIDs())
}

// snapshotEngine extracts the comparable state for one node from either
// adapter. fromSim selects the simulator side; the live node argument
// identifies which node index to read on either side.
func snapshotEngine(t *testing.T, simSide *core.BSub, liveNode *Node, fromSim bool) engineSnapshot {
	t.Helper()
	var snap engineSnapshot
	var relay *tcbf.Partitioned
	if fromSim {
		id := trace.NodeID(liveNode.cfg.ID)
		snap.Broker = simSide.IsBroker(id)
		relay = simSide.RelayFilter(id)
		eng := simSide.Engine(id)
		snap.Carried = canonInts(eng.CarriedIDs())
		snap.Produced = canonInts(eng.ProducedIDs())
		snap.Delivered = canonInts(eng.DeliveredIDs())
		snap.Copies = make(map[int]int, len(snap.Produced))
		for _, id := range snap.Produced {
			snap.Copies[id] = eng.ProducedCopies(id)
		}
	} else {
		liveNode.mu.Lock()
		defer liveNode.mu.Unlock()
		eng := liveNode.eng
		snap.Broker = eng.IsBroker()
		relay = eng.Relay()
		snap.Carried = canonInts(eng.CarriedIDs())
		snap.Produced = canonInts(eng.ProducedIDs())
		snap.Delivered = canonInts(eng.DeliveredIDs())
		snap.Copies = make(map[int]int, len(snap.Produced))
		for _, id := range snap.Produced {
			snap.Copies[id] = eng.ProducedCopies(id)
		}
	}
	if relay != nil {
		enc, err := relay.Encode(tcbf.CountersFull)
		if err != nil {
			t.Fatal(err)
		}
		snap.Relay = enc
	}
	return snap
}
