package engine

import (
	"bytes"
	"testing"
	"time"

	"bsub/internal/tcbf"
	"bsub/internal/workload"
)

// freshEncodings builds a node's genuine and interest encodings the long
// way, on filters constructed for the occasion: the bytes the memoized
// GenuineOut/InterestOut must reproduce.
func freshEncodings(t *testing.T, n *Node, now time.Duration) (genuine, interest []byte) {
	t.Helper()
	var pre []tcbf.PreKey
	for _, k := range n.interests {
		pre = append(pre, tcbf.Precompute(k))
	}
	g := tcbf.MustNewPartitioned(n.p.geom.fcfg, n.p.geom.partitions, now)
	if err := g.InsertAllPre(pre, now); err != nil {
		t.Fatal(err)
	}
	genuine, err := g.Encode(tcbf.CountersUniform)
	if err != nil {
		t.Fatal(err)
	}
	f := tcbf.MustNew(n.p.geom.fcfg, now)
	if err := f.InsertAllPre(pre, now); err != nil {
		t.Fatal(err)
	}
	if interest, err = f.Encode(tcbf.CountersNone); err != nil {
		t.Fatal(err)
	}
	return genuine, interest
}

// outs runs GenuineOut and InterestOut on a fresh session of n drawn from
// c, returning the (aliased) bytes and the released session.
func outs(t *testing.T, n *Node, c *SessionCache, now time.Duration) (genuine, interest []byte, s *Session) {
	t.Helper()
	s = n.BeginContact(c, nil, now)
	genuine, err := s.GenuineOut()
	if err != nil {
		t.Fatal(err)
	}
	if interest, err = s.InterestOut(); err != nil {
		t.Fatal(err)
	}
	s.Release()
	return genuine, interest, s
}

// TestEncodingMemoConformance pins the interest-encoding memo to the
// encodings it replaces, on a partitioned and a single relay filter: a
// single-key node's memoized GenuineOut/InterestOut bytes equal a freshly
// built encoding at any time, across nodes and keys sharing one cache,
// and stay unchanged while later contacts reuse the arena — including
// steps that decode peer filters into the same scratch slots.
func TestEncodingMemoConformance(t *testing.T) {
	for _, b := range []struct {
		name       string
		partitions int
	}{
		{"packed", 2},
		{"single", 1},
	} {
		t.Run(b.name, func(t *testing.T) {
			cfg := DefaultConfig(0.1)
			cfg.RelayPartitions = b.partitions
			cache := NewSessionCache()
			keys := []workload.Key{"news", "sports", "weather"}
			var nodes []*Node
			for i, k := range keys {
				n := mustNode(t, i, cfg, time.Hour)
				n.Subscribe(k)
				nodes = append(nodes, n)
			}
			broker := mustNode(t, 9, cfg, time.Hour)
			broker.Promote(0)

			type held struct{ got, want []byte }
			var kept []held
			for step := 0; step < 12; step++ {
				now := time.Duration(step) * 7 * time.Minute
				n := nodes[step%len(nodes)]
				genuine, interest, s := outs(t, n, cache, now)
				wantG, wantI := freshEncodings(t, n, now)
				if !bytes.Equal(genuine, wantG) || !bytes.Equal(interest, wantI) {
					t.Fatalf("step %d: memoized encodings differ from a fresh build", step)
				}
				if step >= len(nodes) && &s.encMemo[n.interests[0]].genuine[0] != &genuine[0] {
					t.Fatalf("step %d: warm GenuineOut did not serve the memo", step)
				}
				kept = append(kept, held{genuine, append([]byte(nil), genuine...)},
					held{interest, append([]byte(nil), interest...)})

				// A broker contact on the same cache decodes peer state
				// into the arena's genuine and delivery scratch slots.
				sb := broker.BeginContact(cache, nil, now)
				sb.SetPeer(Hello{ID: n.id})
				sb.Apply(ActNone, ActNone)
				if err := sb.AbsorbGenuine(genuine); err != nil {
					t.Fatal(err)
				}
				if _, err := sb.DeliveryMatches(interest); err != nil {
					t.Fatal(err)
				}
				sb.Release()
			}
			for i, h := range kept {
				if !bytes.Equal(h.got, h.want) {
					t.Fatalf("returned bytes %d changed after later steps", i)
				}
			}
		})
	}
}

// TestEncodingMemoGeometries runs nodes of two filter geometries through
// one SessionCache: a session rebound across geometries drops its memo
// with the rest of the arena, so each geometry gets its own bytes.
func TestEncodingMemoGeometries(t *testing.T) {
	small, wide := DefaultConfig(0.1), DefaultConfig(0.1)
	wide.FilterM = 512
	a := mustNode(t, 1, small, time.Hour)
	b := mustNode(t, 2, wide, time.Hour)
	a.Subscribe("news")
	b.Subscribe("news")
	cache := NewSessionCache()
	for step := 0; step < 6; step++ {
		now := time.Duration(step) * time.Minute
		for _, n := range []*Node{a, b} {
			genuine, interest, _ := outs(t, n, cache, now)
			wantG, wantI := freshEncodings(t, n, now)
			if !bytes.Equal(genuine, wantG) || !bytes.Equal(interest, wantI) {
				t.Fatalf("step %d, FilterM %d: served another geometry's bytes", step, n.p.cfg.FilterM)
			}
		}
	}
}

// TestEncodingMemoMultiKeyBypass pins that nodes subscribed to several
// keys (the mesh's trend-set subscribers) encode afresh into the session's
// reused buffers, exactly as before the memo, and leave it empty.
func TestEncodingMemoMultiKeyBypass(t *testing.T) {
	cfg := DefaultConfig(0.1)
	n := mustNode(t, 1, cfg, time.Hour)
	n.Subscribe("news", "sports")
	cache := NewSessionCache()
	for step := 0; step < 3; step++ {
		now := time.Duration(step) * time.Minute
		genuine, interest, s := outs(t, n, cache, now)
		wantG, wantI := freshEncodings(t, n, now)
		if !bytes.Equal(genuine, wantG) || !bytes.Equal(interest, wantI) {
			t.Fatalf("step %d: multi-key encodings differ from a fresh build", step)
		}
		if len(s.encMemo) != 0 {
			t.Fatalf("step %d: multi-key node populated the memo", step)
		}
		if &s.genuineEnc[0] != &genuine[0] || &s.interestEnc[0] != &interest[0] {
			t.Fatalf("step %d: multi-key encodings bypassed the reused buffers", step)
		}
	}
}

// TestEncodingMemoBudget pins that a memo hit charges the budget exactly
// as an encode does, and a refusal returns nil, nil.
func TestEncodingMemoBudget(t *testing.T) {
	n := mustNode(t, 1, DefaultConfig(0.1), time.Hour)
	n.Subscribe("news")
	cache := NewSessionCache()
	_, interest, _ := outs(t, n, cache, 0) // fill the memo
	budget := &countingBudget{left: len(interest)}
	s := n.BeginContact(cache, budget, time.Minute)
	if data, err := s.InterestOut(); err != nil || !bytes.Equal(data, interest) {
		t.Fatalf("InterestOut = %v, %v; want the memoized bytes", data, err)
	}
	if budget.spent != len(interest) {
		t.Errorf("memo hit charged %d bytes, want %d", budget.spent, len(interest))
	}
	if data, err := s.InterestOut(); data != nil || err != nil {
		t.Errorf("refused InterestOut = %v, %v; want nil, nil", data, err)
	}
	s.Release()
}

// countingBudget grants spends while its allowance lasts.
type countingBudget struct{ left, spent int }

func (b *countingBudget) Spend(n int) bool {
	if n > b.left {
		return false
	}
	b.left -= n
	b.spent += n
	return true
}
