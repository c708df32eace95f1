package engine

import (
	"testing"
	"time"

	"bsub/internal/workload"
)

// TestReleaseLeakHook pins the hook that holds the claim invariant: every
// claim reaches Commit or Abort before Release. Under -tags bsubdebug (as
// `make race` runs the whole suite) the hook panics, so any adapter path
// that leaves a claim for Release to refund fails its tests; this test
// proves Release can tell when somebody didn't settle.
func TestReleaseLeakHook(t *testing.T) {
	record := func() (*[]int, func()) {
		var got []int
		prev := claimLeakHook
		claimLeakHook = func(leaked int) { got = append(got, leaked) }
		return &got, func() { claimLeakHook = prev }
	}

	cfg := DefaultConfig(0.1)

	t.Run("leaked claims reach the hook", func(t *testing.T) {
		got, restore := record()
		defer restore()
		n := mustNode(t, 0, cfg, time.Hour)
		peer := mustNode(t, 1, cfg, time.Hour)
		n.AcceptCarried(workload.Message{ID: 1, Key: "k", Origin: 9, Size: 10}, nil, 0)
		n.AddProduced(workload.Message{ID: 2, Key: "k", Origin: 0, Size: 10}, nil)

		s, sp := contact(n, peer, Unlimited{}, time.Minute)
		if c, ok := s.ClaimCarried(1); c == nil || !ok {
			t.Fatal("carried claim refused")
		}
		if c, ok := s.ClaimDirect(2); c == nil || !ok {
			t.Fatal("direct claim refused")
		}
		s.Release()
		sp.Release()
		if len(*got) != 1 || (*got)[0] != 2 {
			t.Fatalf("hook observed %v, want one call with 2 leaked claims", *got)
		}
	})

	t.Run("settled sessions stay silent", func(t *testing.T) {
		got, restore := record()
		defer restore()
		n := mustNode(t, 0, cfg, time.Hour)
		peer := mustNode(t, 1, cfg, time.Hour)
		n.AcceptCarried(workload.Message{ID: 1, Key: "k", Origin: 9, Size: 10}, nil, 0)

		s, sp := contact(n, peer, Unlimited{}, time.Minute)
		c, ok := s.ClaimCarried(1)
		if c == nil || !ok {
			t.Fatal("carried claim refused")
		}
		c.Commit()
		s.Release()
		sp.Release()
		if len(*got) != 0 {
			t.Fatalf("hook observed %v, want no calls", *got)
		}
	})

	t.Run("explicit Abort counts as settling", func(t *testing.T) {
		got, restore := record()
		defer restore()
		n := mustNode(t, 0, cfg, time.Hour)
		peer := mustNode(t, 1, cfg, time.Hour)
		n.AcceptCarried(workload.Message{ID: 1, Key: "k", Origin: 9, Size: 10}, nil, 0)

		s, sp := contact(n, peer, Unlimited{}, time.Minute)
		if c, ok := s.ClaimCarried(1); c == nil || !ok {
			t.Fatal("carried claim refused")
		}
		s.Abort() // the severed-contact idiom: refund everything, then release
		s.Release()
		sp.Release()
		if len(*got) != 0 {
			t.Fatalf("hook observed %v, want no calls", *got)
		}
	})
}
