package mesh

import (
	"sort"
	"testing"
	"time"

	"bsub/internal/tcbf"
	"bsub/internal/workload"
)

// encodeInterest builds a peer's interest-filter encoding holding keys.
func encodeInterest(t *testing.T, cfg tcbf.Config, parts int, keys []string, now time.Duration) []byte {
	t.Helper()
	f, err := tcbf.NewPartitioned(cfg, parts, now)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := f.InsertPre(tcbf.Precompute(k), now); err != nil {
			t.Fatal(err)
		}
	}
	data, err := f.Encode(tcbf.CountersNone)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestInterestIndexMatch(t *testing.T) {
	cfg := tcbf.Config{M: 256, K: 4, Initial: 10}
	now := time.Hour
	ix := newInterestIndex(cfg)

	ix.observe(7, encodeInterest(t, cfg, 1, []string{"news"}, now), now)
	ix.observe(9, encodeInterest(t, cfg, 1, []string{"sports"}, now), now)
	if ix.size() != 2 {
		t.Fatalf("size = %d, want 2", ix.size())
	}

	if got := ix.match([]workload.Key{"news"}, now); len(got) != 1 || got[0] != 7 {
		t.Errorf("match(news) = %v, want [7]", got)
	}
	if got := ix.match([]workload.Key{"sports"}, now); len(got) != 1 || got[0] != 9 {
		t.Errorf("match(sports) = %v, want [9]", got)
	}
	// No peer's own filter holds the key, so nobody is targeted.
	if got := ix.match([]workload.Key{"opera"}, now); len(got) != 0 {
		t.Errorf("match(opera) = %v, want none", got)
	}
	if got := ix.match(nil, now); got != nil {
		t.Errorf("match(no keys) = %v, want nil", got)
	}
}

func TestInterestIndexOpaquePeer(t *testing.T) {
	cfg := tcbf.Config{M: 256, K: 4, Initial: 10}
	now := time.Hour
	ix := newInterestIndex(cfg)

	// A peer configured with another filter geometry hands over bytes
	// this index cannot decode; it must be kept and always flooded.
	ix.observe(3, []byte{0xDE, 0xAD}, now)
	ix.observe(7, encodeInterest(t, cfg, 1, []string{"news"}, now), now)

	if got := ix.match([]workload.Key{"opera"}, now); len(got) != 1 || got[0] != 3 {
		t.Errorf("match(opera) = %v, want the opaque peer [3]", got)
	}
	got := ix.match([]workload.Key{"news"}, now)
	if len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Errorf("match(news) = %v, want [3 7] sorted", got)
	}
}

func TestInterestIndexForgetRebuilds(t *testing.T) {
	cfg := tcbf.Config{M: 256, K: 4, Initial: 10}
	now := time.Hour
	ix := newInterestIndex(cfg)

	ix.observe(7, encodeInterest(t, cfg, 1, []string{"news"}, now), now)
	if got := ix.match([]workload.Key{"news"}, now); len(got) != 1 {
		t.Fatalf("match(news) = %v before forget", got)
	}
	ix.forget(7)
	if ix.size() != 0 {
		t.Errorf("size = %d after forget, want 0", ix.size())
	}
	// The dead peer's filter must be gone, not answer for it.
	if got := ix.match([]workload.Key{"news"}, now); len(got) != 0 {
		t.Errorf("match(news) = %v after forget, want none", got)
	}
	// Forgetting an unknown peer is a no-op.
	ix.forget(42)
}

// TestInterestIndexManyPeersDecay covers a large downstream set with
// decay running: match must return exactly the peers whose own filter
// holds a key, and nobody once that key has decayed away.
func TestInterestIndexManyPeersDecay(t *testing.T) {
	cfg := tcbf.Config{M: 256, K: 4, Initial: 10, DecayPerMinute: 1}
	now := time.Hour
	ix := newInterestIndex(cfg)

	const peers = 100
	topics := []string{"news", "sports", "weather", "opera", "chess"}
	want := map[string][]uint32{}
	for id := uint32(1); id <= peers; id++ {
		k := topics[id%uint32(len(topics))]
		ix.observe(id, encodeInterest(t, cfg, 1, []string{k}, now), now)
		want[k] = append(want[k], id)
	}
	if ix.size() != peers {
		t.Fatalf("size = %d, want %d", ix.size(), peers)
	}

	// Half the lifetime in, every key is live: each topic matches exactly
	// its own subscribers (the universe has no colliding topic pairs at
	// this geometry, which the exact comparison would otherwise expose).
	at := now + 5*time.Minute
	for _, k := range topics {
		got := ix.match([]workload.Key{workload.Key(k)}, at)
		if !equalIDs(got, want[k]) {
			t.Errorf("match(%s) at +5m = %v, want %v", k, got, want[k])
		}
	}
	both := append(append([]uint32{}, want["news"]...), want["chess"]...)
	sort.Slice(both, func(i, j int) bool { return both[i] < both[j] })
	if got := ix.match([]workload.Key{"news", "chess"}, at); !equalIDs(got, both) {
		t.Errorf("match(news, chess) at +5m = %v, want %v", got, both)
	}

	// Initial 10 at DF 1/min: every counter is gone by +10m.
	at = now + 11*time.Minute
	for _, k := range topics {
		if got := ix.match([]workload.Key{workload.Key(k)}, at); len(got) != 0 {
			t.Errorf("match(%s) after decay = %v, want none", k, got)
		}
	}
	if ix.size() != peers {
		t.Errorf("size = %d after decay, want %d (decay empties filters, not the index)", ix.size(), peers)
	}
}

func equalIDs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestInterestIndexClockClamp(t *testing.T) {
	cfg := tcbf.Config{M: 256, K: 4, Initial: 10, DecayPerMinute: 1}
	now := time.Hour
	ix := newInterestIndex(cfg)

	ix.observe(7, encodeInterest(t, cfg, 1, []string{"news"}, now), now)
	// Hook and flood goroutines can observe the mesh clock out of order;
	// an earlier timestamp must not panic or corrupt the filters.
	if got := ix.match([]workload.Key{"news"}, now-30*time.Minute); len(got) != 1 {
		t.Errorf("match with stale clock = %v, want [7]", got)
	}
}

func TestInterestIndexNilTolerant(t *testing.T) {
	var ix *interestIndex
	ix.observe(1, nil, 0)
	ix.forget(1)
	if got := ix.match([]workload.Key{"news"}, time.Hour); got != nil {
		t.Errorf("nil index match = %v, want nil", got)
	}
	if ix.size() != 0 {
		t.Errorf("nil index size = %d, want 0", ix.size())
	}
}
