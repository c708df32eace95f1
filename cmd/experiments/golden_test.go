package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenCSVs regenerates the quick-mode CSV artifacts that emit files
// (seed 1) and compares them byte-for-byte against the committed goldens
// in testdata/. The goldens pin the hot-path refactors — scratch filters,
// in-place encode/decode, precomputed digests — to the exact simulation
// results of the straightforward implementation. They were regenerated
// once when the packed fixed-point counters landed: quantizing counters to
// Initial/1024 units shifts a handful of marginal forwarding decisions
// (delivery/delay deltas under 2%), which is an intentional semantic
// change, not drift. They were regenerated again when replication
// exhaustion stopped evicting produced messages: a producer now serves
// subscribers directly until the TTL even after its copy budget is spent,
// nudging delivery ratios up and delays down by similar margins. The
// latest regeneration came with streaming fixture generation: traces and
// workloads are now drawn from per-pair/per-node derived RNG streams so
// they can be produced lazily at million-node scale, which resamples the
// synthetic Poisson processes. Delivery-ratio deltas stay within ~3%
// (most cells under 2%) and every qualitative trend the figures assert —
// PUSH > B-SUB > PULL delivery, delay orderings, DF sensitivity — is
// unchanged.
// Regenerate with:
//
//	go run ./cmd/experiments -run fig7 -seed 1 -quick -csv cmd/experiments/testdata
//	go run ./cmd/experiments -run fig9 -seed 1 -quick -csv cmd/experiments/testdata
func TestGoldenCSVs(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-mode simulations still take a few seconds")
	}
	old := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	defer func() {
		os.Stdout = old
		_ = null.Close()
	}()

	dir := t.TempDir()
	files := map[string][]string{
		"fig7": {"fig7.csv"},
		"fig9": {"fig9-haggle.csv", "fig9-mit.csv"},
	}
	for _, artifact := range []string{"fig7", "fig9"} {
		artifact := artifact
		t.Run(artifact, func(t *testing.T) {
			if err := runArtifact(artifact, 1, true, dir); err != nil {
				t.Fatalf("%s: %v", artifact, err)
			}
			for _, name := range files[artifact] {
				got, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatalf("regenerated %s: %v", name, err)
				}
				want, err := os.ReadFile(filepath.Join("testdata", name))
				if err != nil {
					t.Fatalf("golden %s: %v", name, err)
				}
				if string(got) != string(want) {
					t.Errorf("%s diverged from testdata golden:\ngot:\n%s\nwant:\n%s",
						name, got, want)
				}
			}
		})
	}
}
