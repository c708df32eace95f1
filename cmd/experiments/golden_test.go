package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"bsub/internal/experiments"
)

// TestGoldenCSVs rebuilds the quick-mode artifacts (seed 1) and the Fig. 9
// grid on the paper's fixtures, and compares each table's CSV
// byte-for-byte against testdata/<name>.csv.
//
// The quick artifacts run on the 20-node small fixture, so fig9-haggle.csv
// and fig9-mit.csv are the same trace: fig7.csv, the two fig9 files and
// the seven ablation grids (merge, decay, copy limit, election thresholds,
// geometry, DF policy, relay partitions) pin the simulator and the
// protocol to exact results. Regenerate them only for a deliberate change
// of results, and say why in CHANGES.md:
//
//	go run ./cmd/experiments -run fig7 -seed 1 -quick -csv cmd/experiments/testdata
//	go run ./cmd/experiments -run fig9 -seed 1 -quick -csv cmd/experiments/testdata
//	go run ./cmd/experiments -run ablation -seed 1 -quick -csv cmd/experiments/testdata
//
// The fixture grid (fixture-fig9-haggle.csv, fixture-fig9-mit.csv) runs
// B-SUB at DF 0, 0.138 and 1.0 per minute and the paper's 20 h TTL on
// the 79-node Haggle and 97-node MIT fixtures, the traces the figures are
// drawn from. It has no command-line form: on a deliberate change, the
// failure message prints the regenerated CSV that replaces the file.
func TestGoldenCSVs(t *testing.T) {
	if testing.Short() {
		t.Skip("the simulations take a few seconds")
	}
	for _, artifact := range []string{"fig7", "fig9", "ablation"} {
		t.Run(artifact, func(t *testing.T) {
			tables, err := build(artifact, 1, true)
			if err != nil {
				t.Fatalf("%s: %v", artifact, err)
			}
			checkGolden(t, tables)
		})
	}
	t.Run("fixture-fig9", func(t *testing.T) {
		var tables []experiments.Table
		for _, which := range []string{"haggle", "mit"} {
			f, err := fixture(which, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			points, err := experiments.DFSweep(f, []float64{0, 0.138, 1.0}, experiments.Fig9TTL)
			if err != nil {
				t.Fatal(err)
			}
			tables = append(tables, experiments.DFTable("fixture-fig9-"+which, points))
		}
		checkGolden(t, tables)
	})
}

// checkGolden compares each table's CSV with testdata/<name>.csv.
func checkGolden(t *testing.T, tables []experiments.Table) {
	t.Helper()
	for _, tb := range tables {
		var got bytes.Buffer
		if err := tb.WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", tb.Name+".csv"))
		if err != nil {
			t.Fatalf("golden %s: %v", tb.Name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s.csv diverged from testdata golden:\ngot:\n%s\nwant:\n%s", tb.Name, got.Bytes(), want)
		}
	}
}
