// Command experiments regenerates every table and figure of the B-SUB
// paper's evaluation (Section VII). Output is textual: one block per
// artifact with the same rows/series the paper plots.
//
// Usage:
//
//	experiments                 # run everything (minutes)
//	experiments -run fig7       # one artifact: table1 table2 fig7 fig8 fig9 memory analysis allocation
//	experiments -quick          # small fixture + reduced sweeps (seconds)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"bsub/internal/analysis"
	"bsub/internal/experiments"
	"bsub/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		only   = flag.String("run", "", "run a single artifact: table1 | table2 | fig7 | fig8 | fig9 | memory | analysis | allocation | ablation | scale")
		seed   = flag.Int64("seed", 1, "random seed")
		quick  = flag.Bool("quick", false, "use the small fixture and reduced sweeps")
		csvDir = flag.String("csv", "", "also write the figure series as CSV files into this directory")
	)
	flag.Parse()

	artifacts := []string{"table1", "table2", "fig7", "fig8", "fig9", "memory", "analysis", "allocation", "ablation"}
	if *only == "scale" {
		// The million-node sweep is not part of the run-everything default;
		// it is requested explicitly.
		artifacts = append(artifacts, "scale")
	}
	if *only != "" {
		found := false
		for _, a := range artifacts {
			if a == *only {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("unknown artifact %q (have %s)", *only, strings.Join(artifacts, ", "))
		}
		artifacts = []string{*only}
	}

	for _, a := range artifacts {
		started := time.Now()
		if err := runArtifact(a, *seed, *quick, *csvDir); err != nil {
			return fmt.Errorf("%s: %w", a, err)
		}
		fmt.Printf("-- %s done in %v --\n\n", a, time.Since(started).Round(time.Millisecond))
	}
	return nil
}

// writeCSV persists a figure's series when a CSV directory is configured.
func writeCSV(dir, file string, write func(io.Writer) error) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("csv dir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func runArtifact(name string, seed int64, quick bool, csvDir string) error {
	switch name {
	case "table1":
		rows, err := experiments.Table1(seed)
		if err != nil {
			return err
		}
		return experiments.WriteTable1(os.Stdout, rows)

	case "table2":
		return experiments.WriteTable2(os.Stdout, experiments.Table2(4))

	case "fig7":
		f, err := fixture("haggle", seed, quick)
		if err != nil {
			return err
		}
		points, err := experiments.TTLSweep(f, ttls(quick))
		if err != nil {
			return err
		}
		if err := writeCSV(csvDir, "fig7.csv", func(w io.Writer) error {
			return experiments.WriteTTLSweepCSV(w, points)
		}); err != nil {
			return err
		}
		return experiments.WriteTTLSweep(os.Stdout,
			fmt.Sprintf("Fig. 7: PUSH vs B-SUB vs PULL on %s", f.Name), points)

	case "fig8":
		f, err := fixture("mit", seed, quick)
		if err != nil {
			return err
		}
		points, err := experiments.TTLSweep(f, ttls(quick))
		if err != nil {
			return err
		}
		if err := writeCSV(csvDir, "fig8.csv", func(w io.Writer) error {
			return experiments.WriteTTLSweepCSV(w, points)
		}); err != nil {
			return err
		}
		return experiments.WriteTTLSweep(os.Stdout,
			fmt.Sprintf("Fig. 8: PUSH vs B-SUB vs PULL on %s", f.Name), points)

	case "fig9":
		for _, which := range []string{"haggle", "mit"} {
			f, err := fixture(which, seed, quick)
			if err != nil {
				return err
			}
			ttl := experiments.Fig9TTL
			if quick {
				ttl = 4 * time.Hour
			}
			points, err := experiments.DFSweep(f, dfs(quick), ttl)
			if err != nil {
				return err
			}
			if err := writeCSV(csvDir, "fig9-"+which+".csv", func(w io.Writer) error {
				return experiments.WriteDFSweepCSV(w, points)
			}); err != nil {
				return err
			}
			if err := experiments.WriteDFSweep(os.Stdout,
				fmt.Sprintf("Fig. 9: B-SUB vs decaying factor on %s", f.Name), points); err != nil {
				return err
			}
		}
		return nil

	case "memory":
		m, err := experiments.MemoryComparison()
		if err != nil {
			return err
		}
		return experiments.WriteMemory(os.Stdout, m)

	case "analysis":
		n := workload.NewTrendKeySet().Len()
		fmt.Printf("A1: Eq. 1-3 at the evaluation geometry (m=256, k=4)\n")
		fmt.Printf("keys=%d  FPR=%.4f (paper: 0.04)  fill ratio=%.3f  expected set bits=%.1f\n",
			n, analysis.FPR(256, 4, n), analysis.FillRatio(256, 4, n), analysis.ExpectedSetBits(256, 4, n))
		fmt.Printf("wasted-delivery estimates at FPR=0.04: completely wasted %.4f, partially useful %.4f\n",
			analysis.CompletelyWastedRatio(0.04), analysis.PartiallyUsefulRatio(0.04))
		return nil

	case "allocation":
		points, err := experiments.AllocationSweep([]int{235, 250, 265, 275, 285, 300, 500})
		if err != nil {
			return err
		}
		return experiments.WriteAllocation(os.Stdout, points)

	case "ablation":
		f, err := fixture("mit", seed, quick)
		if err != nil {
			return err
		}
		ttl := 8 * time.Hour
		if quick {
			ttl = 4 * time.Hour
		}
		runs := []struct {
			title string
			fn    func() ([]experiments.AblationResult, error)
		}{
			{"ablation: broker merge operation (Fig. 6 argument)", func() ([]experiments.AblationResult, error) {
				return experiments.AblateMerge(f, ttl)
			}},
			{"ablation: decaying factor (Section VI-A)", func() ([]experiments.AblationResult, error) {
				return experiments.AblateDecay(f, ttl)
			}},
			{"ablation: producer copy limit C", func() ([]experiments.AblationResult, error) {
				return experiments.AblateCopyLimit(f, ttl, []int{1, 3, 8})
			}},
			{"ablation: broker election thresholds (T_l, T_u)", func() ([]experiments.AblationResult, error) {
				return experiments.AblateBrokerThresholds(f, ttl, [][2]int{{1, 2}, {3, 5}, {8, 12}})
			}},
			{"ablation: TCBF geometry (m, k)", func() ([]experiments.AblationResult, error) {
				return experiments.AblateGeometry(f, ttl, [][2]int{{64, 4}, {256, 2}, {256, 4}, {1024, 4}})
			}},
			{"ablation: DF policy (fixed vs online Eq. 5 vs FPR feedback)", func() ([]experiments.AblationResult, error) {
				return experiments.AblateDFPolicy(f, ttl, 0.04)
			}},
			{"ablation: relay-filter partitions (Section VI-D)", func() ([]experiments.AblationResult, error) {
				return experiments.AblateRelayPartitions(f, ttl, []int{1, 2, 4})
			}},
		}
		for i, r := range runs {
			results, err := r.fn()
			if err != nil {
				return err
			}
			if err := writeCSV(csvDir, fmt.Sprintf("ablation-%d.csv", i+1), func(w io.Writer) error {
				return experiments.WriteAblationCSV(w, results)
			}); err != nil {
				return err
			}
			if err := experiments.WriteAblation(os.Stdout, r.title, results); err != nil {
				return err
			}
			fmt.Println()
		}
		return backendAblation(seed, quick, csvDir)

	case "scale":
		sizes := experiments.DefaultScaleSizes
		if quick {
			sizes = experiments.QuickScaleSizes
		}
		points, err := experiments.ScaleSweep(sizes, runtime.GOMAXPROCS(0), seed)
		if err != nil {
			return err
		}
		if err := writeCSV(csvDir, "scale.csv", func(w io.Writer) error {
			return experiments.WriteScaleCSV(w, points)
		}); err != nil {
			return err
		}
		return experiments.WriteScale(os.Stdout,
			"Scale sweep: B-SUB over streamed traces (ROADMAP item 1)", points)
	}
	return fmt.Errorf("unknown artifact %q", name)
}

// backendAblation runs the filter-backend matrix (ISSUE 9): every
// backend over the fig7 and fig9 traces at a fixed TTL, then over the
// streamed 10k-node population, emitting the grid as CSV.
func backendAblation(seed int64, quick bool, csvDir string) error {
	ttl := 8 * time.Hour
	if quick {
		ttl = 4 * time.Hour
	}
	var rows []experiments.BackendTraceRow
	for _, which := range []string{"haggle", "mit"} {
		f, err := fixture(which, seed, quick)
		if err != nil {
			return err
		}
		results, err := experiments.AblateFilterBackends(f, ttl)
		if err != nil {
			return err
		}
		rows = append(rows, experiments.BackendTraceRows(which, ttl, results)...)
		if err := experiments.WriteAblation(os.Stdout,
			fmt.Sprintf("ablation: filter backend on %s (ISSUE 9)", f.Name), results); err != nil {
			return err
		}
		fmt.Println()
	}
	if err := writeCSV(csvDir, "ablation-backends.csv", func(w io.Writer) error {
		return experiments.WriteBackendAblationCSV(w, rows)
	}); err != nil {
		return err
	}

	nodes := 10_000
	if quick {
		nodes = 1_000
	}
	points, err := experiments.BackendScaleSweep(nodes, runtime.GOMAXPROCS(0), seed)
	if err != nil {
		return err
	}
	if err := experiments.WriteBackendScale(os.Stdout,
		fmt.Sprintf("ablation: filter backend at %d streamed nodes", nodes), points); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

func fixture(which string, seed int64, quick bool) (*experiments.Fixture, error) {
	if quick {
		return experiments.NewSmallFixture(seed)
	}
	if which == "mit" {
		return experiments.NewMITFixture(seed)
	}
	return experiments.NewHaggleFixture(seed)
}

func ttls(quick bool) []time.Duration {
	if quick {
		return []time.Duration{30 * time.Minute, 2 * time.Hour, 8 * time.Hour}
	}
	return experiments.DefaultTTLs()
}

func dfs(quick bool) []float64 {
	if quick {
		return []float64{0, 0.5, 2}
	}
	return experiments.DefaultDFs()
}
