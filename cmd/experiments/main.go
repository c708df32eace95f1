// Command experiments regenerates every table and figure of the B-SUB
// paper's evaluation (Section VII) as CSV: each artifact is one or more
// tables, a header plus one row per x-position, named table1, table2,
// fig7, fig8, fig9-haggle, fig9-mit, memory, analysis, allocation and
// ablation-1 … ablation-7. Tables go to stdout, each followed by a blank
// line, or to <dir>/<name>.csv with -csv; progress goes to stderr.
// Population-scale runs (nodes × workers) are cmd/bsub-sim's -nodes mode.
//
// Usage:
//
//	experiments                 # every artifact (minutes)
//	experiments -run fig7       # one artifact: table1 table2 fig7 fig8 fig9 memory analysis allocation ablation
//	experiments -csv artifacts  # write artifacts/<name>.csv instead of stdout
//	experiments -quick          # small fixture + reduced sweeps (seconds)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"bsub/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		only   = flag.String("run", "", "run a single artifact: table1 | table2 | fig7 | fig8 | fig9 | memory | analysis | allocation | ablation")
		seed   = flag.Int64("seed", 1, "random seed")
		quick  = flag.Bool("quick", false, "use the small fixture and reduced sweeps")
		csvDir = flag.String("csv", "", "write each table to <dir>/<name>.csv instead of stdout")
	)
	flag.Parse()

	artifacts := []string{"table1", "table2", "fig7", "fig8", "fig9", "memory", "analysis", "allocation", "ablation"}
	if *only != "" {
		if !slices.Contains(artifacts, *only) {
			return fmt.Errorf("unknown artifact %q (have %s)", *only, strings.Join(artifacts, ", "))
		}
		artifacts = []string{*only}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fmt.Errorf("csv dir: %w", err)
		}
	}

	for _, a := range artifacts {
		started := time.Now()
		tables, err := build(a, *seed, *quick)
		if err != nil {
			return fmt.Errorf("%s: %w", a, err)
		}
		for _, t := range tables {
			if err := write(*csvDir, t); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "-- %s done in %v --\n", a, time.Since(started).Round(time.Millisecond))
	}
	return nil
}

// write publishes one table: to dir/<name>.csv when dir is set, otherwise
// to stdout followed by a blank line.
func write(dir string, t experiments.Table) error {
	if dir == "" {
		if err := t.WriteCSV(os.Stdout); err != nil {
			return err
		}
		_, err := fmt.Println()
		return err
	}
	f, err := os.Create(filepath.Join(dir, t.Name+".csv"))
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// build runs one artifact's experiments and returns its tables.
func build(name string, seed int64, quick bool) ([]experiments.Table, error) {
	switch name {
	case "table1":
		rows, err := experiments.Table1(seed)
		if err != nil {
			return nil, err
		}
		return []experiments.Table{experiments.TraceTable(rows)}, nil

	case "table2":
		return []experiments.Table{experiments.KeyTable(experiments.Table2(4))}, nil

	case "fig7", "fig8":
		which := "haggle"
		if name == "fig8" {
			which = "mit"
		}
		f, err := fixture(which, seed, quick)
		if err != nil {
			return nil, err
		}
		points, err := experiments.TTLSweep(f, ttls(quick))
		if err != nil {
			return nil, err
		}
		return []experiments.Table{experiments.TTLTable(name, points)}, nil

	case "fig9":
		ttl := experiments.Fig9TTL
		if quick {
			ttl = 4 * time.Hour
		}
		var tables []experiments.Table
		for _, which := range []string{"haggle", "mit"} {
			f, err := fixture(which, seed, quick)
			if err != nil {
				return nil, err
			}
			points, err := experiments.DFSweep(f, dfs(quick), ttl)
			if err != nil {
				return nil, err
			}
			tables = append(tables, experiments.DFTable("fig9-"+which, points))
		}
		return tables, nil

	case "memory":
		m, err := experiments.MemoryComparison()
		if err != nil {
			return nil, err
		}
		return []experiments.Table{experiments.MemoryTable(m)}, nil

	case "analysis":
		return []experiments.Table{experiments.AnalysisTable()}, nil

	case "allocation":
		points, err := experiments.AllocationSweep([]int{235, 250, 265, 275, 285, 300, 500})
		if err != nil {
			return nil, err
		}
		return []experiments.Table{experiments.AllocationTable(points)}, nil

	case "ablation":
		f, err := fixture("mit", seed, quick)
		if err != nil {
			return nil, err
		}
		ttl := 8 * time.Hour
		if quick {
			ttl = 4 * time.Hour
		}
		// ablation-1 … ablation-7: merge, decay, copy limit, election
		// thresholds, geometry, DF policy, relay partitions.
		runs := []func() ([]experiments.AblationResult, error){
			func() ([]experiments.AblationResult, error) { return experiments.AblateMerge(f, ttl) },
			func() ([]experiments.AblationResult, error) { return experiments.AblateDecay(f, ttl) },
			func() ([]experiments.AblationResult, error) {
				return experiments.AblateCopyLimit(f, ttl, []int{1, 3, 8})
			},
			func() ([]experiments.AblationResult, error) {
				return experiments.AblateBrokerThresholds(f, ttl, [][2]int{{1, 2}, {3, 5}, {8, 12}})
			},
			func() ([]experiments.AblationResult, error) {
				return experiments.AblateGeometry(f, ttl, [][2]int{{64, 4}, {256, 2}, {256, 4}, {1024, 4}})
			},
			func() ([]experiments.AblationResult, error) { return experiments.AblateDFPolicy(f, ttl, 0.04) },
			func() ([]experiments.AblationResult, error) {
				return experiments.AblateRelayPartitions(f, ttl, []int{1, 2, 4})
			},
		}
		tables := make([]experiments.Table, 0, len(runs))
		for i, run := range runs {
			results, err := run()
			if err != nil {
				return nil, err
			}
			tables = append(tables, experiments.AblationTable(fmt.Sprintf("ablation-%d", i+1), results))
		}
		return tables, nil
	}
	return nil, fmt.Errorf("unknown artifact %q", name)
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
