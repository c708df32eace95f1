package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestRunArtifactQuick(t *testing.T) {
	// Smoke-build every cheap artifact at quick scale; the numbers are
	// asserted in internal/experiments and by the goldens.
	want := map[string][]string{
		"table2":     {"table2"},
		"fig7":       {"fig7"},
		"fig9":       {"fig9-haggle", "fig9-mit"},
		"memory":     {"memory"},
		"analysis":   {"analysis"},
		"allocation": {"allocation"},
	}
	for artifact, names := range want {
		t.Run(artifact, func(t *testing.T) {
			tables, err := build(artifact, 1, true)
			if err != nil {
				t.Fatalf("%s: %v", artifact, err)
			}
			if len(tables) != len(names) {
				t.Fatalf("%s built %d tables, want %v", artifact, len(tables), names)
			}
			for i, tb := range tables {
				if tb.Name != names[i] || len(tb.Rows) == 0 {
					t.Errorf("table %d = %q with %d rows, want %q with rows", i, tb.Name, len(tb.Rows), names[i])
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Header) {
						t.Errorf("%s: row %v does not match header %v", tb.Name, row, tb.Header)
					}
				}
			}
		})
	}
}

func TestRunArtifactUnknown(t *testing.T) {
	if _, err := build("bogus", 1, true); err == nil {
		t.Error("unknown artifact accepted")
	}
}

func TestWriteCSVDir(t *testing.T) {
	tables, err := build("table2", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := write(dir, tables[0]); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "table2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(got), "key,weight\nNewMoon,0.132000\n") {
		t.Errorf("table2.csv = %q", got)
	}
}

func TestSweepAxes(t *testing.T) {
	if got := ttls(true); len(got) == 0 || got[0] != 30*time.Minute {
		t.Errorf("quick ttls = %v", got)
	}
	if got := ttls(false); len(got) != 7 {
		t.Errorf("full ttls = %v", got)
	}
	if got := dfs(false); len(got) != 8 || got[0] != 0 {
		t.Errorf("full dfs = %v", got)
	}
}

func TestFixtureSelector(t *testing.T) {
	f, err := fixture("haggle", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if f.Trace.Nodes != 20 {
		t.Errorf("quick fixture nodes = %d, want the small 20", f.Trace.Nodes)
	}
}
