package main

import (
	"os"
	"testing"
	"time"
)

func TestRunArtifactQuick(t *testing.T) {
	// Smoke-run every artifact at quick scale; output goes to the test's
	// stdout, correctness of the numbers is asserted in
	// internal/experiments.
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

	for _, artifact := range []string{
		"table2", "fig7", "fig9", "memory", "analysis", "allocation",
	} {
		artifact := artifact
		t.Run(artifact, func(t *testing.T) {
			if err := runArtifact(artifact, 1, true, t.TempDir()); err != nil {
				t.Fatalf("%s: %v", artifact, err)
			}
		})
	}
}

func TestRunArtifactUnknown(t *testing.T) {
	if err := runArtifact("bogus", 1, true, ""); err == nil {
		t.Error("unknown artifact accepted")
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
