package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bsub/internal/core"
	"bsub/internal/experiments"
	"bsub/internal/sim"
	"bsub/internal/trace"
	"bsub/internal/tracegen"
)

// TestRunMatchesSimRun drives both trace modes through run and checks that
// the printed result line is the report sim.Run gives for the same
// configuration, and that each mode prints its own lines; the -nodes mode
// ends with an engine: line carrying throughput and a positive peak RSS.
func TestRunMatchesSimRun(t *testing.T) {
	const ttl = time.Hour
	base := sim.Config{TTL: ttl, BandwidthBps: sim.DefaultBandwidthBps, Seed: 1}

	tr, err := loadTrace("small", "", 1)
	if err != nil {
		t.Fatal(err)
	}
	fixture, err := experiments.NewFixture(tr.Name, tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	presetCfg := base
	presetCfg.Trace, presetCfg.Interests, presetCfg.Messages = fixture.Trace, fixture.Interests, fixture.Messages
	presetReport, err := sim.Run(presetCfg, core.New(fixture.BSubConfig(ttl)))
	if err != nil {
		t.Fatal(err)
	}

	ts, interests, msgs, err := experiments.ScaleStreams(200, 1)
	if err != nil {
		t.Fatal(err)
	}
	scaleCfg := base
	scaleCfg.Source, scaleCfg.MsgSource, scaleCfg.Interests = ts, msgs, interests
	scaleReport, err := sim.Run(scaleCfg, core.New(core.DefaultConfig(0.1)))
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name       string
		args       []string
		want       string
		note, last string
	}{
		{"preset", []string{"-preset", "small", "-ttl", "1h"}, presetReport.String(), "derived DF", "traffic:"},
		{"nodes", []string{"-nodes", "200", "-ttl", "1h"}, scaleReport.String(), "streamed trace: using default DF", "engine:"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if err := run(c.args, &stdout, &stderr); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
			var result string
			for _, l := range lines {
				if r, ok := strings.CutPrefix(l, "result:    "); ok {
					result = r
				}
			}
			if result != c.want {
				t.Errorf("result line %q, want sim.Run report %q", result, c.want)
			}
			if !strings.HasPrefix(lines[0], "trace:") || !strings.HasPrefix(lines[len(lines)-1], c.last) {
				t.Errorf("stdout lines %q: want trace: first and %s last", lines, c.last)
			}
			if !strings.HasPrefix(stderr.String(), c.note) {
				t.Errorf("stderr %q, want the %q note", stderr.String(), c.note)
			}
			if c.last == "engine:" {
				var workers, rss, perNode int64
				var wall string
				var rate float64
				if _, err := fmt.Sscanf(lines[len(lines)-1], "engine: %d workers, %s wall, %f contacts/s, peak RSS %d B (%d B/node)",
					&workers, &wall, &rate, &rss, &perNode); err != nil {
					t.Fatalf("engine line %q: %v", lines[len(lines)-1], err)
				}
				if rate <= 0 || rss <= 0 || perNode <= 0 {
					t.Errorf("engine line %q: want positive contacts/s, peak RSS and B/node", lines[len(lines)-1])
				}
			}
		})
	}
}

// TestNodesDeterministicAcrossWorkers is the quick-mode determinism gate
// of population runs (make determinism): the protocol-visible outcome of
// a -nodes run must not depend on the worker count. Wall time and RSS of
// course do, so every line but engine: is compared: the trace line's
// contact count, the workload's message count, and the result: and
// traffic: lines.
func TestNodesDeterministicAcrossWorkers(t *testing.T) {
	outcome := func(workers string) string {
		t.Helper()
		var stdout bytes.Buffer
		if err := run([]string{"-nodes", "800", "-ttl", "6h", "-seed", "5", "-workers", workers}, &stdout, io.Discard); err != nil {
			t.Fatal(err)
		}
		out, _, ok := strings.Cut(stdout.String(), "engine:")
		if !ok || !strings.Contains(out, "\nresult:") || !strings.Contains(out, "\ntraffic:") {
			t.Fatalf("-workers %s printed %q: want result:, traffic: and engine: lines", workers, stdout.String())
		}
		return out
	}
	if one, eight := outcome("1"), outcome("8"); one != eight {
		t.Errorf("workers=1 and workers=8 diverged:\n1: %s\n8: %s", one, eight)
	}
}

func TestLoadTracePresets(t *testing.T) {
	tr, err := loadTrace("small", "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Nodes != 20 {
		t.Errorf("small preset nodes = %d", tr.Nodes)
	}
}

func TestLoadTraceFromFile(t *testing.T) {
	gen, err := tracegen.Generate(tracegen.Small(1))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, gen); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := loadTrace("", path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Nodes != gen.Nodes || len(got.Contacts) != len(gen.Contacts) {
		t.Errorf("loaded %d/%d, want %d/%d",
			got.Nodes, len(got.Contacts), gen.Nodes, len(gen.Contacts))
	}
}

func TestLoadTraceErrors(t *testing.T) {
	if _, err := loadTrace("", "", 1); err == nil {
		t.Error("no source accepted")
	}
	if _, err := loadTrace("small", "also-a-file", 1); err == nil {
		t.Error("both sources accepted")
	}
	if _, err := loadTrace("bogus", "", 1); err == nil {
		t.Error("unknown preset accepted")
	}
	if _, err := loadTrace("", "/nonexistent/file", 1); err == nil {
		t.Error("missing file accepted")
	}
}
