package main

import (
	"bytes"
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
// configuration, and that each mode prints its own lines.
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
		})
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
