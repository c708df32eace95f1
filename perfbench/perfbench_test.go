package main

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"bsub/internal/experiments"
	"bsub/internal/sim"
)

// The decorators must not perturb the program: wrapping the Small
// fixture's source and protocol yields the same report as the unwrapped
// sim.Run, at one worker and at every CPU.
func TestDecoratorsKeepReport(t *testing.T) {
	const seed = 7
	ttl := 100 * time.Minute
	for _, workers := range []int{1, runtime.NumCPU()} {
		f, err := experiments.NewSmallFixture(seed)
		if err != nil {
			t.Fatal(err)
		}
		in := fixtureInputs(f, ttl)
		want, err := sim.Run(sim.Config{
			Trace: f.Trace, Interests: f.Interests, Messages: f.Messages,
			TTL: ttl, Seed: seed, Workers: workers,
		}, in.proto)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			o, err := runInputs(fixtureInputs(f, ttl), ttl, seed, workers, traced)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(o.report, want) {
				t.Errorf("workers %d traced %v: report\n%+v\nwant\n%+v", workers, traced, o.report, want)
			}
			if bad := checkLeg(simLeg{fixture: "small", seed: seed}, o); len(bad) > 0 {
				t.Errorf("workers %d traced %v: %v", workers, traced, bad)
			}
			if !traced {
				continue
			}
			calls, _ := layerTotals(o.spans, spanOnContact)
			if calls != want.Contacts {
				t.Errorf("workers %d: %d on_contact spans for %d contacts", workers, calls, want.Contacts)
			}
			next, _ := layerTotals(o.spans, spanTrace)
			if next != want.Contacts+1 { // the final Next reports exhaustion
				t.Errorf("workers %d: %d trace.next spans for %d contacts", workers, next, want.Contacts)
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.1, 1}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
	if got := median([]float64{3}); got != 3 {
		t.Errorf("median of one = %v", got)
	}
	ds := []time.Duration{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond}
	if got := durPercentile(ds, 0.5, time.Millisecond); got != 2 {
		t.Errorf("durPercentile = %v ms, want 2", got)
	}
}

func at(name string, from, to int) span {
	return span{Name: name, Start: time.Duration(from), End: time.Duration(to)}
}

func TestCoverageAndSelfTime(t *testing.T) {
	parent := at("run", 0, 100)
	for _, c := range []struct {
		name     string
		children []span
		covered  time.Duration
	}{
		{"none", nil, 0},
		{"disjoint", []span{at("a", 10, 20), at("a", 30, 45)}, 25},
		// Parallel workers overlap: the union counts once.
		{"overlap", []span{at("a", 10, 30), at("b", 20, 40), at("b", 35, 50)}, 40},
		{"nested", []span{at("a", 10, 60), at("b", 20, 30)}, 50},
		{"touching", []span{at("a", 10, 20), at("a", 20, 30)}, 20},
		// Children straddling the parent are clipped to it.
		{"clipped", []span{at("a", -10, 10), at("a", 90, 120)}, 20},
		{"outside", []span{at("a", 100, 120), at("a", -5, 0)}, 0},
	} {
		if got := covered(c.children, parent.Start, parent.End); got != c.covered {
			t.Errorf("%s: covered = %v, want %v", c.name, got, c.covered)
		}
		if got := selfTime(parent, c.children); got != 100-c.covered {
			t.Errorf("%s: self = %v, want %v", c.name, got, 100-c.covered)
		}
	}
	spans := []span{at("a", 0, 5), at("b", 5, 7), at("a", 10, 13)}
	if n, busy := layerTotals(spans, "a"); n != 2 || busy != 8 {
		t.Errorf("layerTotals(a) = %d, %v; want 2, 8ns", n, busy)
	}
}

// A 3-daemon mesh passes the exactly-once accounting: every expected
// (message, subscriber) pair delivered once, nothing elsewhere.
func TestMeshSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a live mesh")
	}
	o, err := flood(3, 3, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.problems) != 0 || o.duplicates != 0 {
		t.Fatalf("mesh checks failed: %v", o.problems)
	}
	if o.expected == 0 || o.delivered != o.expected {
		t.Fatalf("delivered %d of %d expected pairs", o.delivered, o.expected)
	}
	if len(o.publish) != 2*meshRate {
		t.Errorf("%d publishes timed, want %d", len(o.publish), 2*meshRate)
	}
}

// The metric lists the command prints agree with BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads %v, BENCHMARK.json has %v", workloads, names)
	}
	for _, c := range []struct {
		defs []metricDef
		spec []struct{ Name, Unit string }
	}{{endToEnd, spec.EndToEnd}, {perLayer, spec.PerLayer}} {
		if len(c.defs) != len(c.spec) {
			t.Errorf("%d metrics, BENCHMARK.json lists %d", len(c.defs), len(c.spec))
			continue
		}
		for i, d := range c.defs {
			if d.name != c.spec[i].Name || d.unit != c.spec[i].Unit {
				t.Errorf("metric %d is %s [%s], BENCHMARK.json has %s [%s]", i, d.name, d.unit, c.spec[i].Name, c.spec[i].Unit)
			}
		}
	}
}
