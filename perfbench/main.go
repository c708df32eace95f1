// Command perfbench is B-SUB's benchmark. It drives the program only
// through its public entry points — experiments.ScaleStreams and the
// paper fixtures with sim.Run and core.New for the simulator, mesh.Start,
// Mesh.Publish and Mesh.Stats with the livenode hooks for the live path —
// and measures what a user of each would see.
//
// Usage:
//
//	perfbench --workload <sim-population|sim-paper|mesh-flood> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the workload once untraced and once with span-recording
// decorators and hooks, and reports per-layer metrics plus the tracing
// overhead. The last line of standard output is one JSON object:
//
//	{"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value": v, "unit": u}}}
//
// See NOTES.md for the workloads, the metric definitions, and which layer
// metric should move which end-to-end metric.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"contacts_per_s", "1/s"},
	{"rss_per_node_bytes", "B"},
	{"delivery_ratio", "ratio"},
	{"fwd_per_delivered", "ratio"},
	{"control_bytes_per_contact", "B"},
	{"latency_p50_ms", "ms"},
}

// perLayer lists the metrics a --trace 1 run reports, on every workload;
// a layer the workload leaves idle reports 0.
var perLayer = []metricDef{
	{"tracegen.next_calls", "count"},
	{"tracegen.next_busy_s", "s"},
	{"trace.next_calls", "count"},
	{"trace.next_busy_s", "s"},
	{"workload.next_calls", "count"},
	{"workload.next_busy_s", "s"},
	{"core.on_contact_calls", "count"},
	{"core.on_contact_busy_s", "s"},
	{"core.on_contact_p50_us", "us"},
	{"core.on_contact_p99_us", "us"},
	{"core.on_message_busy_s", "s"},
	{"sim.run_s", "s"},
	{"sim.self_s", "s"},
	{"sim.worker_utilization", "ratio"},
	{"metrics.contacts", "count"},
	{"metrics.created", "count"},
	{"metrics.delivered", "count"},
	{"metrics.forwardings", "count"},
	{"metrics.replications", "count"},
	{"metrics.false_injections", "count"},
	{"metrics.control_bytes", "B"},
	{"metrics.data_bytes", "B"},
	{"metrics.late_drops", "count"},
	{"metrics.delay_p90_ms", "ms"},
	{"filter.relay_fill_mean", "ratio"},
	{"filter.estimated_fpr_mean", "ratio"},
	{"filter.observed_fpr", "ratio"},
	{"engine.brokers", "count"},
	{"engine.carried_total", "count"},
	{"runtime.alloc_bytes_per_contact", "B"},
	{"runtime.allocs_per_contact", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"mesh.publish_p50_us", "us"},
	{"mesh.publish_p99_us", "us"},
	{"mesh.latency_p90_ms", "ms"},
	{"mesh.latency_p99_ms", "ms"},
	{"mesh.flood_tokens", "count"},
	{"mesh.flood_direct", "count"},
	{"mesh.queue_coalesced", "count"},
	{"mesh.contacts", "count"},
	{"mesh.contact_failures", "count"},
	{"mesh.reconnects", "count"},
	{"mesh.brokers", "count"},
	{"mesh.duplicates", "count"},
	{"mesh.sessions_per_delivery", "ratio"},
	{"mesh.wire_bytes_per_delivery", "B"},
	{"livenode.session_p50_ms", "ms"},
	{"livenode.session_p90_ms", "ms"},
	{"livenode.session_busy_s", "s"},
	{"livenode.completed_ratio", "ratio"},
	{"livenode.peer_busy", "count"},
	{"livenode.refused_busy", "count"},
	{"livenode.meet_retries", "count"},
	{"livenode.msgs_refunded", "count"},
	{"livenode.bytes_per_session", "B"},
	{"livenode.frames_per_session", "count"},
	{"livenode.max_active", "count"},
	{"bench.generator_late_ms", "ms"},
	{"bench.tracing_overhead", "ratio"},
}

var workloads = []string{"sim-population", "sim-paper", "mesh-flood"}

// result accumulates one run's metrics and output-check outcome.
type result struct {
	values    map[string]float64
	attempted int
	failed    int
	problems  []string
	notes     []string
}

func (r *result) set(name string, v float64) {
	if r.values == nil {
		r.values = map[string]float64{}
	}
	r.values[name] = v
}

// fail records output-check violations, each one a failed operation.
func (r *result) fail(problems ...string) {
	r.failed += len(problems)
	r.problems = append(r.problems, problems...)
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// render prints every metric of defs by name with its unit, then the JSON
// result line. A metric the run did not set is a layer the workload left
// idle and reads 0; a non-finite value is an error.
func render(w *bufio.Writer, r result, defs []metricDef) error {
	out := jsonResult{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "! %s\n", p)
	}
	for _, d := range defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-34s %16.6g %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return w.Flush()
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "workload seed; the program receives only inputs generated from it")
	seconds := fs.Float64("seconds", 10, "how long one run measures")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer measurement")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}

	isSim := *name == "sim-population" || *name == "sim-paper"
	if !isSim && *name != "mesh-flood" {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloads, ", "))
	}
	var res result
	var err error
	switch {
	case *traceFlag == 0 && isSim:
		res, err = runSim(*name, *seed, *seconds)
	case *traceFlag == 0:
		res, err = runMesh(*seed, *seconds)
	default:
		var spans *spanFile
		if spans, err = createSpanFile(spanDir, *name); err != nil {
			return err
		}
		if isSim {
			res, err = traceSim(*name, *seed, spans.write)
		} else {
			res, err = traceMesh(*seed, *seconds, spans.write)
		}
		if cerr := spans.close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	defs := endToEnd
	if *traceFlag == 1 {
		defs = perLayer
	}
	return render(bufio.NewWriter(os.Stdout), res, defs)
}

// spanDir is where a traced run writes its spans, relative to the
// directory the benchmark runs from: run.sh's build directory.
var spanDir = filepath.Join(".bench_build", "spans")

// spanFile receives a traced run's spans, batch by batch, outside the
// timed sections.
type spanFile struct {
	f    *os.File
	base int32
}

func createSpanFile(dir, stem string) (*spanFile, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, stem+".tsv"))
	if err != nil {
		return nil, err
	}
	if _, err := fmt.Fprintln(f, "id\tname\tstart_ns\tend_ns\tparent\treq"); err != nil {
		f.Close()
		return nil, err
	}
	return &spanFile{f: f}, nil
}

// write appends one batch; parent indices are batch-relative and are
// rebased onto the file's running span ids.
func (s *spanFile) write(spans []span) error {
	if err := writeSpans(s.f, spans, s.base); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	s.base += int32(len(spans))
	return nil
}

func (s *spanFile) close() error { return s.f.Close() }

// settledRSS collects garbage, returns the freed memory to the OS, and
// reads the process's resident set (VmRSS): the memory the live state
// holds. Unlike the high-water mark, it does not depend on how far the
// heap overshot before a collection happened to finish.
func settledRSS() (int64, error) {
	debug.FreeOSMemory()
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("resident set: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				if kb, err := strconv.ParseInt(f[0], 10, 64); err == nil {
					return kb * 1024, nil
				}
			}
		}
	}
	return 0, fmt.Errorf("resident set: no VmRSS line in /proc/self/status")
}

// cpuTime returns the process's user plus system CPU time, all threads.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// threadUserTime returns the calling OS thread's user CPU time.
func threadUserTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_THREAD, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano()), nil
}
