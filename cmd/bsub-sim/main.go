// Command bsub-sim runs one simulation of a protocol over a contact trace
// and prints the Section VII metrics.
//
// Usage:
//
//	bsub-sim -protocol bsub -ttl 2h -df 0.138 trace.txt
//	bsub-sim -protocol push -preset haggle -ttl 10h
//	bsub-sim -nodes 100000 -workers 8 -epoch 10m -ttl 6h
//
// The trace comes either from a file argument (the repository's text
// format, see cmd/tracegen), from a -preset, or — for population-scale
// runs — from -nodes, which streams a synthetic community trace and
// workload without ever materializing them (DESIGN.md §11). The workload
// follows the paper: one weighted Twitter-Trend interest per node,
// message rates proportional to centrality, sizes up to 140 bytes.
// -workers shards contact execution across goroutines and -epoch sets the
// barrier width; results are byte-identical for any setting of either.
// With -nodes, a last engine: line reports the instrument: workers, wall
// time, contacts/s, and the process's peak RSS, in total and per node.
// Running it over a grid of -nodes and -workers measures the simulator's
// scaling:
//
//	for n in 10000 100000; do for w in 1 2; do
//		bsub-sim -nodes $n -workers $w -ttl 6h -seed 201 | grep engine:
//	done; done
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"bsub/internal/core"
	"bsub/internal/experiments"
	"bsub/internal/metrics"
	"bsub/internal/protocol"
	"bsub/internal/sim"
	"bsub/internal/trace"
	"bsub/internal/tracegen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bsub-sim:", err)
		os.Exit(1)
	}
}

// run parses args, simulates one protocol over a trace file, a -preset or
// a streamed -nodes population, and prints the report to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		protoName = fs.String("protocol", "bsub", "protocol: bsub | push | pull")
		preset    = fs.String("preset", "", "trace preset: haggle | mit3day | small (alternative to a trace file)")
		ttl       = fs.Duration("ttl", 2*time.Hour, "message TTL (= maximum tolerable delay)")
		df        = fs.Float64("df", -1, "B-SUB decaying factor per minute (-1 = derive from TTL via Eq. 5)")
		bandwidth = fs.Int("bandwidth", sim.DefaultBandwidthBps, "effective link rate in bits/s")
		seed      = fs.Int64("seed", 1, "random seed for workload and protocol")
		nodes     = fs.Int("nodes", 0, "stream a synthetic scale trace with this many nodes (alternative to a trace file or -preset)")
		workers   = fs.Int("workers", 0, "execution goroutines; 0 = 1; output is identical for any value")
		epoch     = fs.Duration("epoch", 0, "sharding epoch width; 0 = default; output is identical for any value")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *nodes < 0 || *nodes == 1:
		return fmt.Errorf("-nodes must be at least 2, got %d", *nodes)
	case *nodes > 0 && (*preset != "" || fs.Arg(0) != ""):
		return errors.New("-nodes streams its own trace; drop the -preset/file argument")
	case *workers < 0 || *workers > sim.MaxWorkers:
		return fmt.Errorf("-workers must be in [0,%d], got %d", sim.MaxWorkers, *workers)
	case *epoch < 0:
		return fmt.Errorf("-epoch must be non-negative, got %v", *epoch)
	}

	cfg := sim.Config{
		TTL:          *ttl,
		BandwidthBps: *bandwidth,
		Seed:         *seed,
		Workers:      *workers,
		Epoch:        *epoch,
	}
	// bsubDefault is B-SUB's configuration when -df is not given; describe
	// renders the trace and workload lines once the report is in.
	var (
		bsubDefault func() core.Config
		describe    func(metrics.Report) (traceLine, workloadLine string)
	)
	if *nodes > 0 {
		// The contact and message streams are generated on the fly, so
		// memory stays proportional to the population, not the event count.
		ts, interests, msgs, err := experiments.ScaleStreams(*nodes, *seed)
		if err != nil {
			return err
		}
		cfg.Source, cfg.MsgSource, cfg.Interests = ts, msgs, interests
		bsubDefault = func() core.Config {
			// Eq. 5 derivation needs a materialized trace; use the tuned default.
			const df = 0.1
			fmt.Fprintf(stderr, "streamed trace: using default DF = %.4f/min (pass -df to override)\n", df)
			return core.DefaultConfig(df)
		}
		describe = func(r metrics.Report) (string, string) {
			return fmt.Sprintf("scale-%d (streamed, %d nodes, %d linked pairs, %d contacts)", *nodes, *nodes, ts.Links(), r.Contacts),
				fmt.Sprintf("%d messages (streamed), TTL %v", r.Created, *ttl)
		}
	} else {
		tr, err := loadTrace(*preset, fs.Arg(0), *seed)
		if err != nil {
			return err
		}
		fixture, err := experiments.NewFixture(tr.Name, tr, *seed)
		if err != nil {
			return err
		}
		cfg.Trace, cfg.Interests, cfg.Messages = fixture.Trace, fixture.Interests, fixture.Messages
		bsubDefault = func() core.Config {
			c := fixture.BSubConfig(*ttl)
			fmt.Fprintf(stderr, "derived DF = %.4f/min for TTL %v (Eq. 5)\n", c.DecayPerMinute, *ttl)
			return c
		}
		describe = func(metrics.Report) (string, string) {
			s := tr.Stats()
			return fmt.Sprintf("%s (%d nodes, %d contacts, span %v)", s.Name, s.Nodes, s.Contacts, s.Span.Round(time.Minute)),
				fmt.Sprintf("%d messages, TTL %v", len(fixture.Messages), *ttl)
		}
	}

	var proto sim.Protocol
	switch *protoName {
	case "push":
		proto = protocol.NewPush()
	case "pull":
		proto = protocol.NewPull()
	case "bsub":
		if *df >= 0 {
			proto = core.New(core.DefaultConfig(*df))
		} else {
			proto = core.New(bsubDefault())
		}
	default:
		return fmt.Errorf("unknown protocol %q", *protoName)
	}

	started := time.Now()
	report, err := sim.Run(cfg, proto)
	if err != nil {
		return err
	}
	wall := time.Since(started)
	traceLine, workloadLine := describe(report)
	fmt.Fprintf(stdout, "trace:     %s\n", traceLine)
	fmt.Fprintf(stdout, "workload:  %s\n", workloadLine)
	fmt.Fprintf(stdout, "result:    %s\n", report)
	fmt.Fprintf(stdout, "traffic:   control %d B, data %d B\n", report.ControlBytes, report.DataBytes)
	if *nodes > 0 {
		rss := peakRSS()
		fmt.Fprintf(stdout, "engine:    %d workers, %v wall, %.0f contacts/s, peak RSS %d B (%.0f B/node)\n",
			max(*workers, 1), wall.Round(time.Millisecond), float64(report.Contacts)/wall.Seconds(),
			rss, float64(rss)/float64(*nodes))
	}
	return nil
}

// peakRSS returns the process's resident-set high-water mark in bytes:
// VmHWM from /proc/self/status on Linux, the Go heap's OS footprint
// elsewhere (an undercount, but monotone and dependency-free). The mark
// covers the whole process, so in one process it is the largest run's.
func peakRSS() int64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if fields := strings.Fields(v); len(fields) > 0 {
					if kb, err := strconv.ParseInt(fields[0], 10, 64); err == nil {
						return kb * 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}

func loadTrace(preset, path string, seed int64) (*trace.Trace, error) {
	switch {
	case preset != "" && path != "":
		return nil, errors.New("give either -preset or a trace file, not both")
	case preset == "" && path == "":
		return nil, errors.New("need a trace: pass a file or -preset haggle|mit3day|small")
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.Read(f)
	case preset == "haggle":
		return tracegen.Generate(tracegen.HaggleInfocom06(seed))
	case preset == "mit3day":
		return tracegen.Generate(tracegen.MITReality3Day(seed))
	case preset == "small":
		return tracegen.Generate(tracegen.Small(seed))
	default:
		return nil, fmt.Errorf("unknown preset %q", preset)
	}
}
