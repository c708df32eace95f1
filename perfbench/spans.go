package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// A span is one timed call into a layer, recorded from outside it: the
// benchmark's decorators and hooks stamp a start and an end around each
// call. Spans of one request share Req (a replay number in the simulator,
// a published message's sequence number in the mesh); Parent is the span
// that caused this one, or -1.
type span struct {
	Name   string
	Start  time.Duration // since the recorder's base instant
	End    time.Duration
	Parent int32
	Req    int64
}

func (s span) dur() time.Duration { return s.End - s.Start }

// lane is an append-only span buffer owned by one goroutine: the serial
// event pump, or one simulator worker (indexed by sim.Env.Worker), so
// the traced hot path takes no lock. The padding keeps neighbouring
// lanes' slice headers off one cache line.
type lane struct {
	spans []span
	_     [40]byte
}

// clock measures span instants against one monotonic base.
type clock struct{ base time.Time }

func newClock() clock { return clock{base: time.Now()} }

func (c clock) now() time.Duration { return time.Since(c.base) }

// layerTotals sums the spans named name: how many calls, and how long
// they ran in total.
func layerTotals(spans []span, name string) (calls int, busy time.Duration) {
	for _, s := range spans {
		if s.Name == name {
			calls++
			busy += s.dur()
		}
	}
	return calls, busy
}

// durations returns the lengths of the spans named name.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// covered returns how much of [from, to] the spans cover: the length of
// the union of their intervals clipped to the window, so overlapping
// spans of parallel workers count once.
func covered(spans []span, from, to time.Duration) time.Duration {
	iv := make([][2]time.Duration, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, from), min(s.End, to)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTime is a parent span's duration minus the part of it that its
// child spans cover.
func selfTime(parent span, children []span) time.Duration {
	return parent.dur() - covered(children, parent.Start, parent.End)
}

// percentile returns the p-quantile (p in [0,1]) of xs by the
// nearest-rank rule: the smallest sample with at least p of the samples
// at or below it. xs is sorted in place; an empty input gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// durPercentile is percentile over durations, in the given unit.
func durPercentile(ds []time.Duration, p float64, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return percentile(xs, p)
}

// writeSpans writes spans as tab-separated lines — id, name, start and
// end in nanoseconds, parent id, request id — numbering them from base.
// Parents index within spans and are shifted by base too.
func writeSpans(w io.Writer, spans []span, base int32) error {
	bw := bufio.NewWriter(w)
	for i, s := range spans {
		parent := s.Parent
		if parent >= 0 {
			parent += base
		}
		if _, err := fmt.Fprintf(bw, "%d\t%s\t%d\t%d\t%d\t%d\n", base+int32(i), s.Name, int64(s.Start), int64(s.End), parent, s.Req); err != nil {
			return err
		}
	}
	return bw.Flush()
}
