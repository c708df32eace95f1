package experiments

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"
)

func TestScaleSweepQuick(t *testing.T) {
	points, err := ScaleSweep([]int{500, 1500}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points, want 2", len(points))
	}
	for _, p := range points {
		if p.Contacts == 0 || p.Messages == 0 {
			t.Fatalf("scale %d ran empty: %+v", p.Nodes, p)
		}
		if p.Delivery <= 0 || p.Delivery > 1 {
			t.Errorf("scale %d delivery %.3f out of (0,1]", p.Nodes, p.Delivery)
		}
		if p.PeakRSS <= 0 || p.RSSPerNode <= 0 {
			t.Errorf("scale %d missing RSS figures: %+v", p.Nodes, p)
		}
		if p.ContactsPerSec <= 0 {
			t.Errorf("scale %d missing throughput: %+v", p.Nodes, p)
		}
	}

	var csvBuf bytes.Buffer
	if err := WriteScaleCSV(&csvBuf, points); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(csvBuf.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // header + 2 points
		t.Errorf("CSV has %d rows, want 3", len(rows))
	}

	var txt bytes.Buffer
	if err := WriteScale(&txt, "scale", points); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "1500") {
		t.Error("text writer dropped a row")
	}
}

// TestScaleRunDeterministicAcrossWorkers is the quick-mode determinism
// gate (make determinism): the protocol-visible outcome of a scale run
// must not depend on the worker count. Wall time and RSS of course do.
func TestScaleRunDeterministicAcrossWorkers(t *testing.T) {
	one, err := ScaleRun(800, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := ScaleRun(800, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if one.Contacts != eight.Contacts || one.Messages != eight.Messages ||
		one.Delivery != eight.Delivery || one.FwdPerD != eight.FwdPerD ||
		one.FPR != eight.FPR || one.ControlBytes != eight.ControlBytes {
		t.Errorf("workers=1 and workers=8 diverged:\n1: %+v\n8: %+v", one, eight)
	}
}

// BenchmarkScaleSim measures end-to-end simulator throughput (protocol
// work included) at 10k and 100k nodes. The interesting
// number is the contacts/s metric, not ns/op; run with -benchtime 1x.
func BenchmarkScaleSim(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(sizeLabel(n), func(b *testing.B) {
			var last ScalePoint
			for i := 0; i < b.N; i++ {
				p, err := ScaleRun(n, 0, 1)
				if err != nil {
					b.Fatal(err)
				}
				last = p
			}
			b.ReportMetric(last.ContactsPerSec, "contacts/s")
			b.ReportMetric(last.RSSPerNode, "RSSbytes/node")
		})
	}
}

func sizeLabel(n int) string {
	if n%1000 == 0 {
		return strconv.Itoa(n/1000) + "k"
	}
	return strconv.Itoa(n)
}
