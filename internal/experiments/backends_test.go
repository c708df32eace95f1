package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestFilterBackendsMatrix(t *testing.T) {
	backends := FilterBackends()
	if len(backends) != 2 {
		t.Fatalf("backend matrix has %d entries, want 2", len(backends))
	}
	if backends[0].Name() != "tcbf" {
		t.Errorf("matrix leads with %q, want the default tcbf backend", backends[0].Name())
	}
	seen := map[string]bool{}
	for _, b := range backends {
		name := b.Name()
		if name == "" {
			t.Error("backend with empty name")
		}
		if seen[name] {
			t.Errorf("duplicate backend name %q", name)
		}
		seen[name] = true
	}
}

// TestBackendAblationGolden regenerates the quick-mode backend ablation
// (small fixture, seed 1, TTL 4h) and byte-compares the CSV against the
// committed golden. The golden pins the seam itself: swapping the relay
// filter behind internal/filter must not perturb the default backend's
// simulation results, and the alternative backends' rows document their
// intended behavioral deltas. Regenerate after an intentional change
// with:
//
//	BSUB_UPDATE_GOLDEN=1 go test ./internal/experiments -run TestBackendAblationGolden
func TestBackendAblationGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-mode simulations take a few seconds")
	}
	f, err := NewSmallFixture(1)
	if err != nil {
		t.Fatal(err)
	}
	results, err := AblateFilterBackends(f, 4*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	rows := BackendTraceRows("small", 4*time.Hour, results)
	if len(rows) != len(FilterBackends()) {
		t.Fatalf("got %d rows, want one per backend (%d)", len(rows), len(FilterBackends()))
	}
	for i, r := range rows {
		if want := FilterBackends()[i].Name(); r.Backend != want {
			t.Errorf("row %d backend %q, want %q", i, r.Backend, want)
		}
		if r.Delivery <= 0 || r.Delivery > 1 {
			t.Errorf("backend %s delivery %.3f out of (0,1]", r.Backend, r.Delivery)
		}
		if r.ControlBytes <= 0 {
			t.Errorf("backend %s recorded no control traffic", r.Backend)
		}
	}

	var buf bytes.Buffer
	if err := WriteBackendAblationCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "ablation-backends-quick.csv")
	if os.Getenv("BSUB_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden %s updated", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden: %v (regenerate with BSUB_UPDATE_GOLDEN=1)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("backend ablation diverged from golden:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestBackendScaleSweepQuick runs the per-backend streamed-population leg
// at smoke scale: every backend consumes the identical trace and workload
// streams, so the stream-side counters must agree exactly while the
// protocol-side outcomes are backend-specific.
func TestBackendScaleSweepQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("streamed simulations take a few seconds")
	}
	points, err := BackendScaleSweep(600, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(FilterBackends()) {
		t.Fatalf("got %d points, want one per backend (%d)", len(points), len(FilterBackends()))
	}
	for i, p := range points {
		if want := FilterBackends()[i].Name(); p.Backend != want {
			t.Errorf("point %d backend %q, want %q", i, p.Backend, want)
		}
		if p.Contacts != points[0].Contacts || p.Messages != points[0].Messages {
			t.Errorf("backend %s saw a different event stream: %+v vs %+v",
				p.Backend, p.ScalePoint, points[0].ScalePoint)
		}
		if p.Delivery <= 0 || p.Delivery > 1 {
			t.Errorf("backend %s delivery %.3f out of (0,1]", p.Backend, p.Delivery)
		}
		if p.ControlBytes <= 0 {
			t.Errorf("backend %s recorded no control traffic", p.Backend)
		}
	}
}
