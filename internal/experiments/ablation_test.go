package experiments

import (
	"testing"
	"time"
)

const ablationTTL = 4 * time.Hour

func TestAblateMerge(t *testing.T) {
	f := smallFixture(t)
	results, err := AblateMerge(f, ablationTTL)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d variants", len(results))
	}
	m, a := results[0].Report, results[1].Report
	if m.Delivered == 0 || a.Delivered == 0 {
		t.Fatalf("a variant delivered nothing: M=%s A=%s", m, a)
	}
	// A-merge between brokers inflates counters (Fig. 6), making stale
	// brokers look attractive; it must not beat the paper's M-merge on
	// overhead-adjusted delivery. We assert the weaker, robust property:
	// both run, and A-merge does not reduce traffic (bogus counters never
	// make forwarding more conservative).
	if a.Forwardings < m.Forwardings/2 {
		t.Errorf("A-merge forwardings %d implausibly below M-merge %d",
			a.Forwardings, m.Forwardings)
	}
}

func TestAblateDecay(t *testing.T) {
	f := smallFixture(t)
	results, err := AblateDecay(f, ablationTTL)
	if err != nil {
		t.Fatal(err)
	}
	withDF, noDF := results[0].Report, results[1].Report
	// The direction of the traffic difference depends on trace density
	// (decay creates the counter gradients that trigger broker-broker
	// handoffs, while no-decay saturates relay filters and injects more
	// copies), so assert only sanity here and log the comparison; the
	// full-scale ablation is in EXPERIMENTS.md.
	if withDF.Delivered == 0 || noDF.Delivered == 0 {
		t.Fatalf("a variant delivered nothing: DF=%s noDF=%s", withDF, noDF)
	}
	t.Logf("decay:    %s", withDF)
	t.Logf("no decay: %s", noDF)
}

func TestAblateCopyLimit(t *testing.T) {
	f := smallFixture(t)
	results, err := AblateCopyLimit(f, ablationTTL, []int{1, 3, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d variants", len(results))
	}
	// More copies -> at least as many forwardings.
	if results[2].Report.Forwardings < results[0].Report.Forwardings {
		t.Errorf("C=8 forwardings %d below C=1 %d",
			results[2].Report.Forwardings, results[0].Report.Forwardings)
	}
	for _, r := range results {
		if ratio := r.Report.DeliveryRatio(); ratio <= 0 || ratio > 1 {
			t.Errorf("%s: delivery ratio %g out of range", r.Variant, ratio)
		}
	}
}

func TestAblateBrokerThresholds(t *testing.T) {
	f := smallFixture(t)
	results, err := AblateBrokerThresholds(f, ablationTTL, [][2]int{{1, 2}, {3, 5}, {8, 12}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Report.Delivered == 0 {
			t.Errorf("%s delivered nothing", r.Variant)
		}
	}
}

func TestAblateGeometry(t *testing.T) {
	f := smallFixture(t)
	results, err := AblateGeometry(f, ablationTTL, [][2]int{{64, 4}, {256, 4}, {1024, 4}})
	if err != nil {
		t.Fatal(err)
	}
	// A 64-bit filter holding up to 38 keys is saturated: its false
	// positives inject more useless traffic than the 1024-bit filter.
	small, large := results[0].Report, results[2].Report
	if small.FPR() < large.FPR() {
		t.Errorf("m=64 FPR %.4f below m=1024 FPR %.4f; saturation should hurt",
			small.FPR(), large.FPR())
	}
	// Larger filters cost more control bytes per exchange.
	if large.ControlBytes <= small.ControlBytes {
		t.Errorf("m=1024 control %d not above m=64 %d", large.ControlBytes, small.ControlBytes)
	}
}

func TestAblateGeometryInvalid(t *testing.T) {
	f := smallFixture(t)
	if _, err := AblateGeometry(f, ablationTTL, [][2]int{{0, 4}}); err == nil {
		t.Error("invalid geometry accepted")
	}
}

// TestWriteAblation checks that ablation variants render as one CSV row
// each, labelled by variant, under the Section VII metric columns.
func TestWriteAblation(t *testing.T) {
	f := smallFixture(t)
	results, err := AblateCopyLimit(f, ablationTTL, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	rows := csvRows(t, AblationTable("ablation", results))
	if len(rows) != 2 || rows[1][0] != "C=3" || rows[0][1] != "delivery" {
		t.Errorf("ablation CSV malformed: %v", rows)
	}
	if last := len(rows[0]) - 1; rows[0][last] != "control_bytes" || len(rows[1]) != len(rows[0]) {
		t.Errorf("ablation CSV header %v, row %v", rows[0], rows[1])
	}
}

func TestAblateDFPolicy(t *testing.T) {
	f := smallFixture(t)
	results, err := AblateDFPolicy(f, ablationTTL, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d variants", len(results))
	}
	for _, r := range results {
		if r.Report.Delivered == 0 {
			t.Errorf("%s delivered nothing", r.Variant)
		}
		t.Logf("%-32s %s", r.Variant, r.Report)
	}
}

func TestAblateRelayPartitions(t *testing.T) {
	f := smallFixture(t)
	results, err := AblateRelayPartitions(f, ablationTTL, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d variants", len(results))
	}
	for _, r := range results {
		if r.Report.Delivered == 0 {
			t.Errorf("%s delivered nothing", r.Variant)
		}
	}
}
