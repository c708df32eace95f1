package experiments

import (
	"bytes"
	"encoding/csv"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func smallFixture(t *testing.T) *Fixture {
	t.Helper()
	f, err := NewSmallFixture(77)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewFixtureWellFormed(t *testing.T) {
	f := smallFixture(t)
	if f.Trace == nil || len(f.Interests) != f.Trace.Nodes {
		t.Fatalf("fixture malformed: %d interests for %d nodes", len(f.Interests), f.Trace.Nodes)
	}
	if len(f.Messages) == 0 {
		t.Fatal("fixture has no messages")
	}
	for i := 1; i < len(f.Messages); i++ {
		if f.Messages[i].CreatedAt < f.Messages[i-1].CreatedAt {
			t.Fatal("messages not sorted")
		}
	}
}

func TestFixtureDeterministic(t *testing.T) {
	a, err := NewSmallFixture(5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSmallFixture(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Messages) != len(b.Messages) {
		t.Fatalf("message counts differ: %d vs %d", len(a.Messages), len(b.Messages))
	}
	for i := range a.Messages {
		if !reflect.DeepEqual(a.Messages[i], b.Messages[i]) {
			t.Fatalf("message %d differs", i)
		}
	}
}

func TestBSubConfigDFScalesWithTTL(t *testing.T) {
	f := smallFixture(t)
	short := f.BSubConfig(time.Hour)
	long := f.BSubConfig(10 * time.Hour)
	if short.DecayPerMinute <= long.DecayPerMinute {
		t.Errorf("DF should fall as TTL grows: DF(1h)=%g DF(10h)=%g",
			short.DecayPerMinute, long.DecayPerMinute)
	}
	if short.DecayPerMinute <= 0 {
		t.Error("derived DF not positive")
	}
}

func TestTTLSweepSmall(t *testing.T) {
	f := smallFixture(t)
	ttls := []time.Duration{30 * time.Minute, 4 * time.Hour}
	points, err := TTLSweep(f, ttls)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	// Delivery ratio must not fall as TTL rises, for every protocol.
	for _, get := range []func(TTLPoint) float64{
		func(p TTLPoint) float64 { return p.Push.DeliveryRatio() },
		func(p TTLPoint) float64 { return p.Pull.DeliveryRatio() },
	} {
		if get(points[1]) < get(points[0])-0.02 {
			t.Errorf("delivery ratio fell with longer TTL: %.3f -> %.3f",
				get(points[0]), get(points[1]))
		}
	}
	// Fig. 7 ordering at the long-TTL point.
	p := points[1]
	if p.Push.DeliveryRatio() < p.BSub.DeliveryRatio()-1e-9 {
		t.Errorf("PUSH %.3f below B-SUB %.3f", p.Push.DeliveryRatio(), p.BSub.DeliveryRatio())
	}
	if p.Push.ForwardingsPerDelivered() <= p.BSub.ForwardingsPerDelivered() {
		t.Errorf("PUSH overhead %.2f not above B-SUB %.2f",
			p.Push.ForwardingsPerDelivered(), p.BSub.ForwardingsPerDelivered())
	}
	if p.BSub.ForwardingsPerDelivered() < p.Pull.ForwardingsPerDelivered()-0.1 {
		t.Errorf("B-SUB overhead %.2f below PULL %.2f (PULL is minimal)",
			p.BSub.ForwardingsPerDelivered(), p.Pull.ForwardingsPerDelivered())
	}
}

func TestDFSweepSmall(t *testing.T) {
	f := smallFixture(t)
	points, err := DFSweep(f, []float64{0, 2}, 4*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 9: a huge DF reduces both delivery and overhead relative to
	// DF=0 (flood-like interest spread).
	if points[1].Report.ForwardingsPerDelivered() > points[0].Report.ForwardingsPerDelivered()+0.5 {
		t.Errorf("overhead rose with DF: %.2f -> %.2f",
			points[0].Report.ForwardingsPerDelivered(),
			points[1].Report.ForwardingsPerDelivered())
	}
	if points[1].Report.DeliveryRatio() > points[0].Report.DeliveryRatio()+0.05 {
		t.Errorf("delivery rose sharply with huge DF: %.3f -> %.3f",
			points[0].Report.DeliveryRatio(), points[1].Report.DeliveryRatio())
	}
}

func TestTheoreticalWorstFPR(t *testing.T) {
	got := TheoreticalWorstFPR()
	if math.Abs(got-0.04) > 0.01 {
		t.Errorf("worst-case FPR = %.4f, want the paper's ~0.04", got)
	}
}

func TestTable2(t *testing.T) {
	rows := Table2(4)
	want := []float64{0.132, 0.103, 0.0887, 0.0739}
	for i, r := range rows {
		if math.Abs(r.Weight-want[i]) > 1e-9 {
			t.Errorf("row %d weight = %g, want %g", i, r.Weight, want[i])
		}
	}
	if len(Table2(1000)) != 38 {
		t.Error("Table2 over-requests keys")
	}
}

func TestMemoryComparison(t *testing.T) {
	m, err := MemoryComparison()
	if err != nil {
		t.Fatal(err)
	}
	if m.Keys != 38 {
		t.Fatalf("keys = %d", m.Keys)
	}
	// "at most, 5 bytes are used to encode a single key"
	if m.PerKeyTCBFBytes > 5+1e-9 {
		t.Errorf("per-key TCBF bytes = %g, paper says at most 5", m.PerKeyTCBFBytes)
	}
	// The TCBF representation must beat raw strings substantially
	// ("the TCBF uses half of the space used by the raw strings").
	perKeyRaw := m.RawBytes / float64(m.Keys)
	if m.PerKeyTCBFBytes > perKeyRaw*0.6 {
		t.Errorf("TCBF per key %g B not well below raw %g B", m.PerKeyTCBFBytes, perKeyRaw)
	}
	if m.FilterActualBytes <= 0 {
		t.Error("actual encoding empty")
	}
	// The whole 38-key filter should also undercut the raw list.
	if float64(m.FilterActualBytes) > m.RawBytes {
		t.Errorf("full filter %d B exceeds raw strings %.0f B", m.FilterActualBytes, m.RawBytes)
	}
}

func TestAllocationSweep(t *testing.T) {
	points, err := AllocationSweep([]int{250, 500, 2000})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(points); i++ {
		if points[i].Allocation.Filters < points[i-1].Allocation.Filters {
			t.Errorf("filter count fell with a larger bound")
		}
		if points[i].Allocation.JointFPR > points[i-1].Allocation.JointFPR+1e-12 {
			t.Errorf("joint FPR rose with a larger bound")
		}
	}
	if _, err := AllocationSweep([]int{1}); err == nil {
		t.Error("infeasible bound accepted")
	}
}

func TestTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("table 1 generates both full traces")
	}
	rows, err := Table1(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].Nodes != 79 || rows[1].Nodes != 97 {
		t.Errorf("node counts: %d, %d; want 79, 97", rows[0].Nodes, rows[1].Nodes)
	}
	if math.Abs(float64(rows[0].Contacts)-67360)/67360 > 0.15 {
		t.Errorf("haggle contacts %d off target", rows[0].Contacts)
	}
	if math.Abs(float64(rows[1].Contacts)-54667)/54667 > 0.15 {
		t.Errorf("mit contacts %d off target", rows[1].Contacts)
	}
	if tb := TraceTable(rows); len(tb.Rows) != 2 || tb.Rows[0][4] != "79" {
		t.Errorf("Table I rows = %v", tb.Rows)
	}
}

// csvRows writes a table through the one CSV writer and parses it back.
func csvRows(t *testing.T, tb Table) [][]string {
	t.Helper()
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("%s CSV does not parse: %v", tb.Name, err)
	}
	return rows
}

// TestWriters checks each artifact's table builder: run through the CSV
// writer, every table parses back with its header and the expected cells.
func TestWriters(t *testing.T) {
	f := smallFixture(t)
	points, err := TTLSweep(f, []time.Duration{time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	rows := csvRows(t, TTLTable("fig7", points))
	if len(rows) != 2 || len(rows[0]) != 10 {
		t.Errorf("TTL sweep CSV shape %dx%d, want 2x10", len(rows), len(rows[0]))
	}
	if rows[1][0] != "60.000000" {
		t.Errorf("ttl column = %q", rows[1][0])
	}

	dfp, err := DFSweep(f, []float64{0.5}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if rows = csvRows(t, DFTable("fig9", dfp)); len(rows) != 2 || len(rows[0]) != 6 || rows[0][4] != "fpr" {
		t.Errorf("DF sweep CSV malformed: %v", rows)
	}

	if rows = csvRows(t, KeyTable(Table2(4))); len(rows) != 5 || rows[1][0] != "NewMoon" {
		t.Errorf("Table II CSV malformed: %v", rows)
	}

	m, err := MemoryComparison()
	if err != nil {
		t.Fatal(err)
	}
	if rows = csvRows(t, MemoryTable(m)); len(rows) != 2 || rows[1][0] != "38" || rows[0][1] != "raw_bytes" {
		t.Errorf("memory CSV malformed: %v", rows)
	}

	if rows = csvRows(t, AnalysisTable()); len(rows) != 2 || rows[1][3] != ftoa(TheoreticalWorstFPR()) {
		t.Errorf("analysis CSV malformed: %v", rows)
	}

	ap, err := AllocationSweep([]int{400})
	if err != nil {
		t.Fatal(err)
	}
	if rows = csvRows(t, AllocationTable(ap)); len(rows) != 2 || rows[1][0] != "400" || rows[0][4] != "joint_fpr" {
		t.Errorf("allocation CSV malformed: %v", rows)
	}
}

// failWriter rejects every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestCSVWriters checks the one writer every artifact goes through: the
// header comes first, cells that need CSV quoting round-trip intact, and a
// failing destination surfaces as an error naming the table.
func TestCSVWriters(t *testing.T) {
	tb := Table{Name: "quoting", Header: []string{"variant", "value"}, Rows: [][]string{
		{"a,b", "1"},
		{`say "hi"`, "2"},
		{"two\nlines", ""},
	}}
	rows := csvRows(t, tb)
	if want := append([][]string{tb.Header}, tb.Rows...); !reflect.DeepEqual(rows, want) {
		t.Errorf("round trip = %q, want %q", rows, want)
	}

	if rows = csvRows(t, Table{Name: "empty", Header: []string{"x"}}); !reflect.DeepEqual(rows, [][]string{{"x"}}) {
		t.Errorf("header-only table = %q", rows)
	}

	err := tb.WriteCSV(failWriter{})
	if err == nil || !strings.Contains(err.Error(), "quoting") {
		t.Errorf("WriteCSV to a failing writer: err = %v, want one naming the table", err)
	}
}

func TestDefaultAxes(t *testing.T) {
	ttls := DefaultTTLs()
	if len(ttls) != 7 || ttls[0] != 10*time.Minute || ttls[6] != 1000*time.Minute {
		t.Errorf("DefaultTTLs = %v", ttls)
	}
	dfs := DefaultDFs()
	if len(dfs) != 8 || dfs[0] != 0 || dfs[1] != 0.138 {
		t.Errorf("DefaultDFs = %v", dfs)
	}
}
