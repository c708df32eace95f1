package tcbf

import (
	"encoding/hex"
	"math"
	"testing"
	"time"
)

// Wire-compatibility goldens: the byte streams below were produced by the
// previous []float64-counter encoder (before the packed fixed-point
// representation) for cfg {M:256, K:4, Initial:10, DecayPerMinute:1}. The
// packed decoder must accept them and reconstruct the same set bits with
// counters within one quantization step of the original values, proving
// that nodes running the packed representation interoperate with peers
// (or stored state) from the float64 era.
//
// Provenance of the full-mode filter: keys NewMoon, Twitter'sNew,
// funnybutnotcool, openwebawards inserted at t=0, decayed 4 minutes at
// DF=1 (counters 6), then NewMoon reinforced via A-merge at 4m (its bits
// at 16). The uniform-mode filter is the same four keys freshly inserted
// (all counters 10). The partitioned filter is keys key-000..key-023 over
// 4 partitions, advanced 3 minutes (all counters 7).
const (
	goldenWireNone    = "b501000001000400000010060b0c2d575f7a7d9ca8b5b7babdc0ee"
	goldenWireUniform = "b502000001000400000010060b0c2d575f7a7d9ca8b5b7babdc0ee4024000000000000"
	goldenWireFull    = "b503000001000400000010060b0c2d575f7a7d9ca8b5b7babdc0ee40300000000000006060ff6060ff60ff60606060606060ff"
	goldenWirePart    = "ba0400000043b50300000100040000001803090a1835373d4e545573808288999fa0a7bebfcde4eaf2401c000000000000ffffffffffffffffffffffffffffffffffffffffffffffff00000043b503000001000400000018090b1c222328315056676d6e738c9ba1b2b9bec0d7d8e6fd401c000000000000ffffffffffffffffffffffffffffffffffffffffffffffff00000043b503000001000400000018060b0d2425334a5658696f70757e9da3b4babbc0d9e8eeff401c000000000000ffffffffffffffffffffffffffffffffffffffffffffffff00000043b5030000010004000000180107082633353b4c52535a717280979da5b6bcbdcbe8eaf0401c000000000000ffffffffffffffffffffffffffffffffffffffffffffffff"
)

var goldenWireCfg = Config{M: 256, K: 4, Initial: 10, DecayPerMinute: 1}

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad golden hex: %v", err)
	}
	return b
}

// goldenPositions is where the float64 encoder reported set bits; value 16
// at the reinforced NewMoon positions, 6 everywhere else.
var goldenCounter16 = map[int]bool{12: true, 95: true, 125: true, 238: true}

var goldenPositions = []int{
	6, 11, 12, 45, 87, 95, 122, 125, 156, 168,
	181, 183, 186, 189, 192, 238,
}

func TestDecodeFloat64EraWire(t *testing.T) {
	for _, tc := range []struct {
		name string
		hex  string
		mode CounterMode
	}{
		{"none", goldenWireNone, CountersNone},
		{"uniform", goldenWireUniform, CountersUniform},
		{"full", goldenWireFull, CountersFull},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := Decode(mustHex(t, tc.hex), goldenWireCfg, 0)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if f.M() != 256 || f.K() != 4 {
				t.Fatalf("geometry (%d,%d), want (256,4)", f.M(), f.K())
			}
			want := map[int]float64{}
			for _, p := range goldenPositions {
				switch {
				case tc.mode == CountersNone:
					want[p] = 10 // decodes at cfg.Initial
				case tc.mode == CountersUniform:
					want[p] = 10
				case goldenCounter16[p]:
					want[p] = 16
				default:
					want[p] = 6
				}
			}
			// One byte-quantization step at the wire's max counter, plus
			// one tick of fixed-point re-quantization at the receiver.
			tol := 16.0/255 + goldenWireCfg.Initial/initTicks
			for p := 0; p < f.M(); p++ {
				got := f.Counter(p)
				w, set := want[p]
				if set != (got > 0) {
					t.Fatalf("bit %d set=%v, want %v", p, got > 0, set)
				}
				if set && math.Abs(got-w) > tol {
					t.Fatalf("counter[%d] = %v, want %v ± %v", p, got, w, tol)
				}
			}
			if got := f.SetBits(); got != len(goldenPositions) {
				t.Fatalf("SetBits = %d, want %d", got, len(goldenPositions))
			}
			if !f.Merged() {
				t.Fatal("decoded filter not marked merged")
			}

			// The decoded filter must keep working as a live filter:
			// survive decay and answer queries.
			ok, err := f.Contains("NewMoon", 2*time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatal("NewMoon lost after 2 minutes of decay")
			}
		})
	}
}

func TestDecodePartitionedFloat64EraWire(t *testing.T) {
	p, err := DecodePartitioned(mustHex(t, goldenWirePart), goldenWireCfg, 0)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if p.Partitions() != 4 {
		t.Fatalf("partitions = %d, want 4", p.Partitions())
	}
	// All 24 keys were at counter 7 (10 - 3 minutes of decay) on the wire.
	tol := 7.0/255 + goldenWireCfg.Initial/initTicks
	for i := 0; i < 24; i++ {
		key := "key-" + string([]byte{'0' + byte(i/100), '0' + byte(i/10%10), '0' + byte(i%10)})
		ok, err := p.ContainsPre(Precompute(key), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("%s missing after decode", key)
		}
		mc, err := p.MinCounterPre(Precompute(key), 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mc-7) > tol {
			t.Fatalf("%s min counter = %v, want 7 ± %v", key, mc, tol)
		}
	}
}
