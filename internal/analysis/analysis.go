// Package analysis implements the closed-form model of Sections III and VI
// of the B-SUB paper: the Bloom-filter false-positive rate and fill ratio
// (Eq. 1–3), the decaying-factor derivation (Eq. 4–5), the unique-key
// estimate for a broker's relay filter (Eq. 6), the joint FPR of a filter
// collection (Eq. 7), the Section VI-C memory model (Eq. 8), and the
// optimal filter-count search (Eq. 9–10).
//
// All functions are pure and deterministic; the tests validate Eq. 1
// against the empirical behaviour of a TCBF at DF 0, which is a classic
// Bloom filter.
package analysis

import (
	"errors"
	"fmt"
	"math"
)

// ErrInfeasible is returned by OptimalAllocation when even a single filter
// exceeds the storage bound.
var ErrInfeasible = errors.New("analysis: storage bound admits no filter")

// FPR returns the false-positive rate of Eq. 1 for a Bloom filter of m
// bits and k hash functions holding n keys: (1 - e^(-kn/m))^k.
func FPR(m, k, n int) float64 {
	if n <= 0 {
		return 0
	}
	return math.Pow(1-math.Exp(-float64(k)*float64(n)/float64(m)), float64(k))
}

// ExpectedSetBits returns Eq. 2: the expected number of set bits,
// m(1 - e^(-kn/m)).
func ExpectedSetBits(m, k, n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(m) * (1 - math.Exp(-float64(k)*float64(n)/float64(m)))
}

// FillRatio returns Eq. 3: the expected fill ratio, 1 - e^(-kn/m).
func FillRatio(m, k, n int) float64 {
	return ExpectedSetBits(m, k, n) / float64(m)
}

// KeysFromFillRatio inverts Eq. 3, estimating the number of stored keys
// from an observed fill ratio: n = -(m/k) ln(1 - fr). A fill ratio of 1
// yields +Inf.
func KeysFromFillRatio(m, k int, fr float64) float64 {
	if fr <= 0 {
		return 0
	}
	if fr >= 1 {
		return math.Inf(1)
	}
	return -float64(m) / float64(k) * math.Log(1-fr)
}

// FPRFromFillRatio estimates the false-positive rate directly from an
// observed fill ratio: a query returns a false positive iff all k probed
// bits are set, so the rate is fr^k.
func FPRFromFillRatio(fr float64, k int) float64 {
	if fr <= 0 {
		return 0
	}
	if fr >= 1 {
		return 1
	}
	return math.Pow(fr, float64(k))
}

// ExpectedMinBinomial returns Eq. 4: the expectation of the minimum of k
// i.i.d. Binomial(n, p) variables,
//
//	E[min] = sum_{c=1..n} c * { [1-F(c-1)]^k - [1-F(c)]^k },
//
// computed via the equivalent tail sum sum_{c=1..n} [1-F(c-1)]^k. In the
// paper n = |N| is the number of keys a broker collects within the delay
// bound and p = k/m is the per-bit collision probability; the result is the
// expected number of accidental increments on a key's weakest counter.
//
//bsub:hotpath
func ExpectedMinBinomial(n int, p float64, k int) float64 {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p > 1 {
		p = 1
	}
	// Walk the Binomial(n, p) PMF once, accumulating the CDF.
	logP, logQ := math.Log(p), math.Log(1-p)
	sum := 0.0
	cdf := 0.0
	// pmf(0) computed in log space to survive large n.
	for c := 0; c < n; c++ {
		lp := logChoose(n, c) + float64(c)*logP + float64(n-c)*logQ
		cdf += math.Exp(lp)
		if cdf > 1 {
			cdf = 1
		}
		tail := 1 - cdf // P(X > c) = P(X >= c+1)
		if tail <= 0 {
			break
		}
		sum += math.Pow(tail, float64(k))
	}
	return sum
}

// DecayFactor returns Eq. 5: the DF (per minute) that removes an interest
// after the message delay bound tMinutes, accounting for accidental counter
// increments:
//
//	DF = C * (1 + E[min_{accidental increments}]) / T + delta.
//
// initial is the counter value C, nKeys the number of keys |N| a broker
// collects within T, m and k the filter geometry, and delta the small
// safety constant the paper adds for the cases the analysis ignores
// (M-merge inflation).
//
//bsub:hotpath
func DecayFactor(initial float64, nKeys, m, k int, tMinutes, delta float64) (float64, error) {
	if initial <= 0 {
		return 0, fmt.Errorf("analysis: initial counter value must be positive, got %g", initial)
	}
	if tMinutes <= 0 {
		return 0, fmt.Errorf("analysis: delay bound must be positive, got %g minutes", tMinutes)
	}
	if delta < 0 {
		return 0, fmt.Errorf("analysis: delta must be non-negative, got %g", delta)
	}
	p := float64(k) / float64(m)
	eMin := ExpectedMinBinomial(nKeys, p, k)
	return initial*(1+eMin)/tMinutes + delta, nil
}

// ExpectedUniqueKeys returns the Eq. 6 estimate of distinct interests in a
// broker's relay filter: drawing nCollected interests from a population of
// totalKeys distinct keys yields totalKeys * (1 - (1 - 1/totalKeys)^nCollected)
// distinct values in expectation.
//
// Note: the published equation is typeset ambiguously; this is the standard
// distinct-count expectation it reduces to, and it matches the equation's
// role in the DF–FPR analysis (it saturates at totalKeys and grows almost
// linearly while nCollected << totalKeys).
func ExpectedUniqueKeys(totalKeys, nCollected int) float64 {
	if totalKeys <= 0 || nCollected <= 0 {
		return 0
	}
	kTot := float64(totalKeys)
	return kTot * (1 - math.Pow(1-1/kTot, float64(nCollected)))
}

// JointFPR returns Eq. 7: the false-positive rate of a collection of
// filters representing one key set, 1 - prod_i (1 - (1 - e^(-k n_i / m))^k),
// where perFilterKeys holds each filter's key count.
func JointFPR(m, k int, perFilterKeys []int) float64 {
	correct := 1.0
	for _, n := range perFilterKeys {
		correct *= 1 - FPR(m, k, n)
	}
	return 1 - correct
}

// MemoryBits returns Eq. 8: the expected wire memory, in bits, of h filters
// of m bits and k hashes evenly holding n total keys, under the Section
// VI-C compact encoding (each set bit costs ceil(log2 m) location bits plus
// an 8-bit counter).
func MemoryBits(m, k, n, h int) float64 {
	if h <= 0 {
		return 0
	}
	perKey := float64(n) / float64(h)
	setBits := float64(m) * (1 - math.Exp(-float64(k)*perKey/float64(m)))
	return float64(h) * setBits * float64(8+ceilLog2(m))
}

// Allocation is the result of the Eq. 9–10 optimization.
type Allocation struct {
	// Filters is the optimal number of TCBFs h.
	Filters int
	// KeysPerFilter is the per-filter key budget n/h.
	KeysPerFilter float64
	// FillThreshold is the Eq. 3 fill ratio at KeysPerFilter; the dynamic
	// allocation strategy of Section VI-D allocates a new filter when the
	// current one exceeds it.
	FillThreshold float64
	// JointFPR is the resulting Eq. 7 joint false-positive rate.
	JointFPR float64
	// MemoryBits is the Eq. 8 memory consumption.
	MemoryBits float64
}

// OptimalAllocation solves Eq. 9–10: given filter geometry (m, k), a key
// population n, and a storage bound maxBits, it returns the filter count h
// that minimizes the joint FPR subject to MemoryBits <= maxBits.
//
// The joint FPR is minimized by splitting keys evenly (the paper: "FPR_sub
// achieves the maximum value when n_i = n/h"), and both memory and the
// correct-answer probability grow monotonically with h, so the optimum is
// the largest feasible h — found by binary search, as the paper prescribes.
func OptimalAllocation(m, k, n int, maxBits float64) (Allocation, error) {
	if m <= 0 || k <= 0 || n <= 0 {
		return Allocation{}, fmt.Errorf("analysis: m, k, n must be positive (got %d, %d, %d)", m, k, n)
	}
	if MemoryBits(m, k, n, 1) > maxBits {
		return Allocation{}, fmt.Errorf("%w: one filter needs %.0f bits, bound is %.0f",
			ErrInfeasible, MemoryBits(m, k, n, 1), maxBits)
	}
	// Memory is monotone non-decreasing in h, so binary search the largest
	// feasible h in [1, n] (more than n filters cannot help: each filter
	// would hold under one key).
	lo, hi := 1, n
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if MemoryBits(m, k, n, mid) <= maxBits {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	h := lo
	perKey := float64(n) / float64(h)
	keys := make([]int, h)
	base, extra := n/h, n%h
	for i := range keys {
		keys[i] = base
		if i < extra {
			keys[i]++
		}
	}
	return Allocation{
		Filters:       h,
		KeysPerFilter: perKey,
		FillThreshold: 1 - math.Exp(-float64(k)*perKey/float64(m)),
		JointFPR:      JointFPR(m, k, keys),
		MemoryBits:    MemoryBits(m, k, n, h),
	}, nil
}

// CompletelyWastedRatio returns the Section VI-B estimate of the fraction
// of falsely injected messages that are delivered to uninterested
// consumers: FPR^2 (a false match at injection and again at delivery).
func CompletelyWastedRatio(fpr float64) float64 { return fpr * fpr }

// PartiallyUsefulRatio returns the Section VI-B estimate of falsely
// injected messages that nonetheless reach genuinely interested users:
// FPR * (1 - FPR).
func PartiallyUsefulRatio(fpr float64) float64 { return fpr * (1 - fpr) }

// ceilLog2 returns ceil(log2 m) with a floor of 1.
func ceilLog2(m int) int {
	b := 0
	for v := m - 1; v > 0; v >>= 1 {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}

// logChoose returns ln(n choose c) via the log-gamma function.
//
//bsub:hotpath
func logChoose(n, c int) float64 {
	if c < 0 || c > n {
		return math.Inf(-1)
	}
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x + 1))
		return v
	}
	return lg(n) - lg(c) - lg(n-c)
}

// Geometry is a Bloom-filter sizing recommendation.
type Geometry struct {
	// M is the bit-vector length.
	M int
	// K is the hash count.
	K int
	// FPR is the Eq. 1 false-positive rate the geometry achieves at the
	// design capacity.
	FPR float64
}

// GeometryFor returns the smallest filter geometry whose Eq. 1 FPR at n
// keys does not exceed targetFPR, using the classic optimal sizing
// m = -n ln(p) / (ln 2)^2 and k = (m/n) ln 2 as the starting point and
// verifying against the exact formula. It is the design-time counterpart
// of OptimalAllocation: use it when picking (m, k) for a deployment
// rather than splitting keys across a storage bound.
func GeometryFor(n int, targetFPR float64) (Geometry, error) {
	if n <= 0 {
		return Geometry{}, fmt.Errorf("analysis: key capacity must be positive, got %d", n)
	}
	if targetFPR <= 0 || targetFPR >= 1 {
		return Geometry{}, fmt.Errorf("analysis: target FPR must be in (0,1), got %g", targetFPR)
	}
	ln2 := math.Ln2
	m := int(math.Ceil(-float64(n) * math.Log(targetFPR) / (ln2 * ln2)))
	if m < 1 {
		m = 1
	}
	for {
		k := int(math.Round(float64(m) / float64(n) * ln2))
		if k < 1 {
			k = 1
		}
		if k > 64 {
			k = 64
		}
		if f := FPR(m, k, n); f <= targetFPR {
			return Geometry{M: m, K: k, FPR: f}, nil
		}
		// The closed form slightly undershoots for small m; grow until the
		// exact check passes.
		m += (m + 9) / 10
	}
}
