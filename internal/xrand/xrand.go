// Package xrand provides a compact deterministic pseudo-random generator
// for the streaming simulation stack. A PRNG is 8 bytes of splitmix64
// state — versus kilobytes for a math/rand source — which is what makes
// one independent stream per linked node pair (tracegen), per producing
// node (workload), and per contact component (sim) affordable at
// million-node populations. Streams derived from distinct seeds are
// order-independent: a stream's draws never depend on when it was
// instantiated or what other streams exist.
//
// This is simulation randomness, not cryptographic randomness.
package xrand

import (
	"math"
	"time"
)

// PRNG is a splitmix64 generator. The zero value is a valid (seed-0)
// stream; use New to spread caller seeds.
type PRNG uint64

// Mix64 is the splitmix64 finalizer, also usable on its own to derive
// child seeds from a root seed plus an index.
//
//bsub:hotpath
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator whose state is the scrambled seed, so nearby
// seeds (pair indices, node IDs) yield decorrelated streams.
func New(seed uint64) PRNG { return PRNG(Mix64(seed)) }

// Uint64 advances the stream and returns 64 uniform bits.
//
//bsub:hotpath
func (p *PRNG) Uint64() uint64 {
	*p += 0x9e3779b97f4a7c15
	return Mix64(uint64(*p))
}

// Float64 returns a uniform draw in [0, 1).
//
//bsub:hotpath
func (p *PRNG) Float64() float64 { return float64(p.Uint64()>>11) / (1 << 53) }

// Exp returns a unit-mean exponential draw.
//
//bsub:hotpath
func (p *PRNG) Exp() float64 { return -math.Log(1 - p.Float64()) }

// Intn returns a uniform draw in [0, n); n must be positive. The modulo
// bias is below 2⁻⁵³ for every n the simulator uses.
//
//bsub:hotpath
func (p *PRNG) Intn(n int) int {
	return int(p.Uint64() % uint64(n))
}

// Int63 returns 63 uniform bits. Together with Seed and Uint64 it makes
// *PRNG a math/rand Source64, so the simulator can hand protocols a
// *rand.Rand whose reseeding costs one multiply instead of refilling
// math/rand's 607-word feedback register.
//
//bsub:hotpath
func (p *PRNG) Int63() int64 { return int64(p.Uint64() >> 1) }

// Seed resets the stream, scrambling like New.
func (p *PRNG) Seed(seed int64) { *p = PRNG(Mix64(uint64(seed))) }

// JitteredBackoff maps a backoff ceiling and a uniform random sample in
// [0, 1) to a retry delay drawn uniformly from [backoff/2, backoff) —
// equal jitter. Pure doubling would synchronize every dialer that failed
// against the same busy peer into a thundering herd that refinds the peer
// busy in lockstep; the jitter spreads the herd across half the window.
// The live node's Meet retries and the mesh's reconnects both use it.
func JitteredBackoff(backoff time.Duration, sample float64) time.Duration {
	half := backoff / 2
	return half + time.Duration(sample*float64(half))
}
