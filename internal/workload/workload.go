// Package workload implements the Section VII-A workload model: a set of
// Twitter-Trend-like keys with a skewed popularity distribution (Table II),
// per-node interests drawn by key weight, and message generation whose rate
// scales with a node's centrality ("the higher the centrality, the higher
// the message generation rate").
//
// The paper harvested 38 trend keys from the Twitter Trend search engine
// for 16–22 Nov 2009; those exact strings are unavailable offline, so
// KeySet ships a frozen list of 38 plausible trend strings whose weights
// reproduce the published head of the distribution (0.132, 0.103, 0.0887,
// 0.0739) with a Zipf-like tail normalized to one. Only the weights matter
// to the protocol; the strings are opaque keys.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"
)

// Key identifies message content: "messages are identified by strings that
// summarize their contents, which are called keys".
type Key = string

// trendKeys is the frozen 38-key population standing in for the paper's
// one-week Twitter Trend crawl. The first four items carry the Table II
// head weights.
var trendKeys = []Key{
	"NewMoon", "Twitter'sNew", "funnybutnotcool", "openwebawards",
	"Thanksgiving", "MichaelJackson", "Phillies", "GoldenGlobes",
	"BlackFriday", "SwineFlu", "TigerWoods", "NewMoonPremiere",
	"AdamLambert", "Chrome0S", "ClimateGate", "Avatar",
	"CyberMonday", "HealthCare", "XboxLive", "LeonaLewis",
	"JohnMayer", "Twilight", "ThisIsIt", "WorldCupDraw",
	"SnowLeopard", "Kindle", "Modern Warfare", "LadyGaga",
	"TaylorSwift", "Yankees", "Glee", "Eclipse",
	"iPhoneApps", "Facebook", "Fireflies", "OneRepublic",
	"Alicia Keys", "Pandemic",
}

// tableIIHead is the published probability of the top-4 keys (Table II).
var tableIIHead = []float64{0.132, 0.103, 0.0887, 0.0739}

// KeySet is a weighted key population.
type KeySet struct {
	keys    []Key
	weights []float64 // normalized to sum 1
	cum     []float64 // cumulative weights for sampling
}

// NewTrendKeySet returns the paper's 38-key population: head weights from
// Table II, Zipf(1.0) tail rescaled so the total is 1.
func NewTrendKeySet() *KeySet {
	ks, err := NewKeySet(trendKeys, trendWeights())
	if err != nil {
		// The frozen inputs are valid by construction.
		panic(err)
	}
	return ks
}

// NewKeySet builds a key set from parallel key and weight slices. Weights
// must be positive; they are normalized to sum to one.
func NewKeySet(keys []Key, weights []float64) (*KeySet, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("workload: empty key set")
	}
	if len(keys) != len(weights) {
		return nil, fmt.Errorf("workload: %d keys but %d weights", len(keys), len(weights))
	}
	seen := make(map[Key]struct{}, len(keys))
	total := 0.0
	for i, w := range weights {
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("workload: weight %d (%g) must be positive and finite", i, w)
		}
		if _, dup := seen[keys[i]]; dup {
			return nil, fmt.Errorf("workload: duplicate key %q", keys[i])
		}
		seen[keys[i]] = struct{}{}
		total += w
	}
	ks := &KeySet{
		keys:    append([]Key(nil), keys...),
		weights: make([]float64, len(weights)),
		cum:     make([]float64, len(weights)),
	}
	run := 0.0
	for i, w := range weights {
		ks.weights[i] = w / total
		run += w / total
		ks.cum[i] = run
	}
	ks.cum[len(ks.cum)-1] = 1 // absorb rounding
	return ks, nil
}

// Len returns the number of keys.
func (ks *KeySet) Len() int { return len(ks.keys) }

// Keys returns a copy of the key strings.
func (ks *KeySet) Keys() []Key { return append([]Key(nil), ks.keys...) }

// Weight returns the normalized weight of key index i.
func (ks *KeySet) Weight(i int) float64 { return ks.weights[i] }

// Key returns key index i.
func (ks *KeySet) Key(i int) Key { return ks.keys[i] }

// Sample draws one key according to the weight distribution.
func (ks *KeySet) Sample(rng *rand.Rand) Key { return ks.sampleU(rng.Float64()) }

// sampleU maps a uniform draw u in [0, 1) to a key by inverse CDF.
func (ks *KeySet) sampleU(u float64) Key {
	lo, hi := 0, len(ks.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if ks.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return ks.keys[lo]
}

// MeanKeyBytes returns the mean key length in bytes; the paper reports 11.5
// bytes for its crawl and uses it in the memory comparison.
func (ks *KeySet) MeanKeyBytes() float64 {
	total := 0
	for _, k := range ks.keys {
		total += len(k)
	}
	return float64(total) / float64(len(ks.keys))
}

// trendWeights builds Table II's head followed by a Zipf tail.
func trendWeights() []float64 {
	out := make([]float64, len(trendKeys))
	copy(out, tableIIHead)
	headSum := 0.0
	for _, w := range tableIIHead {
		headSum += w
	}
	// Zipf(1.0) tail over the remaining keys, scaled to the leftover mass,
	// capped so the tail stays below the head.
	tail := len(trendKeys) - len(tableIIHead)
	zipfSum := 0.0
	for r := 1; r <= tail; r++ {
		zipfSum += 1 / float64(r+4)
	}
	leftover := 1 - headSum
	for r := 1; r <= tail; r++ {
		out[len(tableIIHead)+r-1] = leftover * (1 / float64(r+4)) / zipfSum
	}
	return out
}

const (
	// MaxMessageBytes is the Twitter-style cap: "Messages have a maximum
	// size of 140 bytes".
	MaxMessageBytes = 140
	// DefaultBaseRatePerHour is the paper's minimum message generation
	// rate: 1/30 messages per minute = 2 per hour for the least central
	// node.
	DefaultBaseRatePerHour = 2.0
)

// Interests assigns each node exactly one interest key ("we assume that
// each node is interested in only one key"), drawn by weight.
func Interests(ks *KeySet, nodes int, rng *rand.Rand) []Key {
	out := make([]Key, nodes)
	for i := range out {
		out[i] = ks.Sample(rng)
	}
	return out
}

// InterestSets assigns each node up to perNode distinct interests drawn by
// weight — the multi-interest side of the paper's multi-key extension.
// Every node receives at least one interest.
func InterestSets(ks *KeySet, nodes, perNode int, rng *rand.Rand) [][]Key {
	if perNode < 1 {
		perNode = 1
	}
	out := make([][]Key, nodes)
	for i := range out {
		n := 1 + rng.Intn(perNode)
		set := make([]Key, 0, n)
		seen := make(map[Key]struct{}, n)
		for len(set) < n {
			k := ks.Sample(rng)
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			set = append(set, k)
		}
		out[i] = set
	}
	return out
}

// AttachExtraKeys decorates generated messages with up to extraPerMsg
// additional distinct descriptive keys each (multi-key extension), drawn
// by weight. It mutates msgs in place and returns it.
func AttachExtraKeys(msgs []Message, ks *KeySet, extraPerMsg int, rng *rand.Rand) []Message {
	if extraPerMsg < 1 {
		return msgs
	}
	for i := range msgs {
		n := rng.Intn(extraPerMsg + 1)
		if n == 0 {
			continue
		}
		seen := map[Key]struct{}{msgs[i].Key: {}}
		for len(msgs[i].Extra) < n {
			k := ks.Sample(rng)
			if _, dup := seen[k]; dup {
				// Tolerate small key sets: give up when the population is
				// nearly exhausted rather than spinning.
				if len(seen) >= ks.Len() {
					break
				}
				continue
			}
			seen[k] = struct{}{}
			msgs[i].Extra = append(msgs[i].Extra, k)
		}
	}
	return msgs
}

// Message is a content-addressed message: a key naming its content plus a
// payload size (the simulator does not materialize bodies).
//
// The paper scopes its presentation to one key per message but notes that
// "it is straightforward to extend the analysis to multi-key descriptions'
// cases"; Extra carries the additional descriptive keys of that extension.
type Message struct {
	ID        int
	Key       Key   // primary content key
	Extra     []Key // additional descriptive keys (multi-key extension)
	Origin    int   // producing node
	Size      int   // bytes, uniform in [1, MaxMessageBytes]
	CreatedAt time.Duration
}

// MatchKeys returns every key describing the message: the primary key
// followed by the extras.
func (m Message) MatchKeys() []Key {
	if len(m.Extra) == 0 {
		return []Key{m.Key}
	}
	out := make([]Key, 0, 1+len(m.Extra))
	out = append(out, m.Key)
	return append(out, m.Extra...)
}

// Matches reports whether any of the message's keys is in interests: the
// primary key first, then the extras. Unlike MatchKeys it builds no slice.
func (m *Message) Matches(interests []Key) bool {
	if slices.Contains(interests, m.Key) {
		return true
	}
	for _, k := range m.Extra {
		if slices.Contains(interests, k) {
			return true
		}
	}
	return false
}

// Rates converts per-node centralities to message generation rates
// (messages per hour) per Section VII-A: R_i = R_min * C_i / C_min, where
// R_min is baseRatePerHour at the smallest positive centrality. Nodes with
// zero centrality never generate.
func Rates(centrality []float64, baseRatePerHour float64) ([]float64, error) {
	if baseRatePerHour <= 0 {
		return nil, fmt.Errorf("workload: base rate must be positive, got %g", baseRatePerHour)
	}
	minC := math.Inf(1)
	for _, c := range centrality {
		if c > 0 && c < minC {
			minC = c
		}
	}
	if math.IsInf(minC, 1) {
		return nil, fmt.Errorf("workload: all centralities are zero")
	}
	out := make([]float64, len(centrality))
	for i, c := range centrality {
		out[i] = baseRatePerHour * c / minC
	}
	return out, nil
}

// GenerateMessages draws each node's Poisson message arrivals over span,
// assigning keys by weight and sizes uniform in [1, MaxMessageBytes]. The
// result is sorted by creation time with sequential IDs. It is the
// materialized view of Stream: the stream seed is drawn from rng, then all
// randomness comes from per-node derived generators (see NewStream), so
// streamed and collected generation produce the identical sequence.
func GenerateMessages(ks *KeySet, rates []float64, span time.Duration, rng *rand.Rand) []Message {
	out := Collect(NewStream(ks, rates, span, rng.Int63()))
	if out == nil {
		out = []Message{}
	}
	return out
}
