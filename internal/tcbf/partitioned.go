package tcbf

import (
	"encoding/binary"
	"fmt"
	"time"
)

// Partitioned is a collection of h same-geometry TCBFs representing one
// logical key set — the Section VI-D construction ("a collection of h BFs
// {B0, ..., Bh-1} to represent a single set of elements") made usable
// inside the protocol: every key is routed to exactly one partition by an
// independent hash, so each partition holds ~n/h keys and the joint
// false-positive rate follows Eq. 7, while all of the TCBF's temporal
// operations (decay, A-merge, M-merge, preferential query) remain
// well-defined partition-wise.
//
// Two Partitioned filters can only be merged when they agree on both the
// per-partition geometry and the partition count, which a protocol fixes
// globally (like m and k).
type Partitioned struct {
	parts []*Filter
	cfg   Config
}

// NewPartitioned returns an empty partitioned TCBF with h partitions.
func NewPartitioned(cfg Config, h int, now time.Duration) (*Partitioned, error) {
	if h < 1 || h > 255 {
		return nil, fmt.Errorf("tcbf: partition count must be in [1,255], got %d", h)
	}
	parts := make([]*Filter, h)
	for i := range parts {
		f, err := New(cfg, now)
		if err != nil {
			return nil, err
		}
		parts[i] = f
	}
	return &Partitioned{parts: parts, cfg: cfg}, nil
}

// MustNewPartitioned is NewPartitioned for known-valid parameters.
//
//bsub:coldpath
func MustNewPartitioned(cfg Config, h int, now time.Duration) *Partitioned {
	p, err := NewPartitioned(cfg, h, now)
	if err != nil {
		panic(err)
	}
	return p
}

// Partitions returns the partition count h.
//
//bsub:hotpath
func (p *Partitioned) Partitions() int { return len(p.parts) }

// Config returns the per-partition configuration.
//
//bsub:hotpath
func (p *Partitioned) Config() Config { return p.cfg }

// routeHash is an allocation-free FNV-1a/32 over a 0x7A prefix byte plus
// the key bytes — the same digest hash/fnv produced for the original
// two-Write sequence, domain-separated from hashkit's key hashing.
//
//bsub:hotpath
func routeHash(key string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	h ^= 0x7A
	h *= prime32
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h
}

// routePre selects the partition for a precomputed key, by a hash
// independent of the filters' bit hashing (routeHash's prefix byte).
//
//bsub:hotpath
func (p *Partitioned) routePre(k PreKey) int {
	if len(p.parts) == 1 {
		return 0
	}
	return int(k.route % uint32(len(p.parts)))
}

// InsertPre adds a precomputed key to its partition.
//
//bsub:hotpath
func (p *Partitioned) InsertPre(k PreKey, now time.Duration) error {
	return p.parts[p.routePre(k)].InsertPre(k, now)
}

// InsertAllPre inserts each precomputed key.
//
//bsub:hotpath
func (p *Partitioned) InsertAllPre(keys []PreKey, now time.Duration) error {
	for _, k := range keys {
		if err := p.InsertPre(k, now); err != nil {
			return err
		}
	}
	return nil
}

// ContainsPre answers the existential query against a precomputed
// key's partition.
//
//bsub:hotpath
func (p *Partitioned) ContainsPre(k PreKey, now time.Duration) (bool, error) {
	return p.parts[p.routePre(k)].ContainsPre(k, now)
}

// ContainsAnyPre reports whether at least one precomputed key may be in
// the filter at time now, routing each key to its partition.
//
//bsub:hotpath
func (p *Partitioned) ContainsAnyPre(keys []PreKey, now time.Duration) (bool, error) {
	for i := range keys {
		ok, err := p.ContainsPre(keys[i], now)
		if err != nil || ok {
			return ok, err
		}
	}
	return false, nil
}

// MinCounterPre returns a precomputed key's minimum counter in its
// partition.
//
//bsub:hotpath
func (p *Partitioned) MinCounterPre(k PreKey, now time.Duration) (float64, error) {
	return p.parts[p.routePre(k)].MinCounterPre(k, now)
}

// checkClock refuses now if any partition's clock is ahead of it. An
// insert advances only its key's partition, so the clocks can differ;
// checking them all first lets a refused call leave every partition as it
// was.
//
//bsub:hotpath
func (p *Partitioned) checkClock(now time.Duration) error {
	for _, f := range p.parts {
		if err := f.checkClock(now); err != nil {
			return err
		}
	}
	return nil
}

// Advance settles decay on every partition.
//
//bsub:hotpath
func (p *Partitioned) Advance(now time.Duration) error {
	if err := p.checkClock(now); err != nil {
		return err
	}
	for _, f := range p.parts {
		if err := f.Advance(now); err != nil {
			return err
		}
	}
	return nil
}

// SetDecayFactor retunes every partition's DF after settling decay.
//
//bsub:hotpath
func (p *Partitioned) SetDecayFactor(perMinute float64, now time.Duration) error {
	if err := p.checkClock(now); err != nil {
		return err
	}
	for _, f := range p.parts {
		if err := f.SetDecayFactor(perMinute, now); err != nil {
			return err
		}
	}
	p.cfg.DecayPerMinute = perMinute
	return nil
}

//bsub:hotpath
func (p *Partitioned) checkCompatible(other *Partitioned) error {
	if len(p.parts) != len(other.parts) {
		return fmt.Errorf("%w: %d vs %d partitions", ErrGeometry, len(p.parts), len(other.parts))
	}
	if p.parts[0].M() != other.parts[0].M() || p.parts[0].K() != other.parts[0].K() {
		return fmt.Errorf("%w: per-partition geometry (%d,%d) vs (%d,%d)", ErrGeometry,
			p.parts[0].M(), p.parts[0].K(), other.parts[0].M(), other.parts[0].K())
	}
	return nil
}

// checkMerge refuses a merge whose filters differ in shape or whose clock
// precedes a partition's clock in either filter, before any partition
// changes.
//
//bsub:hotpath
func (p *Partitioned) checkMerge(other *Partitioned, now time.Duration) error {
	if err := p.checkCompatible(other); err != nil {
		return err
	}
	if err := p.checkClock(now); err != nil {
		return err
	}
	return other.checkClock(now)
}

// AMerge merges other into p additively, partition-wise.
//
//bsub:hotpath
func (p *Partitioned) AMerge(other *Partitioned, now time.Duration) error {
	if err := p.checkMerge(other, now); err != nil {
		return err
	}
	for i, f := range p.parts {
		if err := f.AMerge(other.parts[i], now); err != nil {
			return err
		}
	}
	return nil
}

// MMerge merges other into p by maximum, partition-wise.
//
//bsub:hotpath
func (p *Partitioned) MMerge(other *Partitioned, now time.Duration) error {
	if err := p.checkMerge(other, now); err != nil {
		return err
	}
	for i, f := range p.parts {
		if err := f.MMerge(other.parts[i], now); err != nil {
			return err
		}
	}
	return nil
}

// PreferencePartitionedPre runs the Section IV-A preferential query for a
// precomputed key against the key's partition in both filters.
//
//bsub:hotpath
func PreferencePartitionedPre(k PreKey, peer, self *Partitioned, now time.Duration) (float64, error) {
	if err := self.checkCompatible(peer); err != nil {
		return 0, err
	}
	i := self.routePre(k)
	return PreferencePre(k, peer.parts[i], self.parts[i], now)
}

// Reset clears every partition to the state NewPartitioned would produce,
// with all clocks at now; it lets a scratch partitioned filter be reused
// across contacts instead of reallocated.
//
//bsub:hotpath
func (p *Partitioned) Reset(now time.Duration) {
	for _, f := range p.parts {
		f.Reset(now)
	}
}

// Clone returns a deep copy.
func (p *Partitioned) Clone() *Partitioned {
	parts := make([]*Filter, len(p.parts))
	for i, f := range p.parts {
		parts[i] = f.Clone()
	}
	return &Partitioned{parts: parts, cfg: p.cfg}
}

// SetBits returns the total set bits across partitions.
//
//bsub:hotpath
func (p *Partitioned) SetBits() int {
	total := 0
	for _, f := range p.parts {
		total += f.SetBits()
	}
	return total
}

// EstimatedFPR returns the joint Eq. 7 false-positive rate: the query
// routes to one partition, but an adversarial (unknown) key is equally
// likely to land in any, so the expected rate is the mean of the
// partition rates.
//
//bsub:hotpath
func (p *Partitioned) EstimatedFPR() float64 {
	sum := 0.0
	for _, f := range p.parts {
		sum += f.EstimatedFPR()
	}
	return sum / float64(len(p.parts))
}

// Encode serializes all partitions: a 2-byte header (magic, h) followed by
// length-prefixed per-partition encodings, empty partitions compressed to
// a zero length.
func (p *Partitioned) Encode(mode CounterMode) ([]byte, error) {
	return p.EncodeTo(nil, mode)
}

// EncodeTo appends the partitioned wire encoding to dst and returns the
// extended slice — the same bytes Encode produces, into a caller-reused
// buffer. Like Filter.EncodeTo it settles pending decay in place, so it
// is a mutating call under the same single-owner rule as a merge.
//
//bsub:hotpath
func (p *Partitioned) EncodeTo(dst []byte, mode CounterMode) ([]byte, error) {
	if err := checkMode(mode); err != nil {
		return nil, err
	}
	dst = append(dst, wireMagic^0x0F, byte(len(p.parts)))
	for _, f := range p.parts {
		// Reserve a zero length prefix and backpatch it once the
		// partition's encoded size is known; an empty partition keeps the
		// zero prefix and drops its body.
		lenAt := len(dst)
		dst = append(dst, 0, 0, 0, 0)
		var nSet int
		var err error
		dst, nSet, err = f.encodeTo(dst, mode)
		if err != nil {
			return nil, err
		}
		if nSet == 0 {
			dst = dst[:lenAt+4]
			continue
		}
		binary.BigEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	}
	return dst, nil
}

// WireSize returns the encoded size in bytes.
func (p *Partitioned) WireSize(mode CounterMode) (int, error) {
	b, err := p.Encode(mode)
	if err != nil {
		return 0, err
	}
	return len(b), nil
}

// DecodePartitioned reconstructs a partitioned filter; cfg supplies the
// decay parameters as in Decode. When cfg leaves M or K zero (wildcard),
// the geometry is pinned by the first non-empty partition on the wire and
// every later partition must agree, so a decoded Partitioned can never mix
// per-partition geometries; an all-empty wire cannot be decoded with a
// wildcard cfg, since nothing pins the geometry.
func DecodePartitioned(data []byte, cfg Config, now time.Duration) (*Partitioned, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("%w: truncated partitioned header", ErrCorrupt)
	}
	if data[0] != wireMagic^0x0F {
		return nil, fmt.Errorf("%w: bad partitioned magic 0x%02x", ErrCorrupt, data[0])
	}
	h := int(data[1])
	if h < 1 {
		return nil, fmt.Errorf("%w: zero partitions", ErrCorrupt)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	parts := make([]*Filter, h)
	rest := data[2:]
	for i := 0; i < h; i++ {
		if len(rest) < 4 {
			return nil, fmt.Errorf("%w: truncated partition length", ErrCorrupt)
		}
		n := int(binary.BigEndian.Uint32(rest))
		rest = rest[4:]
		if n == 0 {
			continue // empty partition; built below once geometry is known
		}
		if len(rest) < n {
			return nil, fmt.Errorf("%w: truncated partition body", ErrCorrupt)
		}
		f, err := Decode(rest[:n], cfg, now)
		if err != nil {
			return nil, err
		}
		if cfg.M == 0 || cfg.K == 0 {
			// Pin the wildcard geometry; Decode rejects later partitions
			// that disagree with ErrCorrupt.
			cfg.M, cfg.K = f.M(), f.K()
		}
		parts[i] = f
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
	}
	if cfg.M == 0 || cfg.K == 0 {
		return nil, fmt.Errorf("tcbf: cannot decode an all-empty partitioned filter without cfg geometry")
	}
	for i, f := range parts {
		if f != nil {
			continue
		}
		nf, err := New(cfg, now)
		if err != nil {
			return nil, err
		}
		// Empty partitions carry the same unknown provenance as decoded
		// ones: the whole filter refuses genuine inserts uniformly, no
		// matter which partition a key routes to.
		nf.merged = true
		parts[i] = nf
	}
	return &Partitioned{parts: parts, cfg: cfg}, nil
}

// DecodeInto reconstructs a partitioned filter from data in place, reusing
// p's counter slabs — the hot-path variant of DecodePartitioned for a
// scratch filter reused across contacts. The wire partition count and
// per-partition geometry must match p's (the protocol fixes them
// globally); on any error p is left in an unspecified state and must be
// Reset before reuse. As with DecodePartitioned, every partition —
// empty ones included — comes back marked merged with its clock at now:
// the wire copy's provenance is unknown, so the filter refuses genuine
// inserts uniformly regardless of which partition a key routes to.
//
//bsub:hotpath
func (p *Partitioned) DecodeInto(data []byte, now time.Duration) error {
	if len(data) < 2 {
		return fmt.Errorf("%w: truncated partitioned header", ErrCorrupt)
	}
	if data[0] != wireMagic^0x0F {
		return fmt.Errorf("%w: bad partitioned magic 0x%02x", ErrCorrupt, data[0])
	}
	if h := int(data[1]); h != len(p.parts) {
		return fmt.Errorf("%w: wire has %d partitions, filter has %d", ErrCorrupt, h, len(p.parts))
	}
	rest := data[2:]
	for _, f := range p.parts {
		if len(rest) < 4 {
			return fmt.Errorf("%w: truncated partition length", ErrCorrupt)
		}
		n := int(binary.BigEndian.Uint32(rest))
		rest = rest[4:]
		if n == 0 {
			f.Reset(now)
			f.merged = true
			continue
		}
		if len(rest) < n {
			return fmt.Errorf("%w: truncated partition body", ErrCorrupt)
		}
		if err := f.DecodeInto(rest[:n], now); err != nil {
			return err
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
	}
	return nil
}
