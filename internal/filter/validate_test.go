package filter_test

import (
	"strings"
	"testing"
	"time"

	"bsub/internal/filter"
	"bsub/internal/tcbf"
)

var validCfg = tcbf.Config{M: 256, K: 4, Initial: 10, DecayPerMinute: 1}

// TestBackendValidateBrokenConfigs is the per-backend broken-config
// regression suite: every backend must reject its own bad tuning and the
// shared bad geometry at the Validate boundary, before any filter
// exists, and New must refuse the same configurations. Failure messages
// name the backend and the offending parameter.
func TestBackendValidateBrokenConfigs(t *testing.T) {
	cases := []struct {
		name       string
		backend    filter.Backend
		cfg        tcbf.Config
		partitions int
		wantErr    string // substring the error must carry
	}{
		// Shared geometry checks, enforced through every backend.
		{"tcbf-zero-m", filter.Packed{}, tcbf.Config{M: 0, K: 4, Initial: 10}, 1, "bit-vector length"},
		{"tcbf-zero-k", filter.Packed{}, tcbf.Config{M: 256, K: 0, Initial: 10}, 1, "hash count"},
		{"tcbf-zero-initial", filter.Packed{}, tcbf.Config{M: 256, K: 4}, 1, "initial counter"},
		{"tcbf-negative-decay", filter.Packed{}, tcbf.Config{M: 256, K: 4, Initial: 10, DecayPerMinute: -1}, 1, "decay factor"},
		{"tcbf-zero-partitions", filter.Packed{}, validCfg, 0, "partition count"},
		{"tcbf-too-many-partitions", filter.Packed{}, validCfg, 256, "partition count"},

		// Retouched: the fill bound must be a usable ratio.
		{"retouched-fill-negative", filter.Retouched{MaxFill: -0.5}, validCfg, 1, "fill bound"},
		{"retouched-fill-above-one", filter.Retouched{MaxFill: 1.5}, validCfg, 1, "fill bound"},
		{"retouched-bad-partitions", filter.Retouched{}, validCfg, 300, "partition count"},
		{"retouched-bad-geometry", filter.Retouched{}, tcbf.Config{M: -8, K: 4, Initial: 10}, 1, "bit-vector length"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.backend.Validate(tc.cfg, tc.partitions)
			if err == nil {
				t.Fatalf("%s.Validate accepted broken config %+v partitions=%d",
					tc.backend.Name(), tc.cfg, tc.partitions)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s.Validate error %q does not name the problem (want %q)",
					tc.backend.Name(), err, tc.wantErr)
			}
			if _, err := tc.backend.New(tc.cfg, tc.partitions, time.Hour); err == nil {
				t.Errorf("%s.New built a filter Validate rejects", tc.backend.Name())
			}
		})
	}
}

// TestBackendValidateAcceptsDefaults is the positive control: every
// backend at zero-value tuning accepts the evaluation geometry, and its
// New yields an empty filter.
func TestBackendValidateAcceptsDefaults(t *testing.T) {
	backends := []filter.Backend{
		filter.Packed{}, filter.Retouched{},
	}
	for _, b := range backends {
		t.Run(b.Name(), func(t *testing.T) {
			if err := b.Validate(validCfg, 1); err != nil {
				t.Fatalf("%s.Validate rejected the evaluation geometry: %v", b.Name(), err)
			}
			f, err := b.New(validCfg, 1, time.Hour)
			if err != nil {
				t.Fatalf("%s.New: %v", b.Name(), err)
			}
			if f.SetBits() != 0 {
				t.Errorf("%s.New returned a non-empty filter (%d set bits)", b.Name(), f.SetBits())
			}
		})
	}
}
