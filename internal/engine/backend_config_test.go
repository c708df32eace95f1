package engine

import (
	"strings"
	"testing"
	"time"

	"bsub/internal/filter"
)

// TestConfigValidatePropagatesBackend pins the seam's boundary contract:
// engine.Config.Validate hands the filter geometry to whatever backend is
// configured, so a backend-specific broken tuning is rejected before any
// node state exists, and NewNode refuses the same configuration.
func TestConfigValidatePropagatesBackend(t *testing.T) {
	cases := []struct {
		name    string
		backend filter.Backend
		wantErr string
	}{
		{"retouched-fill", filter.Retouched{MaxFill: 2}, "fill bound"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(0.1)
			cfg.Backend = tc.backend
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("Config.Validate accepted broken %s tuning", tc.backend.Name())
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not name the problem (want %q)", err, tc.wantErr)
			}
			if _, err := NewNode(1, cfg, time.Hour); err == nil {
				t.Errorf("NewNode built a node on a config Validate rejects")
			}
		})
	}
}

// TestConfigValidateAcceptsBackends is the positive control: every
// backend at default tuning passes through Config.Validate and NewNode.
func TestConfigValidateAcceptsBackends(t *testing.T) {
	for _, b := range []filter.Backend{
		nil, // the default packed TCBF
		filter.Packed{}, filter.Retouched{},
	} {
		cfg := DefaultConfig(0.1)
		cfg.Backend = b
		if err := cfg.Validate(); err != nil {
			t.Errorf("Config.Validate rejected backend %v: %v", b, err)
			continue
		}
		if _, err := NewNode(1, cfg, time.Hour); err != nil {
			t.Errorf("NewNode failed for backend %v: %v", b, err)
		}
	}
}
