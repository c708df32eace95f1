package engine

import (
	"strings"
	"testing"
	"time"

	"bsub/internal/hashkit"
)

// TestConfigValidateBrokenConfigs pins the engine boundary: every broken
// filter geometry or partition count is rejected by Config.Validate before
// any node state exists, NewParams refuses the same configuration, and the
// error names the offending parameter.
func TestConfigValidateBrokenConfigs(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string // substring the error must carry
	}{
		{"tcbf-zero-m", func(c *Config) { c.FilterM = 0 }, "filter geometry"},
		{"tcbf-negative-m", func(c *Config) { c.FilterM = -8 }, "filter geometry"},
		{"tcbf-zero-k", func(c *Config) { c.FilterK = 0 }, "filter geometry"},
		// Only the TCBF's own check knows the hasher's ceiling.
		{"tcbf-k-above-max", func(c *Config) { c.FilterK = hashkit.MaxK + 1 }, "hash count"},
		{"tcbf-zero-initial", func(c *Config) { c.InitialCounter = 0 }, "initial counter"},
		{"tcbf-negative-decay", func(c *Config) { c.DecayPerMinute = -1 }, "decay factor"},
		// Zero partitions means one at this boundary (see
		// TestConfigValidateAccepts); below zero is the broken count.
		{"tcbf-negative-partitions", func(c *Config) { c.RelayPartitions = -1 }, "relay partitions"},
		{"tcbf-too-many-partitions", func(c *Config) { c.RelayPartitions = 256 }, "relay partitions"},
		{"tcbf-far-too-many-partitions", func(c *Config) { c.RelayPartitions = 300 }, "relay partitions"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(0.1)
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("Config.Validate accepted broken config %+v", cfg)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not name the problem (want %q)", err, tc.wantErr)
			}
			if _, err := NewParams(cfg, time.Hour); err == nil {
				t.Errorf("NewParams accepted a config Validate rejects")
			}
		})
	}
}

// TestConfigValidateAccepts is the positive control: the evaluation
// geometry at every partition count in range passes Config.Validate and
// NewParams, and a promoted node's relay filter starts empty with the
// configured partition count.
func TestConfigValidateAccepts(t *testing.T) {
	for _, tc := range []struct{ partitions, want int }{{0, 1}, {1, 1}, {3, 3}, {255, 255}} {
		cfg := DefaultConfig(0.1)
		cfg.RelayPartitions = tc.partitions
		if err := cfg.Validate(); err != nil {
			t.Errorf("partitions=%d: Config.Validate: %v", tc.partitions, err)
			continue
		}
		p, err := NewParams(cfg, time.Hour)
		if err != nil {
			t.Errorf("partitions=%d: NewParams: %v", tc.partitions, err)
			continue
		}
		n := p.NewNode(1)
		n.Promote(time.Hour)
		if got := n.Relay().Partitions(); got != tc.want {
			t.Errorf("partitions=%d: relay has %d partitions, want %d", tc.partitions, got, tc.want)
		}
		if n.Relay().SetBits() != 0 {
			t.Errorf("partitions=%d: fresh relay filter has %d set bits", tc.partitions, n.Relay().SetBits())
		}
	}
}
