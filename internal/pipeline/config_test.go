package pipeline

import (
	"context"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
)

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	base := cfg.Baseline()
	if err := base.Validate(); err != nil {
		t.Errorf("baseline config invalid: %v", err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutate := []struct {
		name string
		fn   func(*Config)
		want string
	}{
		{"zero fetch", func(c *Config) { c.FetchWidth = 0 }, "FetchWidth"},
		{"zero retire", func(c *Config) { c.RetireWidth = 0 }, "RetireWidth"},
		{"tiny window", func(c *Config) { c.WindowSize = 1 }, "WindowSize"},
		{"zero sched", func(c *Config) { c.SchedEntries = 0 }, "SchedEntries"},
		{"no alus", func(c *Config) { c.NumSimpleALU = 0 }, "execution units"},
		{"no fp", func(c *Config) { c.NumFPALU = 0 }, "complex/FP"},
		{"no regread", func(c *Config) { c.RegReadLat = 0 }, "RegReadLat"},
		{"small regfile", func(c *Config) { c.PRegs = 100 }, "PRegs"},
		{"huge regfile", func(c *Config) { c.PRegs = 1e12 }, "PRegs"},
		{"huge window", func(c *Config) { c.WindowSize, c.PRegs = 1e12, 1e13 }, "WindowSize"},
		{"huge btb", func(c *Config) { c.BPred.BTBEntries = 1e12 }, "BTBEntries"},
		{"wide fetch", func(c *Config) { c.FetchWidth = 1 << 20 }, "FetchWidth"},
		{"huge latency", func(c *Config) { c.Caches.MemLatency = 1 << 40 }, "MemLatency"},
		{"huge feedback delay", func(c *Config) { c.FeedbackDelay = 1 << 62 }, "FeedbackDelay"},
		{"pht too wide", func(c *Config) { c.BPred.IndexBits = 25 }, "IndexBits"},
		{"unknown mode", func(c *Config) { c.Opt.Mode = 7 }, "Opt.Mode"},
		{"unknown store policy", func(c *Config) { c.Opt.StorePolicy = 5 }, "StorePolicy"},
		{"3-way L1D", func(c *Config) { c.Caches.L1D.Assoc = 3 }, "L1D"},
		{"huge L2", func(c *Config) { c.Caches.L2.SizeB = 1 << 40 }, "L2"},
	}
	for _, m := range mutate {
		t.Run(m.name, func(t *testing.T) {
			cfg := DefaultConfig()
			m.fn(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("expected validation error")
			}
			if !strings.Contains(err.Error(), m.want) {
				t.Errorf("error %q does not mention %q", err, m.want)
			}
		})
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	prog, err := asm.Assemble("p", "start:\n halt\n")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.FetchWidth = -1
	s, err := New(cfg, prog)
	if err == nil || !strings.Contains(err.Error(), "FetchWidth") {
		t.Errorf("New should report the invalid field, got session=%v err=%v", s, err)
	}
}

func TestZeroConfigFallsBackToDefault(t *testing.T) {
	prog, err := asm.Assemble("p", "start:\n ldi 3 -> r1\n halt\n")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{}, prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background(), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retired != 2 {
		t.Errorf("retired %d under zero config", res.Retired)
	}
}

func TestWithModeAndBaselineHelpers(t *testing.T) {
	cfg := DefaultConfig().WithMode(core.ModeFeedbackOnly)
	if cfg.Opt.Mode != core.ModeFeedbackOnly {
		t.Error("WithMode did not switch mode")
	}
	b := DefaultConfig().Baseline()
	if b.Opt.Mode != core.ModeBaseline || b.Name != "baseline" {
		t.Errorf("Baseline() = %+v", b)
	}
	// Machine-model variants used by Figure 8 must remain valid.
	fb := DefaultConfig()
	fb.SchedEntries *= 2
	if err := fb.Validate(); err != nil {
		t.Error(err)
	}
	eb := DefaultConfig()
	eb.FetchWidth *= 2
	if err := eb.Validate(); err != nil {
		t.Error(err)
	}
}
