package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
)

// Config describes one simulated machine. Use DefaultConfig and mutate.
type Config struct {
	// Name labels results.
	Name string

	// FetchWidth is instructions fetched/decoded/renamed per cycle
	// (Table 2: 4; the "execution bound" model of §5.3 uses 8).
	FetchWidth int
	// RetireWidth is instructions retired per cycle (Table 2: 6).
	RetireWidth int
	// WindowSize is the maximum number of in-flight instructions
	// (Table 2: 160).
	WindowSize int
	// SchedEntries is the capacity of each of the four schedulers
	// (Table 2: 8; the "fetch bound" model of §5.3 uses 16).
	SchedEntries int

	// Execution units (Table 2).
	NumSimpleALU  int // 4
	NumComplexALU int // 1
	NumFPALU      int // 2
	NumAgen       int // 2
	DCachePorts   int // 2

	// PRegs sizes the physical register file.
	PRegs int

	// Pipeline depth decomposition. The baseline branch-resolution loop
	// is FrontLat + RenameLat + DispatchLat + SchedMinLat + RegReadLat +
	// 1 (execute) + RedirectLat = 20 cycles with the defaults.
	FrontLat    uint64 // fetch + decode stages (6)
	RenameLat   uint64 // baseline rename stages (2)
	OptStages   uint64 // extra rename stages when the optimizer is on (2)
	DispatchLat uint64 // rename -> scheduler (1)
	SchedMinLat uint64 // minimum cycles in the scheduler before issue (2)
	RegReadLat  uint64 // issue -> execute (3)
	RedirectLat uint64 // resolve -> fetch restart (5)

	// FeedbackDelay is the value-feedback transmission latency from the
	// execution units back to the optimizer tables (§6.4; default 1).
	FeedbackDelay uint64

	// MaxInsts bounds the simulation (0 = run to HALT).
	MaxInsts uint64

	// Optimizer, predictor and cache configurations.
	Opt    core.Config
	BPred  bpred.Config
	Caches cache.HierarchyConfig
}

// DefaultConfig is the paper's balanced default machine (Table 2) with
// continuous optimization enabled. Use Baseline() for the comparison
// machine.
func DefaultConfig() Config {
	return Config{
		Name:          "default+opt",
		FetchWidth:    4,
		RetireWidth:   6,
		WindowSize:    160,
		SchedEntries:  8,
		NumSimpleALU:  4,
		NumComplexALU: 1,
		NumFPALU:      2,
		NumAgen:       2,
		DCachePorts:   2,
		PRegs:         512,
		FrontLat:      6,
		RenameLat:     2,
		OptStages:     2,
		DispatchLat:   1,
		SchedMinLat:   2,
		RegReadLat:    3,
		RedirectLat:   5,
		FeedbackDelay: 1,
		Opt:           core.DefaultConfig(),
		BPred:         bpred.DefaultConfig(),
		Caches:        cache.DefaultHierarchyConfig(),
	}
}

// Normalize returns the config to simulate: the zero value maps to
// DefaultConfig, anything else is returned unchanged. This is the one
// sanctioned "empty config means the default machine" rule; callers must
// not guess emptiness from individual fields (a partially filled config
// is a configuration error that Validate reports, not a request for
// defaults).
func (c Config) Normalize() Config {
	if c == (Config{}) {
		return DefaultConfig()
	}
	return c
}

// Key returns a canonical content hash of the machine configuration.
// Name is a display label and is excluded: two configs that describe the
// same machine hash identically regardless of what they are called, so
// result caches can deduplicate simulations across experiments. The key
// is stable within a process run and across runs of the same build.
func (c Config) Key() string {
	c.Name = ""
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", c)))
	return hex.EncodeToString(sum[:8])
}

// Baseline returns c with the optimizer disabled (and without its extra
// rename stages) — the paper's comparison machine.
func (c Config) Baseline() Config {
	c.Name = "baseline"
	c.Opt.Mode = core.ModeBaseline
	return c
}

// WithMode returns c with the optimizer mode switched.
func (c Config) WithMode(m core.Mode) Config {
	c.Opt.Mode = m
	return c
}

// totalRenameLat is the rename latency including optimizer stages.
func (c *Config) totalRenameLat() uint64 {
	if c.Opt.Mode == core.ModeBaseline {
		return c.RenameLat
	}
	return c.RenameLat + c.OptStages
}

// MinBranchLoop returns the minimum fetch-to-refetch latency of a
// mispredicted branch resolved at execute — 20 cycles for the baseline
// defaults, matching Table 2.
func (c *Config) MinBranchLoop() uint64 {
	return c.FrontLat + c.totalRenameLat() + c.DispatchLat + c.SchedMinLat +
		c.RegReadLat + 1 + c.RedirectLat
}

// Ceilings far above any machine this model describes. A session
// allocates queues, tables and event wheels in proportion to these
// fields, so a config from untrusted input (an HTTP sweep spec) must
// stay below them to be simulated.
const (
	maxWidth     = 64      // per-cycle widths and unit counts
	maxEntries   = 1 << 16 // window, schedulers, registers, MBC, BTB, RAS
	maxLatency   = 1 << 10 // any stage, delay or cache latency, in cycles
	maxIndexBits = 24      // predictor PHT index width
)

// Validate reports configuration errors that would make the machine
// model meaningless, deadlock-prone or unbuildable. New reports an
// invalid config as an error; callers building custom configurations
// can check explicitly.
func (c *Config) Validate() error {
	switch {
	case c.FetchWidth <= 0:
		return fmt.Errorf("pipeline: FetchWidth %d must be positive", c.FetchWidth)
	case c.RetireWidth <= 0:
		return fmt.Errorf("pipeline: RetireWidth %d must be positive", c.RetireWidth)
	case c.WindowSize < c.FetchWidth:
		return fmt.Errorf("pipeline: WindowSize %d smaller than FetchWidth %d", c.WindowSize, c.FetchWidth)
	case c.SchedEntries <= 0:
		return fmt.Errorf("pipeline: SchedEntries %d must be positive", c.SchedEntries)
	case c.NumSimpleALU <= 0 || c.NumAgen <= 0 || c.DCachePorts <= 0:
		return fmt.Errorf("pipeline: execution units must be positive (simple=%d agen=%d ports=%d)",
			c.NumSimpleALU, c.NumAgen, c.DCachePorts)
	case c.NumComplexALU <= 0 || c.NumFPALU <= 0:
		return fmt.Errorf("pipeline: complex/FP units must be positive (complex=%d fp=%d)",
			c.NumComplexALU, c.NumFPALU)
	case c.RegReadLat == 0:
		return fmt.Errorf("pipeline: RegReadLat must be at least 1")
	case c.Opt.Mode < core.ModeBaseline || c.Opt.Mode > core.ModeFull:
		return fmt.Errorf("pipeline: unknown Opt.Mode %d", c.Opt.Mode)
	case c.Opt.StorePolicy != core.StoreSpeculate && c.Opt.StorePolicy != core.StoreFlush:
		return fmt.Errorf("pipeline: unknown Opt.StorePolicy %d", c.Opt.StorePolicy)
	case c.BPred.IndexBits > maxIndexBits:
		return fmt.Errorf("pipeline: BPred.IndexBits %d above %d", c.BPred.IndexBits, maxIndexBits)
	}
	for _, f := range []struct {
		name    string
		v, ceil int
	}{
		{"FetchWidth", c.FetchWidth, maxWidth},
		{"RetireWidth", c.RetireWidth, maxWidth},
		{"NumSimpleALU", c.NumSimpleALU, maxWidth},
		{"NumComplexALU", c.NumComplexALU, maxWidth},
		{"NumFPALU", c.NumFPALU, maxWidth},
		{"NumAgen", c.NumAgen, maxWidth},
		{"DCachePorts", c.DCachePorts, maxWidth},
		{"WindowSize", c.WindowSize, maxEntries},
		{"SchedEntries", c.SchedEntries, maxEntries},
		{"PRegs", c.PRegs, maxEntries},
		{"Opt.MBCEntries", c.Opt.MBCEntries, maxEntries},
		{"BPred.BTBEntries", c.BPred.BTBEntries, maxEntries},
		{"BPred.RASEntries", c.BPred.RASEntries, maxEntries},
	} {
		if f.v > f.ceil {
			return fmt.Errorf("pipeline: %s %d above the ceiling %d", f.name, f.v, f.ceil)
		}
	}
	for _, f := range []struct {
		name string
		v    uint64
	}{
		{"FrontLat", c.FrontLat}, {"RenameLat", c.RenameLat}, {"OptStages", c.OptStages},
		{"DispatchLat", c.DispatchLat}, {"SchedMinLat", c.SchedMinLat}, {"RegReadLat", c.RegReadLat},
		{"RedirectLat", c.RedirectLat}, {"FeedbackDelay", c.FeedbackDelay},
		{"Caches.L1I.Latency", c.Caches.L1I.Latency}, {"Caches.L1D.Latency", c.Caches.L1D.Latency},
		{"Caches.L2.Latency", c.Caches.L2.Latency}, {"Caches.MemLatency", c.Caches.MemLatency},
	} {
		if f.v > maxLatency {
			return fmt.Errorf("pipeline: %s %d above the ceiling %d", f.name, f.v, maxLatency)
		}
	}
	for _, l := range []cache.Config{c.Caches.L1I, c.Caches.L1D, c.Caches.L2} {
		if err := l.Validate(); err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
	}
	// The register file must cover the architectural state, the window's
	// worst-case in-flight destinations, and slack for table-extended
	// lifetimes (RAT symbolic bases + MBC entries).
	need := 64 + c.WindowSize + c.Opt.MBCEntries + 64
	if c.PRegs < need {
		return fmt.Errorf("pipeline: PRegs %d too small; need >= %d for a %d-entry window and %d-entry MBC",
			c.PRegs, need, c.WindowSize, c.Opt.MBCEntries)
	}
	return nil
}
