package workloads

import (
	"context"
	"testing"

	"repro/internal/emu"
	"repro/internal/pipeline"
)

// runPair simulates one benchmark at a small scale on both machines.
func runPair(t *testing.T, name string, scale int) (base, opt *pipeline.Result) {
	t.Helper()
	b, ok := ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %s", name)
	}
	prog := b.Program(scale)
	return mustRun(t, pipeline.DefaultConfig().Baseline(), prog),
		mustRun(t, pipeline.DefaultConfig(), prog)
}

// mustRun runs the pipeline and fails the test on error.
func mustRun(t *testing.T, cfg pipeline.Config, prog *emu.Program) *pipeline.Result {
	t.Helper()
	s, err := pipeline.New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background(), pipeline.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEngineeredBehaviors pins the per-benchmark properties DESIGN.md §4
// promises — the qualitative reason each kernel stands in for its
// Table 1 namesake.
func TestEngineeredBehaviors(t *testing.T) {
	t.Run("mcf-quicksort-forwards", func(t *testing.T) {
		t.Parallel()
		_, opt := runPair(t, "mcf", 4)
		if opt.PctLoadsRemoved() < 20 {
			t.Errorf("mcf loads removed %.1f%%, want >= 20 (MBC-resident partitions)", opt.PctLoadsRemoved())
		}
		if opt.PctMispredRecovered() < 15 {
			t.Errorf("mcf mispredict recovery %.1f%%, want >= 15 (known pivots)", opt.PctMispredRecovered())
		}
	})
	t.Run("untst-filter-eliminates", func(t *testing.T) {
		t.Parallel()
		_, opt := runPair(t, "untst", 4)
		if opt.PctLoadsRemoved() < 50 {
			t.Errorf("untst loads removed %.1f%%, want >= 50 (two 8-entry arrays)", opt.PctLoadsRemoved())
		}
		if opt.PctAddrGen() < 70 {
			t.Errorf("untst addr gen %.1f%%, want >= 70", opt.PctAddrGen())
		}
	})
	t.Run("mgd-exceeds-mbc", func(t *testing.T) {
		t.Parallel()
		_, opt := runPair(t, "mgd", 2)
		if opt.PctAddrGen() < 70 {
			t.Errorf("mgd addr gen %.1f%%, want high (strided stencil)", opt.PctAddrGen())
		}
		if opt.PctLoadsRemoved() > 60 {
			t.Errorf("mgd loads removed %.1f%%, want limited (32KB grid exceeds MBC)", opt.PctLoadsRemoved())
		}
	})
	t.Run("twf-unknowable-addresses", func(t *testing.T) {
		t.Parallel()
		_, opt := runPair(t, "twf", 4)
		if opt.PctLoadsRemoved() > 5 {
			t.Errorf("twf loads removed %.1f%%, want ~0 (LCG-computed addresses)", opt.PctLoadsRemoved())
		}
		if opt.PctMispredRecovered() > 10 {
			t.Errorf("twf recovery %.1f%%, want ~0 (accepts depend on unknowable loads)", opt.PctMispredRecovered())
		}
	})
	t.Run("prl-computed-probes", func(t *testing.T) {
		t.Parallel()
		_, opt := runPair(t, "prl", 4)
		if opt.PctAddrGen() > 60 {
			t.Errorf("prl addr gen %.1f%%, want low (hash-derived probe addresses)", opt.PctAddrGen())
		}
	})
	t.Run("gcc-indirect-dispatch", func(t *testing.T) {
		t.Parallel()
		base, _ := runPair(t, "gcc", 4)
		if base.Mispredicted == 0 {
			t.Error("gcc should mispredict its indirect dispatches")
		}
		if base.IPC() > 1.0 {
			t.Errorf("gcc baseline IPC %.2f, want misprediction-bound (< 1)", base.IPC())
		}
	})
	t.Run("eon-complex-bound", func(t *testing.T) {
		t.Parallel()
		base, _ := runPair(t, "eon", 4)
		if base.SchedStalls == 0 {
			t.Error("eon baseline should stall on the complex-ALU scheduler")
		}
	})
	t.Run("art-mbc-resident-vectors", func(t *testing.T) {
		t.Parallel()
		_, opt := runPair(t, "art", 4)
		if opt.PctLoadsRemoved() < 70 {
			t.Errorf("art loads removed %.1f%%, want high (two 64-entry vectors)", opt.PctLoadsRemoved())
		}
	})
	t.Run("eqk-indirect-gathers", func(t *testing.T) {
		t.Parallel()
		_, opt := runPair(t, "eqk", 4)
		// Index loads have known addresses; the x[] gathers do not:
		// address generation sits between the two extremes.
		if ag := opt.PctAddrGen(); ag < 30 || ag > 90 {
			t.Errorf("eqk addr gen %.1f%%, want intermediate (indirect gathers)", ag)
		}
	})
	t.Run("gap-store-forwarded-carries", func(t *testing.T) {
		t.Parallel()
		_, opt := runPair(t, "gap", 2)
		if opt.Opt.MBCHits == 0 {
			t.Error("gap partial sums should forward out of the MBC")
		}
	})
}

// TestSuiteCharacterDiffers pins the suite-level contrast Table 3 rests
// on: mediabench eliminates far more loads than SPECint.
func TestSuiteCharacterDiffers(t *testing.T) {
	sums := map[string]struct{ removed, loads uint64 }{}
	for _, b := range All() {
		res := mustRun(t, pipeline.DefaultConfig(), b.Program(2))
		s := sums[b.Suite]
		s.removed += res.Opt.LoadsRemoved
		s.loads += res.Opt.Loads
		sums[b.Suite] = s
	}
	frac := func(s string) float64 {
		return float64(sums[s].removed) / float64(sums[s].loads)
	}
	if frac(Mediabench) <= frac(SPECint) {
		t.Errorf("mediabench load elimination (%.2f) should exceed SPECint (%.2f)",
			frac(Mediabench), frac(SPECint))
	}
}
