package exper

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/store"
	"repro/internal/workloads"
)

// sweepConfigs builds n distinct machine configurations (a synthetic
// config axis like Figure 8's) for decode-once tests.
func sweepConfigs(t *testing.T, n int) []pipeline.Config {
	t.Helper()
	cfgs := make([]pipeline.Config, n)
	for i := range cfgs {
		cfg := pipeline.DefaultConfig()
		cfg.WindowSize = 64 + 4*i
		if err := cfg.Validate(); err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		cfgs[i] = cfg
	}
	return cfgs
}

// TestSweepDecodesOnce is the acceptance gate for the decode-once
// layer: a 30-config single-benchmark sweep cell performs exactly one
// architectural decode — the other 29 simulations replay the shared
// trace.
func TestSweepDecodesOnce(t *testing.T) {
	r := NewRunner(4)
	b := bench(t, "mcf")
	cfgs := sweepConfigs(t, 30)

	if _, err := r.Matrix(context.Background(), []*workloads.Benchmark{b}, cfgs, 1); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Simulations != 30 {
		t.Errorf("Simulations = %d, want 30", st.Simulations)
	}
	if st.TraceRecords != 1 {
		t.Errorf("TraceRecords = %d, want 1 (one architectural decode per sweep cell)", st.TraceRecords)
	}
	if st.TraceHits != 29 {
		t.Errorf("TraceHits = %d, want 29", st.TraceHits)
	}
	if st.TraceBytes == 0 {
		t.Error("TraceBytes = 0 with a resident trace")
	}

	// The recording doubles as the instruction count: sampling this
	// workload must not need a counting pass.
	if !resident(r.counts, countKey{bench: b.Name, scale: 1}) {
		t.Error("trace recording did not seed the instruction-count memo")
	}
}

// TestReplayEngineMatchesLiveEngine: an engine with the trace layer on
// (the default) and one with it disabled produce identical Results —
// replay is a pure execution strategy.
func TestReplayEngineMatchesLiveEngine(t *testing.T) {
	replay := NewRunner(2)
	live := NewRunner(2)
	live.SetTraceBudget(0)
	cfgs := []pipeline.Config{pipeline.DefaultConfig(), pipeline.DefaultConfig().Baseline()}
	for _, name := range []string{"mcf", "gcc", "tst"} {
		b := bench(t, name)
		for _, cfg := range cfgs {
			got := mustRun(t, replay, cfg, b, 1)
			want := mustRun(t, live, cfg, b, 1)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: replay-engine result differs from live-engine result", name, cfg.Name)
			}
		}
	}
	if st := live.Stats(); st.TraceRecords != 0 || st.TraceHits != 0 || st.TraceBytes != 0 {
		t.Errorf("disabled trace layer recorded anyway: %+v", st)
	}
	if st := replay.Stats(); st.TraceRecords != 3 {
		t.Errorf("TraceRecords = %d, want 3 (one per workload)", st.TraceRecords)
	}
}

// TestSampledSweepSharesPlan: a multi-config sampled sweep cell builds
// the window plan (fast-forward + checkpoints) exactly once, and the
// estimates are identical to the planless path for any worker count.
func TestSampledSweepSharesPlan(t *testing.T) {
	b := bench(t, "mgd")
	sc := sample.DefaultConfig()
	cfgs := sweepConfigs(t, 6)

	r := NewRunner(2)
	for _, cfg := range cfgs {
		if _, err := r.RunSampled(context.Background(), cfg, b, 1, sc); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Stats()
	if st.PlanBuilds != 1 {
		t.Errorf("PlanBuilds = %d, want 1 (one fast-forward per sampled sweep cell)", st.PlanBuilds)
	}
	if st.PlanHits != 5 {
		t.Errorf("PlanHits = %d, want 5", st.PlanHits)
	}

	// Worker count and plan caching must not leak into the estimate:
	// compare against a planless engine with a different worker count.
	planless := NewRunner(2)
	planless.SetTraceBudget(0)
	scw := sc
	scw.Workers = 4
	got, err := r.RunSampled(context.Background(), cfgs[0], b, 1, sc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := planless.RunSampled(context.Background(), cfgs[0], b, 1, scw)
	if err != nil {
		t.Fatal(err)
	}
	g, w := *got, *want
	g.Sampling.Workers, w.Sampling.Workers = 0, 0
	if !reflect.DeepEqual(g, w) {
		t.Errorf("planned estimate differs from planless estimate:\nplanned  %+v\nplanless %+v", g, w)
	}
}

// TestTraceBudgetTooSmall: a workload whose stream exceeds the budget
// is negative-cached and simulated live — correct results, no resident
// trace, and no repeated recording attempts.
func TestTraceBudgetTooSmall(t *testing.T) {
	r := NewRunner(2)
	r.SetTraceBudget(1024) // ~16 records: nothing fits
	live := NewRunner(2)
	live.SetTraceBudget(0)
	b := bench(t, "mcf")
	cfg := pipeline.DefaultConfig()

	got := mustRun(t, r, cfg, b, 1)
	want := mustRun(t, live, cfg, b, 1)
	if !reflect.DeepEqual(got, want) {
		t.Error("budget-overflow fallback produced a different result")
	}
	st := r.Stats()
	if st.TraceRecords != 0 {
		t.Errorf("TraceRecords = %d, want 0 (recording aborted by the cap)", st.TraceRecords)
	}
	if st.TraceBytes != 0 {
		t.Errorf("TraceBytes = %d, want 0", st.TraceBytes)
	}

	// A second config must hit the negative cache, not re-record; the
	// simulation still runs (it is a different machine).
	cfg2 := pipeline.DefaultConfig().Baseline()
	mustRun(t, r, cfg2, b, 1)
	if st := r.Stats(); st.TraceRecords != 0 || st.TraceHits != 0 {
		t.Errorf("negative cache not honored: %+v", st)
	}
}

// TestSetTraceBudgetReleases: disabling the layer after use frees the
// resident bytes and later simulations run live.
func TestSetTraceBudgetReleases(t *testing.T) {
	r := NewRunner(2)
	b := bench(t, "tst")
	mustRun(t, r, pipeline.DefaultConfig(), b, 1)
	if st := r.Stats(); st.TraceBytes == 0 {
		t.Fatal("no resident trace after a run")
	}
	r.SetTraceBudget(0)
	if st := r.Stats(); st.TraceBytes != 0 {
		t.Errorf("TraceBytes = %d after disabling, want 0", st.TraceBytes)
	}
	mustRun(t, r, pipeline.DefaultConfig().Baseline(), b, 1)
	if st := r.Stats(); st.TraceRecords != 1 {
		t.Errorf("TraceRecords = %d, want 1 (no re-recording after disable)", st.TraceRecords)
	}
}

// blockingFS is the real filesystem, except that reading path signals
// entered and then blocks until release is closed.
type blockingFS struct {
	store.FS
	path    string
	entered chan struct{}
	release chan struct{}
}

func (f *blockingFS) ReadFile(name string) ([]byte, error) {
	if name == f.path {
		close(f.entered)
		<-f.release
	}
	return f.FS.ReadFile(name)
}

// TestTraceBudgetShrinkDuringBuild: a plan whose leader is still
// building when SetTraceBudget(0) lands is handed to its caller but not
// retained — once no leader is in flight, the resident bytes fit the
// budget. The plan leader is held on its store read, before the build.
func TestTraceBudgetShrinkDuringBuild(t *testing.T) {
	ctx := context.Background()
	b := bench(t, "mgd")
	cfg := pipeline.DefaultConfig()
	sc := sample.DefaultConfig()

	// Learn where the plan entry lives from a throwaway store.
	probe := openStore(t)
	if _, err := storeRunner(probe).RunSampled(ctx, cfg, b, 1, sc); err != nil {
		t.Fatal(err)
	}
	rel, err := filepath.Rel(probe.Dir(), planEntry(t, probe).Path)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	fsys := &blockingFS{FS: store.OSFS(), path: filepath.Join(dir, rel),
		entered: make(chan struct{}), release: make(chan struct{})}
	st, err := store.OpenFS(dir, fsys)
	if err != nil {
		t.Fatal(err)
	}
	r := storeRunner(st)
	done := make(chan error, 1)
	go func() {
		_, err := r.RunSampled(ctx, cfg, b, 1, sc)
		done <- err
	}()
	select {
	case <-fsys.entered:
	case err := <-done:
		t.Fatalf("RunSampled returned before reading the plan entry: %v", err)
	}
	r.SetTraceBudget(0)
	close(fsys.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if s := r.Stats(); s.PlanBuilds != 1 || s.TraceBytes != 0 {
		t.Errorf("stats = %+v, want 1 plan built and 0 bytes resident under a zero budget", s)
	}
}
