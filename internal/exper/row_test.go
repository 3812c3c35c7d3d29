package exper

// Engine-level tests of sampled rows: SampledMatrix simulates each
// benchmark row's missing cells as one warm-sharing group, yet every
// cell keeps the memo, store and failure semantics of a lone RunSampled
// call. Run them under -race (CI does).

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/store"
	"repro/internal/workloads"
)

// rowConfigs builds n configs over three cache/predictor geometries,
// each with its own window size, so a row holds several warm groups.
func rowConfigs(n int) []pipeline.Config {
	cfgs := make([]pipeline.Config, n)
	for i := range cfgs {
		c := pipeline.DefaultConfig()
		c.WindowSize = 64 + 8*i
		switch i % 3 {
		case 1:
			c.Caches.L1D.SizeB = 16 << 10
			c.BPred.IndexBits, c.BPred.HistoryBits = 14, 14
		case 2:
			c.Caches.L1D.SizeB, c.Caches.L1D.Assoc = 64<<10, 4
			c.Caches.L2.SizeB = 512 << 10
		}
		c.Name = fmt.Sprintf("g%d-w%d", i%3, c.WindowSize)
		cfgs[i] = c
	}
	return cfgs
}

// perCell is the reference table: every cell a lone RunSampled call on
// a fresh engine.
func perCell(t *testing.T, benches []*workloads.Benchmark, cfgs []pipeline.Config, sc sample.Config) [][]*pipeline.Result {
	t.Helper()
	r := NewRunner(2)
	out := make([][]*pipeline.Result, len(benches))
	for i, b := range benches {
		for _, cfg := range cfgs {
			sr, err := r.RunSampled(context.Background(), cfg, b, 1, sc)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = append(out[i], sr.Estimate())
		}
	}
	return out
}

// TestSampledRowSimulatesOnlyMissingCells: with a store already
// holding half of a row, SampledMatrix simulates only the other half,
// and its table equals per-cell RunSampled on a fresh engine.
func TestSampledRowSimulatesOnlyMissingCells(t *testing.T) {
	ctx := context.Background()
	st := openStore(t)
	b := bench(t, "mgd")
	cfgs := rowConfigs(6)
	sc := sample.DefaultConfig()

	first := storeRunner(st)
	for _, cfg := range cfgs[:3] {
		if _, err := first.RunSampled(ctx, cfg, b, 1, sc); err != nil {
			t.Fatal(err)
		}
	}

	r := storeRunner(st)
	got, err := r.SampledMatrix(ctx, []*workloads.Benchmark{b}, cfgs, 1, sc)
	if err != nil {
		t.Fatal(err)
	}
	// Three cells and the row's instruction count come from the store.
	if s := r.Stats(); s.Simulations != 3 || s.StoreHits != 4 || s.PlanStoreHits != 1 || s.PlanBuilds != 0 {
		t.Errorf("stats = %+v, want 3 simulations, 4 store hits (3 cells + count), 1 plan store hit, 0 plan builds", s)
	}
	if want := perCell(t, []*workloads.Benchmark{b}, cfgs, sc); !reflect.DeepEqual(got, want) {
		t.Errorf("row table differs from per-cell RunSampled:\nrow      %+v\nper-cell %+v", got, want)
	}
	// The simulated half is persisted cell by cell.
	again := storeRunner(st)
	if _, err := again.SampledMatrix(ctx, []*workloads.Benchmark{b}, cfgs, 1, sc); err != nil {
		t.Fatal(err)
	}
	if s := again.Stats(); s.Simulations != 0 || s.StoreHits != 6 {
		t.Errorf("third engine stats = %+v, want 0 simulations, 6 store hits", s)
	}
}

// TestSampledRowCollapsesConcurrentCell: a RunSampled for a cell of a
// row in flight waits for the row instead of simulating the cell again.
// The row is held on its plan's store read until the waiter is parked.
func TestSampledRowCollapsesConcurrentCell(t *testing.T) {
	ctx := context.Background()
	b := bench(t, "mgd")
	cfgs := rowConfigs(4)
	sc := sample.DefaultConfig()

	probe := openStore(t)
	if _, err := storeRunner(probe).RunSampled(ctx, cfgs[0], b, 1, sc); err != nil {
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

	rowDone := make(chan error, 1)
	var table [][]*pipeline.Result
	go func() {
		var err error
		table, err = r.SampledMatrix(ctx, []*workloads.Benchmark{b}, cfgs, 1, sc)
		rowDone <- err
	}()
	select {
	case <-fsys.entered:
	case err := <-rowDone:
		t.Fatalf("row finished before reading its plan entry: %v", err)
	}

	waiter := &doneWatcher{Context: ctx, waiting: make(chan struct{})}
	cellDone := make(chan *sample.Result, 1)
	go func() {
		sr, err := r.RunSampled(waiter, cfgs[2], b, 1, sc)
		if err != nil {
			t.Error(err)
		}
		cellDone <- sr
	}()
	<-waiter.waiting
	close(fsys.release)
	if err := <-rowDone; err != nil {
		t.Fatal(err)
	}
	sr := <-cellDone
	if s := r.Stats(); s.Simulations != uint64(len(cfgs)) || s.MemHits != 1 {
		t.Errorf("stats = %+v, want %d simulations and 1 memory hit", s, len(cfgs))
	}
	if sr == nil || !reflect.DeepEqual(sr.Estimate(), table[0][2]) {
		t.Errorf("collapsed cell = %+v, want the row's %+v", sr, table[0][2])
	}
}

// TestSampledRowCellFaultFailsOneCell: an exper.cell fault keyed to one
// cell of a row fails that cell alone, as a memoized *PanicError; the
// row's other cells are simulated once and equal per-cell RunSampled.
func TestSampledRowCellFaultFailsOneCell(t *testing.T) {
	defer fault.Reset()
	ctx := context.Background()
	b := bench(t, "mgd")
	cfgs := rowConfigs(4)
	sc := sample.DefaultConfig()
	if err := fault.Enable("exper.cell:panic:key=mgd/" + cfgs[1].Name); err != nil {
		t.Fatal(err)
	}

	r := NewRunner(2)
	_, err := r.SampledMatrix(ctx, []*workloads.Benchmark{b}, cfgs, 1, sc)
	if pe := fault.AsPanic(err); pe == nil {
		t.Fatalf("row with a panicking cell returned %v, want *PanicError", err)
	}
	fault.Reset()

	if _, err := r.RunSampled(ctx, cfgs[1], b, 1, sc); fault.AsPanic(err) == nil {
		t.Errorf("faulted cell returned %v, want its memoized *PanicError", err)
	}
	want := perCell(t, []*workloads.Benchmark{b}, cfgs, sc)
	for c, cfg := range cfgs {
		if c == 1 {
			continue
		}
		sr, err := r.RunSampled(ctx, cfg, b, 1, sc)
		if err != nil {
			t.Fatalf("cell %s failed alongside the faulted one: %v", cfg.Name, err)
		}
		if !reflect.DeepEqual(sr.Estimate(), want[0][c]) {
			t.Errorf("cell %s = %+v, want %+v", cfg.Name, sr.Estimate(), want[0][c])
		}
	}
	if s := r.Stats(); s.Simulations != uint64(len(cfgs)) || s.PanicsRecovered != 1 {
		t.Errorf("stats = %+v, want %d simulations and 1 recovered panic", s, len(cfgs))
	}
}

// TestSampledRowWindowFailure: a panicking or wedged sample.window of
// one row gives every cell of that row a memoized *PanicError or
// *WatchdogError, and leaves the other row's table byte-identical.
func TestSampledRowWindowFailure(t *testing.T) {
	for _, tc := range []struct {
		name   string
		clause string
		want   func(error) bool
	}{
		{"panic", "sample.window:panic:key=tst#", func(err error) bool { return fault.AsPanic(err) != nil }},
		{"wedge", "sample.window:hang=30s:key=tst#", func(err error) bool {
			var we *WatchdogError
			return errors.As(err, &we)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer fault.Reset()
			ctx := context.Background()
			benches := []*workloads.Benchmark{bench(t, "mgd"), bench(t, "tst")}
			cfgs := rowConfigs(3)
			sc := sample.DefaultConfig()
			if err := fault.Enable(tc.clause); err != nil {
				t.Fatal(err)
			}
			r := NewRunner(2)
			if tc.name == "wedge" {
				r.SetWatchdog(0, time.Second)
			}
			if _, err := r.SampledMatrix(ctx, benches, cfgs, 1, sc); !tc.want(err) {
				t.Fatalf("SampledMatrix returned %v, want the row's failure", err)
			}
			fault.Reset()
			r.SetWatchdog(0, 0)

			for _, cfg := range cfgs {
				start := time.Now()
				if _, err := r.RunSampled(ctx, cfg, benches[1], 1, sc); !tc.want(err) {
					t.Errorf("tst cell %s returned %v, want the memoized failure", cfg.Name, err)
				}
				if d := time.Since(start); d > 500*time.Millisecond {
					t.Errorf("memoized failure took %s, want an instant answer", d)
				}
			}
			got, err := r.SampledMatrix(ctx, benches[:1], cfgs, 1, sc)
			if err != nil {
				t.Fatal(err)
			}
			if want := perCell(t, benches[:1], cfgs, sc); !reflect.DeepEqual(got, want) {
				t.Errorf("healthy row changed:\ngot  %+v\nwant %+v", got, want)
			}
		})
	}
}
