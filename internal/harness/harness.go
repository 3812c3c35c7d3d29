// Package harness runs the paper's experiments: it simulates benchmark
// suites under machine-configuration variants and formats the same rows
// and series the paper's tables and figures report.
//
// One function per paper artifact: Table1, Figure6, Table3, Figure8,
// Figure9, Figure10, Figure11, Figure12, plus ablations beyond the paper
// (MBC size, store policy, minor-optimization toggles) and extensions
// (discrete optimization, dead values).
//
// The speedup artifacts — Figures 8–12, MBCSweep, PolicySweep and
// DiscreteSweep — are exper sweep specs: JSON files in specs/, embedded
// in the binary, whose variants are deltas from the paper's default
// machine. Each method resolves its spec and prints the paper's
// per-suite geomean table. The files are ordinary sweep specs, so
// "contopt sweep specs/figure9.json" runs the same cells with the sweep
// table layout, and -shard/-merge, -sample and POST /v1/sweeps accept
// them unchanged.
//
// All simulation goes through the exper engine: every artifact asks an
// exper.Runner for its (config, benchmark, scale) cells, and the runner
// memoizes results by config content hash. Give several artifacts the
// same Options.Engine and shared cells — the 22-benchmark baseline and
// default-machine runs that nearly every table and figure needs — are
// simulated exactly once per process; each artifact function is then
// only formatting over cached results.
//
// Every artifact method takes a context.Context: canceling it aborts
// the in-flight simulations promptly and the method returns an error
// wrapping ctx.Err() without writing partial output. Register progress
// observers on the shared engine (exper.Runner.Observe) to watch long
// artifact runs.
package harness

import (
	"context"
	"fmt"
	"io"
	"sync"
	"text/tabwriter"

	"repro/internal/exper"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/workloads"
)

// Options controls experiment execution.
type Options struct {
	// Scale overrides each benchmark's default iteration scale when > 0.
	// Experiments at Scale 1 run in seconds; the default scales match
	// the EXPERIMENTS.md numbers.
	Scale int
	// Engine memoizes and deduplicates simulations. Share one engine
	// across artifact calls to simulate each unique (config, benchmark,
	// scale) triple once per process; its pool bounds parallelism and
	// its store (exper.Runner.SetStore) makes results durable. Nil runs
	// each artifact on a private GOMAXPROCS engine (still deduplicated
	// within the artifact).
	Engine *exper.Runner
	// Sample, when non-nil, switches every artifact to sampled
	// simulation: cells become statistical estimates from periodic
	// detailed windows (see internal/sample) instead of exact runs —
	// much faster at large scale, accurate to the reported confidence
	// interval. Sampled and exact results are cached separately.
	Sample *sample.Config
}

// engine returns the shared engine, or a private one.
func (o Options) engine() *exper.Runner {
	if o.Engine != nil {
		return o.Engine
	}
	return exper.NewRunner(0)
}

// suiteRun holds one benchmark's results across a set of configurations.
type suiteRun struct {
	bench   *workloads.Benchmark
	results []*pipeline.Result // parallel to the config list
}

// runMatrix simulates every benchmark under every configuration on the
// engine (memoized; see Options.Engine) — exactly, or by sampled
// estimation when Options.Sample is set. Canceling ctx aborts the
// remaining cells and surfaces the cancellation error.
func (o Options) runMatrix(ctx context.Context, benches []*workloads.Benchmark, cfgs []pipeline.Config) ([]suiteRun, error) {
	var (
		cells [][]*pipeline.Result
		err   error
	)
	if o.Sample != nil {
		cells, err = o.engine().SampledMatrix(ctx, benches, cfgs, o.Scale, *o.Sample)
	} else {
		cells, err = o.engine().Matrix(ctx, benches, cfgs, o.Scale)
	}
	if err != nil {
		return nil, err
	}
	runs := make([]suiteRun, len(benches))
	for i, b := range benches {
		runs[i] = suiteRun{bench: b, results: cells[i]}
	}
	return runs, nil
}

func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// Table1 prints the workload inventory with dynamic instruction counts
// at the effective scale (the analog of the paper's Table 1).
func (o Options) Table1(ctx context.Context, w io.Writer) error {
	type row struct {
		b   *workloads.Benchmark
		n   uint64
		err error
	}
	rows := make([]row, len(workloads.All()))
	eng := o.engine()
	var wg sync.WaitGroup
	for i, b := range workloads.All() {
		rows[i].b = b
		wg.Add(1)
		go func(i int, b *workloads.Benchmark) {
			defer wg.Done()
			rows[i].n, rows[i].err = eng.InstCount(ctx, b, o.Scale)
		}(i, b)
	}
	wg.Wait()
	for _, r := range rows {
		if r.err != nil {
			return r.err
		}
	}
	fmt.Fprintln(w, "Table 1 — Experimental workload (dynamic instruction counts at current scale)")
	tw := newTab(w)
	fmt.Fprintln(tw, "suite\tname\tinsts\tdescription")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\n", r.b.Suite, r.b.Name, r.n, r.b.Notes)
	}
	return tw.Flush()
}

// Speedup is one per-benchmark data point of Figure 6, with the raw
// results attached for deeper analysis.
type Speedup struct {
	Suite, Name string
	Speedup     float64
	Base, Opt   *pipeline.Result
}

// Figure6Data runs the headline comparison and returns per-benchmark
// speedups in suite order — the machine-readable form of Figure6.
func (o Options) Figure6Data(ctx context.Context) ([]Speedup, error) {
	opt := pipeline.DefaultConfig()
	runs, err := o.runMatrix(ctx, workloads.All(), []pipeline.Config{opt.Baseline(), opt})
	if err != nil {
		return nil, err
	}
	out := make([]Speedup, 0, len(runs))
	for _, r := range runs {
		out = append(out, Speedup{
			Suite:   r.bench.Suite,
			Name:    r.bench.Name,
			Speedup: r.results[1].SpeedupOver(r.results[0]),
			Base:    r.results[0],
			Opt:     r.results[1],
		})
	}
	return out, nil
}

// Figure6 prints per-benchmark speedup of continuous optimization over
// the baseline machine, grouped by suite with geometric-mean bars.
func (o Options) Figure6(ctx context.Context, w io.Writer) error {
	data, err := o.Figure6Data(ctx)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Figure 6 — Speedup of continuous optimization over baseline")
	tw := newTab(w)
	cur := ""
	var suiteVals []float64
	flush := func() {
		if cur != "" {
			fmt.Fprintf(tw, "%s\tavg\t%.3f\n", cur, exper.Geomean(suiteVals))
		}
		suiteVals = nil
	}
	for _, d := range data {
		if d.Suite != cur {
			flush()
			cur = d.Suite
		}
		suiteVals = append(suiteVals, d.Speedup)
		fmt.Fprintf(tw, "%s\t%s\t%.3f\n", d.Suite, d.Name, d.Speedup)
	}
	flush()
	return tw.Flush()
}

// Effects is one row of Table 3: the percentage effects of continuous
// optimization aggregated over a suite (or overall, for Name "avg").
type Effects struct {
	Name string
	// ExecEarly is the share of the instruction stream executed in the
	// optimizer.
	ExecEarly float64
	// MispredRecovered is the share of mispredicted branches resolved in
	// the optimizer.
	MispredRecovered float64
	// AddrGen is the share of memory operations whose effective address
	// was generated in the optimizer.
	AddrGen float64
	// LoadsRemoved is the share of loads converted to moves by RLE/SF.
	LoadsRemoved float64
}

// Table3Data runs the default optimized machine over the full workload
// and returns one Effects row per suite plus an overall "avg" row — the
// machine-readable form of Table3.
func (o Options) Table3Data(ctx context.Context) ([]Effects, error) {
	runs, err := o.runMatrix(ctx, workloads.All(), []pipeline.Config{pipeline.DefaultConfig()})
	if err != nil {
		return nil, err
	}

	type agg struct {
		early, renamed          uint64
		recovered, mispredicted uint64
		addrKnown, memOps       uint64
		loadsRemoved, loads     uint64
	}
	per := map[string]*agg{}
	total := &agg{}
	for _, r := range runs {
		a := per[r.bench.Suite]
		if a == nil {
			a = &agg{}
			per[r.bench.Suite] = a
		}
		res := r.results[0]
		for _, dst := range []*agg{a, total} {
			dst.early += res.Opt.EarlyExecuted
			dst.renamed += res.Opt.Renamed
			dst.recovered += res.EarlyRecovered
			dst.mispredicted += res.Mispredicted
			dst.addrKnown += res.Opt.AddrKnown
			dst.memOps += res.Opt.MemOps
			dst.loadsRemoved += res.Opt.LoadsRemoved
			dst.loads += res.Opt.Loads
		}
	}
	pct := func(n, d uint64) float64 {
		if d == 0 {
			return 0
		}
		return 100 * float64(n) / float64(d)
	}
	row := func(name string, a *agg) Effects {
		return Effects{
			Name:             name,
			ExecEarly:        pct(a.early, a.renamed),
			MispredRecovered: pct(a.recovered, a.mispredicted),
			AddrGen:          pct(a.addrKnown, a.memOps),
			LoadsRemoved:     pct(a.loadsRemoved, a.loads),
		}
	}
	out := make([]Effects, 0, 4)
	for _, s := range workloads.Suites() {
		out = append(out, row(s, per[s]))
	}
	return append(out, row("avg", total)), nil
}

// Table3 prints the effects of continuous optimization per suite: %
// instructions executed early, % mispredicted branches recovered in the
// optimizer, % memory ops with optimizer-generated addresses, and %
// loads removed.
func (o Options) Table3(ctx context.Context, w io.Writer) error {
	rows, err := o.Table3Data(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 3 — Effects of continuous optimization")
	tw := newTab(w)
	fmt.Fprintln(tw, "benchmark\texec. early\trecov. mispred. brs.\tld/st addr. gen.\tlds removed")
	for _, e := range rows {
		fmt.Fprintf(tw, "%s\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\n", e.Name,
			e.ExecEarly, e.MispredRecovered, e.AddrGen, e.LoadsRemoved)
	}
	return tw.Flush()
}
