package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/exper"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/workloads"
)

// sweepBenches are sweep-sampled's programs, one per behavior class, at
// default scale (200k–330k instructions), where none falls back to an
// exact run.
var sweepBenches = []string{"mgd", "gcc", "tst", "cra"}

const sweepConfigs = 30

// sweepConfigSet draws the seed's 30 configs: ten in each of three
// cache/predictor geometries, each with its own window size. Warmed
// state depends only on the geometry, so configs sharing one share
// warming work and the others do not. Window sizes are drawn one per
// stratum of 32..256, so every seed offers the same amount of work
// and only which configs it names changes.
func sweepConfigSet(seed int64) []pipeline.Config {
	rng := rand.New(rand.NewSource(seed*31 + 7))
	geoms := []func(*pipeline.Config){
		func(*pipeline.Config) {},
		func(c *pipeline.Config) {
			c.Caches.L1D.SizeB = 16 << 10
			c.BPred.IndexBits, c.BPred.HistoryBits = 14, 14
		},
		func(c *pipeline.Config) {
			c.Caches.L1D.SizeB, c.Caches.L1D.Assoc = 64<<10, 4
			c.Caches.L2.SizeB = 512 << 10
		},
	}
	const sizes = 29 // 32, 40, ..., 256
	per := sweepConfigs / len(geoms)
	var out []pipeline.Config
	for g, geom := range geoms {
		for k := 0; k < per; k++ {
			lo, hi := k*sizes/per, (k+1)*sizes/per
			c := pipeline.DefaultConfig()
			c.WindowSize = 32 + 8*(lo+rng.Intn(hi-lo))
			geom(&c)
			c.Name = fmt.Sprintf("w%d-g%d", c.WindowSize, g)
			out = append(out, c)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func sweepBenchmarks() ([]*workloads.Benchmark, error) {
	var out []*workloads.Benchmark
	for _, n := range sweepBenches {
		b, ok := workloads.ByName(n)
		if !ok {
			return nil, fmt.Errorf("no benchmark %q", n)
		}
		out = append(out, b)
	}
	return out, nil
}

type sweepPass struct {
	passTimes
	cells [][]*pipeline.Result
	stats exper.Stats
}

func sweepPassRun(ctx context.Context, t *Tracer, nproc int, benches []*workloads.Benchmark, cfgs []pipeline.Config) (*sweepPass, error) {
	root := t.Begin(0, "workload.sweep-sampled", "")
	defer root.End()
	p := &sweepPass{}
	var r *exper.Runner
	runtime.GC() // leave the previous pass's garbage out of set-up
	setup, err := timeSetup(t, func(t *Tracer) error {
		var err error
		t.do(root.ID(), "setup", "", func(id int) {
			err = assemble(t, id, benches, 0)
			r = exper.NewRunner(nproc)
		})
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	pt, err := timeRegion(func() error {
		var merr error
		t.do(root.ID(), "exper.sampled_matrix", "", func(int) {
			p.cells, merr = r.SampledMatrix(ctx, benches, cfgs, 0, sample.DefaultConfig())
		})
		return merr
	})
	if err != nil {
		return nil, err
	}
	p.passTimes = pt
	p.setup = setup
	p.stats = r.Stats()
	return p, nil
}

func cellsDigest(cells [][]*pipeline.Result) string {
	var parts []string
	for _, row := range cells {
		for _, r := range row {
			parts = append(parts, simKey(r))
		}
	}
	return digest(parts...)
}

func sweepDigest(ctx context.Context, seed int64) (string, error) {
	benches, err := sweepBenchmarks()
	if err != nil {
		return "", err
	}
	p, err := sweepPassRun(ctx, nil, 0, benches, sweepConfigSet(seed))
	if err != nil {
		return "", err
	}
	return cellsDigest(p.cells), nil
}

func runSweepSampled(e *env) (*outcome, error) {
	o := newOutcome()
	benches, err := sweepBenchmarks()
	if err != nil {
		return nil, err
	}
	cfgs := sweepConfigSet(e.seed)
	counts := instCounts(benches, 0)
	var tracer *Tracer
	if e.traced {
		tracer = newTracer()
	}
	var untraced, traced []*sweepPass
	start := time.Now()
	for i := 0; keepGoing(e, start, len(untraced)+len(traced), 3); i++ {
		var t *Tracer
		if e.traced && i%2 == 1 {
			t = tracer
		}
		p, err := sweepPassRun(e.ctx, t, e.nproc, benches, cfgs)
		if err != nil {
			return nil, err
		}
		o.attempted += len(benches) * len(cfgs)
		for bi, row := range p.cells {
			for ci, r := range row {
				if !r.Sampled || r.Retired != counts[benches[bi].Name] {
					o.fail(1, "pass %d cell %s/%s: not a whole-run sampled estimate", i, benches[bi].Name, cfgs[ci].Name)
				}
			}
		}
		if t != nil {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
	}
	if e.ctx.Err() != nil {
		return nil, e.ctx.Err()
	}
	last := untraced[len(untraced)-1]
	want := cellsDigest(last.cells)
	var times []passTimes
	var rates []float64
	var insts uint64
	for _, b := range benches {
		insts += counts[b.Name] * uint64(len(cfgs))
	}
	for i, p := range untraced {
		times = append(times, p.passTimes)
		rates = append(rates, float64(insts)/1e6/p.wall.Seconds())
		if got := cellsDigest(p.cells); got != want {
			o.fail(len(cfgs)*len(benches), "pass %d: estimates differ from the last pass's", i)
		}
	}
	passSummary(o, times)
	o.m["sim_minsts_per_s"] = median(rates)
	checkDigest(e, o, "sweep-sampled", want)
	sweepSpotCheck(e, o, benches, cfgs, last.cells, counts)
	o.m["sample_ipc_err_pct"] = sampleIPCError(e.ctx, o)

	if e.traced {
		tp := traced[len(traced)-1]
		if cellsDigest(tp.cells) != want {
			o.fail(1, "traced pass estimates differ from the untraced pass")
		}
		engineMetrics(o.m, exper.Stats{}, tp.stats)
		var uw, tw []float64
		for _, p := range untraced {
			uw = append(uw, p.wall.Seconds())
		}
		for _, p := range traced {
			tw = append(tw, p.wall.Seconds())
		}
		o.m["trace.overhead_frac"] = median(tw)/median(uw) - 1
		spans := tracer.Spans()
		o.m["trace.coverage_frac"] = passCoverage(spans, "workload.sweep-sampled", "setup")
		o.m["workloads.program_s"] = totalTime(spans, "workloads.program").Seconds() / float64(len(traced))
		// Layer re-drive: every window of each program under the first
		// config, plus the instruction-count pass the engine runs ahead
		// of the plan.
		var l ledger
		red := tracer.Begin(0, "redrive", "")
		for _, b := range benches {
			prog := b.Program(0)
			l.countT += tracer.do(red.ID(), "emu.count", b.Name, func(int) { instCounts([]*workloads.Benchmark{b}, 0) })
			if err := l.sampledProgram(e.ctx, tracer, red.ID(), prog, cfgs[0], counts[b.Name]); err != nil {
				o.fail(1, "re-drive %s: %v", b.Name, err)
			}
			// Functional warming drives the caches and predictor; time
			// them standalone over this program's stream too.
			if err := l.recordAndStandalone(e.ctx, tracer, red.ID(), prog, cfgs[0]); err != nil {
				o.fail(1, "re-drive %s: %v", b.Name, err)
			}
		}
		red.End()
		l.metrics(o.m)
		var cells []*pipeline.Result
		for _, row := range last.cells {
			cells = append(cells, row...)
		}
		simMetrics(o.m, cells)
		o.spans = tracer.Spans()
	}
	finishOps(o)
	return o, nil
}

// sweepSpotCheck recomputes a seeded handful of cells through
// sample.RunTotal — building its own plan — instead of the engine's
// shared plan, and compares the estimates.
func sweepSpotCheck(e *env, o *outcome, benches []*workloads.Benchmark, cfgs []pipeline.Config, cells [][]*pipeline.Result, counts map[string]uint64) {
	rng := rand.New(rand.NewSource(e.seed + 101))
	for k := 0; k < 3; k++ {
		bi, ci := rng.Intn(len(benches)), rng.Intn(len(cfgs))
		b := benches[bi]
		o.attempted++
		est, err := sample.RunTotal(e.ctx, cfgs[ci], b.Program(0), sample.DefaultConfig(), counts[b.Name])
		if err != nil {
			o.fail(1, "spot check %s: %v", b.Name, err)
			continue
		}
		got := cells[bi][ci]
		if simKey(est.Estimate()) != simKey(got) {
			o.fail(1, "spot check %s/%s: shared-plan estimate differs from RunTotal", b.Name, cfgs[ci].Name)
		}
	}
}
