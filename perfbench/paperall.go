package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/exper"
	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/workloads"
)

// paperScale is paper-all's benchmark scale. At 4 every exact cell
// runs long enough (2k–280k instructions) for Session.Run to dominate
// it, and a pass takes a few seconds on two cores, so several fit in
// one run.
const paperScale = 4

// artifacts is `contopt all`, in the CLI's order.
var artifacts = []struct {
	name string
	run  func(harness.Options, context.Context, io.Writer) error
}{
	{"table1", harness.Options.Table1},
	{"figure6", harness.Options.Figure6},
	{"table3", harness.Options.Table3},
	{"figure8", harness.Options.Figure8},
	{"figure9", harness.Options.Figure9},
	{"figure10", harness.Options.Figure10},
	{"figure11", harness.Options.Figure11},
	{"figure12", harness.Options.Figure12},
	{"ablations", func(o harness.Options, ctx context.Context, w io.Writer) error {
		if err := o.MBCSweep(ctx, w); err != nil {
			return err
		}
		fmt.Fprintln(w)
		return o.PolicySweep(ctx, w)
	}},
	{"discrete", harness.Options.DiscreteSweep},
	{"dead", harness.Options.DeadValues},
}

// assemble materializes benches at scale from source, as a fresh
// process's first Benchmark.Program call does (Program caches, so it
// cannot time a second set-up).
func assemble(t *Tracer, parent int, benches []*workloads.Benchmark, scale int) error {
	for _, b := range benches {
		var err error
		t.do(parent, "workloads.program", b.Name, func(int) { _, err = asm.Assemble(b.Name, b.Source(scale)) })
		if err != nil {
			return fmt.Errorf("assembling %s: %w", b.Name, err)
		}
	}
	return nil
}

// instCounts returns each benchmark's dynamic instruction count.
func instCounts(benches []*workloads.Benchmark, scale int) map[string]uint64 {
	out := map[string]uint64{}
	for _, b := range benches {
		m := emu.New(b.Program(scale))
		m.Run(0)
		out[b.Name] = m.InstCount()
	}
	return out
}

// paperPass is one run of every artifact on a fresh engine.
type paperPass struct {
	passTimes
	text     string
	stats    exper.Stats
	artifact map[string]time.Duration
	runner   *exper.Runner
	// retired is derived from the simulation count; telemetry sums the
	// same quantity from engine progress (traced passes only).
	retired   uint64
	telemetry atomic.Uint64
}

func paperAllPass(ctx context.Context, t *Tracer, nproc int, budget int64) (*paperPass, error) {
	root := t.Begin(0, "workload.paper-all", "")
	defer root.End()
	p := &paperPass{artifact: map[string]time.Duration{}}
	runtime.GC() // leave the previous pass's garbage out of set-up
	setup, err := timeSetup(t, func(t *Tracer) error {
		var err error
		t.do(root.ID(), "setup", "", func(id int) {
			err = assemble(t, id, workloads.All(), paperScale)
			p.runner = exper.NewRunner(nproc)
			p.runner.SetTraceBudget(budget)
		})
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	if t != nil {
		// Engine telemetry sums the retired instructions of every exact
		// simulation, to cross-check the count the untraced passes derive.
		p.runner.Observe(func(pr exper.Progress) {
			p.telemetry.Add(pr.Interval.Retired)
		})
	}
	opts := harness.Options{Scale: paperScale, Engine: p.runner}
	var buf bytes.Buffer
	pt, err := timeRegion(func() error {
		for _, a := range artifacts {
			fmt.Fprintf(&buf, "== %s\n", a.name)
			var aerr error
			p.artifact[a.name] = t.do(root.ID(), "harness."+a.name, "", func(int) { aerr = a.run(opts, ctx, &buf) })
			if aerr != nil {
				return fmt.Errorf("%s: %w", a.name, aerr)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.passTimes = pt
	p.setup = setup
	p.text = buf.String()
	p.stats = p.runner.Stats()
	return p, nil
}

// paperTraceBudget is half of paper-all's trace working set — the ratio
// `contopt all` runs at by default (182 traces recorded for 22
// benchmarks at default scale), so re-record thrash shows here too.
func paperTraceBudget(counts map[string]uint64) int64 {
	var insts uint64
	for _, n := range counts {
		insts += n
	}
	return int64(insts * emu.DynInstBytes / 2)
}

func paperAllText(ctx context.Context, nproc int) (string, error) {
	benches := workloads.All()
	p, err := paperAllPass(ctx, nil, nproc, paperTraceBudget(instCounts(benches, paperScale)))
	if err != nil {
		return "", err
	}
	return p.text, nil
}

func runPaperAll(e *env) (*outcome, error) {
	o := newOutcome()
	benches := workloads.All()
	counts := instCounts(benches, paperScale) // also fills the Program cache
	budget := paperTraceBudget(counts)
	var totalInsts uint64
	for _, n := range counts {
		totalInsts += n
	}
	var want string
	if err := readRef(refPaperAll, &want); err != nil {
		return nil, err
	}

	var tracer *Tracer
	if e.traced {
		tracer = newTracer()
	}
	var untraced, traced []*paperPass
	start := time.Now()
	for i := 0; keepGoing(e, start, len(untraced)+len(traced), 3); i++ {
		var t *Tracer
		if e.traced && i%2 == 1 {
			t = tracer
		}
		// A finished engine keeps hundreds of MiB of memoized state; only
		// the last pass's is needed (for the spot check), and an earlier
		// one must not count in this pass's heap.
		for _, q := range append(untraced, traced...) {
			q.runner = nil
		}
		p, err := paperAllPass(e.ctx, t, e.nproc, budget)
		if err != nil {
			return nil, err
		}
		o.note("pass %d: wall %.3fs cpu %.3fs heap %.0f MiB, %d traces recorded", i, p.wall.Seconds(), p.cpu.Seconds(), float64(p.heapPeak)/(1<<20), p.stats.TraceRecords)
		requests := int(p.stats.Simulations + p.stats.MemHits)
		o.attempted += requests
		if p.text != want {
			o.fail(requests, "pass %d: artifact text differs from %s/%s", i, refsDir, refPaperAll)
		}
		// Every exact cell retires its whole program, and every config
		// of every artifact covers all 22 benchmarks.
		if p.stats.Simulations%uint64(len(benches)) != 0 {
			o.fail(1, "pass %d: %d simulations is not a whole number of configs", i, p.stats.Simulations)
		}
		p.retired = p.stats.Simulations / uint64(len(benches)) * totalInsts
		if t != nil {
			if got := p.telemetry.Load(); got != p.retired {
				o.fail(1, "pass %d: telemetry retired %d, derived %d", i, got, p.retired)
			}
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
	}
	if e.ctx.Err() != nil {
		return nil, e.ctx.Err()
	}
	last := untraced[len(untraced)-1]
	if last.runner == nil { // the final pass was traced
		last.runner = traced[len(traced)-1].runner
	}
	var times []passTimes
	var rates []float64
	for _, p := range untraced {
		times = append(times, p.passTimes)
		rates = append(rates, float64(p.retired)/1e6/p.wall.Seconds())
	}
	passSummary(o, times)
	o.m["sim_minsts_per_s"] = median(rates)
	checkDigest(e, o, "paper-all", digest(last.text))
	paperSpotCheck(e, o, last.runner)
	o.m["sample_ipc_err_pct"] = sampleIPCError(e.ctx, o)

	if e.traced {
		tp := traced[len(traced)-1]
		for _, a := range artifacts {
			o.m["harness."+a.name+"_s"] = tp.artifact[a.name].Seconds()
		}
		o.m["harness.core_util"] = tp.cpu.Seconds() / (tp.wall.Seconds() * float64(e.nproc))
		engineMetrics(o.m, exper.Stats{}, tp.stats)
		if tp.text != last.text {
			o.fail(1, "traced pass output differs from the untraced pass")
		}
		var uw, tw []float64
		for _, p := range untraced {
			uw = append(uw, p.wall.Seconds())
		}
		for _, p := range traced {
			tw = append(tw, p.wall.Seconds())
		}
		o.m["trace.overhead_frac"] = median(tw)/median(uw) - 1
		spans := tracer.Spans()
		o.m["trace.coverage_frac"] = passCoverage(spans, "workload.paper-all", "setup")
		// Layer re-drive: the programs under paper-all, on the default
		// optimized machine.
		var l ledger
		red := tracer.Begin(0, "redrive", "")
		for _, b := range benches {
			if err := l.exactProgram(e.ctx, tracer, red.ID(), b.Program(paperScale), pipeline.DefaultConfig()); err != nil {
				o.fail(1, "re-drive %s: %v", b.Name, err)
			}
		}
		red.End()
		l.metrics(o.m)
		o.m["workloads.program_s"] = totalTime(spans, "workloads.program").Seconds() / float64(len(traced))
		var cells []*pipeline.Result
		for _, b := range benches {
			for _, cfg := range checkConfigs() {
				r, err := last.runner.Run(e.ctx, cfg, b, paperScale)
				if err != nil {
					return nil, err
				}
				cells = append(cells, r)
			}
		}
		simMetrics(o.m, cells)
		o.spans = tracer.Spans()
	}
	finishOps(o)
	return o, nil
}

// paperSpotCheck re-runs a seeded handful of cells live through
// pipeline.New, independently of the engine's trace replay, and
// compares them with the engine's memoized results.
func paperSpotCheck(e *env, o *outcome, r *exper.Runner) {
	rng := rand.New(rand.NewSource(e.seed))
	benches := workloads.All()
	for k := 0; k < 4; k++ {
		b := benches[rng.Intn(len(benches))]
		cfg := checkConfigs()[rng.Intn(2)]
		o.attempted++
		got, err := r.Run(e.ctx, cfg, b, paperScale)
		if err != nil {
			o.fail(1, "spot check %s: %v", b.Name, err)
			continue
		}
		s, err := pipeline.New(cfg, b.Program(paperScale))
		if err != nil {
			o.fail(1, "spot check %s: %v", b.Name, err)
			continue
		}
		live, err := s.Run(e.ctx, pipeline.RunOpts{})
		if err != nil {
			o.fail(1, "spot check %s: %v", b.Name, err)
			continue
		}
		if simKey(got) != simKey(live) {
			o.fail(1, "spot check %s/%s: engine result differs from a live run", b.Name, cfg.Name)
		}
	}
}

// engineMetrics writes the deltas of the engine's counters, as read at
// the benchmark's boundary.
func engineMetrics(m map[string]float64, before, after exper.Stats) {
	d := func(a, b uint64) float64 { return float64(a - b) }
	m["exper.simulations"] = d(after.Simulations, before.Simulations)
	m["exper.mem_hits"] = d(after.MemHits, before.MemHits)
	m["exper.store_hits"] = d(after.StoreHits, before.StoreHits)
	m["exper.trace_records"] = d(after.TraceRecords, before.TraceRecords)
	m["exper.trace_hits"] = d(after.TraceHits, before.TraceHits)
	if n := m["exper.trace_records"] + m["exper.trace_hits"]; n > 0 {
		m["exper.trace_hit_ratio"] = m["exper.trace_hits"] / n
	} else {
		m["exper.trace_hit_ratio"] = 0
	}
	m["exper.trace_resident_mib"] = float64(after.TraceBytes) / (1 << 20)
	m["exper.plan_builds"] = d(after.PlanBuilds, before.PlanBuilds)
	m["exper.plan_hits"] = d(after.PlanHits, before.PlanHits)
	m["exper.plan_store_hits"] = d(after.PlanStoreHits, before.PlanStoreHits)
}

// passCoverage is the share of the last traced pass's timed region
// (its root span minus set-up) that layer spans directly under the
// root cover.
func passCoverage(spans []Span, rootName, skip string) float64 {
	var root *Span
	for i := range spans {
		if spans[i].Name == rootName {
			root = &spans[i]
		}
	}
	if root == nil {
		return 0
	}
	lo := root.Start
	var layer []Span
	for _, s := range spans {
		if s.Parent != root.ID {
			continue
		}
		if s.Name == skip {
			lo = max(lo, s.End)
			continue
		}
		layer = append(layer, s)
	}
	return Coverage(layer, root.ID, lo, root.End)
}
