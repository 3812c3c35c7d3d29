package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"time"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/regfile"
	"repro/internal/sample"
)

// The traced run re-drives the layers under a workload from their
// public functions, one call at a time, so each layer's work is timed
// at its own boundary. Nothing inside the simulator is instrumented:
// every span below wraps a call this file makes.

// do runs fn under a span and returns its duration.
func (t *Tracer) do(parent int, name, req string, fn func(id int)) time.Duration {
	s := t.Begin(parent, name, req)
	t0 := time.Now()
	fn(s.ID())
	d := time.Since(t0)
	s.End()
	return d
}

// ledger accumulates one workload's per-layer work counts and busy
// times across re-driven calls.
type ledger struct {
	recordT, countT                time.Duration
	recordInsts, traceBytes        uint64
	sessions                       int
	setupT, runT, warmerT          time.Duration
	warmers                        int
	runRetired, runAllocs          uint64
	renameT, cacheT, bpredT        time.Duration
	renamed, accesses, predictions uint64
	// sampled windows
	planT                                 time.Duration
	planBytes                             uint64
	windows                               int
	restoreT, warmT, detailSetT, detailRT time.Duration
	warmInsts, measured                   uint64
}

func allocCount() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// session times one session's construction and run.
func (l *ledger) session(ctx context.Context, t *Tracer, parent int, req string, mk func() (*pipeline.Session, error), opts pipeline.RunOpts) (*pipeline.Result, time.Duration, time.Duration, error) {
	var s *pipeline.Session
	var err error
	setup := t.do(parent, "pipeline.setup", req, func(int) { s, err = mk() })
	if err != nil {
		return nil, 0, 0, err
	}
	var r *pipeline.Result
	a0 := allocCount()
	run := t.do(parent, "pipeline.run", req, func(int) { r, err = s.Run(ctx, opts) })
	if err != nil {
		return nil, 0, 0, err
	}
	l.runAllocs += allocCount() - a0
	l.sessions++
	l.setupT += setup
	l.runT += run
	l.runRetired += r.Retired
	return r, setup, run, nil
}

// exactProgram re-drives one program's exact-simulation layers: trace
// recording, the instruction-count pass, live and replay session
// set-up and a replayed run, the warmer, and the optimizer, caches and
// predictor standalone over the recorded trace.
func (l *ledger) exactProgram(ctx context.Context, t *Tracer, parent int, prog *emu.Program, cfg pipeline.Config) error {
	req := prog.Name
	tr, err := l.record(ctx, t, parent, prog)
	if err != nil {
		return err
	}
	l.countT += t.do(parent, "emu.count", req, func(int) { emu.New(prog).Run(0) })
	if _, _, _, err := l.session(ctx, t, parent, req, func() (*pipeline.Session, error) { return pipeline.NewReplay(cfg, prog, tr) }, pipeline.RunOpts{}); err != nil {
		return err
	}
	var live *pipeline.Session
	l.setupT += t.do(parent, "pipeline.setup", req, func(int) { live, err = pipeline.New(cfg, prog) })
	if err != nil {
		return err
	}
	_ = live // constructed only to time live set-up; never run
	l.sessions++
	l.warmerT += t.do(parent, "pipeline.warmer_new", req, func(int) { pipeline.NewWarmer(cfg) })
	l.warmers++
	l.standalone(t, parent, req, tr, cfg.Normalize())
	return nil
}

func (l *ledger) record(ctx context.Context, t *Tracer, parent int, prog *emu.Program) (*emu.Trace, error) {
	var tr *emu.Trace
	var err error
	l.recordT += t.do(parent, "emu.record", prog.Name, func(int) { tr, err = emu.Record(ctx, prog, 0) })
	if err != nil {
		return nil, err
	}
	l.recordInsts += uint64(tr.Len())
	l.traceBytes += tr.Bytes()
	return tr, nil
}

// recordAndStandalone records prog's trace and times the optimizer,
// caches and predictor standalone over it.
func (l *ledger) recordAndStandalone(ctx context.Context, t *Tracer, parent int, prog *emu.Program, cfg pipeline.Config) error {
	tr, err := l.record(ctx, t, parent, prog)
	if err != nil {
		return err
	}
	l.standalone(t, parent, prog.Name, tr, cfg.Normalize())
	return nil
}

// standaloneCap bounds the instructions each standalone layer replays.
const standaloneCap = 200_000

// standalone times the optimizer's rename, the cache hierarchy and the
// branch predictor alone, each fed the trace's instructions the way the
// pipeline feeds them.
func (l *ledger) standalone(t *Tracer, parent int, req string, tr *emu.Trace, cfg pipeline.Config) {
	var d emu.DynInst
	l.cacheT += t.do(parent, "cache.access", req, func(int) {
		h := cache.NewHierarchy(cfg.Caches)
		lineB := uint64(cfg.Caches.L1I.LineB)
		last := ^uint64(0)
		rd := tr.NewReader()
		for n := 0; n < standaloneCap && rd.StepInto(&d); n++ {
			addr := d.PC * 4
			if line := addr &^ (lineB - 1); line != last {
				h.InstFetch(addr)
				h.InstFetch(addr + lineB)
				last = line
				l.accesses += 2
			}
			if d.Inst.Op.IsLoad() {
				h.DataAccess(d.Addr)
				l.accesses++
			}
		}
	})
	l.bpredT += t.do(parent, "bpred.predict", req, func(int) {
		p := bpred.New(cfg.BPred)
		rd := tr.NewReader()
		for n := 0; n < standaloneCap && rd.StepInto(&d); n++ {
			in := d.Inst
			if !in.Op.IsBranch() {
				continue
			}
			pred := p.Predict(d.PC, in.Op, in.Op == isa.JMP && in.SrcA == isa.IntReg(26))
			mis := pred.Taken != d.Taken || (d.Taken && (!pred.TargetKnown || pred.Target != d.NextPC))
			p.Update(d.PC, in.Op, d.Taken, d.NextPC, mis)
			l.predictions++
		}
	})
	l.renameT += t.do(parent, "core.rename", req, func(int) { l.renamed += renameTrace(tr, cfg) })
}

// renameTrace renames up to standaloneCap instructions through a fresh
// optimizer, holding a window's worth in flight: the oldest retires
// (value feedback, then register release) when the window or the
// register file is full.
func renameTrace(tr *emu.Trace, cfg pipeline.Config) uint64 {
	type slot struct {
		d    emu.DynInst
		deps [2]regfile.PReg
		res  core.RenameResult
	}
	prf := regfile.New(cfg.PRegs)
	opt := core.NewOptimizer(cfg.Opt, prf)
	ring := make([]slot, cfg.WindowSize)
	head, live := 0, 0
	retire := func() {
		s := &ring[head]
		if s.res.Dest != regfile.NoPReg && cfg.Opt.Mode != core.ModeBaseline {
			opt.Feedback(s.res.Dest, s.d.Result)
		}
		prf.Release(s.res.Dest)
		for _, p := range s.res.Deps {
			prf.Release(p)
		}
		head = (head + 1) % len(ring)
		live--
	}
	rd := tr.NewReader()
	var n uint64
	for ; n < standaloneCap; n++ {
		if n%uint64(cfg.FetchWidth) == 0 {
			opt.BeginBundle()
		}
		for live == len(ring) || (live > 0 && !opt.CanRename()) {
			retire()
		}
		s := &ring[(head+live)%len(ring)]
		if !rd.StepInto(&s.d) {
			break
		}
		s.res = opt.RenameInto(&s.d, s.deps[:0])
		live++
	}
	for live > 0 {
		retire()
	}
	return n
}

// sampledProgram re-drives every window of prog's sampled run under cfg
// from public calls — checkpoint restore (emu.NewAt), functional
// warming (NewWarmer + RunObserved), detailed set-up
// (NewFromCheckpointWarmed) and the detailed run — and checks the
// measured windows against RunPlanned's.
func (l *ledger) sampledProgram(ctx context.Context, t *Tracer, parent int, prog *emu.Program, cfg pipeline.Config, total uint64) error {
	sc := sample.DefaultConfig().Normalize()
	var plan *sample.Plan
	var err error
	l.planT += t.do(parent, "sample.plan_build", prog.Name, func(int) { plan, err = sample.BuildPlan(ctx, prog, sc, total) })
	if err != nil {
		return err
	}
	l.planBytes += plan.Bytes()
	want, err := sample.RunPlanned(ctx, cfg, prog, sc, plan)
	if err != nil {
		return err
	}
	var got []sample.Window
	for i, pw := range plan.Windows {
		req := fmt.Sprintf("%s#%d", prog.Name, i)
		var werr error
		t.do(parent, "sample.window", req, func(id int) {
			var m *emu.Machine
			l.restoreT += t.do(id, "sample.restore", req, func(int) { m = emu.NewAt(prog, pw.Ck) })
			var w *pipeline.Warmer
			l.warmerT += t.do(id, "pipeline.warmer_new", req, func(int) { w = pipeline.NewWarmer(cfg) })
			l.warmers++
			l.warmT += t.do(id, "sample.warm", req, func(int) { m.RunObserved(pw.Start-m.InstCount(), w.Observe) })
			l.warmInsts += pw.Start - pw.WarmFrom
			if m.Halted() {
				return
			}
			ws := w.Borrow()
			if pw.WarmFrom == pw.Start {
				ws = pipeline.WarmState{}
			}
			r, setup, run, err := l.session(ctx, t, id, req, func() (*pipeline.Session, error) {
				if pw.WarmFrom == pw.Start {
					return pipeline.NewFromCheckpoint(cfg, prog, pw.Ck)
				}
				return pipeline.NewFromCheckpointWarmed(cfg, prog, m.Snapshot(), ws)
			}, pipeline.RunOpts{MaxRetired: sc.Warmup + sc.Window, WarmupRetired: sc.Warmup})
			if err != nil {
				werr = err
				return
			}
			l.detailSetT += setup
			l.detailRT += run
			if mw := r.Measured; mw != nil && mw.Retired > 0 {
				got = append(got, sample.Window{StartInst: pw.Start, Cycles: mw.Cycles, Retired: mw.Retired})
				l.measured += mw.Retired
			}
		})
		if werr != nil {
			return werr
		}
	}
	l.windows += len(got)
	if len(got) != len(want.Windows) {
		return fmt.Errorf("%s: re-driven run measured %d windows, RunPlanned %d", prog.Name, len(got), len(want.Windows))
	}
	for i, g := range got {
		w := want.Windows[i]
		if g.StartInst != w.StartInst || g.Cycles != w.Cycles || g.Retired != w.Retired {
			return fmt.Errorf("%s window %d: re-driven (start %d, %d cycles, %d retired) differs from RunPlanned (start %d, %d cycles, %d retired)",
				prog.Name, i, g.StartInst, g.Cycles, g.Retired, w.StartInst, w.Cycles, w.Retired)
		}
	}
	return nil
}

// metrics writes the ledger's per-layer metrics.
func (l *ledger) metrics(m map[string]float64) {
	per := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["emu.record_s"] = l.recordT.Seconds()
	m["emu.record_minsts_per_s"] = per(float64(l.recordInsts)/1e6, l.recordT.Seconds())
	m["emu.trace_bytes_per_inst"] = per(float64(l.traceBytes), float64(l.recordInsts))
	m["emu.count_s"] = l.countT.Seconds()
	m["pipeline.sessions"] = float64(l.sessions)
	m["pipeline.setup_us_per_session"] = per(float64(l.setupT.Microseconds()), float64(l.sessions))
	m["pipeline.run_s"] = l.runT.Seconds()
	m["pipeline.run_minsts_per_s"] = per(float64(l.runRetired)/1e6, l.runT.Seconds())
	m["pipeline.allocs_per_kinst"] = per(float64(l.runAllocs), float64(l.runRetired)/1000)
	m["pipeline.warmer_new_us"] = per(float64(l.warmerT.Microseconds()), float64(l.warmers))
	m["core.rename_ns_per_inst"] = per(float64(l.renameT.Nanoseconds()), float64(l.renamed))
	m["cache.access_ns"] = per(float64(l.cacheT.Nanoseconds()), float64(l.accesses))
	m["bpred.predict_ns"] = per(float64(l.bpredT.Nanoseconds()), float64(l.predictions))
	m["sample.plan_build_s"] = l.planT.Seconds()
	m["sample.plan_mib"] = float64(l.planBytes) / (1 << 20)
	m["sample.windows"] = float64(l.windows)
	m["sample.restore_s"] = l.restoreT.Seconds()
	m["sample.warm_s"] = l.warmT.Seconds()
	m["sample.warm_insts_per_measured_inst"] = per(float64(l.warmInsts), float64(l.measured))
	m["sample.detail_setup_s"] = l.detailSetT.Seconds()
	m["sample.detail_run_s"] = l.detailRT.Seconds()
}
