package sample

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/pipeline"
)

// Config sets the sampling regime. All units are dynamic instructions.
// The zero value is replaced by DefaultConfig; individually zero Window
// or TargetWindows fall back to their defaults (a zero Warmup in an
// otherwise non-zero Config genuinely means "no warmup", and a zero
// Period means auto-scaling).
type Config struct {
	// Period is the distance between consecutive detailed-window starts
	// (each window sits at the midpoint of its period-long stratum).
	// Zero means auto: the period is chosen per program as TotalInsts /
	// TargetWindows, floored so detailed coverage stays near or below
	// ~20% and capped so at least a handful of windows always fit —
	// short programs get proportionally denser windows than long ones,
	// which is what keeps the estimator accurate across scales.
	Period uint64
	// Warmup is the number of instructions each detailed window runs
	// before measurement begins; their statistics are discarded.
	Warmup uint64
	// Window is the number of instructions measured per detailed window.
	Window uint64
	// TargetWindows is the window count auto-period aims for (ignored
	// when Period > 0).
	TargetWindows int
	// MaxWindows caps how many detailed windows run (0 = every Period
	// boundary until the program ends).
	MaxWindows int
	// ColdStart disables functional warming: between windows the
	// emulator fast-forwards without training the caches and branch
	// predictor, so every detailed window starts cold. Fast-forward is
	// cheaper, but Warmup must then be large enough to refill those
	// structures — with warming on (the default), a few hundred
	// instructions of detailed warmup suffice.
	ColdStart bool
	// Workers bounds how many detailed windows run concurrently (0 =
	// GOMAXPROCS); under RunPlannedGroup a worker runs one window for
	// every config of the group before taking the next. Windows are
	// independent — each owns its checkpoint and warms its own
	// cache/predictor state from its trailing stretch — so the estimate
	// is identical for any worker count and any grouping of configs;
	// Workers is therefore excluded from Key.
	Workers int
}

// DefaultConfig is the sampling regime the CLI's -sample flag uses:
// 500-instruction detailed windows (200 warmup + 300 measured) at an
// auto-scaled period aiming for ~16 windows per program. Functional
// warming (caches and branch predictor trained during fast-forward) is
// what makes 200 instructions of detailed warmup sufficient.
func DefaultConfig() Config {
	return Config{Warmup: 200, Window: 300, TargetWindows: 16}
}

// Normalize fills defaults: the zero Config becomes DefaultConfig, and
// a partially set Config gets the default Window (and, when Period is
// auto, TargetWindows) where zero.
func (c Config) Normalize() Config {
	// Workers is pure execution policy (it never changes the estimate),
	// so a Config that sets nothing else still means "the default
	// regime".
	z := c
	z.Workers = 0
	if z == (Config{}) {
		d := DefaultConfig()
		d.Workers = c.Workers
		return d
	}
	d := DefaultConfig()
	if c.Window == 0 {
		c.Window = d.Window
	}
	if c.Period == 0 && c.TargetWindows == 0 {
		c.TargetWindows = d.TargetWindows
	}
	return c
}

// Validate rejects regimes that cannot work: windows must measure
// something, and consecutive fixed-period windows must not overlap (the
// estimator assumes disjoint measured regions).
func (c Config) Validate() error {
	if c.Window == 0 {
		return fmt.Errorf("sample: Window must be positive")
	}
	if c.Period > 0 && c.Period < c.Warmup+c.Window {
		return fmt.Errorf("sample: Period %d shorter than Warmup %d + Window %d (windows would overlap)",
			c.Period, c.Warmup, c.Window)
	}
	if c.Period == 0 && c.TargetWindows <= 0 {
		return fmt.Errorf("sample: auto period needs TargetWindows > 0")
	}
	if c.MaxWindows < 0 {
		return fmt.Errorf("sample: MaxWindows %d must be non-negative", c.MaxWindows)
	}
	if c.Workers < 0 {
		return fmt.Errorf("sample: Workers %d must be non-negative", c.Workers)
	}
	return nil
}

// minSpacing floors the auto period at minSpacing × (Warmup + Window),
// capping detailed coverage near 1/minSpacing.
const minSpacing = 5

// warmStretchFactor bounds functional warming: each window observes
// only the warmStretchFactor × (Warmup + Window) instructions
// trailing its start into fresh cache/predictor clones, and everything
// before that fast-forwards raw. The stretch must cover the history
// the window-start state actually depends on (predictor history, hot
// cache lines); because windows warm independently — nothing
// accumulates across windows, which is what makes them
// order-independent and safe to run concurrently — the stretch is
// sized generously. 24 matches the measured accuracy of the old
// continuous-warming scheme (factor 6 with state accumulated across
// the whole run) on every sample-check benchmark, and its cost is
// independent of program length, so planned sampled runs still scale.
const warmStretchFactor = 24

// shortRunFactor: a program shorter than shortRunFactor × (Warmup +
// Window) is simulated exactly instead of sampled — sampling a run
// that a handful of detailed windows would cover anyway only adds
// estimation error on top of comparable cost.
const shortRunFactor = 10

// minWindowCount is the fewest windows auto-period accepts: below ~5
// samples the estimate degenerates to whichever phases the windows
// happen to hit. Short programs get a denser-than-minSpacing period to
// reach it — they are cheap, so the extra coverage costs little.
const minWindowCount = 5

// periodFor resolves the sampling period for a program of totalInsts
// dynamic instructions (0 = too short, use the exact fallback).
func (c Config) periodFor(totalInsts uint64) uint64 {
	detail := c.Warmup + c.Window
	if totalInsts < shortRunFactor*detail {
		return 0
	}
	if c.Period > 0 {
		return c.Period
	}
	p := totalInsts / uint64(c.TargetWindows)
	if min := minSpacing * detail; p < min {
		p = min
	}
	if max := totalInsts / minWindowCount; p > max {
		p = max
	}
	if p < detail {
		p = detail
	}
	return p
}

// Key returns a canonical string identifying the sampling regime, used
// (together with the machine config key) to key sampled-result caches
// so exact and sampled results never collide. Workers is excluded (it
// cannot change the estimate). The leading "2." is an estimator
// version marker: window warming became per-window (each window warms
// independently from its trailing stretch instead of accumulating
// warm state across the run), which shifts estimates slightly, so
// results persisted under the old scheme must not be returned for the
// new one.
func (c Config) Key() string {
	cold := ""
	if c.ColdStart {
		cold = ".cold"
	}
	return fmt.Sprintf("2.p%d.t%d.w%d.m%d.x%d%s", c.Period, c.TargetWindows, c.Warmup, c.Window, c.MaxWindows, cold)
}

// Window is one measured detailed window, flattened from the session's
// pipeline.MeasuredWindow by measuredWindow. It keeps its own flat
// fields instead of embedding pipeline.Counters: code in other packages
// builds Windows with keyed literals ({StartInst: …, Cycles: …}), and
// Go rejects promoted fields in a composite literal. It carries no
// stall counters, so Estimate leaves them zero.
type Window struct {
	// Index is the window's position in the run, from 0.
	Index int
	// StartInst is the dynamic instruction the detailed session was
	// seeded at (the checkpoint position; warmup begins here).
	StartInst uint64
	// WarmupCycles and WarmupRetired cover the discarded warmup region.
	WarmupCycles  uint64
	WarmupRetired uint64
	// Cycles and Retired are the measured region's extent.
	Cycles  uint64
	Retired uint64
	// Branch events of the measured region (see pipeline.Result).
	Mispredicted    uint64
	EarlyRecovered  uint64
	LateRecovered   uint64
	DecodeRedirects uint64
	// Opt holds the optimizer events of the measured region.
	Opt core.Stats
}

// CPI returns the window's measured cycles per instruction.
func (w Window) CPI() float64 {
	if w.Retired == 0 {
		return 0
	}
	return float64(w.Cycles) / float64(w.Retired)
}

// IPC returns the window's measured instructions per cycle.
func (w Window) IPC() float64 {
	if w.Cycles == 0 {
		return 0
	}
	return float64(w.Retired) / float64(w.Cycles)
}

// Result is a sampled-simulation estimate of one (machine, program)
// run: the per-window measurements plus the derived whole-run estimate
// and its confidence interval.
type Result struct {
	// Machine, Program, ConfigKey, Scale identify the run like a
	// pipeline.Result; Sampling records the regime that produced it.
	Machine   string
	Program   string
	ConfigKey string
	Scale     int
	Sampling  Config

	// TotalInsts is the program's exact dynamic instruction count,
	// observed by the functional fast-forward crossing the whole run.
	TotalInsts uint64

	// Period is the resolved sampling period — Sampling.Period, or the
	// auto-scaled value when that was zero (0 when the exact fallback
	// ran and no sampling happened).
	Period uint64

	// Windows holds every measured detailed window in order.
	Windows []Window

	// MeasuredCycles and MeasuredRetired sum the measured regions.
	MeasuredCycles  uint64
	MeasuredRetired uint64

	// EstCycles is the whole-run cycle estimate: TotalInsts × CPI where
	// CPI = MeasuredCycles / MeasuredRetired (the retirement-weighted
	// mean of the window CPIs).
	EstCycles uint64

	// CIHalfWidth is the half-width of the 95% confidence interval on
	// the mean window CPI (0 when fewer than two windows measured), and
	// RelCI the same as a fraction of the mean CPI.
	CIHalfWidth float64
	RelCI       float64

	// ExactFallback marks a program too short to sample (it ended
	// inside the first window's warmup): the "estimate" is then a full
	// detailed run and is exact.
	ExactFallback bool
}

// EstIPC returns the estimated whole-run IPC.
func (r *Result) EstIPC() float64 {
	if r.MeasuredCycles == 0 {
		return 0
	}
	return float64(r.MeasuredRetired) / float64(r.MeasuredCycles)
}

// DetailedInsts returns how many instructions ran through the detailed
// model (warmup + measured), the cost side of the sampling trade.
func (r *Result) DetailedInsts() uint64 {
	var n uint64
	for _, w := range r.Windows {
		n += w.WarmupRetired + w.Retired
	}
	return n
}

// Coverage returns the fraction of the program simulated in detail.
func (r *Result) Coverage() float64 {
	if r.TotalInsts == 0 {
		return 0
	}
	return float64(r.DetailedInsts()) / float64(r.TotalInsts)
}

// SpeedupOver returns base.EstCycles / r.EstCycles — the sampled analog
// of pipeline.Result.SpeedupOver.
func (r *Result) SpeedupOver(base *Result) float64 {
	if r.EstCycles == 0 {
		return 0
	}
	return float64(base.EstCycles) / float64(r.EstCycles)
}

// String summarizes the estimate.
func (r *Result) String() string {
	return fmt.Sprintf("%s/%s: %d insts, ~%d cycles (est, %d windows, ±%.1f%% CI), IPC %.3f",
		r.Program, r.Machine, r.TotalInsts, r.EstCycles, len(r.Windows), 100*r.RelCI, r.EstIPC())
}

// Estimate renders the sampled result as a whole-run pipeline.Result
// with Sampled set: Cycles is the estimate, Retired the exact total
// instruction count, and the event counters are the window sums
// extrapolated by TotalInsts / MeasuredRetired — a uniform factor, so
// every derived ratio (Table 3's percentages, misprediction rates) is
// preserved from the measured windows. This is what lets the harness
// artifacts format sampled runs exactly like exact ones.
func (r *Result) Estimate() *pipeline.Result {
	est := &pipeline.Result{
		Machine:   r.Machine,
		Program:   r.Program,
		ConfigKey: r.ConfigKey,
		Scale:     r.Scale,
		Sampled:   true,
		Counters:  pipeline.Counters{Cycles: r.EstCycles, Retired: r.TotalInsts},
	}
	if r.MeasuredRetired == 0 {
		return est
	}
	var mis, early, late, dec uint64
	var opt core.Stats
	for _, w := range r.Windows {
		mis += w.Mispredicted
		early += w.EarlyRecovered
		late += w.LateRecovered
		dec += w.DecodeRedirects
		opt = opt.Add(w.Opt)
	}
	f := float64(r.TotalInsts) / float64(r.MeasuredRetired)
	scale := func(v uint64) uint64 { return uint64(math.Round(float64(v) * f)) }
	est.Mispredicted = scale(mis)
	est.EarlyRecovered = scale(early)
	est.LateRecovered = scale(late)
	est.DecodeRedirects = scale(dec)
	est.Opt = opt.Scale(f)
	return est
}

// finalize derives the whole-run estimate from the collected windows.
func (r *Result) finalize() {
	for _, w := range r.Windows {
		r.MeasuredCycles += w.Cycles
		r.MeasuredRetired += w.Retired
	}
	if r.MeasuredRetired == 0 {
		return
	}
	cpi := float64(r.MeasuredCycles) / float64(r.MeasuredRetired)
	r.EstCycles = uint64(math.Round(float64(r.TotalInsts) * cpi))
	if n := len(r.Windows); n >= 2 {
		mean := 0.0
		for _, w := range r.Windows {
			mean += w.CPI()
		}
		mean /= float64(n)
		varsum := 0.0
		for _, w := range r.Windows {
			d := w.CPI() - mean
			varsum += d * d
		}
		sd := math.Sqrt(varsum / float64(n-1))
		r.CIHalfWidth = 1.96 * sd / math.Sqrt(float64(n))
		if mean > 0 {
			r.RelCI = r.CIHalfWidth / mean
		}
	}
}

// emuChunk bounds instructions between context checks while
// fast-forwarding.
const emuChunk = 1 << 20

// forward advances the emulator to dynamic instruction target (or HALT,
// whichever comes first), checking ctx between chunks. A non-nil warmer
// observes every instruction (functional warming); nil fast-forwards
// through the emulator's allocation-free raw loop.
func forward(ctx context.Context, m *emu.Machine, target uint64, w *pipeline.Warmer) error {
	for !m.Halted() && m.InstCount() < target {
		n := target - m.InstCount()
		if n > emuChunk {
			n = emuChunk
		}
		if w != nil {
			m.RunObserved(n, w.Observe)
		} else {
			m.Run(n)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Run executes prog under cfg with sampling regime sc and returns the
// whole-run estimate. Canceling ctx aborts promptly with an error
// wrapping ctx.Err(). Sampled runs are fully deterministic: the same
// (cfg, prog, sc) always yields an identical Result.
func Run(ctx context.Context, cfg pipeline.Config, prog *emu.Program, sc Config) (*Result, error) {
	// Pre-pass: one raw (allocation-free) emulation establishes the
	// exact dynamic instruction count, which auto-period scales against
	// and the estimator extrapolates to. Callers that already know the
	// count (the experiment engine memoizes it) use RunTotal instead.
	if ctx == nil {
		ctx = context.Background()
	}
	pre := emu.New(prog)
	if err := forward(ctx, pre, math.MaxUint64, nil); err != nil {
		return nil, err
	}
	return RunTotal(ctx, cfg, prog, sc, pre.InstCount())
}

// RunTotal is Run for callers that already know prog's dynamic
// instruction count (it must be exact — the estimator extrapolates to
// it and schedules windows against it), skipping Run's counting
// pre-pass. The experiment engine feeds it the memoized InstCount, so
// the count is established once per (benchmark, scale) no matter how
// many machine configurations sample it.
//
// RunTotal is BuildPlan + RunPlanned: callers that sample the same
// program under many machine configurations should build the
// (config-independent) plan once, which pays the whole-program
// fast-forward exactly once, and run the configs together through
// RunPlannedGroup, which warms each window once per cache/predictor
// geometry instead of once per config.
func RunTotal(ctx context.Context, cfg pipeline.Config, prog *emu.Program, sc Config, totalInsts uint64) (*Result, error) {
	sc = sc.Normalize()
	plan, err := BuildPlan(ctx, prog, sc, totalInsts)
	if err != nil {
		return nil, err
	}
	return RunPlanned(ctx, cfg, prog, sc, plan)
}

// PlanWindow is one scheduled detailed window: an architectural
// checkpoint at the point functional warming begins, plus the window's
// position in the stream. The checkpoint is never consumed (sessions
// copy its memory image), so one plan serves any number of machine
// configurations, and any number of workers concurrently.
// RunPlannedGroup restores it once per warm group, warms over
// [WarmFrom, Start) once, and seeds every member of the group from the
// result.
type PlanWindow struct {
	// Index is the window's position in the schedule, from 0.
	Index int
	// Start is the dynamic instruction the detailed region begins at
	// (warmup first, then the measured window).
	Start uint64
	// WarmFrom is where functional warming begins: Start minus the
	// warm stretch (floored at 0), or equal to Start under ColdStart.
	// Ck sits at WarmFrom; the gap [WarmFrom, Start) is emulated under
	// a per-window warmer before the detailed session is seeded.
	WarmFrom uint64
	// Ck is the architectural state at WarmFrom.
	Ck *emu.Checkpoint
}

// Plan is the config-independent half of a sampled run: the window
// schedule for one (program, sampling regime, total instruction count)
// triple, with an architectural checkpoint per window. Building it
// costs one raw fast-forward across the program, so the experiment
// engine caches plans and replays them across every machine
// configuration of a sweep. A Plan is read-only after BuildPlan and
// safe for concurrent use.
//
// A Plan with Period == 0 schedules no windows: the program is too
// short to sample and RunPlanned falls back to one exact detailed run.
type Plan struct {
	// Program names the program the plan was built from; RunPlanned
	// rejects a plan for a different program.
	Program string
	// TotalInsts is the exact dynamic instruction count the plan was
	// scheduled against.
	TotalInsts uint64
	// Period is the resolved sampling period (0 = exact fallback).
	Period uint64
	// Windows is the schedule, in stream order.
	Windows []PlanWindow
}

// Bytes returns the approximate resident size of the plan — the
// checkpoints' memory images dominate — for cache budget accounting.
func (p *Plan) Bytes() uint64 {
	const ckOverhead = 1 << 10 // registers + headers, per window
	var n uint64
	for _, w := range p.Windows {
		n += ckOverhead
		if w.Ck != nil && w.Ck.Mem != nil {
			n += uint64(w.Ck.Mem.PageCount()) * mem.PageSize
		}
	}
	return n
}

// BuildPlan schedules the detailed windows for a program of totalInsts
// dynamic instructions under regime sc, snapshotting the architectural
// state at each window's warm-from point with a single monotone
// fast-forward pass. One window per period-length stratum, centered:
// the detailed region sits at the stratum midpoint rather than its
// left edge, so each measurement represents its stratum's average
// behavior rather than over-weighting the boundary (the left-edge
// window of the first stratum would measure the program's coldest
// startup instructions and bias the whole estimate). A window whose
// full warmup+measure extent would run past the program end is dropped
// (its truncated measurement would be drain-biased), and emulation
// stops at the last window's warm-from point — instructions past it
// are never needed here.
func BuildPlan(ctx context.Context, prog *emu.Program, sc Config, totalInsts uint64) (*Plan, error) {
	sc = sc.Normalize()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if totalInsts == 0 {
		return nil, fmt.Errorf("sample: totalInsts must be positive")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	plan := &Plan{Program: prog.Name, TotalInsts: totalInsts}
	period := sc.periodFor(totalInsts)
	if period == 0 {
		return plan, nil // too short to sample: exact fallback
	}
	plan.Period = period
	detail := sc.Warmup + sc.Window
	stretch := warmStretchFactor * detail
	m := emu.New(prog)
	for start := (period - detail) / 2; start+detail <= totalInsts; start += period {
		if sc.MaxWindows > 0 && len(plan.Windows) >= sc.MaxWindows {
			break
		}
		warmFrom := start
		if !sc.ColdStart && start > 0 {
			if start > stretch {
				warmFrom = start - stretch
			} else {
				warmFrom = 0
			}
		}
		if err := forward(ctx, m, warmFrom, nil); err != nil {
			return nil, err
		}
		if m.Halted() {
			break // totalInsts overstated; drop the unreachable windows
		}
		plan.Windows = append(plan.Windows, PlanWindow{
			Index:    len(plan.Windows),
			Start:    start,
			WarmFrom: warmFrom,
			Ck:       m.Snapshot(),
		})
	}
	return plan, nil
}

// RunPlanned executes plan's detailed windows under cfg and returns
// the whole-run estimate. It is RunPlannedGroup for one config: the
// same windows, dispatched to the same pool of sc.Workers goroutines
// and merged by schedule index, so the Result is identical for any
// worker count, byte for byte.
func RunPlanned(ctx context.Context, cfg pipeline.Config, prog *emu.Program, sc Config, plan *Plan) (*Result, error) {
	res, err := RunPlannedGroup(ctx, []pipeline.Config{cfg}, prog, sc, plan)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// RunPlannedGroup executes plan's detailed windows under every config
// of cfgs and returns their estimates, parallel to cfgs. It runs the
// plan window-major: for each window it restores the checkpoint, warms
// one Warmer over [WarmFrom, Start) and snapshots the state at Start
// once per warm group — the configs whose (normalized) Caches and BPred
// are equal, taken in order of first appearance, since warmed state
// depends on nothing else — and seeds every member's session from
// that warmed state: a copy for each member but the last (Warmer.State
// for the first, then Warmer.StateInto the previous member's finished
// structures), while the last borrows the warmer itself. Copies
// reproduce contents exactly and a Window carries no cache or
// predictor statistics, so each Result is identical to RunPlanned's
// for the same config: grouping changes the cost, never the estimate.
// A group of one does exactly RunPlanned's work.
//
// Windows are independent, so they are dispatched to a pool of
// sc.Workers goroutines (0 = GOMAXPROCS); each worker holds one window
// — for the whole group — at a time. The first error, which fails the
// whole group, cancels the rest.
func RunPlannedGroup(ctx context.Context, cfgs []pipeline.Config, prog *emu.Program, sc Config, plan *Plan) ([]*Result, error) {
	norm := make([]pipeline.Config, len(cfgs))
	for i, cfg := range cfgs {
		norm[i] = cfg.Normalize()
		if err := norm[i].Validate(); err != nil {
			return nil, err
		}
	}
	sc = sc.Normalize()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if plan == nil {
		return nil, fmt.Errorf("sample: nil plan")
	}
	if plan.Program != prog.Name {
		return nil, fmt.Errorf("sample: plan for %q cannot run program %q", plan.Program, prog.Name)
	}
	if plan.TotalInsts == 0 {
		return nil, fmt.Errorf("sample: plan has zero TotalInsts")
	}
	if ctx == nil {
		ctx = context.Background()
	}

	res := make([]*Result, len(norm))
	for i, cfg := range norm {
		res[i] = &Result{
			Machine:    cfg.Name,
			Program:    prog.Name,
			ConfigKey:  cfg.Key(),
			Sampling:   sc,
			TotalInsts: plan.TotalInsts,
		}
	}
	if plan.Period == 0 || len(plan.Windows) == 0 {
		// Too short to sample (or totalInsts was overstated and no
		// window fit): one exact detailed run per config, recorded as a
		// single all-measured window.
		err := forEach(ctx, len(norm), sc.Workers, func(ctx context.Context, i int) (err error) {
			defer fault.CatchPanic(&err, fmt.Sprintf("sample: exact run of %s under %s", prog.Name, norm[i].Name))
			return res[i].exactFallback(ctx, norm[i], prog)
		})
		if err != nil {
			return nil, err
		}
		return res, nil
	}

	// Window i of every config lands in its Windows[i]; one that
	// yields no measurable window (the program halts first) stays zero
	// and is compacted away below.
	for _, r := range res {
		r.Windows = make([]Window, len(plan.Windows))
	}
	groups := warmGroups(norm)
	err := forEach(ctx, len(plan.Windows), sc.Workers, func(ctx context.Context, i int) error {
		return runWindow(ctx, norm, groups, prog, sc, plan.Windows[i], i, res)
	})
	if err != nil {
		return nil, err
	}
	for c, r := range res {
		r.Period = plan.Period
		n := 0
		for _, w := range r.Windows {
			if w.Retired == 0 {
				continue
			}
			w.Index = n
			r.Windows[n] = w
			n++
		}
		r.Windows = r.Windows[:n]
		if n == 0 {
			// Defensive: every scheduled window fell inside a halt
			// region; fall back to exact.
			r.Period, r.Windows = 0, nil
			if err := r.exactFallback(ctx, norm[c], prog); err != nil {
				return nil, err
			}
			continue
		}
		r.finalize()
	}
	return res, nil
}

// warmGroups partitions normalized configs into warm groups, in order
// of first appearance: configs whose cache hierarchy and branch
// predictor are configured alike reach identical warmed state.
func warmGroups(cfgs []pipeline.Config) [][]int {
	at := map[pipeline.Config]int{}
	var groups [][]int
	for i, cfg := range cfgs {
		k := pipeline.Config{Caches: cfg.Caches, BPred: cfg.BPred}
		g, ok := at[k]
		if !ok {
			g = len(groups)
			at[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

// runWindow executes scheduled window pw (index idx) under every
// config, one warm group at a time, storing config c's measurement in
// res[c].Windows[idx]. It runs behind a containment boundary: a
// window that panics (or hits the sample.window fault point) fails —
// and through the earliest-error rule, the run — without taking the
// process or its sibling workers down. The fault key "program#idx"
// lets clauses target one window of one workload.
func runWindow(ctx context.Context, cfgs []pipeline.Config, groups [][]int, prog *emu.Program, sc Config, pw PlanWindow, idx int, res []*Result) (err error) {
	defer fault.CatchPanic(&err, fmt.Sprintf("sample: window %d of %s", idx, prog.Name))
	if err := fault.InjectCtx(ctx, "sample.window", fmt.Sprintf("%s#%d", prog.Name, idx)); err != nil {
		return err
	}
	for _, g := range groups {
		if err := runGroupWindow(ctx, cfgs, g, prog, sc, pw, idx, res); err != nil {
			return err
		}
	}
	return nil
}

// runGroupWindow runs window pw (index idx) for the members of one
// warm group, filling their res[c].Windows[idx]: resume the emulator at
// the checkpoint, warm one cache/predictor set over the [WarmFrom,
// Start) stretch (skipped under ColdStart, where the checkpoint already
// sits at Start), and seed each member's detailed session from the
// warmed state for warmup + measured window.
func runGroupWindow(ctx context.Context, cfgs []pipeline.Config, members []int, prog *emu.Program, sc Config, pw PlanWindow, idx int, res []*Result) error {
	if pw.WarmFrom == pw.Start {
		for _, c := range members {
			s, err := pipeline.NewFromCheckpoint(cfgs[c], prog, pw.Ck)
			if err != nil {
				return err
			}
			if res[c].Windows[idx], err = detail(ctx, s, pw.Start, sc); err != nil {
				return err
			}
		}
		return nil
	}
	m := emu.NewAt(prog, pw.Ck)
	warmer := pipeline.NewWarmer(cfgs[members[0]])
	if err := forward(ctx, m, pw.Start, warmer); err != nil {
		return err
	}
	if m.Halted() {
		return nil
	}
	ck := m.Snapshot()
	var ws pipeline.WarmState
	for j, c := range members {
		// Each member but the last gets a copy of the warmed state,
		// recycling the previous member's structures once its session
		// has finished. The last borrows the warmer itself: the warmer
		// is private to this window, and that session is the last user
		// of its structures.
		if j < len(members)-1 {
			ws = warmer.StateInto(ws)
		} else {
			ws = warmer.Borrow()
		}
		s, err := pipeline.NewFromCheckpointWarmed(cfgs[c], prog, ck, ws)
		if err != nil {
			return err
		}
		if res[c].Windows[idx], err = detail(ctx, s, pw.Start, sc); err != nil {
			return err
		}
	}
	return nil
}

// detail runs a seeded session through warmup + measured window and
// extracts the measured window (zero when there is none).
func detail(ctx context.Context, s *pipeline.Session, start uint64, sc Config) (Window, error) {
	r, err := s.Run(ctx, pipeline.RunOpts{
		MaxRetired:    sc.Warmup + sc.Window,
		WarmupRetired: sc.Warmup,
	})
	if err != nil {
		return Window{}, err
	}
	return windowOf(r, start, sc), nil
}

// forEach runs job(ctx, i) for every i in [0, n) on a pool of workers
// goroutines (0 = GOMAXPROCS; 1 runs inline). The first error cancels
// the jobs not yet finished; the earliest-indexed error is returned,
// so the reported failure does not depend on worker scheduling, and a
// cancellation-induced error never masks the caller's own context
// error. Jobs must contain their own panics.
func forEach(ctx context.Context, n, workers int, job func(context.Context, int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := job(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		errMu  sync.Mutex
		werr   error
		werrAt = int64(n)
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				if err := job(wctx, int(i)); err != nil {
					errMu.Lock()
					if i < werrAt {
						werrAt, werr = i, err
					}
					errMu.Unlock()
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return werr
}

// exactFallback fills res with one exact detailed run of the whole
// program, recorded as a single all-measured window, and finalizes it.
func (r *Result) exactFallback(ctx context.Context, cfg pipeline.Config, prog *emu.Program) error {
	s, err := pipeline.New(cfg, prog)
	if err != nil {
		return err
	}
	er, err := s.Run(ctx, pipeline.RunOpts{})
	if err != nil {
		return err
	}
	r.ExactFallback = true
	r.Windows = append(r.Windows, measuredWindow(0, &pipeline.MeasuredWindow{Counters: er.Counters, Opt: er.Opt}))
	r.finalize()
	return nil
}

// windowOf extracts the measured window from one detailed run: the
// post-warmup region when warmup was requested, or the whole truncated
// run when the regime has no warmup. A run that measured nothing — the
// program ended during warmup (nil Measured) or at once — yields the
// zero Window, whose Retired is 0.
func windowOf(r *pipeline.Result, start uint64, sc Config) Window {
	mw := r.Measured
	if sc.Warmup == 0 {
		mw = &pipeline.MeasuredWindow{Counters: r.Counters, Opt: r.Opt}
	}
	if mw == nil || mw.Retired == 0 {
		return Window{}
	}
	return measuredWindow(start, mw)
}

// measuredWindow is the one conversion from a session's measured region
// to a Window seeded at dynamic instruction start.
func measuredWindow(start uint64, mw *pipeline.MeasuredWindow) Window {
	return Window{
		StartInst:       start,
		WarmupCycles:    mw.WarmupCycles,
		WarmupRetired:   mw.WarmupRetired,
		Cycles:          mw.Cycles,
		Retired:         mw.Retired,
		Mispredicted:    mw.Mispredicted,
		EarlyRecovered:  mw.EarlyRecovered,
		LateRecovered:   mw.LateRecovered,
		DecodeRedirects: mw.DecodeRedirects,
		Opt:             mw.Opt,
	}
}
