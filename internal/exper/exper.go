package exper

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/emu"
	"repro/internal/fault"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/store"
	"repro/internal/workloads"
)

// DefaultProgressInterval is the telemetry granularity, in machine
// cycles, used for engine-level observers unless SetProgressInterval
// overrides it.
const DefaultProgressInterval = 100_000

// emuChunk bounds how many instructions the architectural emulator runs
// between context checks in InstCount.
const emuChunk = 1 << 20

// Runner executes simulations with bounded parallelism and memoizes
// results by (config key, benchmark, scale). The zero value is not
// usable; call NewRunner. A Runner is safe for concurrent use.
type Runner struct {
	sem chan struct{}

	sims    *memo[simKey, *pipeline.Result]
	sampled *memo[sampleKey, *sample.Result]
	counts  *memo[countKey, uint64]
	wkeys   *memo[countKey, string]

	// Decode-once tables (see trace.go): recorded traces per
	// (benchmark, scale) and sampled-run plans per (benchmark, scale,
	// regime), sharing one byte budget and LRU order.
	decode *budget
	traces *memo[countKey, *emu.Trace]
	plans  *memo[planKey, *sample.Plan]

	omu           sync.Mutex
	observers     []func(Progress)
	progressEvery uint64

	store atomic.Pointer[store.Store]

	memHits         atomic.Uint64
	storeHits       atomic.Uint64
	runs            atomic.Uint64
	traceHits       atomic.Uint64
	traceRecords    atomic.Uint64
	planHits        atomic.Uint64
	planBuilds      atomic.Uint64
	planStoreHits   atomic.Uint64
	planStoreWrites atomic.Uint64

	// Resilience state (see resilience.go): rmu guards the policy
	// knobs and the jitter PRNG; the counters and degraded flag are
	// atomic because they sit on hot paths.
	rmu           sync.Mutex
	logFn         func(format string, args ...any)
	retryAttempts int
	retryBase     time.Duration
	probeEvery    time.Duration
	watchSoft     time.Duration
	watchHard     time.Duration
	jrng          uint64

	degraded        atomic.Bool
	probeAt         atomic.Int64
	panicsRecovered atomic.Uint64
	storeDegrades   atomic.Uint64
	storeRetries    atomic.Uint64
	watchdogStalls  atomic.Uint64
	watchdogKills   atomic.Uint64
}

type simKey struct {
	cfg   string
	bench string
	scale int
}

// sampleKey keys sampled runs: the machine config key plus the sampling
// regime key. Sampled estimates live in their own map, so an exact and
// a sampled result for the same (config, benchmark, scale) can never
// collide — they are different estimators of the same quantity.
type sampleKey struct {
	cfg      string
	bench    string
	scale    int
	sampling string
}

type countKey struct {
	bench string
	scale int
}

// storeKey maps each memo key to its persistent-store key, given the
// workload's content hash w.
func (k simKey) storeKey(w string) store.Key { return store.ExactKey(k.cfg, k.bench, k.scale, w) }

func (k sampleKey) storeKey(w string) store.Key {
	return store.SampledKey(k.cfg, k.bench, k.scale, k.sampling, w)
}

func (k countKey) storeKey(w string) store.Key { return store.CountKey(k.bench, k.scale, w) }

// NewRunner builds an engine whose worker pool admits at most
// parallelism concurrent simulations (0 = GOMAXPROCS).
func NewRunner(parallelism int) *Runner {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	decode := &budget{limit: DefaultTraceBudget}
	return &Runner{
		sem:     make(chan struct{}, parallelism),
		sims:    newMemo[simKey, *pipeline.Result](nil, nil),
		sampled: newMemo[sampleKey, *sample.Result](nil, nil),
		counts:  newMemo[countKey, uint64](nil, nil),
		wkeys:   newMemo[countKey, string](nil, nil),
		decode:  decode,
		traces: newMemo[countKey, *emu.Trace](decode, func(tr *emu.Trace) int64 {
			if tr == nil {
				return 0 // negative cache: the workload is simulated live
			}
			return int64(tr.Bytes())
		}),
		plans:         newMemo[planKey, *sample.Plan](decode, func(p *sample.Plan) int64 { return int64(p.Bytes()) }),
		progressEvery: DefaultProgressInterval,
		retryAttempts: defaultRetryAttempts,
		retryBase:     defaultRetryBase,
		probeEvery:    defaultProbeEvery,
		jrng:          1,
	}
}

// SetStore attaches a persistent result store below the in-memory
// cache: every cache miss first consults the store (read-through), and
// every freshly computed result is persisted before its waiters are
// released (write-behind the memory layer), making results durable
// across processes and sweeps resumable after a crash or Ctrl-C. The
// store sees exactly the engine's cache keys — exact results, sampled
// estimates (regime-keyed), instruction counts and sampled-run window
// plans live in disjoint namespaces — and any store read error,
// including a corrupt entry, is
// treated as a miss and resimulated, never surfaced. Persistence
// failures are also non-fatal: the run still succeeds, it just is not
// durable. Transient I/O errors are retried with bounded backoff, and
// persistent trouble degrades the engine to memory-only caching with a
// periodic re-attach probe (see resilience.go). Attach the store before
// launching work; a nil store detaches.
func (r *Runner) SetStore(st *store.Store) {
	r.store.Store(st)
	// A freshly attached store starts trusted; degraded state described
	// the previous one.
	r.degraded.Store(false)
}

// Stats reports cache effectiveness. Simulations is the number of
// simulations the engine started executing (including any later
// abandoned by cancellation) — the misses that cost real work. MemHits
// counts requests served from the in-process cache, including requests
// that waited on an in-flight simulation of the same key; StoreHits
// counts cache misses answered by the persistent store without
// simulating (always 0 without SetStore). A warm resumed sweep is the
// pattern {Simulations: 0, StoreHits: n}.
//
// The decode-once counters measure the trace/plan layer: TraceRecords
// and PlanBuilds are the architectural passes actually paid
// (recording a dynamic stream; building a sampled window plan), and
// TraceHits/PlanHits the simulations that reused one — a 30-config
// sweep cell at full effectiveness is {TraceRecords: 1, TraceHits:
// 29}. Sampled cells fetch plans per group — a lone RunSampled cell or
// a SampledMatrix row — so a 30-config sampled row is {PlanBuilds: 1,
// PlanHits: 0}, and 30 lone cells are {PlanBuilds: 1, PlanHits: 29}.
// PlanStoreHits counts plan-cache misses answered by the
// persistent store instead of a build, and PlanStoreWrites plans
// persisted after a build (both always 0 without SetStore): a sampled
// sweep sharded across processes is the pattern {PlanBuilds: 1 in one
// process, PlanStoreHits > 0 everywhere else}. TraceBytes is the
// resident size of both caches right now, bounded by SetTraceBudget.
// Stats marshals to JSON with stable snake_case field names, so
// services can expose a snapshot directly (e.g. a /metrics endpoint),
// and String renders the CLI's "-v" stat lines — one formatter for
// every surface that reports engine effectiveness.
type Stats struct {
	Simulations uint64 `json:"simulations"`
	MemHits     uint64 `json:"mem_hits"`
	StoreHits   uint64 `json:"store_hits"`

	TraceRecords    uint64 `json:"trace_records"`
	TraceHits       uint64 `json:"trace_hits"`
	PlanBuilds      uint64 `json:"plan_builds"`
	PlanHits        uint64 `json:"plan_hits"`
	PlanStoreHits   uint64 `json:"plan_store_hits"`
	PlanStoreWrites uint64 `json:"plan_store_writes"`
	TraceBytes      uint64 `json:"trace_bytes"`

	// The resilience counters (see resilience.go): PanicsRecovered is
	// cells/jobs whose panic was contained; StoreRetries transient store
	// operations retried; StoreDegraded times the engine fell back to
	// memory-only caching; WatchdogStalls soft-deadline diagnostics and
	// WatchdogKills hard-deadline cancellations. All zero on a healthy
	// run — nonzero values are the failure story of the process.
	PanicsRecovered uint64 `json:"panics_recovered"`
	StoreRetries    uint64 `json:"store_retries"`
	StoreDegraded   uint64 `json:"store_degraded"`
	WatchdogStalls  uint64 `json:"watchdog_stalls"`
	WatchdogKills   uint64 `json:"watchdog_kills"`
}

// String renders the snapshot as the two human-readable stat lines the
// CLI prints under -v (no trailing newline). Keeping the formatter on
// the type means the CLI and the serve /metrics log lines cannot drift
// apart field-by-field.
func (s Stats) String() string {
	return fmt.Sprintf("engine: %d simulations, %d memory hits, %d store hits\n"+
		"engine: decode-once: %d traces recorded, %d replayed; %d plans built, %d reused (%d store hits, %d store writes); %.1f MiB resident\n"+
		"engine: resilience: %d panics recovered, %d store retries, %d store degradations, %d watchdog stalls, %d watchdog kills",
		s.Simulations, s.MemHits, s.StoreHits,
		s.TraceRecords, s.TraceHits, s.PlanBuilds, s.PlanHits,
		s.PlanStoreHits, s.PlanStoreWrites, float64(s.TraceBytes)/(1<<20),
		s.PanicsRecovered, s.StoreRetries, s.StoreDegraded, s.WatchdogStalls, s.WatchdogKills)
}

// Stats returns a snapshot of the runner's counters.
func (r *Runner) Stats() Stats {
	_, resident := r.decode.current()
	return Stats{
		Simulations:     r.runs.Load(),
		MemHits:         r.memHits.Load(),
		StoreHits:       r.storeHits.Load(),
		TraceRecords:    r.traceRecords.Load(),
		TraceHits:       r.traceHits.Load(),
		PlanBuilds:      r.planBuilds.Load(),
		PlanHits:        r.planHits.Load(),
		PlanStoreHits:   r.planStoreHits.Load(),
		PlanStoreWrites: r.planStoreWrites.Load(),
		TraceBytes:      uint64(resident),
		PanicsRecovered: r.panicsRecovered.Load(),
		StoreRetries:    r.storeRetries.Load(),
		StoreDegraded:   r.storeDegrades.Load(),
		WatchdogStalls:  r.watchdogStalls.Load(),
		WatchdogKills:   r.watchdogKills.Load(),
	}
}

// Progress is one interval of one simulation, tagged with the run's
// identity — what engine-level observers receive.
type Progress struct {
	// Machine and ConfigKey identify the simulated configuration
	// (display name and canonical content hash).
	Machine   string
	ConfigKey string
	// Benchmark and Scale identify the workload.
	Benchmark string
	Scale     int
	// Interval is the telemetry record (cycles, retired, IPC, branch
	// and optimizer events for the interval).
	Interval pipeline.IntervalStats
}

// Observe registers fn as an engine-level progress observer: every
// simulation the engine subsequently starts reports its interval
// telemetry to fn. Observers run synchronously on simulation
// goroutines and must be fast and concurrency-safe. Register observers
// before launching work.
func (r *Runner) Observe(fn func(Progress)) {
	r.omu.Lock()
	defer r.omu.Unlock()
	r.observers = append(r.observers, fn)
}

// SetProgressInterval sets the telemetry granularity (in cycles) for
// engine-level observers. Values <= 0 restore the default.
func (r *Runner) SetProgressInterval(cycles uint64) {
	r.omu.Lock()
	defer r.omu.Unlock()
	if cycles <= 0 {
		cycles = DefaultProgressInterval
	}
	r.progressEvery = cycles
}

// runOpts builds the pipeline RunOpts for one simulation, wiring the
// engine's observers to it (nil Observer and zero Interval when no
// observer is registered, keeping unobserved runs telemetry-free).
// Engine telemetry is stream-only: the cached Result does not retain
// the interval series, so observing a long sweep costs no memory.
func (r *Runner) runOpts(cfg *pipeline.Config, bench *workloads.Benchmark, scale int) pipeline.RunOpts {
	r.omu.Lock()
	obs := make([]func(Progress), len(r.observers))
	copy(obs, r.observers)
	every := r.progressEvery
	r.omu.Unlock()
	if len(obs) == 0 {
		return pipeline.RunOpts{}
	}
	id := Progress{
		Machine:   cfg.Name,
		ConfigKey: cfg.Key(),
		Benchmark: bench.Name,
		Scale:     scale,
	}
	return pipeline.RunOpts{
		Interval:   every,
		StreamOnly: true,
		Observer: func(iv pipeline.IntervalStats) {
			p := id
			p.Interval = iv
			for _, fn := range obs {
				fn(p)
			}
		},
	}
}

// effectiveScale resolves a non-positive scale to the benchmark default,
// so "scale 0" and an explicit default-scale request share a cache slot.
func effectiveScale(b *workloads.Benchmark, scale int) int {
	if scale <= 0 {
		return b.DefaultScale
	}
	return scale
}

// workloadKey returns the content hash identifying bench's generated
// source at scale (already effective), memoized per (benchmark, scale).
// Folding it into every store key means editing a kernel invalidates
// its stored results instead of silently serving stale ones — the
// benchmark name alone does not identify the work.
func (r *Runner) workloadKey(bench *workloads.Benchmark, scale int) string {
	w, _, _ := r.wkeys.get(context.Background(), countKey{bench: bench.Name, scale: scale}, func(context.Context) (string, error) {
		sum := sha256.Sum256([]byte(bench.Source(scale)))
		return hex.EncodeToString(sum[:8]), nil
	})
	return w
}

// readThrough answers a memo miss through the persistent store. With a
// store attached it first reads the entry key(w), w being the
// workload's content hash; on a miss it runs compute and persists the
// result best-effort (a store that cannot be written costs durability,
// not correctness). Without a store it just runs compute, and a nil
// compute makes a pure read. Any store failure — no store, degraded,
// entry missing or corrupt, retries exhausted — reads as a miss. hit
// reports a store answer, which each caller counts against its own
// counter; wrote reports that a computed value is now durable.
func readThrough[T any](ctx context.Context, r *Runner, bench *workloads.Benchmark, scale int, key func(w string) store.Key, compute func(context.Context) (*T, error)) (v *T, hit, wrote bool, err error) {
	if r.store.Load() != nil {
		v = new(T)
		if r.storeRead(ctx, key(r.workloadKey(bench, scale)), v) {
			return v, true, false, nil
		}
	}
	if compute == nil {
		return nil, false, false, nil
	}
	if v, err = compute(ctx); err != nil {
		return nil, false, false, err
	}
	return v, false, r.persist(ctx, bench, scale, key, v), nil
}

// persist writes v under key(w) best-effort when a store is attached,
// reporting whether the entry is now durable.
func (r *Runner) persist(ctx context.Context, bench *workloads.Benchmark, scale int, key func(w string) store.Key, v any) bool {
	if r.store.Load() == nil {
		return false
	}
	return r.storeWrite(ctx, key(r.workloadKey(bench, scale)), v)
}

// Run simulates bench at scale under cfg, returning the memoized result
// if this (config, benchmark, scale) triple has been simulated before —
// from the in-memory cache, or from the persistent store when one is
// attached (see SetStore). The returned Result is shared; callers must
// treat it as read-only.
//
// Canceling ctx aborts the caller's wait and, if this caller is the one
// executing the simulation, the simulation itself — promptly, with an
// error wrapping ctx.Err(). A canceled leader does not poison the
// cache slot: concurrent waiters for the same key take over execution
// under their own contexts.
func (r *Runner) Run(ctx context.Context, cfg pipeline.Config, bench *workloads.Benchmark, scale int) (*pipeline.Result, error) {
	cfg = cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	scale = effectiveScale(bench, scale)
	k := simKey{cfg: cfg.Key(), bench: bench.Name, scale: scale}

	res, leader, err := r.sims.get(ctx, k, protect(r, "cell "+k.bench+"/"+cfg.Name, func(ctx context.Context) (*pipeline.Result, error) {
		res, hit, _, err := readThrough(ctx, r, bench, scale, k.storeKey, func(ctx context.Context) (*pipeline.Result, error) {
			return r.simulate(ctx, cfg, bench, scale)
		})
		if hit {
			r.storeHits.Add(1)
		}
		return res, err
	}))
	if err == nil && !leader {
		r.memHits.Add(1)
	}
	return res, err
}

// simulate runs one simulation under the worker pool. The timing
// session replays the workload's cached trace when the decode-once
// layer has (or can record) one — byte-for-byte identical results,
// minus the per-config live emulation — and falls back to a live
// emulator when the trace layer is disabled or the program exceeds
// the budget.
func (r *Runner) simulate(ctx context.Context, cfg pipeline.Config, bench *workloads.Benchmark, scale int) (*pipeline.Result, error) {
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-r.sem }()
	r.runs.Add(1)
	op := "cell " + bench.Name + "/" + cfg.Name
	wctx, stop := r.watchCell(ctx, op, 1)
	defer stop()
	if err := fault.InjectCtx(wctx, "exper.cell", bench.Name+"/"+cfg.Name); err != nil {
		return nil, watchdogErr(wctx, err)
	}
	prog := bench.Program(scale)
	tr, err := r.traceFor(wctx, bench, scale)
	if err != nil {
		return nil, watchdogErr(wctx, err)
	}
	var s *pipeline.Session
	if tr != nil {
		s, err = pipeline.NewReplay(cfg, prog, tr)
	} else {
		s, err = pipeline.New(cfg, prog)
	}
	if err != nil {
		return nil, err
	}
	res, err := s.Run(wctx, r.runOpts(&cfg, bench, scale))
	if err != nil {
		return nil, watchdogErr(wctx, err)
	}
	res.Scale = scale
	return res, nil
}

// RunSampled estimates bench at scale under cfg by sampled simulation
// (functional fast-forward + periodic detailed windows; see
// internal/sample), memoized by (config key, benchmark, scale, sampling
// regime) — a cache disjoint from the exact-result cache, so sampled
// estimates and exact results never collide. The persistent store, when
// attached, mirrors the same disjointness: sampled entries carry the
// regime key. Cancellation semantics match Run: a canceled leader hands
// the slot to a live waiter. A lone cell is simulated as a group of one
// (see SampledMatrix), which does exactly sample.RunPlanned's work.
func (r *Runner) RunSampled(ctx context.Context, cfg pipeline.Config, bench *workloads.Benchmark, scale int, sc sample.Config) (*sample.Result, error) {
	cfg = cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sc = sc.Normalize()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	scale = effectiveScale(bench, scale)
	k := sampleKey{cfg: cfg.Key(), bench: bench.Name, scale: scale, sampling: sc.Key()}

	res, leader, err := r.sampled.get(ctx, k, func(ctx context.Context) (*sample.Result, error) {
		res, errs := r.leadSampled(ctx, bench, scale, sc, []pipeline.Config{cfg}, []sampleKey{k})
		return res[0], errs[0]
	})
	if err == nil && !leader {
		r.memHits.Add(1)
	}
	return res, err
}

// sampledRow is RunSampled for every config of one benchmark row (cfgs
// and sc normalized, scale effective). The row leads the cells no
// caller holds yet and computes them together (leadSampled); the
// others are resident or in flight elsewhere and are awaited through
// RunSampled, exactly as lone calls would be.
func (r *Runner) sampledRow(ctx context.Context, bench *workloads.Benchmark, scale int, sc sample.Config, cfgs []pipeline.Config) ([]*sample.Result, error) {
	var (
		lead  []int
		keys  []sampleKey
		slots []*slot[*sample.Result]
	)
	for i, cfg := range cfgs {
		k := sampleKey{cfg: cfg.Key(), bench: bench.Name, scale: scale, sampling: sc.Key()}
		if s, ok := r.sampled.claim(k); ok {
			lead, keys, slots = append(lead, i), append(keys, k), append(slots, s)
		}
	}
	res, errs := make([]*sample.Result, len(lead)), make([]error, len(lead))
	for j := range errs {
		errs[j] = errAbandoned
	}
	func() {
		// Settle the claimed slots before awaiting any other cell, since
		// a row's duplicate configs wait on its own slots. A slot still
		// abandoned (a panic escaped) vacates its key for a waiter.
		defer func() {
			for j, s := range slots {
				r.sampled.finish(keys[j], s, res[j], errs[j])
			}
		}()
		res, errs = r.leadSampled(ctx, bench, scale, sc, pick(cfgs, lead), keys)
	}()
	out := make([]*sample.Result, len(cfgs))
	for j, i := range lead {
		if errs[j] != nil {
			return nil, errs[j]
		}
		out[i] = res[j]
	}
	for i, cfg := range cfgs {
		if out[i] != nil {
			continue
		}
		var err error
		if out[i], err = r.RunSampled(ctx, cfg, bench, scale, sc); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// leadSampled produces the sampled cells cfgs of bench, keyed by keys,
// whose memo slots the caller leads, returning each cell's estimate or
// error. Store hits answer their cells; the rest are simulated as one
// warm-sharing group (sample.RunPlannedGroup) and persisted one by
// one. An exper.cell fault fails its one cell; anything that fails the
// group — a window's error or panic, a watchdog kill, cancellation, a
// panic here — fails every cell not yet answered. Every *PanicError
// returned counts as one recovered panic.
//
// The group runs one window at a time on each worker-pool slot it
// holds: its own, plus whichever slots are idle when its windows
// start, so a lone row can use the whole pool while a busy pool never
// has more windows in flight than slots.
func (r *Runner) leadSampled(ctx context.Context, bench *workloads.Benchmark, scale int, sc sample.Config, cfgs []pipeline.Config, keys []sampleKey) (out []*sample.Result, errs []error) {
	out, errs = make([]*sample.Result, len(cfgs)), make([]error, len(cfgs))
	var gerr error
	defer func() {
		for i := range errs {
			if out[i] == nil && errs[i] == nil {
				errs[i] = gerr
			}
			r.notePanic(errs[i])
		}
	}()
	op := "sampled " + groupOp(bench, cfgs)
	defer fault.CatchPanic(&gerr, op)

	var miss []int
	for i, k := range keys {
		if sr, hit, _, _ := readThrough[sample.Result](ctx, r, bench, scale, k.storeKey, nil); hit {
			r.storeHits.Add(1)
			out[i] = sr
		} else {
			miss = append(miss, i)
		}
	}
	if len(miss) == 0 {
		return out, errs
	}
	var live []int
	gerr = func() error {
		// The counting pre-pass is shared: InstCount is memoized per
		// (benchmark, scale), so every machine configuration sampling
		// the same workload reuses one emulation of it. (Acquired
		// before the pool slot below — InstCount takes its own slot.)
		total, err := r.InstCount(ctx, bench, scale)
		if err != nil {
			return err
		}
		select {
		case r.sem <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
		defer func() { <-r.sem }()
		r.runs.Add(uint64(len(miss)))
		wctx, stop := r.watchCell(ctx, op, len(miss))
		defer stop()
		for _, i := range miss {
			if errs[i] = watchdogErr(wctx, injectCell(wctx, bench.Name+"/"+cfgs[i].Name)); errs[i] == nil {
				live = append(live, i)
			}
		}
		if len(live) == 0 {
			return nil
		}
		// The window plan (fast-forward + per-window checkpoints) is
		// config-independent: build it once per (benchmark, scale,
		// regime) and share it across every configuration of a sweep.
		plan, err := r.planFor(wctx, bench, scale, sc, total)
		if err == nil && plan == nil {
			// The plan cache is disabled: plan for this group alone.
			plan, err = buildPlanSafe(wctx, bench, scale, sc, total)
		}
		if err != nil {
			return watchdogErr(wctx, err)
		}
		units := len(plan.Windows)
		if plan.Period == 0 || units == 0 {
			units = len(live) // too short to sample: one exact run per config
		}
		workers, release := r.borrowSlots(units, sc.Workers)
		defer release()
		scw := sc
		scw.Workers = workers
		res, err := sample.RunPlannedGroup(wctx, pick(cfgs, live), bench.Program(scale), scw, plan)
		if err != nil {
			return watchdogErr(wctx, err)
		}
		for j, i := range live {
			res[j].Scale, res[j].Sampling = scale, sc
			out[i] = res[j]
		}
		return nil
	}()
	for _, i := range live {
		if out[i] != nil {
			r.persist(ctx, bench, scale, keys[i].storeKey, out[i])
		}
	}
	return out, errs
}

// borrowSlots takes idle worker-pool slots, without waiting, for a
// caller that already holds one, until it holds n (capped at limit
// when limit > 0). It returns how many slots the caller now holds and
// a release for the borrowed ones.
func (r *Runner) borrowSlots(n, limit int) (held int, release func()) {
	if limit > 0 && n > limit {
		n = limit
	}
	held = 1
take:
	for held < n {
		select {
		case r.sem <- struct{}{}:
			held++
		default:
			break take
		}
	}
	return held, func() {
		for i := 1; i < held; i++ {
			<-r.sem
		}
	}
}

// groupOp names a group of cells of bench for diagnostics: the cell
// itself when it is alone.
func groupOp(bench *workloads.Benchmark, cfgs []pipeline.Config) string {
	if len(cfgs) == 1 {
		return "cell " + bench.Name + "/" + cfgs[0].Name
	}
	return fmt.Sprintf("row %s (%d cells)", bench.Name, len(cfgs))
}

// injectCell evaluates the exper.cell fault point for one sampled
// cell, containing an injected panic as that cell's *PanicError.
func injectCell(ctx context.Context, key string) (err error) {
	defer fault.CatchPanic(&err, "sampled cell "+key)
	return fault.InjectCtx(ctx, "exper.cell", key)
}

// pick returns xs[idx[0]], xs[idx[1]], ...
func pick[T any](xs []T, idx []int) []T {
	out := make([]T, len(idx))
	for j, i := range idx {
		out[j] = xs[i]
	}
	return out
}

// InstCount returns bench's dynamic instruction count at scale from the
// architectural emulator, memoized by (benchmark, scale) and persisted
// in the attached store (KindCount entries), so warm processes skip
// even the counting emulation. Emulation runs under the same worker
// pool as simulations and honors ctx with the same leader-handoff
// semantics as Run.
func (r *Runner) InstCount(ctx context.Context, bench *workloads.Benchmark, scale int) (uint64, error) {
	scale = effectiveScale(bench, scale)
	k := countKey{bench: bench.Name, scale: scale}

	n, _, err := r.counts.get(ctx, k, protect(r, "count "+k.bench, func(ctx context.Context) (uint64, error) {
		c, hit, _, err := readThrough(ctx, r, bench, scale, k.storeKey, func(ctx context.Context) (*store.Count, error) {
			n, err := r.emulate(ctx, bench, scale)
			return &store.Count{Insts: n}, err
		})
		if err != nil {
			return 0, err
		}
		if hit {
			r.storeHits.Add(1)
		}
		return c.Insts, nil
	}))
	return n, err
}

// emulate runs the architectural emulator to completion under the
// worker pool, checking ctx between instruction chunks.
func (r *Runner) emulate(ctx context.Context, bench *workloads.Benchmark, scale int) (uint64, error) {
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	defer func() { <-r.sem }()
	m := emu.New(bench.Program(scale))
	for !m.Halted() {
		m.Run(emuChunk)
		if err := ctx.Err(); err != nil {
			return 0, err
		}
	}
	return m.InstCount(), nil
}

// Matrix simulates every benchmark under every configuration and
// returns results indexed [benchmark][config], parallel to the inputs.
// All cells run concurrently under the worker pool; duplicate
// (config, benchmark, scale) cells — within this call or against the
// runner's history — are simulated once. On error (including
// cancellation) Matrix cancels the remaining cells, waits for every
// worker goroutine to exit, and returns the first error observed.
func (r *Runner) Matrix(ctx context.Context, benches []*workloads.Benchmark, cfgs []pipeline.Config, scale int) ([][]*pipeline.Result, error) {
	out := make([][]*pipeline.Result, len(benches))
	for i := range out {
		out[i] = make([]*pipeline.Result, len(cfgs))
	}
	err := fanOut(ctx, len(benches)*len(cfgs), func(ctx context.Context, j int) (err error) {
		i, c := j/len(cfgs), j%len(cfgs)
		out[i][c], err = r.Run(ctx, cfgs[c], benches[i], scale)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SampledMatrix is Matrix under sampled simulation: every cell is a
// RunSampled estimate rendered as a whole-run pipeline.Result (Sampled
// set, Cycles estimated, event counters extrapolated), so artifact
// formatting over the cells is identical to the exact path.
//
// Rows run concurrently, and each row's cells that are neither cached
// nor in flight elsewhere are simulated as one group: the row's plan is
// fetched once and walked window-major, and configs sharing a cache
// and predictor geometry share each window's functional warming (see
// sample.RunPlannedGroup). Every cell still goes through the sampled
// memo and the store, so deduplication, store entries, Stats and the
// estimates themselves are exactly those of per-cell RunSampled calls.
func (r *Runner) SampledMatrix(ctx context.Context, benches []*workloads.Benchmark, cfgs []pipeline.Config, scale int, sc sample.Config) ([][]*pipeline.Result, error) {
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
	out := make([][]*pipeline.Result, len(benches))
	err := fanOut(ctx, len(benches), func(ctx context.Context, i int) error {
		b := benches[i]
		row, err := r.sampledRow(ctx, b, effectiveScale(b, scale), sc, norm)
		if err != nil {
			return err
		}
		out[i] = make([]*pipeline.Result, len(row))
		for c, sr := range row {
			out[i][c] = sr.Estimate()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fanOut runs fn(ctx, i) for every i in [0, n), each on its own
// goroutine. The first error cancels the others; fanOut waits for
// every call to return and then reports that error.
func fanOut(ctx context.Context, n int, fn func(context.Context, int) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(ctx, i); err != nil {
				errOnce.Do(func() {
					firstErr = err
					cancel()
				})
			}
		}()
	}
	wg.Wait()
	return firstErr
}
