package exper

// Decode-once caches: the engine-level layer that makes a sweep cell
// cost one architectural pass instead of one per machine configuration.
//
// Two memo tables (see memo.go) live here, sharing one byte budget and
// one LRU order:
//
//   - the trace table, keyed by (benchmark, effective scale): the
//     program's full dynamic instruction stream (emu.Record), replayed
//     by every exact simulation of that workload through
//     pipeline.NewReplay instead of re-driving a live emulator;
//   - the plan table, keyed by (benchmark, effective scale, sampling
//     regime): the config-independent window schedule of a sampled run
//     (sample.BuildPlan) — one whole-program fast-forward with a
//     checkpoint per window — replayed by every configuration through
//     sample.RunPlannedGroup. This is what turns an N-config sampled
//     sweep cell into 1 architectural pass + N window sets, and a
//     SampledMatrix row fetches it once for all of its cells.
//
// Being memo tables, both collapse concurrent requests onto one
// leader (one recording no matter how many configurations ask at
// once), and both keep the budget invariant: once no leader is in
// flight, resident bytes never exceed max(budget, 0). A trace or plan
// that does not fit is handed to the callers that asked for it and
// then dropped. A workload whose trace would exceed the budget aborts
// its recording and is negative-cached (a nil trace, charged 0 bytes)
// and simulated live; SetTraceBudget(0) turns the whole layer off.

import (
	"context"

	"repro/internal/emu"
	"repro/internal/fault"
	"repro/internal/sample"
	"repro/internal/store"
	"repro/internal/workloads"
)

// DefaultTraceBudget caps the resident bytes of recorded traces and
// sampled-run plans (256 MiB). At 64 bytes per trace record this
// admits ~4M dynamic instructions of trace — several default-scale
// workloads at once.
const DefaultTraceBudget = 256 << 20

// SetTraceBudget replaces the memory budget (in bytes) for the trace
// and plan caches. A budget <= 0 disables decode-once replay entirely
// and releases everything resident: simulations drive live emulators
// and sampled runs fast-forward per group of cells, exactly as if the
// caches did not exist. Shrinking the budget evicts least-recently
// used entries until the resident bytes fit, and a recording or plan
// that finishes after the budget shrank is retained only if it fits.
func (r *Runner) SetTraceBudget(bytes int64) {
	r.decode.setLimit(bytes)
}

type planKey struct {
	bench    string
	scale    int
	sampling string
}

func (k planKey) storeKey(w string) store.Key {
	return store.PlanKey(k.bench, k.scale, k.sampling, w)
}

// traceFor returns the recorded dynamic stream for bench at scale,
// recording it on first use and collapsing concurrent requests onto
// one recording. A nil trace with nil error means "replay unavailable"
// — the cache is disabled or the program does not fit the budget — and
// the caller falls back to live emulation. Call with a worker-pool
// slot held: the leader records under the caller's slot.
func (r *Runner) traceFor(ctx context.Context, bench *workloads.Benchmark, scale int) (*emu.Trace, error) {
	limit, _ := r.decode.current()
	if limit <= 0 {
		return nil, nil
	}
	tr, leader, err := r.traces.get(ctx, countKey{bench: bench.Name, scale: scale}, func(ctx context.Context) (*emu.Trace, error) {
		tr, err := recordSafe(ctx, bench, scale, uint64(limit)/emu.DynInstBytes)
		switch {
		case err != nil && (ctxErr(err) || fault.AsPanic(err) != nil):
			// A canceled recording hands off to a waiter. A panicking
			// recorder is a broken workload, not an over-budget one:
			// memoize the failure (waiters and retries fail fast)
			// instead of negative-caching it as "simulate live", which
			// would re-panic per config.
			return nil, err
		case err != nil:
			// The program does not fit the budget: negative-cache the
			// fact so later configurations skip straight to live
			// emulation without re-recording.
			return nil, nil
		}
		r.traceRecords.Add(1)
		return tr, nil
	})
	switch {
	case tr != nil && leader:
		// A complete trace is also an exact instruction count (HALT is
		// the final record): seed the count memo so sampled runs of
		// this workload skip their counting pass.
		r.seedCount(ctx, bench, scale, uint64(tr.Len()))
	case tr != nil:
		r.traceHits.Add(1)
	}
	return tr, err
}

// planFor returns the sampled-run window plan for (bench, scale, sc),
// building it on first use and collapsing concurrent requests. sc must
// be normalized. A nil plan with nil error means the cache is disabled
// and the caller should run the unplanned path. Call with a
// worker-pool slot held: the leader builds under the caller's slot.
//
// When a store is attached the in-memory plan cache layers over it
// exactly like the result caches: the leader consults the store before
// building (a hit installs the persisted plan and skips the
// fast-forward entirely — that is what lets sweep shards in separate
// processes share one BuildPlan per regime), and persists every plan it
// does build before waking waiters. Store reads that fail — missing,
// torn mid-write, or written by a build with a different plan codec —
// are misses: the leader rebuilds and the Put heals the entry.
func (r *Runner) planFor(ctx context.Context, bench *workloads.Benchmark, scale int, sc sample.Config, totalInsts uint64) (*sample.Plan, error) {
	if limit, _ := r.decode.current(); limit <= 0 {
		return nil, nil
	}
	k := planKey{bench: bench.Name, scale: scale, sampling: sc.Key()}
	plan, leader, err := r.plans.get(ctx, k, func(ctx context.Context) (*sample.Plan, error) {
		plan, hit, wrote, err := readThrough(ctx, r, bench, scale, k.storeKey, func(ctx context.Context) (*sample.Plan, error) {
			plan, err := buildPlanSafe(ctx, bench, scale, sc, totalInsts)
			if err == nil {
				r.planBuilds.Add(1)
			}
			return plan, err
		})
		if hit {
			r.planStoreHits.Add(1)
		}
		if wrote {
			r.planStoreWrites.Add(1)
		}
		return plan, err
	})
	if err == nil && !leader {
		r.planHits.Add(1)
	}
	return plan, err
}

// seedCount installs a known-exact instruction count into the count
// memo (and the persistent store, unless it already holds the entry)
// without an emulation pass — used when a full trace recording has
// already established it.
func (r *Runner) seedCount(ctx context.Context, bench *workloads.Benchmark, scale int, n uint64) {
	k := countKey{bench: bench.Name, scale: scale}
	if r.counts.put(k, n) {
		readThrough(ctx, r, bench, scale, k.storeKey, func(context.Context) (*store.Count, error) {
			return &store.Count{Insts: n}, nil
		})
	}
}

// recordSafe is emu.Record behind a panic-containment boundary: a
// recorder that panics (a broken generated workload, an injected
// fault) yields a memoized *PanicError for this workload's cells
// instead of killing the process.
func recordSafe(ctx context.Context, bench *workloads.Benchmark, scale int, maxInsts uint64) (tr *emu.Trace, err error) {
	defer fault.CatchPanic(&err, "trace "+bench.Name)
	return emu.Record(ctx, bench.Program(scale), maxInsts)
}

// buildPlanSafe is sample.BuildPlan behind the same boundary.
func buildPlanSafe(ctx context.Context, bench *workloads.Benchmark, scale int, sc sample.Config, totalInsts uint64) (plan *sample.Plan, err error) {
	defer fault.CatchPanic(&err, "plan "+bench.Name)
	return sample.BuildPlan(ctx, bench.Program(scale), sc, totalInsts)
}
