package pipeline

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/isa"
)

// Warmer keeps the machine's history-dependent front-end structures —
// the cache hierarchy and the branch predictor — functionally warm
// while the architectural emulator fast-forwards between detailed
// windows (SMARTS-style "functional warming"). Observe applies exactly
// the accesses the Session's fetch stage would issue for the same
// dynamic instruction: one I-cache access per new line plus the
// next-line prefetch, a D-cache access per load/store, and a
// predict/update pair per branch (including the return-address stack).
// A session seeded from the warmer's state therefore starts with the
// cache and predictor contents a continuous detailed run would have
// had, which is what makes short detailed warmup windows sufficient.
//
// A Warmer is single-goroutine, like the emulator it observes.
type Warmer struct {
	cfg      Config
	caches   *cache.Hierarchy
	bp       *bpred.Predictor
	lastLine uint64
}

// NewWarmer builds a warmer for machines configured by cfg (normalized
// like New).
func NewWarmer(cfg Config) *Warmer {
	cfg = cfg.Normalize()
	return &Warmer{
		cfg:      cfg,
		caches:   cache.NewHierarchy(cfg.Caches),
		bp:       bpred.New(cfg.BPred),
		lastLine: notReady,
	}
}

// Observe feeds one dynamic instruction through the front-end models.
// It is safe to pass emu.Machine.RunObserved's reused record.
func (w *Warmer) Observe(d *emu.DynInst) {
	// Instruction cache: one access per new line, plus the next-line
	// prefetch, mirroring Session.fetch.
	const instBytes = 4
	lineB := uint64(w.caches.L1I.Config().LineB)
	addr := d.PC * instBytes
	line := addr &^ (lineB - 1)
	if line != w.lastLine {
		w.caches.InstFetch(addr)
		w.caches.InstFetch(addr + lineB)
		w.lastLine = line
	}

	in := d.Inst
	switch {
	case in.Op.IsLoad():
		// The timing model charges the D-cache for loads only (stores
		// retire without an access; see Session.opLatency), so the
		// warmer mirrors that. Loads the optimizer would eliminate are
		// still touched — the warmer cannot know the optimizer's table
		// state — which the detailed warmup window absorbs.
		w.caches.DataAccess(d.Addr)
	case in.Op.IsBranch():
		isReturn := in.Op == isa.JMP && in.SrcA == isa.IntReg(26)
		pred := w.bp.Predict(d.PC, in.Op, isReturn)
		mis := pred.Taken != d.Taken ||
			(d.Taken && (!pred.TargetKnown || pred.Target != d.NextPC))
		w.bp.Update(d.PC, in.Op, d.Taken, d.NextPC, mis)
	}
}

// WarmState is warmed front-end state for NewFromCheckpointWarmed,
// produced by Warmer.State (a self-owned copy whose statistics start
// at zero, so the seeded session's miss and lookup counts cover only
// its own window) or Warmer.Borrow (shared live structures whose
// counters keep accumulating — see Borrow for the trade).
type WarmState struct {
	caches *cache.Hierarchy
	bp     *bpred.Predictor
}

// State snapshots the warmer's current cache and predictor contents.
// The warmer keeps evolving independently afterwards.
func (w *Warmer) State() WarmState {
	return WarmState{caches: w.caches.Clone(), bp: w.bp.Clone()}
}

// StateInto is State without the allocation: it copies the warmer's
// current contents into dst's structures and returns them. dst must be
// used by no running session — typically it seeded a session that has
// finished. A zero dst, or one of another geometry, gets a fresh copy.
func (w *Warmer) StateInto(dst WarmState) WarmState {
	if dst.caches != nil && dst.caches.CopyFrom(w.caches) && dst.bp.CopyFrom(w.bp) {
		return dst
	}
	return w.State()
}

// Borrow hands out the warmer's own structures without copying: a
// session seeded with them trains them exactly as a continuous detailed
// run would, and the warmer keeps evolving the same state afterwards.
// This is the fast path sampled simulation uses — no per-window clone
// of multi-hundred-KB tables — at the price of three caveats for the
// caller: only one borrowing session may run at a time; the emulator
// must skip re-observing the instructions the session already executed
// (they are already trained in; observing them again would
// double-count their history); and because the statistics counters are
// shared and never reset, the seeded session's Result reports
// cache/predictor statistics (BPLookups, L1D/L1I miss rates)
// accumulated across all warming and every earlier borrowing window,
// not its own window alone — use State when those fields matter.
func (w *Warmer) Borrow() WarmState {
	return WarmState{caches: w.caches, bp: w.bp}
}

// NewFromCheckpointWarmed is NewFromCheckpoint with pre-warmed front-end
// state: the session starts from the architectural checkpoint with ws's
// cache and predictor contents instead of cold ones. ws must come from
// a Warmer built over the same Config (the structures must have the
// same geometry) that observed the instructions leading up to ck.
func NewFromCheckpointWarmed(cfg Config, prog *emu.Program, ck *emu.Checkpoint, ws WarmState) (*Session, error) {
	if ck == nil {
		return nil, fmt.Errorf("pipeline: nil checkpoint")
	}
	if ck.Program != prog.Name {
		return nil, fmt.Errorf("pipeline: checkpoint of %q cannot seed program %q", ck.Program, prog.Name)
	}
	if ck.Halted {
		return nil, fmt.Errorf("pipeline: checkpoint of %q is already halted", ck.Program)
	}
	return newSession(cfg, prog, nil, ck, ws)
}
