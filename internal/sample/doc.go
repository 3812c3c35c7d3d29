// Package sample implements sampled simulation: instead of simulating
// every cycle of a program in the detailed model, it fast-forwards
// through the architectural emulator (internal/emu, the oracle) and
// periodically drops into the cycle-level model (internal/pipeline) for
// a short detailed window, then estimates whole-run performance from
// the measured windows.
//
// # Method
//
// The method is classic SMARTS-style systematic sampling: detailed
// windows start every Period dynamic instructions; each window seeds a
// fresh pipeline.Session from an architectural checkpoint
// (emu.Machine.Snapshot → pipeline.NewFromCheckpoint), runs Warmup
// instructions in full detail with statistics discarded (filling the
// caches, branch predictor, and optimizer tables), then measures the
// next Window instructions. Whole-run CPI is estimated as the
// retirement-weighted mean CPI of the measured windows, whole-run
// cycles as TotalInsts × CPI, and the spread of per-window CPIs yields
// a 95% confidence interval on the estimate.
//
// While fast-forwarding, the emulator functionally warms the caches
// and branch predictor by default (pipeline.Warmer observes every
// skipped instruction), which is what makes a couple hundred
// instructions of detailed warmup sufficient; Config.ColdStart
// disables warming for regimes that prefer cheaper fast-forward and a
// longer detailed warmup.
//
// # Group warming
//
// Warmed state depends only on a machine's cache hierarchy and branch
// predictor configuration, not on the rest of the core. RunPlannedGroup
// exploits that for a set of configurations sampling one program: it
// walks the plan window-major, and for each window warms once per warm
// group — the configurations whose (normalized) Caches and BPred are
// equal — then seeds every member's detailed session from that warmed
// state: a copy for each member but the last (Warmer.State, then
// Warmer.StateInto the previous member's finished structures), the
// warmer itself for the last. Copies reproduce cache and predictor
// contents exactly and a Window carries no
// cache or predictor statistics, so estimates are invariant under
// grouping: every Result equals the one RunPlanned returns for the
// same configuration alone, byte for byte. RunPlanned is the group of
// one.
//
// # Determinism and caching
//
// Because the detailed model is trace-driven — it validates every
// optimizer decision against the oracle's values — a checkpointed
// session retires exactly the same instruction stream as a full run;
// the only approximation is timing cold-start at window boundaries,
// which Warmup bounds. A sampled run is fully deterministic: the same
// (machine config, program, regime) always yields an identical Result.
//
// Exact and sampled results are distinct estimators of the same
// quantity and must never share a result cache slot: internal/exper
// keys sampled runs by Config.Key (the canonical regime string) in
// addition to the machine config, both in its in-memory cache and in
// the persistent store (internal/store), where sampled entries form
// their own namespace.
//
// # Short programs
//
// A program too short to sample profitably (it would end inside a
// handful of detailed windows) is simulated exactly instead and
// reported with ExactFallback set — sampling it would only add
// estimation error on top of comparable cost.
package sample
