package pipeline

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
)

// sim assembles src and runs it under cfg, checking for leaks.
func sim(t *testing.T, cfg Config, src string) *Result {
	t.Helper()
	prog, err := asm.Assemble(t.Name(), src)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background(), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if live := s.LiveRegs(); live != 0 {
		t.Errorf("%s: %d physical registers leaked", cfg.Name, live)
	}
	return res
}

// loopProg builds a loop around body whose trip count comes from memory
// so the optimizer cannot shortcut the loop control statically.
func loopProg(iters int, body string) string {
	return fmt.Sprintf(`
start:
    ldi cnt -> r1
    ldq [r1] -> r2      ; trip count
    ldi buf -> r3
loop:
%s
    sub r2, 1 -> r2
    bne r2, loop
    halt
.org 0x40000
.data cnt
.quad %d
.data buf
.quad 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16
`, body, iters)
}

func TestMinBranchLoopIs20Baseline(t *testing.T) {
	cfg := DefaultConfig().Baseline()
	if got := cfg.MinBranchLoop(); got != 20 {
		t.Errorf("baseline branch loop = %d cycles, want 20 (Table 2)", got)
	}
	opt := DefaultConfig()
	if got := opt.MinBranchLoop(); got != 22 {
		t.Errorf("optimized branch loop = %d cycles, want 22 (+2 opt stages)", got)
	}
}

func TestAllInstructionsRetire(t *testing.T) {
	src := loopProg(50, "    ldq [r3] -> r4\n    add r4, r2 -> r5\n")
	for _, mk := range []func() Config{
		func() Config { return DefaultConfig().Baseline() },
		DefaultConfig,
		func() Config { return DefaultConfig().WithMode(core.ModeFeedbackOnly) },
	} {
		cfg := mk()
		res := sim(t, cfg, src)
		want := uint64(3 + 50*4 + 1)
		if res.Retired != want {
			t.Errorf("%s: retired %d, want %d", cfg.Name, res.Retired, want)
		}
		if res.Cycles == 0 {
			t.Errorf("%s: zero cycles", cfg.Name)
		}
	}
}

func TestIndependentAddsReachWidth(t *testing.T) {
	// 4000 independent adds: baseline IPC should approach the 4-wide
	// front end (modulo fill/drain).
	var body string
	for i := 0; i < 4000; i++ {
		body += fmt.Sprintf("    add r%d, 1 -> r%d\n", 1+(i%8), 9+(i%8))
	}
	src := "start:\n" + body + "    halt\n"
	res := sim(t, DefaultConfig().Baseline(), src)
	if ipc := res.IPC(); ipc < 3.0 {
		t.Errorf("independent adds IPC = %.2f, want near 4", ipc)
	}
}

func TestDependentChainIPCNearOne(t *testing.T) {
	// A chain of dependent adds on an unknown value: one per cycle max.
	body := `
start:
    ldi cnt -> r1
    ldq [r1] -> r2
`
	for i := 0; i < 2000; i++ {
		body += "    add r2, 1 -> r2\n    sub r2, 1 -> r2\n"
	}
	src := body + "    halt\n.org 0x40000\n.data cnt\n.quad 7\n"
	res := sim(t, DefaultConfig().Baseline(), src)
	if ipc := res.IPC(); ipc > 1.2 {
		t.Errorf("dependent chain IPC = %.2f, want <= ~1", ipc)
	}
}

func TestMispredictionPenaltyMeasured(t *testing.T) {
	// A branch alternating too irregularly to predict would be ideal;
	// instead use a data-dependent branch pattern from an LCG. The
	// penalty should push cycles well above the no-branch equivalent.
	src := `
start:
    ldi cnt -> r1
    ldq [r1] -> r2      ; iterations
    ldq [r1+8] -> r3    ; lcg state
loop:
    mul r3, 25 -> r3
    add r3, 13 -> r3
    and r3, 1023 -> r4
    cmplt r4, 512 -> r5
    beq r5, skip        ; ~50/50 data-dependent branch
    add r6, 1 -> r6
skip:
    sub r2, 1 -> r2
    bne r2, loop
    halt
.org 0x40000
.data cnt
.quad 2000, 12345
`
	base := sim(t, DefaultConfig().Baseline(), src)
	if base.Mispredicted < 400 {
		t.Errorf("LCG branch should mispredict often, got %d", base.Mispredicted)
	}
	// Each misprediction costs ~20 cycles.
	if base.Cycles < base.Mispredicted*15 {
		t.Errorf("cycles %d too low for %d mispredictions", base.Cycles, base.Mispredicted)
	}
}

// randomFlagTable emits n .quad values of pseudo-random 0/1 flags.
func randomFlagTable(n int) string {
	s := ".org 0x40000\n.data table\n"
	state := uint64(0x2545F4914F6CDD1D)
	for i := 0; i < n; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		s += fmt.Sprintf(".quad %d\n", state&1)
	}
	return s
}

func TestEarlyBranchResolutionBeatsBaseline(t *testing.T) {
	// Scan a flag table repeatedly, branching on each entry, while an
	// LCG rewrites every flag for the next pass. The branches never
	// become predictable, so the baseline eats full-pipeline penalties
	// forever; the optimizer forwards the stored flags out of the MBC,
	// knows each branch input at rename, and recovers the misprediction
	// right after the (extended) rename stage.
	src := `
start:
    ldi passes -> r1
    ldq [r1] -> r2
    ldq [r1+8] -> r10       ; LCG state
pass:
    ldi table -> r3
    ldi 64 -> r4
inner:
    ldq [r3] -> r5          ; this pass's flag (store-forwarded)
    mul r10, 6364136223846793005 -> r10
    add r10, 1442695040888963407 -> r10
    srl r10, 62 -> r11
    and r11, 1 -> r11
    stq r11 -> [r3]         ; next pass's flag
    add r3, 8 -> r3
    beq r5, skip
    add r6, 1 -> r6
skip:
    sub r4, 1 -> r4
    bne r4, inner
    sub r2, 1 -> r2
    bne r2, pass
    halt
.org 0x3F000
.data passes
.quad 30, 88172645463325252
` + randomFlagTable(64)
	base := sim(t, DefaultConfig().Baseline(), src)
	opt := sim(t, DefaultConfig(), src)
	if opt.EarlyRecovered == 0 {
		t.Error("optimizer should recover some mispredictions early")
	}
	if sp := opt.SpeedupOver(base); sp < 1.05 {
		t.Errorf("speedup = %.3f, want > 1.05 for early-resolution-friendly code", sp)
	}
}

func TestRLESpeedsUpPortBoundLoads(t *testing.T) {
	// 16 loads per iteration against 2 D-cache ports make the baseline
	// issue-bound at ~8 cycles/iteration; after the first pass the
	// optimizer serves every load from the MBC and the loop runs at
	// front-end speed.
	var body string
	for i := 0; i < 16; i++ {
		body += fmt.Sprintf("    ldq [r3+%d] -> r%d\n", 8*(i%16), 4+(i%4))
	}
	src := loopProg(300, body)
	base := sim(t, DefaultConfig().Baseline(), src)
	opt := sim(t, DefaultConfig(), src)
	if opt.Opt.LoadsRemoved == 0 {
		t.Fatal("no loads removed")
	}
	if sp := opt.SpeedupOver(base); sp < 1.3 {
		t.Errorf("speedup = %.3f, want > 1.3 for MBC-resident port-bound loads", sp)
	}
	frac := float64(opt.Opt.LoadsRemoved) / float64(opt.Opt.Loads)
	if frac < 0.9 {
		t.Errorf("loads removed fraction = %.2f, want ~1 after first pass", frac)
	}
}

func TestPointerChaseCannotBeEliminated(t *testing.T) {
	// A pointer chase has rename-time-unknown addresses every hop, so —
	// per §3.2, "if the load address is unknown, no optimization is
	// performed" — the MBC never fires on it. This pins the model's
	// faithful negative behavior.
	const base = 0x40000
	ring := fmt.Sprintf(".org %#x\n.data ring\n", base)
	for i := 0; i < 16; i++ {
		next := base + (uint64(i+1)%16)*64
		ring += fmt.Sprintf(".quad %d\n.space 56\n", next)
	}
	src := `
start:
    ldi cnt -> r1
    ldq [r1] -> r2
    ldi ring -> r4
loop:
    ldq [r4] -> r4
    sub r2, 1 -> r2
    bne r2, loop
    halt
.org 0x3F000
.data cnt
.quad 200
` + ring
	opt := sim(t, DefaultConfig(), src)
	if opt.Opt.LoadsRemoved != 0 {
		t.Errorf("pointer-chase loads removed = %d, want 0 (addresses unknown at rename)",
			opt.Opt.LoadsRemoved)
	}
}

func TestOptimizerStatsPlausible(t *testing.T) {
	src := loopProg(200, `
    ldq [r3] -> r4
    add r4, 1 -> r5
    stq r5 -> [r3+8]
`)
	opt := sim(t, DefaultConfig(), src)
	if got := opt.PctAddrGen(); got < 90 {
		t.Errorf("addr-gen%% = %.1f, want ~100 (all bases known)", got)
	}
	if got := opt.PctEarlyExecuted(); got <= 0 {
		t.Errorf("early-exec%% = %.1f, want > 0", got)
	}
}

func TestMaxInstsBoundsRun(t *testing.T) {
	src := `
start:
    add r1, 1 -> r1
    br start
`
	cfg := DefaultConfig().Baseline()
	cfg.MaxInsts = 1000
	res := sim(t, cfg, src)
	if res.Retired < 990 || res.Retired > 1010 {
		t.Errorf("retired %d, want ~1000", res.Retired)
	}
}

func TestDeterminism(t *testing.T) {
	src := loopProg(100, "    ldq [r3] -> r4\n    add r4, r2 -> r6\n    stq r6 -> [r3+8]\n")
	a := sim(t, DefaultConfig(), src)
	b := sim(t, DefaultConfig(), src)
	if a.Cycles != b.Cycles || a.Retired != b.Retired {
		t.Errorf("nondeterministic: %v vs %v", a, b)
	}
}

func TestSchedulerStallsUnderPressure(t *testing.T) {
	// Long-latency divides back up the complex scheduler (1 unit,
	// 8 entries) and eventually stall dispatch.
	body := ""
	for i := 0; i < 400; i++ {
		body += "    div r2, 3 -> r4\n"
	}
	src := `
start:
    ldi cnt -> r1
    ldq [r1] -> r2
` + body + "    halt\n.org 0x40000\n.data cnt\n.quad 1000\n"
	res := sim(t, DefaultConfig().Baseline(), src)
	if res.SchedStalls == 0 {
		t.Error("dense divides should stall the complex scheduler")
	}
}

func TestFeedbackOnlyWeakerThanFull(t *testing.T) {
	src := loopProg(300, `
    ldq [r3] -> r4
    add r4, 1 -> r5
    add r5, r2 -> r6
`)
	feedback := sim(t, DefaultConfig().WithMode(core.ModeFeedbackOnly), src)
	fullRes := sim(t, DefaultConfig(), src)
	if fullRes.Cycles > feedback.Cycles {
		t.Errorf("full optimization (%d cycles) should not lose to feedback-only (%d)",
			fullRes.Cycles, feedback.Cycles)
	}
}

func TestICacheMissesCharged(t *testing.T) {
	// A program larger than one I-cache way set still mostly hits; just
	// check the miss machinery runs and the first-line access misses.
	src := "start:\n"
	for i := 0; i < 5000; i++ {
		src += "    add r1, 1 -> r1\n"
	}
	src += "    halt\n"
	res := sim(t, DefaultConfig().Baseline(), src)
	if res.L1IMissRate <= 0 {
		t.Error("expected at least cold I-cache misses")
	}
}

func TestMemSchedulerLimitsMLP(t *testing.T) {
	// Independent long-latency misses back up the 8-entry memory
	// scheduler long before the 160-entry window fills.
	var body string
	for i := 0; i < 64; i++ {
		body += fmt.Sprintf("    ldq [r3+%d] -> r4\n", 4096*i+i*8)
	}
	src := loopProg(50, body)
	res := sim(t, DefaultConfig().Baseline(), src)
	if res.SchedStalls == 0 {
		t.Error("expected scheduler-full stalls under miss pressure")
	}
}

func TestStoreToLoadDependenceEnforced(t *testing.T) {
	// A recurrence through memory: each iteration stores a value the
	// next iteration loads and feeds through a long-latency divide. The
	// loads must wait for the stores, so per-iteration time must be at
	// least the divide latency (20 cycles).
	src := `
start:
    ldi cnt -> r1
    ldq [r1] -> r2
    ldi cell -> r3
loop:
    ldq [r3] -> r4
    div r4, 3 -> r5
    add r5, 7 -> r5
    stq r5 -> [r3]
    sub r2, 1 -> r2
    bne r2, loop
    halt
.org 0x3F000
.data cnt
.quad 500
.data cell
.quad 987654321
`
	res := sim(t, DefaultConfig().Baseline(), src)
	if perIter := float64(res.Cycles) / 500; perIter < 20 {
		t.Errorf("%.1f cycles/iteration; the divide recurrence through memory requires >= 20", perIter)
	}
	// Independent divides for contrast: far fewer cycles per iteration
	// (bounded by the single divider, not the recurrence).
	indep := `
start:
    ldi cnt -> r1
    ldq [r1] -> r2
    ldi cell -> r3
loop:
    ldq [r3] -> r4
    div r4, 3 -> r5
    add r5, 7 -> r5
    stq r5 -> [r3+8]     ; different address: no recurrence
    sub r2, 1 -> r2
    bne r2, loop
    halt
.org 0x3F000
.data cnt
.quad 500
.data cell
.quad 987654321, 0
`
	res2 := sim(t, DefaultConfig().Baseline(), indep)
	if res2.Cycles >= res.Cycles {
		t.Errorf("breaking the memory recurrence should be faster: %d vs %d cycles",
			res2.Cycles, res.Cycles)
	}
}

func TestOccupancyReflectsBoundedness(t *testing.T) {
	// The optimizer relieves scheduler pressure: early-executed
	// instructions never occupy a scheduler, so on scheduler-bound code
	// the optimized machine shows lower average scheduler occupancy.
	src := loopProg(200, `
    ldq [r3] -> r4
    add r4, 1 -> r5
    add r5, 1 -> r6
    add r6, 1 -> r7
`)
	base := sim(t, DefaultConfig().Baseline(), src)
	opt := sim(t, DefaultConfig(), src)
	if base.AvgSchedOcc <= 0 || base.AvgWindowOcc <= 0 {
		t.Fatalf("occupancy not measured: %+v", base)
	}
	if opt.AvgSchedOcc >= base.AvgSchedOcc {
		t.Errorf("optimizer should lower scheduler occupancy: %.2f vs %.2f",
			opt.AvgSchedOcc, base.AvgSchedOcc)
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{Counters: Counters{Cycles: 100, Retired: 250}}
	if r.IPC() != 2.5 {
		t.Errorf("IPC = %v", r.IPC())
	}
	base := &Result{Counters: Counters{Cycles: 150}}
	if got := r.SpeedupOver(base); got != 1.5 {
		t.Errorf("speedup = %v", got)
	}
	r.Opt.Renamed = 200
	r.Opt.EarlyExecuted = 50
	if got := r.PctEarlyExecuted(); got != 25 {
		t.Errorf("early%% = %v", got)
	}
	var zero Result
	if zero.IPC() != 0 || zero.PctMispredRecovered() != 0 {
		t.Error("zero result helpers should be 0")
	}
}
