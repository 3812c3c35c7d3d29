// Command perfbench is the repository benchmark. It runs one of three
// seeded workloads through the simulator's public entry points, checks
// that the outputs are correct, and prints its metrics as one JSON
// object on the last line of standard output:
//
//	perfbench --workload paper-all --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics BENCHMARK.json names
// (measured with tracing off); with --trace 1 it records spans around
// its own calls into each layer, writes them under .bench_build/, and
// prints the per-layer metrics instead. --regen rewrites the committed
// references in perfbench/refs from a fresh computation. Run it from
// the repository root, normally through perfbench/run.sh.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"
)

// benchFile is the benchmark definition, read for the metric names and
// units this program must print.
type benchFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

const (
	refsDir  = "perfbench/refs"
	traceDir = ".bench_build/perfbench"
	// defaultSeed is the seed whose output digests are committed.
	defaultSeed = 1
)

// env is what every workload receives.
type env struct {
	ctx     context.Context
	seed    int64
	seconds float64
	traced  bool
	nproc   int
}

// outcome is what a workload reports: operation counts, every metric it
// measured (end-to-end and per-layer alike) and the spans of its traced
// passes.
type outcome struct {
	attempted, failed int
	m                 map[string]float64
	spans             []Span
	notes             []string
}

func newOutcome() *outcome { return &outcome{m: map[string]float64{}} }

// fail records n failed operations with the reason.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	o.notes = append(o.notes, "FAIL: "+fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

var workloadFuncs = map[string]func(*env) (*outcome, error){
	"paper-all":     runPaperAll,
	"sweep-sampled": runSweepSampled,
	"serve-mixed":   runServeMixed,
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload: paper-all, sweep-sampled or serve-mixed")
	seed := flag.Int64("seed", defaultSeed, "input seed")
	seconds := flag.Int("seconds", 10, "measuring time per run")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	regen := flag.Bool("regen", false, "rewrite the committed references in "+refsDir)
	flag.Parse()

	if *regen {
		if err := regenerate(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	fn, ok := workloadFuncs[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (paper-all, sweep-sampled, serve-mixed), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	defs, err := readBenchFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e := &env{ctx: ctx, seed: *seed, seconds: float64(*seconds), traced: *trace == 1, nproc: runtime.GOMAXPROCS(0)}
	out, err := fn(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	for _, n := range out.notes {
		fmt.Fprintln(os.Stderr, n)
	}
	want := defs.EndToEnd
	if e.traced {
		want = defs.PerLayer
		var idle []string
		for _, d := range want {
			if _, ok := out.m[d.Name]; !ok {
				out.m[d.Name] = 0
				idle = append(idle, d.Name)
			}
		}
		if len(idle) > 0 {
			fmt.Fprintf(os.Stderr, "not exercised by %s (reported as 0): %v\n", *workload, idle)
		}
		path := filepath.Join(traceDir, fmt.Sprintf("spans-%s-%d.json", *workload, *seed))
		if err := writeSpans(path, out.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "spans: %d written to %s\n", len(out.spans), path)
		selfReport(os.Stderr, out.spans)
	}
	line, err := resultLine(out, want)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	report(os.Stderr, out.m)
	fmt.Println(line)
	return 0
}

func readBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark definition: %w", err)
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &b, nil
}

func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// resultLine renders the final JSON object with exactly the metrics in
// want. A metric the workload did not measure is a bug in this program.
func resultLine(o *outcome, want []metricDef) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]mv{}
	for _, d := range want {
		v, ok := o.m[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s was not measured", d.Name)
		}
		ms[d.Name] = mv{v, d.Unit}
	}
	attempted := max(o.attempted, 1)
	data, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{o.failed == 0, attempted, o.failed, ms})
	return string(data), err
}

func report(w *os.File, m map[string]float64) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-40s %.6g\n", n, m[n])
	}
}

// selfReport prints, per span name, the call count, total time and
// self time (total minus the time its child spans cover).
func selfReport(w *os.File, spans []Span) {
	self := SelfTimes(spans)
	count := map[string]int{}
	total := map[string]time.Duration{}
	for _, s := range spans {
		count[s.Name]++
		total[s.Name] += s.End - s.Start
	}
	names := make([]string, 0, len(count))
	for n := range count {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "  %-28s %7s %12s %12s\n", "span", "calls", "total_s", "self_s")
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %7d %12.4f %12.4f\n", n, count[n], total[n].Seconds(), self[n].Seconds())
	}
}

// passTimes is one repetition of a workload's fixed operation set.
type passTimes struct {
	setup, wall, cpu time.Duration
	heapPeak         uint64
}

// setupReps is how many times a pass sets up. One set-up takes about
// 10 ms, so a single timing of it swings with anything else the process
// or the machine does in those milliseconds; a pass's set-up time is
// the median of its set-ups.
const setupReps = 7

// timeSetup runs build setupReps times and returns the median time.
// Only the last run is traced and kept: the runs before it get a nil
// tracer, and discard (if not nil) releases what each of them built
// before the next run starts.
func timeSetup(t *Tracer, build func(t *Tracer) error, discard func()) (time.Duration, error) {
	var ds []float64
	for r := range setupReps {
		if r > 0 && discard != nil {
			discard()
		}
		tr := t
		if r < setupReps-1 {
			tr = nil
		}
		t0 := time.Now()
		if err := build(tr); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return time.Duration(median(ds) * float64(time.Second)), nil
}

// timeRegion runs fn and measures host wall time, process CPU time
// (user+sys) and the peak live heap over it.
func timeRegion(fn func() error) (passTimes, error) {
	runtime.GC() // start each region from the same live-heap baseline
	h := startHeapSampler()
	cpu0 := cpuTime()
	t0 := time.Now()
	err := fn()
	p := passTimes{wall: time.Since(t0), cpu: cpuTime() - cpu0}
	p.heapPeak = h.stop()
	return p, err
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler polls the live heap (as of the latest GC) and keeps the
// peak.
type heapSampler struct {
	quit chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const liveHeap = "/gc/heap/live:bytes"

func readLiveHeap() uint64 {
	s := []metrics.Sample{{Name: liveHeap}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			h.peak = max(h.peak, readLiveHeap())
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() uint64 {
	close(h.quit)
	h.wg.Wait()
	return max(h.peak, readLiveHeap())
}

// passSummary fills the end-to-end metrics every workload shares from
// its untraced passes: medians of set-up, wall and CPU time and of the
// peak live heap.
func passSummary(o *outcome, passes []passTimes) {
	var setup, wall, cpu, heap []float64
	for _, p := range passes {
		setup = append(setup, p.setup.Seconds())
		wall = append(wall, p.wall.Seconds())
		cpu = append(cpu, p.cpu.Seconds())
		heap = append(heap, float64(p.heapPeak)/(1<<20))
	}
	o.m["setup_s"] = median(setup)
	o.m["wall_s"] = median(wall)
	o.m["cpu_s"] = median(cpu)
	o.m["peak_heap_mib"] = median(heap)
	o.note("passes: %d untraced, wall_s from %.3f to %.3f", len(passes), slices.Min(wall), slices.Max(wall))
}

// finishOps sets the success share from the operation counts.
func finishOps(o *outcome) {
	if o.attempted == 0 {
		o.fail(1, "no operations attempted")
		o.attempted = 1
	}
	o.m["ops_ok_frac"] = 1 - float64(o.failed)/float64(o.attempted)
	o.m["ops_failed_frac"] = float64(o.failed) / float64(o.attempted)
}

// keepGoing reports whether another pass fits the measuring time:
// at least minPasses run, then passes continue while the measured time
// so far is under the budget.
func keepGoing(e *env, start time.Time, done, minPasses int) bool {
	if e.ctx.Err() != nil {
		return false
	}
	return done < minPasses || time.Since(start).Seconds() < e.seconds
}
