package main

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/exper"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/workloads"
)

const serveSpecPath = "perfbench/serve-mixed.json"

// variantSet is the config delta of a pool window size. The register
// file grows with windows past the default's 256-entry headroom.
func variantSet(w int) map[string]any {
	return map[string]any{"WindowSize": w, "PRegs": 256 + max(w, 256)}
}

// sweepSpec is the sweep an arrival submits.
func sweepSpec(a Arrival) map[string]any {
	var variants []map[string]any
	for _, w := range a.Windows {
		variants = append(variants, map[string]any{"label": fmt.Sprintf("w%d", w), "set": variantSet(w)})
	}
	return map[string]any{
		"title":         "perfbench",
		"benchmarks":    a.Benches,
		"scale":         a.Scale,
		"variants":      variants,
		"per_benchmark": true,
	}
}

func parseSweep(a Arrival) (*exper.SweepSpec, error) {
	data, err := json.Marshal(sweepSpec(a))
	if err != nil {
		return nil, err
	}
	return exper.ParseSpec(data)
}

// jobRec is one submitted job as the client saw it.
type jobRec struct {
	a      Arrival
	due    time.Time // scheduled send time
	stream bool      // stream this job's events
	lag    time.Duration
	rtt    time.Duration
	status int
	id     string
	view   serve.JobView
}

// latency is the time from the job's scheduled send to its terminal
// state; a refused or failed job misses any limit.
func (j *jobRec) latency(limit float64) float64 {
	if j.view.State != serve.StateDone || j.view.Finished == nil {
		return 1000 * limit
	}
	return j.view.Finished.Sub(j.due).Seconds()
}

type phaseResult struct {
	rate  float64
	burst bool
	passTimes
	jobs     []*jobRec
	stats    exper.Stats
	fs       fsStats
	depthMax int
	sseOK    bool
	insts    uint64
	horizon  time.Time
	lastDone time.Time
	// copyStore is the time linking the phase's store copy took (kept
	// out of setup_s).
	copyStore time.Duration
}

// servePhase runs one phase on a fresh engine, store copy and server:
// set-up, the arrivals, and the wait for every job's terminal state.
// An open-loop phase sends each arrival at its scheduled time; a burst
// sends them all at the phase's start, so its wall time is the time the
// service takes to finish the job set.
func servePhase(ctx context.Context, t *Tracer, nproc int, spec *LoadSpec, rate float64, burst bool, arrivals []Arrival, template, dir string, counts map[string]uint64) (*phaseResult, error) {
	root := t.Begin(0, "workload.serve-mixed", fmt.Sprint(rate))
	defer root.End()
	pr := &phaseResult{rate: rate, burst: burst}
	if burst {
		// Sent in a seed-independent order: by shape, clients interleaved.
		arrivals = slices.Clone(arrivals)
		for i := range arrivals {
			arrivals[i].At = 0
		}
		slices.SortStableFunc(arrivals, func(a, b Arrival) int {
			return cmp.Or(cmp.Compare(a.Seq, b.Seq), cmp.Compare(a.Client, b.Client))
		})
	}
	// Every phase starts from the same store state: a copy of the
	// template. Making the copy is the benchmark's scaffolding, not the
	// service's set-up, and its cost is the filesystem's, so it stays
	// out of setup_s.
	var err error
	pr.copyStore = t.do(root.ID(), "copy_store", "", func(int) { err = linkDir(template, dir) })
	if err != nil {
		return nil, fmt.Errorf("copying the store template: %w", err)
	}
	runtime.GC() // leave the previous phase's garbage out of set-up
	var (
		tfs *timingFS
		srv *serve.Server
		hs  *http.Server
		ln  net.Listener
	)
	setup, err := timeSetup(t, func(t *Tracer) error {
		var err error
		t.do(root.ID(), "setup", "", func(id int) {
			for _, sc := range spec.Pool.Scales {
				if err = assemble(t, id, poolBenches(spec), sc); err != nil {
					return
				}
			}
			t.do(id, "store.open", "", func(int) {
				tfs = newTimingFS(store.OSFS())
				var st *store.Store
				if st, err = store.OpenFS(dir, tfs); err != nil {
					return
				}
				r := exper.NewRunner(nproc)
				r.SetStore(st)
				srv = serve.New(r, serve.Config{QueueDepth: 1 << 16})
			})
			if err != nil {
				return
			}
			t.do(id, "serve.listen", "", func(int) { ln, err = net.Listen("tcp", "127.0.0.1:0") })
			if err != nil {
				return
			}
			hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
		})
		return err
	}, func() {
		// An earlier set-up's server never served; drop it.
		srv.Shutdown(context.Background())
		ln.Close()
	})
	if err != nil {
		return nil, fmt.Errorf("phase set-up: %w", err)
	}
	var serveWG sync.WaitGroup
	serveWG.Add(1)
	go func() {
		defer serveWG.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(sctx)
		_ = hs.Shutdown(sctx)
		serveWG.Wait()
		_ = os.RemoveAll(dir)
	}()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}}
	defer client.CloseIdleConnections()

	var start time.Time
	pt, err := timeRegion(func() error {
		start = time.Now()
		return drive(ctx, t, root.ID(), client, base, nproc, start, arrivals, pr)
	})
	if err != nil {
		return nil, err
	}
	pr.passTimes = pt
	pr.setup = setup
	pr.horizon = start
	if !burst {
		pr.horizon = start.Add(time.Duration(phaseSeconds * float64(time.Second)))
	}
	pr.wall = pr.lastDone.Sub(start)
	pr.fs = tfs.Stats()
	m, err := getMetrics(client, base)
	if err != nil {
		return nil, err
	}
	pr.stats = m.Engine
	for _, j := range pr.jobs {
		for _, b := range j.a.Benches {
			pr.insts += counts[fmt.Sprint(b, "@", j.a.Scale)] * uint64(len(j.a.Windows)+1)
		}
	}
	return pr, nil
}

// drive is the open-loop generator: it sends each arrival at its
// scheduled time over at most nproc connections, streams one job's
// events to check terminal-event delivery, polls /metrics for queue
// depth until every job is terminal, then reads the job views.
func drive(ctx context.Context, t *Tracer, parent int, client *http.Client, base string, nproc int, start time.Time, arrivals []Arrival, pr *phaseResult) error {
	pr.jobs = make([]*jobRec, len(arrivals))
	work := make(chan *jobRec)
	var senders sync.WaitGroup
	var sse sync.WaitGroup
	stream := 0 // the first sampled job, else the first job
	for i, a := range arrivals {
		if a.Sampled {
			stream = i
			break
		}
	}
	for k := 0; k < nproc; k++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for j := range work {
				submitJob(t, parent, client, base, j)
				if j.stream && j.id != "" {
					sse.Add(1)
					go func() {
						defer sse.Done()
						pr.sseOK = streamToTerminal(ctx, client, base, j.id)
					}()
				}
			}
		}()
	}
	for i, a := range arrivals {
		j := &jobRec{a: a, due: start.Add(a.At), stream: i == stream}
		pr.jobs[i] = j
		if d := time.Until(j.due); d > 0 {
			time.Sleep(d)
		}
		select {
		case work <- j:
		case <-ctx.Done():
		}
	}
	close(work)
	senders.Wait()
	if ctx.Err() != nil {
		return ctx.Err()
	}
	accepted := 0
	for _, j := range pr.jobs {
		if j.id != "" {
			accepted++
		}
	}
	deadline := time.Now().Add(120 * time.Second)
	for {
		m, err := getMetrics(client, base)
		if err != nil {
			return err
		}
		depth := 0
		for _, n := range m.Queues {
			depth += n
		}
		pr.depthMax = max(pr.depthMax, depth)
		terminal := m.Jobs[string(serve.StateDone)] + m.Jobs[string(serve.StateFailed)] + m.Jobs[string(serve.StateCanceled)]
		if terminal >= accepted {
			break
		}
		if time.Now().After(deadline) {
			return errors.New("jobs still running two minutes after the last arrival")
		}
		select {
		case <-time.After(25 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	sse.Wait()
	views, err := listJobs(client, base)
	if err != nil {
		return err
	}
	for _, j := range pr.jobs {
		v, ok := views[j.id]
		if j.id == "" || !ok {
			continue
		}
		j.view = v
		if v.Finished != nil && v.Finished.After(pr.lastDone) {
			pr.lastDone = *v.Finished
		}
		if t != nil && v.Finished != nil {
			// The job's life as the client sees it, from its scheduled
			// send to its terminal state.
			t.mu.Lock()
			t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: "serve.job", Req: j.id,
				Start: j.due.Sub(t.epoch), End: v.Finished.Sub(t.epoch)})
			t.mu.Unlock()
		}
	}
	return nil
}

func submitJob(t *Tracer, parent int, client *http.Client, base string, j *jobRec) {
	body, err := json.Marshal(map[string]any{
		"tenant":  j.a.Tenant,
		"slo":     j.a.Class,
		"sampled": j.a.Sampled,
		"spec":    sweepSpec(j.a),
	})
	if err != nil {
		return
	}
	sent := time.Now()
	j.lag = sent.Sub(j.due)
	s := t.Begin(parent, "serve.submit", "")
	resp, err := client.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	s.End()
	j.rtt = time.Since(sent)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	j.status = resp.StatusCode
	var v serve.JobView
	if resp.StatusCode == http.StatusAccepted && json.NewDecoder(resp.Body).Decode(&v) == nil {
		j.id = v.ID
	}
	_, _ = io.Copy(io.Discard, resp.Body)
}

// streamToTerminal reads a job's SSE stream until its terminal event and
// reports whether a done event arrived.
func streamToTerminal(ctx context.Context, client *http.Client, base, id string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return false
	}
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		switch strings.TrimPrefix(sc.Text(), "event: ") {
		case "done":
			return true
		case "error", "canceled":
			return false
		}
	}
	return false
}

func getMetrics(client *http.Client, base string) (*serve.Metrics, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m serve.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	return &m, nil
}

func listJobs(client *http.Client, base string) (map[string]serve.JobView, error) {
	resp, err := client.Get(base + "/v1/jobs")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var body struct {
		Jobs []serve.JobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("decoding the job list: %w", err)
	}
	out := map[string]serve.JobView{}
	for _, v := range body.Jobs {
		out[v.ID] = v
	}
	return out, nil
}

// linkDir recreates src's tree at dst with every file hard-linked: the
// store never writes an entry in place (it writes a temp file and
// renames it over the entry), so a phase's writes cannot reach the
// template.
func linkDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return os.Link(path, target)
	})
}

func poolBenches(spec *LoadSpec) []*workloads.Benchmark {
	var out []*workloads.Benchmark
	for _, n := range spec.Pool.Benchmarks {
		if b, ok := workloads.ByName(n); ok {
			out = append(out, b)
		}
	}
	return out
}

// populate writes cells into r's store through r, an engine separate
// from the one under test: the store-resident share of the pool.
func populate(ctx context.Context, r *exper.Runner, nproc int, cells []PopCell) error {
	sem := make(chan struct{}, nproc)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	for _, c := range cells {
		b, ok := workloads.ByName(c.Bench)
		if !ok {
			return fmt.Errorf("no benchmark %q", c.Bench)
		}
		cfg, err := poolConfig(c.Window)
		if err != nil {
			return err
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			var err error
			if c.Sampled {
				_, err = r.RunSampled(ctx, cfg, b, c.Scale, sample.DefaultConfig())
			} else {
				_, err = r.Run(ctx, cfg, b, c.Scale)
			}
			if err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return first
}

// poolConfig resolves a pool window's config exactly as the service
// resolves the same variant.
func poolConfig(w int) (pipeline.Config, error) {
	spec, err := parseSweep(Arrival{Benches: []string{"mcf"}, Scale: 1, Windows: []int{w}})
	if err != nil {
		return pipeline.Config{}, err
	}
	_, cfgs, err := spec.Resolve()
	if err != nil {
		return pipeline.Config{}, err
	}
	return cfgs[1], nil
}

// freshTable recomputes a job's table on a fresh engine through
// exper.Sweep (or SweepSampled), independently of the service.
func freshTable(ctx context.Context, r *exper.Runner, a Arrival) (string, *exper.SweepResult, error) {
	spec, err := parseSweep(a)
	if err != nil {
		return "", nil, err
	}
	var sr *exper.SweepResult
	if a.Sampled {
		sr, err = r.SweepSampled(ctx, spec, sample.DefaultConfig())
	} else {
		sr, err = r.Sweep(ctx, spec)
	}
	if err != nil {
		return "", nil, err
	}
	var buf bytes.Buffer
	if err := sr.WriteTable(&buf); err != nil {
		return "", nil, err
	}
	return buf.String(), sr, nil
}

func serveDigest(ctx context.Context, seed int64) (string, error) {
	spec, err := loadSpecFile(serveSpecPath)
	if err != nil {
		return "", err
	}
	r := exper.NewRunner(0)
	var tables []string
	arrivals := spec.Schedule(seed, nominalRate)
	slices.SortFunc(arrivals, byShape)
	for _, a := range arrivals {
		tab, _, err := freshTable(ctx, r, a)
		if err != nil {
			return "", err
		}
		tables = append(tables, tab)
	}
	return digest(tables...), nil
}

// byShape orders arrivals by client, then by job shape: the same order
// whether the jobs were sent open-loop or as a burst.
func byShape(a, b Arrival) int {
	return cmp.Or(cmp.Compare(a.Client, b.Client), cmp.Compare(a.Seq, b.Seq))
}

// jobTables digests the jobs' tables in byShape order.
func jobTables(jobs []*jobRec) string {
	jobs = slices.Clone(jobs)
	slices.SortFunc(jobs, func(a, b *jobRec) int { return byShape(a.a, b.a) })
	var tables []string
	for _, j := range jobs {
		if j.view.Result != nil {
			tables = append(tables, j.view.Result.Table)
		} else {
			tables = append(tables, "missing "+j.id)
		}
	}
	return digest(tables...)
}

// phaseMeetsSLO: critical p90 within the limit and no backlog left
// growing past the arrivals (the last job ends within the limit of the
// phase's last possible arrival).
func phaseMeetsSLO(pr *phaseResult) bool {
	crit := classLatencies([]*phaseResult{pr}, "critical")
	return percentile(crit, 0.9).Value <= latencyLimitS &&
		pr.lastDone.Sub(pr.horizon).Seconds() <= latencyLimitS
}

// climbLadder finds the highest ladder rate that meets the SLO: upward
// from the nominal rate until a rate misses it, or downward if the
// nominal rate (whose phase is nominal) misses it.
func climbLadder(nominal *phaseResult, run func(rate float64) (*phaseResult, error)) (float64, []*phaseResult, error) {
	var phases []*phaseResult
	if phaseMeetsSLO(nominal) {
		maxRate := nominalRate
		for _, rate := range rateLadder {
			if rate <= nominalRate {
				continue
			}
			pr, err := run(rate)
			if err != nil {
				return 0, nil, err
			}
			phases = append(phases, pr)
			if !phaseMeetsSLO(pr) {
				break
			}
			maxRate = rate
		}
		return maxRate, phases, nil
	}
	for k := len(rateLadder) - 1; k >= 0; k-- {
		rate := rateLadder[k]
		if rate >= nominalRate {
			continue
		}
		pr, err := run(rate)
		if err != nil {
			return 0, nil, err
		}
		phases = append(phases, pr)
		if phaseMeetsSLO(pr) {
			return rate, phases, nil
		}
	}
	return 0, phases, nil
}

func runServeMixed(e *env) (*outcome, error) {
	o := newOutcome()
	spec, err := loadSpecFile(serveSpecPath)
	if err != nil {
		return nil, err
	}
	counts := map[string]uint64{}
	for _, sc := range spec.Pool.Scales {
		for name, n := range instCounts(poolBenches(spec), sc) {
			counts[fmt.Sprint(name, "@", sc)] = n
		}
	}
	schedules := map[float64][]Arrival{}
	for _, rate := range rateLadder {
		schedules[rate] = spec.Schedule(e.seed, rate)
	}
	work := filepath.Join(traceDir, fmt.Sprintf("serve-%d", os.Getpid()))
	defer os.RemoveAll(work)
	template := filepath.Join(work, "template")
	// The template store holds the store-resident cells of every rate
	// run so far. Each rate fills it through an engine of its own, which
	// is dropped before the phase starts (servePhase collects garbage
	// before set-up), so none of its memory or collector work lands in a
	// measured phase. Cells a rate shares with an earlier one are store
	// hits.
	populated := map[float64]bool{}
	ensure := func(rate float64) error {
		if populated[rate] {
			return nil
		}
		populated[rate] = true
		st, err := store.Open(template)
		if err != nil {
			return err
		}
		pop := exper.NewRunner(e.nproc)
		pop.SetStore(st)
		t0 := time.Now()
		if err := populate(e.ctx, pop, e.nproc, spec.StoreCells(e.seed, schedules[rate])); err != nil {
			return fmt.Errorf("populating the store: %w", err)
		}
		o.note("store template: rate %v populated in %.2fs", rate, time.Since(t0).Seconds())
		return nil
	}

	var tracer *Tracer
	if e.traced {
		tracer = newTracer()
	}
	phase := 0
	runPhase := func(rate float64, burst bool, t *Tracer) (*phaseResult, error) {
		if err := ensure(rate); err != nil {
			return nil, err
		}
		phase++
		return servePhase(e.ctx, t, e.nproc, spec, rate, burst, schedules[rate], template, filepath.Join(work, fmt.Sprint("phase-", phase)), counts)
	}

	// The passes: the nominal-rate job set offered all at once. An
	// untraced run repeats them for the whole measuring time (at least
	// three); a traced run alternates untraced and traced ones for 40% of
	// it (at least two of each), then runs the open-loop phases.
	budget, minPasses := e.seconds, 3
	if e.traced {
		budget, minPasses = 0.4*e.seconds, 4
	}
	var bursts, tracedBursts, nominal, ladder []*phaseResult
	start := time.Now()
	for i := 0; e.ctx.Err() == nil && (i < minPasses || time.Since(start).Seconds() < budget); i++ {
		var t *Tracer
		if e.traced && i%2 == 1 {
			t = tracer
		}
		pr, err := runPhase(nominalRate, true, t)
		if err != nil {
			return nil, err
		}
		if t != nil {
			tracedBursts = append(tracedBursts, pr)
		} else {
			bursts = append(bursts, pr)
		}
	}
	// Open-loop phases (traced runs only): three at the nominal rate for
	// the latency percentiles, then the rate ladder.
	maxRate := 0.0
	if e.traced {
		for i := 0; i < 3 && e.ctx.Err() == nil; i++ {
			pr, err := runPhase(nominalRate, false, nil)
			if err != nil {
				return nil, err
			}
			nominal = append(nominal, pr)
		}
		if e.ctx.Err() == nil {
			maxRate, ladder, err = climbLadder(nominal[0], func(rate float64) (*phaseResult, error) {
				return runPhase(rate, false, nil)
			})
			if err != nil {
				return nil, err
			}
		}
	}
	if e.ctx.Err() != nil {
		return nil, e.ctx.Err()
	}

	// Operations are jobs; a refused, failed or mismatched job fails.
	// Every nominal-rate phase, burst or open-loop, runs the same job set
	// and must give the same tables.
	want := jobTables(bursts[0].jobs)
	for pi, pr := range slices.Concat(bursts, tracedBursts, nominal, ladder) {
		for _, j := range pr.jobs {
			o.attempted++
			if j.id == "" || j.view.State != serve.StateDone {
				o.fail(1, "phase %d rate %v: job %q status %d state %q %s", pi, pr.rate, j.id, j.status, j.view.State, j.view.Error)
			}
		}
		if !pr.sseOK {
			o.fail(1, "phase %d: the streamed job's terminal event did not arrive", pi)
		}
		if pr.rate == nominalRate && jobTables(pr.jobs) != want {
			o.fail(len(pr.jobs), "phase %d: job tables differ from the first pass", pi)
		}
	}
	checkDigest(e, o, "serve-mixed", want)
	spotCells := serveSpotCheck(e, o, bursts[len(bursts)-1].jobs)

	var times []passTimes
	var rates, copies []float64
	for _, pr := range bursts {
		copies = append(copies, pr.copyStore.Seconds())
		times = append(times, pr.passTimes)
		rates = append(rates, float64(pr.insts)/1e6/pr.wall.Seconds())
	}
	passSummary(o, times)
	o.note("store copy per phase (not in setup_s): median %.3fs", median(copies))
	o.m["sim_minsts_per_s"] = median(rates)
	o.m["sample_ipc_err_pct"] = sampleIPCError(e.ctx, o)

	if e.traced {
		serveLayerMetrics(o, nominal, maxRate)
		last := tracedBursts[len(tracedBursts)-1]
		engineMetrics(o.m, exper.Stats{}, last.stats)
		o.m["store.reads"] = float64(last.fs.Reads)
		o.m["store.read_s"] = last.fs.ReadTime.Seconds()
		o.m["store.writes"] = float64(last.fs.Writes)
		o.m["store.write_s"] = last.fs.WriteTime.Seconds()
		o.m["store.write_mib"] = float64(last.fs.WriteBytes) / (1 << 20)
		o.m["store.fs_errors"] = float64(last.fs.Errors)
		var uw, tw []float64
		for _, p := range bursts {
			uw = append(uw, p.wall.Seconds())
		}
		for _, p := range tracedBursts {
			tw = append(tw, p.wall.Seconds())
		}
		o.m["trace.overhead_frac"] = median(tw)/median(uw) - 1
		spans := tracer.Spans()
		o.m["trace.coverage_frac"] = passCoverage(spans, "workload.serve-mixed", "setup")
		o.m["workloads.program_s"] = totalTime(spans, "workloads.program").Seconds() / float64(len(tracedBursts))
		var l ledger
		red := tracer.Begin(0, "redrive", "")
		for _, sc := range spec.Pool.Scales {
			for _, b := range poolBenches(spec) {
				if err := l.exactProgram(e.ctx, tracer, red.ID(), b.Program(sc), pipeline.DefaultConfig()); err != nil {
					o.fail(1, "re-drive %s: %v", b.Name, err)
				}
			}
		}
		red.End()
		l.metrics(o.m)
		simMetrics(o.m, spotCells)
		o.spans = tracer.Spans()
	}
	finishOps(o)
	return o, nil
}

func classLatencies(phases []*phaseResult, class string) []float64 {
	var out []float64
	for _, pr := range phases {
		for _, j := range pr.jobs {
			if j.a.Class == class {
				out = append(out, j.latency(latencyLimitS))
			}
		}
	}
	return out
}

// serveLayerMetrics reports what the client observed at the HTTP
// boundary over the open-loop nominal-rate phases.
func serveLayerMetrics(o *outcome, phases []*phaseResult, maxRate float64) {
	pct := func(name string, xs []float64, p float64) {
		pc := percentile(xs, p)
		o.m[name] = pc.Value
		if !pc.OK {
			o.note("%s: only %d samples, %d beyond the percentile (need %d)", name, pc.N, pc.Beyond, minBeyond)
		}
	}
	for _, class := range []string{"critical", "batch"} {
		lat := classLatencies(phases, class)
		pct("serve."+class+"_p50_s", lat, 0.5)
		pct("serve."+class+"_p90_s", lat, 0.9)
		o.m["serve."+class+"_n"] = float64(len(lat))
		var wait []float64
		for _, pr := range phases {
			for _, j := range pr.jobs {
				if j.a.Class == class && j.view.Started != nil {
					wait = append(wait, j.view.Started.Sub(j.view.Created).Seconds())
				}
			}
		}
		pct("serve.queue_wait_p50_s_"+class, wait, 0.5)
		pct("serve.queue_wait_p90_s_"+class, wait, 0.9)
	}
	var rtt, run, lag []float64
	submits, rejected, depth := 0, 0, 0
	for _, pr := range phases {
		depth = max(depth, pr.depthMax)
		for _, j := range pr.jobs {
			submits++
			if j.status == http.StatusTooManyRequests || j.status == http.StatusServiceUnavailable {
				rejected++
			}
			rtt = append(rtt, float64(j.rtt.Microseconds())/1000)
			lag = append(lag, float64(j.lag.Microseconds())/1000)
			if j.view.Started != nil && j.view.Finished != nil {
				run = append(run, j.view.Finished.Sub(*j.view.Started).Seconds())
			}
		}
	}
	pct("serve.submit_p50_ms", rtt, 0.5)
	pct("serve.run_p50_s", run, 0.5)
	pct("gen.lag_p90_ms", lag, 0.9)
	o.m["serve.rejected_frac"] = float64(rejected) / float64(max(submits, 1))
	o.m["serve.queue_depth_max"] = float64(depth)
	o.m["serve.slo_max_rate_jobs_per_s"] = maxRate
	o.note("serve: latency limit %.2fs on critical p90; %d critical and %d batch samples at %v jobs/s; max rate meeting it %v jobs/s",
		latencyLimitS, int(o.m["serve.critical_n"]), int(o.m["serve.batch_n"]), nominalRate, maxRate)
}

// serveSpotCheck recomputes a seeded handful of jobs' tables with
// exper.Sweep on a fresh engine and compares them with the service's.
// It returns the recomputed cells.
func serveSpotCheck(e *env, o *outcome, jobs []*jobRec) []*pipeline.Result {
	rng := rand.New(rand.NewSource(e.seed + 202))
	r := exper.NewRunner(e.nproc)
	var cells []*pipeline.Result
	for k := 0; k < 4 && len(jobs) > 0; k++ {
		j := jobs[rng.Intn(len(jobs))]
		o.attempted++
		tab, sr, err := freshTable(e.ctx, r, j.a)
		if err != nil {
			o.fail(1, "spot check %s: %v", j.id, err)
			continue
		}
		if j.view.Result == nil || j.view.Result.Table != tab {
			o.fail(1, "spot check %s: served table differs from a fresh exper.Sweep", j.id)
		}
		for _, row := range sr.Cells {
			cells = append(cells, row...)
		}
	}
	return cells
}
