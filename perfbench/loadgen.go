package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"time"
)

// The serve-mixed load's fixed parameters. They are not part of the
// spec file: each has one value, chosen as README.md explains.
const (
	// phaseSeconds is how long an open-loop phase offers arrivals.
	phaseSeconds = 4.0
	// nominalRate (jobs/s) is the open-loop rate whose latencies are
	// reported; its arrivals are also the burst passes' job set.
	nominalRate = 32.0
	// latencyLimitS is the limit critical p90 must meet at a rate for
	// the rate to count as sustained.
	latencyLimitS = 0.5
	// The pool's window sizes run from windowMin to windowMax in steps
	// of windowStep; hotWindows of them per scale form the hot set, and
	// the rest split evenly into the store and fresh sets.
	windowMin, windowMax, windowStep = 32, 1024, 4
	hotWindows                       = 2
	setWindows                       = ((windowMax-windowMin)/windowStep + 1 - hotWindows) / 2
)

// rateLadder is the fixed set of offered aggregate rates (jobs/s), in
// increasing order.
var rateLadder = []float64{16, 32, 64, 128, 256}

// LoadSpec is the serve-mixed open-loop workload: clients in the shape
// of the inference-sim workload-spec schema (rate_fraction, tenant,
// slo_class), each sending sweep jobs whose cells are drawn from a
// seeded cell pool. The generated arrivals depend only on the spec and
// the seed.
type LoadSpec struct {
	Pool    PoolSpec `json:"pool"`
	Clients []Client `json:"clients"`
}

// PoolSpec names the cell pool's benchmarks and scales. A cell is
// (benchmark, scale, window size); per scale, the window sizes split
// into a hot set (repeats), a store-resident set (pre-populated) and a
// fresh set.
type PoolSpec struct {
	Benchmarks []string `json:"benchmarks"`
	Scales     []int    `json:"scales"`
}

// Client is one traffic source.
type Client struct {
	ID           string   `json:"id"`
	Tenant       string   `json:"tenant"`
	SLOClass     string   `json:"slo_class"`
	RateFraction float64  `json:"rate_fraction"`
	Job          JobShape `json:"job"`
	Share        Share    `json:"pool_share"`
}

// JobShape is the sweep a client sends: Benchmarks benchmarks from the
// pool at one of Scales, each under the baseline reference plus the
// pool_share variants; a SampledFraction share of jobs ask for sampled
// simulation.
type JobShape struct {
	Benchmarks      int     `json:"benchmarks"`
	Scales          []int   `json:"scales"`
	SampledFraction float64 `json:"sampled_fraction"`
}

// Share counts a job's window-size variants by pool set: repeat (hot
// cells, memory hits once warm), store (pre-populated, a store read)
// and fresh (simulate and write).
type Share struct {
	Repeat int `json:"repeat"`
	Store  int `json:"store"`
	Fresh  int `json:"fresh"`
}

// Variants is the job's number of window-size variants.
func (s Share) Variants() int { return s.Repeat + s.Store + s.Fresh }

// FieldError is a validation error carrying the JSON path of the
// offending field.
type FieldError struct {
	Path string
	Msg  string
}

func (e *FieldError) Error() string { return e.Path + ": " + e.Msg }

func ferr(path, format string, args ...any) error {
	return &FieldError{Path: path, Msg: fmt.Sprintf(format, args...)}
}

// ParseLoadSpec decodes and validates a spec; unknown fields are errors.
func ParseLoadSpec(data []byte) (*LoadSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s LoadSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("load spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

func loadSpecFile(path string) (*LoadSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseLoadSpec(data)
}

// Validate reports every invalid field, each by its path.
func (s *LoadSpec) Validate() error {
	var errs []error
	add := func(err error) { errs = append(errs, err) }
	p := s.Pool
	if len(p.Benchmarks) == 0 {
		add(ferr("pool.benchmarks", "needs at least one benchmark"))
	}
	if len(p.Scales) == 0 {
		add(ferr("pool.scales", "needs at least one scale"))
	}
	for i, sc := range p.Scales {
		if sc <= 0 {
			add(ferr(fmt.Sprintf("pool.scales[%d]", i), "scale %d must be positive", sc))
		}
	}
	if len(s.Clients) == 0 {
		add(ferr("clients", "needs at least one client"))
	}
	var frac float64
	ids := map[string]bool{}
	for i, c := range s.Clients {
		at := fmt.Sprintf("clients[%d]", i)
		if c.ID == "" || ids[c.ID] {
			add(ferr(at+".id", "missing or duplicate id %q", c.ID))
		}
		ids[c.ID] = true
		if c.Tenant == "" {
			add(ferr(at+".tenant", "missing"))
		}
		if c.SLOClass != "critical" && c.SLOClass != "batch" {
			add(ferr(at+".slo_class", "%q is not critical or batch", c.SLOClass))
		}
		if !(c.RateFraction > 0) {
			add(ferr(at+".rate_fraction", "%v must be positive", c.RateFraction))
		}
		frac += c.RateFraction
		j := c.Job
		if j.Benchmarks <= 0 || j.Benchmarks > len(p.Benchmarks) {
			add(ferr(at+".job.benchmarks", "%d is not in [1, %d]", j.Benchmarks, len(p.Benchmarks)))
		}
		if len(j.Scales) == 0 {
			add(ferr(at+".job.scales", "needs at least one scale"))
		}
		for k, sc := range j.Scales {
			if !slices.Contains(p.Scales, sc) {
				add(ferr(fmt.Sprintf("%s.job.scales[%d]", at, k), "scale %d is not in pool.scales", sc))
			}
		}
		if j.SampledFraction < 0 || j.SampledFraction > 1 {
			add(ferr(at+".job.sampled_fraction", "%v is not in [0, 1]", j.SampledFraction))
		}
		sh := c.Share
		for _, f := range []struct {
			name string
			v    int
		}{{"repeat", sh.Repeat}, {"store", sh.Store}, {"fresh", sh.Fresh}} {
			if f.v < 0 {
				add(ferr(at+".pool_share."+f.name, "%d is negative", f.v))
			}
		}
		// Variant labels must be unique within a job, so no set may be
		// asked for more windows than it holds.
		if sh.Variants() < 1 {
			add(ferr(at+".pool_share", "a job needs at least one variant"))
		}
		if sh.Repeat > hotWindows {
			add(ferr(at+".pool_share.repeat", "%d is above the %d hot windows", sh.Repeat, hotWindows))
		}
		if max(sh.Store, sh.Fresh) > setWindows {
			add(ferr(at+".pool_share", "store or fresh above the %d windows of a set", setWindows))
		}
	}
	if len(s.Clients) > 0 && math.Abs(frac-1) > 1e-9 {
		add(ferr("clients", "rate fractions sum to %v, not 1", frac))
	}
	return errors.Join(errs...)
}

// Cell is one pool cell: a benchmark at a scale under a window size.
type Cell struct {
	Bench  string
	Scale  int
	Window int
}

// Arrival is one scheduled job.
type Arrival struct {
	At      time.Duration
	Client  int
	Seq     int // the job's shape index within its client (see shape)
	Tenant  string
	Class   string
	Sampled bool
	Scale   int
	Benches []string
	Windows []int // variant window sizes, shared by every benchmark of the job
}

// poolSets splits each scale's window sizes into hot, store and fresh
// sets. A window's set holds for every pool benchmark at that scale, so
// a job's cells keep their class whichever benchmarks it names.
type poolSets struct {
	hot, store, fresh map[int][]int
}

// pool builds the sets, stratified so that each spans the whole window
// range whatever the seed: the hot windows are evenly spaced from a
// seeded offset, and the rest alternate between store and fresh. Each
// set is listed in its draw order, a golden-ratio stride from a seeded
// start, so any run of draws spreads evenly over the range too. The
// seed moves which windows a job gets, not how large they run.
func (s *LoadSpec) pool(seed int64) poolSets {
	ps := poolSets{hot: map[int][]int{}, store: map[int][]int{}, fresh: map[int][]int{}}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed9001))
	var windows []int
	for w := windowMin; w <= windowMax; w += windowStep {
		windows = append(windows, w)
	}
	n := len(windows)
	for _, sc := range s.Pool.Scales {
		u := rng.Float64()
		hot := map[int]bool{}
		for k := 0; k < hotWindows; k++ {
			hot[int((float64(k)+u)*float64(n)/hotWindows)] = true
		}
		parity := rng.Intn(2)
		var store, fresh []int
		for i, w := range windows {
			switch {
			case hot[i]:
				ps.hot[sc] = append(ps.hot[sc], w)
			case (len(store)+len(fresh))%2 == parity:
				store = append(store, w)
			default:
				fresh = append(fresh, w)
			}
		}
		ps.store[sc] = strided(store[:setWindows], rng.Intn(setWindows))
		ps.fresh[sc] = strided(fresh[:setWindows], rng.Intn(setWindows))
	}
	return ps
}

// strided lists ws from index off in steps of about 0.618 × len(ws),
// coprime to it so every window appears once.
func strided(ws []int, off int) []int {
	n := len(ws)
	step := int(math.Round(float64(n) * 0.6180339887))
	for gcd(step, n) != 1 {
		step++
	}
	out := make([]int, n)
	for i := range out {
		out[i] = ws[(off+i*step)%n]
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// jobShape is what a job asks for apart from its window sizes.
type jobShape struct {
	seq     int
	scale   int   // index into the client's job.scales
	benches []int // indexes into pool.benchmarks, ascending
	sampled bool
}

// shape is the client's i-th job shape. Shapes are laid out so that
// the first n cover the pool evenly: job i starts its benchmarks at
// pool index i mod len(pool); each round of len(pool) jobs moves to the
// next scale; and each full cycle of scales is sampled or not so that
// sampled_fraction of the cycles are, spread evenly. Every benchmark so
// sees each scale and each of exact and sampled equally often.
func (c *Client) shape(i, poolSize int) jobShape {
	round := i / poolSize
	cycle := round / len(c.Job.Scales)
	f := c.Job.SampledFraction
	sh := jobShape{
		seq:     i,
		scale:   round % len(c.Job.Scales),
		sampled: math.Floor(float64(cycle+1)*f) > math.Floor(float64(cycle)*f),
	}
	for k := 0; k < c.Job.Benchmarks; k++ {
		sh.benches = append(sh.benches, (i+k)%poolSize)
	}
	sort.Ints(sh.benches)
	return sh
}

// Schedule generates the arrivals of one phase offering rate jobs/s for
// phaseSeconds. Each client is an independent Poisson process at
// rate × rate_fraction with its own seeded stream, so editing one
// client leaves the others' arrivals alone. The phase's arrival count
// per client is fixed at its expected value and, given the count, the
// arrival times are those of a Poisson process (sorted uniform times).
// The client's first n job shapes are dealt to those times in a seeded
// order. So the seed moves when jobs arrive and which windows they
// name, not how much work a phase offers. Store and fresh windows are
// drawn without replacement (every phase starts from the same store
// state), hot windows with replacement. The result is sorted by time.
func (s *LoadSpec) Schedule(seed int64, rate float64) []Arrival {
	ps := s.pool(seed)
	horizon := phaseSeconds * float64(time.Second)
	cursor := map[string]int{}
	draw := func(set map[int][]int, kind string, scale int) int {
		ws := set[scale]
		ck := fmt.Sprint(kind, scale)
		i := cursor[ck]
		cursor[ck] = i + 1
		return ws[i%len(ws)]
	}
	var out []Arrival
	for ci, c := range s.Clients {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(ci+1)*7919 + int64(rate*1000)))
		n := int(math.Round(rate * c.RateFraction * phaseSeconds))
		times := make([]float64, n)
		for i := range times {
			times[i] = rng.Float64() * horizon
		}
		sort.Float64s(times)
		order := rng.Perm(n)
		for i, t := range times {
			sh := c.shape(order[i], len(s.Pool.Benchmarks))
			a := Arrival{At: time.Duration(t), Client: ci, Seq: sh.seq, Tenant: c.Tenant, Class: c.SLOClass,
				Sampled: sh.sampled, Scale: c.Job.Scales[sh.scale]}
			for _, bi := range sh.benches {
				a.Benches = append(a.Benches, s.Pool.Benchmarks[bi])
			}
			hot := ps.hot[a.Scale]
			used := map[int]bool{}
			take := func(next func() int) {
				w := next()
				for used[w] { // labels must be unique within a job
					w = next()
				}
				used[w] = true
				a.Windows = append(a.Windows, w)
			}
			for k := 0; k < c.Share.Fresh; k++ {
				take(func() int { return draw(ps.fresh, "f", a.Scale) })
			}
			for k := 0; k < c.Share.Store; k++ {
				take(func() int { return draw(ps.store, "s", a.Scale) })
			}
			for k := 0; k < c.Share.Repeat; k++ {
				take(func() int { return hot[rng.Intn(len(hot))] })
			}
			out = append(out, a)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// PopCell is one cell set-up writes to the store before a phase.
type PopCell struct {
	Cell
	Sampled bool
}

// StoreCells lists the store-set cells the arrivals use, in first-use
// order without duplicates: exactly what set-up must pre-populate.
func (s *LoadSpec) StoreCells(seed int64, arrivals []Arrival) []PopCell {
	ps := s.pool(seed)
	seen := map[PopCell]bool{}
	var out []PopCell
	for _, a := range arrivals {
		for _, w := range a.Windows {
			if !slices.Contains(ps.store[a.Scale], w) {
				continue
			}
			for _, b := range a.Benches {
				pc := PopCell{Cell{b, a.Scale, w}, a.Sampled}
				if !seen[pc] {
					seen[pc] = true
					out = append(out, pc)
				}
			}
		}
	}
	return out
}
