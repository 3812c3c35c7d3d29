package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/exper"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/workloads"
)

// The committed references, under refsDir.
const (
	refPaperAll = "paper-all.txt"
	refIPC      = "ipc-exact.json"
	refDigests  = "digests.json"
)

// ipcCheckSet is the held-back cell set behind sample_ipc_err_pct: two
// benchmarks no workload sweeps, on the baseline and the optimized
// default machine, at default scale. Their exact IPC is committed.
var ipcCheckSet = []string{"mcf", "vpr"}

func checkConfigs() []pipeline.Config {
	return []pipeline.Config{pipeline.DefaultConfig().Baseline(), pipeline.DefaultConfig()}
}

func checkCellID(bench string, cfg pipeline.Config) string {
	return bench + "/" + cfg.Key()
}

func readRef(name string, v any) error {
	data, err := os.ReadFile(filepath.Join(refsDir, name))
	if err != nil {
		return fmt.Errorf("reading reference: %w", err)
	}
	if s, ok := v.(*string); ok {
		*s = string(data)
		return nil
	}
	return json.Unmarshal(data, v)
}

func writeRef(name string, v any) error {
	var data []byte
	if s, ok := v.(string); ok {
		data = []byte(s)
	} else {
		var err error
		if data, err = json.MarshalIndent(v, "", "  "); err != nil {
			return err
		}
		data = append(data, '\n')
	}
	return os.WriteFile(filepath.Join(refsDir, name), data, 0o644)
}

// simKey renders the simulated content of a result — everything the
// timing model computed, without the labels (machine display name,
// scale stamp) that differ between entry points.
func simKey(r *pipeline.Result) string {
	c := *r
	c.Machine, c.Scale = "", 0
	data, err := json.Marshal(c)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	return string(data)
}

func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:%s", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkDigest compares a default-seed output digest with the committed
// one; other seeds have none to compare against.
func checkDigest(e *env, o *outcome, workload, got string) {
	if e.seed != defaultSeed {
		return
	}
	var refs map[string]string
	if err := readRef(refDigests, &refs); err != nil {
		o.fail(1, "%v", err)
		return
	}
	if refs[workload] != got {
		o.fail(1, "%s output digest %s differs from the committed %s", workload, got, refs[workload])
		return
	}
	o.note("digest: matches the committed default-seed reference")
}

// sampleIPCError runs the held-back check set through a fresh engine's
// sampled path and returns the largest |sampled - exact| / exact IPC,
// in percent, against the committed exact values.
func sampleIPCError(ctx context.Context, o *outcome) float64 {
	var exact map[string]float64
	if err := readRef(refIPC, &exact); err != nil {
		o.fail(1, "%v", err)
		return math.NaN()
	}
	r := exper.NewRunner(0)
	worst := 0.0
	for _, name := range ipcCheckSet {
		b, _ := workloads.ByName(name)
		for _, cfg := range checkConfigs() {
			o.attempted++
			est, err := r.RunSampled(ctx, cfg, b, 0, sample.DefaultConfig())
			if err != nil {
				o.fail(1, "check cell %s: %v", name, err)
				continue
			}
			want, ok := exact[checkCellID(name, cfg)]
			if !ok || est.ExactFallback {
				o.fail(1, "check cell %s/%s: no exact reference or not sampled", name, cfg.Name)
				continue
			}
			worst = max(worst, 100*math.Abs(est.EstIPC()-want)/want)
		}
	}
	return worst
}

// exactCheckIPC computes the committed exact IPC of the check set.
func exactCheckIPC(ctx context.Context) (map[string]float64, error) {
	out := map[string]float64{}
	for _, name := range ipcCheckSet {
		b, _ := workloads.ByName(name)
		for _, cfg := range checkConfigs() {
			s, err := pipeline.New(cfg, b.Program(0))
			if err != nil {
				return nil, err
			}
			r, err := s.Run(ctx, pipeline.RunOpts{})
			if err != nil {
				return nil, err
			}
			out[checkCellID(name, cfg)] = r.IPC()
		}
	}
	return out, nil
}

// simMetrics sums the simulated-machine counters over cells. These are
// simulated time and exact counts: no host-performance change may move
// them.
func simMetrics(m map[string]float64, cells []*pipeline.Result) {
	var cycles, retired, mis, early, loads, removed, stalls float64
	var ipcs, l1d, l1i []float64
	for _, r := range cells {
		cycles += float64(r.Cycles)
		retired += float64(r.Retired)
		mis += float64(r.Mispredicted)
		early += float64(r.EarlyRecovered)
		loads += float64(r.Opt.Loads)
		removed += float64(r.Opt.LoadsRemoved)
		stalls += float64(r.WindowStalls)
		ipcs = append(ipcs, r.IPC())
		l1d = append(l1d, r.L1DMissRate)
		l1i = append(l1i, r.L1IMissRate)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return ratio(s, float64(len(xs)))
	}
	m["sim.cycles"] = cycles
	m["sim.retired"] = retired
	m["sim.ipc_geomean"] = geomean(ipcs)
	m["sim.mispredicts_per_kinst"] = ratio(mis, retired/1000)
	m["sim.early_recovered_pct"] = 100 * ratio(early, mis)
	m["sim.loads_removed_pct"] = 100 * ratio(removed, loads)
	m["sim.l1d_miss_rate"] = mean(l1d)
	m["sim.l1i_miss_rate"] = mean(l1i)
	m["sim.window_stalls_per_kinst"] = ratio(stalls, retired/1000)
}
