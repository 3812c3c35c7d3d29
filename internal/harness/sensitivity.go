package harness

import (
	"context"
	"embed"
	"fmt"
	"io"

	"repro/internal/exper"
	"repro/internal/workloads"
)

// specs holds the speedup artifacts as exper sweep specs: each figure
// is a reference machine plus labeled variants, every one a delta from
// pipeline.DefaultConfig. The same files run unchanged through
// "contopt sweep" (sharded, merged, sampled) and POST /v1/sweeps.
//
//go:embed specs/*.json
var specs embed.FS

// specFigure runs the embedded spec specs/<name>.json over its
// benchmarks and prints one row per suite with the geomean speedup of
// each variant over the reference — the paper's figure layout.
func (o Options) specFigure(ctx context.Context, w io.Writer, name string) error {
	data, err := specs.ReadFile("specs/" + name + ".json")
	if err != nil {
		return err
	}
	spec, err := exper.ParseSpec(data)
	if err != nil {
		return fmt.Errorf("harness: specs/%s.json: %w", name, err)
	}
	benches, cfgs, err := spec.Resolve()
	if err != nil {
		return err
	}
	runs, err := o.runMatrix(ctx, benches, cfgs)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, spec.Title)
	tw := newTab(w)
	fmt.Fprint(tw, "suite")
	for _, v := range spec.Variants {
		fmt.Fprintf(tw, "\t%s", v.Label)
	}
	fmt.Fprintln(tw)
	for _, s := range workloads.Suites() {
		fmt.Fprint(tw, s)
		for vi := range spec.Variants {
			var vals []float64
			for _, r := range runs {
				if r.bench.Suite == s {
					vals = append(vals, r.results[vi+1].SpeedupOver(r.results[0]))
				}
			}
			fmt.Fprintf(tw, "\t%.3f", exper.Geomean(vals))
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// Figure8 evaluates continuous optimization on fetch-bound and
// execution-bound machine models (§5.3): scheduler entries doubled makes
// the machine fetch-bound; an 8-wide front end makes it execution-bound.
// All bars are relative to the default baseline.
func (o Options) Figure8(ctx context.Context, w io.Writer) error {
	return o.specFigure(ctx, w, "figure8")
}

// Figure9 compares value feedback alone against feedback plus
// optimization (§6.1).
func (o Options) Figure9(ctx context.Context, w io.Writer) error {
	return o.specFigure(ctx, w, "figure9")
}

// Figure10 sweeps the per-bundle dependence depth (§6.2): 0 (default),
// 1, 3, and 3 with one chained memory operation.
func (o Options) Figure10(ctx context.Context, w io.Writer) error {
	return o.specFigure(ctx, w, "figure10")
}

// Figure11 sweeps the optimizer's extra pipeline stages (§6.3): 0, 2
// (default), 4.
func (o Options) Figure11(ctx context.Context, w io.Writer) error {
	return o.specFigure(ctx, w, "figure11")
}

// Figure12 sweeps the value-feedback transmission delay (§6.4): 0, 1
// (default), 5, 10 cycles.
func (o Options) Figure12(ctx context.Context, w io.Writer) error {
	return o.specFigure(ctx, w, "figure12")
}

// MBCSweep is an ablation beyond the paper: Memory Bypass Cache capacity
// 32/64/128/256 entries — probing the mcf/untst "fits in the MBC" story.
// The 256-entry variant grows the register file to keep the headroom
// pipeline.Config.Validate requires.
func (o Options) MBCSweep(ctx context.Context, w io.Writer) error {
	return o.specFigure(ctx, w, "mbc")
}

// PolicySweep is an ablation beyond the paper: store policy and the
// minor optimizations toggled off (§3.2 claims the store policies differ
// little; we measure it).
func (o Options) PolicySweep(ctx context.Context, w io.Writer) error {
	return o.specFigure(ctx, w, "policy")
}
