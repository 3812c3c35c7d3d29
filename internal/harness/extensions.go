package harness

import (
	"context"
	"fmt"
	"io"

	"repro/internal/pipeline"
	"repro/internal/workloads"
)

// DiscreteSweep contrasts continuous optimization with the discrete
// (offline, trace-based) optimization the paper positions itself against
// in §3.4: the same table hardware with state invalidated at every
// trace boundary and no real-time value feedback. Trace lengths of 64,
// 256 and 1024 instructions bracket the frame sizes of rePLay-class
// systems.
func (o Options) DiscreteSweep(ctx context.Context, w io.Writer) error {
	return o.specFigure(ctx, w, "discrete")
}

// DeadValues reports the fraction of destination values that were
// overwritten without any pipeline consumer, with and without
// optimization — quantifying §2.3's observation that the optimizations
// "substantially increase the fraction of dead instructions in the
// instruction stream" (which a Butts-Sohi-style eliminator could then
// remove).
func (o Options) DeadValues(ctx context.Context, w io.Writer) error {
	def := pipeline.DefaultConfig()
	runs, err := o.runMatrix(ctx, workloads.All(), []pipeline.Config{def.Baseline(), def})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Extension — dead destination values, baseline vs. optimized (§2.3)")
	tw := newTab(w)
	fmt.Fprintln(tw, "suite\tbaseline dead\toptimized dead")
	type acc struct{ bd, bc, od, oc uint64 }
	per := map[string]*acc{}
	for _, r := range runs {
		a := per[r.bench.Suite]
		if a == nil {
			a = &acc{}
			per[r.bench.Suite] = a
		}
		a.bd += r.results[0].Opt.DeadValues
		a.bc += r.results[0].Opt.DeadCandidates
		a.od += r.results[1].Opt.DeadValues
		a.oc += r.results[1].Opt.DeadCandidates
	}
	for _, s := range workloads.Suites() {
		a := per[s]
		fmt.Fprintf(tw, "%s\t%.1f%%\t%.1f%%\n", s,
			100*float64(a.bd)/float64(max64(a.bc, 1)),
			100*float64(a.od)/float64(max64(a.oc, 1)))
	}
	return tw.Flush()
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
