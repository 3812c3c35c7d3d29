package harness

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exper"
	"repro/internal/sample"
)

// TestArtifactsByteIdenticalToGolden pins every paper artifact at
// scale 1 to its captured output (testdata/*_scale1.golden): the
// tables, Figure 6, the sensitivity figures, the ablations, the
// discrete extension, and Figure 9 under the default sampling regime.
// The simulator is deterministic, so any drift here means an execution
// or formatting change altered what the paper's artifacts report, not
// just plumbing. All rows share one engine, as "contopt all" does.
func TestArtifactsByteIdenticalToGolden(t *testing.T) {
	eng := exper.NewRunner(0)
	o := Options{Scale: 1, Engine: eng}
	sc := sample.DefaultConfig()
	so := Options{Scale: 1, Engine: eng, Sample: &sc}
	for _, tc := range []struct {
		golden string
		render func(ctx context.Context, w *bytes.Buffer) error
	}{
		{"table1_scale1.golden", func(ctx context.Context, w *bytes.Buffer) error { return o.Table1(ctx, w) }},
		{"figure6_scale1.golden", func(ctx context.Context, w *bytes.Buffer) error { return o.Figure6(ctx, w) }},
		{"table3_scale1.golden", func(ctx context.Context, w *bytes.Buffer) error { return o.Table3(ctx, w) }},
		{"figure8_scale1.golden", func(ctx context.Context, w *bytes.Buffer) error { return o.Figure8(ctx, w) }},
		{"figure9_scale1.golden", func(ctx context.Context, w *bytes.Buffer) error { return o.Figure9(ctx, w) }},
		{"figure10_scale1.golden", func(ctx context.Context, w *bytes.Buffer) error { return o.Figure10(ctx, w) }},
		{"figure11_scale1.golden", func(ctx context.Context, w *bytes.Buffer) error { return o.Figure11(ctx, w) }},
		{"figure12_scale1.golden", func(ctx context.Context, w *bytes.Buffer) error { return o.Figure12(ctx, w) }},
		{"ablations_scale1.golden", func(ctx context.Context, w *bytes.Buffer) error {
			if err := o.MBCSweep(ctx, w); err != nil {
				return err
			}
			w.WriteString("\n")
			return o.PolicySweep(ctx, w)
		}},
		{"discrete_scale1.golden", func(ctx context.Context, w *bytes.Buffer) error { return o.DiscreteSweep(ctx, w) }},
		{"figure9_sampled_scale1.golden", func(ctx context.Context, w *bytes.Buffer) error { return so.Figure9(ctx, w) }},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := tc.render(context.Background(), &buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("output drifted from golden %s:\n got:\n%s\nwant:\n%s",
					tc.golden, buf.Bytes(), want)
			}
		})
	}
}

// TestArtifactsCancelCleanly drives the artifact layer with a canceled
// context: every artifact must return an error wrapping
// context.Canceled without writing a partial table.
func TestArtifactsCancelCleanly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := smallOpts()
	for name, render := range map[string]func(context.Context, *bytes.Buffer) error{
		"Table1":  func(ctx context.Context, w *bytes.Buffer) error { return o.Table1(ctx, w) },
		"Figure6": func(ctx context.Context, w *bytes.Buffer) error { return o.Figure6(ctx, w) },
		"Table3":  func(ctx context.Context, w *bytes.Buffer) error { return o.Table3(ctx, w) },
		"Figure8": func(ctx context.Context, w *bytes.Buffer) error { return o.Figure8(ctx, w) },
	} {
		var buf bytes.Buffer
		err := render(ctx, &buf)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s under canceled ctx returned %v, want error wrapping context.Canceled", name, err)
		}
		if buf.Len() != 0 {
			t.Errorf("%s wrote %d bytes despite cancellation:\n%s", name, buf.Len(), buf.String())
		}
	}
}
