package exper

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
)

func TestParseSpecValid(t *testing.T) {
	spec, err := ParseSpec([]byte(`{
		"title": "t",
		"suites": ["mediabench"],
		"benchmarks": ["mcf"],
		"scale": 1,
		"reference": {"label": "base", "baseline": true},
		"variants": [
			{"label": "a", "set": {"Opt.MBCEntries": 64}},
			{"label": "b", "set": {"Opt.Mode": "feedback-only", "Opt.StrengthReduce": false, "OptStages": 4}}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	benches := spec.benches()
	if len(benches) != 7 { // 6 mediabench + mcf
		t.Errorf("selected %d benchmarks, want 7", len(benches))
	}
	cfg, err := spec.Variants[1].config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Opt.Mode != core.ModeFeedbackOnly {
		t.Errorf("Opt.Mode = %v, want feedback-only", cfg.Opt.Mode)
	}
	if cfg.Opt.StrengthReduce {
		t.Error("Opt.StrengthReduce should be false")
	}
	if cfg.OptStages != 4 {
		t.Errorf("OptStages = %d, want 4", cfg.OptStages)
	}
	if cfg.Name != "b" {
		t.Errorf("variant config name = %q, want label", cfg.Name)
	}
	ref, err := spec.reference()
	if err != nil {
		t.Fatal(err)
	}
	if ref.Opt.Mode != core.ModeBaseline {
		t.Error("baseline reference should disable the optimizer")
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		name, json, wantErr string
	}{
		{"unknown JSON field", `{"variants": [{"label": "a"}], "bogus": 1}`, "bogus"},
		{"trailing content", `{"variants": [{"label": "a"}]} {}`, "trailing content"},
		{"no variants", `{"title": "t"}`, "at least one variant"},
		{"unlabeled variant", `{"variants": [{"set": {"PRegs": 600}}]}`, "no label"},
		{"duplicate labels", `{"variants": [{"label": "a"}, {"label": "a"}]}`, "duplicate"},
		{"unknown suite", `{"suites": ["SPECweb"], "variants": [{"label": "a"}]}`, "unknown suite"},
		{"unknown benchmark", `{"benchmarks": ["nfs"], "variants": [{"label": "a"}]}`, "unknown benchmark"},
		{"unknown config field", `{"variants": [{"label": "a", "set": {"Nope": 1}}]}`, "unknown config field"},
		{"unknown nested field", `{"variants": [{"label": "a", "set": {"Opt.Nope": 1}}]}`, "unknown config field"},
		{"path through non-struct", `{"variants": [{"label": "a", "set": {"PRegs.X": 1}}]}`, "not a struct"},
		{"non-integer for int", `{"variants": [{"label": "a", "set": {"PRegs": 1.5}}]}`, "need an integer"},
		{"negative for uint", `{"variants": [{"label": "a", "set": {"OptStages": -1}}]}`, "non-negative"},
		{"bool mismatch", `{"variants": [{"label": "a", "set": {"Opt.StrengthReduce": 1}}]}`, "need a bool"},
		{"bad mode name", `{"variants": [{"label": "a", "set": {"Opt.Mode": "turbo"}}]}`, "unknown mode"},
		{"bad store policy", `{"variants": [{"label": "a", "set": {"Opt.StorePolicy": "yolo"}}]}`, "unknown store policy"},
		{"invalid machine", `{"variants": [{"label": "a", "set": {"PRegs": 1}}]}`, "PRegs"},
		{"huge regfile", `{"variants": [{"label": "a", "set": {"PRegs": 1e12}}]}`, "PRegs"},
		{"huge window", `{"variants": [{"label": "a", "set": {"WindowSize": 1e12, "PRegs": 1e13}}]}`, "WindowSize"},
		{"huge btb", `{"variants": [{"label": "a", "set": {"BPred.BTBEntries": 1e12}}]}`, "BTBEntries"},
		{"bad cache geometry", `{"variants": [{"label": "a", "set": {"Caches.L1D.Assoc": 3}}]}`, "L1D"},
		{"pht too wide", `{"variants": [{"label": "a", "set": {"BPred.IndexBits": 25}}]}`, "IndexBits"},
		{"int out of range", `{"variants": [{"label": "a", "set": {"PRegs": 1e300}}]}`, "out of range"},
		{"mode number out of range", `{"variants": [{"label": "a", "set": {"Opt.Mode": 7}}]}`, "Opt.Mode"},
		{"uint out of range", `{"variants": [{"label": "a", "set": {"FeedbackDelay": 1e20}}]}`, "out of range"},
		{"bad reference", `{"reference": {"label": "r", "set": {"Nope": 1}}, "variants": [{"label": "a"}]}`, "reference"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(c.json))
			if err == nil {
				t.Fatalf("spec %s parsed without error", c.json)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

func TestSweepEndToEnd(t *testing.T) {
	spec, err := ParseSpec([]byte(`{
		"title": "probe",
		"benchmarks": ["mcf", "untst"],
		"scale": 1,
		"per_benchmark": true,
		"variants": [
			{"label": "opt"},
			{"label": "mbc32", "set": {"Opt.MBCEntries": 32}}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(0)
	sr, err := r.Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sr.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"probe", "opt", "mbc32", "mcf", "untst", "SPECint", "mediabench", "all"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	// Every speedup cell must be a positive float.
	for bi := range sr.Benches {
		for vi := range spec.Variants {
			if s := sr.Speedup(bi, vi); s <= 0 {
				t.Errorf("speedup[%d][%d] = %v", bi, vi, s)
			}
		}
	}
	// 2 benches x 3 configs (ref + 2 variants), no duplicates.
	if st := r.Stats(); st.Simulations != 6 {
		t.Errorf("stats = %+v, want 6 simulations", st)
	}
	// Rows are well-formed: label column then one float per variant.
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 3 {
			continue
		}
		if _, err1 := strconv.ParseFloat(f[1], 64); err1 == nil {
			if _, err2 := strconv.ParseFloat(f[2], 64); err2 == nil {
				rows++
			}
		}
	}
	if rows != 5 { // 2 benchmarks + 2 suite rows + "all"
		t.Errorf("found %d numeric rows, want 5:\n%s", rows, out)
	}
}

func TestSweepSelectsNoBenchmarks(t *testing.T) {
	spec := &SweepSpec{
		Benchmarks: []string{"mcf"},
		Variants:   []VariantSpec{{Label: "a"}},
	}
	spec.Benchmarks = nil
	spec.Suites = nil
	// Empty filters select everything — not an error.
	if got := len(spec.benches()); got != 22 {
		t.Errorf("empty filter selected %d benchmarks, want all 22", got)
	}
}

func TestVariantConfigKeyedLikeHandWritten(t *testing.T) {
	// A spec-built variant must land in the same cache slot as the same
	// machine built in Go, so JSON sweeps share results with the paper
	// artifacts.
	v := VariantSpec{Label: "sched16", Set: map[string]any{"SchedEntries": float64(16)}}
	cfg, err := v.config()
	if err != nil {
		t.Fatal(err)
	}
	hand := pipeline.DefaultConfig()
	hand.Name = "anything-else"
	hand.SchedEntries = 16
	if cfg.Key() != hand.Key() {
		t.Error("spec-built and hand-built identical machines should share a key")
	}
}
