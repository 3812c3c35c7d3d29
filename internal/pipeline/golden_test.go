package pipeline_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/pipeline"
)

// TestResultJSONGolden pins Result's JSON encoding. Embedded structs
// flatten where they are embedded, so the key order follows the struct
// layout; the result store and the benchmark digests hash this encoding.
// The golden is mcf at scale 1 under DefaultConfig. Decoding and
// re-encoding it must reproduce it byte for byte (a reordered, renamed,
// added or dropped field fails), and a fresh run must encode to it
// exactly (the counters are still filled in as before).
func TestResultJSONGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/result.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	encode := func(r *pipeline.Result) []byte {
		t.Helper()
		b, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}

	var decoded pipeline.Result
	dec := json.NewDecoder(bytes.NewReader(want))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decoded); err != nil {
		t.Fatalf("golden does not decode into Result: %v", err)
	}
	if got := encode(&decoded); !bytes.Equal(got, want) {
		t.Errorf("re-encoded golden differs (field order or set changed):\n got %s\nwant %s", got, want)
	}

	fresh, err := newSession(t, "mcf", 1).Run(context.Background(), pipeline.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got := encode(fresh); !bytes.Equal(got, want) {
		t.Errorf("fresh mcf run encodes differently from the golden:\n got %s\nwant %s", got, want)
	}
}
