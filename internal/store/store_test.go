package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/emu"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/sample"
)

// fill populates v (a pointer to a struct) recursively so that every
// field — including fields added after this test was written — holds a
// distinct non-zero value. Round-tripping a filled struct therefore
// proves the codec covers the whole type, not just the fields the test
// author knew about.
func fill(v reflect.Value, n *uint64) {
	switch v.Kind() {
	case reflect.Ptr:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		fill(v.Elem(), n)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), n)
		}
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fill(s.Index(i), n)
		}
		v.Set(s)
	case reflect.String:
		*n++
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		*n++
		v.SetInt(int64(*n))
	case reflect.Uint, reflect.Uint64:
		*n++
		v.SetUint(*n)
	case reflect.Float64:
		*n++
		v.SetFloat(float64(*n) + 0.5)
	default:
		panic(fmt.Sprintf("fill: unhandled kind %s (extend the test)", v.Kind()))
	}
}

// requireAllNonZero fails the test for any zero field left after fill —
// a guard against fill silently skipping a kind.
func requireAllNonZero(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Ptr:
		if v.IsNil() {
			t.Errorf("%s: nil pointer after fill", path)
			return
		}
		requireAllNonZero(t, v.Elem(), path)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			requireAllNonZero(t, v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	case reflect.Slice:
		if v.Len() == 0 {
			t.Errorf("%s: empty slice after fill", path)
		}
		for i := 0; i < v.Len(); i++ {
			requireAllNonZero(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	default:
		if v.IsZero() {
			t.Errorf("%s: zero value after fill", path)
		}
	}
}

func openTemp(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestResultRoundTripEveryField(t *testing.T) {
	var res pipeline.Result
	var n uint64
	fill(reflect.ValueOf(&res), &n)
	requireAllNonZero(t, reflect.ValueOf(res), "Result")

	s := openTemp(t)
	k := ExactKey(res.ConfigKey, res.Program, res.Scale, "w1")
	if err := s.Put(k, &res); err != nil {
		t.Fatal(err)
	}
	var got pipeline.Result
	if err := s.Get(k, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, got) {
		t.Errorf("round trip changed the result:\nput %+v\ngot %+v", res, got)
	}
}

func TestSampledRoundTripEveryField(t *testing.T) {
	var res sample.Result
	var n uint64
	fill(reflect.ValueOf(&res), &n)
	requireAllNonZero(t, reflect.ValueOf(res), "sample.Result")

	s := openTemp(t)
	k := SampledKey(res.ConfigKey, res.Program, res.Scale, res.Sampling.Key(), "w1")
	if err := s.Put(k, &res); err != nil {
		t.Fatal(err)
	}
	var got sample.Result
	if err := s.Get(k, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, got) {
		t.Errorf("round trip changed the result:\nput %+v\ngot %+v", res, got)
	}
}

func TestCountRoundTrip(t *testing.T) {
	s := openTemp(t)
	k := CountKey("bzp", 3, "w1")
	if err := s.Put(k, &Count{Insts: 123456}); err != nil {
		t.Fatal(err)
	}
	var got Count
	if err := s.Get(k, &got); err != nil {
		t.Fatal(err)
	}
	if got.Insts != 123456 {
		t.Errorf("Insts = %d, want 123456", got.Insts)
	}
}

// testPlan builds a small but fully populated plan: two windows, live
// registers, and a sparse multi-page memory image.
func testPlan() *sample.Plan {
	p := &sample.Plan{Program: "b", TotalInsts: 5000, Period: 1000}
	for i := 0; i < 2; i++ {
		ck := &emu.Checkpoint{
			Program:   "b",
			PC:        uint64(64 + 8*i),
			InstCount: uint64(900 + 1000*i),
			Mem:       mem.New(),
		}
		ck.Regs[1] = uint64(41 + i)
		ck.Regs[30] = uint64(7 + i)
		ck.Mem.Store64(0x100, uint64(0xAB+i))
		ck.Mem.Store64(5*mem.PageSize+16, uint64(0xCD+i))
		p.Windows = append(p.Windows, sample.PlanWindow{
			Index: i, Start: uint64(100 + 1000*i), WarmFrom: uint64(50 + 1000*i), Ck: ck,
		})
	}
	return p
}

func TestPlanRoundTripThroughStore(t *testing.T) {
	s := openTemp(t)
	plan := testPlan()
	k := PlanKey("b", 1, "p1000.t2.w60.x30", "w1")
	if err := s.Put(k, plan); err != nil {
		t.Fatal(err)
	}
	var got sample.Plan
	if err := s.Get(k, &got); err != nil {
		t.Fatal(err)
	}
	if got.Program != plan.Program || got.TotalInsts != plan.TotalInsts ||
		got.Period != plan.Period || len(got.Windows) != len(plan.Windows) {
		t.Fatalf("plan header changed: put %+v, got %+v", plan, &got)
	}
	for i := range plan.Windows {
		a, b := plan.Windows[i], got.Windows[i]
		if a.Index != b.Index || a.Start != b.Start || a.WarmFrom != b.WarmFrom ||
			a.Ck.PC != b.Ck.PC || a.Ck.InstCount != b.Ck.InstCount || a.Ck.Regs != b.Ck.Regs {
			t.Errorf("window %d changed: put %+v, got %+v", i, a, b)
		}
		if !a.Ck.Mem.Equal(b.Ck.Mem) {
			t.Errorf("window %d memory image changed", i)
		}
	}
}

// TestPlanCodecSkewReadsAsMiss proves the layered versioning: an entry
// whose envelope is intact but whose plan payload carries a foreign
// codec version reads as corrupt — the engine's miss path — and a
// later Put of a current-codec plan heals the same slot.
func TestPlanCodecSkewReadsAsMiss(t *testing.T) {
	s := openTemp(t)
	k := PlanKey("b", 1, "regime", "w1")
	stale := map[string]any{"codec": sample.PlanCodecVersion - 1, "program": "b"}
	if err := s.Put(k, stale); err != nil {
		t.Fatal(err)
	}
	var got sample.Plan
	if err := s.Get(k, &got); !IsCorrupt(err) {
		t.Errorf("Get of a stale-codec plan = %v, want a CorruptError", err)
	}
	if err := s.Put(k, testPlan()); err != nil {
		t.Fatal(err)
	}
	if err := s.Get(k, &got); err != nil || len(got.Windows) != 2 {
		t.Errorf("after healing Put: %d windows, err %v", len(got.Windows), err)
	}
}

// TestPlanGCHonorsTempGrace is the in-flight-write guard: a concurrent
// shard's fresh temp file in a plan shard directory must survive GC
// (removing it would fail that shard's rename), while a crash orphan
// past the grace window is collected — and the intact plan entry is
// never touched either way.
func TestPlanGCHonorsTempGrace(t *testing.T) {
	s := openTemp(t)
	k := PlanKey("b", 2, "regime", "w1")
	if err := s.Put(k, testPlan()); err != nil {
		t.Fatal(err)
	}
	shard := filepath.Dir(s.path(k))
	fresh := filepath.Join(shard, ".tmp-inflight")
	if err := os.WriteFile(fresh, []byte("concurrent shard mid-Put"), 0o644); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(shard, ".tmp-orphan")
	if err := os.WriteFile(orphan, []byte("crashed shard"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * tempMaxAge)
	if err := os.Chtimes(orphan, old, old); err != nil {
		t.Fatal(err)
	}

	st, err := s.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 1 || st.ByKind[KindPlan] != 1 || st.TempFiles != 1 {
		t.Fatalf("Stat = %+v, want 1 plan entry and 1 abandoned temp", st)
	}
	rep, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RemovedTemp != 1 || rep.RemovedCorrupt != 0 || rep.RemainingIntact != 1 {
		t.Errorf("GC = %+v", rep)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("GC removed a live (fresh) temp file: %v", err)
	}
	if _, err := os.Stat(orphan); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("GC left the orphaned temp file: %v", err)
	}
	var got sample.Plan
	if err := s.Get(k, &got); err != nil {
		t.Errorf("plan entry unreadable after GC: %v", err)
	}
}

func TestGetMissing(t *testing.T) {
	s := openTemp(t)
	var out pipeline.Result
	err := s.Get(ExactKey("cfg", "bench", 1, "w1"), &out)
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("Get on empty store = %v, want ErrNotFound", err)
	}
}

func TestKeyValidation(t *testing.T) {
	s := openTemp(t)
	bad := []Key{
		{},
		{Kind: "weird", Benchmark: "b", Scale: 1},
		{Kind: KindExact, Benchmark: "b", Scale: 1},                                              // no config key
		{Kind: KindExact, ConfigKey: "c", Benchmark: "b", Scale: 1, Sampling: "p"},               // regime on exact
		{Kind: KindSampled, ConfigKey: "c", Benchmark: "b", Scale: 1},                            // no regime
		{Kind: KindCount, ConfigKey: "c", Benchmark: "b", Scale: 1},                              // config on count
		{Kind: KindPlan, Benchmark: "b", Scale: 1, Workload: "w"},                                // no regime on plan
		{Kind: KindPlan, ConfigKey: "c", Benchmark: "b", Scale: 1, Sampling: "p", Workload: "w"}, // config on plan
		{Kind: KindExact, ConfigKey: "c", Benchmark: "b", Scale: 1},                              // no workload hash
		ExactKey("c", "", 1, "w"),
		ExactKey("c", "b", 0, "w"),
	}
	for _, k := range bad {
		if err := s.Put(k, &Count{}); err == nil {
			t.Errorf("Put(%+v) accepted an invalid key", k)
		}
	}
}

// entryFile locates the single entry file of a one-entry store.
func entryFile(t *testing.T, s *Store) string {
	t.Helper()
	entries, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("store has %d entries, want 1", len(entries))
	}
	return entries[0].Path
}

func TestCorruptEntryDetected(t *testing.T) {
	cases := []struct {
		name     string
		scribble func(path string) error
	}{
		{"truncated", func(p string) error { return os.WriteFile(p, []byte(`{"format":"contopt-`), 0o644) }},
		{"not-json", func(p string) error { return os.WriteFile(p, []byte("hello\x00world"), 0o644) }},
		{"flipped-payload", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			// Corrupt a digit inside the payload without breaking JSON
			// syntax: the checksum must catch it.
			mut := strings.Replace(string(data), `"cycles"`, `"cYcles"`, 1)
			if mut == string(data) {
				mut = strings.Replace(string(data), "1", "2", 1)
			}
			return os.WriteFile(p, []byte(mut), 0o644)
		}},
		{"future-version", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			mut := strings.Replace(string(data), `"version":1`, `"version":999`, 1)
			return os.WriteFile(p, []byte(mut), 0o644)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := openTemp(t)
			k := ExactKey("cfg", "bench", 1, "w1")
			if err := s.Put(k, &pipeline.Result{Counters: pipeline.Counters{Cycles: 111}}); err != nil {
				t.Fatal(err)
			}
			if err := tc.scribble(entryFile(t, s)); err != nil {
				t.Fatal(err)
			}
			var out pipeline.Result
			err := s.Get(k, &out)
			if err == nil {
				t.Fatal("Get returned a corrupt entry without error")
			}
			if !IsCorrupt(err) {
				t.Errorf("Get = %v, want a CorruptError", err)
			}
			// A rewrite heals the entry.
			if err := s.Put(k, &pipeline.Result{Counters: pipeline.Counters{Cycles: 222}}); err != nil {
				t.Fatal(err)
			}
			if err := s.Get(k, &out); err != nil || out.Cycles != 222 {
				t.Errorf("after healing Put: result %+v, err %v", out, err)
			}
		})
	}
}

func TestKeyMismatchDetected(t *testing.T) {
	s := openTemp(t)
	ka := ExactKey("cfg", "alpha", 1, "w1")
	kb := ExactKey("cfg", "beta", 1, "w1")
	if err := s.Put(ka, &pipeline.Result{Counters: pipeline.Counters{Cycles: 1}}); err != nil {
		t.Fatal(err)
	}
	// Simulate a hand-moved file: alpha's entry at beta's address.
	data, err := os.ReadFile(s.path(ka))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(s.path(kb)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(kb), data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out pipeline.Result
	if err := s.Get(kb, &out); !IsCorrupt(err) {
		t.Errorf("Get of a mis-addressed entry = %v, want a CorruptError", err)
	}
}

func TestConcurrentWriters(t *testing.T) {
	s := openTemp(t)
	shared := ExactKey("cfg", "shared", 1, "w1")
	const writers = 16
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Half hammer one key (deterministic results write identical
			// payloads), half write distinct keys.
			if i%2 == 0 {
				errs[i] = s.Put(shared, &pipeline.Result{Program: "shared", Counters: pipeline.Counters{Cycles: 42}})
			} else {
				errs[i] = s.Put(ExactKey("cfg", fmt.Sprintf("b%d", i), 1, "w1"), &pipeline.Result{Counters: pipeline.Counters{Cycles: uint64(i)}})
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	var out pipeline.Result
	if err := s.Get(shared, &out); err != nil || out.Cycles != 42 {
		t.Errorf("shared key after concurrent writes: %+v, err %v", out, err)
	}
	st, err := s.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + writers/2; st.Entries != want {
		t.Errorf("store holds %d entries, want %d", st.Entries, want)
	}
	if st.Corrupt != 0 || st.TempFiles != 0 {
		t.Errorf("concurrent writes left debris: %+v", st)
	}
}

func TestListStatGC(t *testing.T) {
	s := openTemp(t)
	if err := s.Put(ExactKey("cfg", "good", 2, "w1"), &pipeline.Result{Counters: pipeline.Counters{Cycles: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(SampledKey("cfg", "good", 2, "p0.t16.w200.x0", "w1"), &sample.Result{EstCycles: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(CountKey("good", 2, "w1"), &Count{Insts: 3}); err != nil {
		t.Fatal(err)
	}
	// One corrupt entry and one abandoned temp file.
	badKey := ExactKey("cfg", "bad", 2, "w1")
	if err := s.Put(badKey, &pipeline.Result{}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(badKey), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(s.Dir(), "entries", "ab", ".tmp-leftover")
	if err := os.MkdirAll(filepath.Dir(tmp), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Backdate the orphan past tempMaxAge; a fresh temp file belongs to
	// a (possibly concurrent) live writer and must be left alone.
	old := time.Now().Add(-2 * tempMaxAge)
	if err := os.Chtimes(tmp, old, old); err != nil {
		t.Fatal(err)
	}
	live := filepath.Join(s.Dir(), "entries", "ab", ".tmp-live")
	if err := os.WriteFile(live, []byte("in flight"), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := s.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 3 || st.Corrupt != 1 || st.TempFiles != 1 {
		t.Fatalf("Stat = %+v, want 3 intact / 1 corrupt / 1 temp", st)
	}
	if st.ByKind[KindExact] != 1 || st.ByKind[KindSampled] != 1 || st.ByKind[KindCount] != 1 {
		t.Errorf("ByKind = %v", st.ByKind)
	}

	entries, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("List returned %d entries, want 4", len(entries))
	}
	if last := entries[len(entries)-1]; last.Err == nil {
		t.Errorf("List did not sort the corrupt entry last: %+v", last)
	}

	rep, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RemovedCorrupt != 1 || rep.RemovedTemp != 1 || rep.RemainingIntact != 3 {
		t.Errorf("GC = %+v", rep)
	}
	if rep.ReclaimedBytes == 0 {
		t.Error("GC reclaimed 0 bytes")
	}
	st, err = s.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 3 || st.Corrupt != 0 || st.TempFiles != 0 {
		t.Errorf("after GC: %+v", st)
	}
	if _, err := os.Stat(live); err != nil {
		t.Errorf("GC removed a live (fresh) temp file: %v", err)
	}
}

func TestNamespacesDisjoint(t *testing.T) {
	s := openTemp(t)
	// Same coordinates under all four kinds plus two regimes: seven
	// distinct entries. A plan and a sampled estimate of the same
	// regime are different artifacts and must never share a slot.
	keys := []Key{
		ExactKey("cfg", "b", 1, "w1"),
		ExactKey("cfg", "b", 1, "w2"), // same benchmark, edited source
		SampledKey("cfg", "b", 1, "regimeA", "w1"),
		SampledKey("cfg", "b", 1, "regimeB", "w1"),
		CountKey("b", 1, "w1"),
		PlanKey("b", 1, "regimeA", "w1"),
		PlanKey("b", 1, "regimeB", "w1"),
	}
	seen := map[string]Key{}
	for _, k := range keys {
		if prev, dup := seen[k.addr()]; dup {
			t.Fatalf("keys %s and %s share an address", prev, k)
		}
		seen[k.addr()] = k
		if err := s.Put(k, &Count{Insts: 9}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != len(keys) {
		t.Errorf("%d entries, want %d", st.Entries, len(keys))
	}
}
