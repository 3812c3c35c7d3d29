package main

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func committedSpec(t *testing.T) *LoadSpec {
	t.Helper()
	data, err := os.ReadFile("serve-mixed.json")
	if err != nil {
		t.Fatal(err)
	}
	s, err := ParseLoadSpec(data)
	if err != nil {
		t.Fatalf("committed spec: %v", err)
	}
	return s
}

func TestScheduleIsDeterministicPerSeed(t *testing.T) {
	s := committedSpec(t)
	a := s.Schedule(7, nominalRate)
	b := s.Schedule(7, nominalRate)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated different arrivals")
	}
	c := s.Schedule(8, nominalRate)
	if reflect.DeepEqual(a, c) {
		t.Fatal("a different seed generated the same arrivals")
	}
	if len(a) != len(c) {
		t.Errorf("arrival count moved with the seed: %d vs %d", len(a), len(c))
	}
}

func TestJobSetIsSeedIndependent(t *testing.T) {
	s := committedSpec(t)
	shapes := func(seed int64) []string {
		var out []string
		for _, a := range s.Schedule(seed, nominalRate) {
			out = append(out, fmt.Sprint(a.Client, a.Scale, a.Sampled, a.Benches))
		}
		slices.Sort(out)
		return out
	}
	if !slices.Equal(shapes(1), shapes(2)) {
		t.Error("the seed changed the job set's benchmarks, scales or sampled share")
	}
	// Every benchmark runs equally often at each scale and each of
	// exact and sampled.
	count := map[int]map[string]int{}
	for _, a := range s.Schedule(4, nominalRate) {
		if count[a.Client] == nil {
			count[a.Client] = map[string]int{}
		}
		for _, b := range a.Benches {
			count[a.Client][fmt.Sprint(b, a.Scale, a.Sampled)]++
		}
	}
	for ci, c := range s.Clients {
		kinds := len(s.Pool.Benchmarks) * len(c.Job.Scales)
		if c.Job.SampledFraction > 0 {
			kinds *= 2
		}
		if len(count[ci]) != kinds {
			t.Errorf("client %s: %d (benchmark, scale, sampled) kinds, want %d", c.ID, len(count[ci]), kinds)
		}
		for k, n := range count[ci] {
			if want := count[ci][fmt.Sprint(s.Pool.Benchmarks[0], c.Job.Scales[0], false)]; n != want {
				t.Errorf("client %s: %s in %d jobs, want %d", c.ID, k, n, want)
			}
		}
	}
}

func TestScheduleShape(t *testing.T) {
	s := committedSpec(t)
	arr := s.Schedule(3, nominalRate)
	perClient := map[int]int{}
	for i, a := range arr {
		if i > 0 && a.At < arr[i-1].At {
			t.Fatal("arrivals not sorted by time")
		}
		if a.At.Seconds() >= phaseSeconds || a.At < 0 {
			t.Fatalf("arrival at %v outside the phase", a.At)
		}
		c := s.Clients[a.Client]
		perClient[a.Client]++
		if a.Class != c.SLOClass || a.Tenant != c.Tenant || len(a.Benches) != c.Job.Benchmarks || len(a.Windows) != c.Share.Variants() {
			t.Fatalf("arrival %+v does not match client %s", a, c.ID)
		}
		seen := map[int]bool{}
		for _, w := range a.Windows {
			if seen[w] {
				t.Fatalf("duplicate window %d in one job", w)
			}
			seen[w] = true
		}
		if _, err := parseSweep(a); err != nil {
			t.Fatalf("arrival %+v is not a valid sweep: %v", a, err)
		}
	}
	for ci, c := range s.Clients {
		want := int(nominalRate*c.RateFraction*phaseSeconds + 0.5)
		if perClient[ci] != want {
			t.Errorf("client %s: %d arrivals, want %d", c.ID, perClient[ci], want)
		}
	}
}

func TestScheduleClientsAreIndependent(t *testing.T) {
	s := committedSpec(t)
	before := s.Schedule(5, nominalRate)
	s.Clients[1].Job.Benchmarks = 1 // edit one client
	after := s.Schedule(5, nominalRate)
	pick := func(arr []Arrival, ci int) []Arrival {
		var out []Arrival
		for _, a := range arr {
			if a.Client == ci {
				a.Windows = nil // store/fresh cursors are shared across clients
				out = append(out, a)
			}
		}
		return out
	}
	if !reflect.DeepEqual(pick(before, 0), pick(after, 0)) {
		t.Error("editing client 1 moved client 0's arrivals")
	}
}

func TestPoolSharesAreExact(t *testing.T) {
	s := committedSpec(t)
	arr := s.Schedule(11, nominalRate)
	ps := s.pool(11)
	for _, a := range arr {
		var got Share
		for _, w := range a.Windows {
			switch {
			case slices.Contains(ps.fresh[a.Scale], w):
				got.Fresh++
			case slices.Contains(ps.store[a.Scale], w):
				got.Store++
			case slices.Contains(ps.hot[a.Scale], w):
				got.Repeat++
			default:
				t.Fatalf("window %d is in no pool set", w)
			}
		}
		if want := s.Clients[a.Client].Share; got != want {
			t.Fatalf("job cells by set %+v, want %+v", got, want)
		}
	}
	// The store cells set-up writes are exactly the store-share cells.
	for _, pc := range s.StoreCells(11, arr) {
		if !slices.Contains(ps.store[pc.Scale], pc.Window) {
			t.Fatalf("store cell %+v is not in the store set", pc)
		}
	}
}

func TestSpecValidationNamesFieldPaths(t *testing.T) {
	base, err := os.ReadFile("serve-mixed.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		old, new, path string
	}{
		{`"rate_fraction": 0.5`, `"rate_fraction": 0.6`, "clients"},
		{`"slo_class": "batch"`, `"slo_class": "urgent"`, "clients[1].slo_class"},
		{`"scales": [2]`, `"scales": [3]`, "clients[1].job.scales[0]"},
		{`"benchmarks": 2`, `"benchmarks": 9`, "clients[1].job.benchmarks"},
		{`"sampled_fraction": 0.5`, `"sampled_fraction": 1.5`, "clients[1].job.sampled_fraction"},
		{`"store": 1`, `"store": -1`, "clients[0].pool_share.store"},
		{`"fresh": 1`, `"fresh": 200`, "clients[0].pool_share"},
		{`"repeat": 1`, `"repeat": 3`, "clients[0].pool_share.repeat"},
		{`"scales": [1, 2]`, `"scales": [0, 2]`, "pool.scales[0]"},
	} {
		bad := strings.Replace(string(base), tc.old, tc.new, 1)
		if bad == string(base) {
			t.Fatalf("edit %q did not apply", tc.old)
		}
		_, err := ParseLoadSpec([]byte(bad))
		var fe *FieldError
		if !errors.As(err, &fe) {
			t.Errorf("%s: got %v, want a field error", tc.path, err)
			continue
		}
		found := false
		for _, e := range flatten(err) {
			if errors.As(e, &fe) && fe.Path == tc.path {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: error %q names no such path", tc.path, err)
		}
	}
	if _, err := ParseLoadSpec([]byte(`{"typo": 1}`)); err == nil || !strings.Contains(err.Error(), "typo") {
		t.Errorf("unknown field: got %v", err)
	}
}

func flatten(err error) []error {
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		return j.Unwrap()
	}
	return []error{err}
}
