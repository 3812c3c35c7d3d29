package exper

// Unit tests of the memo protocol itself. Run them under -race (CI
// does): the leader/waiter hand-off and the shared budget are exactly
// the kind of code data races hide in.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// doneWatcher is a context that signals the first call to Done. A memo
// caller reads Done only once it waits on another caller's slot, so the
// signal means "now a waiter", with no sleep.
type doneWatcher struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *doneWatcher) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// resident reports whether k holds a slot in m.
func resident[K comparable, V any](m *memo[K, V], k K) bool {
	m.b.mu.Lock()
	defer m.b.mu.Unlock()
	_, ok := m.slots[k]
	return ok
}

func TestMemoCanceledLeaderHandsOff(t *testing.T) {
	m := newMemo[string, int](nil, nil)
	var calls atomic.Int32
	started := make(chan struct{})
	compute := func(ctx context.Context) (int, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-ctx.Done() // the first leader runs until canceled
			return 0, ctx.Err()
		}
		return 42, nil
	}

	leaderCtx, cancel := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := m.get(leaderCtx, "k", compute)
		leaderErr <- err
	}()
	select {
	case <-started:
	case err := <-leaderErr:
		t.Fatalf("leader returned early: %v", err)
	}

	waiter := &doneWatcher{Context: context.Background(), waiting: make(chan struct{})}
	type result struct {
		v      int
		leader bool
		err    error
	}
	got := make(chan result, 1)
	go func() {
		v, leader, err := m.get(waiter, "k", compute)
		got <- result{v, leader, err}
	}()
	<-waiter.waiting
	cancel()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Errorf("leader error = %v, want context.Canceled", err)
	}
	if r := <-got; r.v != 42 || !r.leader || r.err != nil {
		t.Errorf("waiter got (%d, leader=%v, %v), want (42, leader=true, nil): it should take over", r.v, r.leader, r.err)
	}
	if v, leader, err := m.get(context.Background(), "k", compute); v != 42 || leader || err != nil {
		t.Errorf("later get = (%d, leader=%v, %v), want the memoized 42", v, leader, err)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("compute ran %d times, want 2 (canceled leader + one takeover)", n)
	}
}

func TestMemoDeterministicErrorsMemoized(t *testing.T) {
	for _, want := range []error{
		errors.New("boom"),
		&PanicError{Op: "cell x", Value: "bad"},
		&WatchdogError{Op: "cell x"},
	} {
		m := newMemo[string, int](nil, nil)
		calls := 0
		compute := func(context.Context) (int, error) {
			calls++
			return 0, want
		}
		for i := 0; i < 3; i++ {
			if _, _, err := m.get(context.Background(), "k", compute); err != want {
				t.Errorf("%T: get %d error = %v, want %v", want, i, err, want)
			}
		}
		if calls != 1 {
			t.Errorf("%T: compute ran %d times, want 1 (memoized)", want, calls)
		}
	}
}

func TestMemoPanickingLeaderVacates(t *testing.T) {
	m := newMemo[string, int](nil, nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("compute's panic did not reach the leader")
			}
		}()
		m.get(context.Background(), "k", func(context.Context) (int, error) { panic("bad") })
	}()
	v, leader, err := m.get(context.Background(), "k", func(context.Context) (int, error) { return 7, nil })
	if v != 7 || !leader || err != nil {
		t.Errorf("get after a panic = (%d, leader=%v, %v), want a fresh leader computing 7", v, leader, err)
	}
}

func TestMemoPutServesWithoutCompute(t *testing.T) {
	m := newMemo[string, int](nil, nil)
	if !m.put("k", 7) {
		t.Fatal("put into an empty slot refused")
	}
	if m.put("k", 8) {
		t.Error("put over an existing slot installed")
	}
	v, leader, err := m.get(context.Background(), "k", func(context.Context) (int, error) {
		t.Error("compute ran for an installed value")
		return 0, nil
	})
	if v != 7 || leader || err != nil {
		t.Errorf("get = (%d, leader=%v, %v), want the installed 7", v, leader, err)
	}
}

// sized builds a budgeted table over b whose value is its own size; a
// nil value costs 0 bytes.
func sized(b *budget) *memo[string, *int64] {
	return newMemo[string, *int64](b, func(v *int64) int64 {
		if v == nil {
			return 0
		}
		return *v
	})
}

// fill gets k from m, computing a value of n bytes (nil when n < 0).
func fill(t *testing.T, m *memo[string, *int64], k string, n int64) {
	t.Helper()
	_, _, err := m.get(context.Background(), k, func(context.Context) (*int64, error) {
		if n < 0 {
			return nil, nil
		}
		return &n, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMemoNilValueCostsNothing(t *testing.T) {
	b := &budget{limit: 10}
	m := sized(b)
	fill(t, m, "neg", -1)
	if _, bytes := b.current(); bytes != 0 {
		t.Errorf("resident = %d bytes after a nil value, want 0", bytes)
	}
	if !resident(m, "neg") {
		t.Error("nil value not retained (negative caching needs it)")
	}
}

func TestMemoSharedBudgetLRU(t *testing.T) {
	b := &budget{limit: 10}
	traces, plans := sized(b), sized(b)
	fill(t, traces, "t1", 3)
	fill(t, plans, "p1", 3)
	fill(t, traces, "t2", 3)
	fill(t, traces, "t1", 3) // a hit: t1 becomes most recently used

	// 12 > 10: the least recently used entry, p1 in the other table,
	// makes room.
	fill(t, plans, "p2", 3)
	if resident(plans, "p1") {
		t.Error("p1 survived; it was least recently used")
	}
	for _, k := range []string{"t1", "t2"} {
		if !resident(traces, k) {
			t.Errorf("%s evicted out of LRU order", k)
		}
	}
	if !resident(plans, "p2") {
		t.Error("p2 not retained")
	}
	if _, bytes := b.current(); bytes != 9 {
		t.Errorf("resident = %d bytes, want 9", bytes)
	}

	// A value larger than the whole budget is not retained and evicts
	// nothing.
	fill(t, plans, "huge", 11)
	if resident(plans, "huge") {
		t.Error("a value larger than the budget was retained")
	}
	if _, bytes := b.current(); bytes != 9 {
		t.Errorf("resident = %d bytes after an oversized value, want 9", bytes)
	}

	// Shrinking evicts in LRU order: t2 alone makes 6 bytes fit.
	b.setLimit(6)
	if resident(traces, "t2") || !resident(traces, "t1") || !resident(plans, "p2") {
		t.Error("shrinking the budget did not evict in LRU order")
	}
	b.setLimit(0)
	if _, bytes := b.current(); bytes != 0 || resident(plans, "p2") {
		t.Errorf("a zero budget left %d bytes resident", bytes)
	}
}
