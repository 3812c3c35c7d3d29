package exper

// memo is the engine's one keyed memoization table; every table the
// Runner keeps is one. The first caller for a key (the leader) computes
// while concurrent callers wait for its value. A leader that fails with
// a context-shaped error, or panics, vacates the key so that a live
// waiter takes over; any other error (a *PanicError, a *WatchdogError)
// stays memoized, since re-running cannot help. A table with a size
// function charges each resident value to a byte budget, which several
// tables may share, and evicts least-recently-used values across all of
// them. Invariant: resident bytes never exceed max(limit, 0), and a
// value that cannot fit in an empty budget reaches its waiters but is
// not kept. A caller that computes several keys at once (a sampled
// row) leads them through claim and settles each with finish.

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// budget is the byte budget and LRU order shared by the memo tables
// built over it. Its mutex guards every table built over it, so one
// table's insertion can evict another's entries.
type budget struct {
	mu    sync.Mutex
	limit int64
	bytes int64
	lru   list.List // of *charge, most recently used at the front
}

// charge is one resident value's share of a budget.
type charge struct {
	bytes int64
	drop  func() // removes the value from its table; called with mu held
}

// setLimit replaces the byte limit and evicts to fit it; a limit <= 0
// releases every resident value.
func (b *budget) setLimit(n int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.limit = n
	for b.lru.Len() > 0 && (b.limit <= 0 || b.bytes > b.limit) {
		b.evictLocked()
	}
}

// current returns the limit and the resident bytes.
func (b *budget) current() (limit, resident int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.limit, b.bytes
}

// admitLocked charges n bytes for a new resident value, evicting least
// recently used values to make room. It returns nil, charging and
// evicting nothing, when n cannot fit even in an empty budget.
func (b *budget) admitLocked(n int64, drop func()) *list.Element {
	if b.limit <= 0 || n > b.limit {
		return nil
	}
	for b.bytes+n > b.limit {
		b.evictLocked()
	}
	b.bytes += n
	return b.lru.PushFront(&charge{bytes: n, drop: drop})
}

func (b *budget) evictLocked() {
	c := b.lru.Remove(b.lru.Back()).(*charge)
	b.bytes -= c.bytes
	c.drop()
}

// errAbandoned marks a slot whose leader panicked: like a canceled
// leader, it is vacated and a waiter takes over.
var errAbandoned = errors.New("exper: memo leader abandoned its slot")

type slot[V any] struct {
	done chan struct{} // closed once val/err are final
	val  V
	err  error
	lru  *list.Element // the value's charge; nil when not charged
}

type memo[K comparable, V any] struct {
	b     *budget
	size  func(V) int64 // nil: unbounded, never charged or evicted
	slots map[K]*slot[V]
}

// newMemo builds a table over budget b, charging size(v) bytes per
// resident value. A nil b gives the table a private lock and no byte
// limit; size must then be nil.
func newMemo[K comparable, V any](b *budget, size func(V) int64) *memo[K, V] {
	if b == nil {
		b = &budget{}
	}
	return &memo[K, V]{b: b, size: size, slots: map[K]*slot[V]{}}
}

// get returns k's value, running compute for it at most once across
// concurrent callers (see the protocol above). leader reports whether
// this call ran compute; a waiter's ctx ending aborts only its wait.
func (m *memo[K, V]) get(ctx context.Context, k K, compute func(context.Context) (V, error)) (v V, leader bool, err error) {
	for {
		if err := ctx.Err(); err != nil {
			return v, false, err
		}
		s, lead := m.claim(k)
		if lead {
			v, err = m.lead(ctx, k, s, compute)
			return v, true, err
		}
		select {
		case <-s.done:
			if s.err == nil {
				if s.lru != nil {
					m.b.mu.Lock()
					m.b.lru.MoveToFront(s.lru) // no-op once evicted
					m.b.mu.Unlock()
				}
				return s.val, false, nil
			}
			if retryable(s.err) {
				continue // the leader was canceled, not the work: take over
			}
			return v, false, s.err
		case <-ctx.Done():
			return v, false, ctx.Err()
		}
	}
}

// claim returns k's slot. lead reports that k had none: the caller is
// now k's leader and must settle the slot with finish on every path
// (until then it reads as abandoned). Otherwise the slot is resident
// or in flight, and get waits for it.
func (m *memo[K, V]) claim(k K) (s *slot[V], lead bool) {
	m.b.mu.Lock()
	defer m.b.mu.Unlock()
	if s, ok := m.slots[k]; ok {
		return s, false
	}
	s = &slot[V]{done: make(chan struct{}), err: errAbandoned}
	m.slots[k] = s
	return s, true
}

// lead runs compute as k's leader and settles the slot on every path,
// a panic included.
func (m *memo[K, V]) lead(ctx context.Context, k K, s *slot[V], compute func(context.Context) (V, error)) (V, error) {
	defer m.settle(k, s)
	s.val, s.err = compute(ctx)
	return s.val, s.err
}

// finish settles a claimed slot with its outcome, as if computed.
func (m *memo[K, V]) finish(k K, s *slot[V], v V, err error) {
	s.val, s.err = v, err
	m.settle(k, s)
}

// put installs v as k's value, as if computed, unless k already has a
// slot (resident or in flight). It reports whether v was installed.
func (m *memo[K, V]) put(k K, v V) bool {
	s, lead := m.claim(k)
	if lead {
		m.finish(k, s, v, nil)
	}
	return lead
}

// settle publishes a finished slot and wakes its waiters: a retryable
// failure vacates the key, and a budgeted value that does not fit is
// dropped from the table (its waiters still receive it).
func (m *memo[K, V]) settle(k K, s *slot[V]) {
	var n int64
	if s.err == nil && m.size != nil {
		n = m.size(s.val)
	}
	m.b.mu.Lock()
	switch {
	case retryable(s.err):
		delete(m.slots, k)
	case s.err == nil && m.size != nil:
		s.lru = m.b.admitLocked(n, func() { delete(m.slots, k) })
		if s.lru == nil {
			delete(m.slots, k)
		}
	}
	m.b.mu.Unlock()
	close(s.done)
}

// retryable reports whether a leader's failure belongs to the leader
// rather than the work, so a waiter should take over.
func retryable(err error) bool {
	return err == errAbandoned || ctxErr(err)
}

// ctxErr reports whether err is the shape a canceled or expired context
// produces — the class of leader failure that a waiter can recover from
// by re-running the work itself.
func ctxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
