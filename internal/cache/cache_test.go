package cache

import (
	"reflect"
	"testing"
	"testing/quick"
)

func small() *Cache {
	// 4 sets x 2 ways x 16B lines = 128 B.
	return New(Config{Name: "t", SizeB: 128, Assoc: 2, LineB: 16, Latency: 2})
}

func TestColdMissThenHit(t *testing.T) {
	c := small()
	if c.Access(0x40) {
		t.Error("cold access should miss")
	}
	if !c.Access(0x40) {
		t.Error("second access should hit")
	}
	if !c.Access(0x4F) {
		t.Error("same-line access should hit")
	}
	if c.Access(0x50) {
		t.Error("next line should miss")
	}
	if c.Accesses != 4 || c.Misses != 2 {
		t.Errorf("stats: %d accesses %d misses", c.Accesses, c.Misses)
	}
}

func TestSetConflictAndLRU(t *testing.T) {
	c := small()
	// 4 sets, 16B lines: addresses 0, 64, 128 map to set 0.
	c.Access(0)
	c.Access(64)
	if !c.Access(0) || !c.Access(64) {
		t.Fatal("both ways should be resident")
	}
	// Access 0 so 64 becomes LRU; insert 128, evicting 64.
	c.Access(0)
	c.Access(128)
	if !c.Access(0) {
		t.Error("0 (MRU) should survive")
	}
	if !c.Probe(128) {
		t.Error("128 should be resident")
	}
	if c.Access(64) {
		t.Error("64 should have been evicted (LRU)")
	}
}

func TestProbeDoesNotAllocateOrTouch(t *testing.T) {
	c := small()
	if c.Probe(0x40) {
		t.Error("probe of cold line should miss")
	}
	if c.Accesses != 0 {
		t.Error("probe must not count as access")
	}
	c.Access(0)  // way A
	c.Access(64) // way B; LRU = 0
	c.Probe(0)   // must NOT touch LRU
	c.Access(128)
	if c.Probe(0) {
		t.Error("0 was LRU and should have been evicted despite the probe")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	cases := []Config{
		{SizeB: 0, Assoc: 1, LineB: 16},
		{SizeB: 100, Assoc: 2, LineB: 16}, // 100/(2*16) not a power of two
		{SizeB: 128, Assoc: 2, LineB: 12}, // non-power-of-two line
		{SizeB: 128, Assoc: 0, LineB: 16},
	}
	for _, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) should panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestDefaultHierarchyGeometry(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	if h.L1I.Config().SizeB != 64<<10 || h.L1I.Config().Assoc != 4 || h.L1I.Config().LineB != 64 {
		t.Errorf("L1I config %+v does not match Table 2", h.L1I.Config())
	}
	if h.L1D.Config().SizeB != 32<<10 || h.L1D.Config().Assoc != 2 || h.L1D.Config().LineB != 32 {
		t.Errorf("L1D config %+v does not match Table 2", h.L1D.Config())
	}
	if h.L2.Config().SizeB != 1<<20 || h.L2.Config().Latency != 10 {
		t.Errorf("L2 config %+v does not match Table 2", h.L2.Config())
	}
	if h.MemLatency != 100 {
		t.Errorf("memory latency %d, want 100", h.MemLatency)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	// Cold: L1D miss + L2 miss -> 2 + 10 + 100.
	if lat := h.DataAccess(0x8000); lat != 112 {
		t.Errorf("cold data access latency %d, want 112", lat)
	}
	// Now resident everywhere: L1 hit.
	if lat := h.DataAccess(0x8000); lat != 2 {
		t.Errorf("warm data access latency %d, want 2", lat)
	}
	// Evict from L1D but not L2: walk enough conflicting lines.
	l1sets := (32 << 10) / (2 * 32)
	for i := 1; i <= 2; i++ {
		h.DataAccess(0x8000 + uint64(i*l1sets*32))
	}
	if lat := h.DataAccess(0x8000); lat != 12 {
		t.Errorf("L2-hit latency %d, want 12", lat)
	}
	// Instruction side: cold then warm.
	if lat := h.InstFetch(0x100); lat != 111 {
		t.Errorf("cold fetch latency %d, want 111", lat)
	}
	if lat := h.InstFetch(0x100); lat != 1 {
		t.Errorf("warm fetch latency %d, want 1", lat)
	}
}

func TestMissRate(t *testing.T) {
	c := small()
	if c.MissRate() != 0 {
		t.Error("idle miss rate should be 0")
	}
	c.Access(0)
	c.Access(0)
	if got := c.MissRate(); got != 0.5 {
		t.Errorf("miss rate %v, want 0.5", got)
	}
}

// Property: the cache agrees with a reference model (map + LRU list per
// set) on hit/miss for random access streams.
func TestQuickAgainstReferenceLRU(t *testing.T) {
	type refSet struct{ lines []uint64 }
	f := func(addrs []uint16) bool {
		c := small()
		sets := make([]refSet, 4)
		for _, a16 := range addrs {
			addr := uint64(a16)
			line := addr >> 4
			set := int(line % 4)
			s := &sets[set]
			hit := false
			for i, l := range s.lines {
				if l == line {
					hit = true
					s.lines = append(s.lines[:i], s.lines[i+1:]...)
					break
				}
			}
			s.lines = append(s.lines, line) // MRU at back
			if len(s.lines) > 2 {
				s.lines = s.lines[1:]
			}
			if c.Access(addr) != hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCopyFromMatchesClone: copying into a used cache of the same
// geometry leaves exactly what Clone would build, statistics included,
// and a cache of another geometry is left alone.
func TestCopyFromMatchesClone(t *testing.T) {
	src, dst := small(), small()
	for a := uint64(0); a < 1024; a += 48 {
		src.Access(a)
	}
	for a := uint64(0); a < 512; a += 16 {
		dst.Access(a * 3)
	}
	if !dst.CopyFrom(src) || !reflect.DeepEqual(dst, src.Clone()) {
		t.Errorf("CopyFrom left %+v, want the clone %+v", dst, src.Clone())
	}
	other := New(Config{Name: "t", SizeB: 256, Assoc: 2, LineB: 16, Latency: 2})
	before := other.Clone()
	if other.CopyFrom(src) || !reflect.DeepEqual(other, before) {
		t.Error("CopyFrom across geometries copied")
	}

	h, g := NewHierarchy(DefaultHierarchyConfig()), NewHierarchy(DefaultHierarchyConfig())
	for a := uint64(0); a < 1<<16; a += 200 {
		h.DataAccess(a)
		h.InstFetch(a * 7)
		g.DataAccess(a * 5)
	}
	if !g.CopyFrom(h) || !reflect.DeepEqual(g, h.Clone()) {
		t.Error("Hierarchy.CopyFrom does not match Hierarchy.Clone")
	}
}
