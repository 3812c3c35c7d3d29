// Package cache implements the set-associative cache hierarchy of the
// simulated machine. The timing model only needs access *latencies* (the
// data values come from the oracle), so caches here track tags and LRU
// state and report hit/miss latency per access.
//
// The default hierarchy matches Table 2 of the paper:
//
//	L1 I: 64 KB, 4-way, 64 B lines, 1 cycle
//	L1 D: 32 KB, 2-way, 32 B lines, 2 ports, 2 cycles
//	L2:   1 MB, 2-way, 128 B lines, 10 cycles (unified)
//	Mem:  100 cycles
package cache

import "fmt"

// Config describes one cache level.
type Config struct {
	Name    string
	SizeB   int // total size in bytes
	Assoc   int // ways
	LineB   int // line size in bytes
	Latency uint64
}

// Cache is one set-associative, LRU, allocate-on-miss cache level. The
// tag/valid/LRU state lives in flat [set*assoc+way] arrays, so cloning
// a level (sampled simulation snapshots warmed contents per detailed
// window) is three bulk copies rather than thousands of per-set
// allocations.
type Cache struct {
	cfg      Config
	sets     int
	lineBits uint
	tags     []uint64 // [set*assoc+way]
	valid    []bool
	lru      []uint8 // lower is more recently used

	// Stats.
	Accesses uint64
	Misses   uint64
}

// Geometry ceilings, far above any cache this model describes: the LRU
// state is one byte per way, and New allocates per line.
const (
	maxAssoc = 64
	maxLineB = 1 << 16
	maxLines = 1 << 20
)

// Validate reports geometry New cannot build: non-positive or
// non-power-of-two sizes, or a level beyond the ceilings on ways, line
// size and line count.
func (cfg Config) Validate() error {
	if cfg.SizeB <= 0 || cfg.Assoc <= 0 || cfg.LineB <= 0 ||
		cfg.Assoc > maxAssoc || cfg.LineB > maxLineB {
		return fmt.Errorf("cache %s: bad geometry %+v (ways 1..%d, line 1..%d bytes)", cfg.Name, cfg, maxAssoc, maxLineB)
	}
	sets := cfg.SizeB / (cfg.Assoc * cfg.LineB)
	if sets <= 0 || sets&(sets-1) != 0 || cfg.LineB&(cfg.LineB-1) != 0 {
		return fmt.Errorf("cache %s: non-power-of-two geometry %+v", cfg.Name, cfg)
	}
	if sets*cfg.Assoc > maxLines {
		return fmt.Errorf("cache %s: %d lines above the ceiling %d", cfg.Name, sets*cfg.Assoc, maxLines)
	}
	return nil
}

// New builds a cache level. It panics on geometry Validate rejects,
// which indicates a configuration bug rather than a runtime condition.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	sets := cfg.SizeB / (cfg.Assoc * cfg.LineB)
	c := &Cache{cfg: cfg, sets: sets}
	for c.cfg.LineB>>c.lineBits > 1 {
		c.lineBits++
	}
	n := sets * cfg.Assoc
	c.tags = make([]uint64, n)
	c.valid = make([]bool, n)
	c.lru = make([]uint8, n)
	w := uint8(0)
	for i := range c.lru {
		c.lru[i] = w
		w++
		if int(w) == cfg.Assoc {
			w = 0
		}
	}
	return c
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	line := addr >> c.lineBits
	return int(line % uint64(c.sets)), line / uint64(c.sets)
}

func (c *Cache) touch(base, way int) {
	old := c.lru[base+way]
	for w := 0; w < c.cfg.Assoc; w++ {
		if c.lru[base+w] < old {
			c.lru[base+w]++
		}
	}
	c.lru[base+way] = 0
}

// Access looks up addr, allocating the line on a miss (LRU victim), and
// reports whether it hit. Timing is the caller's concern via Latency().
func (c *Cache) Access(addr uint64) bool {
	c.Accesses++
	set, tag := c.index(addr)
	base := set * c.cfg.Assoc
	for w := 0; w < c.cfg.Assoc; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			c.touch(base, w)
			return true
		}
	}
	c.Misses++
	// Allocate into the LRU way.
	victim := 0
	for w := 0; w < c.cfg.Assoc; w++ {
		if c.lru[base+w] == uint8(c.cfg.Assoc-1) {
			victim = w
			break
		}
	}
	c.tags[base+victim] = tag
	c.valid[base+victim] = true
	c.touch(base, victim)
	return false
}

// Clone returns a deep copy of the cache's tag/valid/LRU state with
// statistics counters reset to zero. Sampled simulation uses it to hand
// functionally warmed contents to a detailed window while the warmer
// keeps its own copy evolving — and the window's miss rates then report
// only its own accesses.
func (c *Cache) Clone() *Cache {
	return &Cache{
		cfg:      c.cfg,
		sets:     c.sets,
		lineBits: c.lineBits,
		tags:     append([]uint64(nil), c.tags...),
		valid:    append([]bool(nil), c.valid...),
		lru:      append([]uint8(nil), c.lru...),
	}
}

// CopyFrom overwrites c's tag/valid/LRU state with src's and resets
// c's statistics, leaving c equal to src.Clone() without allocating.
// It copies nothing and reports false when the two are configured
// differently.
func (c *Cache) CopyFrom(src *Cache) bool {
	if c.cfg != src.cfg {
		return false
	}
	copy(c.tags, src.tags)
	copy(c.valid, src.valid)
	copy(c.lru, src.lru)
	c.Accesses, c.Misses = 0, 0
	return true
}

// Probe reports whether addr is resident without updating any state.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	base := set * c.cfg.Assoc
	for w := 0; w < c.cfg.Assoc; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			return true
		}
	}
	return false
}

// Latency returns the level's access latency in cycles.
func (c *Cache) Latency() uint64 { return c.cfg.Latency }

// MissRate returns misses/accesses (0 when idle).
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// Hierarchy bundles the L1 instruction, L1 data and unified L2 caches
// with the memory latency behind them.
type Hierarchy struct {
	L1I, L1D, L2 *Cache
	MemLatency   uint64
}

// HierarchyConfig parameterizes NewHierarchy.
type HierarchyConfig struct {
	L1I, L1D, L2 Config
	MemLatency   uint64
}

// DefaultHierarchyConfig reproduces Table 2.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:        Config{Name: "L1I", SizeB: 64 << 10, Assoc: 4, LineB: 64, Latency: 1},
		L1D:        Config{Name: "L1D", SizeB: 32 << 10, Assoc: 2, LineB: 32, Latency: 2},
		L2:         Config{Name: "L2", SizeB: 1 << 20, Assoc: 2, LineB: 128, Latency: 10},
		MemLatency: 100,
	}
}

// NewHierarchy builds the three-level hierarchy.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		L1I:        New(cfg.L1I),
		L1D:        New(cfg.L1D),
		L2:         New(cfg.L2),
		MemLatency: cfg.MemLatency,
	}
}

// Clone returns a deep copy of the hierarchy (see Cache.Clone; the
// clone's statistics start at zero).
func (h *Hierarchy) Clone() *Hierarchy {
	return &Hierarchy{
		L1I:        h.L1I.Clone(),
		L1D:        h.L1D.Clone(),
		L2:         h.L2.Clone(),
		MemLatency: h.MemLatency,
	}
}

// CopyFrom overwrites every level with src's (see Cache.CopyFrom),
// reporting false when the hierarchies are configured differently.
func (h *Hierarchy) CopyFrom(src *Hierarchy) bool {
	return h.MemLatency == src.MemLatency &&
		h.L1I.CopyFrom(src.L1I) && h.L1D.CopyFrom(src.L1D) && h.L2.CopyFrom(src.L2)
}

// InstFetch returns the latency of fetching the instruction line at addr.
func (h *Hierarchy) InstFetch(addr uint64) uint64 {
	if h.L1I.Access(addr) {
		return h.L1I.Latency()
	}
	if h.L2.Access(addr) {
		return h.L1I.Latency() + h.L2.Latency()
	}
	return h.L1I.Latency() + h.L2.Latency() + h.MemLatency
}

// DataAccess returns the latency of a load/store to addr.
func (h *Hierarchy) DataAccess(addr uint64) uint64 {
	if h.L1D.Access(addr) {
		return h.L1D.Latency()
	}
	if h.L2.Access(addr) {
		return h.L1D.Latency() + h.L2.Latency()
	}
	return h.L1D.Latency() + h.L2.Latency() + h.MemLatency
}
