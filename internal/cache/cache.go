// Package cache implements the set-associative data-cache hierarchy of the
// modelled Itanium®2-like processor: an 8KB L0 (2-cycle hits), a 256KB L1
// (10-cycle hits), a 10MB L2 (25-cycle hits) and main memory behind them.
//
// The hierarchy's only job in this study is to decide, per access, which
// level services it — that classification is the paper's squash *trigger*
// ("L0 load miss" / "L1 load miss") — and what latency the consumer sees,
// which sets how long instructions pool in the instruction queue. Caches
// carry a protection attribute (none/parity/ECC) so the soft-error-rate
// composition can attribute SDC vs DUE contributions, and an optional
// per-line π bit used by the paper's mechanism (4), π bits on caches and
// memory.
package cache

import "fmt"

// Protection describes a structure's error detection/correction capability.
type Protection uint8

const (
	// ProtNone means faults go undetected (SDC-contributing).
	ProtNone Protection = iota
	// ProtParity detects single-bit faults but cannot correct them
	// (DUE-contributing).
	ProtParity
	// ProtECC corrects single-bit faults (no error contribution under the
	// paper's single-bit fault model).
	ProtECC
)

// String returns the conventional shorthand for the protection level.
func (p Protection) String() string {
	switch p {
	case ProtNone:
		return "none"
	case ProtParity:
		return "parity"
	case ProtECC:
		return "ecc"
	default:
		return fmt.Sprintf("protection(%d)", uint8(p))
	}
}

// Config sizes one cache level.
type Config struct {
	Name       string
	Size       int // total capacity in bytes
	LineSize   int // bytes per line; must be a power of two
	Assoc      int // ways per set
	HitLatency int // cycles to service a hit at this level
	Protection Protection
	PiBits     bool // allocate a π bit per line (paper §4.3.3 option 4)
}

func (c *Config) validate() error {
	if c.Size <= 0 || c.LineSize <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry", c.Name)
	}
	if c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache %q: line size %d not a power of two", c.Name, c.LineSize)
	}
	if c.Size%(c.LineSize*c.Assoc) != 0 {
		return fmt.Errorf("cache %q: size %d not divisible by line*assoc", c.Name, c.Size)
	}
	sets := c.Size / (c.LineSize * c.Assoc)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: set count %d not a power of two", c.Name, sets)
	}
	if c.HitLatency < 0 {
		return fmt.Errorf("cache %q: negative hit latency", c.Name)
	}
	return nil
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	pi    bool
	lru   uint64 // last-touch stamp; larger = more recent
}

// Stats accumulates per-level access counts.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// Eviction describes a line displaced from a cache, delivered to the
// hierarchy's OnEvict hook. The π-bit machinery uses it to detect π state
// going out of scope (paper §4.2: "when the π bit goes out of scope, an
// implementation should flag an error").
type Eviction struct {
	Level    int
	LineAddr uint64
	Dirty    bool
	Pi       bool
}

// Cache is one set-associative level. It is not safe for concurrent use.
type Cache struct {
	cfg        Config
	sets       [][]line
	setMask    uint64
	offsetBits uint
	clock      uint64
	stats      Stats
}

// NewCache builds a cache from cfg.
func NewCache(cfg Config) (*Cache, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	nsets := cfg.Size / (cfg.LineSize * cfg.Assoc)
	sets := make([][]line, nsets)
	backing := make([]line, nsets*cfg.Assoc)
	for i := range sets {
		sets[i] = backing[i*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	offsetBits := uint(0)
	for 1<<offsetBits < cfg.LineSize {
		offsetBits++
	}
	return &Cache{
		cfg:        cfg,
		sets:       sets,
		setMask:    uint64(nsets - 1),
		offsetBits: offsetBits,
	}, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Clone returns a deep copy of the cache: lines, replacement state and
// counters. Clones evolve independently; a clone of a warmed cache behaves
// bit-identically to a cache warmed by replaying the same accesses.
func (c *Cache) Clone() *Cache {
	nsets := len(c.sets)
	sets := make([][]line, nsets)
	backing := make([]line, nsets*c.cfg.Assoc)
	for i := range sets {
		sets[i] = backing[i*c.cfg.Assoc : (i+1)*c.cfg.Assoc]
		copy(sets[i], c.sets[i])
	}
	return &Cache{
		cfg:        c.cfg,
		sets:       sets,
		setMask:    c.setMask,
		offsetBits: c.offsetBits,
		clock:      c.clock,
		stats:      c.stats,
	}
}

// CloneInto is Clone writing into dst's backing storage when dst has the
// same configuration, so a pooled cache can be re-stamped from a warm
// template without reallocating its line arrays. Any dst (nil, or a cache
// of different geometry) falls back to a fresh Clone. The returned cache is
// bit-identical to Clone's result either way.
func (c *Cache) CloneInto(dst *Cache) *Cache {
	if dst == nil || dst.cfg != c.cfg || len(dst.sets) != len(c.sets) {
		return c.Clone()
	}
	for i := range c.sets {
		copy(dst.sets[i], c.sets[i])
	}
	dst.setMask = c.setMask
	dst.offsetBits = c.offsetBits
	dst.clock = c.clock
	dst.stats = c.stats
	return dst
}

// Stats returns a snapshot of the access counters.
func (c *Cache) Stats() Stats { return c.stats }

// LineAddr truncates addr to its line address in this cache.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.offsetBits << c.offsetBits }

func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	la := addr >> c.offsetBits
	return la & c.setMask, la >> 0 // full line address as tag for simplicity
}

// Lookup probes without modifying replacement state or counters. It returns
// the line if present.
func (c *Cache) Lookup(addr uint64) (found bool, dirty bool, pi bool) {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			return true, ln.dirty, ln.pi
		}
	}
	return false, false, false
}

// Access probes for addr, updating LRU and counters. On a hit it returns
// hit=true. It does not allocate; use Fill after resolving a miss.
func (c *Cache) Access(addr uint64, write bool) bool {
	c.clock++
	c.stats.Accesses++
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			ln.lru = c.clock
			if write {
				ln.dirty = true
			}
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

// Fill allocates a line for addr, evicting the LRU way if needed. The
// eviction (if any) is returned so the hierarchy can cascade writebacks and
// π-scope exits. write marks the new line dirty.
func (c *Cache) Fill(addr uint64, write bool) (ev Eviction, evicted bool) {
	c.clock++
	set, tag := c.index(addr)
	victim := -1
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag { // already present (double fill): refresh
			ln.lru = c.clock
			if write {
				ln.dirty = true
			}
			return Eviction{}, false
		}
		if !ln.valid {
			victim = i
		}
	}
	if victim < 0 {
		oldest := uint64(1<<64 - 1)
		for i := range c.sets[set] {
			if c.sets[set][i].lru < oldest {
				oldest = c.sets[set][i].lru
				victim = i
			}
		}
		old := &c.sets[set][victim]
		ev = Eviction{
			LineAddr: old.tag << c.offsetBits,
			Dirty:    old.dirty,
			Pi:       old.pi,
		}
		evicted = true
		c.stats.Evictions++
		if old.dirty {
			c.stats.Writebacks++
		}
	}
	c.sets[set][victim] = line{tag: tag, valid: true, dirty: write, lru: c.clock}
	return ev, evicted
}

// SetPi sets or clears the π bit on the line holding addr, if present and
// if this cache was configured with π bits. It reports whether the line was
// found.
func (c *Cache) SetPi(addr uint64, v bool) bool {
	if !c.cfg.PiBits {
		return false
	}
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			ln.pi = v
			return true
		}
	}
	return false
}

// Pi reads the π bit of the line holding addr; ok is false if the line is
// absent or the cache has no π bits.
func (c *Cache) Pi(addr uint64) (pi, ok bool) {
	if !c.cfg.PiBits {
		return false, false
	}
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			return ln.pi, true
		}
	}
	return false, false
}

// Flush invalidates every line, returning the count that were dirty.
func (c *Cache) Flush() int {
	dirty := 0
	for s := range c.sets {
		for i := range c.sets[s] {
			if c.sets[s][i].valid && c.sets[s][i].dirty {
				dirty++
			}
			c.sets[s][i] = line{}
		}
	}
	return dirty
}
