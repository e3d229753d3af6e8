// Package cache models a set-associative data cache with LRU replacement.
// The paper's speedup experiments enhance the trace simulator with "a
// memory hierarchy of two caches" so that whole-application cycle counts
// (the denominator of Fraction Enhanced) are realistic; this package is
// that hierarchy's building block.
package cache

import "fmt"

// Config sizes a cache.
type Config struct {
	// SizeBytes is the total capacity. Must be a power of two.
	SizeBytes int
	// LineBytes is the line size. Must be a power of two.
	LineBytes int
	// Ways is the set associativity; 0 means direct mapped is NOT implied —
	// it is invalid. Use 1 for direct mapped.
	Ways int
}

// Validate checks the geometry.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.SizeBytes&(c.SizeBytes-1) != 0:
		return fmt.Errorf("cache: size %d not a positive power of two", c.SizeBytes)
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache: line %d not a positive power of two", c.LineBytes)
	case c.Ways <= 0:
		return fmt.Errorf("cache: ways %d not positive", c.Ways)
	case c.SizeBytes%(c.LineBytes*c.Ways) != 0:
		return fmt.Errorf("cache: size %d not divisible by line*ways", c.SizeBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Stats counts cache events.
type Stats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
}

// HitRatio returns Hits/Accesses.
func (s Stats) HitRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Cache is a set-associative cache. Tags only — the model tracks presence,
// not data.
type Cache struct {
	lineShift uint
	setMask   uint64
	tagShift  uint     // bits of the set index, stripped from the line address
	sets      [][]line // MRU-first
	stats     Stats
}

type line struct {
	tag   uint64
	valid bool
}

// New builds a cache, panicking on invalid geometry (a programming error).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	numSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	c := &Cache{setMask: uint64(numSets - 1)}
	for l := cfg.LineBytes; l > 1; l >>= 1 {
		c.lineShift++
	}
	for n := numSets; n > 1; n >>= 1 {
		c.tagShift++
	}
	c.sets = make([][]line, numSets)
	backing := make([]line, numSets*cfg.Ways)
	for i := range c.sets {
		c.sets[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	return c
}

// Access touches the byte address, returning whether it hit. Misses
// allocate (for both loads and stores: write-allocate).
func (c *Cache) Access(addr uint64) bool {
	c.stats.Accesses++
	lineAddr := addr >> c.lineShift
	set := c.sets[lineAddr&c.setMask]
	tag := lineAddr >> c.tagShift
	for w := range set {
		if set[w].valid && set[w].tag == tag {
			l := set[w]
			copy(set[1:w+1], set[:w])
			set[0] = l
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	copy(set[1:], set[:len(set)-1])
	set[0] = line{tag: tag, valid: true}
	return false
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Reset clears contents and counters.
func (c *Cache) Reset() {
	c.stats = Stats{}
	for _, set := range c.sets {
		for i := range set {
			set[i] = line{}
		}
	}
}
