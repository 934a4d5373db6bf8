package core

import (
	"fmt"
	"math/bits"

	"dtl/internal/dram"
)

// smcEntry is one HSN→DSN mapping held in a segment mapping cache.
type smcEntry struct {
	hsn   dram.HSN
	dsn   dram.DSN
	valid bool
	lru   uint64
}

// smc is the two-level segment mapping cache of §3.2: a small
// fully-associative L1 backed by a set-associative L2, both LRU.
//
// The L1 is indexed so no operation scans its slots: l1Index is an
// open-addressed hash from HSN to slot, l1Link threads the valid slots
// into a recency list (MRU at l1Head, LRU at l1Tail), and l1Free is a
// bitmap of invalid slots. installL1 picks the victim a linear scan would:
// the lowest-index invalid slot, else the least recently used entry.
type smc struct {
	l1     []smcEntry // lru is unused here: l1Link holds the order
	l2     []smcEntry // sets x ways, row-major
	l2Sets int
	l2Ways int
	stamp  uint64

	l1Index        []int32 // slot+1, 0 = empty; len is a power of two
	l1Shift        uint    // 64 - log2(len(l1Index))
	l1Link         []lruLink
	l1Head, l1Tail int32 // -1 when the L1 holds no valid entry
	l1Free         []uint64

	l1Hits, l1Misses int64
	l2Hits, l2Misses int64
}

// lruLink threads one L1 slot into the recency list (-1 ends the list).
type lruLink struct{ prev, next int32 }

func newSMC(l1Entries, l2Entries, l2Ways int) *smc {
	// Keep the index at most a quarter full so probe runs stay short.
	logSize := uint(2)
	for 1<<logSize < 4*l1Entries {
		logSize++
	}
	c := &smc{
		l1:      make([]smcEntry, l1Entries),
		l2:      make([]smcEntry, l2Entries),
		l2Sets:  l2Entries / l2Ways,
		l2Ways:  l2Ways,
		l1Index: make([]int32, 1<<logSize),
		l1Shift: 64 - logSize,
		l1Link:  make([]lruLink, l1Entries),
		l1Head:  -1,
		l1Tail:  -1,
		l1Free:  make([]uint64, (l1Entries+63)/64),
	}
	for i := 0; i < l1Entries; i++ {
		c.l1Free[i/64] |= 1 << (i % 64)
	}
	return c
}

// lookup returns the cached DSN for hsn and which level hit:
// 1 = L1 hit, 2 = L2 hit (promoted into L1), 0 = miss.
func (c *smc) lookup(hsn dram.HSN) (dram.DSN, int) {
	c.stamp++
	if s := c.l1Find(hsn); s >= 0 {
		c.l1Unlink(s)
		c.l1PushFront(s)
		c.l1Hits++
		return c.l1[s].dsn, 1
	}
	c.l1Misses++
	set := int(int64(hsn) % int64(c.l2Sets))
	base := set * c.l2Ways
	for i := base; i < base+c.l2Ways; i++ {
		e := &c.l2[i]
		if e.valid && e.hsn == hsn {
			e.lru = c.stamp
			c.l2Hits++
			c.installL1(hsn, e.dsn)
			return e.dsn, 2
		}
	}
	c.l2Misses++
	return 0, 0
}

// install caches a mapping in both levels (miss-path fill). hsn must not be
// cached at either level, as after a lookup that missed.
func (c *smc) install(hsn dram.HSN, dsn dram.DSN) {
	c.stamp++
	c.installL1(hsn, dsn)
	c.installL2(hsn, dsn)
}

// installL1 fills the lowest-index invalid L1 slot, or evicts the LRU
// entry when every slot is valid.
func (c *smc) installL1(hsn dram.HSN, dsn dram.DSN) {
	victim := int32(-1)
	for w, bitsFree := range c.l1Free {
		if bitsFree != 0 {
			victim = int32(w*64 + bits.TrailingZeros64(bitsFree))
			c.l1Free[w] &^= 1 << (victim % 64)
			break
		}
	}
	if victim < 0 {
		victim = c.l1Tail
		c.l1Unlink(victim)
		c.l1Unindex(victim)
	}
	c.l1[victim] = smcEntry{hsn: hsn, dsn: dsn, valid: true}
	c.l1PushFront(victim)
	i := c.l1Home(hsn)
	for c.l1Index[i] != 0 {
		i = (i + 1) & c.l1Mask()
	}
	c.l1Index[i] = victim + 1
}

func (c *smc) installL2(hsn dram.HSN, dsn dram.DSN) {
	set := int(int64(hsn) % int64(c.l2Sets))
	base := set * c.l2Ways
	victim := base
	for i := base; i < base+c.l2Ways; i++ {
		if !c.l2[i].valid {
			victim = i
			break
		}
		if c.l2[i].lru < c.l2[victim].lru {
			victim = i
		}
	}
	c.l2[victim] = smcEntry{hsn: hsn, dsn: dsn, valid: true, lru: c.stamp}
}

// invalidate drops any cached mapping for hsn (called after remapping, §3.4:
// "an invalidation of the corresponding entry in the segment mapping cache").
func (c *smc) invalidate(hsn dram.HSN) {
	if s := c.l1Find(hsn); s >= 0 {
		c.l1Drop(s)
	}
	set := int(int64(hsn) % int64(c.l2Sets))
	base := set * c.l2Ways
	for i := base; i < base+c.l2Ways; i++ {
		if c.l2[i].valid && c.l2[i].hsn == hsn {
			c.l2[i].valid = false
		}
	}
}

// invalidateMatching drops every cached mapping whose HSN satisfies match,
// walking each L1 and L2 slot once. It leaves the same state as calling
// invalidate on each such HSN: L2 drops only clear valid bits, unlinking
// from the recency list keeps the survivors' order, and backward-shift
// deletion leaves the index as if the dropped HSNs had never been inserted,
// whatever the deletion order.
func (c *smc) invalidateMatching(match func(dram.HSN) bool) {
	for s := range c.l1 {
		if c.l1[s].valid && match(c.l1[s].hsn) {
			c.l1Drop(int32(s))
		}
	}
	for i := range c.l2 {
		if c.l2[i].valid && match(c.l2[i].hsn) {
			c.l2[i].valid = false
		}
	}
}

// l1Drop invalidates the valid L1 slot s.
func (c *smc) l1Drop(s int32) {
	c.l1Unlink(s)
	c.l1Unindex(s)
	c.l1[s].valid = false
	c.l1Free[s/64] |= 1 << (s % 64)
}

// check verifies the L1 indexes: the hash index and the valid slots form a
// bijection, the free bitmap marks exactly the invalid slots, and the
// recency list threads every valid slot once.
func (c *smc) check() error {
	valid := 0
	for s := range c.l1 {
		e := &c.l1[s]
		free := c.l1Free[s/64]&(1<<(s%64)) != 0
		if free == e.valid {
			return fmt.Errorf("invariant: L1 slot %d valid=%v but free bit %v", s, e.valid, free)
		}
		if !e.valid {
			continue
		}
		valid++
		if got := c.l1Find(e.hsn); got != int32(s) {
			return fmt.Errorf("invariant: L1 index finds hsn %d at slot %d, want %d", e.hsn, got, s)
		}
	}
	indexed := 0
	for _, v := range c.l1Index {
		if v == 0 {
			continue
		}
		indexed++
		if !c.l1[v-1].valid {
			return fmt.Errorf("invariant: L1 index names invalid slot %d", v-1)
		}
	}
	if indexed != valid {
		return fmt.Errorf("invariant: L1 index has %d entries for %d valid slots", indexed, valid)
	}
	n, prev := 0, int32(-1)
	for s := c.l1Head; s >= 0; s = c.l1Link[s].next {
		if n++; n > valid || !c.l1[s].valid || c.l1Link[s].prev != prev {
			return fmt.Errorf("invariant: L1 recency list broken at slot %d", s)
		}
		prev = s
	}
	if n != valid || c.l1Tail != prev {
		return fmt.Errorf("invariant: L1 recency list holds %d of %d valid slots", n, valid)
	}
	return nil
}

func (c *smc) l1Mask() int { return len(c.l1Index) - 1 }

// l1Home is hsn's preferred index bucket (Fibonacci hashing).
func (c *smc) l1Home(hsn dram.HSN) int {
	return int(uint64(hsn) * 0x9E3779B97F4A7C15 >> c.l1Shift)
}

// l1Find returns the L1 slot caching hsn, or -1.
func (c *smc) l1Find(hsn dram.HSN) int32 {
	for i := c.l1Home(hsn); ; i = (i + 1) & c.l1Mask() {
		s := c.l1Index[i]
		if s == 0 {
			return -1
		}
		if c.l1[s-1].hsn == hsn {
			return s - 1
		}
	}
}

// l1Unindex removes slot s (still holding its hsn) from the index, shifting
// later members of its probe run back so no lookup stops early.
func (c *smc) l1Unindex(s int32) {
	mask := c.l1Mask()
	i := c.l1Home(c.l1[s].hsn)
	for c.l1Index[i] != s+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; c.l1Index[j] != 0; j = (j + 1) & mask {
		// The entry at j may move to the hole at i only if its home does
		// not lie cyclically in (i, j].
		if h := c.l1Home(c.l1[c.l1Index[j]-1].hsn); (j-h)&mask >= (j-i)&mask {
			c.l1Index[i] = c.l1Index[j]
			i = j
		}
	}
	c.l1Index[i] = 0
}

func (c *smc) l1Unlink(s int32) {
	l := c.l1Link[s]
	if l.prev >= 0 {
		c.l1Link[l.prev].next = l.next
	} else {
		c.l1Head = l.next
	}
	if l.next >= 0 {
		c.l1Link[l.next].prev = l.prev
	} else {
		c.l1Tail = l.prev
	}
}

func (c *smc) l1PushFront(s int32) {
	c.l1Link[s] = lruLink{prev: -1, next: c.l1Head}
	if c.l1Head >= 0 {
		c.l1Link[c.l1Head].prev = s
	} else {
		c.l1Tail = s
	}
	c.l1Head = s
}

// SMCStats reports hit/miss counters for both levels.
type SMCStats struct {
	L1Hits, L1Misses int64
	L2Hits, L2Misses int64
}

// L1MissRatio reports L1 misses / L1 lookups.
func (s SMCStats) L1MissRatio() float64 {
	n := s.L1Hits + s.L1Misses
	if n == 0 {
		return 0
	}
	return float64(s.L1Misses) / float64(n)
}

// L2MissRatio reports L2 misses / L2 lookups (i.e. conditional on L1 miss).
func (s SMCStats) L2MissRatio() float64 {
	n := s.L2Hits + s.L2Misses
	if n == 0 {
		return 0
	}
	return float64(s.L2Misses) / float64(n)
}

func (c *smc) stats() SMCStats {
	return SMCStats{L1Hits: c.l1Hits, L1Misses: c.l1Misses, L2Hits: c.l2Hits, L2Misses: c.l2Misses}
}
