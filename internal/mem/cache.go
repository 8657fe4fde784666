package mem

import (
	"gosalam/internal/hw"
	"gosalam/internal/sim"
	"gosalam/internal/snapshot"
	"gosalam/internal/timeline"
	"gosalam/ir"
)

// Cache is a set-associative, write-back, write-allocate, non-blocking
// cache with LRU replacement and a bounded MSHR file. Data is functional
// in the global backing store; the cache models timing (hits, misses,
// fills, writebacks) — the gem5 classic-cache role in the paper's memory
// hierarchy.
type Cache struct {
	sim.Clocked

	rng        AddrRange // addresses this cache fronts
	space      *ir.FlatMem
	downstream Port

	SizeBytes  int
	LineBytes  int
	Assoc      int
	HitCycles  int
	MSHRs      int
	PortsPerCy int

	sets     []cacheSet
	incoming reqQueue
	mshr     map[uint64]*mshrEntry
	// mshrOrder holds live entries in allocation order, so snapshots can
	// enumerate the MSHR file without ranging over the map.
	mshrOrder []*mshrEntry
	lruTick   uint64

	// rec, when non-nil, receives hit/miss instants and an MSHR-occupancy
	// counter (AttachTimeline).
	rec              timeline.Recorder
	tlAccess, tlMSHR timeline.LaneID

	// Stats.
	Hits, Misses, Writebacks, Fills *sim.Scalar
	MSHRStallCycles                 *sim.Scalar
	Accesses                        *sim.Scalar
	// Reads/Writes count accepted accesses by direction (unlike Accesses,
	// which also counts MSHR-full retries of the same request) — the
	// denominators the energy accounting charges CACTI read/write energy
	// against.
	Reads, Writes *sim.Scalar
}

type cacheLine struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

type cacheSet struct {
	lines []cacheLine
}

type mshrEntry struct {
	lineAddr uint64
	waiting  []*Request
}

// NewCache builds a cache fronting rng, forwarding misses downstream.
func NewCache(name string, q *sim.EventQueue, clk *sim.ClockDomain,
	space *ir.FlatMem, rng AddrRange, downstream Port,
	sizeBytes, lineBytes, assoc, hitCycles, mshrs int, stats *sim.Group) *Cache {
	if lineBytes <= 0 {
		lineBytes = 64
	}
	if assoc <= 0 {
		assoc = 1
	}
	nLines := sizeBytes / lineBytes
	if nLines < assoc {
		assoc = max(1, nLines)
	}
	nSets := max(1, nLines/assoc)
	c := &Cache{
		rng: rng, space: space, downstream: downstream,
		SizeBytes: sizeBytes, LineBytes: lineBytes, Assoc: assoc,
		HitCycles: hitCycles, PortsPerCy: 2,
		sets: make([]cacheSet, nSets),
		mshr: map[uint64]*mshrEntry{},
	}
	for i := range c.sets {
		c.sets[i].lines = make([]cacheLine, assoc)
	}
	c.Retune(mshrs)
	c.InitClocked(name, q, clk)
	c.CycleFn = c.cycle
	g := stats.Child(name)
	c.Accesses = g.Scalar("accesses", "total accesses")
	c.Reads = g.Scalar("reads", "read accesses accepted")
	c.Writes = g.Scalar("writes", "write accesses accepted")
	c.Hits = g.Scalar("hits", "hits")
	c.Misses = g.Scalar("misses", "misses")
	c.Writebacks = g.Scalar("writebacks", "dirty evictions written back")
	c.Fills = g.Scalar("fills", "line fills from downstream")
	c.MSHRStallCycles = g.Scalar("mshr_stall_cycles", "cycles stalled on full MSHRs")
	g.Formula("miss_rate", "misses / accesses", func() float64 {
		if c.Accesses.Value() == 0 {
			return 0
		}
		return c.Misses.Value() / c.Accesses.Value()
	})
	return c
}

// Range returns the address range the cache fronts.
func (c *Cache) Range() AddrRange { return c.rng }

// Retune applies the per-design-point knob — the MSHR count (at least one)
// — at construction and again before each warm run. Geometry (size, line,
// associativity) is fixed at construction.
func (c *Cache) Retune(mshrs int) { c.MSHRs = max(1, mshrs) }

// Reset rewinds the cache to its cold state for a warm-started run after
// the owning EventQueue has been Reset: every line is invalidated, the MSHR
// file and incoming queue are emptied, and the LRU clock restarts, so a
// warm run observes exactly the cold-miss behaviour of a fresh cache.
func (c *Cache) Reset() {
	for i := range c.sets {
		clear(c.sets[i].lines)
	}
	clear(c.mshr)
	c.mshrOrder = c.mshrOrder[:0]
	c.incoming.reset()
	c.lruTick = 0
	c.ResetClocked()
}

// Busy reports whether accesses are queued or misses outstanding.
func (c *Cache) Busy() bool { return c.Active() || len(c.mshr) > 0 }

// AttachTimeline binds recorder lanes for the cache: the clocked
// "active" lane, an access lane carrying hit/miss instants, and an MSHR
// occupancy counter. A nil recorder detaches.
func (c *Cache) AttachTimeline(rec timeline.Recorder) {
	c.rec = rec
	if rec == nil {
		c.Clocked.AttachTimeline(nil, 0)
		return
	}
	name := c.Name()
	c.Clocked.AttachTimeline(rec, rec.Lane(name, "active"))
	c.tlAccess = rec.Lane(name, "access")
	c.tlMSHR = rec.Lane(name, "mshr")
}

// Cacti returns the analytic power/area model for this configuration.
func (c *Cache) Cacti() hw.CactiCache {
	return hw.NewCactiCache(c.SizeBytes, c.LineBytes, c.Assoc)
}

func (c *Cache) lineAddr(addr uint64) uint64 { return addr &^ uint64(c.LineBytes-1) }
func (c *Cache) setIdx(lineAddr uint64) int {
	return int(lineAddr/uint64(c.LineBytes)) % len(c.sets)
}

// Send enqueues a request.
func (c *Cache) Send(r *Request) {
	r.Issued = c.Q.Now()
	c.incoming.push(r)
	c.Activate()
}

func (c *Cache) cycle() bool {
	served := 0
	for served < c.PortsPerCy && !c.incoming.empty() {
		r := c.incoming.peek()
		if !c.tryAccess(r) {
			c.MSHRStallCycles.Inc(1)
			break // head-of-line stall on full MSHRs
		}
		c.incoming.pop()
		served++
	}
	return !c.incoming.empty() || len(c.mshr) > 0
}

// tryAccess handles one request; false means it must retry (MSHRs full).
func (c *Cache) tryAccess(r *Request) bool {
	la := c.lineAddr(r.Addr)
	// Accesses that straddle a line are split conservatively by treating
	// the first line as the homed line; kernels here are aligned.
	set := &c.sets[c.setIdx(la)]
	c.Accesses.Inc(1)
	for i := range set.lines {
		ln := &set.lines[i]
		if ln.valid && ln.tag == la {
			// Hit.
			c.countAccess(r)
			c.Hits.Inc(1)
			if c.rec != nil {
				c.rec.Instant(c.tlAccess, uint64(c.Q.Now()), "hit")
			}
			c.lruTick++
			ln.lru = c.lruTick
			if r.Write {
				ln.dirty = true
			}
			complete(c.Q, c.space, r, c.Q.Now()+c.Clk.CyclesToTicks(uint64(c.HitCycles)))
			return true
		}
	}
	// Miss.
	if e, ok := c.mshr[la]; ok {
		c.countAccess(r)
		c.Misses.Inc(1)
		if c.rec != nil {
			c.rec.Instant(c.tlAccess, uint64(c.Q.Now()), "miss")
		}
		e.waiting = append(e.waiting, r)
		return true
	}
	if len(c.mshr) >= c.MSHRs {
		return false
	}
	c.countAccess(r)
	c.Misses.Inc(1)
	if c.rec != nil {
		c.rec.Instant(c.tlAccess, uint64(c.Q.Now()), "miss")
	}
	e := &mshrEntry{lineAddr: la, waiting: []*Request{r}}
	c.mshr[la] = e
	c.mshrOrder = append(c.mshrOrder, e)
	if c.rec != nil {
		c.rec.Counter(c.tlMSHR, uint64(c.Q.Now()), float64(len(c.mshr)))
	}
	// Fetch the line from downstream.
	fill := c.newFill(e)
	c.downstream.Send(fill)
	return true
}

// countAccess books one accepted access against its direction counter.
func (c *Cache) countAccess(r *Request) {
	if r.Write {
		c.Writes.Inc(1)
	} else {
		c.Reads.Inc(1)
	}
}

// newFill builds the downstream line-fetch request for an MSHR entry,
// tagged so a snapshot can claim it wherever it is in flight.
func (c *Cache) newFill(e *mshrEntry) *Request {
	fill := NewRead(e.lineAddr, c.LineBytes, func(*Request) { c.fill(e) })
	fill.Owner = snapshot.OwnerCacheFill
	fill.OwnerID = e.lineAddr
	return fill
}

// fill installs the fetched line and releases waiters.
func (c *Cache) fill(e *mshrEntry) {
	c.Fills.Inc(1)
	set := &c.sets[c.setIdx(e.lineAddr)]
	// Choose LRU victim.
	victim := 0
	for i := range set.lines {
		if !set.lines[i].valid {
			victim = i
			break
		}
		if set.lines[i].lru < set.lines[victim].lru {
			victim = i
		}
	}
	v := &set.lines[victim]
	if v.valid && v.dirty {
		c.Writebacks.Inc(1)
		// The backing store is already functionally current; the
		// writeback only models downstream bandwidth and latency.
		wb := NewWrite(v.tag, make([]byte, c.LineBytes), nil)
		wb.TimingOnly = true
		wb.Owner = snapshot.OwnerWriteback
		c.downstream.Send(wb)
	}
	c.lruTick++
	*v = cacheLine{tag: e.lineAddr, valid: true, lru: c.lruTick}
	delete(c.mshr, e.lineAddr)
	for i, o := range c.mshrOrder {
		if o == e {
			c.mshrOrder = append(c.mshrOrder[:i], c.mshrOrder[i+1:]...)
			break
		}
	}
	if c.rec != nil {
		c.rec.Counter(c.tlMSHR, uint64(c.Q.Now()), float64(len(c.mshr)))
	}
	lat := c.Clk.CyclesToTicks(uint64(c.HitCycles))
	for _, r := range e.waiting {
		if r.Write {
			v.dirty = true
		}
		complete(c.Q, c.space, r, c.Q.Now()+lat)
	}
	c.Activate()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
