package mem

import (
	"fmt"

	"gosalam/internal/sim"
	"gosalam/internal/snapshot"
	"gosalam/ir"
)

// This file is the mem half of checkpoint/restore. Requests are captured
// wherever they currently live — a device queue, an MSHR waiting list, or
// the event queue as a scheduled completion — identified by their Owner
// tag. Restore materializes each captured request through a Resolver that
// rebinds the owner's Done callback, then puts it back exactly where it
// was. Read Data is never captured: Fire fills read buffers at fire time,
// so only the (Addr, Size) coordinates matter before then.

// Resolver rebuilds a live *Request (with the correct Done callback, issue
// stamp and, for writes, payload buffer) from its captured form. The root
// package's system core supplies one that hands each request to the device
// declaring its Owner tag.
type Resolver func(snapshot.Req) (*Request, error)

// CaptureReq captures one in-flight request. It fails on untagged
// requests: without an owner no restore could rebind the callback.
func CaptureReq(r *Request) (snapshot.Req, error) {
	if r.Owner == snapshot.OwnerNone {
		return snapshot.Req{}, fmt.Errorf("mem: request %#x (size %d) has no snapshot owner", r.Addr, r.Size)
	}
	sr := snapshot.Req{
		Owner: r.Owner, OwnerID: r.OwnerID,
		Addr: r.Addr, Size: r.Size, Write: r.Write, TimingOnly: r.TimingOnly,
		Issued: uint64(r.Issued),
	}
	if r.Write && !r.TimingOnly {
		sr.Data = append([]byte(nil), r.Data...)
	}
	return sr, nil
}

// RebuildWriteback reconstructs a timing-only cache writeback; it carries
// no callback and no functional payload, only bandwidth.
func RebuildWriteback(sr snapshot.Req) *Request {
	wb := NewWrite(sr.Addr, make([]byte, sr.Size), nil)
	wb.TimingOnly = true
	wb.Owner = snapshot.OwnerWriteback
	wb.Issued = sim.Tick(sr.Issued)
	return wb
}

// RestoreScheduled re-inserts a request's completion event with its
// captured coordinates, bound to the backing store exactly as complete
// would have bound it.
func RestoreScheduled(q *sim.EventQueue, space *ir.FlatMem, r *Request, ev snapshot.Event) {
	r.space = space
	q.ScheduleRestoredObj(ev, r)
}

// capture snapshots a request FIFO in order.
func (q *reqQueue) capture() ([]snapshot.Req, error) {
	out := make([]snapshot.Req, 0, q.n)
	for i := 0; i < q.n; i++ {
		sr, err := CaptureReq(q.items[(q.head+i)%len(q.items)])
		if err != nil {
			return nil, err
		}
		out = append(out, sr)
	}
	return out, nil
}

// restore refills a freshly reset FIFO from captured requests.
func (q *reqQueue) restore(reqs []snapshot.Req, resolve Resolver) error {
	for _, sr := range reqs {
		r, err := resolve(sr)
		if err != nil {
			return err
		}
		q.push(r)
	}
	return nil
}

// Capture snapshots the scratchpad's dynamic state.
func (s *Scratchpad) Capture() (snapshot.Component, error) {
	st := &snapshot.SPM{Queues: make([][]snapshot.Req, len(s.queues))}
	for b := range s.queues {
		reqs, err := s.queues[b].capture()
		if err != nil {
			return snapshot.Component{}, fmt.Errorf("%s bank %d: %w", s.Name(), b, err)
		}
		st.Queues[b] = reqs
	}
	return snapshot.Component{Name: s.Name(), Clk: s.CaptureClock(), SPM: st}, nil
}

// Restore rewinds a freshly Reset scratchpad into a captured state.
func (s *Scratchpad) Restore(c *snapshot.Component, resolve Resolver) error {
	st := c.SPM
	if st == nil {
		return fmt.Errorf("mem: %s: component carries no scratchpad state", s.Name())
	}
	if len(st.Queues) != len(s.queues) {
		return fmt.Errorf("mem: %s: image has %d banks, scratchpad has %d", s.Name(), len(st.Queues), len(s.queues))
	}
	for b := range st.Queues {
		if err := s.queues[b].restore(st.Queues[b], resolve); err != nil {
			return err
		}
	}
	s.RestoreClock(c.Clk)
	return nil
}

// Capture snapshots the cache's dynamic state: line tags, LRU clock,
// the incoming queue, and the MSHR file (in allocation order) with each
// entry's waiting requests. The in-flight fill requests themselves are
// captured wherever they live, as OwnerCacheFill requests.
func (c *Cache) Capture() (snapshot.Component, error) {
	st := &snapshot.Cache{LRUTick: c.lruTick, Sets: make([][]snapshot.CacheLine, len(c.sets))}
	for i := range c.sets {
		lines := c.sets[i].lines
		st.Sets[i] = make([]snapshot.CacheLine, len(lines))
		for j, ln := range lines {
			st.Sets[i][j] = snapshot.CacheLine{Tag: ln.tag, Valid: ln.valid, Dirty: ln.dirty, LRU: ln.lru}
		}
	}
	var err error
	if st.Incoming, err = c.incoming.capture(); err != nil {
		return snapshot.Component{}, fmt.Errorf("%s incoming: %w", c.Name(), err)
	}
	for _, e := range c.mshrOrder {
		m := snapshot.MSHR{LineAddr: e.lineAddr}
		for _, r := range e.waiting {
			sr, cerr := CaptureReq(r)
			if cerr != nil {
				return snapshot.Component{}, fmt.Errorf("%s mshr %#x: %w", c.Name(), e.lineAddr, cerr)
			}
			m.Waiting = append(m.Waiting, sr)
		}
		st.MSHRs = append(st.MSHRs, m)
	}
	return snapshot.Component{Name: c.Name(), Clk: c.CaptureClock(), Cache: st}, nil
}

// Restore rewinds a freshly Reset cache into a captured state. MSHR
// entries are rebuilt first so RebuildRequest can rebind in-flight fills
// that other devices or the event queue still hold.
func (c *Cache) Restore(comp *snapshot.Component, resolve Resolver) error {
	st := comp.Cache
	if st == nil {
		return fmt.Errorf("mem: %s: component carries no cache state", c.Name())
	}
	if len(st.Sets) != len(c.sets) {
		return fmt.Errorf("mem: %s: image has %d sets, cache has %d", c.Name(), len(st.Sets), len(c.sets))
	}
	for i := range st.Sets {
		if len(st.Sets[i]) != len(c.sets[i].lines) {
			return fmt.Errorf("mem: %s: image set %d has %d ways, cache has %d", c.Name(), i, len(st.Sets[i]), len(c.sets[i].lines))
		}
		for j, ln := range st.Sets[i] {
			c.sets[i].lines[j] = cacheLine{tag: ln.Tag, valid: ln.Valid, dirty: ln.Dirty, lru: ln.LRU}
		}
	}
	c.lruTick = st.LRUTick
	for _, m := range st.MSHRs {
		e := &mshrEntry{lineAddr: m.LineAddr}
		for _, sr := range m.Waiting {
			r, err := resolve(sr)
			if err != nil {
				return err
			}
			e.waiting = append(e.waiting, r)
		}
		c.mshr[m.LineAddr] = e
		c.mshrOrder = append(c.mshrOrder, e)
	}
	if err := c.incoming.restore(st.Incoming, resolve); err != nil {
		return err
	}
	c.RestoreClock(comp.Clk)
	return nil
}

// Owner is the tag the cache stamps on its line fills.
func (c *Cache) Owner() uint8 { return snapshot.OwnerCacheFill }

// RebuildRequest rebuilds the in-flight fill request for a restored MSHR
// entry (OwnerID = line address), rebinding its completion to the entry.
func (c *Cache) RebuildRequest(sr snapshot.Req) (*Request, error) {
	e, ok := c.mshr[sr.OwnerID]
	if !ok {
		return nil, fmt.Errorf("mem: %s: fill for line %#x has no restored MSHR entry", c.Name(), sr.OwnerID)
	}
	r := c.newFill(e)
	r.Issued = sim.Tick(sr.Issued)
	return r, nil
}

// Capture snapshots the DRAM's dynamic state.
func (d *DRAM) Capture() (snapshot.Component, error) {
	st := &snapshot.DRAM{OpenRow: append([]uint64(nil), d.openRow...), Budget: d.budget}
	var err error
	if st.Queue, err = d.queue.capture(); err != nil {
		return snapshot.Component{}, fmt.Errorf("%s queue: %w", d.Name(), err)
	}
	return snapshot.Component{Name: d.Name(), Clk: d.CaptureClock(), DRAM: st}, nil
}

// Restore rewinds a freshly Reset DRAM into a captured state.
func (d *DRAM) Restore(c *snapshot.Component, resolve Resolver) error {
	st := c.DRAM
	if st == nil {
		return fmt.Errorf("mem: %s: component carries no DRAM state", d.Name())
	}
	if len(st.OpenRow) != len(d.openRow) {
		return fmt.Errorf("mem: %s: image has %d banks, dram has %d", d.Name(), len(st.OpenRow), len(d.openRow))
	}
	copy(d.openRow, st.OpenRow)
	d.budget = st.Budget
	if err := d.queue.restore(st.Queue, resolve); err != nil {
		return err
	}
	d.RestoreClock(c.Clk)
	return nil
}

// Regs returns a copy of the register file (for snapshots).
func (m *MMRBlock) Regs() []uint64 { return append([]uint64(nil), m.regs...) }

// RestoreRegs overwrites the register file from a snapshot.
func (m *MMRBlock) RestoreRegs(regs []uint64) error {
	if len(regs) != len(m.regs) {
		return fmt.Errorf("mem: %s: image has %d registers, block has %d", m.name, len(regs), len(m.regs))
	}
	copy(m.regs, regs)
	return nil
}
