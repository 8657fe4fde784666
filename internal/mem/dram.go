package mem

import (
	"gosalam/internal/sim"
	"gosalam/internal/timeline"
	"gosalam/ir"
)

// DRAM is a bandwidth-limited main-memory model with a per-bank row-buffer:
// row hits complete in HitCycles, row misses (precharge + activate) in
// MissCycles, and at most BytesPerCycle of data transfer per cycle is
// admitted, which models channel bandwidth.
type DRAM struct {
	sim.Clocked

	rng   AddrRange
	space *ir.FlatMem

	HitCycles     int
	MissCycles    int
	BytesPerCycle int
	Banks         int
	RowBytes      int

	queue   reqQueue
	openRow []uint64 // per bank; ^0 = closed
	// budget is the channel-bandwidth token bucket: BytesPerCycle tokens
	// accrue per cycle and requests consume their size, so admission
	// averages to the channel bandwidth even for bursts larger than one
	// cycle's tokens.
	budget int

	Reads, Writes, RowHits, RowMisses *sim.Scalar
	BytesMoved                        *sim.Scalar
	QueueDelay                        *sim.Distribution
}

// NewDRAM builds a DRAM over rng with DDR-ish defaults.
func NewDRAM(name string, q *sim.EventQueue, clk *sim.ClockDomain,
	space *ir.FlatMem, rng AddrRange, stats *sim.Group) *DRAM {
	d := &DRAM{
		rng: rng, space: space,
		HitCycles: 12, MissCycles: 30, BytesPerCycle: 16,
		Banks: 8, RowBytes: 2048,
		openRow: make([]uint64, 8),
	}
	for i := range d.openRow {
		d.openRow[i] = ^uint64(0)
	}
	d.InitClocked(name, q, clk)
	d.CycleFn = d.cycle
	g := stats.Child(name)
	d.Reads = g.Scalar("reads", "read requests")
	d.Writes = g.Scalar("writes", "write requests")
	d.RowHits = g.Scalar("row_hits", "row-buffer hits")
	d.RowMisses = g.Scalar("row_misses", "row-buffer misses")
	d.BytesMoved = g.Scalar("bytes", "total bytes transferred")
	d.QueueDelay = g.Distribution("queue_delay", "ticks queued before service")
	return d
}

// Range returns the DRAM address range.
func (d *DRAM) Range() AddrRange { return d.rng }

// Reset rewinds the DRAM for a warm-started run after the owning
// EventQueue has been Reset: the request queue empties, every row buffer
// closes, and the bandwidth bucket drains, matching cold construction.
func (d *DRAM) Reset() {
	d.queue.reset()
	for i := range d.openRow {
		d.openRow[i] = ^uint64(0)
	}
	d.budget = 0
	d.ResetClocked()
}

// Busy reports whether the channel still has requests to serve.
func (d *DRAM) Busy() bool { return d.Active() }

// AttachTimeline binds the clocked "active" lane for the DRAM channel —
// service cycles show as activity, gaps as idle. A nil recorder detaches.
func (d *DRAM) AttachTimeline(rec timeline.Recorder) {
	if rec == nil {
		d.Clocked.AttachTimeline(nil, 0)
		return
	}
	d.Clocked.AttachTimeline(rec, rec.Lane(d.Name(), "active"))
}

// Send enqueues a request.
func (d *DRAM) Send(r *Request) {
	if !d.rng.Contains(r.Addr, r.Size) {
		panic("mem: dram request outside range " + d.rng.String())
	}
	r.Issued = d.Q.Now()
	d.queue.push(r)
	d.Activate()
}

func (d *DRAM) cycle() bool {
	d.budget += d.BytesPerCycle
	if d.budget > d.BytesPerCycle {
		d.budget = d.BytesPerCycle // no banking of idle bandwidth
	}
	for d.budget > 0 && !d.queue.empty() {
		r := d.queue.pop()
		d.QueueDelay.Sample(float64(d.Q.Now() - r.Issued))
		d.budget -= r.Size

		bank := (r.Addr / uint64(d.RowBytes)) % uint64(d.Banks)
		row := r.Addr / uint64(d.RowBytes) / uint64(d.Banks)
		lat := d.HitCycles
		if d.openRow[bank] != row {
			lat = d.MissCycles
			d.RowMisses.Inc(1)
			d.openRow[bank] = row
		} else {
			d.RowHits.Inc(1)
		}
		if r.Write {
			d.Writes.Inc(1)
		} else {
			d.Reads.Inc(1)
		}
		d.BytesMoved.Inc(float64(r.Size))
		// Transfer time: latency + size/bandwidth.
		xfer := (r.Size + d.BytesPerCycle - 1) / d.BytesPerCycle
		complete(d.Q, d.space, r, d.Q.Now()+d.Clk.CyclesToTicks(uint64(lat+xfer)))
	}
	if d.queue.empty() {
		if d.budget < 0 {
			d.budget = 0 // don't carry channel debt across idle periods
		}
		return false
	}
	return true
}
