package mem

import (
	"gosalam/internal/sim"
	"gosalam/internal/timeline"
)

// BlockDMA register indices (64-bit registers).
const (
	DMARegCtrl   = 0 // bit0: start, bit1: IRQ enable
	DMARegStatus = 1 // bit0: busy, bit1: done
	DMARegSrc    = 2
	DMARegDst    = 3
	DMARegLen    = 4
	DMARegBurst  = 5
	DMANumRegs   = 6
)

// BlockDMA moves a memory block between two addresses in bursts through a
// master port — the cluster DMA of Fig. 6. It is programmed through MMRs
// (host path) or the Transfer API (driver convenience), and raises an
// interrupt line on completion when enabled.
type BlockDMA struct {
	MMR *MMRBlock

	q    *sim.EventQueue
	clk  *sim.ClockDomain
	name string
	port Port

	MaxOutstanding int
	// BytesPerCycle throttles the engine to its channel width: a new
	// burst may only issue once the previous one's beats have streamed
	// out (size/BytesPerCycle cycles of the DMA clock). Real data movers
	// are bandwidth-bound here, not latency-bound.
	BytesPerCycle int
	// IRQ is invoked on completion when ctrl bit1 is set.
	IRQ func()

	// in-flight transfer state
	busy        bool
	src, dst    uint64
	remaining   uint64
	issued      uint64
	outstanding int
	burst       int
	onDone      func()
	// channel pacing
	nextIssue     sim.Tick
	pumpScheduled bool
	pumpEv        *sim.Recurring

	// rec, when non-nil, receives one slice per transfer and one instant
	// per issued burst (AttachTimeline).
	rec    timeline.Recorder
	tlLane timeline.LaneID

	Transfers, BytesMoved *sim.Scalar
	// DroppedStarts counts MMR ctrl-start writes ignored because a
	// transfer was already in flight (see the OnWrite contract).
	DroppedStarts *sim.Scalar
	TransferTicks *sim.Distribution
	startTick     sim.Tick
}

// NewBlockDMA creates a DMA whose MMRs sit at mmrBase and whose transfers
// flow through port.
func NewBlockDMA(name string, q *sim.EventQueue, clk *sim.ClockDomain,
	mmrBase uint64, port Port, stats *sim.Group) *BlockDMA {
	d := &BlockDMA{
		q: q, clk: clk, name: name, port: port,
		MaxOutstanding: 4,
		BytesPerCycle:  16,
	}
	d.pumpEv = q.NewRecurring(sim.PriDefault, func() {
		d.pumpScheduled = false
		d.pump()
	})
	d.MMR = NewMMRBlock(name+".mmr", q, clk, mmrBase, DMANumRegs, stats)
	// MMR start contract: a ctrl-register start written while a transfer
	// is in flight is IGNORED — real data movers have no queue behind the
	// doorbell, so software must poll the status register (or take the
	// IRQ) before re-arming. The drop is observable through the
	// dropped_starts stat and a timeline instant. The programmatic
	// Transfer path panics instead: a driver double-start is a host-code
	// bug and should fail loudly, not vanish.
	d.MMR.OnWrite = func(idx int, val uint64) {
		if idx != DMARegCtrl || val&1 == 0 {
			return
		}
		if d.busy {
			d.DroppedStarts.Inc(1)
			if d.rec != nil {
				d.rec.Instant(d.tlLane, uint64(d.q.Now()), "dropped_start")
			}
			return
		}
		burst := int(d.MMR.Reg(DMARegBurst))
		d.start(d.MMR.Reg(DMARegSrc), d.MMR.Reg(DMARegDst), d.MMR.Reg(DMARegLen), burst, nil)
	}
	g := stats.Child(name)
	d.Transfers = g.Scalar("transfers", "completed transfers")
	d.BytesMoved = g.Scalar("bytes", "bytes moved")
	d.DroppedStarts = g.Scalar("dropped_starts", "MMR starts ignored while busy")
	d.TransferTicks = g.Distribution("transfer_ticks", "ticks per transfer")
	return d
}

// Reset rewinds the DMA for a warm-started run after the owning
// EventQueue has been Reset: any in-flight transfer is abandoned (its
// completion callbacks died with the queue), the pacing state clears,
// and the MMRs zero. Stats survive, like every other component.
func (d *BlockDMA) Reset() {
	d.busy = false
	d.src, d.dst, d.remaining, d.issued = 0, 0, 0, 0
	d.outstanding, d.burst = 0, 0
	d.onDone = nil
	d.nextIssue = 0
	d.pumpScheduled = false
	d.pumpEv.Cancel() // stale-generation no-op that also forgets the arm
	d.startTick = 0
	d.MMR.Reset()
}

// AttachTimeline binds a transfer lane for the DMA engine. A nil
// recorder detaches.
func (d *BlockDMA) AttachTimeline(rec timeline.Recorder) {
	d.rec = rec
	if rec != nil {
		d.tlLane = rec.Lane(d.name, "transfer")
	}
}

// Name returns the DMA name.
func (d *BlockDMA) Name() string { return d.name }

// Busy reports whether a transfer is in flight.
func (d *BlockDMA) Busy() bool { return d.busy }

// Transfer starts a transfer programmatically; onDone fires at completion.
func (d *BlockDMA) Transfer(src, dst, n uint64, burst int, onDone func()) {
	if d.busy {
		panic("mem: DMA " + d.name + " started while busy")
	}
	d.start(src, dst, n, burst, onDone)
}

func (d *BlockDMA) start(src, dst, n uint64, burst int, onDone func()) {
	if burst <= 0 {
		burst = 64
	}
	d.busy = true
	d.src, d.dst, d.remaining, d.issued = src, dst, n, 0
	d.burst = burst
	d.onDone = onDone
	d.outstanding = 0
	d.startTick = d.q.Now()
	d.MMR.SetReg(DMARegStatus, 1) // busy
	if n == 0 {
		d.finish()
		return
	}
	d.pump()
}

// pump issues read bursts up to the outstanding limit, paced to the
// channel width: a new burst may not issue before the previous burst's
// beats have streamed out, regardless of which completion re-triggered it.
func (d *BlockDMA) pump() {
	for d.outstanding < d.MaxOutstanding && d.issued < d.remaining {
		now := d.q.Now()
		if now < d.nextIssue {
			if !d.pumpScheduled {
				d.pumpScheduled = true
				d.pumpEv.ScheduleAt(d.nextIssue)
			}
			return
		}
		off := d.issued
		size := uint64(d.burst)
		if d.remaining-off < size {
			size = d.remaining - off
		}
		d.issued += size
		d.outstanding++
		bpc := d.BytesPerCycle
		if bpc <= 0 {
			bpc = 16
		}
		beats := (int(size) + bpc - 1) / bpc
		d.nextIssue = now + d.clk.CyclesToTicks(uint64(beats))
		if d.rec != nil {
			d.rec.Instant(d.tlLane, uint64(now), "burst")
		}
		rd := NewRead(d.src+off, int(size), func(r *Request) {
			// Read burst arrived; write it to the destination.
			wr := NewWrite(d.dst+off, r.Data, func(*Request) {
				d.outstanding--
				d.BytesMoved.Inc(float64(size))
				if d.issued >= d.remaining && d.outstanding == 0 {
					d.finish()
				} else {
					d.pump()
				}
			})
			d.port.Send(wr)
		})
		d.port.Send(rd)
	}
}

func (d *BlockDMA) finish() {
	d.busy = false
	d.Transfers.Inc(1)
	d.TransferTicks.Sample(float64(d.q.Now() - d.startTick))
	if d.rec != nil {
		d.rec.Slice(d.tlLane, uint64(d.startTick), uint64(d.q.Now()-d.startTick), "dma")
	}
	d.MMR.SetReg(DMARegStatus, 2) // done
	if d.MMR.Reg(DMARegCtrl)&2 != 0 && d.IRQ != nil {
		d.IRQ()
	}
	if d.onDone != nil {
		fn := d.onDone
		d.onDone = nil
		fn()
	}
}

// StreamDMA streams a memory region into a StreamBuffer (read mode) or
// drains a StreamBuffer into memory (write mode) in burst-sized chunks —
// the paper's stream DMA devices feeding AXI-Stream-style links.
type StreamDMA struct {
	q    *sim.EventQueue
	clk  *sim.ClockDomain
	name string
	port Port
	buf  *StreamBuffer

	Burst int
	IRQ   func()

	BytesMoved *sim.Scalar
	Transfers  *sim.Scalar

	busy      bool
	startTick sim.Tick
	rec       timeline.Recorder
	tlLane    timeline.LaneID
}

// NewStreamDMA creates a stream DMA bridging port and buf.
func NewStreamDMA(name string, q *sim.EventQueue, clk *sim.ClockDomain,
	port Port, buf *StreamBuffer, stats *sim.Group) *StreamDMA {
	s := &StreamDMA{q: q, clk: clk, name: name, port: port, buf: buf, Burst: 64}
	g := stats.Child(name)
	s.BytesMoved = g.Scalar("bytes", "bytes streamed")
	s.Transfers = g.Scalar("transfers", "completed stream transfers")
	return s
}

// Name returns the stream DMA name.
func (s *StreamDMA) Name() string { return s.name }

// Busy reports whether a stream transfer is in flight.
func (s *StreamDMA) Busy() bool { return s.busy }

// Reset rewinds the stream DMA for a warm-started run: an abandoned
// transfer's step closures died with the event queue (and its buffer
// wakeups with StreamBuffer.Reset), so only the busy latch remains.
func (s *StreamDMA) Reset() { s.busy = false }

// AttachTimeline binds a transfer lane for the stream DMA. A nil
// recorder detaches.
func (s *StreamDMA) AttachTimeline(rec timeline.Recorder) {
	s.rec = rec
	if rec != nil {
		s.tlLane = rec.Lane(s.name, "transfer")
	}
}

// endTransfer closes out a completed stream transfer.
func (s *StreamDMA) endTransfer(label string, onDone func()) {
	s.busy = false
	s.Transfers.Inc(1)
	if s.rec != nil {
		s.rec.Slice(s.tlLane, uint64(s.startTick), uint64(s.q.Now()-s.startTick), label)
	}
	if s.IRQ != nil {
		s.IRQ()
	}
	if onDone != nil {
		onDone()
	}
}

// StreamIn reads [src, src+n) from memory into the stream buffer.
func (s *StreamDMA) StreamIn(src, n uint64, onDone func()) {
	if s.busy {
		panic("mem: stream DMA " + s.name + " started while busy")
	}
	s.busy = true
	s.startTick = s.q.Now()
	var off uint64
	var step func()
	step = func() {
		if off >= n {
			s.endTransfer("stream-in", onDone)
			return
		}
		size := uint64(s.Burst)
		if n-off < size {
			size = n - off
		}
		rd := NewRead(src+off, int(size), func(r *Request) {
			var tryPush func()
			tryPush = func() {
				if s.buf.Push(r.Data) {
					s.BytesMoved.Inc(float64(size))
					off += size
					// Pace at one burst per buffer-clock cycle.
					s.q.Schedule(s.q.Now()+s.clk.Period(), sim.PriDefault, step)
					return
				}
				s.buf.NotifySpace(tryPush)
			}
			tryPush()
		})
		s.port.Send(rd)
	}
	step()
}

// StreamOut drains n bytes from the buffer into [dst, dst+n).
func (s *StreamDMA) StreamOut(dst, n uint64, onDone func()) {
	if s.busy {
		panic("mem: stream DMA " + s.name + " started while busy")
	}
	s.busy = true
	s.startTick = s.q.Now()
	var off uint64
	var step func()
	step = func() {
		if off >= n {
			s.endTransfer("stream-out", onDone)
			return
		}
		size := uint64(s.Burst)
		if n-off < size {
			size = n - off
		}
		var tryPop func()
		tryPop = func() {
			data, ok := s.buf.Pop(int(size))
			if !ok {
				s.buf.NotifyData(tryPop)
				return
			}
			wr := NewWrite(dst+off, data, func(*Request) {
				s.BytesMoved.Inc(float64(size))
				off += size
				s.q.Schedule(s.q.Now()+s.clk.Period(), sim.PriDefault, step)
			})
			s.port.Send(wr)
		}
		tryPop()
	}
	step()
}
