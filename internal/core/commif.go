package core

import (
	"fmt"
	"math"

	"gosalam/internal/mem"
	"gosalam/internal/sim"
)

// StreamDir is the direction of a stream window.
type StreamDir int

// Stream window directions.
const (
	StreamIn  StreamDir = iota // kernel loads pop from the buffer
	StreamOut                  // kernel stores push into the buffer
)

// streamWindow binds an address range seen by the kernel to a stream
// buffer. Accesses inside the window become FIFO pops/pushes with a full/
// empty handshake, modeling AXI-Stream ports (Fig. 16c): the address
// offset is ignored, accesses are consumed in program order.
type streamWindow struct {
	rng mem.AddrRange
	buf *mem.StreamBuffer
	dir StreamDir
}

// CommInterface is the paper's communications interface (Fig. 5): MMRs for
// control, up to two master memory ports (a local scratchpad port and a
// global port), stream windows, bounded read/write request queues with a
// configurable per-cycle issue width, and an interrupt line.
type CommInterface struct {
	q    *sim.EventQueue
	clk  *sim.ClockDomain
	name string

	// MMR is the control/status/argument register file. Layout:
	// reg0 = CTRL (bit0 start, bit1 IRQ enable), reg1 = STATUS (bit0 busy,
	// bit1 done), regs 2..2+nargs-1 = kernel arguments.
	MMR *mem.MMRBlock

	local   mem.Ranged // scratchpad port (may be nil)
	global  mem.Port   // cache/xbar port (may be nil)
	streams []streamWindow

	// ReadPorts and WritePorts bound memory issues per engine cycle — the
	// read/write-port knob swept in Figs. 14 and 15.
	ReadPorts  int
	WritePorts int
	// MaxOutstanding bounds in-flight requests per direction.
	MaxOutstanding int

	// IRQ, when set, is raised at kernel completion if CTRL bit1 is set.
	IRQ func()

	readsThisCycle  int
	writesThisCycle int
	outReads        int
	outWrites       int

	// tagOwner/tagID hold the snapshot owner tag for the next issued
	// request (TagNext); consumed by the next IssueRead/IssueWrite.
	tagOwner uint8
	tagID    uint64

	// reqPool recycles commReq wrappers (request + bound Done callback +
	// read buffer), so issuing memory traffic is allocation-free once the
	// pool is warm.
	reqPool []*commReq
	// streamPool does the same for stream-window completions.
	streamPool []*streamDone

	// Stats.
	LoadsIssued, StoresIssued   *sim.Scalar
	StreamPops, StreamPushes    *sim.Scalar
	StreamStalls                *sim.Scalar
	LocalAccesses, GlobalAccess *sim.Scalar
	LoadLatency                 *sim.Distribution
}

// CtrlReg and friends name the fixed MMR indices.
const (
	CtrlReg   = 0
	StatusReg = 1
	ArgReg0   = 2
)

// NewCommInterface builds a communications interface with nargs argument
// registers, MMRs based at mmrBase.
func NewCommInterface(name string, q *sim.EventQueue, clk *sim.ClockDomain,
	mmrBase uint64, nargs int, stats *sim.Group) *CommInterface {
	c := &CommInterface{
		q: q, clk: clk, name: name,
		ReadPorts: 2, WritePorts: 2, MaxOutstanding: 16,
	}
	c.MMR = mem.NewMMRBlock(name+".mmr", q, clk, mmrBase, ArgReg0+nargs, stats)
	g := stats.Child(name)
	c.LoadsIssued = g.Scalar("loads", "load requests issued")
	c.StoresIssued = g.Scalar("stores", "store requests issued")
	c.StreamPops = g.Scalar("stream_pops", "stream window pops")
	c.StreamPushes = g.Scalar("stream_pushes", "stream window pushes")
	c.StreamStalls = g.Scalar("stream_stalls", "stream handshake stalls")
	c.LocalAccesses = g.Scalar("local_accesses", "accesses via the SPM port")
	c.GlobalAccess = g.Scalar("global_accesses", "accesses via the global port")
	c.LoadLatency = g.Distribution("load_latency", "ticks from issue to data")
	return c
}

// Reset rewinds the interface for a warm-started run after the owning
// EventQueue has been Reset: per-cycle and outstanding counters return to
// zero and the MMRs clear. Requests that were in flight when a previous
// run was abandoned are forgotten — their completion events died with the
// queue reset (their pooled wrappers are not reclaimed, which only costs a
// fresh allocation later). Attached ports, stream windows, and the request
// pool survive.
func (c *CommInterface) Reset() {
	c.readsThisCycle, c.writesThisCycle = 0, 0
	c.outReads, c.outWrites = 0, 0
	c.tagOwner, c.tagID = 0, 0
	c.MMR.Reset()
}

// TagNext sets the snapshot owner tag stamped onto the next issued
// request, so a checkpoint can claim the request while it is in flight.
func (c *CommInterface) TagNext(owner uint8, id uint64) {
	c.tagOwner, c.tagID = owner, id
}

// takeTag consumes the pending owner tag.
func (c *CommInterface) takeTag() (uint8, uint64) {
	o, id := c.tagOwner, c.tagID
	c.tagOwner, c.tagID = 0, 0
	return o, id
}

// AttachLocal connects the scratchpad master port.
func (c *CommInterface) AttachLocal(p mem.Ranged) { c.local = p }

// AttachGlobal connects the global (cache/crossbar) master port.
func (c *CommInterface) AttachGlobal(p mem.Port) { c.global = p }

// AttachStream binds a stream buffer to an address window.
func (c *CommInterface) AttachStream(rng mem.AddrRange, buf *mem.StreamBuffer, dir StreamDir) {
	if len(c.streams) == math.MaxInt8 {
		panic(fmt.Sprintf("core: %s: more than %d stream windows", c.name, math.MaxInt8))
	}
	c.streams = append(c.streams, streamWindow{rng: rng, buf: buf, dir: dir})
}

// NewCycle resets the per-cycle port counters; the engine calls it at each
// clock edge.
func (c *CommInterface) NewCycle() {
	c.readsThisCycle = 0
	c.writesThisCycle = 0
}

// CanRead reports whether another read may issue this cycle.
func (c *CommInterface) CanRead() bool {
	return c.readsThisCycle < c.ReadPorts && c.outReads < c.MaxOutstanding
}

// CanWrite reports whether another write may issue this cycle.
func (c *CommInterface) CanWrite() bool {
	return c.writesThisCycle < c.WritePorts && c.outWrites < c.MaxOutstanding
}

// WindowIndex returns which stream window addr falls in (-1 for none).
// The engine uses it to keep same-window accesses in program order: FIFO
// pops and pushes must not reorder.
func (c *CommInterface) WindowIndex(addr uint64) int {
	for i := range c.streams {
		if c.streams[i].rng.Contains(addr, 1) {
			return i
		}
	}
	return -1
}

func (c *CommInterface) stream(addr uint64, size int) *streamWindow {
	for i := range c.streams {
		if c.streams[i].rng.Contains(addr, 1) {
			return &c.streams[i]
		}
	}
	return nil
}

func (c *CommInterface) route(addr uint64, size int) mem.Port {
	if c.local != nil && c.local.Range().Contains(addr, size) {
		c.LocalAccesses.Inc(1)
		return c.local
	}
	if c.global == nil {
		panic(fmt.Sprintf("core: %s: no port for address %#x", c.name, addr))
	}
	c.GlobalAccess.Inc(1)
	return c.global
}

// commReq is one pooled in-flight request. Its Done callbacks are bound
// once at allocation; a request returns to the pool when its engine
// callback has been delivered, which is the last reference any device
// holds (devices drop the request at completion scheduling).
type commReq struct {
	c           *CommInterface
	req         mem.Request
	start       sim.Tick
	rdone       func(data []byte)
	wdone       func()
	buf         [8]byte
	readDoneFn  func(*mem.Request)
	writeDoneFn func(*mem.Request)
}

func (c *CommInterface) allocReq() *commReq {
	if n := len(c.reqPool); n > 0 {
		cr := c.reqPool[n-1]
		c.reqPool = c.reqPool[:n-1]
		return cr
	}
	cr := &commReq{c: c}
	cr.readDoneFn = func(r *mem.Request) {
		cc := cr.c
		cc.outReads--
		cc.LoadLatency.Sample(float64(cc.q.Now() - cr.start))
		done := cr.rdone
		cr.rdone = nil
		done(r.Data)
		cc.reqPool = append(cc.reqPool, cr)
	}
	cr.writeDoneFn = func(*mem.Request) {
		cc := cr.c
		cc.outWrites--
		done := cr.wdone
		cr.wdone = nil
		done()
		cc.reqPool = append(cc.reqPool, cr)
	}
	return cr
}

// streamDone is one pooled stream-window completion: a pop's data or a
// push's acknowledgement, delivered one clock after the handshake. It is
// scheduled as a sim.Firer and returns to the pool when it fires, so
// stream traffic is allocation-free once the pool is warm. It is not a
// mem.Request: a checkpoint cannot claim it, and is refused while one is
// pending.
type streamDone struct {
	c     *CommInterface
	rdone func(data []byte)
	wdone func()
	buf   [8]byte
	n     int
}

func (c *CommInterface) allocStreamDone() *streamDone {
	if n := len(c.streamPool); n > 0 {
		sd := c.streamPool[n-1]
		c.streamPool = c.streamPool[:n-1]
		return sd
	}
	return &streamDone{c: c}
}

// Fire delivers the completion and recycles the wrapper.
func (sd *streamDone) Fire() {
	if rdone := sd.rdone; rdone != nil {
		sd.rdone = nil
		rdone(sd.buf[:sd.n])
	} else {
		wdone := sd.wdone
		sd.wdone = nil
		wdone()
	}
	sd.c.streamPool = append(sd.c.streamPool, sd)
}

// IssueRead starts a read. It returns false when the access targets a
// stream window that is currently empty (the op must retry). done receives
// the data bits via the event queue.
func (c *CommInterface) IssueRead(addr uint64, size int, done func(data []byte)) bool {
	owner, ownerID := c.takeTag()
	if w := c.stream(addr, size); w != nil {
		if w.dir != StreamIn {
			panic(fmt.Sprintf("core: %s: load from output stream window %#x", c.name, addr))
		}
		sd := c.allocStreamDone()
		if !w.buf.PopInto(sd.buf[:size]) {
			c.streamPool = append(c.streamPool, sd)
			c.StreamStalls.Inc(1)
			return false
		}
		sd.rdone, sd.n = done, size
		c.StreamPops.Inc(1)
		c.readsThisCycle++
		c.q.ScheduleObj(c.q.Now()+c.clk.Period(), sim.PriMemResp, sd)
		return true
	}
	c.readsThisCycle++
	c.outReads++
	c.LoadsIssued.Inc(1)
	cr := c.allocReq()
	cr.start = c.q.Now()
	cr.rdone = done
	cr.req = mem.Request{Addr: addr, Size: size, Done: cr.readDoneFn, Owner: owner, OwnerID: ownerID}
	if size <= len(cr.buf) {
		cr.req.Data = cr.buf[:size] // response buffer; consumed inside done
	}
	c.route(addr, size).Send(&cr.req)
	return true
}

// IssueWrite starts a write. It returns false when the access targets a
// stream window that is currently full.
func (c *CommInterface) IssueWrite(addr uint64, data []byte, done func()) bool {
	owner, ownerID := c.takeTag()
	if w := c.stream(addr, len(data)); w != nil {
		if w.dir != StreamOut {
			panic(fmt.Sprintf("core: %s: store to input stream window %#x", c.name, addr))
		}
		if !w.buf.Push(data) {
			c.StreamStalls.Inc(1)
			return false
		}
		sd := c.allocStreamDone()
		sd.wdone = done
		c.StreamPushes.Inc(1)
		c.writesThisCycle++
		c.q.ScheduleObj(c.q.Now()+c.clk.Period(), sim.PriMemResp, sd)
		return true
	}
	c.writesThisCycle++
	c.outWrites++
	c.StoresIssued.Inc(1)
	cr := c.allocReq()
	cr.start = c.q.Now()
	cr.wdone = done
	cr.req = mem.Request{Addr: addr, Size: len(data), Write: true, Data: data, Done: cr.writeDoneFn, Owner: owner, OwnerID: ownerID}
	c.route(addr, len(data)).Send(&cr.req)
	return true
}

// OutstandingReads returns in-flight read count (for stall classification).
func (c *CommInterface) OutstandingReads() int { return c.outReads }

// OutstandingWrites returns in-flight write count.
func (c *CommInterface) OutstandingWrites() int { return c.outWrites }
