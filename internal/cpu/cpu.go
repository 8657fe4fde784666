// Package cpu models the host side of an accelerator-rich SoC: a timing
// CPU that executes driver programs (MMR pokes, polling, memcpy/dmacpy,
// IRQ waits) and a GIC-like interrupt controller. It stands in for the ARM
// host + bare-metal drivers of the paper's full-system runs: what matters
// to the experiments is the control and synchronization overhead the host
// contributes (Fig. 16), which these models exercise.
package cpu

import (
	"encoding/binary"
	"fmt"

	"gosalam/internal/mem"
	"gosalam/internal/sim"
	"gosalam/internal/timeline"
)

// GIC is a minimal interrupt controller: devices raise numbered lines;
// hosts wait on them. Raised lines stay pending until consumed.
type GIC struct {
	pending map[int]int
	waiters map[int][]func()
	Raised  *sim.Scalar
}

// NewGIC creates an interrupt controller.
func NewGIC(stats *sim.Group) *GIC {
	g := &GIC{pending: map[int]int{}, waiters: map[int][]func(){}}
	g.Raised = stats.Child("gic").Scalar("irqs", "interrupts raised")
	return g
}

// Raise asserts line n, waking one waiter or latching if none waits.
func (g *GIC) Raise(n int) {
	g.Raised.Inc(1)
	if ws := g.waiters[n]; len(ws) > 0 {
		fn := ws[0]
		g.waiters[n] = ws[1:]
		fn()
		return
	}
	g.pending[n]++
}

// Wait invokes fn when line n fires (immediately if already pending).
func (g *GIC) Wait(n int, fn func()) {
	if g.pending[n] > 0 {
		g.pending[n]--
		fn()
		return
	}
	g.waiters[n] = append(g.waiters[n], fn)
}

// Line returns a closure that raises line n — handed to devices as their
// IRQ callback.
func (g *GIC) Line(n int) func() {
	return func() { g.Raise(n) }
}

// Name returns the controller's fixed name.
func (g *GIC) Name() string { return "gic" }

// Reset rewinds the controller for a warm-started run: latched pending
// lines and registered waiters from an abandoned program are forgotten.
func (g *GIC) Reset() {
	clear(g.pending)
	clear(g.waiters)
}

// AttachTimeline is a no-op: the controller has no lanes.
func (g *GIC) AttachTimeline(timeline.Recorder) {}

// Busy reports whether any line is latched or awaited; neither is
// captured in snapshots.
func (g *GIC) Busy() bool {
	for _, n := range g.pending {
		if n > 0 {
			return true
		}
	}
	for _, ws := range g.waiters {
		if len(ws) > 0 {
			return true
		}
	}
	return false
}

// Op is one step of a driver program. Ops run strictly in order; each op
// calls done exactly once (possibly after waiting on the memory system or
// an interrupt).
type Op interface {
	Run(h *Host, done func())
	String() string
}

// Host executes a driver program against the system bus. It models a
// simple in-order core: each op has a fixed issue cost plus whatever the
// memory system adds.
type Host struct {
	q    *sim.EventQueue
	clk  *sim.ClockDomain
	name string
	// Bus is where the host's loads/stores go (usually the global xbar).
	Bus mem.Port
	// GIC handles WaitIRQ ops.
	GIC *GIC
	// OpCost is the fixed per-op pipeline cost in cycles.
	OpCost int

	running bool

	Ops       *sim.Scalar
	BusReads  *sim.Scalar
	BusWrites *sim.Scalar
	Finished  *sim.Scalar
}

// NewHost creates a host CPU.
func NewHost(name string, q *sim.EventQueue, clk *sim.ClockDomain,
	bus mem.Port, gic *GIC, stats *sim.Group) *Host {
	h := &Host{q: q, clk: clk, name: name, Bus: bus, GIC: gic, OpCost: 1}
	g := stats.Child(name)
	h.Ops = g.Scalar("ops", "driver ops executed")
	h.BusReads = g.Scalar("bus_reads", "bus read transactions")
	h.BusWrites = g.Scalar("bus_writes", "bus write transactions")
	h.Finished = g.Scalar("programs", "driver programs completed")
	return h
}

// Clk exposes the host clock.
func (h *Host) Clk() *sim.ClockDomain { return h.clk }

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// Busy reports whether a driver program is executing. Its progress lives
// in closures no snapshot can capture, so a busy host blocks checkpoints.
func (h *Host) Busy() bool { return h.running }

// Reset rewinds the host for a warm-started run: an abandoned program's
// step closures died with the event queue, so only the running latch
// remains to clear.
func (h *Host) Reset() { h.running = false }

// AttachTimeline is a no-op: the host has no lanes.
func (h *Host) AttachTimeline(timeline.Recorder) {}

// Run executes a driver program; onDone fires after the last op.
func (h *Host) Run(prog []Op, onDone func()) {
	if h.running {
		panic("cpu: host " + h.name + " already running a program")
	}
	h.running = true
	i := 0
	var step func()
	step = func() {
		if i >= len(prog) {
			h.running = false
			h.Finished.Inc(1)
			if onDone != nil {
				onDone()
			}
			return
		}
		op := prog[i]
		i++
		h.Ops.Inc(1)
		cost := h.clk.CyclesToTicks(uint64(h.OpCost))
		h.q.Schedule(h.q.Now()+cost, sim.PriDefault, func() {
			op.Run(h, step)
		})
	}
	step()
}

// write64 issues a bus write of a 64-bit value.
func (h *Host) write64(addr uint64, val uint64, done func()) {
	h.BusWrites.Inc(1)
	data := make([]byte, 8)
	binary.LittleEndian.PutUint64(data, val)
	h.Bus.Send(mem.NewWrite(addr, data, func(*mem.Request) { done() }))
}

// read64 issues a bus read of a 64-bit value.
func (h *Host) read64(addr uint64, done func(uint64)) {
	h.BusReads.Inc(1)
	h.Bus.Send(mem.NewRead(addr, 8, func(r *mem.Request) {
		done(binary.LittleEndian.Uint64(r.Data))
	}))
}

// --- Driver ops ---

// WriteReg writes a 64-bit value to a device register or memory word.
type WriteReg struct {
	Addr uint64
	Val  uint64
}

func (o WriteReg) Run(h *Host, done func()) { h.write64(o.Addr, o.Val, done) }
func (o WriteReg) String() string           { return fmt.Sprintf("write [%#x] = %#x", o.Addr, o.Val) }

// ReadReg reads a 64-bit value into *Into (may be nil to discard).
type ReadReg struct {
	Addr uint64
	Into *uint64
}

func (o ReadReg) Run(h *Host, done func()) {
	h.read64(o.Addr, func(v uint64) {
		if o.Into != nil {
			*o.Into = v
		}
		done()
	})
}
func (o ReadReg) String() string { return fmt.Sprintf("read [%#x]", o.Addr) }

// PollReg re-reads a register until (value & Mask) == Want — the paper's
// software polling of accelerator status registers.
type PollReg struct {
	Addr       uint64
	Mask, Want uint64
	// IntervalCycles between polls (default 20).
	IntervalCycles int
}

func (o PollReg) Run(h *Host, done func()) {
	iv := o.IntervalCycles
	if iv <= 0 {
		iv = 20
	}
	var poll func()
	poll = func() {
		h.read64(o.Addr, func(v uint64) {
			if v&o.Mask == o.Want {
				done()
				return
			}
			h.q.Schedule(h.q.Now()+h.clk.CyclesToTicks(uint64(iv)), sim.PriDefault, poll)
		})
	}
	poll()
}
func (o PollReg) String() string {
	return fmt.Sprintf("poll [%#x] & %#x == %#x", o.Addr, o.Mask, o.Want)
}

// WaitIRQ blocks until the interrupt line fires.
type WaitIRQ struct{ Line int }

func (o WaitIRQ) Run(h *Host, done func()) { h.GIC.Wait(o.Line, done) }
func (o WaitIRQ) String() string           { return fmt.Sprintf("wfi line %d", o.Line) }

// Memcpy copies N bytes through the host, word by word — the slow,
// CPU-driven data movement that DMA replaces.
type Memcpy struct {
	Dst, Src uint64
	N        uint64
}

func (o Memcpy) Run(h *Host, done func()) {
	var off uint64
	var step func()
	step = func() {
		if off >= o.N {
			done()
			return
		}
		size := uint64(8)
		if o.N-off < size {
			size = o.N - off
		}
		h.BusReads.Inc(1)
		h.Bus.Send(mem.NewRead(o.Src+off, int(size), func(r *mem.Request) {
			h.BusWrites.Inc(1)
			h.Bus.Send(mem.NewWrite(o.Dst+off, r.Data, func(*mem.Request) {
				off += size
				step()
			}))
		}))
	}
	step()
}
func (o Memcpy) String() string { return fmt.Sprintf("memcpy %#x <- %#x (%d)", o.Dst, o.Src, o.N) }

// Compute burns a fixed number of host cycles (software work).
type Compute struct{ Cycles uint64 }

func (o Compute) Run(h *Host, done func()) {
	h.q.Schedule(h.q.Now()+h.clk.CyclesToTicks(o.Cycles), sim.PriDefault, done)
}
func (o Compute) String() string { return fmt.Sprintf("compute %d cycles", o.Cycles) }

// Call runs an arbitrary simulation-side action; done must be called by fn.
type Call struct {
	Fn   func(h *Host, done func())
	Desc string
}

func (o Call) Run(h *Host, done func()) { o.Fn(h, done) }
func (o Call) String() string           { return "call " + o.Desc }

// StartAccel programs an accelerator's argument MMRs and sets the start
// (and optionally IRQ-enable) bit — the generated device-driver prologue.
func StartAccel(mmrBase uint64, args []uint64, irqEnable bool) []Op {
	ops := make([]Op, 0, len(args)+1)
	for i, a := range args {
		ops = append(ops, WriteReg{Addr: mmrBase + uint64(16+8*i), Val: a})
	}
	ctrl := uint64(1)
	if irqEnable {
		ctrl |= 2
	}
	ops = append(ops, WriteReg{Addr: mmrBase, Val: ctrl})
	return ops
}

// StartDMA programs a block DMA through its MMRs.
func StartDMA(mmrBase uint64, src, dst, n uint64, burst int, irqEnable bool) []Op {
	ctrl := uint64(1)
	if irqEnable {
		ctrl |= 2
	}
	return []Op{
		WriteReg{Addr: mmrBase + 8*mem.DMARegSrc, Val: src},
		WriteReg{Addr: mmrBase + 8*mem.DMARegDst, Val: dst},
		WriteReg{Addr: mmrBase + 8*mem.DMARegLen, Val: n},
		WriteReg{Addr: mmrBase + 8*mem.DMARegBurst, Val: uint64(burst)},
		WriteReg{Addr: mmrBase + 8*mem.DMARegCtrl, Val: ctrl},
	}
}
