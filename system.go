package salam

import (
	"fmt"

	"gosalam/internal/core"
	"gosalam/internal/cpu"
	"gosalam/internal/hw"
	"gosalam/internal/mem"
	"gosalam/internal/sim"
	"gosalam/internal/snapshot"
	"gosalam/internal/timeline"
	"gosalam/ir"
)

// Driver-program building blocks, re-exported so SoC users need only this
// package. A driver program is a []DriverOp executed in order by the host.
type (
	// DriverOp is one host driver step.
	DriverOp = cpu.Op
	// WriteReg writes a 64-bit value to a bus address.
	WriteReg = cpu.WriteReg
	// ReadReg reads a 64-bit value from a bus address.
	ReadReg = cpu.ReadReg
	// PollReg polls a register until (value & Mask) == Want.
	PollReg = cpu.PollReg
	// WaitIRQ blocks on an interrupt line.
	WaitIRQ = cpu.WaitIRQ
	// Memcpy copies bytes through the host, word by word.
	Memcpy = cpu.Memcpy
	// HostCompute burns host cycles.
	HostCompute = cpu.Compute
)

// StartAccel builds the driver prologue that programs an accelerator's
// argument MMRs and sets its start (and optionally IRQ-enable) bit.
func StartAccel(mmrBase uint64, args []uint64, irqEnable bool) []DriverOp {
	return cpu.StartAccel(mmrBase, args, irqEnable)
}

// StartDMA builds the driver sequence that programs a block DMA.
func StartDMA(mmrBase uint64, src, dst, n uint64, burst int, irqEnable bool) []DriverOp {
	return cpu.StartDMA(mmrBase, src, dst, n, burst, irqEnable)
}

// component is the one contract every device of a system implements —
// scratchpads, caches, DRAM, crossbars, DMAs, stream buffers, accelerator
// nodes (engine + communications interface), the GIC and the host — so the
// system core can rewind, trace and checkpoint a system without knowing
// what it is made of.
type component interface {
	// Name identifies the device; it names the device's stats group and
	// its component in checkpoint images.
	Name() string
	// Reset rewinds per-run dynamic state after the event queue has been
	// Reset. Structural wiring (topology, address maps, IRQ lines) survives.
	Reset()
	// AttachTimeline binds the device's lanes to rec; nil detaches.
	AttachTimeline(rec timeline.Recorder)
	// Busy reports whether the device holds any dynamic state a Reset
	// would drop: queued or in-flight work, buffered data, latched lines,
	// registered wakeups. A checkpoint refuses a busy device that is not a
	// snapshotter, since restore could not bring that state back.
	Busy() bool
}

// snapshotter is the second tier of the contract, implemented by devices
// whose state persists across events: Capture records it (claiming the
// device's pending events), Restore lands it in a freshly Reset device,
// rebuilding queued requests through the resolver.
type snapshotter interface {
	component
	Capture() (snapshot.Component, error)
	Restore(*snapshot.Component, mem.Resolver) error
}

// requestOwner is the third tier: a snapshotter that creates memory
// requests declares the owner tag it stamps on them, and rebuilds one from
// its captured form — rebinding the completion callback to its restored
// state — wherever restore finds it: another device's queue or the event
// queue.
type requestOwner interface {
	snapshotter
	Owner() uint8
	RebuildRequest(snapshot.Req) (*mem.Request, error)
}

// system is the core both Session and SoC are built on: the event queue,
// physical memory, the statistics root, and the ordered registry of every
// device constructed into the system. Reset, timeline attachment,
// checkpoint and restore (snapshot.go) each exist once, as a walk over the
// registry.
type system struct {
	Q     *sim.EventQueue
	Space *ir.FlatMem
	Stats *sim.Group

	// comps lists every device in construction order (deterministic).
	comps []component
	// tl is the attached timeline recorder (nil = tracing off).
	tl timeline.Recorder
}

// register adds a freshly constructed device to the registry and returns
// it, so the constructor call is wrapped on the line that builds it.
// Registration is by identity — a stream buffer shared by a link and a
// stream DMA registers once — and binds an already-attached recorder, so
// construction order relative to setTimeline does not matter.
func register[T component](s *system, c T) T {
	for _, have := range s.comps {
		if have == component(c) {
			return c
		}
	}
	s.comps = append(s.comps, c)
	if s.tl != nil {
		c.AttachTimeline(s.tl)
	}
	return c
}

// reset rewinds the system for a warm-started run: the event queue, stats,
// backing store, and every registered device return to their cold state.
func (s *system) reset() {
	s.Q.Reset()
	s.Stats.Reset()
	s.Space.Reset()
	for _, c := range s.comps {
		c.Reset()
	}
}

// setTimeline attaches rec to the event queue and every registered device;
// nil detaches all lanes, restoring the untraced (allocation-free) paths.
func (s *system) setTimeline(rec timeline.Recorder) {
	s.tl = rec
	s.Q.AttachTimeline(rec)
	for _, c := range s.comps {
		c.AttachTimeline(rec)
	}
}

// SoC is a full system: host CPU, interrupt controller, global crossbar,
// DRAM, and any number of accelerators, DMAs, scratchpads and stream
// links — the Fig. 1 architecture. Components allocate MMR ranges and
// interrupt lines automatically. The embedded system core provides the
// event queue Q, the physical memory Space and the statistics root Stats.
type SoC struct {
	system

	SysClk *sim.ClockDomain
	AccClk float64 // accelerator clock MHz default

	Xbar *mem.Crossbar
	DRAM *mem.DRAM
	GIC  *cpu.GIC
	Host *cpu.Host

	nextMMR uint64
	nextSPM uint64
	spmEnd  uint64
	nextIRQ int
	nextWin uint64
}

// AccelNode bundles one accelerator with its system plumbing.
type AccelNode struct {
	Acc     *core.Accelerator
	Comm    *core.CommInterface
	SPM     *mem.Scratchpad
	MMRBase uint64
	IRQLine int
}

// NewSoC builds a system with dramMB of DRAM plus an 8 MB scratchpad
// arena, a 1.2 GHz host, and a 1 GHz system interconnect.
func NewSoC(dramMB int) *SoC { return NewSoCXbar(dramMB, 8) }

// NewSoCXbar is NewSoC with an explicit global-crossbar width
// (requests per cycle); declarative configs route through this.
func NewSoCXbar(dramMB, xbarWidth int) *SoC {
	dramBytes := uint64(dramMB) << 20
	spmArena := uint64(8) << 20
	s := &SoC{
		system: system{
			Q:     sim.NewEventQueue(),
			Space: ir.NewFlatMem(0, int(dramBytes+spmArena)),
			Stats: sim.NewGroup("soc"),
		},
		SysClk: sim.NewClockDomainMHz("sys", 1000),
		AccClk: 100,
	}
	s.nextSPM = dramBytes
	s.spmEnd = dramBytes + spmArena
	s.nextMMR = 0xF0000000
	s.nextWin = 0xE0000000

	s.Xbar = register(&s.system, mem.NewCrossbar("xbar", s.Q, s.SysClk, 1, orDefault(xbarWidth, 8), s.Stats))
	s.DRAM = register(&s.system, mem.NewDRAM("dram", s.Q, s.SysClk, s.Space,
		mem.AddrRange{Base: 0, Size: dramBytes}, s.Stats))
	s.Xbar.SetDefault(s.DRAM)
	s.GIC = register(&s.system, cpu.NewGIC(s.Stats))
	hostClk := sim.NewClockDomainMHz("host", 1200)
	s.Host = register(&s.system, cpu.NewHost("host", s.Q, hostClk, s.Xbar, s.GIC, s.Stats))
	return s
}

// SetTimeline attaches a timeline recorder to every component of the SoC
// — event queue, crossbar, DRAM, and all accelerators, scratchpads, DMAs
// and stream buffers added so far or later. A nil recorder detaches.
// Tracing is observer-effect-free: schedules, cycle counts and stats are
// byte-identical with it on or off. Attach a fresh recorder per run; lane
// registration is cumulative, so reusing one across SoC.Reset appends a
// second run to the same trace.
func (s *SoC) SetTimeline(rec timeline.Recorder) { s.setTimeline(rec) }

// Reset rewinds the SoC for a warm-started run: the event queue, stats,
// backing store, and every device return to their cold state while
// structural wiring (topology, address maps, IRQ lines) survives.
// Accelerators are re-armed with the configuration they were added with.
// After Reset the system replays a driver program byte-identically to a
// freshly built SoC.
func (s *SoC) Reset() { s.reset() }

// AllocSPMRange carves an address range from the scratchpad arena.
func (s *SoC) AllocSPMRange(bytes uint64) mem.AddrRange {
	base := (s.nextSPM + 63) &^ 63
	if base+bytes > s.spmEnd {
		panic("salam: scratchpad arena exhausted")
	}
	s.nextSPM = base + bytes
	return mem.AddrRange{Base: base, Size: bytes}
}

// AddSPM creates a scratchpad in the arena, reachable from the crossbar
// (for DMA/host staging) and attachable as accelerator local memory.
func (s *SoC) AddSPM(name string, bytes uint64, latency, banks, ports int) *mem.Scratchpad {
	accClk := sim.NewClockDomainMHz(name+".clk", s.AccClk)
	spm := register(&s.system, mem.NewScratchpad(name, s.Q, accClk, s.Space,
		s.AllocSPMRange(bytes), latency, banks, ports, s.Stats))
	s.Xbar.Attach(spm)
	return spm
}

// AddBlockDMA creates a DMA whose MMRs are host-visible and whose
// transfers flow through the global crossbar. The engine is clocked at
// 200 MHz with a 4-byte effective channel (~0.8 GB/s, including descriptor overheads), the regime of a ZCU102
// data mover; adjust BlockDMA.BytesPerCycle to retune.
func (s *SoC) AddBlockDMA(name string) (*mem.BlockDMA, int) {
	dmaClk := sim.NewClockDomainMHz(name+".clk", 200)
	dma := register(&s.system, mem.NewBlockDMA(name, s.Q, dmaClk, s.allocMMR(mem.DMANumRegs), s.Xbar, s.Stats))
	dma.BytesPerCycle = 4
	s.Xbar.Attach(dma.MMR)
	line := s.allocIRQ()
	dma.IRQ = s.GIC.Line(line)
	return dma, line
}

// AddStreamDMA creates a stream DMA bridging the crossbar and buf (which
// joins the system here unless a StreamLink already registered it).
func (s *SoC) AddStreamDMA(name string, buf *mem.StreamBuffer) (*mem.StreamDMA, int) {
	sd := register(&s.system, mem.NewStreamDMA(name, s.Q, s.SysClk, s.Xbar, buf, s.Stats))
	register(&s.system, buf)
	line := s.allocIRQ()
	sd.IRQ = s.GIC.Line(line)
	return sd, line
}

// AccelOpts controls AddAccel.
type AccelOpts struct {
	Cfg AccelConfig
	// Profile defaults to Default40nm.
	Profile *hw.Profile
	// SPMBytes creates a private scratchpad of this size (0 = none).
	SPMBytes uint64
	// SharedSPM attaches an existing scratchpad as local memory instead.
	SharedSPM *mem.Scratchpad
	// SPMLatency/Banks/Ports configure the private SPM.
	SPMLatency, SPMBanks, SPMPorts int
	// Global grants a global-crossbar port (for DRAM/cache access).
	Global bool
}

// AddAccel instantiates an accelerator for kernel function f.
func (s *SoC) AddAccel(name string, f *ir.Function, o AccelOpts) (*AccelNode, error) {
	profile := o.Profile
	if profile == nil {
		profile = defaultProfile
	}
	if o.Cfg.ClockMHz == 0 {
		o.Cfg = core.DefaultConfig()
	}
	g, err := core.SharedElab.Elaborate(f, profile, o.Cfg.FULimits)
	if err != nil {
		return nil, err
	}
	mmrBase := s.allocMMR(2 + len(f.Params))
	comm := core.NewCommInterface(name+".comm", s.Q, s.SysClk, mmrBase, len(f.Params), s.Stats)
	s.Xbar.Attach(comm.MMR)

	node := &AccelNode{Comm: comm, MMRBase: mmrBase}
	switch {
	case o.SharedSPM != nil:
		comm.AttachLocal(o.SharedSPM)
		node.SPM = o.SharedSPM
	case o.SPMBytes > 0:
		node.SPM = s.AddSPM(name+".spm", o.SPMBytes,
			orDefault(o.SPMLatency, 2), orDefault(o.SPMBanks, 4), orDefault(o.SPMPorts, 2))
		comm.AttachLocal(node.SPM)
	}
	if o.Global || node.SPM == nil {
		comm.AttachGlobal(s.Xbar)
	}

	node.IRQLine = s.allocIRQ()
	comm.IRQ = s.GIC.Line(node.IRQLine)
	node.Acc = register(&s.system, core.NewAccelerator(name, s.Q, g, o.Cfg, comm, s.Stats))
	return node, nil
}

// StreamLink wires producer stores to consumer loads through a bounded
// FIFO — the AXI-Stream-style direct connection of Fig. 16(c). It returns
// the window addresses the two kernels should use as their buffer
// pointers.
func (s *SoC) StreamLink(name string, producer, consumer *AccelNode, bufBytes int) (outWin, inWin uint64) {
	buf := register(&s.system, mem.NewStreamBuffer(name, s.Q, bufBytes, s.Stats))
	out := mem.AddrRange{Base: s.nextWin, Size: 1 << 20}
	s.nextWin += 1 << 20
	in := mem.AddrRange{Base: s.nextWin, Size: 1 << 20}
	s.nextWin += 1 << 20
	producer.Comm.AttachStream(out, buf, core.StreamOut)
	consumer.Comm.AttachStream(in, buf, core.StreamIn)
	return out.Base, in.Base
}

// StreamWindow allocates a window bound to an existing buffer on one
// accelerator (for DMA-fed streams); the buffer joins the system here
// unless a stream DMA already registered it.
func (s *SoC) StreamWindow(node *AccelNode, buf *mem.StreamBuffer, dir core.StreamDir) uint64 {
	register(&s.system, buf)
	w := mem.AddrRange{Base: s.nextWin, Size: 1 << 20}
	s.nextWin += 1 << 20
	node.Comm.AttachStream(w, buf, dir)
	return w.Base
}

// orDefault is the one "zero means default" rule for optional knobs.
func orDefault(v, d int) int {
	if v > 0 {
		return v
	}
	return d
}

func (s *SoC) allocMMR(regs int) uint64 {
	base := s.nextMMR
	s.nextMMR += uint64(regs*8+0xff) &^ 0xff
	return base
}

func (s *SoC) allocIRQ() int {
	n := s.nextIRQ
	s.nextIRQ++
	return n
}

// Run drains the event queue.
func (s *SoC) Run() sim.Tick { return s.Q.Run() }

// RunHost executes a driver program on the host and runs the simulation
// until it completes.
func (s *SoC) RunHost(prog []cpu.Op) (sim.Tick, error) {
	done := false
	s.Host.Run(prog, func() { done = true })
	s.Q.RunWhile(func() bool { return !done })
	if !done {
		return s.Q.Now(), fmt.Errorf("salam: host program did not complete (deadlock?)")
	}
	return s.Q.Now(), nil
}

// Now returns current simulated time.
func (s *SoC) Now() sim.Tick { return s.Q.Now() }

// Stamp returns a driver op that records the current time into *t.
func Stamp(s *SoC, t *sim.Tick) cpu.Op {
	return cpu.Call{Desc: "stamp", Fn: func(h *cpu.Host, done func()) {
		*t = s.Q.Now()
		done()
	}}
}
