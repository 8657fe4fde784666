package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"gosalam/internal/hw"
	"gosalam/internal/sim"
	"gosalam/internal/snapshot"
	"gosalam/internal/timeline"
	"gosalam/ir"
)

// AccelConfig are the "device config" knobs of Sec. III-E1.
type AccelConfig struct {
	// ClockMHz is the accelerator clock (independent of system clocks).
	ClockMHz float64
	// FULimits constrains functional units per class; absent/0 means a
	// dedicated unit per static instruction (the default 1-to-1 map).
	FULimits map[hw.FUClass]int
	// ReadPorts/WritePorts bound memory issues per cycle.
	ReadPorts, WritePorts int
	// MaxOutstanding bounds in-flight memory requests per direction.
	MaxOutstanding int
	// ResQueueSize caps resident dynamic ops in the reservation queue.
	ResQueueSize int
	// PipelineLoops fetches the next basic block as soon as the
	// terminator evaluates (loop pipelining). When false, a block must
	// fully drain first — the ablation of design decision 3 in DESIGN.md.
	PipelineLoops bool
	// ConservativeMemOrder disables address-based dynamic disambiguation:
	// memory ops issue strictly in program order (ablation 5).
	ConservativeMemOrder bool
}

// DefaultConfig returns the paper-default accelerator configuration.
func DefaultConfig() AccelConfig {
	return AccelConfig{
		ClockMHz:       100,
		ReadPorts:      2,
		WritePorts:     2,
		MaxOutstanding: 16,
		ResQueueSize:   128,
		PipelineLoops:  true,
	}
}

// Normalized returns the config with unset sizing knobs replaced by their
// defaults, so cold construction, warm reconfiguration, and the static
// analyzer (which must bound the same effective design point the engine
// will run) agree on the knob values.
func (c AccelConfig) Normalized() AccelConfig {
	if c.ResQueueSize <= 0 {
		c.ResQueueSize = 128
	}
	if c.ReadPorts <= 0 {
		c.ReadPorts = 1
	}
	if c.WritePorts <= 0 {
		c.WritePorts = 1
	}
	if c.MaxOutstanding <= 0 {
		c.MaxOutstanding = 16
	}
	return c
}

type opState uint8

const (
	stWaiting opState = iota
	stInflight
	stDone
)

// waiter records a consumer operand slot fed by a producer.
type waiter struct {
	op  *dynOp
	idx int
}

// dynOp is a dynamic instance of a static op, created when its basic block
// is imported into the reservation queue. Objects are recycled through the
// accelerator's pool, and their completion callbacks are bound once per
// object, so steady-state fetch/issue/commit never allocates.
type dynOp struct {
	st  *StaticOp
	seq uint64

	operands []uint64
	// pending marks operand slots still awaiting a producer: a store's
	// address can disambiguate as soon as its pointer operand resolves,
	// even while its data operand is pending.
	pending   []bool
	waitingOn int
	waiters   []waiter
	val       uint64

	// state, arrived, win and qi share one word, which keeps dynOp in the
	// 192-byte allocation size class.
	state   opState
	arrived bool // memory response received, committing at next edge
	// win caches the stream window of a memory op's address (-1 for none;
	// winUnknown until first use, which needs the address resolved).
	win int8
	// qi is the op's current index in resQ, kept up to date through
	// compaction: it is the op's position in the ready and arrived sets.
	qi int32

	// Memory fields.
	addr uint64
	size int
	// buf stages outbound store data; the memory system consumes it before
	// completion, and the op is not recycled until it commits.
	buf [8]byte

	// arriveFn marks a store arrived; readDoneFn additionally captures load
	// data. Both close over the op once, at first allocation.
	arriveFn   func()
	readDoneFn func([]byte)

	// due is the cycle an in-flight compute op commits at (issue cycle plus
	// latency); nextDue links the ops that share its due-wheel slot.
	due     uint64
	nextDue *dynOp

	// ordBlk and ordSeq memoize memOrderOK: every older access below
	// sequence number ordSeq was last seen not to block this op, and
	// ordBlk, unless nil or since recycled (its seq no longer ordSeq), is
	// the access at ordSeq that did. Cleared at fetch and Restore; never
	// serialized.
	ordBlk *dynOp
	ordSeq uint64
}

// winUnknown marks a dynOp whose stream window is not yet computed.
const winUnknown int8 = -2

func (d *dynOp) isLoad() bool  { return d.st.Load }
func (d *dynOp) isStore() bool { return d.st.Store }

// defRec tracks the newest definition of a static SSA value: either a
// committed bit pattern or the dynamic op that will produce it. live
// guards against reading a register never written this invocation.
type defRec struct {
	val      uint64
	producer *dynOp
	live     bool
}

// qset is a set of reservation-queue indices, one bit per resQ slot.
type qset []uint64

func (s qset) set(i int32)   { s[i>>6] |= 1 << (i & 63) }
func (s qset) clear(i int32) { s[i>>6] &^= 1 << (i & 63) }

// next returns the smallest member at or above from, or -1. It reads the
// set as it is now, so a walk sees members added above its position.
func (s qset) next(from int) int {
	w := from >> 6
	if w >= len(s) {
		return -1
	}
	word := s[w] &^ (1<<(from&63) - 1)
	for word == 0 {
		if w++; w == len(s) {
			return -1
		}
		word = s[w]
	}
	return w<<6 + bits.TrailingZeros64(word)
}

// Accelerator is one modeled hardware accelerator: a statically elaborated
// CDFG executed by the dynamic LLVM runtime engine, attached to the system
// through a communications interface.
type Accelerator struct {
	sim.Clocked

	CDFG *CDFG
	Cfg  AccelConfig
	Comm *CommInterface

	// OnDone fires when the kernel returns and all queues drain.
	OnDone func()

	// engine state
	resQ []*dynOp
	// pendingMem holds unfinished memory ops in program order, so
	// disambiguation scans only memory traffic instead of the whole
	// reservation queue.
	pendingMem []*dynOp
	// lastDef is indexed by producer StaticOp.ID.
	lastDef  []defRec
	opPool   []*dynOp
	seq      uint64
	inflight int
	argBits  []uint64
	// ready holds the resQ indices of waiting ops whose operands have all
	// resolved; arrived those of in-flight ops whose result is in and which
	// commit at the next edge. The tick visits set members only. Both are
	// maintained at the transitions — fetch, wake, issue, commit, completion
	// callback, compaction — and are never serialized.
	ready, arrived qset
	// wheel threads in-flight compute ops by due cycle: slot due&(len-1),
	// a power of two above the CDFG's longest latency, so the slot a cycle
	// drains holds exactly the ops due that cycle.
	wheel []*dynOp
	// resident counts non-committed resQ entries (the window-check scan
	// in handleTerminator reduced to a counter).
	resident int
	// Incremental cycle-classification counters: resident entries by kind
	// and memory ops in flight, maintained at state transitions so
	// recordCycleStats never rescans the reservation queue.
	pendLoads, pendStores, pendComp int
	inflLoads, inflStores           int
	// zeroLatProgress is set when a zero-latency commit or block fetch
	// happens inside the issue scan: only those events can unlock earlier
	// queue entries within the same cycle.
	zeroLatProgress bool
	// Per-cycle structural-hazard flags: a ready op failed to issue
	// because of read ports, write ports, FU pools, or memory ordering.
	hazLoad, hazStore, hazFU, hazOrder bool
	// profile, when non-nil, receives a per-cycle sample (EnableProfile).
	profile *CycleProfile
	// Per-cycle issue counters for the profile.
	cycLoads, cycStores, cycFP, cycInt, cycOther uint16
	// rec, when non-nil, receives one stall-attributed Cycle per edge plus
	// busy slices per FU class and memory port (AttachTimeline). The
	// recorder only observes; the sole engine state feeding it —
	// fetchBlocked, set when a terminator could not fetch its next block —
	// is maintained unconditionally like the haz flags, so the schedule is
	// identical whether a recorder is attached or not.
	rec             timeline.Recorder
	tlCycle         timeline.LaneID
	tlLoad, tlStore timeline.LaneID
	tlFU            []timeline.LaneID
	fetchBlocked    bool

	finished bool
	running  bool
	retBits  uint64

	// Per-class counters indexed by hw.FUClass. opStamp implements the
	// per-static-op II=1 rule: a stamp equal to cycleStamp means the op
	// already initiated this cycle (no per-cycle map clears).
	fuBusy     []int // unpipelined units occupied
	fuIssued   []int // issue slots used this cycle
	fuTotal    []int // instantiated units (from CDFG.FUTotal)
	fuPiped    []bool
	opStamp    []uint64
	cycleStamp uint64
	fetches    int // block fetches this cycle

	startCycle uint64

	// Pre-bound stat buckets, lazily resolved at first increment so key
	// insertion order matches the string-keyed code this replaces.
	issuedBk       []sim.Bucket // per FU class
	issuedLoadBk   sim.Bucket
	issuedStoreBk  sim.Bucket
	occBk          []sim.Bucket // per FU class
	stallBk, actBk [8]sim.Bucket
	hazBk          [16]sim.Bucket

	// Stats.
	ActiveCycles  *sim.Scalar
	IssuedByClass *sim.Vector
	Committed     *sim.Scalar
	NewExecCycles *sim.Scalar
	StallCycles   *sim.Scalar
	StallKinds    *sim.Vector
	// HazardCycles counts cycles where at least one ready operation was
	// blocked by a structural hazard (even if other ops issued) — the
	// per-source stall accounting behind Fig. 14(b).
	HazardCycles *sim.Scalar
	HazardKinds  *sim.Vector
	Activity     *sim.Vector
	OccupancySum *sim.Vector
	FUEnergyPJ   *sim.Scalar
	RegReadPJ    *sim.Scalar
	RegWritePJ   *sim.Scalar
	Invocations  *sim.Scalar
	KernelCycles *sim.Distribution
}

// NewAccelerator builds an accelerator around an elaborated CDFG. The
// communications interface must already be constructed; its port counts
// are overridden from cfg. The engine starts out as Retune(g, cfg)
// followed by Reset leave it.
func NewAccelerator(name string, q *sim.EventQueue, g *CDFG, cfg AccelConfig,
	comm *CommInterface, stats *sim.Group) *Accelerator {
	nc := hw.NumFUClasses()
	a := &Accelerator{
		Comm:     comm,
		fuBusy:   make([]int, nc),
		fuIssued: make([]int, nc),
		fuTotal:  make([]int, nc),
		fuPiped:  make([]bool, nc),
		issuedBk: make([]sim.Bucket, nc),
		occBk:    make([]sim.Bucket, nc),
	}
	a.InitClocked(name, q, nil)
	a.CycleFn = a.cycle
	a.Retune(g, cfg)
	a.Reset()

	gr := stats.Child(name)
	a.ActiveCycles = gr.Scalar("cycles", "active engine cycles")
	a.IssuedByClass = gr.Vector("issued", "ops issued by FU class")
	a.Committed = gr.Scalar("committed", "dynamic ops committed")
	a.NewExecCycles = gr.Scalar("exec_cycles", "cycles issuing at least one op")
	a.StallCycles = gr.Scalar("stall_cycles", "cycles with work but no issue")
	a.StallKinds = gr.Vector("stall_kinds", "stalled cycles by pending-op mix")
	a.HazardCycles = gr.Scalar("hazard_cycles", "cycles with a ready op blocked by a structural hazard")
	a.HazardKinds = gr.Vector("hazard_kinds", "hazard cycles by blocking resource")
	a.Activity = gr.Vector("activity", "cycles by load/store/fp overlap")
	a.OccupancySum = gr.Vector("occupancy_sum", "in-flight op-cycles by class")
	a.FUEnergyPJ = gr.Scalar("fu_energy_pj", "dynamic FU energy")
	a.RegReadPJ = gr.Scalar("reg_read_pj", "register-file read energy")
	a.RegWritePJ = gr.Scalar("reg_write_pj", "register-file write energy")
	a.Invocations = gr.Scalar("invocations", "kernel invocations")
	a.KernelCycles = gr.Distribution("kernel_cycles", "cycles per invocation")

	// Wire the MMR start protocol: writing CTRL bit0 launches the kernel
	// with arguments taken from the argument registers. The closure reads
	// a.CDFG (not the constructor's g) so Retune can swap the graph.
	comm.MMR.OnWrite = func(idx int, val uint64) {
		if idx == CtrlReg && val&1 != 0 && !a.running {
			n := len(a.CDFG.F.Params)
			args := make([]uint64, n)
			for i := 0; i < n; i++ {
				args[i] = comm.MMR.Reg(ArgReg0 + i)
			}
			a.Start(args)
		}
	}
	return a
}

// Retune rebinds an idle accelerator to a (possibly different) shared
// immutable CDFG and design-point configuration. Like the memory devices'
// Retune it only sets knobs; the next Reset arms the engine for them.
func (a *Accelerator) Retune(g *CDFG, cfg AccelConfig) {
	if a.running {
		panic(fmt.Sprintf("core: accelerator %s retuned while busy", a.Name()))
	}
	cfg = cfg.Normalized()
	if a.Clk == nil || cfg.ClockMHz != a.Cfg.ClockMHz {
		a.Clk = sim.NewClockDomainMHz(a.Name()+".clk", cfg.ClockMHz)
	}
	a.CDFG, a.Cfg = g, cfg
	a.Comm.ReadPorts = cfg.ReadPorts
	a.Comm.WritePorts = cfg.WritePorts
	a.Comm.MaxOutstanding = cfg.MaxOutstanding
}

// Reset rewinds the whole accelerator node — communications interface and
// engine — for a warm-started run, arming the engine for the CDFG and
// configuration it currently holds. The caller must Reset the owning
// EventQueue and stats group around it; every piece of engine state
// returns to its just-constructed zero value — the per-static-op slices
// resized for the current graph, the dynOp pool kept — so a warm run is
// indistinguishable from a cold one. Timeline lanes survive while the CDFG
// does: same graph, same instantiated units. Panics if a kernel is still
// executing.
func (a *Accelerator) Reset() {
	if a.running {
		panic(fmt.Sprintf("core: accelerator %s reset while busy", a.Name()))
	}
	a.Comm.Reset()
	g := a.CDFG
	if cap(a.lastDef) < g.NumOps {
		a.lastDef = make([]defRec, g.NumOps)
		a.opStamp = make([]uint64, g.NumOps)
	}
	a.lastDef, a.opStamp = a.lastDef[:g.NumOps], a.opStamp[:g.NumOps]
	clear(a.lastDef)
	clear(a.opStamp)
	clear(a.fuTotal)
	clear(a.fuBusy)
	clear(a.fuIssued)
	for _, c := range hw.AllFUClasses() {
		a.fuTotal[c] = g.FUTotal[c]
		a.fuPiped[c] = g.Profile.Spec(c).Pipelined
	}
	if n := 1 << bits.Len(uint(g.MaxLatency)); cap(a.wheel) < n {
		a.wheel = make([]*dynOp, n)
	} else {
		a.wheel = a.wheel[:n]
	}
	clear(a.wheel)
	clear(a.ready)
	clear(a.arrived)
	a.resQ = a.resQ[:0]
	a.pendingMem = a.pendingMem[:0]
	a.seq, a.inflight, a.resident = 0, 0, 0
	a.pendLoads, a.pendStores, a.pendComp = 0, 0, 0
	a.inflLoads, a.inflStores = 0, 0
	a.zeroLatProgress = false
	a.hazLoad, a.hazStore, a.hazFU, a.hazOrder = false, false, false, false
	a.fetchBlocked = false
	a.profile = nil
	a.cycLoads, a.cycStores, a.cycFP, a.cycInt, a.cycOther = 0, 0, 0, 0, 0
	a.finished, a.running, a.retBits = false, false, 0
	a.cycleStamp, a.fetches, a.startCycle = 0, 0, 0
	a.ResetClocked()
}

// Busy reports whether a kernel is executing.
func (a *Accelerator) Busy() bool { return a.running }

// RetBits returns the bits of the last kernel return value.
func (a *Accelerator) RetBits() uint64 { return a.retBits }

// LastKernelCycles returns the cycle count of the most recent invocation.
func (a *Accelerator) LastKernelCycles() uint64 {
	return uint64(a.KernelCycles.Max())
}

// Start launches the kernel with the given argument bits.
func (a *Accelerator) Start(args []uint64) {
	if a.running {
		panic(fmt.Sprintf("core: accelerator %s started while busy", a.Name()))
	}
	f := a.CDFG.F
	if len(args) != len(f.Params) {
		panic(fmt.Sprintf("core: %s takes %d args, got %d", f.Name(), len(f.Params), len(args)))
	}
	a.running = true
	a.finished = false
	a.resQ = a.resQ[:0]
	a.pendingMem = a.pendingMem[:0]
	a.inflight, a.resident = 0, 0
	a.pendLoads, a.pendStores, a.pendComp = 0, 0, 0
	a.inflLoads, a.inflStores = 0, 0
	for i := range a.lastDef {
		a.lastDef[i] = defRec{}
	}
	for i := range a.fuBusy {
		a.fuBusy[i] = 0
	}
	a.argBits = append(a.argBits[:0], args...)
	a.startCycle = a.Cycles
	a.Invocations.Inc(1)
	a.Comm.MMR.SetReg(StatusReg, 1) // busy
	a.fetch(f.Entry(), nil)
	a.Activate()
}

// newDynOp takes an op from the pool (or allocates one, binding its
// completion callbacks for the object's lifetime).
func (a *Accelerator) newDynOp() *dynOp {
	if n := len(a.opPool); n > 0 {
		d := a.opPool[n-1]
		a.opPool = a.opPool[:n-1]
		return d
	}
	d := &dynOp{}
	d.arriveFn = func() { a.arrive(d) }
	d.readDoneFn = func(data []byte) {
		var bits uint64
		switch d.size {
		case 1:
			bits = uint64(data[0])
		case 2:
			bits = uint64(binary.LittleEndian.Uint16(data))
		case 4:
			bits = uint64(binary.LittleEndian.Uint32(data))
		default:
			bits = binary.LittleEndian.Uint64(data)
		}
		d.val = bits
		a.arrive(d)
	}
	return d
}

// arrive marks an in-flight op's result as in; it commits at the next edge.
func (a *Accelerator) arrive(d *dynOp) {
	d.arrived = true
	a.arrived.set(d.qi)
}

// index enters a reservation-queue op into the ready and arrived sets from
// its own state, for the two places that rebuild them: compaction, Restore.
func (a *Accelerator) index(d *dynOp) {
	if d.state == stWaiting && d.waitingOn == 0 {
		a.ready.set(d.qi)
	} else if d.state == stInflight && d.arrived {
		a.arrived.set(d.qi)
	}
}

// growSets makes both sets cover n reservation-queue slots.
func (a *Accelerator) growSets(n int) {
	for len(a.ready)<<6 < n {
		a.ready = append(a.ready, 0)
		a.arrived = append(a.arrived, 0)
	}
}

// recycle returns a committed op to the pool. Safe at compaction time: its
// waiters were cleared at commit, lastDef no longer names it as producer,
// and its completion events (if any) fired before it could commit.
func (a *Accelerator) recycle(d *dynOp) {
	d.st = nil
	a.opPool = append(a.opPool, d)
}

// fetch imports a basic block into the reservation queue, generating
// dynamic dependencies by searching the newest definitions (the paper's
// upward search of the reservation and in-flight queues).
func (a *Accelerator) fetch(b *ir.Block, prev *ir.Block) {
	ops := a.CDFG.BlockOps[b]
	a.growSets(len(a.resQ) + len(ops))
	for _, st := range ops {
		in := st.In
		d := a.newDynOp()
		d.st, d.seq = st, a.seq
		a.seq++
		d.state = stWaiting
		d.arrived = false
		d.waitingOn = 0
		d.win, d.ordBlk, d.ordSeq = winUnknown, nil, 0
		srcs := st.Srcs
		if in.Op == ir.OpPhi {
			// Resolve the incoming edge now; the mux selects one operand.
			k := -1
			for j, blk := range in.Blocks {
				if blk == prev {
					k = j
					break
				}
			}
			if k < 0 {
				panic(fmt.Sprintf("core: phi %%%s has no incoming from %s", in.Name, prev.Name()))
			}
			srcs = st.PhiSrcs[k : k+1]
		}
		n := len(srcs)
		if cap(d.operands) < n {
			d.operands = make([]uint64, n)
			d.pending = make([]bool, n)
		} else {
			d.operands = d.operands[:n]
			d.pending = d.pending[:n]
		}
		for k := range srcs {
			s := &srcs[k]
			d.pending[k] = false
			switch s.kind {
			case srcDef:
				rec := &a.lastDef[s.idx]
				if !rec.live {
					panic(fmt.Sprintf("core: %%%s uses an undefined value", in.Name))
				}
				if rec.producer != nil {
					d.waitingOn++
					d.pending[k] = true
					rec.producer.waiters = append(rec.producer.waiters, waiter{op: d, idx: k})
				} else {
					d.operands[k] = rec.val
				}
			case srcParam:
				d.operands[k] = a.argBits[s.idx]
			default:
				d.operands[k] = s.bits
			}
		}
		if st.Result {
			a.lastDef[st.ID] = defRec{producer: d, live: true}
		}
		d.qi = int32(len(a.resQ))
		a.resQ = append(a.resQ, d)
		a.resident++
		switch {
		case st.Load:
			a.pendLoads++
		case st.Store:
			a.pendStores++
		default:
			a.pendComp++
		}
		if d.waitingOn == 0 {
			a.ready.set(d.qi)
		}
		if st.Mem {
			a.pendingMem = append(a.pendingMem, d)
		}
	}
}

// commit finishes a dynamic op: writes its register, charges energy, wakes
// consumers.
func (a *Accelerator) commit(d *dynOp) {
	st := d.st
	if d.state == stWaiting {
		// Zero-latency and terminator commits consume a ready entry.
		a.ready.clear(d.qi)
	} else if d.state == stInflight && st.Mem {
		if st.Store {
			a.inflStores--
		} else {
			a.inflLoads--
		}
	}
	d.state = stDone
	a.resident--
	switch {
	case st.Load:
		a.pendLoads--
	case st.Store:
		a.pendStores--
	default:
		a.pendComp--
	}
	a.Committed.Inc(1)
	if st.Class != hw.FUNone {
		a.FUEnergyPJ.Inc(st.EnergyPJ)
		if !st.Pipelined {
			a.fuBusy[st.Class]--
		}
	}
	if st.Result {
		a.RegWritePJ.Inc(st.WritePJ)
		if rec := &a.lastDef[st.ID]; rec.producer == d {
			rec.val = d.val
			rec.producer = nil
		}
	}
	for _, w := range d.waiters {
		w.op.operands[w.idx] = d.val
		w.op.pending[w.idx] = false
		w.op.waitingOn--
		if w.op.waitingOn == 0 {
			a.ready.set(w.op.qi) // the waiter becomes issuable
		}
	}
	d.waiters = d.waiters[:0]
}

// evaluate computes an op's value from its resolved operands — the
// execute-in-execute step shared with the functional interpreter.
func (a *Accelerator) evaluate(d *dynOp) uint64 {
	in := d.st.In
	ops := d.operands
	switch {
	case in.Op.IsBinOp():
		return ir.EvalBin(in.Op, in.T, ops[0], ops[1])
	case in.Op == ir.OpICmp:
		return ir.EvalICmp(in.Pred, in.Args[0].Type(), ops[0], ops[1])
	case in.Op == ir.OpFCmp:
		return ir.EvalFCmp(in.Pred, in.Args[0].Type(), ops[0], ops[1])
	case in.Op.IsCast():
		return ir.EvalCast(in.Op, in.Args[0].Type(), in.T, ops[0])
	case in.Op == ir.OpGEP:
		return ir.EvalGEP(in, d.st.GEPStrides, ops[0], ops[1:])
	case in.Op == ir.OpPhi:
		return ops[0]
	case in.Op == ir.OpSelect:
		if ops[0] != 0 {
			return ops[1]
		}
		return ops[2]
	case in.Op == ir.OpCall:
		return ir.EvalCall(in.Callee, in.T, ops)
	}
	panic(fmt.Sprintf("core: cannot evaluate %s", in.Op))
}

// memOrderOK applies dynamic disambiguation: an access may issue only if
// no older, unfinished access could alias it.
//
// The check is paid once per (access, blocker), not once per cycle. For a
// fixed ready d, an older access's verdict can only move from "blocks" to
// "does not block", never back: op state only advances (waiting,
// in flight, done), an address operand resolves once, and pendingMem only
// gains ops younger than d and loses only done ones. So d remembers where
// its last check stopped (ordBlk at ordSeq), answers false in O(1) while
// that access still blocks, and otherwise resumes the program-order scan
// there, found by binary search on seq. A passed check leaves ordSeq at
// d.seq, so a stream pop that passed ordering but found its FIFO empty
// passes again at once. The verdict is the full scan's, cycle for cycle;
// only redundant work is skipped.
func (a *Accelerator) memOrderOK(d *dynOp) bool {
	b := d.ordBlk
	if b == nil && d.ordSeq > 0 {
		return true // passed before
	}
	dAddr, dSize := d.effAddr()
	dEnd, dWin := dAddr+uint64(dSize), a.window(d)
	pm := a.pendingMem
	if b != nil {
		if b.seq == d.ordSeq && a.blocks(b, d, dAddr, dEnd, dWin) {
			return false
		}
		i, _ := slices.BinarySearchFunc(pm, d.ordSeq, func(o *dynOp, seq uint64) int { return cmp.Compare(o.seq, seq) })
		pm = pm[i:]
	}
	for _, o := range pm {
		if o.seq >= d.seq {
			break
		}
		if a.blocks(o, d, dAddr, dEnd, dWin) {
			d.ordBlk, d.ordSeq = o, o.seq
			return false
		}
	}
	d.ordBlk, d.ordSeq = nil, d.seq
	return true
}

// blocks reports whether the older access o keeps d, whose access spans
// [dAddr, dEnd) in stream window dWin (-1 for none), from issuing.
func (a *Accelerator) blocks(o, d *dynOp, dAddr, dEnd uint64, dWin int8) bool {
	if o.state == stDone {
		return false
	}
	if a.Cfg.ConservativeMemOrder {
		return true // strict program order among memory ops
	}
	loads := d.st.Load && o.st.Load
	if loads && dWin < 0 {
		return false // loads reorder freely outside stream windows
	}
	if !o.addrKnown() {
		return true // older access with unknown address
	}
	// Same-window pops and pushes stay in program order even though their
	// addresses need not overlap.
	if dWin >= 0 && o.state == stWaiting && a.window(o) == dWin {
		return true
	}
	if loads {
		return false
	}
	oAddr, oSize := o.effAddr()
	return oAddr < dEnd && dAddr < oAddr+uint64(oSize) // overlap
}

// window returns the stream window of a memory op's resolved address,
// computed at first use.
func (a *Accelerator) window(d *dynOp) int8 {
	if d.win == winUnknown {
		addr, _ := d.effAddr()
		d.win = int8(a.Comm.WindowIndex(addr))
	}
	return d.win
}

// addrKnown reports whether the op's address operand has resolved.
func (d *dynOp) addrKnown() bool {
	if d.isLoad() {
		return !d.pending[0]
	}
	return !d.pending[1]
}

// effAddr returns the access address and size for a resolved memory op.
func (d *dynOp) effAddr() (uint64, int) {
	if d.st.Load {
		return d.operands[0], d.st.AccSize
	}
	return d.operands[1], d.st.AccSize
}

// tryIssueMem attempts to issue a resolved memory op. The O(1) port check
// runs before disambiguation, which is O(1) while the op's memoized
// blocker still blocks it.
func (a *Accelerator) tryIssueMem(d *dynOp) bool {
	if d.isLoad() {
		if !a.Comm.CanRead() {
			a.hazLoad = true
			return false
		}
		if !a.memOrderOK(d) {
			a.hazOrder = true
			return false
		}
		addr, size := d.effAddr()
		d.addr, d.size = addr, size
		a.RegReadPJ.Inc(d.st.MemReadPJ) // address register
		a.Comm.TagNext(snapshot.OwnerEngine, d.seq)
		ok := a.Comm.IssueRead(addr, size, d.readDoneFn)
		if !ok {
			return false // stream empty; retry
		}
		d.state = stInflight
		a.ready.clear(d.qi)
		a.inflight++
		a.inflLoads++
		return true
	}
	// Store.
	if !a.Comm.CanWrite() {
		a.hazStore = true
		return false
	}
	if !a.memOrderOK(d) {
		a.hazOrder = true
		return false
	}
	addr, size := d.effAddr()
	d.addr, d.size = addr, size
	data := d.buf[:size]
	switch size {
	case 1:
		data[0] = byte(d.operands[0])
	case 2:
		binary.LittleEndian.PutUint16(data, uint16(d.operands[0]))
	case 4:
		binary.LittleEndian.PutUint32(data, uint32(d.operands[0]))
	default:
		binary.LittleEndian.PutUint64(data, d.operands[0])
	}
	a.RegReadPJ.Inc(d.st.MemReadPJ)
	a.Comm.TagNext(snapshot.OwnerEngine, d.seq)
	ok := a.Comm.IssueWrite(addr, data, d.arriveFn)
	if !ok {
		return false
	}
	d.state = stInflight
	a.ready.clear(d.qi)
	a.inflight++
	a.inflStores++
	return true
}

// fuAvailable checks structural availability for a compute op. Only pool
// exhaustion counts as a hazard for stall analysis: a second initiation of
// the same static instruction in one cycle is ordinary pipelining
// backpressure, not resource contention.
func (a *Accelerator) fuAvailable(d *dynOp) bool {
	c := d.st.Class
	if c == hw.FUNone {
		return true
	}
	if a.opStamp[d.st.ID] == a.cycleStamp {
		return false // one initiation per static instruction per cycle
	}
	if a.fuIssued[c]+a.fuBusy[c] >= a.fuTotal[c] {
		a.hazFU = true
		return false
	}
	return true
}

// issueCompute launches a compute op (immediate functional evaluation,
// delayed commit — Sec. III-B2).
func (a *Accelerator) issueCompute(d *dynOp) {
	c := d.st.Class
	if c != hw.FUNone {
		a.fuIssued[c]++
		a.opStamp[d.st.ID] = a.cycleStamp
		if !d.st.Pipelined {
			a.fuBusy[c]++
		}
	}
	for _, e := range d.st.ReadPJ {
		a.RegReadPJ.Inc(e)
	}
	d.val = a.evaluate(d)
	if d.st.Latency <= 0 {
		a.commit(d) // zero-latency chaining (muxes, control)
		a.zeroLatProgress = true
		return
	}
	d.state = stInflight
	a.ready.clear(d.qi)
	a.inflight++
	// A latency-L op commits exactly L cycles after issue: the engine ticks
	// every cycle while it runs, so the cycle counter is the compute queue's
	// clock and the op waits on the wheel, not on the event queue.
	d.due = a.Cycles + uint64(d.st.Latency)
	a.park(d)
}

// park threads an in-flight compute op onto its due-wheel slot.
func (a *Accelerator) park(d *dynOp) {
	slot := &a.wheel[d.due&uint64(len(a.wheel)-1)]
	d.nextDue, *slot = *slot, d
}

// handleTerminator evaluates a br/ret, triggering the next block fetch.
func (a *Accelerator) handleTerminator(d *dynOp) bool {
	in := d.st.In
	if a.fetches >= 2 {
		a.fetchBlocked = true
		return false // bound control work per cycle
	}
	if !a.Cfg.PipelineLoops {
		// Drain the queue before moving on: without loop pipelining the
		// terminator is the only op of its block left uncommitted, so any
		// second resident op is an older one.
		if a.resident > 1 {
			a.fetchBlocked = true
			return false
		}
	}
	switch in.Op {
	case ir.OpRet:
		if len(in.Args) == 1 {
			a.retBits = d.operands[0]
		}
		a.finished = true
		a.commit(d)
		return true
	case ir.OpBr:
		var next *ir.Block
		if len(in.Args) == 0 {
			next = in.Blocks[0]
		} else if d.operands[0] != 0 {
			next = in.Blocks[0]
		} else {
			next = in.Blocks[1]
		}
		// Window check: defer the fetch while other work is resident, but
		// never wedge — once only this terminator remains, the next block
		// must be admitted even if it exceeds the configured window.
		if resident := a.resident; resident > 1 && resident-1+len(next.Instrs) > a.Cfg.ResQueueSize {
			a.fetchBlocked = true
			return false // window full; retry next cycle
		}
		from := in.Block()
		a.commit(d)
		a.fetches++
		a.fetch(next, from)
		a.zeroLatProgress = true
		return true
	}
	panic("core: unknown terminator")
}

// cycle is the runtime scheduler: commit, then issue in program order.
func (a *Accelerator) cycle() bool {
	a.ActiveCycles.Inc(1)
	a.Comm.NewCycle()
	for i := range a.fuIssued {
		a.fuIssued[i] = 0
	}
	a.cycleStamp++
	a.fetches = 0
	a.hazLoad, a.hazStore, a.hazFU, a.hazOrder = false, false, false, false
	a.fetchBlocked = false
	a.cycLoads, a.cycStores, a.cycFP, a.cycInt, a.cycOther = 0, 0, 0, 0, 0

	// Commit phase: the compute ops due this cycle join the memory ops
	// whose response arrived since the last edge, and the arrived set
	// commits in queue order. Committing adds no arrivals.
	slot := &a.wheel[a.Cycles&uint64(len(a.wheel)-1)]
	for d := *slot; d != nil; d = d.nextDue {
		a.arrive(d)
	}
	*slot = nil
	for qi := a.arrived.next(0); qi >= 0; qi = a.arrived.next(qi + 1) {
		a.arrived.clear(int32(qi))
		a.inflight--
		a.commit(a.resQ[qi])
	}

	// Issue phase: visit the ready set in program order. A pass picks up
	// what becomes ready above its position — a fetched block, a waiter
	// woken by a zero-latency commit — and leaves what becomes ready below
	// it to a rescan, which is only useful after a zero-latency commit or a
	// block fetch: latency-bearing issues commit at later edges. An op that
	// could not issue stays in the set and is tried again by each pass.
	issued := 0
	issuedFP := false
	for rescan := true; rescan; {
		a.zeroLatProgress = false
		for qi := a.ready.next(0); qi >= 0; qi = a.ready.next(qi + 1) {
			d := a.resQ[qi]
			st := d.st
			switch {
			case st.Term:
				if a.handleTerminator(d) {
					issued++
					a.incIssued(st.Class)
				}
			case st.Mem:
				if a.tryIssueMem(d) {
					issued++
					if st.Store {
						a.cycStores++
						if !a.issuedStoreBk.Valid() {
							a.issuedStoreBk = a.IssuedByClass.Bucket("store")
						}
						a.issuedStoreBk.Inc(1)
					} else {
						a.cycLoads++
						if !a.issuedLoadBk.Valid() {
							a.issuedLoadBk = a.IssuedByClass.Bucket("load")
						}
						a.issuedLoadBk.Inc(1)
					}
				}
			default:
				if a.fuAvailable(d) {
					a.issueCompute(d)
					issued++
					if st.FP {
						issuedFP = true
						a.cycFP++
					} else {
						switch st.Class {
						case hw.FUIntAdder, hw.FUIntMultiplier, hw.FUIntDivider,
							hw.FUShifter, hw.FUBitwise, hw.FUComparator:
							a.cycInt++
						default:
							a.cycOther++
						}
					}
					a.incIssued(st.Class)
				}
			}
		}
		rescan = a.zeroLatProgress
	}

	// Compact committed ops out of the queues: memory list first, then the
	// reservation queue, where committed ops return to the pool. Surviving
	// ops get fresh queue indices and both sets are rebuilt from them.
	// Compaction is amortized: committed entries linger until they are at
	// least a quarter of the queue, because committed entries are in
	// neither set, disambiguation skips them, and all architectural state —
	// window checks, stall classification, profiling — reads the resident
	// counter, never the queue length. Deferral therefore changes no
	// simulated behaviour, only when the O(queue) rewrite is paid.
	if dead := len(a.resQ) - a.resident; dead > 0 && dead*4 >= len(a.resQ) {
		keptMem := a.pendingMem[:0]
		for _, d := range a.pendingMem {
			if d.state != stDone {
				keptMem = append(keptMem, d)
			}
		}
		a.pendingMem = keptMem
		kept := a.resQ[:0]
		clear(a.ready)
		clear(a.arrived)
		for _, d := range a.resQ {
			if d.state == stDone {
				a.recycle(d)
				continue
			}
			d.qi = int32(len(kept))
			a.index(d)
			kept = append(kept, d)
		}
		a.resQ = kept
	}

	// Cycle-level statistics (Sec. III-C2).
	a.recordCycleStats(issued, issuedFP)

	if a.finished && a.resident == 0 && a.inflight == 0 {
		// Deferred compaction can leave committed entries behind; recycle
		// them now so the pool is full for the next kernel invocation.
		for _, d := range a.resQ {
			a.recycle(d)
		}
		a.resQ = a.resQ[:0]
		a.pendingMem = a.pendingMem[:0]
		a.running = false
		kc := a.Cycles - a.startCycle
		a.KernelCycles.Sample(float64(kc))
		a.Comm.MMR.SetReg(StatusReg, 2) // done
		if a.Comm.MMR.Reg(CtrlReg)&2 != 0 && a.Comm.IRQ != nil {
			a.Comm.IRQ()
		}
		if a.OnDone != nil {
			a.OnDone()
		}
		return false
	}
	return true
}

// incIssued bumps the per-class issue counter through a lazily bound
// bucket handle (bound at first issue, preserving key insertion order).
func (a *Accelerator) incIssued(c hw.FUClass) {
	bk := &a.issuedBk[c]
	if !bk.Valid() {
		*bk = a.IssuedByClass.Bucket(c.String())
	}
	bk.Inc(1)
}

// incOccupancy is incIssued's counterpart for the occupancy vector.
func (a *Accelerator) incOccupancy(c hw.FUClass, n float64) {
	bk := &a.occBk[c]
	if !bk.Valid() {
		*bk = a.OccupancySum.Bucket(c.String())
	}
	bk.Inc(n)
}

// Cycle-classification keys precomputed per flag mask, replacing the
// per-cycle string concatenation the stats used to do.
var (
	stallKeys = [8]string{
		"other", "load", "store", "load+store",
		"compute", "load+compute", "store+compute", "load+store+compute",
	}
	hazardKeys = [16]string{
		"", "load_ports", "store_ports", "load_ports+store_ports",
		"fu", "load_ports+fu", "store_ports+fu", "load_ports+store_ports+fu",
		"mem_order", "load_ports+mem_order", "store_ports+mem_order",
		"load_ports+store_ports+mem_order", "fu+mem_order",
		"load_ports+fu+mem_order", "store_ports+fu+mem_order",
		"load_ports+store_ports+fu+mem_order",
	}
	activityKeys = [8]string{
		"none", "load", "store", "load+store",
		"fp", "load+fp", "store+fp", "load+store+fp",
	}
)

// recordCycleStats classifies the cycle for the occupancy/stall analyses
// behind Figs. 14 and 15.
func (a *Accelerator) recordCycleStats(issued int, issuedFP bool) {
	// The classification counters are maintained at state transitions
	// (fetch, memory issue, commit), so this reads O(1) state instead of
	// rescanning the reservation queue every cycle.
	loadsInFlight, storesInFlight := a.inflLoads, a.inflStores
	pendLoad, pendStore, pendComp := a.pendLoads > 0, a.pendStores > 0, a.pendComp > 0
	// FU occupancy: pipelined units are busy when they initiate an op
	// this cycle; unpipelined units while an op is resident. fuAvailable
	// keeps fuIssued+fuBusy <= total, so occupancy stays within [0, 1].
	for c := range a.fuIssued {
		if n := a.fuIssued[c]; n > 0 && a.fuPiped[c] {
			a.incOccupancy(hw.FUClass(c), float64(n))
		}
	}
	for c := range a.fuBusy {
		if n := a.fuBusy[c]; n > 0 {
			a.incOccupancy(hw.FUClass(c), float64(n))
		}
	}
	if a.hazLoad || a.hazStore || a.hazFU || a.hazOrder {
		a.HazardCycles.Inc(1)
		mask := 0
		if a.hazLoad {
			mask |= 1
		}
		if a.hazStore {
			mask |= 2
		}
		if a.hazFU {
			mask |= 4
		}
		if a.hazOrder {
			mask |= 8
		}
		bk := &a.hazBk[mask]
		if !bk.Valid() {
			*bk = a.HazardKinds.Bucket(hazardKeys[mask])
		}
		bk.Inc(1)
	}
	if issued > 0 {
		a.NewExecCycles.Inc(1)
	} else if a.resident > 0 {
		a.StallCycles.Inc(1)
		mask := 0
		if pendLoad {
			mask |= 1
		}
		if pendStore {
			mask |= 2
		}
		if pendComp {
			mask |= 4
		}
		bk := &a.stallBk[mask]
		if !bk.Valid() {
			*bk = a.StallKinds.Bucket(stallKeys[mask])
		}
		bk.Inc(1)
	}
	mask := 0
	if loadsInFlight > 0 {
		mask |= 1
	}
	if storesInFlight > 0 {
		mask |= 2
	}
	if issuedFP {
		mask |= 4
	}
	bk := &a.actBk[mask]
	if !bk.Valid() {
		*bk = a.Activity.Bucket(activityKeys[mask])
	}
	bk.Inc(1)

	if a.profile != nil {
		var haz uint8
		if a.hazLoad {
			haz |= HazLoadPorts
		}
		if a.hazStore {
			haz |= HazStorePorts
		}
		if a.hazFU {
			haz |= HazFUPool
		}
		if a.hazOrder {
			haz |= HazMemOrder
		}
		resident := a.resident
		if resident > 0xffff {
			resident = 0xffff
		}
		a.profile.record(CycleSample{
			Cycle:    a.Cycles - a.startCycle,
			Loads:    a.cycLoads,
			Stores:   a.cycStores,
			FPOps:    a.cycFP,
			IntOps:   a.cycInt,
			Other:    a.cycOther,
			Resident: uint16(resident),
			Stalled:  issued == 0 && a.resident > 0,
			Hazard:   haz,
		})
	}
	if a.rec != nil {
		a.recordTimeline(issued)
	}
}

// AttachTimeline binds recorder lanes for the engine: one stall-attributed
// cycle lane, load/store port lanes, and one lane per instantiated FU
// class. A nil recorder detaches. Call after the Reset that follows a Retune
// when the CDFG or FU limits changed, so the lane set matches the
// instantiated units.
func (a *Accelerator) AttachTimeline(rec timeline.Recorder) {
	a.rec = rec
	if rec == nil {
		return
	}
	name := a.Name()
	a.tlCycle = rec.Lane(name, "engine")
	a.tlLoad = rec.Lane(name, "port.load")
	a.tlStore = rec.Lane(name, "port.store")
	if cap(a.tlFU) < len(a.fuTotal) {
		a.tlFU = make([]timeline.LaneID, len(a.fuTotal))
	} else {
		a.tlFU = a.tlFU[:len(a.fuTotal)]
	}
	for c := range a.tlFU {
		a.tlFU[c] = -1
	}
	for _, c := range hw.AllFUClasses() {
		if a.fuTotal[c] > 0 {
			a.tlFU[c] = rec.Lane(name, "fu."+c.String())
		}
	}
}

// recordTimeline emits the cycle's timeline events: exactly one Cycle on
// the engine lane — issue, or the highest-priority stall reason — plus
// busy slices for the memory ports and FU classes that did work. The
// attribution priority mirrors the paper's Fig. 10 categories: a memory
// hazard outranks FU contention, which outranks a blocked block fetch;
// with no hazard at all, outstanding memory means a memory wait and an
// empty ready set means an operand wait.
func (a *Accelerator) recordTimeline(issued int) {
	start, dur := uint64(a.Q.Now()), uint64(a.Clk.Period())
	class := timeline.ClassIssue
	if issued == 0 {
		switch {
		case a.hazLoad || a.hazStore || a.hazOrder:
			class = timeline.ClassStallMem
		case a.hazFU:
			class = timeline.ClassStallFU
		case a.fetchBlocked:
			class = timeline.ClassStallFetch
		case a.inflLoads+a.inflStores > 0:
			class = timeline.ClassStallMem
		default:
			class = timeline.ClassStallOperand
		}
	}
	a.rec.Cycle(a.tlCycle, start, dur, class)
	if a.cycLoads > 0 {
		a.rec.Slice(a.tlLoad, start, dur, "load")
	}
	if a.cycStores > 0 {
		a.rec.Slice(a.tlStore, start, dur, "store")
	}
	for c := range a.tlFU {
		if a.tlFU[c] >= 0 && (a.fuIssued[c] > 0 || a.fuBusy[c] > 0) {
			a.rec.Slice(a.tlFU[c], start, dur, "busy")
		}
	}
}
