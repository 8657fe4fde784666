package core

import (
	"encoding/binary"
	"testing"

	"gosalam/internal/hw"
	"gosalam/internal/mem"
	"gosalam/internal/sim"
	"gosalam/ir"
)

// rig is a minimal single-accelerator system: SPM + comm + accelerator.
type rig struct {
	q     *sim.EventQueue
	space *ir.FlatMem
	spm   *mem.Scratchpad
	comm  *CommInterface
	acc   *Accelerator
	stats *sim.Group
}

func newRig(t *testing.T, f *ir.Function, cfg AccelConfig, limits map[hw.FUClass]int) *rig {
	t.Helper()
	q := sim.NewEventQueue()
	space := ir.NewFlatMem(0, 1<<20)
	stats := sim.NewGroup("sys")
	clk := sim.NewClockDomainMHz("sysclk", cfg.ClockMHz)
	spm := mem.NewScratchpad("spm", q, clk, space,
		mem.AddrRange{Base: 0, Size: 1 << 20}, 1, 4, 4, stats)
	comm := NewCommInterface("comm", q, clk, 0xF0000000, len(f.Params), stats)
	comm.AttachLocal(spm)
	g, err := Elaborate(f, hw.Default40nm(), limits)
	if err != nil {
		t.Fatal(err)
	}
	acc := NewAccelerator("acc", q, g, cfg, comm, stats)
	return &rig{q: q, space: space, spm: spm, comm: comm, acc: acc, stats: stats}
}

// buildVecAdd builds c[i] = a[i] + b[i] over n doubles.
func buildVecAdd(t *testing.T) (*ir.Function, func(m *ir.FlatMem, n int) []uint64) {
	t.Helper()
	m := ir.NewModule("vadd")
	b := ir.NewBuilder(m)
	f := b.Func("vadd", ir.Void,
		ir.P("a", ir.Ptr(ir.F64)), ir.P("b", ir.Ptr(ir.F64)),
		ir.P("c", ir.Ptr(ir.F64)), ir.P("n", ir.I64))
	a, bp, cp, n := f.Params[0], f.Params[1], f.Params[2], f.Params[3]
	b.Loop("i", ir.I64c(0), n, 1, func(iv ir.Value) {
		av := b.Load(b.GEP(a, "pa", iv), "va")
		bv := b.Load(b.GEP(bp, "pb", iv), "vb")
		b.Store(b.FAdd(av, bv, "sum"), b.GEP(cp, "pc", iv))
	})
	b.Ret(nil)
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	setup := func(mm *ir.FlatMem, n int) []uint64 {
		aA := mm.AllocFor(ir.F64, n)
		bA := mm.AllocFor(ir.F64, n)
		cA := mm.AllocFor(ir.F64, n)
		for i := 0; i < n; i++ {
			mm.WriteF64(aA+uint64(i*8), float64(i))
			mm.WriteF64(bA+uint64(i*8), float64(2*i))
		}
		return []uint64{aA, bA, cA, uint64(n)}
	}
	return f, setup
}

func runToDone(t *testing.T, r *rig, args []uint64) uint64 {
	t.Helper()
	done := false
	r.acc.OnDone = func() { done = true }
	r.acc.Start(args)
	r.q.RunWhile(func() bool { return !done })
	if !done {
		t.Fatal("accelerator never finished")
	}
	return r.acc.LastKernelCycles()
}

func TestAcceleratorExecutesVecAdd(t *testing.T) {
	f, setup := buildVecAdd(t)
	r := newRig(t, f, DefaultConfig(), nil)
	n := 32
	args := setup(r.space, n)
	cycles := runToDone(t, r, args)

	cA := args[2]
	for i := 0; i < n; i++ {
		want := float64(i) + float64(2*i)
		if got := r.space.ReadF64(cA + uint64(i*8)); got != want {
			t.Fatalf("c[%d] = %g, want %g", i, got, want)
		}
	}
	if cycles == 0 {
		t.Fatal("zero kernel cycles")
	}
	// Sanity: at least n loads+stores issued.
	if r.comm.LoadsIssued.Value() != float64(2*n) {
		t.Fatalf("loads = %g, want %d", r.comm.LoadsIssued.Value(), 2*n)
	}
	if r.comm.StoresIssued.Value() != float64(n) {
		t.Fatalf("stores = %g, want %d", r.comm.StoresIssued.Value(), n)
	}
	if r.acc.Busy() {
		t.Fatal("still busy after done")
	}
}

// The runtime engine must compute exactly what the functional interpreter
// computes — the execute-in-execute property.
func TestEngineMatchesInterpreter(t *testing.T) {
	f, setup := buildVecAdd(t)
	n := 16

	refMem := ir.NewFlatMem(0, 1<<20)
	refArgs := setup(refMem, n)
	if _, _, err := ir.Exec(f, refArgs, refMem, nil); err != nil {
		t.Fatal(err)
	}

	r := newRig(t, f, DefaultConfig(), nil)
	args := setup(r.space, n)
	runToDone(t, r, args)

	for i := range r.space.Data {
		if r.space.Data[i] != refMem.Data[i] {
			t.Fatalf("memory diverges from interpreter at byte %d", i)
		}
	}
}

func TestLoopPipeliningSpeedsUp(t *testing.T) {
	f, setup := buildVecAdd(t)
	cfgPipe := DefaultConfig()
	cfgNoPipe := DefaultConfig()
	cfgNoPipe.PipelineLoops = false

	r1 := newRig(t, f, cfgPipe, nil)
	c1 := runToDone(t, r1, setup(r1.space, 32))
	r2 := newRig(t, f, cfgNoPipe, nil)
	c2 := runToDone(t, r2, setup(r2.space, 32))
	if !(c1 < c2) {
		t.Fatalf("pipelined %d cycles !< unpipelined %d", c1, c2)
	}
}

func TestMorePortsFewerCycles(t *testing.T) {
	// Unrolled vector add: lots of memory parallelism for ports to exploit.
	m := ir.NewModule("v")
	b := ir.NewBuilder(m)
	f := b.Func("vadd8", ir.Void,
		ir.P("a", ir.Ptr(ir.F64)), ir.P("b", ir.Ptr(ir.F64)),
		ir.P("c", ir.Ptr(ir.F64)), ir.P("n", ir.I64))
	a, bp, cp, n := f.Params[0], f.Params[1], f.Params[2], f.Params[3]
	b.LoopUnrolled("i", ir.I64c(0), n, 1, 8, func(iv ir.Value) {
		av := b.Load(b.GEP(a, "pa", iv), "va")
		bv := b.Load(b.GEP(bp, "pb", iv), "vb")
		b.Store(b.FAdd(av, bv, "s"), b.GEP(cp, "pc", iv))
	})
	b.Ret(nil)

	setup := func(mm *ir.FlatMem, nn int) []uint64 {
		aA := mm.AllocFor(ir.F64, nn)
		bA := mm.AllocFor(ir.F64, nn)
		cA := mm.AllocFor(ir.F64, nn)
		for i := 0; i < nn; i++ {
			mm.WriteF64(aA+uint64(i*8), 1)
			mm.WriteF64(bA+uint64(i*8), 2)
		}
		return []uint64{aA, bA, cA, uint64(nn)}
	}
	cycles := map[int]uint64{}
	for _, ports := range []int{1, 8} {
		cfg := DefaultConfig()
		cfg.ReadPorts, cfg.WritePorts = ports, ports
		cfg.MaxOutstanding = 32
		r := newRig(t, f, cfg, nil)
		cycles[ports] = runToDone(t, r, setup(r.space, 64))
	}
	if !(cycles[8] < cycles[1]) {
		t.Fatalf("8 ports (%d cy) not faster than 1 port (%d cy)", cycles[8], cycles[1])
	}
}

func TestFULimitsSlowExecutionButPreserveResults(t *testing.T) {
	// Unrolled element-wise FP kernel: 8 independent fmuls + fadds per
	// iteration. Limiting the units to 1 each forces reuse and must
	// serialize the iteration without changing results.
	m := ir.NewModule("acc")
	b := ir.NewBuilder(m)
	f := b.Func("fma8", ir.Void,
		ir.P("a", ir.Ptr(ir.F64)), ir.P("c", ir.Ptr(ir.F64)), ir.P("n", ir.I64))
	a, cp, n := f.Params[0], f.Params[1], f.Params[2]
	b.LoopUnrolled("i", ir.I64c(0), n, 1, 8, func(iv ir.Value) {
		v := b.Load(b.GEP(a, "p", iv), "v")
		w := b.FMul(v, ir.F64c(3), "w")
		x := b.FAdd(v, w, "x")
		b.Store(x, b.GEP(cp, "pc", iv))
	})
	b.Ret(nil)

	setup := func(mm *ir.FlatMem, nn int) []uint64 {
		aA := mm.AllocFor(ir.F64, nn)
		cA := mm.AllocFor(ir.F64, nn)
		for i := 0; i < nn; i++ {
			mm.WriteF64(aA+uint64(i*8), float64(i+1))
		}
		return []uint64{aA, cA, uint64(nn)}
	}
	cfg := DefaultConfig()
	cfg.ReadPorts, cfg.WritePorts, cfg.MaxOutstanding = 8, 8, 64

	rFree := newRig(t, f, cfg, nil)
	argsFree := setup(rFree.space, 64)
	cFree := runToDone(t, rFree, argsFree)

	rLim := newRig(t, f, cfg, map[hw.FUClass]int{hw.FUFPAdder: 1, hw.FUFPMultiplier: 1})
	argsLim := setup(rLim.space, 64)
	cLim := runToDone(t, rLim, argsLim)

	for i := 0; i < 64; i++ {
		want := float64(i+1) * 4 // v + 3v
		gFree := rFree.space.ReadF64(argsFree[1] + uint64(i*8))
		gLim := rLim.space.ReadF64(argsLim[1] + uint64(i*8))
		if gFree != want || gLim != want {
			t.Fatalf("c[%d]: free=%g lim=%g want=%g", i, gFree, gLim, want)
		}
	}
	if !(cLim > cFree) {
		t.Fatalf("limited (%d cy) not slower than dedicated (%d cy)", cLim, cFree)
	}
	// Datapath area shrinks with limits.
	if !(rLim.acc.CDFG.AreaUM2() < rFree.acc.CDFG.AreaUM2()) {
		t.Fatal("FU limits did not reduce area")
	}
}

func TestConservativeMemOrderAblation(t *testing.T) {
	f, setup := buildVecAdd(t)
	cfg := DefaultConfig()
	r1 := newRig(t, f, cfg, nil)
	c1 := runToDone(t, r1, setup(r1.space, 32))

	cfg.ConservativeMemOrder = true
	r2 := newRig(t, f, cfg, nil)
	c2 := runToDone(t, r2, setup(r2.space, 32))
	if !(c1 < c2) {
		t.Fatalf("disambiguation (%d cy) not faster than strict order (%d cy)", c1, c2)
	}
	// Results identical.
	for i := range r1.space.Data {
		if r1.space.Data[i] != r2.space.Data[i] {
			t.Fatal("memory ordering ablation changed results")
		}
	}
}

func TestMMRStartProtocolAndIRQ(t *testing.T) {
	f, setup := buildVecAdd(t)
	r := newRig(t, f, DefaultConfig(), nil)
	irqs := 0
	r.comm.IRQ = func() { irqs++ }
	args := setup(r.space, 8)

	// Program args then set ctrl start|irq-enable, all over the bus.
	wr := func(idx int, val uint64) {
		data := make([]byte, 8)
		binary.LittleEndian.PutUint64(data, val)
		r.comm.MMR.Send(mem.NewWrite(r.comm.MMR.AddrOf(idx), data, nil))
	}
	for i, v := range args {
		wr(ArgReg0+i, v)
	}
	wr(CtrlReg, 1|2)
	r.q.Run()

	if irqs != 1 {
		t.Fatalf("irqs = %d", irqs)
	}
	if r.comm.MMR.Reg(StatusReg)&2 == 0 {
		t.Fatal("done bit not set")
	}
	cA := args[2]
	if got := r.space.ReadF64(cA + 8); got != 3 {
		t.Fatalf("c[1] = %g, want 3", got)
	}
}

func TestStreamWindows(t *testing.T) {
	// Kernel: out[i] = in[i] * 2, reading from a stream-in window and
	// writing to a stream-out window.
	m := ir.NewModule("s")
	b := ir.NewBuilder(m)
	f := b.Func("scale", ir.Void,
		ir.P("in", ir.Ptr(ir.F64)), ir.P("out", ir.Ptr(ir.F64)), ir.P("n", ir.I64))
	in, out, n := f.Params[0], f.Params[1], f.Params[2]
	b.Loop("i", ir.I64c(0), n, 1, func(iv ir.Value) {
		v := b.Load(b.GEP(in, "pi", iv), "v")
		b.Store(b.FMul(v, ir.F64c(2), "d"), b.GEP(out, "po", iv))
	})
	b.Ret(nil)

	r := newRig(t, f, DefaultConfig(), nil)
	inBuf := mem.NewStreamBuffer("in", r.q, 64, r.stats)
	outBuf := mem.NewStreamBuffer("out", r.q, 64, r.stats)
	inWin := mem.AddrRange{Base: 0xE0000000, Size: 0x1000}
	outWin := mem.AddrRange{Base: 0xE0010000, Size: 0x1000}
	r.comm.AttachStream(inWin, inBuf, StreamIn)
	r.comm.AttachStream(outWin, outBuf, StreamOut)

	nElems := 16
	// Producer: trickle elements in over time (slower than the kernel).
	pushed := 0
	var pump func()
	pump = func() {
		if pushed >= nElems {
			return
		}
		data := make([]byte, 8)
		binary.LittleEndian.PutUint64(data, ir.FloatToBits(ir.F64, float64(pushed+1)))
		if inBuf.Push(data) {
			pushed++
		}
		r.q.After(30000, pump) // one element per 3 accelerator cycles
	}
	pump()

	// Consumer: drain the out buffer as data appears.
	var got []float64
	var drain func()
	drain = func() {
		for {
			d, ok := outBuf.Pop(8)
			if !ok {
				break
			}
			got = append(got, ir.FloatFromBits(ir.F64, binary.LittleEndian.Uint64(d)))
		}
		if len(got) < nElems {
			outBuf.NotifyData(drain)
		}
	}
	drain()

	runToDone(t, r, []uint64{inWin.Base, outWin.Base, uint64(nElems)})
	r.q.Run()
	if len(got) != nElems {
		t.Fatalf("drained %d of %d", len(got), nElems)
	}
	for i, v := range got {
		if v != float64(2*(i+1)) {
			t.Fatalf("out[%d] = %g, want %g", i, v, float64(2*(i+1)))
		}
	}
	if r.comm.StreamStalls.Value() == 0 {
		t.Fatal("expected stream handshake stalls with a slow producer")
	}
}

func TestStallAndActivityStats(t *testing.T) {
	f, setup := buildVecAdd(t)
	cfg := DefaultConfig()
	cfg.ReadPorts, cfg.WritePorts = 1, 1
	r := newRig(t, f, cfg, nil)
	runToDone(t, r, setup(r.space, 64))

	if r.acc.NewExecCycles.Value() == 0 {
		t.Fatal("no execution cycles recorded")
	}
	total := r.acc.NewExecCycles.Value() + r.acc.StallCycles.Value()
	if total > r.acc.ActiveCycles.Value() {
		t.Fatalf("exec+stall (%g) > active (%g)", total, r.acc.ActiveCycles.Value())
	}
	if r.acc.StallCycles.Value() > 0 && r.acc.StallKinds.Total() != r.acc.StallCycles.Value() {
		t.Fatalf("stall kinds (%g) != stall cycles (%g)",
			r.acc.StallKinds.Total(), r.acc.StallCycles.Value())
	}
	if r.acc.Activity.Total() != r.acc.ActiveCycles.Value() {
		t.Fatalf("activity total %g != active cycles %g",
			r.acc.Activity.Total(), r.acc.ActiveCycles.Value())
	}
	// FP adder occupancy must be in (0, 1].
	occ := r.acc.FUOccupancy(hw.FUFPAdder)
	if occ <= 0 || occ > 1 {
		t.Fatalf("fp adder occupancy = %g", occ)
	}
}

func TestPowerReportCategories(t *testing.T) {
	f, setup := buildVecAdd(t)
	r := newRig(t, f, DefaultConfig(), nil)
	runToDone(t, r, setup(r.space, 32))
	elapsed := r.q.Now()
	p := r.acc.Power(r.spm, elapsed)
	if p.DynFU <= 0 || p.DynReg <= 0 {
		t.Fatalf("dynamic datapath power missing: %+v", p)
	}
	if p.DynSPMRead <= 0 || p.DynSPMWrite <= 0 {
		t.Fatalf("SPM dynamic power missing: %+v", p)
	}
	if p.StaticFU <= 0 || p.StaticReg <= 0 || p.StaticSPM <= 0 {
		t.Fatalf("static power missing: %+v", p)
	}
	if p.TotalMW() <= p.DatapathMW() {
		t.Fatal("total power should exceed datapath-only power")
	}
	if p.TotalAreaUM2() <= 0 {
		t.Fatal("no area")
	}
	// Without an SPM the SPM categories are zero.
	p2 := r.acc.Power(nil, elapsed)
	if p2.DynSPMRead != 0 || p2.StaticSPM != 0 {
		t.Fatal("SPM categories leak without an SPM")
	}
}

func TestElaborateCountsAndLimits(t *testing.T) {
	f, _ := buildVecAdd(t)
	g, err := Elaborate(f, hw.Default40nm(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// One fadd in the kernel -> one dedicated FP adder.
	if g.FUCount(hw.FUFPAdder) != 1 {
		t.Fatalf("fp adders = %d", g.FUCount(hw.FUFPAdder))
	}
	// GEPs (3) + iv add (1) -> 4 int adders.
	if g.FUCount(hw.FUIntAdder) != 4 {
		t.Fatalf("int adders = %d", g.FUCount(hw.FUIntAdder))
	}
	if g.RegBits == 0 || g.RegCount == 0 {
		t.Fatal("no registers counted")
	}
	if g.Summary() == "" {
		t.Fatal("empty summary")
	}

	// A limit below demand caps the pool; above demand it is ignored.
	g2, _ := Elaborate(f, hw.Default40nm(), map[hw.FUClass]int{hw.FUIntAdder: 2, hw.FUFPAdder: 99})
	if g2.FUCount(hw.FUIntAdder) != 2 {
		t.Fatalf("limited int adders = %d", g2.FUCount(hw.FUIntAdder))
	}
	if g2.FUCount(hw.FUFPAdder) != 1 {
		t.Fatalf("over-provisioned limit changed count: %d", g2.FUCount(hw.FUFPAdder))
	}
}

func TestDataDependentControlFlow(t *testing.T) {
	// Kernel with a data-dependent branch: count elements > threshold and
	// conditionally transform them — exercises phi resolution on both
	// edges and branchy reservation-queue behaviour.
	m := ir.NewModule("c")
	b := ir.NewBuilder(m)
	f := b.Func("thresh", ir.I64,
		ir.P("a", ir.Ptr(ir.F64)), ir.P("n", ir.I64), ir.P("t", ir.F64))
	a, n, th := f.Params[0], f.Params[1], f.Params[2]
	cnt := b.LoopCarried("i", ir.I64c(0), n, 1, []ir.Value{ir.I64c(0)},
		func(iv ir.Value, cv []ir.Value) []ir.Value {
			p := b.GEP(a, "p", iv)
			v := b.Load(p, "v")
			isBig := b.FCmp(ir.FOGT, v, th, "big")
			newCnt := b.IfValue(isBig, "br", func() ir.Value {
				b.Store(b.FMul(v, ir.F64c(-1), "neg"), p)
				return b.Add(cv[0], ir.I64c(1), "inc")
			}, func() ir.Value {
				return cv[0]
			})
			return []ir.Value{newCnt}
		})
	b.Ret(cnt[0])

	r := newRig(t, f, DefaultConfig(), nil)
	nn := 20
	aA := r.space.AllocFor(ir.F64, nn)
	for i := 0; i < nn; i++ {
		r.space.WriteF64(aA+uint64(i*8), float64(i-10)) // -10..9
	}
	runToDone(t, r, []uint64{aA, uint64(nn), ir.FloatToBits(ir.F64, 0)})
	if got := int64(r.acc.RetBits()); got != 9 { // 1..9 are > 0
		t.Fatalf("count = %d, want 9", got)
	}
	// Positive elements negated, others untouched.
	for i := 0; i < nn; i++ {
		want := float64(i - 10)
		if want > 0 {
			want = -want
		}
		if got := r.space.ReadF64(aA + uint64(i*8)); got != want {
			t.Fatalf("a[%d] = %g, want %g", i, got, want)
		}
	}
}

func TestAcceleratorReinvocation(t *testing.T) {
	f, setup := buildVecAdd(t)
	r := newRig(t, f, DefaultConfig(), nil)
	args := setup(r.space, 8)
	runToDone(t, r, args)
	c1 := r.acc.LastKernelCycles()
	// Run again on the same accelerator.
	runToDone(t, r, args)
	if r.acc.Invocations.Value() != 2 {
		t.Fatalf("invocations = %g", r.acc.Invocations.Value())
	}
	if r.acc.LastKernelCycles() == 0 || c1 == 0 {
		t.Fatal("kernel cycles not tracked per invocation")
	}
}
