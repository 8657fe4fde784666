package core

import (
	"strings"
	"testing"

	"gosalam/internal/hw"
	"gosalam/internal/mem"
	"gosalam/ir"
)

func TestStartWhileBusyPanics(t *testing.T) {
	f, setup := buildVecAdd(t)
	r := newRig(t, f, DefaultConfig(), nil)
	args := setup(r.space, 8)
	r.acc.Start(args)
	defer func() {
		if recover() == nil {
			t.Fatal("double start did not panic")
		}
	}()
	r.acc.Start(args)
}

func TestStartWrongArgCountPanics(t *testing.T) {
	f, _ := buildVecAdd(t)
	r := newRig(t, f, DefaultConfig(), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong arg count did not panic")
		}
	}()
	r.acc.Start([]uint64{1})
}

func TestElaborateRejectsBadIR(t *testing.T) {
	m := ir.NewModule("bad")
	f := m.NewFunction("f", ir.Void)
	f.NewBlock("entry") // no terminator
	if _, err := Elaborate(f, hw.Default40nm(), nil); err == nil {
		t.Fatal("unverifiable IR accepted")
	}
}

func TestLoadFromOutputStreamPanics(t *testing.T) {
	m := ir.NewModule("s")
	b := ir.NewBuilder(m)
	f := b.Func("f", ir.Void, ir.P("p", ir.Ptr(ir.F64)))
	b.Store(b.Load(f.Params[0], "v"), f.Params[0])
	b.Ret(nil)

	r := newRig(t, f, DefaultConfig(), nil)
	buf := mem.NewStreamBuffer("b", r.q, 64, r.stats)
	win := mem.AddrRange{Base: 0xE0000000, Size: 0x1000}
	r.comm.AttachStream(win, buf, StreamOut) // output-only window

	defer func() {
		if recover() == nil {
			t.Fatal("load from output stream window did not panic")
		}
	}()
	r.acc.Start([]uint64{win.Base})
	r.q.Run()
}

func TestWindowIndex(t *testing.T) {
	f, _ := buildVecAdd(t)
	r := newRig(t, f, DefaultConfig(), nil)
	buf := mem.NewStreamBuffer("b", r.q, 64, r.stats)
	r.comm.AttachStream(mem.AddrRange{Base: 0xE0000000, Size: 0x1000}, buf, StreamIn)
	r.comm.AttachStream(mem.AddrRange{Base: 0xE0010000, Size: 0x1000}, buf, StreamOut)
	if r.comm.WindowIndex(0xE0000010) != 0 {
		t.Fatal("first window not found")
	}
	if r.comm.WindowIndex(0xE0010010) != 1 {
		t.Fatal("second window not found")
	}
	if r.comm.WindowIndex(0x1000) != -1 {
		t.Fatal("non-window address matched")
	}
}

func TestCDFGSummaryAndPowerString(t *testing.T) {
	f, setup := buildVecAdd(t)
	r := newRig(t, f, DefaultConfig(), nil)
	runToDone(t, r, setup(r.space, 8))
	s := r.acc.CDFG.Summary()
	for _, want := range []string{"fp_adder", "int_adder", "blocks"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
	p := r.acc.Power(r.spm, r.q.Now())
	if !strings.Contains(p.String(), "total=") {
		t.Fatalf("power string: %s", p.String())
	}
}

func TestHazardStats(t *testing.T) {
	// Port-starved run must record load-port hazards.
	m := ir.NewModule("h")
	b := ir.NewBuilder(m)
	f := b.Func("f", ir.Void, ir.P("a", ir.Ptr(ir.F64)), ir.P("c", ir.Ptr(ir.F64)))
	b.LoopUnrolled("i", ir.I64c(0), ir.I64c(32), 1, 8, func(iv ir.Value) {
		v := b.Load(b.GEP(f.Params[0], "p", iv), "v")
		b.Store(v, b.GEP(f.Params[1], "q", iv))
	})
	b.Ret(nil)
	cfg := DefaultConfig()
	cfg.ReadPorts, cfg.WritePorts = 1, 1
	cfg.ResQueueSize = 256
	r := newRig(t, f, cfg, nil)
	aA := r.space.AllocFor(ir.F64, 32)
	cA := r.space.AllocFor(ir.F64, 32)
	runToDone(t, r, []uint64{aA, cA})
	if r.acc.HazardCycles.Value() == 0 {
		t.Fatal("no hazard cycles under port starvation")
	}
	if r.acc.HazardKinds.Total() != r.acc.HazardCycles.Value() {
		t.Fatalf("hazard kinds %g != hazard cycles %g",
			r.acc.HazardKinds.Total(), r.acc.HazardCycles.Value())
	}
	foundLoad := false
	for _, k := range r.acc.HazardKinds.Keys() {
		if strings.Contains(k, "load_ports") {
			foundLoad = true
		}
	}
	if !foundLoad {
		t.Fatalf("no load-port hazards recorded: %v", r.acc.HazardKinds.Keys())
	}
}

func TestActivityFractionPredicates(t *testing.T) {
	f, setup := buildVecAdd(t)
	r := newRig(t, f, DefaultConfig(), nil)
	runToDone(t, r, setup(r.space, 32))
	all := r.acc.ActivityFraction(func(l, s, fp bool) bool { return true })
	if all < 0.999 || all > 1.001 {
		t.Fatalf("total activity fraction = %g, want 1", all)
	}
	none := r.acc.ActivityFraction(func(l, s, fp bool) bool { return false })
	if none != 0 {
		t.Fatalf("empty predicate = %g", none)
	}
	loads := r.acc.ActivityFraction(func(l, s, fp bool) bool { return l })
	if loads <= 0 {
		t.Fatal("no load activity in a load-heavy kernel")
	}
}

func TestFUOccupancyBounds(t *testing.T) {
	// Even for pipelined units under heavy reuse, occupancy stays in [0,1].
	m := ir.NewModule("o")
	b := ir.NewBuilder(m)
	f := b.Func("f", ir.Void, ir.P("a", ir.Ptr(ir.F64)), ir.P("c", ir.Ptr(ir.F64)))
	b.LoopUnrolled("i", ir.I64c(0), ir.I64c(64), 1, 8, func(iv ir.Value) {
		v := b.Load(b.GEP(f.Params[0], "p", iv), "v")
		b.Store(b.FMul(v, ir.F64c(2), "m"), b.GEP(f.Params[1], "q", iv))
	})
	b.Ret(nil)
	cfg := DefaultConfig()
	cfg.ReadPorts, cfg.WritePorts, cfg.MaxOutstanding = 8, 8, 32
	cfg.ResQueueSize = 512
	r := newRig(t, f, cfg, map[hw.FUClass]int{hw.FUFPMultiplier: 1})
	aA := r.space.AllocFor(ir.F64, 64)
	cA := r.space.AllocFor(ir.F64, 64)
	runToDone(t, r, []uint64{aA, cA})
	for _, c := range hw.AllFUClasses() {
		occ := r.acc.FUOccupancy(c)
		if occ < 0 || occ > 1 {
			t.Fatalf("%s occupancy = %g", c, occ)
		}
	}
	// The single shared multiplier should be hot.
	if r.acc.FUOccupancy(hw.FUFPMultiplier) < 0.3 {
		t.Fatalf("shared multiplier occupancy = %g, expected high",
			r.acc.FUOccupancy(hw.FUFPMultiplier))
	}
}

func TestCycleProfile(t *testing.T) {
	f, setup := buildVecAdd(t)
	r := newRig(t, f, DefaultConfig(), nil)
	prof := r.acc.EnableProfile(0)
	runToDone(t, r, setup(r.space, 32))
	if len(prof.Samples) == 0 {
		t.Fatal("no samples")
	}
	if float64(len(prof.Samples)) != r.acc.ActiveCycles.Value() {
		t.Fatalf("samples %d != active cycles %g", len(prof.Samples), r.acc.ActiveCycles.Value())
	}
	// Per-cycle issue counts must total the aggregate counters.
	var loads, stores int
	for _, s := range prof.Samples {
		loads += int(s.Loads)
		stores += int(s.Stores)
	}
	if float64(loads) != r.acc.IssuedByClass.Get("load") ||
		float64(stores) != r.acc.IssuedByClass.Get("store") {
		t.Fatalf("profile loads/stores %d/%d disagree with aggregates %g/%g",
			loads, stores, r.acc.IssuedByClass.Get("load"), r.acc.IssuedByClass.Get("store"))
	}
	var sb strings.Builder
	if err := prof.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "cycle,loads,stores") {
		t.Fatal("CSV header missing")
	}
	iss, _, avg := prof.Summary()
	if iss == 0 || avg <= 0 {
		t.Fatalf("summary: issue=%d avg=%g", iss, avg)
	}

	// Bounded capacity drops samples rather than growing.
	prof2 := r.acc.EnableProfile(4)
	runToDone(t, r, setup(r.space, 32))
	if len(prof2.Samples) != 4 || prof2.Dropped == 0 {
		t.Fatalf("cap not honored: %d samples, %d dropped", len(prof2.Samples), prof2.Dropped)
	}
}
