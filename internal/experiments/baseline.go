package experiments

import (
	"bytes"
	"fmt"
	"time"

	salam "gosalam"
	"gosalam/internal/core"
	"gosalam/internal/hw"
	"gosalam/internal/trace"
	"gosalam/ir"
	"gosalam/kernels"
)

// Table1 reproduces Table I: the trace-based baseline allocates different
// functional units for the same SPMV-CRS kernel depending on the input
// dataset, while SALAM's statically elaborated datapath is invariant.
func Table1(s Scale) (*Table, error) {
	k := kernels.ByName(s.preset(), "spmv-condshift")
	profile := hw.Default40nm()
	mm := trace.FixedLatency{Cycles: 2, Label: "spm"}

	t := &Table{
		ID:     "table1",
		Title:  "Aladdin-style datapath vs data-dependent execution (SPMV-CRS)",
		Header: []string{"Model", "Dataset", "FMUL", "FADD", "Int Shifter"},
	}
	for seed := int64(2); seed <= 3; seed++ {
		mem := ir.NewFlatMem(0, 1<<24)
		inst := k.Setup(mem, seed)
		tr, err := trace.Generate(k.F, inst.Args, mem, profile)
		if err != nil {
			return nil, err
		}
		dp := trace.BuildDatapath(tr, mm)
		t.AddRow("trace-based", fmt.Sprintf("%d", seed-1),
			itoa(dp.FUCount[hw.FUFPMultiplier]),
			itoa(dp.FUCount[hw.FUFPAdder]),
			itoa(dp.FUCount[hw.FUShifter]))
	}
	// SALAM: the static CDFG is a function of the IR alone.
	g, err := core.Elaborate(k.F, profile, nil)
	if err != nil {
		return nil, err
	}
	for ds := 1; ds <= 2; ds++ {
		t.AddRow("gosalam (static)", itoa(ds),
			itoa(g.FUCount(hw.FUFPMultiplier)),
			itoa(g.FUCount(hw.FUFPAdder)),
			itoa(g.FUCount(hw.FUShifter)))
	}
	t.Note("Dataset 2 contains values that trigger the conditional shift; " +
		"the baseline's datapath changes with the data, SALAM's does not (paper Table I).")
	return t, nil
}

// Table2 reproduces Table II: the baseline's reverse-engineered datapath
// for fully-unrolled GEMM varies with cache size and memory type, while
// SALAM decouples the datapath from the memory hierarchy.
func Table2(s Scale) (*Table, error) {
	k := kernels.ByName(s.preset(), "gemm-unrolled")
	profile := hw.Default40nm()
	mem := ir.NewFlatMem(0, 1<<24)
	inst := k.Setup(mem, 1)
	tr, err := trace.Generate(k.F, inst.Args, mem, profile)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "table2",
		Title:  "Aladdin-style datapath vs memory design (GEMM n-cubed, fully unrolled)",
		Header: []string{"Model", "Memory", "FMUL", "FADD"},
	}
	sizes := []int{256, 512, 1024, 2048, 4096, 8192, 16384}
	for _, sz := range sizes {
		probe := trace.NewCacheProbe(sz, 64, 2, 2, 20)
		dp := trace.BuildDatapath(tr, probe)
		t.AddRow("trace-based", probe.Name(),
			itoa(dp.FUCount[hw.FUFPMultiplier]), itoa(dp.FUCount[hw.FUFPAdder]))
	}
	dpSPM := trace.BuildDatapath(tr, trace.FixedLatency{Cycles: 1, Label: "SPM"})
	t.AddRow("trace-based", "SPM",
		itoa(dpSPM.FUCount[hw.FUFPMultiplier]), itoa(dpSPM.FUCount[hw.FUFPAdder]))

	g, err := core.Elaborate(k.F, profile, nil)
	if err != nil {
		return nil, err
	}
	t.AddRow("gosalam (static)", "any",
		itoa(g.FUCount(hw.FUFPMultiplier)), itoa(g.FUCount(hw.FUFPAdder)))
	t.Note("The baseline's FU allocation follows data availability under each memory " +
		"configuration; SALAM's static datapath lets memory and datapath sweep independently (paper Table II).")
	return t, nil
}

// Table4 reproduces Table IV: wall-clock preprocessing and simulation time
// of the trace-based baseline vs gosalam, per benchmark.
func Table4(s Scale) (*Table, error) {
	preset := s.preset()
	profile := hw.Default40nm()
	t := &Table{
		ID:    "table4",
		Title: "Simulator setup and runtime execution timing",
		Header: []string{"Benchmark", "Trace-Gen (s)", "Trace-Sim (s)",
			"Compile (s)", "SALAM-Sim (s)", "Preprocess Speedup", "Sim Speedup"},
	}
	var prodPre, prodSim float64
	count := 0
	for _, k := range kernels.All(preset) {
		mem := ir.NewFlatMem(0, 1<<24)
		inst := k.Setup(mem, 1)

		// Baseline preprocessing: instrumented run + gzip trace on "disk".
		t0 := time.Now()
		tr, err := trace.Generate(k.F, inst.Args, mem, profile)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			return nil, err
		}
		traceGen := time.Since(t0).Seconds()

		// Baseline simulation: load trace, rebuild graph, schedule it.
		t0 = time.Now()
		tr2, err := trace.Read(&buf)
		if err != nil {
			return nil, err
		}
		mm := trace.FixedLatency{Cycles: 2, Label: "spm"}
		dp := trace.BuildDatapath(tr2, mm)
		trace.Simulate(tr2, dp, mm, 2, 2)
		traceSim := time.Since(t0).Seconds()

		// SALAM preprocessing: just (re)build + elaborate the kernel.
		t0 = time.Now()
		k2 := kernels.ByName(preset, k.Name)
		if _, err := core.Elaborate(k2.F, profile, nil); err != nil {
			return nil, err
		}
		compile := time.Since(t0).Seconds()

		// SALAM simulation: the execute-in-execute engine.
		t0 = time.Now()
		if _, err := salam.RunKernel(k, salam.DefaultRunOpts()); err != nil {
			return nil, err
		}
		salamSim := time.Since(t0).Seconds()

		preSpeed := safeDiv(traceGen, compile)
		simSpeed := safeDiv(traceSim, salamSim)
		prodPre += preSpeed
		prodSim += simSpeed
		count++
		t.AddRow(k.Name, f6(traceGen), f6(traceSim), f6(compile), f6(salamSim),
			f1(preSpeed)+"x", f1(simSpeed)+"x")
	}
	t.AddRow("Average", "-", "-", "-", "-",
		f1(prodPre/float64(count))+"x", f1(prodSim/float64(count))+"x")
	t.Note("Wall-clock on this host. The paper reports average speedups of 123x " +
		"(preprocess) and 697x (simulation); the expected shape is large speedups in SALAM's favor.")
	return t, nil
}

func f6(v float64) string { return fmt.Sprintf("%.3g", v) }

func safeDiv(a, b float64) float64 {
	if b <= 0 {
		b = 1e-9
	}
	return a / b
}
