package main

import (
	"fmt"
	"io"
	"os"

	"gosalam/internal/core"
	"gosalam/internal/hw"
	"gosalam/ir"
	"gosalam/kernels"
)

// runLL is the IR tool: it parses, verifies, optimizes, prints, statically
// elaborates, and functionally executes textual IR or built-in kernels.
//
//	salam ll -kernel gemm            # print a MachSuite kernel's IR
//	salam ll -kernel fft -elaborate  # show the static CDFG report
//	salam ll -in kernel.ll -verify   # parse + verify a .ll file
//	salam ll -in kernel.ll -opt      # run constant folding + DCE
func runLL(args []string, stdout, stderr io.Writer) error {
	fs, tgt := newFlags("ll", stderr, kernels.Default)
	inFile := fs.String("in", "", "textual IR file to load")
	doVerify := fs.Bool("verify", false, "verify only; print nothing on success")
	doOpt := fs.Bool("opt", false, "run constant folding, CSE and DCE before printing")
	doElab := fs.Bool("elaborate", false, "print the static elaboration report")
	doInterp := fs.Bool("interp", false, "functionally execute a built-in kernel and check its golden")
	seed := seedFlag(fs)
	unroll := fs.Int("unroll", 0, "unroll canonical loops by this factor")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}

	var m *ir.Module
	var builtin *kernels.Kernel
	switch {
	case tgt.kernel != "":
		k, err := tgt.resolve()
		if err != nil {
			return err
		}
		builtin, m = k, k.M
	case *inFile != "":
		src, err := os.ReadFile(*inFile)
		if err != nil {
			return err
		}
		if m, err = ir.Parse(*inFile, string(src)); err != nil {
			return err
		}
	default:
		return usagef("need -in or -kernel")
	}

	if err := ir.VerifyModule(m); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	for _, f := range m.Funcs {
		if *unroll > 1 {
			for _, l := range ir.FindLoops(f) {
				if err := ir.Unroll(f, l, *unroll); err != nil {
					fmt.Fprintf(stderr, "unroll %s: %v\n", l.Header.Name(), err)
				}
			}
			if err := ir.Verify(f); err != nil {
				return fmt.Errorf("verify after unroll: %w", err)
			}
		}
		if *doOpt {
			ir.Optimize(f)
		}
	}

	switch {
	case *doElab:
		for _, f := range m.Funcs {
			g, err := core.Elaborate(f, hw.Default40nm(), nil)
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, g.Summary())
			fmt.Fprintf(stdout, "  datapath area: %.0f µm², leakage: %.3f mW\n",
				g.AreaUM2(), g.StaticFULeakageMW()+g.StaticRegLeakageMW())
		}
	case *doInterp:
		if builtin == nil {
			return usagef("-interp needs -kernel (goldens come from the workload generator)")
		}
		mem := ir.NewFlatMem(0, 1<<24)
		inst := builtin.Setup(mem, *seed)
		_, stats, err := ir.Exec(builtin.F, inst.Args, mem, nil)
		if err != nil {
			return err
		}
		if err := inst.Check(mem); err != nil {
			return fmt.Errorf("golden mismatch: %w", err)
		}
		fmt.Fprintf(stdout, "kernel:   %s (seed %d)\n", builtin.Name, *seed)
		fmt.Fprintf(stdout, "steps:    %d dynamic instructions\n", stats.Steps)
		fmt.Fprintf(stdout, "memory:   %d reads, %d writes\n", stats.MemReads, stats.MemWrites)
		fmt.Fprintf(stdout, "golden:   ok\n")
	case *doVerify:
		fmt.Fprintln(stderr, "ok")
	default:
		fmt.Fprint(stdout, ir.Print(m))
	}
	return nil
}
