package main

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"gosalam/internal/hw"
	"gosalam/internal/trace"
	"gosalam/ir"
	"gosalam/kernels"
)

func memModel(spec string) (trace.MemModel, error) {
	parts := strings.SplitN(spec, ":", 2)
	switch parts[0] {
	case "spm":
		lat := 2
		if len(parts) == 2 {
			v, err := strconv.Atoi(parts[1])
			if err != nil {
				return nil, err
			}
			lat = v
		}
		return trace.FixedLatency{Cycles: lat, Label: "spm"}, nil
	case "cache":
		size := 4096
		if len(parts) == 2 {
			v, err := strconv.Atoi(parts[1])
			if err != nil {
				return nil, err
			}
			size = v
		}
		return trace.NewCacheProbe(size, 64, 2, 2, 20), nil
	}
	return nil, fmt.Errorf("unknown memory model %q (spm:N or cache:BYTES)", spec)
}

// runTrace drives the Aladdin-style trace-based baseline: it instruments a
// kernel run into a gzip trace file, reverse-engineers the datapath under
// a chosen memory model, and schedules the trace graph — the flow
// gem5-SALAM's Tables I, II and IV compare against.
//
//	salam trace -kernel spmv -out spmv.trace.gz         # generate
//	salam trace -in spmv.trace.gz -mem spm:2            # simulate
//	salam trace -kernel gemm -mem cache:4096            # both in one go
func runTrace(args []string, stdout, stderr io.Writer) error {
	fs, tgt := newFlags("trace", stderr, kernels.Small)
	seed := seedFlag(fs)
	out := fs.String("out", "", "write the gzip trace here")
	in := fs.String("in", "", "simulate an existing trace file")
	memSpec := fs.String("mem", "spm:2", "memory model: spm:LAT or cache:BYTES")
	ports := portsFlag(fs, 2, "read/write ports for trace scheduling")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	mm, err := memModel(*memSpec)
	if err != nil {
		return usageError{err}
	}

	var tr *trace.Trace
	var start time.Time
	switch {
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		start = time.Now()
		tr, err = trace.Read(f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "loaded %d entries in %.2fs\n", len(tr.Entries), time.Since(start).Seconds())
	case tgt.kernel != "":
		k, err := tgt.resolve()
		if err != nil {
			return err
		}
		mem := ir.NewFlatMem(0, 1<<24)
		inst := k.Setup(mem, *seed)
		start = time.Now()
		if tr, err = trace.Generate(k.F, inst.Args, mem, hw.Default40nm()); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "traced %d entries in %.2fs\n", len(tr.Entries), time.Since(start).Seconds())
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return err
			}
			err = tr.Write(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if fi, serr := os.Stat(*out); err == nil && serr == nil {
				fmt.Fprintf(stderr, "wrote %s (%d bytes gzip)\n", *out, fi.Size())
			}
			return err
		}
	default:
		return usagef("need -kernel (generate) or -in (simulate)")
	}

	// Datapath reconstruction + trace-graph scheduling.
	start = time.Now()
	dp := trace.BuildDatapath(tr, mm)
	cycles := trace.Simulate(tr, dp, mm, *ports, *ports)
	fmt.Fprintf(stderr, "scheduled in %.2fs\n", time.Since(start).Seconds())

	fmt.Fprintf(stdout, "memory model:  %s\n", mm.Name())
	fmt.Fprintf(stdout, "trace length:  %d dynamic instructions\n", len(tr.Entries))
	fmt.Fprintf(stdout, "cycles:        %d\n", cycles)
	fmt.Fprintf(stdout, "datapath (reverse-engineered, max per-cycle parallelism):\n")
	for _, c := range hw.AllFUClasses() {
		if n := dp.FUCount[c]; n > 0 {
			fmt.Fprintf(stdout, "  %-16s %d\n", c, n)
		}
	}
	fmt.Fprintf(stdout, "implied area:  %.0f µm²\n", dp.AreaUM2(hw.Default40nm()))
	return nil
}
