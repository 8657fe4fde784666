// Command salam-sim runs one accelerator simulation from a JSON
// configuration file (see configs/ for examples) and dumps results.
//
// Usage:
//
//	salam-sim -config configs/gemm_spm.json [-stats] [-timeline trace.json] [-timeline-breakdown]
//	salam-sim -config cfg.json -checkpoint img.gsnp -checkpoint-cycle 5000
//	salam-sim -config cfg.json -restore img.gsnp
//	salam-sim -config cfg.json -sample 3/20
package main

import (
	"flag"
	"fmt"
	"os"

	salam "gosalam"
	"gosalam/internal/snapshot"
	"gosalam/internal/soccfg"
	"gosalam/internal/timeline"
	"gosalam/kernels"
)

func main() {
	cfgPath := flag.String("config", "", "JSON run configuration")
	dumpStats := flag.Bool("stats", false, "dump the full statistics tree")
	profile := flag.String("profile", "", "write a per-cycle profile CSV here")
	tracePath := flag.String("timeline", "", "write a Perfetto-loadable trace_event JSON here")
	breakdown := flag.Bool("timeline-breakdown", false, "print the per-lane cycle-class breakdown (Fig. 10 style)")
	ckptPath := flag.String("checkpoint", "", "pause mid-run and write a snapshot image here (requires -checkpoint-cycle)")
	ckptCycle := flag.Uint64("checkpoint-cycle", 0, "accelerator cycle to pause at for -checkpoint")
	restorePath := flag.String("restore", "", "land a snapshot image written by -checkpoint and resume from it")
	samp := flag.String("sample", "", "interval sampling as k/n: simulate k of n committed-op intervals in detail and extrapolate the rest")
	flag.Parse()

	if *cfgPath == "" {
		fmt.Fprintln(os.Stderr, "need -config")
		os.Exit(2)
	}
	if *samp != "" && (*ckptPath != "" || *restorePath != "") {
		fmt.Fprintln(os.Stderr, "-sample cannot be combined with -checkpoint/-restore")
		os.Exit(2)
	}
	if *ckptPath != "" && *restorePath != "" {
		fmt.Fprintln(os.Stderr, "use either -checkpoint or -restore, not both")
		os.Exit(2)
	}
	if (*ckptPath != "") != (*ckptCycle != 0) {
		fmt.Fprintln(os.Stderr, "-checkpoint and -checkpoint-cycle go together")
		os.Exit(2)
	}
	cfg, err := soccfg.Load(*cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if cfg.Version != 0 {
		fmt.Fprintf(os.Stderr, "%s is a topology (version %d) config; salam-sim runs flat single-accelerator configs — inspect topologies with salam config info\n", *cfgPath, cfg.Version)
		os.Exit(2)
	}
	k, opts, err := salam.KernelFromConfig(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *profile != "" {
		opts.ProfileCycles = 1 << 20
	}
	var traceJSON *timeline.JSON
	var traceBreak *timeline.Breakdown
	{
		var recs []timeline.Recorder
		if *tracePath != "" {
			traceJSON = timeline.NewJSON()
			recs = append(recs, traceJSON)
		}
		if *breakdown {
			traceBreak = timeline.NewBreakdown()
			recs = append(recs, traceBreak)
		}
		switch len(recs) {
		case 0:
		case 1:
			opts.Timeline = recs[0]
		default:
			opts.Timeline = timeline.NewTee(recs...)
		}
	}
	if *samp != "" {
		var kk, nn int
		if _, err := fmt.Sscanf(*samp, "%d/%d", &kk, &nn); err != nil {
			fmt.Fprintf(os.Stderr, "bad -sample %q: want k/n, e.g. 3/20\n", *samp)
			os.Exit(2)
		}
		opts.Sample = salam.SampleSpec{K: kk, N: nn}
	}

	var res *salam.Result
	switch {
	case *restorePath != "":
		res, err = restoreRun(k, opts, *restorePath)
	case *ckptPath != "":
		res, err = checkpointRun(k, opts, *ckptPath, *ckptCycle)
	default:
		res, err = salam.RunKernel(k, opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("kernel:          %s\n", k.Name)
	if res.Estimated {
		fmt.Printf("cycles:          %d (estimated, ±%.2f%%)\n", res.Cycles, res.SampleError*100)
		fmt.Printf("simulated time:  %.3f µs (estimated)\n", float64(res.Ticks)/1e6)
		fmt.Printf("sampled:         %d detailed intervals, %d/%d ops simulated (%.4f cycles/op steady rate)\n",
			len(res.Sample.Intervals), res.Sample.MeasuredOps,
			res.Sample.MeasuredOps+res.Sample.RemainingOps, res.Sample.CyclesPerOp)
		fmt.Printf("golden check:    skipped (sampled run)\n")
	} else {
		fmt.Printf("cycles:          %d\n", res.Cycles)
		fmt.Printf("simulated time:  %.3f µs\n", float64(res.Ticks)/1e6)
		fmt.Printf("golden check:    ok\n")
	}
	fmt.Printf("power:           %s\n", res.Power)
	fmt.Printf("datapath area:   %.0f µm² (+ %.0f µm² memory)\n",
		res.Power.AreaFU+res.Power.AreaReg, res.Power.AreaSPM)
	if *dumpStats {
		fmt.Println("---- statistics ----")
		res.Stats.Dump(os.Stdout)
	}
	if *profile != "" {
		f, err := os.Create(*profile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := res.Acc.Profile().WriteCSV(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		iss, stall, avg := res.Acc.Profile().Summary()
		fmt.Printf("profile:         %s (%d samples; %d issue cycles, %d stalls, avg queue %.1f)\n",
			*profile, len(res.Acc.Profile().Samples), iss, stall, avg)
	}
	if traceJSON != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		werr := traceJSON.Write(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, werr)
			os.Exit(1)
		}
		fmt.Printf("timeline:        %s (%d events; load in ui.perfetto.dev or chrome://tracing)\n",
			*tracePath, traceJSON.Events())
	}
	if traceBreak != nil {
		fmt.Println("---- cycle breakdown ----")
		traceBreak.WriteTable(os.Stdout)
	}
}

// checkpointRun pauses the run at the given accelerator cycle, writes the
// snapshot image, and resumes to completion so the printed result is the
// full (exact) run.
func checkpointRun(k *kernels.Kernel, opts salam.RunOpts, path string, cycle uint64) (*salam.Result, error) {
	s, err := salam.NewSession(k, opts)
	if err != nil {
		return nil, err
	}
	finished, err := s.RunToCycle(opts, cycle)
	if err != nil {
		return nil, err
	}
	if finished {
		fmt.Fprintf(os.Stderr, "warning: kernel finished before cycle %d; no checkpoint written\n", cycle)
		return s.Resume(opts)
	}
	img, err := s.Checkpoint()
	if err != nil {
		return nil, err
	}
	enc, err := img.Encode()
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("checkpoint:      %s (%d bytes at cycle %d)\n", path, len(enc), cycle)
	return s.Resume(opts)
}

// restoreRun lands a snapshot image in a fresh session and resumes it. The
// config must match the one the image was captured under; Restore refuses
// a mismatched fingerprint.
func restoreRun(k *kernels.Kernel, opts salam.RunOpts, path string) (*salam.Result, error) {
	enc, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	img, err := snapshot.Decode(enc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s, err := salam.NewSession(k, opts)
	if err != nil {
		return nil, err
	}
	if err := s.Restore(opts, img); err != nil {
		return nil, err
	}
	fmt.Printf("restored:        %s\n", path)
	return s.Resume(opts)
}
