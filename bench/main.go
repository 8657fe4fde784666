// Command bench is gosalam's accept/reject benchmark: six named workloads,
// five end-to-end metrics measured with tracing off, and a separate traced
// pass that attributes host time to the module that spent it by timing
// calls into each module's public functions. BENCHMARK.json at the
// repository root names every workload and metric; README.md in this
// directory is the glossary.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload engine_spm --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh                 # every workload, both passes
//	bash bench/run.sh --calibrate 5   # the bounds table
//
// Every block of a pass runs in a fresh process of this binary, so each
// block's set-up starts from process start and each block's ops run on an
// empty heap and empty process-wide caches.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	salam "gosalam"
)

// workloads are the six named workloads, with why each exists. warmups
// and perBlock size set-up to about a second and the timed part to about
// nominalSeconds; dse_serve needs no warm-up op because its reference run
// and the /statsz read before each op already exercise the whole stack.
var workloads = []*workload{
	// One op = one warm Session.Run of each dense MachSuite kernel on the
	// private SPM. Tick, event queue and SPM do all the work, so an
	// engine-loop gain shows here undiluted.
	{name: "engine_spm", warmups: 2, perBlock: 9, setup: setupEngine(engineSPMKernels, salam.MemSPM)},
	// The same engine on the irregular kernels over the 4 KiB L1 and DRAM:
	// misses, MSHR-full retries, write-backs. An SPM-path gain that costs
	// the cache path shows as a loss here.
	{name: "engine_cache", warmups: 4, perBlock: 12, setup: setupEngine(engineCacheKernels, salam.MemCache)},
	// One op = reset and rerun the DMA-fed conv-relu-pool SoC: the only
	// workload with crossbar, block DMA, stream buffers, MMRs, GIC and host
	// CPU on the path. Session-only changes must not move it.
	{name: "soc_stream", warmups: 4, perBlock: 11, setup: setupSoC},
	// One op = 12 single-kernel invocations from config bytes. Parse,
	// verify, elaborate, the size probe and NewSession dominate: the mirror
	// image of engine_spm.
	{name: "cold_start", warmups: 8, perBlock: 28, setup: setupCold},
	// One op = a 48-point campaign over loopback HTTP against an empty
	// store, submit to last streamed row: engine work behind job keying,
	// store puts, ordered collection and streaming.
	{name: "dse_serve", warmups: 0, perBlock: 3, setup: setupDSE(false), probe: probeDSE(false)},
	// One op = the same space 8 times against the filled store. No
	// simulation hides keying, Store.Get, row encoding and HTTP, and an
	// engine gain must show nothing.
	{name: "dse_replay", warmups: 3, perBlock: 36, setup: setupDSE(true), probe: probeDSE(true)},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run (default: every workload, both passes)")
	seed := flag.Int64("seed", 1, "seed of every generated dataset")
	seconds := flag.Int("seconds", nominalSeconds, "length the op counts are compiled in for; no other value is accepted")
	trace := flag.Int("trace", 0, "1 = the traced pass: per-layer metrics and a span file; 0 = end-to-end metrics")
	calibrate := flag.Int("calibrate", 0, "run the end-to-end passes N times and print spreads and derived bounds")
	block := flag.Int("block", -1, "internal: run one block of the workload in this process and print what it measured")
	flag.Parse()
	if *seconds != nominalSeconds {
		exit(fmt.Errorf("--seconds %d: the op counts are compiled in for %d", *seconds, nominalSeconds))
	}

	switch {
	case *calibrate > 0:
		exit(calibrateSuite(*calibrate, *seed))
	case *name == "":
		exit(runSuite(*seed))
	}
	w := workloadByName(*name)
	if w == nil {
		exit(fmt.Errorf("unknown workload %q", *name))
	}
	if *block >= 0 {
		exit(blockMain(w, *seed, *trace != 0))
	}
	var tr *tracer
	var probes map[string]float64
	if *trace != 0 {
		tr = newTracer()
		var err error
		if probes, err = runProbes(tr, *seed); err != nil {
			exit(fmt.Errorf("layer probes: %w", err))
		}
	}
	res, err := runPass(w, *seed, tr, probes)
	if err != nil {
		exit(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		exit(err)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

func exit(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	os.Exit(0)
}
