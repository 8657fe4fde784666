package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
)

// blockMain is the whole life of a block's process: run the block with the
// workload's compiled-in counts and print what it measured as one line.
func blockMain(w *workload, seed int64, traced bool) error {
	r, err := runBlock(w, seed, w.warmups, w.perBlock, traced, processStart)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(r)
}

// spawnBlocks runs each block as a fresh process of this binary. Set-up
// then starts from process start every time, and every block's ops run on
// an empty heap and empty process-wide caches: a workload that leaves
// something behind per op (cold_start, dse_replay) repeats the same short
// climb in every block and does not drift over the pass.
func spawnBlocks(w *workload, seed int64) blockRunner {
	return func(b int, traced bool) (*blockResult, error) {
		self, err := os.Executable()
		if err != nil {
			return nil, err
		}
		trace := "0"
		if traced {
			trace = "1"
		}
		cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
			"--block", strconv.Itoa(b), "--trace", trace)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s block %d: %w", w.name, b, err)
		}
		r := &blockResult{}
		if err := json.Unmarshal(out, r); err != nil {
			return nil, fmt.Errorf("%s block %d: %w", w.name, b, err)
		}
		return r, nil
	}
}

// runPass measures one pass of w, prints its summary and returns its
// result line. tr selects the traced pass; probes are the layer-probe
// metrics recorded on a tracer earlier (they are the same under every
// workload, so the suite runs them once).
func runPass(w *workload, seed int64, tr *tracer, probes map[string]float64) (result, error) {
	p, err := measure(w, seed, w.shape(), tr, spawnBlocks(w, seed))
	if err != nil {
		return result{}, err
	}
	p.probes = probes
	if tr != nil && w.probe != nil {
		own, err := w.probe(seed, tr)
		if err != nil {
			return result{}, fmt.Errorf("%s: probe: %w", w.name, err)
		}
		p.probes = maps.Clone(probes)
		maps.Copy(p.probes, own)
	}
	if tr != nil {
		path := filepath.Join(outDir, "trace-"+w.name+".json")
		if err := tr.write(path, w.name, seed); err != nil {
			return result{}, err
		}
		fmt.Printf("trace: %d spans in %s\n", len(tr.spans), path)
	}
	return p.report(os.Stdout), nil
}

// runSuite runs every workload, end-to-end pass then traced pass, and
// fails if any op of any pass failed.
func runSuite(seed int64) error {
	failed := 0
	var probes map[string]float64
	for _, w := range workloads {
		res, err := runPass(w, seed, nil, nil)
		if err != nil {
			return err
		}
		failed += res.Failed
		tr := newTracer()
		if probes == nil {
			if probes, err = runProbes(tr, seed); err != nil {
				return fmt.Errorf("layer probes: %w", err)
			}
		}
		if res, err = runPass(w, seed, tr, probes); err != nil {
			return err
		}
		failed += res.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d failed ops", failed)
	}
	return nil
}

// maxTimingBound is the widest a timing bound may be; a (workload, metric)
// pair that needs more is not fit to gate.
const maxTimingBound = 0.10

// calibrateSuite runs the end-to-end pass of every workload n times on one
// seed — every block of every pass a fresh process — and prints per
// (workload, metric) the median, the extremes, spread = (max - min) /
// median and the bound that supports: 3 x spread, no less than 0.05.
// allocs_per_op is a count and is held to 0.01. It fails when a pair needs
// more than maxTimingBound, or when the blocks of one pass disagreed by
// more than that (the op is not stationary).
func calibrateSuite(n int, seed int64) error {
	fmt.Printf("| workload | metric | median | min | max | spread | 3 x spread | bound |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|\n")
	var unfit []string
	for _, w := range workloads {
		values := map[string][]float64{}
		var blockSpreads []float64
		for i := 0; i < n; i++ {
			p, err := measure(w, seed, w.shape(), nil, spawnBlocks(w, seed))
			if err != nil {
				return err
			}
			if len(p.failures) > 0 {
				return fmt.Errorf("%s: %s", w.name, p.failures[0])
			}
			for name, m := range p.endToEnd() {
				values[name] = append(values[name], m.Value)
			}
			blockSpreads = append(blockSpreads, blockSpread(p.timed(false)))
		}
		for _, m := range endToEndMetrics {
			v := values[m[0]]
			med, lo, hi := median(v), slices.Min(v), slices.Max(v)
			spread := (hi - lo) / med
			bound, fit := math.Min(maxTimingBound, math.Max(0.05, 3*spread)), 3*spread <= maxTimingBound
			if m[0] == "allocs_per_op" {
				bound, fit = 0.01, spread <= 0.01
			}
			note := ""
			if !fit {
				note = " unfit"
				unfit = append(unfit, w.name+"/"+m[0])
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %.6g | %.4f | %.4f | %.2f%s |\n",
				w.name, m[0], med, lo, hi, spread, 3*spread, bound, note)
		}
		worst := slices.Max(blockSpreads)
		fmt.Printf("| %s | run.block_spread | %.4f | %.4f | %.4f | | | |\n",
			w.name, median(blockSpreads), slices.Min(blockSpreads), worst)
		if worst > maxTimingBound {
			unfit = append(unfit, w.name+"/run.block_spread")
		}
	}
	if len(unfit) > 0 {
		return fmt.Errorf("not fit to gate at %.2f: %v", maxTimingBound, unfit)
	}
	return nil
}
