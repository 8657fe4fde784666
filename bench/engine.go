package main

import (
	"errors"
	"fmt"
	"strings"

	salam "gosalam"
	"gosalam/kernels"
)

// engineSPMKernels are the dense MachSuite kernels of engine_spm. Every
// one has a cycle count that does not depend on its data (MD-Grid at
// density 2 fills every cell with exactly two atoms), so the op does the
// same work under every seed.
func engineSPMKernels() []*kernels.Kernel {
	return []*kernels.Kernel{
		kernels.GEMM(28, 1), kernels.FFT(512), kernels.MDKnn(128, 16), kernels.MDGrid(4, 2),
		kernels.NW(64), kernels.Stencil2D(40, 40), kernels.Stencil3D(14, 14, 14),
	}
}

// engineCacheKernels are the irregular kernels of engine_cache, plus GEMM
// for capacity misses. Their cycle counts move by well under 1% with the
// seed (graph and matrix structure).
func engineCacheKernels() []*kernels.Kernel {
	return []*kernels.Kernel{
		kernels.BFS(256, 4), kernels.BFSQueue(1024, 4), kernels.SPMV(768, 5), kernels.GEMM(24, 1),
	}
}

// engineInst is one warm Session per kernel.
type engineInst struct {
	opts     salam.RunOpts
	sessions []*salam.Session
	last     []*salam.Result
	ref      string // fingerprint of the cold runs
}

func setupEngine(build func() []*kernels.Kernel, mem salam.MemKind) func(int64) (instance, error) {
	return func(seed int64) (instance, error) { return newEngine(build(), mem, seed) }
}

func newEngine(ks []*kernels.Kernel, mem salam.MemKind, seed int64) (*engineInst, error) {
	e := &engineInst{opts: salam.DefaultRunOpts(), last: make([]*salam.Result, len(ks))}
	e.opts.Seed = seed
	e.opts.Mem = mem
	for i, k := range ks {
		s, err := salam.NewSession(k, e.opts)
		if err != nil {
			return nil, err
		}
		e.sessions = append(e.sessions, s)
		// The first run of a session is the cold one; every later op is
		// warm and must reproduce it exactly.
		if e.last[i], err = s.Run(e.opts); err != nil {
			return nil, err
		}
	}
	e.ref = fingerprint(e.last)
	return e, nil
}

// fingerprint renders (cycles, ticks, events fired) of each run.
func fingerprint(rs []*salam.Result) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "%d/%d/%d;", r.Cycles, uint64(r.Ticks), r.EventsFired)
	}
	return b.String()
}

func (e *engineInst) prepare() error { return nil }

func (e *engineInst) op(tr *tracer) error {
	for i, s := range e.sessions {
		var err error
		if tr == nil {
			e.last[i], err = s.Run(e.opts)
		} else {
			e.last[i], err = tracedRun(tr, s, e.opts)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// tracedRun is Session.Run taken apart at its public seams: the warm
// prologue (RunToCycle to cycle 0), the event loop (Resume, golden check
// off), and the golden check made from here. Same work, three spans.
func tracedRun(tr *tracer, s *salam.Session, opts salam.RunOpts) (res *salam.Result, err error) {
	opts.SkipCheck = true
	tr.do("salam.warm_begin", func() { _, err = s.RunToCycle(opts, 0) })
	if err != nil {
		return nil, err
	}
	tr.do("salam.run_loop", func() { res, err = s.Resume(opts) })
	if err != nil {
		return nil, err
	}
	tr.do("kernels.check", func() { err = res.Instance.Check(res.Space) })
	return res, err
}

func (e *engineInst) verify() (opOut, error) {
	if fp := fingerprint(e.last); fp != e.ref {
		return opOut{}, errors.New("run diverged from the cold run: " + fp + " vs " + e.ref)
	}
	out := opOut{Points: len(e.last)}
	for _, r := range e.last {
		out.Cycles += r.Cycles
	}
	return out, nil
}

func (e *engineInst) counts(into map[string]float64) {
	for _, r := range e.last {
		addRunCounts(into, r)
	}
}

func (e *engineInst) close() {}

// addRunCounts adds one single-accelerator run's exact counts, read from
// its Result and stats tree.
func addRunCounts(into map[string]float64, r *salam.Result) {
	root := "system." + r.Acc.Name() + "."
	stat := func(path string) float64 {
		v, _ := r.Stats.Lookup(root + path)
		return v
	}
	into["core.sim_cycles_per_op"] += float64(r.Cycles)
	into["core.committed_ops_per_op"] += stat("committed")
	into["sim.events_per_op"] += float64(r.EventsFired)
	into["mem.spm_accesses"] += stat("spm.reads") + stat("spm.writes")
	into["mem.spm_bank_conflicts"] += stat("spm.bank_conflict_cycles")
	into["mem.cache_hits"] += stat("l1.hits")
	into["mem.cache_misses"] += stat("l1.misses")
	into["mem.cache_mshr_full"] += stat("l1.mshr_stall_cycles")
	into["mem.dram_reqs"] += stat("dram.reads") + stat("dram.writes")
}
