package salam

// Interval-sampled simulation (RunOpts.Sample): large-N kernels in
// near-constant detailed-simulation time. The static analysis proves the
// kernel's total committed-op count exactly (counted-trip loop proofs); the
// run is divided into N equal intervals in committed-op space, the first K
// simulate in detail with a checkpoint taken at each boundary, and the
// remaining N-K intervals are extrapolated from the measured steady-state
// rate with a reported error bound. Sampling is the functional-model dual
// of the snapshot machinery: checkpoints prove the detailed prefix is
// resumable, and the analysis proofs justify skipping the rest.

import (
	"fmt"

	"gosalam/internal/sample"
	"gosalam/internal/sim"
	"gosalam/kernels"
)

// SampleEligible reports whether k under opts qualifies for interval
// sampling: every reachable block's trip count must be statically exact,
// which makes the analyzer's total dynamic-op count the kernel's true
// committed-op count. The returned reason names the first offending block
// when not eligible.
func SampleEligible(k *kernels.Kernel, opts RunOpts) (total uint64, reason string, ok bool) {
	rep, err := AnalyzeKernel(k, opts)
	if err != nil {
		return 0, err.Error(), false
	}
	for _, bs := range rep.Sched {
		if !bs.Exact {
			return 0, fmt.Sprintf("block %s has a data-dependent trip count", bs.Block), false
		}
	}
	if rep.Totals.DynOps == 0 {
		return 0, "kernel commits no dynamic ops", false
	}
	return rep.Totals.DynOps, "", true
}

// runSampled is the sampled counterpart of run. It simulates the detailed
// prefix, checkpointing at each interval boundary, then abandons the run
// mid-flight and extrapolates. The session stays marked broken — pooled
// callers drop it — because the skipped intervals leave it mid-simulation
// by design. A kernel that completes inside the prefix degrades to a
// normal exact run.
func (s *Session) runSampled(opts RunOpts, stop func() bool) (*Result, error) {
	spec := opts.Sample
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("salam: %s: %w", s.k.Name, err)
	}
	totalOps, reason, ok := SampleEligible(s.k, opts)
	if !ok {
		return nil, fmt.Errorf("salam: %s is not sampleable: %s", s.k.Name, reason)
	}

	if err := s.begin(opts); err != nil {
		return nil, err
	}
	s.acc.Start(s.inst.Args)

	committed := func() uint64 { return uint64(s.acc.Committed.V) }
	intervals := make([]sample.Interval, 0, spec.K)
	var lastOps, lastCycles uint64
	finished := false
	for j := 1; j <= spec.K && !finished; j++ {
		target := totalOps * uint64(j) / uint64(spec.N)
		finished = s.runUntil(func() bool {
			return committed() >= target || (stop != nil && stop())
		})
		if !finished && stop != nil && stop() {
			return nil, fmt.Errorf("salam: %s canceled", s.k.Name)
		}
		intervals = append(intervals, sample.Interval{
			Ops:    committed() - lastOps,
			Cycles: s.acc.Cycles - lastCycles,
		})
		lastOps, lastCycles = committed(), s.acc.Cycles
		if !finished {
			// The boundary checkpoint: proof the prefix is resumable, and
			// the natural artifact for callers that later want to extend
			// the detailed region from here instead of re-simulating.
			if _, err := s.Checkpoint(); err != nil {
				return nil, fmt.Errorf("salam: %s: interval %d checkpoint: %w", s.k.Name, j, err)
			}
		}
	}
	if finished {
		// The kernel ended inside the detailed prefix — nothing was
		// skipped, so finish normally and return an exact result.
		return s.finish(opts, stop)
	}

	est, err := sample.Extrapolate(intervals, totalOps-lastOps)
	if err != nil {
		return nil, fmt.Errorf("salam: %s: %w", s.k.Name, err)
	}
	res := &Result{
		Stats: s.sys.Stats, Instance: s.inst, Space: s.sys.Space,
		Acc: s.acc, SPM: s.spm, Cache: s.cache,
		Cycles:      est.Cycles,
		Ticks:       s.sys.Q.Now() + sim.Tick(s.acc.Clk.CyclesToTicks(est.Cycles-s.acc.Cycles)),
		EventsFired: s.sys.Q.Fired(),
		Power:       s.acc.Power(s.spm, s.sys.Q.Now()),
		Estimated:   true,
		SampleError: est.ErrorBound,
		Sample:      &est,
	}
	return res, nil
}
