package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	salam "gosalam"
	"gosalam/internal/analysis"
	"gosalam/kernels"
)

// runAnalyze prints the static analysis of a kernel's elaborated CDFG
// without simulating it: the provable cycle-count lower bound and the
// component that binds it, the dynamic-energy and EDP floors with their
// per-FU-class breakdown, ASAP/ALAP block schedules, memory-dependence and
// out-of-bounds findings, dead-op and loop reports, and the static
// power/area envelope. The same analysis drives campaign pruning
// (salam-dse) — this is the human-readable view.
//
//	salam analyze -kernel gemm
//	salam analyze -kernel gemm -ports 2 -fu 4 -banks 4 -json
//	salam analyze -all            # one summary line per kernel
//	salam analyze -kernel bfs -sched   # include per-op schedules
func runAnalyze(args []string, stdout, stderr io.Writer) error {
	fs, tgt := newFlags("analyze", stderr, kernels.Small)
	port := portsFlag(fs, 0, "read/write ports (0 = engine default)")
	fu := fs.Int("fu", 0, "FP adder+multiplier limit (0 = dedicated)")
	banks := fs.Int("banks", 0, "scratchpad banks (0 = engine default); shapes the energy bound's SPM access costs")
	asJSON := fs.Bool("json", false, "emit the full report and bound as JSON")
	all := fs.Bool("all", false, "analyze every kernel in the preset, one summary line each")
	withSched := fs.Bool("sched", false, "include per-op ASAP/ALAP schedules in text output")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	opts := salam.DefaultRunOpts()
	opts.SetPoint(*port, *fu, *fu)
	if *banks > 0 {
		opts.SPMBanks = *banks
	}

	if *all {
		p, err := tgt.parsePreset()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "kernel,static_ops,loops,lb_cycles,binding,hazards,oob,dead_ops,no_hazard_proven")
		for _, k := range append(kernels.All(p), kernels.Extras(p)...) {
			rep, err := salam.AnalyzeKernel(k, opts)
			if err != nil {
				return fmt.Errorf("%s: %w", k.Name, err)
			}
			lb := rep.LowerBound(opts.Accel)
			if lb.Cycles == 0 {
				return fmt.Errorf("%s: zero lower bound — analysis derived nothing", k.Name)
			}
			fmt.Fprintf(stdout, "%s,%d,%d,%d,%s,%d,%d,%d,%v\n",
				k.Name, rep.StaticOps, len(rep.Loops), lb.Cycles, lb.Binding,
				len(rep.Mem.Hazards), len(rep.Mem.OOB), len(rep.DeadOps),
				rep.Mem.NoHazardProven)
		}
		return nil
	}

	if tgt.kernel == "" {
		return usagef("-kernel or -all required")
	}
	k, err := tgt.resolve()
	if err != nil {
		return err
	}
	rep, err := salam.AnalyzeKernel(k, opts)
	if err != nil {
		return fmt.Errorf("%s: %w", k.Name, err)
	}
	lb := rep.LowerBound(opts.Accel)
	se, err := salam.StaticEnergyLowerBound(k, opts)
	if err != nil {
		return fmt.Errorf("%s: %w", k.Name, err)
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Report *analysis.Report   `json:"report"`
			Bound  analysis.Bound     `json:"bound"`
			Energy salam.StaticEnergy `json:"energy"`
		}{rep, lb, se})
	}
	render(stdout, rep, lb, se, *withSched)
	return nil
}

func render(w io.Writer, rep *analysis.Report, lb analysis.Bound, se salam.StaticEnergy, withSched bool) {
	fmt.Fprintf(w, "kernel %s: %d blocks (%d reachable), %d static ops\n",
		rep.Function, rep.Blocks, rep.Reachable, rep.StaticOps)

	fmt.Fprintf(w, "\nlower bound: %d cycles, bound by %s (ports r=%d w=%d)\n",
		lb.Cycles, lb.Binding, lb.ReadPorts, lb.WritePorts)
	comps := append([]analysis.Component(nil), lb.Components...)
	sort.Slice(comps, func(i, j int) bool { return comps[i].Cycles > comps[j].Cycles })
	for _, c := range comps {
		fmt.Fprintf(w, "  %-18s %10d\n", c.Name, c.Cycles)
	}
	if len(lb.Classes) > 0 {
		fmt.Fprintln(w, "\nfu classes:")
		for _, cb := range lb.Classes {
			sound := "heuristic"
			if cb.UtilSound {
				sound = "sound"
			}
			fmt.Fprintf(w, "  %-16s units=%-3d ops=%-3d demand=%-8d util<=%.2f (%s)\n",
				cb.Class, cb.Units, cb.StaticOps, cb.BusyWeighted, cb.UtilUB, sound)
		}
	}

	if len(rep.Loops) > 0 {
		fmt.Fprintln(w, "\nloops:")
		for _, l := range rep.Loops {
			trip := "unproven"
			if l.Trip >= 0 {
				trip = fmt.Sprintf("%d", l.Trip)
			}
			iv := ""
			if l.IV != "" {
				iv = " iv=" + l.IV
			}
			fmt.Fprintf(w, "  %-12s depth=%d blocks=%d trip=%s%s\n", l.Header, l.Depth, l.Blocks, trip, iv)
		}
	}

	m := rep.Mem
	fmt.Fprintf(w, "\nmemory: %d accesses (%d loads, %d stores), %d affine-resolved\n",
		m.Accesses, m.Loads, m.Stores, m.Resolved)
	for _, fp := range m.Footprint {
		res := ""
		if !fp.Resolved {
			res = " (partial)"
		}
		fmt.Fprintf(w, "  %-12s bytes [%d, %d) of %d%s\n", fp.Base, fp.MinByte, fp.MaxByte, fp.Bytes, res)
	}
	if m.NoHazardProven {
		fmt.Fprintln(w, "  no hazards: every same-buffer pair proven disjoint")
	}
	for _, h := range m.Hazards {
		fmt.Fprintf(w, "  hazard %s on %s: %s -> %s (may-overlap, not proven)\n", h.Kind, h.Base, h.First, h.Then)
	}
	for _, o := range m.OOB {
		kind := "possible"
		if o.Proven {
			kind = "PROVEN"
		}
		fmt.Fprintf(w, "  oob %s: %s on %s touches [%d, %d) of %d bytes\n", kind, o.Op, o.Base, o.MinByte, o.MaxByte, o.Size)
	}

	if len(rep.Unreachable) > 0 {
		fmt.Fprintf(w, "\nunreachable blocks: %v\n", rep.Unreachable)
	}
	if len(rep.DeadOps) > 0 {
		fmt.Fprintf(w, "dead ops (result never consumed): %v\n", rep.DeadOps)
	}

	e := rep.Envelope
	exact := "floor"
	if e.EnergyExact {
		exact = "exact"
	}
	fmt.Fprintf(w, "\nenvelope: leakage %.3f mW fu + %.3f mW reg, area %.0f um2, dyn energy >= %.1f pJ (%s)\n",
		e.StaticFUMW, e.StaticRegMW, e.AreaUM2, e.MinDynEnergyPJ, exact)

	kind := "floor"
	if se.Exact {
		kind = "exact counts"
	}
	fmt.Fprintf(w, "\nenergy bound (%s): total >= %.1f pJ over >= %d cycles @ %.1f ns\n",
		kind, se.TotalPJ, se.CyclesLB, se.PeriodNS)
	fmt.Fprintf(w, "  %-10s %12.1f pJ\n", "fu", se.FUPJ)
	fmt.Fprintf(w, "  %-10s %12.1f pJ\n", "registers", se.RegPJ)
	fmt.Fprintf(w, "  %-10s %12.1f pJ\n", "memory", se.MemPJ)
	fmt.Fprintf(w, "  %-10s %12.1f pJ  (%.3f mW leakage x cycle bound)\n", "leakage", se.LeakPJ, se.LeakMW)
	fmt.Fprintf(w, "  edp >= %.1f pJ*ns\n", se.EDP)
	if len(se.Classes) > 0 {
		fmt.Fprintln(w, "  fu classes:")
		for _, ce := range se.Classes {
			mark := "floor"
			if ce.Exact {
				mark = "exact"
			}
			fmt.Fprintf(w, "    %-16s inits>=%-8d %12.1f pJ (%s)\n", ce.Class, ce.Inits, ce.EnergyPJ, mark)
		}
	}

	if withSched {
		fmt.Fprintln(w, "\nschedules:")
		for _, bs := range rep.Sched {
			fmt.Fprintf(w, "  %s: crit-path=%d min-exec=%d exact=%v critical=%v\n",
				bs.Block, bs.CritPathCycles, bs.MinExec, bs.Exact, bs.Critical)
			for _, op := range bs.Ops {
				mark := " "
				if op.Critical {
					mark = "*"
				}
				fmt.Fprintf(w, "   %s %-12s %-10s w=%-2d asap=%-4d alap=%-4d slack=%d\n",
					mark, op.Name, op.Op, op.Weight, op.ASAP, op.ALAP, op.Slack)
			}
		}
	}
}
