package main

import (
	"fmt"
	"io"
	"runtime"
)

// endToEndMetrics and perLayerMetrics list every metric the benchmark
// emits, in BENCHMARK.json's order, with its unit. A pass emits exactly
// one of the two lists.
var endToEndMetrics = [][2]string{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"host_ns_per_cycle", "ns/cycle"},
	{"points_per_s", "1/s"},
	{"allocs_per_op", "count"},
}

var perLayerMetrics = [][2]string{
	{"ir.parse_us", "us"},
	{"ir.verify_us", "us"},
	{"kernels.construct_us", "us"},
	{"kernels.setup_us", "us"},
	{"kernels.check_us", "us"},
	{"soccfg.parse_us", "us"},
	{"soccfg.emit_us", "us"},
	{"core.elaborate_cold_us", "us"},
	{"core.elaborate_hit_ns", "ns"},
	{"core.sim_cycles_per_op", "count"},
	{"core.committed_ops_per_op", "count"},
	{"core.allocs_per_committed_op", "count"},
	{"analysis.report_cold_us", "us"},
	{"analysis.lower_bound_hit_ns", "ns"},
	{"sim.events_per_op", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.queue_ns_per_event", "ns"},
	{"sim.stats_dump_us", "us"},
	{"mem.spm_accesses", "count"},
	{"mem.spm_bank_conflicts", "count"},
	{"mem.cache_hits", "count"},
	{"mem.cache_misses", "count"},
	{"mem.cache_mshr_full", "count"},
	{"mem.dram_reqs", "count"},
	{"mem.dma_bytes", "count"},
	{"mem.stream_bytes", "count"},
	{"mem.flatmem_new_us", "us"},
	{"salam.new_session_first_us", "us"},
	{"salam.new_session_again_us", "us"},
	{"salam.warm_begin_us", "us"},
	{"salam.run_loop_ms", "ms"},
	{"salam.kernel_from_config_us", "us"},
	{"salam.soc_build_ms", "ms"},
	{"salam.soc_reset_us", "us"},
	{"salam.soc_run_ms", "ms"},
	{"snapshot.checkpoint_ms", "ms"},
	{"snapshot.restore_ms", "ms"},
	{"snapshot.image_kb", "count"},
	{"timeline.traced_overhead_frac", "frac"},
	{"campaign.space_build_us", "us"},
	{"campaign.job_key_us", "us"},
	{"campaign.store_put_us", "us"},
	{"campaign.store_get_us", "us"},
	{"campaign.row_encode_us", "us"},
	{"campaign.run_local_ms", "ms"},
	{"campaign.sessions_built", "count"},
	{"campaign.sessions_reused", "count"},
	{"campaign.cache_hits", "count"},
	{"campaign.jobs_simulated", "count"},
	{"serve.submit_ms", "ms"},
	{"serve.first_row_ms", "ms"},
	{"serve.stream_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.rows_bytes_per_op", "count"},
	{"cmd.salam_sim_exec_ms", "ms"},
	{"host.calib_ns", "ns"},
	{"host.nproc", "count"},
	{"host.peak_rss_mb", "MB"},
	{"host.gc_pause_ms_per_op", "ms"},
	{"run.alloc_mb_per_op", "MB"},
	{"run.op_ms_tail", "ms"},
	{"run.tail_pct", "%"},
	{"run.block_spread", "frac"},
	{"run.trace_overhead_frac", "frac"},
	{"run.frontend_frac", "frac"},
}

// exactCounts are the per-op counts that must repeat exactly: between the
// ops of one pass, between runs with the same seed, and across any change
// that claims only to make the simulator faster.
var exactCounts = map[string]bool{
	"core.sim_cycles_per_op": true, "core.committed_ops_per_op": true, "sim.events_per_op": true,
	"mem.spm_accesses": true, "mem.spm_bank_conflicts": true, "mem.cache_hits": true,
	"mem.cache_misses": true, "mem.cache_mshr_full": true, "mem.dram_reqs": true,
	"mem.dma_bytes": true, "mem.stream_bytes": true,
	"campaign.cache_hits": true, "campaign.jobs_simulated": true, "serve.rows_bytes_per_op": true,
}

// opSpanMetrics maps a per-layer metric to the op span it is the median
// per-op self time of, and the nanoseconds per unit.
var opSpanMetrics = map[string]struct {
	span string
	div  float64
}{
	"kernels.check_us":    {"kernels.check", perUS},
	"salam.warm_begin_us": {"salam.warm_begin", perUS},
	"salam.run_loop_ms":   {"salam.run_loop", perMS},
	"salam.soc_reset_us":  {"salam.soc_reset", perUS},
	"salam.soc_run_ms":    {"salam.soc_run", perMS},
	"serve.submit_ms":     {"serve.submit", perMS},
	"serve.first_row_ms":  {"serve.first_row", perMS},
	"serve.stream_ms":     {"serve.stream", perMS},
}

// frontEndSpans are the op spans that are front end or construction, the
// numerator of run.frontend_frac.
var frontEndSpans = map[string]bool{"soccfg.parse": true, "salam.kernel_from_config": true, "salam.new_session": true}

// perLayer assembles the trace pass's metrics: layer probes, medians of
// per-op span self time, exact counts, and the harness's own readings
// (taken from the untraced half of the pass).
func (p *pass) perLayer() map[string]float64 {
	v := map[string]float64{}
	for _, m := range perLayerMetrics {
		v[m[0]] = 0 // a layer the workload does not reach reads 0
	}
	for name, x := range p.probes {
		v[name] = x
	}
	for name, x := range p.opCounts {
		v[name] = x
	}
	perOp := p.tr.perOp()
	for name, m := range opSpanMetrics {
		v[name] = median(perOp[m.span]) / m.div
	}
	// Self times partition an op's wall time, so their total over every
	// span name is the traced ops' wall time.
	var front, wall float64
	for name, ns := range perOp {
		for _, x := range ns {
			wall += x
			if frontEndSpans[name] {
				front += x
			}
		}
	}
	if wall > 0 {
		v["run.frontend_frac"] = front / wall
	}

	plain, traced := p.timed(false), p.timed(true)
	if len(plain) == 0 {
		return v
	}
	ms := opTimes(plain)
	p50 := median(ms)
	var mallocs, bytes, gcNS uint64
	for _, s := range plain {
		mallocs += s.Mallocs
		bytes += s.Bytes
		gcNS += s.GCNS
	}
	n := float64(len(plain))
	if c := v["core.committed_ops_per_op"]; c > 0 {
		v["core.allocs_per_committed_op"] = float64(mallocs) / n / c
	}
	v["sim.events_per_s"] = v["sim.events_per_op"] / (p50 / 1e3)
	if local := v["campaign.run_local_ms"]; local > 0 {
		v["serve.overhead_ms"] = p50 - local
	}
	v["host.nproc"] = float64(runtime.NumCPU())
	v["host.peak_rss_mb"] = peakRSSMB()
	v["host.gc_pause_ms_per_op"] = float64(gcNS) / perMS / n
	v["run.alloc_mb_per_op"] = float64(bytes) / (1 << 20) / n
	v["run.tail_pct"], v["run.op_ms_tail"] = tail(ms)
	v["run.block_spread"] = blockSpread(plain)
	if len(traced) > 0 {
		v["run.trace_overhead_frac"] = median(opTimes(traced))/p50 - 1
	}
	return v
}

// report prints the human-readable summary and returns the result line.
func (p *pass) report(w io.Writer) result {
	plain := p.timed(false)
	failed := min(len(p.failures), len(p.samples))
	fmt.Fprintf(w, "workload=%s seed=%d ops=%d failed_ops=%d samples=%d setups=%d\n",
		p.w.name, p.seed, len(p.samples), failed, len(plain), len(p.setups))
	fmt.Fprintf(w, "block set-ups (s): %.3f\n", p.setups)
	fmt.Fprintf(w, "block medians (ms): %.2f\n", blockMedians(plain))
	for _, f := range p.failures {
		fmt.Fprintln(w, "FAILED", f)
	}
	res := result{Correct: failed == 0 && len(plain) > 0, Attempted: len(p.samples), Failed: failed,
		Metrics: map[string]metric{}}
	if p.tr == nil {
		res.Metrics = p.endToEnd()
		for _, m := range endToEndMetrics {
			fmt.Fprintf(w, "  %-32s %16.6g %s\n", m[0], res.Metrics[m[0]].Value, m[1])
		}
		return res
	}
	v := p.perLayer()
	for _, m := range perLayerMetrics {
		res.Metrics[m[0]] = metric{v[m[0]], m[1]}
		fmt.Fprintf(w, "  %-32s %16.6g %s\n", m[0], v[m[0]], m[1])
	}
	return res
}
