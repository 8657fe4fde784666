package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"

	salam "gosalam"
	"gosalam/internal/analysis"
	"gosalam/internal/campaign"
	"gosalam/internal/core"
	"gosalam/internal/hw"
	"gosalam/internal/sim"
	"gosalam/internal/snapshot"
	"gosalam/internal/soccfg"
	"gosalam/internal/timeline"
	"gosalam/ir"
	"gosalam/kernels"
)

// The layer probes time one public call of one module in isolation, the
// same calls in every workload's trace pass: a probe metric reads the same
// whichever workload is selected, and moves only when its layer does. Each
// call runs inside a probe span (op -1); the metric is the median span
// self time, divided by the number of units the call covered.

// prober runs probes and keeps the first error.
type prober struct {
	tr  *tracer
	out map[string]float64
	err error
}

// time runs fn in one probe span, unless an earlier probe failed.
func (p *prober) time(span string, fn func() error) {
	if p.err != nil {
		return
	}
	p.tr.do(span, func() {
		if err := fn(); err != nil {
			p.err = fmt.Errorf("%s: %w", span, err)
		}
	})
}

// metric stores the median self time of the spans called span, in
// nanoseconds divided by div.
func (p *prober) metric(name, span string, div float64) {
	p.out[name] = median(p.tr.probeSelf(span)) / div
}

// rep times fn n times and stores the median as metric.
func (p *prober) rep(metric, span string, n int, div float64, fn func() error) {
	for i := 0; i < n; i++ {
		p.time(span, fn)
	}
	p.metric(metric, span, div)
}

const (
	perUS = 1e3
	perMS = 1e6
)

// calibLoop is host.calib_ns: a fixed integer loop that touches nothing
// of the simulator. It tells "the machine is slower" from "the code is
// slower" when two runs disagree.
func calibLoop() uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

var calibSink uint64

type noopFirer struct{}

func (noopFirer) Fire() {}

func runProbes(tr *tracer, seed int64) (map[string]float64, error) {
	p := &prober{tr: tr, out: map[string]float64{}}
	opts := salam.DefaultRunOpts()
	opts.Seed = seed

	p.rep("host.calib_ns", "host.calib", 5, 1, func() error { calibSink += calibLoop(); return nil })

	// ir, kernels, soccfg: the front end of one cold_start op.
	docs, err := coldConfigs(seed)
	if err != nil {
		return nil, err
	}
	fixtures := []string{"gemm", "spmv", "relu"}
	srcs := make([]string, len(fixtures))
	mods := make([]*ir.Module, len(fixtures))
	for i, name := range fixtures {
		data, err := os.ReadFile(filepath.Join("testdata", "ll", name+".ll"))
		if err != nil {
			return nil, err
		}
		srcs[i] = string(data)
	}
	p.rep("ir.parse_us", "ir.parse", 9, perUS, func() (err error) {
		for i, src := range srcs {
			if mods[i], err = ir.Parse(fixtures[i]+".ll", src); err != nil {
				return err
			}
		}
		return nil
	})
	p.rep("ir.verify_us", "ir.verify", 9, perUS, func() error {
		for i, m := range mods {
			if err := ir.Verify(m.Func(fixtures[i])); err != nil {
				return err
			}
		}
		return nil
	})
	var cfgs []*soccfg.Config
	p.rep("soccfg.parse_us", "soccfg.parse", 9, perUS, func() error {
		cfgs = cfgs[:0]
		for _, doc := range docs {
			c, err := soccfg.Parse(doc)
			if err != nil {
				return err
			}
			cfgs = append(cfgs, c)
		}
		return nil
	})
	p.rep("soccfg.emit_us", "soccfg.emit", 9, perUS, func() error {
		for _, c := range cfgs {
			if _, err := c.Emit(); err != nil {
				return err
			}
		}
		return nil
	})
	var built []*kernels.Kernel
	p.rep("kernels.construct_us", "kernels.construct", 9, perUS, func() error {
		built = built[:0]
		for _, c := range cfgs {
			if c.IRFile != "" {
				continue
			}
			k, err := kernels.Construct(c.Kernel, c.Size)
			if err != nil {
				return err
			}
			built = append(built, k)
		}
		return nil
	})
	scratch := ir.NewFlatMem(0, 1<<22)
	p.rep("kernels.setup_us", "kernels.setup", 9, perUS, func() error {
		for _, k := range built {
			scratch.Reset()
			k.Setup(scratch, seed)
		}
		return nil
	})
	p.rep("salam.kernel_from_config_us", "salam.kernel_from_config", 5, perUS, func() error {
		_, _, err := salam.KernelFromConfig(cfgs[0]) // the clang-emitted GEMM
		return err
	})

	// core, analysis: elaborate and analyze GEMM, cold and through the
	// process-wide caches.
	gemm := kernels.GEMM(24, 1)
	profile := hw.Default40nm()
	var g *core.CDFG
	p.rep("core.elaborate_cold_us", "core.elaborate_cold", 5, perUS, func() (err error) {
		g, err = core.Elaborate(gemm.F, profile, nil)
		return err
	})
	const hits = 2000
	p.rep("core.elaborate_hit_ns", "core.elaborate_hit", 5, hits, func() error {
		for i := 0; i < hits; i++ {
			if _, err := salam.Elaborate(gemm.F, nil, nil); err != nil {
				return err
			}
		}
		return nil
	})
	p.rep("analysis.report_cold_us", "analysis.report_cold", 5, perUS, func() error {
		analysis.Analyze(g)
		return nil
	})
	p.rep("analysis.lower_bound_hit_ns", "analysis.lower_bound_hit", 5, hits, func() error {
		for i := 0; i < hits; i++ {
			if _, ok := salam.StaticLowerBound(gemm, opts); !ok {
				return fmt.Errorf("no bound")
			}
		}
		return nil
	})

	// sim: the bare event queue, and a stats dump.
	const events = 200_000
	q := sim.NewEventQueue()
	p.rep("sim.queue_ns_per_event", "sim.queue", 5, events, func() error {
		q.Reset()
		for i := 0; i < events; i++ {
			q.ScheduleObj(sim.Tick(i%977), 0, noopFirer{})
		}
		q.Run()
		if q.Fired() != events {
			return fmt.Errorf("fired %d of %d events", q.Fired(), events)
		}
		return nil
	})

	// mem, salam: what a new kernel costs before its first cycle.
	p.rep("mem.flatmem_new_us", "mem.flatmem_new", 5, perUS, func() error {
		ir.NewFlatMem(0, 1<<26) // the size probe of every new kernel
		return nil
	})
	var first *salam.Session
	p.rep("salam.new_session_first_us", "salam.new_session_first", 5, perUS, func() (err error) {
		gemm = kernels.GEMM(24, 1) // a new function object: nothing is cached
		first, err = salam.NewSession(gemm, opts)
		return err
	})
	p.rep("salam.new_session_again_us", "salam.new_session_again", 5, perUS, func() error {
		_, err := salam.NewSession(gemm, opts)
		return err
	})
	if p.err != nil {
		return nil, p.err
	}
	straight, err := first.Run(opts)
	if err != nil {
		return nil, err
	}
	p.rep("sim.stats_dump_us", "sim.stats_dump", 9, perUS, func() error {
		straight.Stats.Dump(io.Discard)
		return nil
	})
	p.snapshot(first, gemm, opts, straight.Cycles)

	doc, err := streamConfig()
	if err != nil {
		return nil, err
	}
	socCfg, err := soccfg.Parse(doc)
	if err != nil {
		return nil, err
	}
	p.rep("salam.soc_build_ms", "salam.soc_build", 3, perMS, func() error {
		_, err := salam.BuildFromConfig(socCfg)
		return err
	})

	p.timeline(seed)
	p.campaign(seed)
	p.exec()
	return p.out, p.err
}

// snapshot checkpoints a GEMM run at its halfway cycle and restores the
// image into a second session; the restored run must land on the straight
// run's cycle count.
func (p *prober) snapshot(s *salam.Session, k *kernels.Kernel, opts salam.RunOpts, cycles uint64) {
	if p.err != nil {
		return
	}
	s2, err := salam.NewSession(k, opts)
	if err != nil {
		p.err = err
		return
	}
	var enc []byte
	for i := 0; i < 3 && p.err == nil; i++ {
		if finished, err := s.RunToCycle(opts, cycles/2); err != nil || finished {
			p.err = fmt.Errorf("pausing at cycle %d: finished=%v err=%v", cycles/2, finished, err)
			return
		}
		p.time("snapshot.checkpoint", func() error {
			img, err := s.Checkpoint()
			if err == nil {
				enc, err = img.Encode()
			}
			return err
		})
		if _, err := s.Resume(opts); err != nil {
			p.err = err
			return
		}
		p.time("snapshot.restore", func() error {
			img, err := snapshot.Decode(enc)
			if err != nil {
				return err
			}
			return s2.Restore(opts, img)
		})
		res, err := s2.Resume(opts)
		if err == nil && res.Cycles != cycles {
			err = fmt.Errorf("restored run took %d cycles, straight run %d", res.Cycles, cycles)
		}
		if err != nil {
			p.err = err
			return
		}
	}
	p.metric("snapshot.checkpoint_ms", "snapshot.checkpoint", perMS)
	p.metric("snapshot.restore_ms", "snapshot.restore", perMS)
	p.out["snapshot.image_kb"] = float64(len(enc)) / 1024
}

// timeline measures what attaching a Breakdown recorder costs an
// engine_spm op, as traced time / untraced time - 1. The untraced side is
// the nil-recorder path every other run takes.
func (p *prober) timeline(seed int64) {
	if p.err != nil {
		return
	}
	e, err := newEngine(engineSPMKernels(), salam.MemSPM, seed)
	if err != nil {
		p.err = err
		return
	}
	plain := e.opts
	for i := 0; i < 3; i++ {
		e.opts = plain
		p.time("timeline.off", func() error { return e.op(nil) })
		e.opts.Timeline = timeline.NewBreakdown()
		p.time("timeline.on", func() error { return e.op(nil) })
	}
	off, on := median(p.tr.probeSelf("timeline.off")), median(p.tr.probeSelf("timeline.on"))
	if off > 0 {
		p.out["timeline.traced_overhead_frac"] = on/off - 1
	}
}

// campaign times the per-job pieces of the campaign layer on the 48-point
// space: building it, keying a job, a store put and get, encoding a row.
func (p *prober) campaign(seed int64) {
	if p.err != nil {
		return
	}
	space := dseSpace(seed)
	var jobs []campaign.Job
	p.rep("campaign.space_build_us", "campaign.space_build", 5, perUS, func() (err error) {
		_, jobs, err = space.Build()
		return err
	})
	if p.err != nil {
		return
	}
	n := float64(len(jobs))
	keys := make([]string, len(jobs))
	p.rep("campaign.job_key_us", "campaign.job_key", 5, n*perUS, func() (err error) {
		for i, j := range jobs {
			if keys[i], err = campaign.JobKey(j); err != nil {
				return err
			}
		}
		return nil
	})
	dir, err := os.MkdirTemp(outDir, "store-")
	if err != nil {
		p.err = err
		return
	}
	defer os.RemoveAll(dir)
	store, err := campaign.OpenCache(dir)
	if err != nil {
		p.err = err
		return
	}
	m := &campaign.Metrics{Cycles: 29487, Ticks: 294870000}
	p.rep("campaign.store_put_us", "campaign.store_put", 5, n*perUS, func() error {
		for i, j := range jobs {
			if err := store.Put(keys[i], j, m); err != nil {
				return err
			}
		}
		return nil
	})
	p.rep("campaign.store_get_us", "campaign.store_get", 5, n*perUS, func() error {
		// A new Cache over the same directory: its memo is empty, so
		// every Get reads and decodes the entry file.
		fresh, err := campaign.OpenCache(dir)
		if err != nil {
			return err
		}
		for _, key := range keys {
			if _, ok := fresh.Get(key); !ok {
				return fmt.Errorf("store lost key %s", key)
			}
		}
		return nil
	})
	p.rep("campaign.row_encode_us", "campaign.row_encode", 5, n*perUS, func() error {
		for i, j := range jobs {
			row := campaign.RowOf(campaign.Outcome{Index: i, Job: j, Metrics: m})
			if err := campaign.WriteRow(io.Discard, row); err != nil {
				return err
			}
		}
		return nil
	})
}

// exec is the process-level point: the built salam-sim binary on the
// clang-emitted GEMM config, start to exit.
func (p *prober) exec() {
	if p.err != nil {
		return
	}
	bin := filepath.Join(outDir, "salam-sim")
	if _, err := os.Stat(bin); err != nil {
		p.err = fmt.Errorf("cmd.salam_sim_exec_ms: %s is not built (run through bench/run.sh): %w", bin, err)
		return
	}
	p.rep("cmd.salam_sim_exec_ms", "cmd.salam_sim_exec", 20, perMS, func() error {
		return exec.Command(bin, "-config", filepath.Join("configs", "gemm_ll.json")).Run()
	})
}
