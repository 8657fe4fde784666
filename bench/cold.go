package main

import (
	"encoding/json"
	"errors"
	"io"

	salam "gosalam"
	"gosalam/internal/soccfg"
	"gosalam/kernels"
)

// coldConfigs generates the flat (version-0) config documents of one
// cold_start op: the three clang-emitted fixtures bound to their small
// workloads, and nine built-in families at small explicit sizes (so
// kernels.Construct builds a new function object every time and the
// elaboration cache misses). All have seed-independent cycle counts.
func coldConfigs(seed int64) ([][]byte, error) {
	var cfgs []soccfg.Config
	for _, name := range []string{"gemm", "spmv", "relu"} {
		cfgs = append(cfgs, soccfg.Config{KernelRef: soccfg.KernelRef{
			IRFile: "testdata/ll/" + name + ".ll", Entry: name, Workload: name, Preset: "small",
		}})
	}
	builtin := func(kernel, mem string, size ...int) {
		cfgs = append(cfgs, soccfg.Config{
			KernelRef: soccfg.KernelRef{Kernel: kernel, Size: size},
			MemoryCfg: soccfg.MemoryCfg{Memory: mem},
		})
	}
	builtin("gemm", "spm", 8)
	builtin("fft", "spm", 64)
	builtin("md-knn", "spm", 16, 16)
	builtin("md-grid", "spm", 2, 2)
	builtin("nw", "spm", 16)
	builtin("stencil2d", "cache", 12, 12)
	builtin("stencil3d", "spm", 6, 6, 6)
	builtin("bfs", "cache", 64, 4)
	builtin("spmv", "cache", 32, 4)

	docs := make([][]byte, len(cfgs))
	for i := range cfgs {
		cfgs[i].Seed = seed
		doc, err := json.Marshal(&cfgs[i])
		if err != nil {
			return nil, err
		}
		docs[i] = doc
	}
	return docs, nil
}

// coldInst runs every config document from bytes, each time from nothing.
type coldInst struct {
	docs [][]byte
	last []*salam.Result
	ref  string
}

func setupCold(seed int64) (instance, error) {
	docs, err := coldConfigs(seed)
	if err != nil {
		return nil, err
	}
	c := &coldInst{docs: docs, last: make([]*salam.Result, len(docs))}
	if err := c.op(nil); err != nil {
		return nil, err
	}
	c.ref = fingerprint(c.last)
	return c, nil
}

func (c *coldInst) prepare() error { return nil }

// op is what one salam-sim invocation pays, twelve times: decode the
// config, resolve the kernel (parse+verify the .ll, or construct the
// built-in), build the system, run it, dump the stats.
func (c *coldInst) op(tr *tracer) error {
	for i, doc := range c.docs {
		var (
			cfg  *soccfg.Config
			k    *kernels.Kernel
			opts salam.RunOpts
			err  error
		)
		tr.do("soccfg.parse", func() { cfg, err = soccfg.Parse(doc) })
		if err != nil {
			return err
		}
		tr.do("salam.kernel_from_config", func() { k, opts, err = salam.KernelFromConfig(cfg) })
		if err != nil {
			return err
		}
		if tr == nil {
			c.last[i], err = salam.RunKernel(k, opts)
		} else {
			// RunKernel is NewSession + Run; take it apart the same way.
			var s *salam.Session
			tr.do("salam.new_session", func() { s, err = salam.NewSession(k, opts) })
			if err == nil {
				c.last[i], err = tracedRun(tr, s, opts)
			}
		}
		if err != nil {
			return err
		}
		tr.do("sim.stats_dump", func() { c.last[i].Stats.Dump(io.Discard) })
	}
	return nil
}

func (c *coldInst) verify() (opOut, error) {
	if fp := fingerprint(c.last); fp != c.ref {
		return opOut{}, errors.New("run diverged from the first op: " + fp + " vs " + c.ref)
	}
	out := opOut{Points: len(c.last)}
	for _, r := range c.last {
		out.Cycles += r.Cycles
	}
	return out, nil
}

func (c *coldInst) counts(into map[string]float64) {
	for _, r := range c.last {
		addRunCounts(into, r)
	}
}

func (c *coldInst) close() {}
