package salam

// Declarative configuration entry points: the bridge from internal/soccfg
// documents to live simulations. Version-0 (flat) configs resolve to a
// kernel plus RunOpts and run on the single-accelerator RunKernel path —
// byte-identical to a Go-constructed run with the same options. Version-1
// (topology) configs build a full SoC: shared SPMs, clusters, DMAs,
// stream links, an LLC — every shape system.go can construct by hand.

import (
	"fmt"
	"os"
	"path/filepath"

	"gosalam/internal/core"
	"gosalam/internal/hw"
	"gosalam/internal/mem"
	"gosalam/internal/soccfg"
	"gosalam/ir"
	"gosalam/kernels"
)

// kernelFor resolves a KernelRef: a built-in kernel at a preset, a
// built-in family at an explicit size, or an external .ll file bound to a
// built-in workload.
func kernelFor(c *soccfg.Config, ref *soccfg.KernelRef) (*kernels.Kernel, error) {
	preset, err := kernels.ParsePreset(ref.Preset, kernels.Default)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	switch {
	case ref.IRFile != "":
		path := c.ResolveIRPath(ref)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("config: ir_file: %w", err)
		}
		wk, err := kernels.Lookup(preset, ref.Workload)
		if err != nil {
			return nil, fmt.Errorf("config: workload: %w", err)
		}
		m, err := ir.Parse(filepath.Base(path), string(src))
		if err != nil {
			return nil, err
		}
		entry := ref.Entry
		if entry == "" {
			entry = ref.Workload
		}
		return kernels.FromIR("ll/"+ref.Workload, m, entry, wk)
	case len(ref.Size) > 0:
		return kernels.Construct(ref.Kernel, ref.Size)
	default:
		k, err := kernels.Lookup(preset, ref.Kernel)
		if err != nil {
			return nil, fmt.Errorf("config: %w", err)
		}
		return k, nil
	}
}

// applyDevice overlays the config's device knobs on an AccelConfig.
func applyDevice(d *soccfg.DeviceCfg, cfg *AccelConfig) error {
	if d.ClockMHz > 0 {
		cfg.ClockMHz = d.ClockMHz
	}
	cfg.ReadPorts = orDefault(d.ReadPorts, cfg.ReadPorts)
	cfg.WritePorts = orDefault(d.WritePorts, cfg.WritePorts)
	cfg.MaxOutstanding = orDefault(d.MaxOutstanding, cfg.MaxOutstanding)
	cfg.ResQueueSize = orDefault(d.ResQueue, cfg.ResQueueSize)
	if d.PipelineLoops != nil {
		cfg.PipelineLoops = *d.PipelineLoops
	}
	if len(d.FULimits) > 0 {
		cfg.FULimits = map[hw.FUClass]int{}
		for name, n := range d.FULimits {
			cls := hw.FUClassByName(name)
			if cls == hw.FUNone {
				return fmt.Errorf("config: fu_limits: unknown FU class %q", name)
			}
			cfg.FULimits[cls] = n
		}
	}
	return nil
}

// KernelFromConfig resolves a flat (version-0) config into a kernel and
// run options for RunKernel — the config-file equivalent of building
// RunOpts in Go, guaranteed to produce the same simulation byte for byte.
func KernelFromConfig(c *soccfg.Config) (*kernels.Kernel, RunOpts, error) {
	if c.Version != 0 {
		return nil, RunOpts{}, fmt.Errorf("config: version %d topology configs build with BuildFromConfig", c.Version)
	}
	if err := c.Validate(); err != nil {
		return nil, RunOpts{}, err
	}
	k, err := kernelFor(c, &c.KernelRef)
	if err != nil {
		return nil, RunOpts{}, err
	}
	opts := DefaultRunOpts()
	if c.Seed != 0 {
		opts.Seed = c.Seed
	}
	if err := applyDevice(&c.DeviceCfg, &opts.Accel); err != nil {
		return nil, RunOpts{}, err
	}
	if c.Memory == "cache" {
		opts.Mem = MemCache
	}
	opts.SPMLatency = orDefault(c.SPMLatency, opts.SPMLatency)
	opts.SPMBanks = orDefault(c.SPMBanks, opts.SPMBanks)
	opts.SPMPortsPer = orDefault(c.SPMPorts, opts.SPMPortsPer)
	opts.CacheBytes = orDefault(c.CacheBytes, opts.CacheBytes)
	opts.CacheLine = orDefault(c.CacheLine, opts.CacheLine)
	opts.CacheAssoc = orDefault(c.CacheAssoc, opts.CacheAssoc)
	opts.CacheMSHRs = orDefault(c.CacheMSHRs, opts.CacheMSHRs)
	return k, opts, nil
}

// ConfiguredSoC is a live SoC built from a version-1 config, with every
// named component reachable for driver programs and workload setup.
type ConfiguredSoC struct {
	SoC *SoC
	// Kernels maps accelerator name to its resolved kernel (for Setup
	// and golden checks).
	Kernels map[string]*kernels.Kernel
	// Accels maps accelerator name (the config name, without cluster
	// prefixes) to its node.
	Accels map[string]*AccelNode
	// Order lists accelerator names in config order.
	Order []string
	// Clusters, SPMs, DMAs index the other named components.
	Clusters map[string]*Cluster
	SPMs     map[string]*mem.Scratchpad
	DMAs     map[string]*mem.BlockDMA
	// DMAIRQs maps DMA name to its interrupt line.
	DMAIRQs map[string]int
	// StreamOut/StreamIn map stream name to the producer-side and
	// consumer-side window base addresses.
	StreamOut map[string]uint64
	StreamIn  map[string]uint64
}

// BuildFromConfig constructs the SoC a version-1 config describes.
// Construction order is the document order (SPMs, clusters, accelerators,
// DMAs, streams, LLC), so MMR bases and IRQ lines — and therefore the
// whole event schedule — are deterministic functions of the config: the
// same document always builds a byte-identical system.
func BuildFromConfig(c *soccfg.Config) (*ConfiguredSoC, error) {
	if c.Version != 1 {
		return nil, fmt.Errorf("config: version %d flat configs run with KernelFromConfig", c.Version)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	s := c.SoC
	soc := NewSoCXbar(orDefault(s.DRAMMB, 16), s.XbarWidth)
	out := &ConfiguredSoC{
		SoC:       soc,
		Kernels:   map[string]*kernels.Kernel{},
		Accels:    map[string]*AccelNode{},
		Clusters:  map[string]*Cluster{},
		SPMs:      map[string]*mem.Scratchpad{},
		DMAs:      map[string]*mem.BlockDMA{},
		DMAIRQs:   map[string]int{},
		StreamOut: map[string]uint64{},
		StreamIn:  map[string]uint64{},
	}

	for _, m := range s.SPMs {
		out.SPMs[m.Name] = soc.AddSPM(m.Name, m.Bytes,
			orDefault(m.Latency, 2), orDefault(m.Banks, 4), orDefault(m.Ports, 4))
	}
	for _, cl := range s.Clusters {
		out.Clusters[cl.Name] = soc.NewCluster(cl.Name, ClusterOpts{
			SharedSPMBytes: cl.SharedSPMBytes,
			SPMLatency:     cl.SPMLatency,
			SPMBanks:       cl.SPMBanks,
			SPMPorts:       cl.SPMPorts,
			XbarWidth:      cl.XbarWidth,
		})
	}
	for _, a := range s.Accels {
		k, err := kernelFor(c, &a.KernelRef)
		if err != nil {
			return nil, fmt.Errorf("accelerator %s: %w", a.Name, err)
		}
		cfg := core.DefaultConfig()
		if err := applyDevice(&a.DeviceCfg, &cfg); err != nil {
			return nil, fmt.Errorf("accelerator %s: %w", a.Name, err)
		}
		opts := AccelOpts{
			Cfg:        cfg,
			SPMBytes:   a.SPMBytes,
			SPMLatency: a.SPMLatency,
			SPMBanks:   a.SPMBanks,
			SPMPorts:   a.SPMPorts,
			Global:     a.Global,
		}
		switch {
		case a.SharedSPM == "":
		case a.SharedSPM == "cluster":
			cl := out.Clusters[a.Cluster]
			if cl.SharedSPM == nil {
				return nil, fmt.Errorf("accelerator %s: cluster %s has no shared SPM", a.Name, a.Cluster)
			}
			opts.SharedSPM = cl.SharedSPM
		default:
			opts.SharedSPM = out.SPMs[a.SharedSPM]
		}
		var node *AccelNode
		if a.Cluster != "" {
			node, err = out.Clusters[a.Cluster].AddAccel(a.Name, AccelBuild{F: k.F, Opts: opts})
		} else {
			node, err = soc.AddAccel(a.Name, k.F, opts)
		}
		if err != nil {
			return nil, fmt.Errorf("accelerator %s: %w", a.Name, err)
		}
		out.Kernels[a.Name] = k
		out.Accels[a.Name] = node
		out.Order = append(out.Order, a.Name)
	}
	for _, d := range s.DMAs {
		dma, irq := soc.AddBlockDMA(d.Name)
		out.DMAs[d.Name] = dma
		out.DMAIRQs[d.Name] = irq
	}
	for _, st := range s.Streams {
		outW, inW := soc.StreamLink(st.Name,
			out.Accels[st.Producer], out.Accels[st.Consumer], st.BufferBytes)
		out.StreamOut[st.Name] = outW
		out.StreamIn[st.Name] = inW
	}
	if s.LLC != nil {
		soc.EnableLLC(s.LLC.Bytes, orDefault(s.LLC.Line, 64), orDefault(s.LLC.Assoc, 4))
	}
	return out, nil
}
