package salam

import (
	"fmt"

	"gosalam/internal/mem"
	"gosalam/internal/sim"
	"gosalam/ir"
)

// Cluster is the paper's hierarchical accelerator-cluster construct
// (Sec. III-D2, Fig. 6): a pool of accelerators coupled with a shared DMA
// and scratchpad behind a local crossbar, with a global-crossbar path to
// off-cluster resources (DRAM, other clusters). Accelerators inside a
// cluster reach each other's MMRs and the shared scratchpad over the local
// crossbar, which lets them coordinate without host involvement.
type Cluster struct {
	Name string
	soc  *SoC

	// Local is the intra-cluster crossbar; its default route leads to the
	// global crossbar.
	Local *mem.Crossbar
	// SharedSPM is the cluster scratchpad (nil if not requested).
	SharedSPM *mem.Scratchpad
	// DMA is the cluster's shared DMA engine.
	DMA *mem.BlockDMA
	// DMAIRQ is the DMA's interrupt line.
	DMAIRQ int
	// Accels lists the cluster's accelerators in creation order.
	Accels []*AccelNode
}

// ClusterOpts configures NewCluster.
type ClusterOpts struct {
	// SharedSPMBytes allocates a cluster scratchpad (0 = none).
	SharedSPMBytes uint64
	// SPMLatency/Banks/Ports configure it (defaults 2/4/4).
	SPMLatency, SPMBanks, SPMPorts int
	// XbarWidth is the local crossbar's requests-per-cycle (default 8).
	XbarWidth int
}

// NewCluster creates a cluster. Its devices are reachable both locally
// (accelerator-to-accelerator, one hop) and from the host over the global
// crossbar.
func (s *SoC) NewCluster(name string, o ClusterOpts) *Cluster {
	c := &Cluster{Name: name, soc: s}
	c.Local = register(&s.system, mem.NewCrossbar(name+".xbar", s.Q, s.SysClk, 1, orDefault(o.XbarWidth, 8), s.Stats))
	c.Local.SetDefault(s.Xbar)

	if o.SharedSPMBytes > 0 {
		// The SPM attaches to the global crossbar via AddSPM; attach it to
		// the local one too so intra-cluster traffic stays local.
		c.SharedSPM = s.AddSPM(name+".spm", o.SharedSPMBytes,
			orDefault(o.SPMLatency, 2), orDefault(o.SPMBanks, 4), orDefault(o.SPMPorts, 4))
		c.Local.Attach(c.SharedSPM)
	}

	dmaClk := sim.NewClockDomainMHz(name+".dma.clk", 200)
	c.DMA = register(&s.system, mem.NewBlockDMA(name+".dma", s.Q, dmaClk, s.allocMMR(mem.DMANumRegs), c.Local, s.Stats))
	c.DMA.BytesPerCycle = 4
	c.Local.Attach(c.DMA.MMR)
	s.Xbar.Attach(c.DMA.MMR)
	c.DMAIRQ = s.allocIRQ()
	c.DMA.IRQ = s.GIC.Line(c.DMAIRQ)
	return c
}

// AddAccel instantiates an accelerator inside the cluster. Its global port
// leads to the local crossbar, so shared-SPM traffic and peer MMR accesses
// stay on-cluster while anything else flows to the global crossbar.
func (c *Cluster) AddAccel(name string, node AccelBuild) (*AccelNode, error) {
	n, err := c.soc.AddAccel(c.Name+"."+name, node.F, node.Opts)
	if err != nil {
		return nil, err
	}
	// Rewire: the accelerator's off-SPM traffic goes through the local
	// crossbar; peers can reach its MMR locally too.
	n.Comm.AttachGlobal(c.Local)
	c.Local.Attach(n.Comm.MMR)
	if n.SPM != nil && n.SPM != c.SharedSPM {
		c.Local.Attach(n.SPM)
	}
	c.Accels = append(c.Accels, n)
	return n, nil
}

// AccelBuild bundles AddAccel arguments for Cluster.AddAccel.
type AccelBuild struct {
	F    *ir.Function
	Opts AccelOpts
}

// EnableLLC inserts a shared last-level cache between the global crossbar
// and DRAM — the paper's coherence point between accelerator clusters and
// other processing elements (Sec. III-D2).
func (s *SoC) EnableLLC(sizeBytes, lineBytes, assoc int) *mem.Cache {
	llc := register(&s.system, mem.NewCache("llc", s.Q, s.SysClk, s.Space, s.DRAM.Range(), s.DRAM,
		sizeBytes, lineBytes, assoc, 4, 16, s.Stats))
	s.Xbar.SetDefault(llc)
	return llc
}

func (s *SoC) String() string {
	return fmt.Sprintf("SoC{dram=%s, irqs=%d}", s.DRAM.Range(), s.nextIRQ)
}
