package salam

// Tests for the component contract itself: the registry must name every
// device that owns statistics (the structural guard against a constructor
// that forgets to register what it builds), registration is by identity,
// and the one checkpoint refuses events nothing claims.

import (
	"path/filepath"
	"strings"
	"testing"

	"gosalam/internal/core"
	"gosalam/internal/mem"
	"gosalam/internal/sim"
	"gosalam/internal/soccfg"
	"gosalam/kernels"
)

// ownedGroups are the stats groups of sub-blocks a registered component
// constructs and resets itself: an accelerator node's communications
// interface, and the register file behind it or behind a DMA.
var ownedGroups = []string{".mmr", ".comm"}

func TestRegistryCoversStatsRoot(t *testing.T) {
	systems := map[string]*system{}

	k := kernels.ByName(kernels.Small, "gemm")
	for name, kind := range map[string]MemKind{"session-spm": MemSPM, "session-cache": MemCache} {
		opts := DefaultRunOpts()
		opts.Mem = kind
		s, err := NewSession(k, opts)
		if err != nil {
			t.Fatal(err)
		}
		systems[name] = &s.sys
	}

	paths, err := filepath.Glob(filepath.Join("configs", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no shipped configs: %v", err)
	}
	for _, p := range paths {
		c, err := soccfg.Load(p)
		if err != nil {
			t.Fatal(err)
		}
		if c.Version != 1 {
			continue
		}
		built, err := BuildFromConfig(c)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		systems[p] = &built.SoC.system
	}

	// No shipped config uses a cluster, an LLC or a stream DMA yet.
	soc := NewSoC(16)
	soc.EnableLLC(64<<10, 64, 4)
	cl := soc.NewCluster("cl0", ClusterOpts{SharedSPMBytes: 32 << 10})
	node, err := cl.AddAccel("relu", AccelBuild{F: kernels.ReLU(64).F, Opts: AccelOpts{SPMBytes: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	soc.AddBlockDMA("dma")
	fifo := mem.NewStreamBuffer("fifo", soc.Q, 256, soc.Stats)
	soc.StreamWindow(node, fifo, core.StreamIn)
	soc.AddStreamDMA("sdma", fifo)
	systems["cluster-llc"] = &soc.system

	for name, sys := range systems {
		registered := map[string]bool{}
		for _, c := range sys.comps {
			if registered[c.Name()] {
				t.Errorf("%s: two components named %q", name, c.Name())
			}
			registered[c.Name()] = true
		}
		root, err := sim.CaptureStats(sys.Stats)
		if err != nil {
			t.Fatal(err)
		}
		groups := map[string]bool{}
		for _, g := range root.Children {
			groups[g.Name] = true
		}
		for _, c := range sys.comps {
			if !groups[c.Name()] {
				t.Errorf("%s: component %q has no stats group of its name", name, c.Name())
			}
		}
		for _, g := range root.Children {
			owner := g.Name
			for _, suffix := range ownedGroups {
				owner = strings.TrimSuffix(owner, suffix)
			}
			if !registered[owner] {
				t.Errorf("%s: stats group %q belongs to no registered component", name, g.Name)
			}
		}
	}
}

// A stream buffer reachable through several owners — an accelerator's
// stream window, a stream DMA on either end — is one component.
func TestRegistrySharedBufferRegistersOnce(t *testing.T) {
	soc := NewSoC(16)
	node, err := soc.AddAccel("relu", kernels.ReLU(64).F, AccelOpts{SPMBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	fifo := mem.NewStreamBuffer("fifo", soc.Q, 256, soc.Stats)
	soc.StreamWindow(node, fifo, core.StreamIn)
	soc.AddStreamDMA("sdma_in", fifo)
	soc.AddStreamDMA("sdma_out", fifo)
	n := 0
	for _, c := range soc.comps {
		if c == component(fifo) {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("shared stream buffer registered %d times, want 1", n)
	}
}

// An event no component claims must fail the checkpoint with the
// accounting error, never produce an image that would drop it on restore.
func TestCheckpointRefusesUnclaimedEvent(t *testing.T) {
	k := kernels.GEMM(8, 1)
	opts := DefaultRunOpts()
	s, err := NewSession(k, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunToCycle(opts, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatalf("clean mid-run checkpoint: %v", err)
	}
	s.sys.Q.Schedule(s.sys.Q.Now()+1, sim.PriDefault, func() {})
	if _, err := s.Checkpoint(); err == nil || !strings.Contains(err.Error(), "pending events but only") {
		t.Fatalf("checkpoint with a stray event: %v", err)
	}
}
