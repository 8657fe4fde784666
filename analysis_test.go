package salam_test

// Soundness tests for internal/analysis: a static lower bound that ever
// exceeds a measured dynamic cycle count is a bug by definition, no matter
// how the engine or the analyzer evolves. The golden file pins the dynamic
// side; the config matrix stresses the port/FU-dependent components.

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	salam "gosalam"
	"gosalam/internal/analysis"
	"gosalam/kernels"
)

func analyzeKernel(t *testing.T, k *kernels.Kernel, cfg salam.AccelConfig) *analysis.Report {
	t.Helper()
	g, err := salam.Elaborate(k.F, nil, cfg.FULimits)
	if err != nil {
		t.Fatalf("%s: elaborate: %v", k.Name, err)
	}
	return analysis.For(g)
}

// TestStaticLowerBoundSoundness asserts LB <= golden dynamic cycles for
// every single-kernel entry in testdata/golden_cycles.json at the same
// default configuration the goldens were recorded with.
func TestStaticLowerBoundSoundness(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	var golden map[string]goldenPoint
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatalf("decode golden: %v", err)
	}
	// ll/-prefixed entries are the clang-emitted fixture kernels; the
	// bound must hold for compiler-shaped IR exactly as for Go-built IR.
	llByName := map[string]*kernels.Kernel{}
	for _, k := range llKernels(t) {
		llByName[k.Name] = k
	}
	n := 0
	for name, pt := range golden {
		if name == "cnn-cluster" || name == "cnn-stream" {
			continue // 3-accelerator SoC scenarios, not single kernels
		}
		opts := salam.DefaultRunOpts()
		name, opts.Accel.ConservativeMemOrder = strings.CutSuffix(name, "/strict-order")
		k := kernels.ByName(kernels.Small, name)
		if k == nil {
			k = llByName[name]
		}
		if k == nil {
			t.Fatalf("golden kernel %q not in kernels.Small or testdata/ll", name)
		}
		rep := analyzeKernel(t, k, opts.Accel)
		lb := rep.LowerBound(opts.Accel)
		if lb.Cycles > pt.Cycles {
			t.Errorf("%s: static lower bound %d (binding %s) exceeds golden dynamic cycles %d",
				name, lb.Cycles, lb.Binding, pt.Cycles)
		}
		if lb.Cycles == 0 {
			t.Errorf("%s: lower bound is zero — analysis derived nothing", name)
		}
		n++
	}
	if n == 0 {
		t.Fatal("no kernels checked")
	}
}

// TestStaticLowerBoundConfigMatrix runs real simulations across the
// port/FU design space and checks the bound tracks every point from
// below. This exercises the components the golden test cannot (the bound
// must shrink or hold as resources widen, never cross the dynamic count).
func TestStaticLowerBoundConfigMatrix(t *testing.T) {
	for _, k := range []*kernels.Kernel{
		kernels.GEMM(8, 1), kernels.GEMMTree(8), kernels.Stencil2D(12, 12), kernels.NW(16),
	} {
		for _, fu := range []int{0, 2, 8} {
			for _, port := range []int{1, 2, 8} {
				opts := salam.DefaultRunOpts()
				opts.Accel.ReadPorts, opts.Accel.WritePorts = port, port
				opts.Accel.MaxOutstanding = 2 * port
				opts.Accel.ResQueueSize = 512
				if fu > 0 {
					opts.Accel.FULimits = map[salam.FUClass]int{
						salam.FUFPAdder: fu, salam.FUFPMultiplier: fu,
					}
				}
				res, err := salam.RunKernel(k, opts)
				if err != nil {
					t.Fatalf("%s fu=%d p=%d: %v", k.Name, fu, port, err)
				}
				rep := analyzeKernel(t, k, opts.Accel)
				lb := rep.LowerBound(opts.Accel)
				if lb.Cycles > res.Cycles {
					t.Errorf("%s fu=%d p=%d: lower bound %d (binding %s) exceeds dynamic %d",
						k.Name, fu, port, lb.Cycles, lb.Binding, res.Cycles)
				}
			}
		}
	}
}

// TestAnalysisReportShape sanity-checks the structural outputs on GEMM,
// whose shape is known: a 3-deep counted loop nest, fully resolved affine
// accesses, no dead ops, and exact execution counts.
func TestAnalysisReportShape(t *testing.T) {
	opts := salam.DefaultRunOpts()
	k := kernels.GEMM(8, 1)
	rep := analyzeKernel(t, k, opts.Accel)
	if len(rep.Loops) != 3 {
		t.Fatalf("GEMM loops = %d, want 3", len(rep.Loops))
	}
	for _, l := range rep.Loops {
		if l.Trip != 8 {
			t.Errorf("loop %s trip = %d, want 8", l.Header, l.Trip)
		}
	}
	if len(rep.Unreachable) != 0 || len(rep.DeadOps) != 0 {
		t.Errorf("unexpected unreachable=%v dead=%v", rep.Unreachable, rep.DeadOps)
	}
	if rep.Mem.Resolved != rep.Mem.Accesses || rep.Mem.Accesses == 0 {
		t.Errorf("mem accesses %d resolved %d, want all resolved", rep.Mem.Accesses, rep.Mem.Resolved)
	}
	if !rep.Envelope.EnergyExact {
		t.Error("GEMM energy floor should be exact (all counted loops)")
	}
	if rep.Envelope.MinDynEnergyPJ <= 0 || rep.Envelope.AreaUM2 <= 0 {
		t.Errorf("degenerate envelope: %+v", rep.Envelope)
	}
	// The innermost loop header runs 8^2*(8+1) = 576 times and carries
	// stamped ops (induction phi, compare), so the per-op II bound must
	// reach at least the 512 body executions.
	if rep.Totals.MaxOpExecs != 576 {
		t.Errorf("MaxOpExecs = %d, want 576", rep.Totals.MaxOpExecs)
	}
	// Cache: a second For on the same interned CDFG must hit.
	h0, _ := analysis.CacheStats()
	analyzeKernel(t, k, opts.Accel)
	h1, _ := analysis.CacheStats()
	if h1 <= h0 {
		t.Error("second analysis of the interned CDFG did not hit the report cache")
	}
}
