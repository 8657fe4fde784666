package salam_test

// One testing.B benchmark per table and figure in the paper's evaluation,
// plus ablation benches for the design decisions called out in DESIGN.md.
// Benchmarks run the experiments at smoke scale so `go test -bench=.`
// stays tractable; `cmd/salam-experiments -scale full` regenerates the
// recorded EXPERIMENTS.md numbers.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	salam "gosalam"
	"gosalam/internal/campaign"
	"gosalam/internal/experiments"
	"gosalam/internal/search"
	"gosalam/kernels"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	r, ok := experiments.RunnerByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := r.Run(experiments.ScaleSmoke)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// Paper Table I: baseline datapath vs data-dependent execution.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// Paper Table II: baseline datapath vs memory design.
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// Paper Fig. 4: power breakdown with private SPM.
func BenchmarkFig4(b *testing.B) { benchExperiment(b, "fig4") }

// Paper Fig. 10: timing validation vs the HLS reference.
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// Paper Fig. 11: power validation vs the synthesis reference.
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// Paper Fig. 12: area validation vs the synthesis reference.
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }

// Paper Table III: full-system validation vs the FPGA model.
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }

// Paper Table IV: preprocessing/simulation wall-clock vs the baseline.
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }

// Paper Fig. 13: GEMM power/performance Pareto sweep.
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13") }

// Paper Fig. 14: GEMM stall breakdown vs read/write ports.
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14") }

// Paper Fig. 15: GEMM memory/compute co-design exploration.
func BenchmarkFig15(b *testing.B) { benchExperiment(b, "fig15") }

// Paper Fig. 16: producer-consumer accelerator scenarios.
func BenchmarkFig16(b *testing.B) { benchExperiment(b, "fig16") }

// Raw engine throughput: how fast the execute-in-execute engine simulates
// one representative kernel (the quantity behind Table IV's SALAM column).
func BenchmarkEngineGEMM(b *testing.B) {
	k := kernels.GEMM(8, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := salam.RunKernel(k, salam.DefaultRunOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineBFS(b *testing.B) {
	k := kernels.BFS(64, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := salam.RunKernel(k, salam.DefaultRunOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation 3 (DESIGN.md): bounded basic-block fetch window — loop
// pipelining on vs off.
func BenchmarkAblationWindow(b *testing.B) {
	k := kernels.GEMM(8, 1)
	for _, pipe := range []bool{true, false} {
		name := "pipelined"
		if !pipe {
			name = "drain"
		}
		b.Run(name, func(b *testing.B) {
			opts := salam.DefaultRunOpts()
			opts.Accel.PipelineLoops = pipe
			b.ReportAllocs()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				res, err := salam.RunKernel(k, opts)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// Ablation 4: dedicated 1:1 FUs vs constrained pools.
func BenchmarkAblationFUReuse(b *testing.B) {
	k := kernels.GEMMTree(8)
	for _, fu := range []int{0, 2, 8} {
		name := "dedicated"
		if fu > 0 {
			name = "pool-" + string(rune('0'+fu))
		}
		b.Run(name, func(b *testing.B) {
			opts := salam.DefaultRunOpts()
			// Wide memory so the FP pool, not bandwidth, binds.
			opts.Accel.ReadPorts, opts.Accel.WritePorts = 8, 8
			opts.Accel.MaxOutstanding = 32
			opts.SPMPortsPer = 8
			opts.Accel.ResQueueSize = 512
			if fu > 0 {
				opts.Accel.FULimits = map[salam.FUClass]int{
					salam.FUFPAdder: fu, salam.FUFPMultiplier: fu,
				}
			}
			b.ReportAllocs()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				res, err := salam.RunKernel(k, opts)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// Ablation 5: dynamic memory disambiguation vs strict program order.
func BenchmarkAblationMemOrder(b *testing.B) {
	k := kernels.Stencil2D(12, 12)
	for _, conservative := range []bool{false, true} {
		name := "disambiguate"
		if conservative {
			name = "strict-order"
		}
		b.Run(name, func(b *testing.B) {
			opts := salam.DefaultRunOpts()
			opts.Accel.ConservativeMemOrder = conservative
			b.ReportAllocs()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				res, err := salam.RunKernel(k, opts)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// buildDSESweep is the Fig. 13-style GEMMTree sweep shared by the
// campaign benchmarks.
func buildDSESweep() []campaign.Job {
	k := kernels.GEMMTree(8)
	var jobs []campaign.Job
	for _, fu := range []int{2, 4, 8, 16} {
		for _, port := range []int{2, 4, 8} {
			opts := salam.DefaultRunOpts()
			opts.Accel.ReadPorts, opts.Accel.WritePorts = port, port
			opts.Accel.MaxOutstanding = 2 * port
			opts.SPMPortsPer = port
			opts.Accel.ResQueueSize = 1024
			opts.Accel.FULimits = map[salam.FUClass]int{
				salam.FUFPAdder: fu, salam.FUFPMultiplier: fu,
			}
			jobs = append(jobs, campaign.Job{
				ID:        fmt.Sprintf("fu=%d p=%d", fu, port),
				Kernel:    k,
				KernelKey: "gemm_tree/n=8",
				Opts:      opts,
			})
		}
	}
	return jobs
}

// BenchmarkDSECampaign: the Fig. 13-style sweep through the campaign
// engine at 1 worker vs all cores — the wall-clock win that motivates the
// subsystem. Output ordering is identical at both settings; only the
// elapsed time differs.
func BenchmarkDSECampaign(b *testing.B) {
	buildJobs := buildDSESweep
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := campaign.Run(context.Background(), campaign.Config{Workers: workers}, buildJobs())
				if err := campaign.FirstError(out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Steady-state variant: a persistent pre-warmed SessionPool shared
	// across campaigns, so every job is an elaboration-cache hit re-running
	// a pooled system — the per-design-point cost of a long DSE sweep.
	b.Run("warm-pool", func(b *testing.B) {
		pool := salam.NewSessionPool()
		cfg := campaign.Config{Workers: 1, Sessions: pool}
		if err := campaign.FirstError(campaign.Run(context.Background(), cfg, buildJobs())); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out := campaign.Run(context.Background(), cfg, buildJobs())
			if err := campaign.FirstError(out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDSESearch: the tentpole quantity — prove the exact Pareto
// frontier of a million-point ranged GEMM space (1000 FU limits × 100 port
// widths × 10 bank counts) by branch-and-bound instead of sweeping it.
// points-evaluated over points-total is the fraction of the space the
// search had to simulate; the frontier it returns is exactly the one a
// 10⁶-point brute-force sweep would Pareto-filter (TestSearchExactFrontier
// proves equality on enumerable spaces; the bound and collapse arguments
// extend it to this scale).
func BenchmarkDSESearch(b *testing.B) {
	space := campaign.Space{
		Kernel:    "gemm",
		FURange:   &campaign.Range{Min: 1, Max: 1000},
		PortRange: &campaign.Range{Min: 1, Max: 100},
		BankRange: &campaign.Range{Min: 1, Max: 10},
	}
	b.ReportAllocs()
	var res *search.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = search.Run(context.Background(), search.Config{Space: space})
		if err != nil {
			b.Fatal(err)
		}
	}
	if res.Points != 1_000_000 || len(res.Frontier) == 0 {
		b.Fatalf("searched %d points, frontier %d", res.Points, len(res.Frontier))
	}
	if res.Evaluated*100 >= res.Points {
		b.Fatalf("search evaluated %d of %d points; want < 1%%", res.Evaluated, res.Points)
	}
	b.ReportMetric(float64(res.Points), "points-total")
	b.ReportMetric(float64(res.Evaluated), "points-evaluated")
	b.ReportMetric(float64(res.PrunedPoints+res.CollapsedPoints), "points-avoided")
	b.ReportMetric(float64(len(res.Frontier)), "frontier-size")
}

// BenchmarkDSESearchEDP: single-objective search over a 10⁵-point ranged
// GEMM space minimizing energy-delay product. Unlike the Pareto run, a
// single incumbent EDP gives the energy floor something to prune against,
// so points-pruned must be nonzero: regions whose provable energy/EDP
// floor already exceeds the best measured point die without simulation.
func BenchmarkDSESearchEDP(b *testing.B) {
	space := campaign.Space{
		Kernel:    "gemm",
		FURange:   &campaign.Range{Min: 1, Max: 500},
		PortRange: &campaign.Range{Min: 1, Max: 50},
		BankRange: &campaign.Range{Min: 1, Max: 8},
		Objective: "edp",
	}
	b.ReportAllocs()
	var res *search.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = search.Run(context.Background(), search.Config{Space: space})
		if err != nil {
			b.Fatal(err)
		}
	}
	if res.Points != 200_000 || len(res.Frontier) != 1 {
		b.Fatalf("searched %d points, result %d", res.Points, len(res.Frontier))
	}
	if res.PrunedPoints == 0 {
		b.Fatal("EDP floor never pruned a region")
	}
	if res.Evaluated*100 >= res.Points {
		b.Fatalf("search evaluated %d of %d points; want < 1%%", res.Evaluated, res.Points)
	}
	b.ReportMetric(float64(res.Points), "points-total")
	b.ReportMetric(float64(res.Evaluated), "points-evaluated")
	b.ReportMetric(float64(res.PrunedPoints), "points-pruned")
	b.ReportMetric(res.Frontier[0].Vec.EDP, "best-edp-pjns")
}
