package search

import (
	"context"
	"strings"
	"sync"
	"testing"

	salam "gosalam"
	"gosalam/internal/campaign"
	"gosalam/kernels"
)

func TestFrontierInsert(t *testing.T) {
	f := &Frontier{}
	p := func(idx int, c uint64, pw, a float64) FrontierPoint {
		return FrontierPoint{Index: idx, Vec: Vec{Cycles: c, PowerMW: pw, AreaUM2: a}}
	}
	f.Insert(p(5, 100, 2, 30))
	f.Insert(p(1, 200, 1, 30)) // trades cycles for power: both stay
	if f.Len() != 2 {
		t.Fatalf("frontier len %d, want 2", f.Len())
	}
	f.Insert(p(9, 300, 3, 40)) // dominated by both
	if f.Len() != 2 {
		t.Fatalf("dominated insert changed frontier: len %d", f.Len())
	}
	f.Insert(p(3, 90, 1, 20)) // dominates everything
	if f.Len() != 1 || f.Points()[0].Index != 3 {
		t.Fatalf("dominating insert left %v", f.Points())
	}
	f.Insert(p(7, 90, 1, 20)) // exact tie, higher index: ignored
	f.Insert(p(2, 90, 1, 20)) // exact tie, lower index: wins
	if got := f.Points()[0].Index; got != 2 {
		t.Fatalf("tie kept index %d, want 2", got)
	}
	if f.DominatesVec(Vec{Cycles: 95, PowerMW: 2, AreaUM2: 25}) != true {
		t.Fatal("DominatesVec missed a dominated vector")
	}
	if f.DominatesVec(Vec{Cycles: 80, PowerMW: 5, AreaUM2: 25}) {
		t.Fatal("DominatesVec pruned a non-dominated vector")
	}
}

// checkInvariant asserts the exact accounting identity: every raw point is
// either evaluated, covered by an equivalent evaluated representative, or
// provably dominated — nothing falls through and nothing is counted twice.
func checkInvariant(t *testing.T, res *Result) {
	t.Helper()
	if got := res.Evaluated + res.CollapsedPoints + res.PrunedPoints; got != res.Points {
		t.Fatalf("accounting: evaluated %d + collapsed %d + pruned %d = %d, want %d points",
			res.Evaluated, res.CollapsedPoints, res.PrunedPoints, got, res.Points)
	}
	if res.Simulated+res.CacheHits != res.Evaluated {
		t.Fatalf("evaluated %d != simulated %d + cache hits %d",
			res.Evaluated, res.Simulated, res.CacheHits)
	}
}

// smallSpace is brute-forceable and exercises every collapse mechanism:
// gemm-tree's FP demand folds the top of the fu axis into one class, and
// the cache lattice folds the bank axis entirely.
func smallSpace() campaign.Space {
	return campaign.Space{
		Kernel: "gemm-tree",
		Mem:    []string{"spm", "cache"},
		FU:     []int{0, 2, 4, 8, 16},
		Ports:  []int{2, 4},
		Banks:  []int{2, 4},
	}
}

func TestSearchExactFrontier(t *testing.T) {
	ctx := context.Background()
	space := smallSpace()

	oracle, err := BruteForce(ctx, Config{Space: space, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ctx, Config{Space: space, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkInvariant(t, res)

	want := FrontierCSV(space.Kernel, oracle.Frontier)
	got := FrontierCSV(space.Kernel, res.Frontier)
	if want != got {
		t.Fatalf("search frontier differs from brute-force oracle:\noracle:\n%s\nsearch:\n%s", want, got)
	}
	if res.Evaluated >= res.Points {
		t.Fatalf("search evaluated %d of %d points: no better than sweeping", res.Evaluated, res.Points)
	}
	if res.Evaluated > res.Classes {
		t.Fatalf("evaluated %d points but only %d collapsed leaves exist", res.Evaluated, res.Classes)
	}
	if res.CollapsedPoints == 0 {
		t.Fatal("collapse never fired on a space built to exercise it")
	}
}

func TestSearchMillionPointSpace(t *testing.T) {
	if testing.Short() {
		t.Skip("million-point search skipped in -short")
	}
	// 1000 fu limits x 100 port widths x 10 bank counts = 10^6 raw points.
	// GEMM's dedicated FP demand collapses the entire fu axis, so the
	// search must certify the exact frontier while evaluating under 1% of
	// the space.
	space := campaign.Space{
		Kernel:    "gemm",
		FURange:   &campaign.Range{Min: 1, Max: 1000},
		PortRange: &campaign.Range{Min: 1, Max: 100},
		BankRange: &campaign.Range{Min: 1, Max: 10},
	}
	if n := space.Size(); n != 1_000_000 {
		t.Fatalf("space size %d, want 1000000", n)
	}
	res, err := Run(context.Background(), Config{Space: space})
	if err != nil {
		t.Fatal(err)
	}
	checkInvariant(t, res)
	if res.Evaluated*100 >= res.Points {
		t.Fatalf("evaluated %d of %d points (>= 1%%)", res.Evaluated, res.Points)
	}
	if len(res.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	t.Logf("points=%d classes=%d evaluated=%d simulated=%d pruned=%d collapsed=%d proxies=%d waves=%d frontier=%d",
		res.Points, res.Classes, res.Evaluated, res.Simulated, res.PrunedPoints,
		res.CollapsedPoints, res.ProxyRuns, res.Waves, len(res.Frontier))
}

func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	space := smallSpace()
	var csvs []string
	for _, workers := range []int{1, 4, 16} {
		res, err := Run(context.Background(), Config{Space: space, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		checkInvariant(t, res)
		csvs = append(csvs, FrontierCSV(space.Kernel, res.Frontier))
	}
	if csvs[0] != csvs[1] || csvs[0] != csvs[2] {
		t.Fatalf("frontier depends on worker count:\n-jobs 1:\n%s\n-jobs 4:\n%s\n-jobs 16:\n%s",
			csvs[0], csvs[1], csvs[2])
	}
}

func TestSearchColdWarmAndResume(t *testing.T) {
	space := smallSpace()
	ctx := context.Background()

	cold, err := Run(ctx, Config{Space: space, Workers: 4, coldStart: true})
	if err != nil {
		t.Fatal(err)
	}
	pool := salam.NewSessionPool()
	warm, err := Run(ctx, Config{Space: space, Workers: 4, Sessions: pool})
	if err != nil {
		t.Fatal(err)
	}
	coldCSV := FrontierCSV(space.Kernel, cold.Frontier)
	if warmCSV := FrontierCSV(space.Kernel, warm.Frontier); warmCSV != coldCSV {
		t.Fatalf("warm-start frontier differs from cold:\ncold:\n%s\nwarm:\n%s", coldCSV, warmCSV)
	}

	// Resume: a second run against the first run's store must replay every
	// measurement as a cache hit and land on the identical frontier.
	store, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first, err := Run(ctx, Config{Space: space, Workers: 4, Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(ctx, Config{Space: space, Workers: 1, Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	checkInvariant(t, second)
	if second.Simulated != 0 {
		t.Fatalf("resumed run simulated %d jobs, want 0 (all cache hits)", second.Simulated)
	}
	if second.CacheHits != second.Evaluated {
		t.Fatalf("resumed run: %d cache hits of %d evaluations", second.CacheHits, second.Evaluated)
	}
	a, b := FrontierCSV(space.Kernel, first.Frontier), FrontierCSV(space.Kernel, second.Frontier)
	if a != b {
		t.Fatalf("resumed frontier differs:\nfirst:\n%s\nsecond:\n%s", a, b)
	}
	if a != coldCSV {
		t.Fatalf("cached frontier differs from cold reference")
	}
}

func TestSearchDrainAndResume(t *testing.T) {
	space := smallSpace()
	ctx := context.Background()
	store, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// A runner that drains the search after the first few simulations.
	drain := make(chan struct{})
	var once sync.Once
	calls := 0
	var mu sync.Mutex
	runner := func(ctx context.Context, k *kernels.Kernel, opts salam.RunOpts) (*salam.Result, error) {
		mu.Lock()
		calls++
		stop := calls >= 3
		mu.Unlock()
		if stop {
			once.Do(func() { close(drain) })
		}
		return salam.RunKernelCtx(ctx, k, opts)
	}
	partial, err := Run(ctx, Config{Space: space, Workers: 2, Cache: store, Runner: runner, Drain: drain})
	if err != nil {
		t.Fatal(err)
	}
	if !partial.Drained {
		t.Fatal("search did not report the drain")
	}

	// Resuming against the same store finishes the space and matches an
	// undrained reference byte for byte.
	resumed, err := Run(ctx, Config{Space: space, Workers: 2, Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	checkInvariant(t, resumed)
	ref, err := Run(ctx, Config{Space: space, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, b := FrontierCSV(space.Kernel, ref.Frontier), FrontierCSV(space.Kernel, resumed.Frontier)
	if a != b {
		t.Fatalf("drain+resume frontier differs from reference:\nref:\n%s\nresumed:\n%s", a, b)
	}
}

// TestSearchPruning drives the engine with a scripted runner whose
// fabricated measurements sit exactly on the provable floors, so the
// port-axis tail of the space is strictly dominated and must be pruned
// without simulation.
func TestSearchPruning(t *testing.T) {
	space := campaign.Space{
		Kernel: "gemm-tree",
		FU:     []int{0},
		Ports:  []int{2, 64},
	}
	ax, err := space.Axes()
	if err != nil {
		t.Fatal(err)
	}
	// The wide-corner bounds the narrow corner's fabricated measurement
	// must dominate: cycles at ports=64, power/area floor at ports=64.
	wide := ax.JobAt(1)
	wideLB, ok := salam.StaticLowerBound(wide.Kernel, wide.Opts)
	if !ok {
		t.Fatal("no static bound for the wide corner")
	}
	wideEnv, err := salam.StaticEnvelopeFor(wide.Kernel, wide.Opts)
	if err != nil {
		t.Fatal(err)
	}

	runner := func(ctx context.Context, k *kernels.Kernel, opts salam.RunOpts) (*salam.Result, error) {
		res := &salam.Result{Cycles: wideLB}
		if opts.Accel.ReadPorts != 2 {
			// Only the narrow corner should ever be simulated.
			res.Cycles = wideLB + 1
		}
		res.Power.StaticFU = wideEnv.StaticMW / 2
		res.Power.AreaFU = wideEnv.AreaUM2 / 2
		return res, nil
	}
	res, err := Run(context.Background(), Config{Space: space, Runner: runner, noProxy: true})
	if err != nil {
		t.Fatal(err)
	}
	checkInvariant(t, res)
	if res.PrunedPoints == 0 {
		t.Fatal("dominated port tail was not pruned")
	}
	if res.Evaluated != 1 {
		t.Fatalf("evaluated %d points, want only the dominating corner", res.Evaluated)
	}
	if got := res.Frontier[0].Point.Ports; got != 2 {
		t.Fatalf("frontier kept ports=%d, want 2", got)
	}
}

// TestStaticEnvelopeFloor anchors the pruning bound to reality: the static
// envelope must reproduce a real run's area exactly and floor its power,
// in both memory modes and across bank counts.
func TestStaticEnvelopeFloor(t *testing.T) {
	k := kernels.ByName(kernels.Small, "gemm")
	for _, mode := range []string{"spm", "cache"} {
		for _, banks := range []int{1, 4, 8} {
			opts := salam.DefaultRunOpts()
			opts.SPMBanks = banks
			if mode == "cache" {
				opts.Mem = salam.MemCache
			}
			env, err := salam.StaticEnvelopeFor(k, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := salam.RunKernel(k, opts)
			if err != nil {
				t.Fatal(err)
			}
			area := res.Power.AreaFU + res.Power.AreaReg + res.Power.AreaSPM
			if diff := env.AreaUM2 - area; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("%s banks=%d: envelope area %.3f != measured %.3f", mode, banks, env.AreaUM2, area)
			}
			if env.StaticMW > res.Power.TotalMW() {
				t.Fatalf("%s banks=%d: static floor %.4f above measured power %.4f",
					mode, banks, env.StaticMW, res.Power.TotalMW())
			}
		}
	}
}

func TestSearchProxyRuns(t *testing.T) {
	// A space wide enough for multi-candidate waves must actually exercise
	// the successive-halving rung when a proxy exists.
	space := campaign.Space{
		Kernel: "gemm",
		Ports:  []int{1, 2, 3, 4, 5, 6, 7, 8},
		Banks:  []int{1, 2, 4, 8},
	}
	res, err := Run(context.Background(), Config{Space: space, Workers: 4, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkInvariant(t, res)
	if res.ProxyRuns == 0 {
		t.Fatal("proxy rung never ran on a multi-wave space")
	}
	noproxy, err := Run(context.Background(), Config{Space: space, Workers: 4, BatchSize: 4, noProxy: true})
	if err != nil {
		t.Fatal(err)
	}
	if noproxy.ProxyRuns != 0 {
		t.Fatal("noProxy still ran proxies")
	}
	// Proxy ordering must not change what the search proves.
	a, b := FrontierCSV(space.Kernel, res.Frontier), FrontierCSV(space.Kernel, noproxy.Frontier)
	if a != b {
		t.Fatalf("proxy rung changed the frontier:\nwith:\n%s\nwithout:\n%s", a, b)
	}
}

// TestSearchEDPExactFrontier proves the single-objective modes against
// brute force: for every objective (and with an area cap that rules out
// part of the space), branch and bound must land on the byte-identical
// best point while pruning on the energy/cycle floors.
func TestSearchEDPExactFrontier(t *testing.T) {
	ctx := context.Background()

	// A mid-space area cap: StaticEnvelopeFor at the largest and smallest
	// configurations brackets it so both feasible and infeasible points
	// exist, whatever the calibration constants.
	space := smallSpace()
	ax, err := space.Axes()
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 0.0, 0.0
	for i := 0; i < ax.Size(); i++ {
		j := ax.JobAt(i)
		env, err := salam.StaticEnvelopeFor(j.Kernel, j.Opts)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 || env.AreaUM2 < lo {
			lo = env.AreaUM2
		}
		if env.AreaUM2 > hi {
			hi = env.AreaUM2
		}
	}
	if hi <= lo {
		t.Fatalf("area cap has no bite: all %d points at %.0f um2", ax.Size(), lo)
	}
	cap := (lo + hi) / 2

	for _, tc := range []struct {
		name      string
		objective string
		maxArea   float64
	}{
		{"edp", "edp", 0},
		{"cycles", "cycles", 0},
		{"edp-max-area", "edp", cap},
		{"cycles-max-area", "cycles", cap},
		{"pareto-max-area", "pareto", cap},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp := smallSpace()
			sp.Objective = tc.objective
			sp.MaxAreaUM2 = tc.maxArea

			oracle, err := BruteForce(ctx, Config{Space: sp, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(ctx, Config{Space: sp, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			checkInvariant(t, res)

			want := FrontierCSV(sp.Kernel, oracle.Frontier)
			got := FrontierCSV(sp.Kernel, res.Frontier)
			if want != got {
				t.Fatalf("%s result differs from brute-force oracle:\noracle:\n%s\nsearch:\n%s", tc.name, want, got)
			}
			if tc.objective != "pareto" && len(res.Frontier) > 1 {
				t.Fatalf("single-objective search returned %d points", len(res.Frontier))
			}
			if len(res.Frontier) == 0 {
				t.Fatalf("%s found no feasible point (cap %.0f um2)", tc.name, tc.maxArea)
			}
			if res.Evaluated >= res.Points {
				t.Fatalf("search evaluated %d of %d points: no better than sweeping", res.Evaluated, res.Points)
			}
			if tc.maxArea > 0 {
				for _, p := range res.Frontier {
					if p.Vec.AreaUM2 > tc.maxArea {
						t.Fatalf("result area %.0f exceeds the %.0f um2 cap", p.Vec.AreaUM2, tc.maxArea)
					}
				}
			}
		})
	}
}

// TestSearchEDPDeterministic pins the EDP objective's worker independence.
func TestSearchEDPDeterministic(t *testing.T) {
	sp := smallSpace()
	sp.Objective = "edp"
	var csvs []string
	for _, workers := range []int{1, 8} {
		res, err := Run(context.Background(), Config{Space: sp, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		checkInvariant(t, res)
		csvs = append(csvs, FrontierCSV(sp.Kernel, res.Frontier))
	}
	if csvs[0] != csvs[1] {
		t.Fatalf("EDP winner depends on worker count:\n-jobs 1:\n%s\n-jobs 8:\n%s", csvs[0], csvs[1])
	}
}

func TestFrontierCSVShape(t *testing.T) {
	res, err := Run(context.Background(), Config{Space: campaign.Space{Kernel: "gemm"}})
	if err != nil {
		t.Fatal(err)
	}
	csv := FrontierCSV("gemm", res.Frontier)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if lines[0] != "kernel,memory,fu_limit,ports,banks,index,cycles,power_mw,area_um2,energy_pj,edp" {
		t.Fatalf("bad header %q", lines[0])
	}
	if len(lines) != len(res.Frontier)+1 {
		t.Fatalf("%d rows for %d frontier points", len(lines)-1, len(res.Frontier))
	}
	if !strings.HasPrefix(lines[1], "gemm,spm,") {
		t.Fatalf("bad row %q", lines[1])
	}
}
