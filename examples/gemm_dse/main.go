// GEMM design-space exploration: sweep functional-unit allocations and
// memory bandwidth for the tree-reduction GEMM and print the
// power/performance points plus the Pareto frontier — the workflow of the
// paper's Figs. 13-15.
//
// The 16 sweep points are independent simulations, so they run through
// the campaign engine (internal/campaign): all cores by default, per-job
// progress on stderr, and results back in submission order so the table
// prints exactly as the serial loop would.
//
//	go run ./examples/gemm_dse
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sort"

	salam "gosalam"
	"gosalam/internal/campaign"
	"gosalam/kernels"
)

type point struct {
	fu, ports int
	timeUS    float64
	powerMW   float64
	occupancy float64
	stalled   float64
}

func main() {
	k := kernels.GEMMTree(8)
	probe := func(res *salam.Result) map[string]float64 {
		return map[string]float64{
			"fpmul_occ": res.Acc.FUOccupancy(salam.FUFPMultiplier),
			"stalled":   res.Acc.StallCycles.Value() / res.Acc.ActiveCycles.Value(),
		}
	}
	var grid []point
	var jobs []campaign.Job
	for _, fu := range []int{2, 4, 8, 16} {
		for _, ports := range []int{2, 4, 8, 16} {
			opts := salam.DefaultRunOpts()
			opts.SetPoint(ports, fu, fu)
			opts.Accel.ResQueueSize = 1024
			grid = append(grid, point{fu: fu, ports: ports})
			jobs = append(jobs, campaign.Job{
				ID:        fmt.Sprintf("gemm fu=%d ports=%d", fu, ports),
				Kernel:    k,
				KernelKey: "gemm_tree/n=8",
				Opts:      opts,
				Probe:     probe,
				ProbeKey:  "gemm_dse/v1",
			})
		}
	}

	outcomes := campaign.Run(context.Background(), campaign.Config{
		Progress: campaign.NewWriterReporter(os.Stderr),
	}, jobs)
	if err := campaign.FirstError(outcomes); err != nil {
		log.Fatal(err)
	}

	var pts []point
	for i, o := range outcomes {
		p := grid[i]
		p.timeUS = float64(o.Metrics.Ticks) / 1e6
		p.powerMW = o.Metrics.Power.TotalMW()
		p.occupancy = o.Metrics.Extra["fpmul_occ"]
		p.stalled = o.Metrics.Extra["stalled"]
		pts = append(pts, p)
	}

	fmt.Println("fp_units  ports  time_us  power_mw  fpmul_occ  stalled")
	for _, p := range pts {
		fmt.Printf("%8d %6d %8.2f %9.2f %10.1f%% %7.1f%%\n",
			p.fu, p.ports, p.timeUS, p.powerMW, p.occupancy*100, p.stalled*100)
	}

	// Pareto frontier: minimal time and power.
	sort.Slice(pts, func(i, j int) bool { return pts[i].timeUS < pts[j].timeUS })
	fmt.Println("\nPareto frontier (time vs power):")
	best := 1e18
	for _, p := range pts {
		if p.powerMW < best {
			best = p.powerMW
			fmt.Printf("  fu=%d ports=%d: %.2f µs @ %.2f mW\n", p.fu, p.ports, p.timeUS, p.powerMW)
		}
	}
	fmt.Println("\nPoints off the frontier over-allocate FUs relative to the")
	fmt.Println("memory bandwidth — the effect the paper reads off Fig. 13.")
}
