// Command salam-dse sweeps accelerator design parameters for a kernel and
// emits CSV — the paper's design-space-exploration workflow (Sec. IV-D),
// where a script sweeps FU allocations and memory bandwidth and the
// results are analyzed as a Pareto set.
//
// Points are independent simulations, so the sweep runs on the campaign
// engine: a worker pool sized by -jobs, per-job fault isolation and
// timeouts, optional content-addressed result caching (-cache), and
// per-job progress on stderr. Output order and bytes are identical to the
// serial sweep regardless of worker count. Workers reuse warm-started
// pooled systems that share one immutable CDFG per configuration (the
// elaboration cache).
//
// The flags build a campaign.Space — the same spec a salam-serve
// submission carries — so the CLI and the service enumerate identical job
// lists. -json switches the output to the canonical NDJSON row stream
// (one campaign.Row per line; `-no-prune -json` output diffs clean
// against a salam-serve results stream), and -remote runs the sweep on a
// salam-serve daemon instead of in-process.
//
// Usage:
//
//	salam-dse -kernel gemm -ports 2,4,8 -fu 4,8,16 > sweep.csv
//	salam-dse -kernel gemm -jobs 8 -cache results/cache > sweep.csv
//	salam-dse -kernel gemm -no-prune -json > sweep.ndjson
//	salam-dse -kernel gemm -remote http://127.0.0.1:8080 > sweep.csv
//
// -search switches from sweeping to searching: instead of simulating every
// point, the branch-and-bound engine (internal/search) proves the exact
// Pareto frontier over (cycles, power, area) while simulating only the
// points the bounds cannot exclude. The ranged knob forms (-port-range,
// -fu-range, -bank-range, each "min:max" or "min:max:step") declare
// million-point spaces in a few bytes — the search never enumerates the
// cross product. The frontier CSV lands on stdout; the points-simulated /
// points-pruned accounting lands on stderr. With -remote the search runs
// on a salam-serve daemon (POST /v1/searches) and the CLI polls until the
// certified frontier is ready — the bytes are identical either way.
//
//	salam-dse -search -kernel gemm -fu-range 1:1000 -port-range 1:100 -banks 1,2,4,8 > frontier.csv
//	salam-dse -search -kernel gemm -fu-range 1:1000 -remote http://127.0.0.1:8080 > frontier.csv
//
// -objective switches the search target: "pareto" (default) proves the
// three-axis frontier, "edp" minimizes energy-delay product, and "cycles"
// minimizes cycles — both single-objective modes prune on the provable
// static energy/cycle floors and return the single best point. -max-area
// constrains any objective to configurations within an area budget (µm²).
//
//	salam-dse -search -objective edp -kernel gemm -fu-range 1:1000 -port-range 1:100 > best.csv
//	salam-dse -search -objective cycles -max-area 2e6 -kernel gemm -fu-range 1:1000 > best.csv
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	salam "gosalam"
	"gosalam/internal/campaign"
	"gosalam/internal/search"
	"gosalam/internal/sim"
	"gosalam/internal/soccfg"
)

// parseInts parses a comma-separated int list, rejecting values < min so
// degenerate configs (0 ports, negative FU pools) fail fast with a clear
// message instead of producing meaningless rows.
func parseInts(s, what string, min int) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("invalid %s %q: %v", what, part, err)
		}
		if v < min {
			return nil, fmt.Errorf("invalid %s %d: must be >= %d", what, v, min)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseRange parses the ranged knob form "min:max" or "min:max:step".
func parseRange(s, what string) (*campaign.Range, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 && len(parts) != 3 {
		return nil, fmt.Errorf("invalid %s %q: want min:max or min:max:step", what, s)
	}
	vals := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("invalid %s %q: %v", what, s, err)
		}
		vals[i] = v
	}
	r := &campaign.Range{Min: vals[0], Max: vals[1]}
	if len(vals) == 3 {
		r.Step = vals[2]
	}
	return r, nil
}

func main() {
	kernel := flag.String("kernel", "gemm", "kernel name")
	preset := flag.String("preset", "small", "workload preset: small, default, micro or large")
	cfgPath := flag.String("config", "", "flat run-config JSON; its kernel and preset seed the sweep (overrides -kernel/-preset)")
	portsList := flag.String("ports", "2,4,8", "read/write port counts to sweep (each >= 1)")
	fuList := flag.String("fu", "0", "FP adder+multiplier limits to sweep (0 = dedicated)")
	banksList := flag.String("banks", "", "SPM bank counts to sweep (empty = the paper default, 4)")
	memList := flag.String("mem", "spm", "memory kinds to sweep: spm,cache")
	portRange := flag.String("port-range", "", "ranged port knob, min:max[:step] (replaces -ports)")
	fuRange := flag.String("fu-range", "", "ranged FU-limit knob, min:max[:step] (replaces -fu)")
	bankRange := flag.String("bank-range", "", "ranged bank knob, min:max[:step] (replaces -banks)")
	doSearch := flag.Bool("search", false, "prove the exact Pareto frontier by branch-and-bound instead of sweeping every point")
	objective := flag.String("objective", "pareto", "with -search: pareto (frontier), edp (minimize energy-delay product), or cycles (minimize cycles)")
	maxArea := flag.Float64("max-area", 0, "with -search: only admit configurations whose total area fits this budget in um2 (0 = unconstrained)")
	jobs := flag.Int("jobs", 0, "parallel simulations (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache", "", "result-cache directory (e.g. results/cache); empty disables caching")
	timeout := flag.Duration("timeout", 0, "per-simulation timeout (0 = none)")
	quiet := flag.Bool("quiet", false, "suppress per-job progress lines on stderr")
	dumpStats := flag.Bool("stats", false, "dump campaign counters to stderr at the end")
	noPrune := flag.Bool("no-prune", false, "simulate every point, even ones the static analyzer proves worse than an already-measured point")
	traceBest := flag.String("trace-best", "", "after the sweep, re-run the best point with timeline tracing and write the Perfetto trace here")
	jsonOut := flag.Bool("json", false, "emit the canonical NDJSON row stream instead of CSV")
	remote := flag.String("remote", "", "run the sweep on a salam-serve daemon at this base URL instead of in-process")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var mems []string
	for _, m := range strings.Split(*memList, ",") {
		mems = append(mems, strings.TrimSpace(m))
	}

	// The flags assemble the same declarative space a salam-serve
	// submission posts. Each knob takes the list form or the range form;
	// the range form never enumerates, so -search can explore spaces far
	// too large to sweep.
	space := campaign.Space{
		Kernel:    *kernel,
		Preset:    *preset,
		Mem:       mems,
		TimeoutMS: int(timeout.Milliseconds()),
	}
	if *cfgPath != "" {
		c, err := soccfg.Load(*cfgPath)
		if err != nil {
			fail(err)
		}
		switch {
		case c.Version != 0:
			fail(fmt.Errorf("%s: sweeps take flat (version 0) configs, not topologies", *cfgPath))
		case c.Kernel == "":
			fail(fmt.Errorf("%s: sweeps need a named built-in kernel (ir_file configs are not sweepable)", *cfgPath))
		case len(c.Size) > 0:
			fail(fmt.Errorf("%s: sweeps enumerate presets, not explicit sizes", *cfgPath))
		}
		space.Kernel = c.Kernel
		if c.Preset != "" {
			space.Preset = c.Preset
		}
	}
	knob := func(dst *[]int, rdst **campaign.Range, list, rng, what string, min int) {
		if rng != "" {
			r, err := parseRange(rng, what+" range")
			if err != nil {
				fail(err)
			}
			*rdst = r
			return
		}
		if list == "" {
			return
		}
		vs, err := parseInts(list, what, min)
		if err != nil {
			fail(err)
		}
		*dst = vs
	}
	knob(&space.Ports, &space.PortRange, *portsList, *portRange, "port count", 1)
	knob(&space.FU, &space.FURange, *fuList, *fuRange, "FU limit", 0)
	knob(&space.Banks, &space.BankRange, *banksList, *bankRange, "bank count", 1)

	if (*objective != "pareto" || *maxArea != 0) && !*doSearch {
		fail(fmt.Errorf("-objective and -max-area require -search (a sweep simulates every point regardless)"))
	}
	if *objective != "pareto" {
		// The default spelling stays out of the JSON so pre-objective
		// submissions keep byte-identical bodies.
		space.Objective = *objective
	}
	space.MaxAreaUM2 = *maxArea

	if *doSearch {
		if *remote != "" {
			os.Exit(runRemoteSearch(*remote, space))
		}
		os.Exit(runSearch(space, *jobs, *cacheDir, *dumpStats))
	}

	// Build enumerates points and jobs in the canonical sweep order and
	// rejects config errors before any simulation runs.
	pts, jobSpecs, err := space.Build()
	if err != nil {
		fail(err)
	}
	kname := jobSpecs[0].Kernel.Name

	if *remote != "" {
		os.Exit(runRemote(*remote, space, *jsonOut, kname, pts, jobSpecs))
	}

	cfg := campaign.Config{
		Workers:   *jobs,
		Timeout:   *timeout,
		Stats:     sim.NewGroup("dse"),
		TraceBest: *traceBest,
	}
	if !*noPrune {
		// Static lower-bound pruning: points the analyzer proves worse
		// than the pilot measurement render as "pruned" rows instead of
		// burning a simulation. The best point is provably unaffected;
		// -no-prune simulates everything.
		cfg.Prune = campaign.StaticPrune
	}
	if !*quiet {
		cfg.Progress = campaign.NewWriterReporter(os.Stderr)
	}
	if *cacheDir != "" {
		cache, err := campaign.OpenCache(*cacheDir)
		if err != nil {
			fail(err)
		}
		cfg.Cache = cache
	}

	rows := campaign.Rows(campaign.Run(context.Background(), cfg, jobSpecs))
	if *jsonOut {
		// The canonical row stream: no static_lb backfill, no CSV
		// massaging — with -no-prune these bytes diff clean against the
		// same space streamed from a salam-serve daemon.
		if err := campaign.WriteRows(os.Stdout, rows); err != nil {
			fail(err)
		}
	} else {
		fmt.Println(csvHeader)
	}
	failed := 0
	for _, row := range rows {
		if row.Status == campaign.StatusError {
			failed++
			fmt.Fprintf(os.Stderr, "warning: %s: %s\n", row.ID, row.Error)
		}
		if !*jsonOut {
			printCSVRow(kname, pts[row.Index], jobSpecs[row.Index], row)
		}
	}
	if *dumpStats {
		cfg.Stats.Dump(os.Stderr)
		hits, misses := salam.ElabCacheStats()
		fmt.Fprintf(os.Stderr, "elab_cache: %d hits, %d misses\n", hits, misses)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d of %d points failed\n", failed, len(rows))
		os.Exit(1)
	}
}

const csvHeader = "kernel,memory,fu_limit,ports,cycles,static_lb,static_energy,time_us,power_mw,datapath_mw,area_um2"

// printCSVRow renders one canonical row in the sweep's CSV schema — the
// one renderer behind the in-process and the -remote sweep. A failed point
// becomes an error row; the sweep still reports every other point.
func printCSVRow(kname string, pt campaign.Point, job campaign.Job, row campaign.Row) {
	switch row.Status {
	case campaign.StatusOK:
		lb, energy := row.StaticLB, row.StaticEnergyPJ
		if lb == 0 {
			// Only a pruning campaign bounds its jobs (the server never
			// does); fill the column here so every ok row is comparable.
			// The CDFG and its analysis are cached, so this is cheap.
			lb, _ = campaign.StaticPrune(job)
		}
		if energy == 0 {
			// Pre-energy servers omit the field; derive it locally.
			energy, _ = campaign.StaticEnergy(job)
		}
		m := row.Metrics
		fmt.Printf("%s,%s,%d,%d,%d,%d,%.1f,%.3f,%.3f,%.3f,%.0f\n",
			kname, pt.Mem, pt.FU, pt.Ports, m.Cycles, lb, energy,
			float64(m.Ticks)/1e6, m.Power.TotalMW(),
			m.Power.DatapathMW(), m.Power.TotalAreaUM2())
	case campaign.StatusError:
		msg := strings.NewReplacer(",", ";", "\n", " ").Replace(row.Error)
		fmt.Printf("%s,%s,%d,%d,error,%s\n", kname, pt.Mem, pt.FU, pt.Ports, msg)
	default:
		// pruned, or skipped by a sharded server: the point has no metrics.
		fmt.Printf("%s,%s,%d,%d,%s,%d,%.1f,,,,\n", kname, pt.Mem, pt.FU, pt.Ports, row.Status, row.StaticLB, row.StaticEnergyPJ)
	}
}

// submit posts the space to a salam-serve endpoint and decodes the 202
// acknowledgement.
func submit(base, path string, space campaign.Space, ack any) error {
	body, err := json.Marshal(space)
	if err != nil {
		return err
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s rejected the space: HTTP %d: %s", base, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(ack)
}

// runRemote submits the space to a salam-serve daemon and renders its
// results stream — raw NDJSON passthrough with -json, or the same CSV the
// in-process sweep prints. Returns the process exit code.
func runRemote(base string, space campaign.Space, jsonOut bool, kname string, pts []campaign.Point, jobSpecs []campaign.Job) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "remote:", err)
		return 2
	}
	base = strings.TrimRight(base, "/")
	var accepted struct {
		ID      string `json:"id"`
		Results string `json:"results"`
	}
	if err := submit(base, "/v1/campaigns", space, &accepted); err != nil {
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "remote: campaign %s accepted (%d points) on %s\n", accepted.ID, len(jobSpecs), base)

	stream, err := http.Get(base + accepted.Results)
	if err != nil {
		return fail(err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		return fail(fmt.Errorf("results stream: HTTP %d", stream.StatusCode))
	}

	if jsonOut {
		// Byte-for-byte passthrough of the canonical row stream.
		if _, err := io.Copy(os.Stdout, stream.Body); err != nil {
			return fail(err)
		}
		return 0
	}

	fmt.Println(csvHeader)
	failed := 0
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var row campaign.Row
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return fail(fmt.Errorf("decoding results row: %w", err))
		}
		if row.Index < 0 || row.Index >= len(pts) {
			return fail(fmt.Errorf("results row index %d outside the %d-point space", row.Index, len(pts)))
		}
		if row.Status == campaign.StatusError {
			failed++
			fmt.Fprintf(os.Stderr, "warning: %s: %s\n", row.ID, row.Error)
		}
		printCSVRow(kname, pts[row.Index], jobSpecs[row.Index], row)
	}
	if err := sc.Err(); err != nil {
		return fail(err)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d of %d points failed\n", failed, len(jobSpecs))
		return 1
	}
	return 0
}

// searchStats renders the search's accounting line: how much of the space
// was simulated versus proven away.
func searchStats(res *search.Result) string {
	return fmt.Sprintf(
		"search: points=%d classes=%d evaluated=%d simulated=%d cache_hits=%d points_pruned=%d points_collapsed=%d proxy_runs=%d waves=%d frontier=%d",
		res.Points, res.Classes, res.Evaluated, res.Simulated, res.CacheHits,
		res.PrunedPoints, res.CollapsedPoints, res.ProxyRuns, res.Waves, len(res.Frontier))
}

// runSearch proves the space's Pareto frontier in-process: frontier CSV on
// stdout, accounting on stderr. Returns the process exit code.
func runSearch(space campaign.Space, jobs int, cacheDir string, dumpStats bool) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "search:", err)
		return 2
	}
	if err := space.Validate(); err != nil {
		return fail(err)
	}
	cfg := search.Config{Space: space, Workers: jobs}
	if cacheDir != "" {
		cache, err := campaign.OpenCache(cacheDir)
		if err != nil {
			return fail(err)
		}
		cfg.Cache = cache
	}
	var stats *sim.Group
	if dumpStats {
		stats = sim.NewGroup("dse")
		cfg.Stats = stats
	}
	res, err := search.Run(context.Background(), cfg)
	if err != nil {
		return fail(err)
	}
	fmt.Print(search.FrontierCSV(space.Kernel, res.Frontier))
	fmt.Fprintln(os.Stderr, searchStats(res))
	if dumpStats {
		stats.Dump(os.Stderr)
		hits, misses := salam.ElabCacheStats()
		fmt.Fprintf(os.Stderr, "elab_cache: %d hits, %d misses\n", hits, misses)
	}
	return 0
}

// runRemoteSearch submits the space to a salam-serve daemon's /v1/searches,
// polls until the search is terminal, and prints the certified frontier —
// byte-identical to what runSearch prints for the same space. Returns the
// process exit code.
func runRemoteSearch(base string, space campaign.Space) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "remote search:", err)
		return 2
	}
	base = strings.TrimRight(base, "/")
	var accepted struct {
		ID       string `json:"id"`
		Points   int    `json:"points"`
		Classes  int    `json:"classes"`
		Frontier string `json:"frontier"`
	}
	if err := submit(base, "/v1/searches", space, &accepted); err != nil {
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "remote: search %s accepted (%d points, %d collapsed classes) on %s\n",
		accepted.ID, accepted.Points, accepted.Classes, base)

	// Poll status until terminal; a search has no row stream to block on.
	var snap struct {
		State           string `json:"state"`
		Reason          string `json:"reason"`
		Points          int    `json:"points"`
		Classes         int    `json:"classes"`
		Evaluated       int    `json:"evaluated"`
		Simulated       int    `json:"simulated"`
		Cached          int    `json:"cached"`
		ProxyRuns       int    `json:"proxy_runs"`
		PrunedPoints    int    `json:"pruned_points"`
		CollapsedPoints int    `json:"collapsed_points"`
		Waves           int    `json:"waves"`
		FrontierSize    int    `json:"frontier_size"`
	}
	for {
		st, err := http.Get(base + "/v1/searches/" + accepted.ID)
		if err != nil {
			return fail(err)
		}
		snap.State, snap.Reason = "", ""
		err = json.NewDecoder(st.Body).Decode(&snap)
		st.Body.Close()
		if err != nil {
			return fail(err)
		}
		if snap.State == "done" || snap.State == "canceled" {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}
	if snap.State == "canceled" {
		return fail(fmt.Errorf("search canceled: %s", snap.Reason))
	}

	fr, err := http.Get(base + accepted.Frontier)
	if err != nil {
		return fail(err)
	}
	defer fr.Body.Close()
	if fr.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(fr.Body, 4096))
		return fail(fmt.Errorf("frontier: HTTP %d: %s", fr.StatusCode, strings.TrimSpace(string(msg))))
	}
	if _, err := io.Copy(os.Stdout, fr.Body); err != nil {
		return fail(err)
	}
	fmt.Fprintf(os.Stderr,
		"search: points=%d classes=%d evaluated=%d simulated=%d cache_hits=%d points_pruned=%d points_collapsed=%d proxy_runs=%d waves=%d frontier=%d\n",
		snap.Points, snap.Classes, snap.Evaluated, snap.Simulated, snap.Cached,
		snap.PrunedPoints, snap.CollapsedPoints, snap.ProxyRuns, snap.Waves, snap.FrontierSize)
	return 0
}
