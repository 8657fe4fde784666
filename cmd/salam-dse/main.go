// Command salam-dse explores one accelerator design space — the paper's
// design-space-exploration workflow (Sec. IV-D), where a script sweeps FU
// allocations and memory bandwidth and the results are analyzed as a
// Pareto set.
//
// The space is one JSON document (-space FILE, or - for stdin): a
// campaign.Space, the body a salam-serve submission carries, so the CLI
// and the service enumerate identical job lists. It is decoded strictly: a
// typo'd key is rejected with its field path and a "did you mean" hint.
// configs/spaces/ holds examples.
//
// A sweep simulates the points on the campaign engine — -jobs workers,
// per-point fault isolation and timeouts, an optional result cache
// (-cache), progress on stderr — and prints CSV that is byte-identical at
// any worker count. Static pruning is on by default: the point with the
// smallest provable cycle bound runs first, and every point whose bound
// exceeds that measurement prints as a pruned row instead of simulating;
// the best point is unchanged (-no-prune simulates every point). -json
// prints the canonical NDJSON rows instead (`-no-prune -json` diffs clean
// against a salam-serve results stream), -remote runs the sweep on a
// salam-serve daemon, and -trace-best writes a Perfetto trace of the best
// point.
//
//	salam-dse -space configs/spaces/gemm_tree_prune.json > sweep.csv
//	salam-dse -space configs/spaces/gemm_sweep.json -no-prune -json > sweep.ndjson
//	salam-dse -space configs/spaces/gemm_sweep.json -remote http://127.0.0.1:8080 > sweep.csv
//
// -search proves the document's objective instead — the (cycles, power,
// area) Pareto frontier, or the best point for "edp" and "cycles" — by
// branch-and-bound (internal/search), simulating only the points the
// bounds cannot exclude; ranged knobs declare million-point spaces it never
// enumerates. Frontier CSV on stdout, accounting on stderr, identical
// bytes with -remote.
//
//	salam-dse -search -space configs/spaces/gemm_search.json > frontier.csv
//
// Exit status 2 is a bad invocation or an unusable daemon, 1 a failed
// point.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	salam "gosalam"
	"gosalam/internal/campaign"
	"gosalam/internal/search"
	"gosalam/internal/sim"
	"gosalam/internal/timeline"
	"gosalam/kernels"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one invocation and returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("salam-dse", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spacePath := fs.String("space", "", "design-space document, campaign.Space JSON (\"-\" = stdin)")
	doSearch := fs.Bool("search", false, "prove the exact frontier by branch-and-bound instead of sweeping every point")
	jobs := fs.Int("jobs", 0, "parallel simulations (0 = GOMAXPROCS)")
	cacheDir := fs.String("cache", "", "result-cache directory (e.g. results/cache); empty disables caching")
	quiet := fs.Bool("quiet", false, "suppress per-job progress lines on stderr")
	dumpStats := fs.Bool("stats", false, "dump campaign counters to stderr at the end")
	noPrune := fs.Bool("no-prune", false, "simulate every point, even ones the static analyzer proves worse than an already-measured point")
	traceBest := fs.String("trace-best", "", "after the sweep, re-run the best point with timeline tracing and write the Perfetto trace here")
	jsonOut := fs.Bool("json", false, "emit the canonical NDJSON row stream instead of CSV")
	remote := fs.String("remote", "", "run on a salam-serve daemon at this base URL instead of in-process")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int { return failure(stderr, "salam-dse:", err) }
	if *spacePath == "" {
		return fail(errors.New("-space is required: a campaign.Space JSON document, or - for stdin"))
	}
	space, err := campaign.LoadSpace(*spacePath)
	if err != nil {
		return fail(err)
	}
	var cache campaign.Store
	if *cacheDir != "" {
		c, err := campaign.OpenCache(*cacheDir)
		if err != nil {
			return fail(err)
		}
		cache = c
	}

	if *doSearch {
		if *remote != "" {
			return runRemoteSearch(*remote, space, stdout, stderr)
		}
		return runSearch(space, *jobs, cache, *dumpStats, stdout, stderr)
	}

	// Build enumerates points and jobs in the canonical sweep order and
	// rejects config errors before any simulation runs.
	pts, jobSpecs, err := space.Build()
	if err != nil {
		return fail(err)
	}
	kname := jobSpecs[0].Kernel.Name
	if *remote != "" {
		return runRemote(*remote, space, *jsonOut, kname, pts, jobSpecs, stdout, stderr)
	}

	cfg := campaign.Config{
		Workers:  *jobs,
		Cache:    cache,
		Sessions: salam.NewSessionPool(), // the pilot's system warms the sweep
		Stats:    sim.NewGroup("dse"),
	}
	if !*quiet {
		cfg.Progress = campaign.NewWriterReporter(stderr)
	}
	bound := salam.StaticLowerBound
	if *noPrune {
		bound = nil
	}
	ctx := context.Background()
	rows := sweep(ctx, cfg, jobSpecs, bound)
	if *jsonOut {
		// The canonical row stream: no static_lb backfill, no CSV
		// massaging — with -no-prune these bytes diff clean against the
		// same space streamed from a salam-serve daemon.
		if err := campaign.WriteRows(stdout, rows); err != nil {
			return fail(err)
		}
	} else {
		fmt.Fprintln(stdout, csvHeader)
	}
	failed := 0
	for _, row := range rows {
		if row.Status == campaign.StatusError {
			failed++
			fmt.Fprintf(stderr, "warning: %s: %s\n", row.ID, row.Error)
		}
		if !*jsonOut {
			printCSVRow(stdout, kname, pts[row.Index], jobSpecs[row.Index], row)
		}
	}
	if *traceBest != "" {
		// A trace failure degrades to a warning: the sweep itself stands.
		if msg, err := writeBestTrace(ctx, rows, jobSpecs, *traceBest); err != nil {
			fmt.Fprintln(stderr, "warning: trace-best:", err)
		} else {
			fmt.Fprintln(stderr, "trace-best:", msg)
		}
	}
	if *dumpStats {
		writeStats(stderr, cfg.Stats)
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "%d of %d points failed\n", failed, len(rows))
		return 1
	}
	return 0
}

// sweep runs jobs on the campaign engine and returns their canonical rows
// in submission order. A nil bound simulates every job in one campaign.
// Otherwise bound is a provable lower bound on a job's simulated cycles
// (ok=false: none; such jobs always run), and the sweep prunes: the job
// with the smallest bound — ties to the lowest index — runs first as the
// pilot, and every job whose bound strictly exceeds the pilot's measured
// cycles becomes a "pruned" row without simulating. Its result is provably
// worse than a measured point, so the best point is unchanged. The pilot
// and the pruned set depend only on the bounds and the deterministic pilot
// measurement, so the rows are identical at any worker count. A failed or
// estimated pilot prunes nothing: only an exact measurement may be
// compared against exact bounds. Rows carry their bound in StaticLB.
//
// With cfg.Stats set, both campaigns add into its counters and the sweep
// records how many points it pruned.
func sweep(ctx context.Context, cfg campaign.Config, jobs []campaign.Job, bound func(*kernels.Kernel, salam.RunOpts) (uint64, bool)) []campaign.Row {
	rows := make([]campaign.Row, len(jobs))
	lbs := make([]uint64, len(jobs))
	runAll := func(idx []int) {
		sub := make([]campaign.Job, len(idx))
		for k, i := range idx {
			sub[k] = jobs[i]
		}
		for k, o := range campaign.Run(ctx, cfg, sub) {
			o.Index = idx[k]
			rows[o.Index] = campaign.RowOf(o)
			rows[o.Index].StaticLB = lbs[o.Index]
		}
	}

	known := make([]bool, len(jobs))
	pilot := -1
	for i, j := range jobs {
		if bound != nil {
			lbs[i], known[i] = bound(j.Kernel, j.Opts)
		}
		if known[i] && (pilot < 0 || lbs[i] < lbs[pilot]) {
			pilot = i
		}
	}
	best := ^uint64(0) // nothing exceeds it: no pruning
	if pilot >= 0 {
		runAll([]int{pilot})
		if r := rows[pilot]; r.Status == campaign.StatusOK && !r.Metrics.Estimated {
			best = r.Metrics.Cycles
		}
	}
	rest := make([]int, 0, len(jobs))
	pruned := 0
	for i := range jobs {
		switch {
		case i == pilot:
		case known[i] && lbs[i] > best:
			rows[i] = campaign.RowOf(campaign.Outcome{Index: i, Job: jobs[i]})
			rows[i].Status, rows[i].StaticLB = campaign.StatusPruned, lbs[i]
			pruned++
		default:
			rest = append(rest, i)
		}
	}
	runAll(rest)
	if cfg.Stats != nil {
		cfg.Stats.Child("campaign").Scalar("points_pruned", "design points skipped by static lower-bound pruning").Set(float64(pruned))
	}
	return rows
}

// writeBestTrace re-runs the sweep's best point — lowest cycles among the
// exactly measured rows, earliest index on ties — with a JSON timeline
// attached, and writes the Perfetto-loadable trace to path. The replay is
// a cold one-shot, so no pooled session is perturbed; tracing has no
// observer effect, so it must reproduce the sweep's cycle count, and a
// replay that does not is an error.
func writeBestTrace(ctx context.Context, rows []campaign.Row, jobs []campaign.Job, path string) (string, error) {
	best := -1
	for i, r := range rows {
		// Estimated cycle counts cannot elect the best point: the traced
		// replay is exact and would disagree.
		if r.Status != campaign.StatusOK || r.Metrics.Estimated {
			continue
		}
		if best < 0 || r.Metrics.Cycles < rows[best].Metrics.Cycles {
			best = i
		}
	}
	if best < 0 {
		return "", errors.New("no successful point to trace")
	}
	job := jobs[best]
	rec := timeline.NewJSON()
	opts := job.Opts
	opts.Timeline = rec
	res, err := salam.RunKernelCtx(ctx, job.Kernel, opts)
	if err != nil {
		return "", fmt.Errorf("re-running %q: %w", job.ID, err)
	}
	if want := rows[best].Metrics.Cycles; res.Cycles != want {
		return "", fmt.Errorf("traced replay of %q measured %d cycles, sweep measured %d", job.ID, res.Cycles, want)
	}
	var trace bytes.Buffer
	if err := rec.Write(&trace); err != nil {
		return "", err
	}
	if err := os.WriteFile(path, trace.Bytes(), 0o644); err != nil {
		return "", err
	}
	return fmt.Sprintf("%s (%d cycles) -> %s", job.ID, res.Cycles, path), nil
}

// failure reports a bad invocation or an unusable daemon on stderr and
// returns exit status 2.
func failure(stderr io.Writer, prefix string, err error) int {
	fmt.Fprintln(stderr, prefix, err)
	return 2
}

// writeStats dumps a stats group and the process-wide elaboration-cache
// counts.
func writeStats(w io.Writer, g *sim.Group) {
	g.Dump(w)
	hits, misses := salam.ElabCacheStats()
	fmt.Fprintf(w, "elab_cache: %d hits, %d misses\n", hits, misses)
}

const csvHeader = "kernel,memory,fu_limit,ports,cycles,static_lb,static_energy,time_us,power_mw,datapath_mw,area_um2"

// printCSVRow renders one canonical row in the sweep's CSV schema — the
// one renderer behind the in-process and the -remote sweep. A failed point
// becomes an error row; the sweep still reports every other point.
func printCSVRow(w io.Writer, kname string, pt campaign.Point, job campaign.Job, row campaign.Row) {
	switch row.Status {
	case campaign.StatusOK:
		lb, energy := row.StaticLB, row.StaticEnergyPJ
		if lb == 0 {
			// Only a pruning sweep bounds its jobs (the server never
			// does); fill the column here so every ok row is comparable.
			// The CDFG and its analysis are cached, so this is cheap.
			lb, _ = salam.StaticLowerBound(job.Kernel, job.Opts)
		}
		if energy == 0 {
			// Pre-energy servers omit the field; derive it locally.
			energy, _ = campaign.StaticEnergy(job)
		}
		m := row.Metrics
		fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d,%.1f,%.3f,%.3f,%.3f,%.0f\n",
			kname, pt.Mem, pt.FU, pt.Ports, m.Cycles, lb, energy,
			float64(m.Ticks)/1e6, m.Power.TotalMW(),
			m.Power.DatapathMW(), m.Power.TotalAreaUM2())
	case campaign.StatusError:
		msg := strings.NewReplacer(",", ";", "\n", " ").Replace(row.Error)
		fmt.Fprintf(w, "%s,%s,%d,%d,error,%s\n", kname, pt.Mem, pt.FU, pt.Ports, msg)
	default:
		// pruned, or skipped by a sharded server: the point has no metrics.
		fmt.Fprintf(w, "%s,%s,%d,%d,%s,%d,%.1f,,,,\n", kname, pt.Mem, pt.FU, pt.Ports, row.Status, row.StaticLB, row.StaticEnergyPJ)
	}
}

// statusError describes an unexpected HTTP reply with the start of its
// body (a salam-serve error reply is {"error": ...}).
func statusError(what string, resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return fmt.Errorf("%s: HTTP %d: %s", what, resp.StatusCode, strings.TrimSpace(string(msg)))
}

// get fetches url and fails on any status but 200 OK; the caller closes
// the body of a successful reply.
func get(url, what string) (*http.Response, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, statusError(what, resp)
	}
	return resp, nil
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
		return statusError(base+" rejected the space", resp)
	}
	return json.NewDecoder(resp.Body).Decode(ack)
}

// runRemote submits the space to a salam-serve daemon and renders its
// results stream — raw NDJSON passthrough with -json, or the same CSV the
// in-process sweep prints. Returns the process exit code.
func runRemote(base string, space campaign.Space, jsonOut bool, kname string, pts []campaign.Point, jobSpecs []campaign.Job, stdout, stderr io.Writer) int {
	fail := func(err error) int { return failure(stderr, "remote:", err) }
	base = strings.TrimRight(base, "/")
	var accepted struct {
		ID      string `json:"id"`
		Results string `json:"results"`
	}
	if err := submit(base, "/v1/campaigns", space, &accepted); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stderr, "remote: campaign %s accepted (%d points) on %s\n", accepted.ID, len(jobSpecs), base)

	stream, err := get(base+accepted.Results, "results stream")
	if err != nil {
		return fail(err)
	}
	defer stream.Body.Close()

	if jsonOut {
		// Byte-for-byte passthrough of the canonical row stream.
		if _, err := io.Copy(stdout, stream.Body); err != nil {
			return fail(err)
		}
		return 0
	}

	fmt.Fprintln(stdout, csvHeader)
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
			fmt.Fprintf(stderr, "warning: %s: %s\n", row.ID, row.Error)
		}
		printCSVRow(stdout, kname, pts[row.Index], jobSpecs[row.Index], row)
	}
	if err := sc.Err(); err != nil {
		return fail(err)
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "%d of %d points failed\n", failed, len(jobSpecs))
		return 1
	}
	return 0
}

// searchStats renders the search's accounting line — how much of the
// space was simulated versus proven away — for the local and the -remote
// search alike. frontier is the frontier's size.
func searchStats(res *search.Result, frontier int) string {
	return fmt.Sprintf(
		"search: points=%d classes=%d evaluated=%d simulated=%d cache_hits=%d points_pruned=%d points_collapsed=%d proxy_runs=%d waves=%d frontier=%d",
		res.Points, res.Classes, res.Evaluated, res.Simulated, res.CacheHits,
		res.PrunedPoints, res.CollapsedPoints, res.ProxyRuns, res.Waves, frontier)
}

// runSearch proves the space's frontier in-process: frontier CSV on
// stdout, accounting on stderr. Returns the process exit code.
func runSearch(space campaign.Space, jobs int, cache campaign.Store, dumpStats bool, stdout, stderr io.Writer) int {
	cfg := search.Config{Space: space, Workers: jobs, Cache: cache}
	if dumpStats {
		cfg.Stats = sim.NewGroup("dse")
	}
	res, err := search.Run(context.Background(), cfg)
	if err != nil {
		return failure(stderr, "search:", err)
	}
	fmt.Fprint(stdout, search.FrontierCSV(space.Kernel, res.Frontier))
	fmt.Fprintln(stderr, searchStats(res, len(res.Frontier)))
	if dumpStats {
		writeStats(stderr, cfg.Stats)
	}
	return 0
}

// runRemoteSearch submits the space to a salam-serve daemon's /v1/searches,
// polls until the search is terminal, and prints the certified frontier —
// byte-identical to what runSearch prints for the same space. Any reply
// but 200 OK while polling (a daemon restarted without the search answers
// 404) ends the wait with exit code 2.
func runRemoteSearch(base string, space campaign.Space, stdout, stderr io.Writer) int {
	fail := func(err error) int { return failure(stderr, "remote search:", err) }
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
	fmt.Fprintf(stderr, "remote: search %s accepted (%d points, %d collapsed classes) on %s\n",
		accepted.ID, accepted.Points, accepted.Classes, base)

	// Poll status until terminal; a search has no row stream to block on.
	// The status document carries search.Result's accounting under the
	// same keys, except the two declared here.
	var snap struct {
		search.Result
		State        string `json:"state"`
		Reason       string `json:"reason"`
		Cached       int    `json:"cached"`
		FrontierSize int    `json:"frontier_size"`
	}
	for {
		st, err := get(base+"/v1/searches/"+accepted.ID, "search status")
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

	fr, err := get(base+accepted.Frontier, "frontier")
	if err != nil {
		return fail(err)
	}
	defer fr.Body.Close()
	if _, err := io.Copy(stdout, fr.Body); err != nil {
		return fail(err)
	}
	snap.CacheHits = snap.Cached
	fmt.Fprintln(stderr, searchStats(&snap.Result, snap.FrontierSize))
	return 0
}
