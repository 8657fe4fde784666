package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	salam "gosalam"
	"gosalam/internal/campaign"
	"gosalam/internal/sim"
	"gosalam/kernels"
)

// invoke runs one invocation in-process.
func invoke(args ...string) (stdout, stderr string, status int) {
	var out, errb bytes.Buffer
	status = run(args, &out, &errb)
	return out.String(), errb.String(), status
}

// writeSpace writes a space document into a test directory.
func writeSpace(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "space.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestShippedSpaces: every capture in testdata/dse/ is the stdout an
// earlier flag-driven salam-dse printed for the same space; the document
// in configs/spaces/ must reproduce it byte for byte. The capture's name
// is <document>.<mode>: sweep.csv is the default (pruned) sweep,
// rows.ndjson is -no-prune -json, search.csv is -search.
func TestShippedSpaces(t *testing.T) {
	modes := map[string][]string{
		"sweep.csv":   nil,
		"rows.ndjson": {"-no-prune", "-json"},
		"search.csv":  {"-search"},
	}
	captures, err := filepath.Glob("../../testdata/dse/*")
	if err != nil || len(captures) == 0 {
		t.Fatalf("no captures: %v", err)
	}
	for _, c := range captures {
		doc, mode, _ := strings.Cut(filepath.Base(c), ".")
		flags, ok := modes[mode]
		if !ok {
			t.Fatalf("%s: unknown capture mode %q", c, mode)
		}
		want, err := os.ReadFile(c)
		if err != nil {
			t.Fatal(err)
		}
		args := append([]string{"-quiet", "-space", "../../configs/spaces/" + doc + ".json"}, flags...)
		out, errOut, status := invoke(args...)
		if status != 0 || out != string(want) {
			t.Errorf("salam-dse %s: exit %d, stdout differs from %s:\n%s\nstderr: %s", strings.Join(args, " "), status, c, out, errOut)
		}
	}
}

// seedJobs builds jobs whose injected runner reports Opts.Seed as the
// cycle count, so dynamic results are scripted exactly.
func seedJobs(cycles ...uint64) []campaign.Job {
	k := kernels.GEMM(8, 1)
	jobs := make([]campaign.Job, len(cycles))
	for i, c := range cycles {
		jobs[i] = campaign.Job{ID: fmt.Sprintf("j%d", i), Kernel: k, Opts: salam.RunOpts{Seed: int64(c)}}
	}
	return jobs
}

func seedRunner(ran *atomic.Int32) campaign.Runner {
	return func(_ context.Context, _ *kernels.Kernel, opts salam.RunOpts) (*salam.Result, error) {
		if ran != nil {
			ran.Add(1)
		}
		if opts.Seed == 0 {
			return nil, errors.New("pilot exploded")
		}
		return &salam.Result{Cycles: uint64(opts.Seed), Ticks: sim.Tick(opts.Seed) * 10}, nil
	}
}

// scriptedBound returns the bound scripted for a job's seed.
func scriptedBound(lbs map[int64]uint64) func(*kernels.Kernel, salam.RunOpts) (uint64, bool) {
	return func(_ *kernels.Kernel, opts salam.RunOpts) (uint64, bool) {
		lb, ok := lbs[opts.Seed]
		return lb, ok
	}
}

// TestPruneSkipsOnlyDominatedPoints scripts bounds and dynamics directly:
// the minimum-bound job is the pilot, every job whose bound exceeds the
// pilot's measurement is pruned without running, bound-below-pilot and
// unknown-bound jobs still run, and -stats reports each counter once.
func TestPruneSkipsOnlyDominatedPoints(t *testing.T) {
	// dynamics:         120  80   300  500  90   130(no bound)
	jobs := seedJobs(120, 80, 300, 500, 90, 130)
	lbs := map[int64]uint64{120: 100, 80: 60, 300: 250, 500: 450, 90: 70}
	var ran atomic.Int32
	stats := sim.NewGroup("dse")
	rows := sweep(context.Background(), campaign.Config{Workers: 4, Stats: stats, Runner: seedRunner(&ran)},
		jobs, scriptedBound(lbs))

	// Pilot is j1 (bound 60), measuring 80. Bounds above 80: j0, j2, j3.
	wantPruned := map[int]bool{0: true, 2: true, 3: true}
	for i, r := range rows {
		lb := lbs[jobs[i].Opts.Seed]
		switch {
		case r.Index != i || r.StaticLB != lb:
			t.Errorf("row %d: index %d, static_lb %d; want %d, %d", i, r.Index, r.StaticLB, i, lb)
		case wantPruned[i] && (r.Status != campaign.StatusPruned || r.Metrics != nil):
			t.Errorf("row %d should be pruned: %+v", i, r)
		case !wantPruned[i] && (r.Status != campaign.StatusOK || r.Metrics.Cycles != uint64(jobs[i].Opts.Seed)):
			t.Errorf("row %d should have run: %+v", i, r)
		}
	}
	if got := ran.Load(); got != 3 { // pilot j1 + surviving j4 + unbounded j5
		t.Errorf("simulations ran = %d, want 3", got)
	}
	for name, want := range map[string]float64{"jobs": 3, "jobs_simulated": 3, "points_pruned": 3} {
		if v, ok := stats.Lookup("dse.campaign." + name); !ok || v != want {
			t.Errorf("%s = %v, want %v", name, v, want)
		}
	}
	var dump bytes.Buffer
	stats.Dump(&dump)
	for _, name := range []string{"jobs", "jobs_simulated", "points_pruned"} {
		if n := strings.Count(dump.String(), "dse.campaign."+name+" "); n != 1 {
			t.Errorf("-stats reports %s %d times:\n%s", name, n, dump.String())
		}
	}
}

// TestPrunePilotFailureDisablesPruning: if the pilot errors there is no
// trusted measurement, so every job must run.
func TestPrunePilotFailureDisablesPruning(t *testing.T) {
	jobs := seedJobs(120, 0, 300) // seed 0 fails
	rows := sweep(context.Background(), campaign.Config{Workers: 2, Runner: seedRunner(nil)},
		jobs, scriptedBound(map[int64]uint64{120: 100, 0: 60, 300: 250}))
	want := []string{campaign.StatusOK, campaign.StatusError, campaign.StatusOK}
	for i, r := range rows {
		if r.Status != want[i] {
			t.Errorf("row %d status %q, want %q (%s)", i, r.Status, want[i], r.Error)
		}
	}
}

// TestStaticPrunePreservesBestPoint runs a real GEMMTree sweep pruned and
// unpruned: pruning must actually fire, every surviving point's metrics
// must match the unpruned run bit for bit, every pruned point must be
// provably worse than the unpruned best, and the pruned sweep must be
// byte-identical at 1 and 8 workers.
func TestStaticPrunePreservesBestPoint(t *testing.T) {
	_, jobs, err := campaign.Space{Kernel: "gemm-tree", FU: []int{1, 4}, Ports: []int{1, 2, 8}}.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	full := sweep(ctx, campaign.Config{Workers: 4}, jobs, nil)
	pruned1 := sweep(ctx, campaign.Config{Workers: 1}, jobs, salam.StaticLowerBound)
	pruned8 := sweep(ctx, campaign.Config{Workers: 8}, jobs, salam.StaticLowerBound)

	var b1, b8 bytes.Buffer
	if err := campaign.WriteRows(&b1, pruned1); err != nil {
		t.Fatal(err)
	}
	if err := campaign.WriteRows(&b8, pruned8); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b8.String() {
		t.Fatalf("pruned sweep differs across worker counts:\n--- w=1\n%s--- w=8\n%s", b1.String(), b8.String())
	}

	best := func(rows []campaign.Row) uint64 {
		var b uint64
		for _, r := range rows {
			if r.Status == campaign.StatusOK && (b == 0 || r.Metrics.Cycles < b) {
				b = r.Metrics.Cycles
			}
		}
		return b
	}
	bestFull := best(full)
	nPruned := 0
	for i, r := range pruned1 {
		switch {
		case r.Status == campaign.StatusPruned:
			nPruned++
			if r.StaticLB <= bestFull {
				t.Errorf("point %d pruned with bound %d <= unpruned best %d: best point lost", i, r.StaticLB, bestFull)
			}
		case r.Status != campaign.StatusOK:
			t.Fatalf("point %d: %s %s", i, r.Status, r.Error)
		case r.Metrics.Cycles != full[i].Metrics.Cycles || r.Metrics.Power != full[i].Metrics.Power:
			t.Errorf("point %d surviving metrics differ from the unpruned run", i)
		}
	}
	if nPruned == 0 {
		t.Fatal("static pruning eliminated nothing on the GEMMTree sweep; the test premise is gone")
	}
	if got := best(pruned1); got != bestFull {
		t.Errorf("pruned best %d != unpruned best %d", got, bestFull)
	}
	t.Logf("pruned %d of %d points; best %d cycles", nPruned, len(jobs), bestFull)
}

// TestSpaceTypoRejected: a typo'd key is rejected with its field path and
// a "did you mean" hint, as a bad invocation, before anything simulates.
func TestSpaceTypoRejected(t *testing.T) {
	for doc, want := range map[string]string{
		`{"kernel":"gemm","fu_range":{"min":1,"max":4,"stpe":2}}`: `fu_range.stpe: unknown field (did you mean "step"?)`,
		`{"kernel":"gemm","port":[2]}`:                            `port: unknown field (did you mean "ports"?)`,
	} {
		out, errOut, status := invoke("-space", writeSpace(t, doc))
		if status != 2 || out != "" || !strings.Contains(errOut, want) {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 2 naming %q", doc, status, out, errOut, want)
		}
	}
	for _, args := range [][]string{nil, {"-kernel", "gemm"}, {"-space", writeSpace(t, `{"kernel":"gemm","ports":[0]}`)}} {
		if out, errOut, status := invoke(args...); status != 2 || out != "" || errOut == "" {
			t.Errorf("salam-dse %v: exit %d, stdout %q, stderr %q; want a usage error", args, status, out, errOut)
		}
	}
}

// TestNoPruneJSONIsTheEngineStream: `-no-prune -json` prints exactly the
// canonical rows of a plain campaign.Run over the same space.
func TestNoPruneJSONIsTheEngineStream(t *testing.T) {
	space := campaign.Space{Kernel: "gemm-tree", FU: []int{2, 4}, Ports: []int{2, 4}, Mem: []string{"spm", "cache"}}
	doc, err := json.Marshal(space)
	if err != nil {
		t.Fatal(err)
	}
	out, errOut, status := invoke("-quiet", "-no-prune", "-json", "-space", writeSpace(t, string(doc)))
	if status != 0 {
		t.Fatalf("exit %d: %s", status, errOut)
	}
	_, jobs, err := space.Build()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := campaign.WriteRows(&want, campaign.Rows(campaign.Run(context.Background(), campaign.Config{}, jobs))); err != nil {
		t.Fatal(err)
	}
	if out != want.String() {
		t.Fatalf("-no-prune -json differs from campaign.Run:\n%s\nwant:\n%s", out, want.String())
	}
}

// TestTraceBest: -trace-best writes a Perfetto trace of the sweep's best
// point, and the traced replay measures the sweep's best cycle count.
func TestTraceBest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "best.json")
	out, errOut, status := invoke("-quiet", "-space", "../../configs/spaces/gemm_tree_prune.json", "-trace-best", path)
	if status != 0 {
		t.Fatalf("exit %d: %s", status, errOut)
	}
	var best uint64
	for _, line := range strings.Split(strings.TrimSpace(out), "\n")[1:] {
		f := strings.Split(line, ",")
		if c, err := strconv.ParseUint(f[4], 10, 64); err == nil && (best == 0 || c < best) {
			best = c
		}
	}
	m := regexp.MustCompile(`trace-best: .* \((\d+) cycles\) -> `).FindStringSubmatch(errOut)
	if m == nil || m[1] != strconv.FormatUint(best, 10) {
		t.Fatalf("traced replay does not report the sweep's best %d cycles; stderr:\n%s", best, errOut)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil || len(trace.TraceEvents) == 0 {
		t.Fatalf("trace is not trace_event JSON with events (%d bytes): %v", len(data), err)
	}
}

// TestRemoteSearchStatusError: a daemon that forgets the search (a 404
// after a restart) ends the poll with exit 2 instead of polling forever.
func TestRemoteSearchStatusError(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/searches", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"s1","state":"queued","points":3,"classes":3,"frontier":"/v1/searches/s1/frontier"}`)
	})
	mux.HandleFunc("GET /v1/searches/s1", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":"no such search"}`)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	space := writeSpace(t, `{"kernel":"gemm"}`)
	type result struct {
		errOut string
		status int
	}
	done := make(chan result, 1)
	go func() {
		_, errOut, status := invoke("-search", "-space", space, "-remote", srv.URL)
		done <- result{errOut, status}
	}()
	select {
	case r := <-done:
		if r.status != 2 || !strings.Contains(r.errOut, "HTTP 404") || !strings.Contains(r.errOut, "no such search") {
			t.Fatalf("exit %d, stderr %q; want exit 2 naming the 404", r.status, r.errOut)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("remote search still polling 5s after a 404")
	}
}
