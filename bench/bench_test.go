package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The benchmark reads testdata/ and configs/ relative to the repository
// root and runs the built salam-sim, so the tests move there and build it.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(outDir, "smoke-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	outDir = dir
	build := exec.Command("go", "build", "-o", filepath.Join(dir, "salam-sim"), "./cmd/salam-sim")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building salam-sim: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchmarkDoc is the part of BENCHMARK.json the smoke test holds the
// program to.
type benchmarkDoc struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// inProcess runs a pass's blocks in the test's own process, through the
// same JSON the benchmark's block processes print.
func inProcess(w *workload, seed int64, sh shape) blockRunner {
	return func(_ int, traced bool) (*blockResult, error) {
		r, err := runBlock(w, seed, sh.warmups, sh.perBlock, traced, time.Now())
		if err != nil {
			return nil, err
		}
		line, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		back := &blockResult{}
		return back, json.Unmarshal(line, back)
	}
}

// TestSmoke runs the traced pass of every workload named in BENCHMARK.json
// at two blocks of two ops — one traced, one not — and checks that every
// named metric is emitted with its unit, that the exact counts repeat
// across the two traced ops, and that each traced op's span self times fit
// in its wall time.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	for i, dw := range doc.Workloads {
		w := workloadByName(dw.Name)
		if w == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the program", dw.Name)
			continue
		}
		probes := i == 0 // the layer probes are the same under every workload; run them once
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			const seed = 7
			tr := newTracer()
			sh := shape{blocks: 2, perBlock: 2}
			p, err := measure(w, seed, sh, tr, inProcess(w, seed, sh))
			if err != nil {
				t.Fatal(err)
			}
			p.probes = map[string]float64{}
			if probes {
				if p.probes, err = runProbes(tr, seed); err != nil {
					t.Fatal(err)
				}
				for name, x := range p.probes {
					if x <= 0 && !strings.HasSuffix(name, "_frac") {
						t.Errorf("layer probe %s = %v", name, x)
					}
				}
			}
			if w.probe != nil {
				own, err := w.probe(seed, tr)
				if err != nil {
					t.Fatal(err)
				}
				maps.Copy(p.probes, own)
			}
			for _, f := range p.failures {
				t.Error(f)
			}
			if len(p.timed(false)) != 2 || len(p.timed(true)) != 2 {
				t.Fatalf("ran %d untraced and %d traced ops, want 2 and 2", len(p.timed(false)), len(p.timed(true)))
			}

			e2e := p.endToEnd()
			for _, m := range doc.EndToEnd {
				got, ok := e2e[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end metric %s [%s]: emitted=%v unit=%q", m.Name, m.Unit, ok, got.Unit)
				}
				if got.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, got.Value)
				}
			}
			if len(e2e) != len(doc.EndToEnd) {
				t.Errorf("program emits %d end-to-end metrics, BENCHMARK.json names %d", len(e2e), len(doc.EndToEnd))
			}

			units := map[string]string{}
			for _, m := range perLayerMetrics {
				units[m[0]] = m[1]
			}
			v := p.perLayer()
			for _, m := range doc.PerLayer {
				if !nameRE.MatchString(m.Name) {
					t.Errorf("per-layer metric name %q is malformed", m.Name)
				}
				if units[m.Name] != m.Unit {
					t.Errorf("per-layer metric %s: program unit %q, BENCHMARK.json unit %q", m.Name, units[m.Name], m.Unit)
				}
				if _, ok := v[m.Name]; !ok {
					t.Errorf("per-layer metric %s is not emitted", m.Name)
				}
			}
			if len(units) != len(doc.PerLayer) {
				t.Errorf("program emits %d per-layer metrics, BENCHMARK.json names %d", len(units), len(doc.PerLayer))
			}
			if v["core.sim_cycles_per_op"] <= 0 {
				t.Errorf("core.sim_cycles_per_op = %v", v["core.sim_cycles_per_op"])
			}

			// Exact counts repeating across the two traced ops is checked
			// by the block itself (a difference is a failed op); hold it to
			// having compared something.
			if len(p.opCounts) == 0 {
				t.Error("no exact counts were read")
			}

			self := p.tr.selfTimes()
			sum := map[int]int64{}
			for i, s := range p.tr.spans {
				if s.Op >= 0 {
					sum[s.Op] += self[i]
				}
			}
			for op, ns := range sum {
				if wall := p.samples[op].MS * 1e6; float64(ns) > wall {
					t.Errorf("op %d: span self times sum to %d ns, wall time is %.0f ns", op, ns, wall)
				}
			}
			if len(sum) != 2 {
				t.Errorf("spans cover %d ops, want 2", len(sum))
			}
		})
	}
}
