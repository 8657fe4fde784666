package campaign

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// TestSpaceBuild: defaults, enumeration order, and the ID/KernelKey format
// every consumer (CLI CSV, server stream, shard keys) agrees on.
func TestSpaceBuild(t *testing.T) {
	pts, jobs, err := Space{Kernel: "gemm", Mem: []string{"spm", "cache"}, FU: []int{0, 4}, Ports: []int{2, 4}}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 8 || len(pts) != 8 {
		t.Fatalf("enumerated %d jobs / %d points, want 8 / 8", len(jobs), len(pts))
	}
	// Mem outermost, then FU, then ports.
	if pts[0] != (Point{Mem: "spm", FU: 0, Ports: 2}) || pts[1] != (Point{Mem: "spm", FU: 0, Ports: 4}) ||
		pts[2] != (Point{Mem: "spm", FU: 4, Ports: 2}) || pts[4] != (Point{Mem: "cache", FU: 0, Ports: 2}) {
		t.Fatalf("enumeration order wrong: %+v", pts)
	}
	if jobs[0].ID != "gemm spm fu=0 ports=2" {
		t.Fatalf("job ID format changed: %q", jobs[0].ID)
	}
	if jobs[0].KernelKey != "gemm/preset=small" {
		t.Fatalf("kernel key format changed: %q", jobs[0].KernelKey)
	}
	if jobs[4].Opts.Mem != 1 { // salam.MemCache
		t.Fatalf("cache points did not select MemCache")
	}
	if got := (Space{Kernel: "gemm"}).Size(); got != 3 {
		t.Fatalf("default space size %d, want 3 (ports 2,4,8)", got)
	}

	for _, bad := range []Space{
		{Kernel: "no-such-kernel"},
		{Kernel: "gemm", Preset: "huge"},
		{Kernel: "gemm", Ports: []int{0}},
		{Kernel: "gemm", FU: []int{-1}},
		{Kernel: "gemm", Mem: []string{"dram"}},
		{Kernel: "gemm", TimeoutMS: -5},
	} {
		if _, _, err := bad.Build(); err == nil {
			t.Fatalf("Space %+v validated", bad)
		} else if !strings.HasPrefix(err.Error(), "campaign: ") {
			t.Fatalf("unprefixed error: %v", err)
		}
	}
}

// TestSpaceValidate: Validate reports every malformed spec without
// enumerating any job, including the empty/duplicate list and range-form
// cases salam-serve turns into HTTP 400s.
func TestSpaceValidate(t *testing.T) {
	good := []Space{
		{Kernel: "gemm"},
		{Kernel: "gemm", Banks: []int{1, 2, 8}},
		{Kernel: "gemm", Preset: "micro"},
		{Kernel: "relu", Preset: "large"},
		{Kernel: "gemm", PortRange: &Range{Min: 1, Max: 100}},
		{Kernel: "gemm", FURange: &Range{Min: 0, Max: 999, Step: 3}},
		{Kernel: "gemm-tree", PortRange: &Range{Min: 1, Max: 100},
			FURange: &Range{Min: 1, Max: 1000}, BankRange: &Range{Min: 1, Max: 10}},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", s, err)
		}
	}
	bad := []Space{
		{Kernel: "no-such-kernel"},
		{Kernel: "gemm", Mem: []string{}},
		{Kernel: "gemm", Mem: []string{"spm", "spm"}},
		{Kernel: "gemm", Ports: []int{}},
		{Kernel: "gemm", Ports: []int{2, 4, 2}},
		{Kernel: "gemm", FU: []int{0, 0}},
		{Kernel: "gemm", Banks: []int{0}},
		{Kernel: "gemm", Ports: []int{2}, PortRange: &Range{Min: 1, Max: 4}},
		{Kernel: "gemm", PortRange: &Range{Min: 0, Max: 4}},
		{Kernel: "gemm", PortRange: &Range{Min: 4, Max: 1}},
		{Kernel: "gemm", FURange: &Range{Min: 0, Max: 8, Step: -2}},
	}
	for _, s := range bad {
		err := s.Validate()
		if err == nil {
			t.Errorf("Validate(%+v) passed, want error", s)
			continue
		}
		if !strings.HasPrefix(err.Error(), "campaign: ") {
			t.Errorf("unprefixed error: %v", err)
		}
	}
}

// TestSpaceKeysStable pins the IDs, kernel keys and content-addressed
// store keys of the 48-point space bench/dse.go submits to the values the
// hand-written JobAt overlay produced before salam.RunOpts.SetPoint: a
// store filled by any earlier build must stay 100% hits.
func TestSpaceKeysStable(t *testing.T) {
	sp := Space{Kernel: "gemm", Preset: "default", Ports: []int{2, 4, 8}, FU: []int{0, 2, 4, 8},
		Banks: []int{2, 4}, Mem: []string{"spm", "cache"}}
	_, jobs, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	var all strings.Builder
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		if keys[i], err = JobKey(j); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&all, "%s\t%s\t%s\n", j.ID, j.KernelKey, keys[i])
	}
	const (
		first  = "dbdc481312515a208437b877fd4e45dd8c9fe03950915813fe694d00ec03bbc0"
		last   = "ec4494e2c26829269ced270a8ed67727fff71eb168a81f4c6bde0b00c528e4e5"
		digest = "82d97d83cdd5917181697307bfa82b53ef20c6d2c48bd9c2180dfccfc4b62e6b"
	)
	if len(jobs) != 48 || jobs[0].ID != "gemm spm fu=0 ports=2 banks=2" || keys[0] != first ||
		jobs[47].ID != "gemm cache fu=8 ports=8 banks=4" || keys[47] != last {
		t.Fatalf("%d jobs; first %q %s, last %q %s", len(jobs), jobs[0].ID, keys[0], jobs[47].ID, keys[47])
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(all.String()))); got != digest {
		t.Fatalf("job list digest %s, want %s:\n%s", got, digest, all.String())
	}
	for _, preset := range []string{"", "small", "micro", "large"} {
		want := preset
		if want == "" {
			want = "small"
		}
		a, err := Space{Kernel: "gemm", Preset: preset}.Axes()
		if err != nil || a.KernelKey != "gemm/preset="+want {
			t.Errorf("preset %q: kernel key %q, %v", preset, a.KernelKey, err)
		}
	}
}

// TestSpaceRangesAndBanks: ranged knobs expand to the same jobs as their
// list forms, Size agrees with enumeration without building, banks sweep
// innermost, and explicitly setting banks tags IDs while the implicit
// default keeps the legacy ID bytes.
func TestSpaceRangesAndBanks(t *testing.T) {
	ranged := Space{Kernel: "gemm", PortRange: &Range{Min: 2, Max: 8, Step: 2}, FURange: &Range{Min: 0, Max: 4, Step: 4}}
	listed := Space{Kernel: "gemm", Ports: []int{2, 4, 6, 8}, FU: []int{0, 4}}
	rp, rj, err := ranged.Build()
	if err != nil {
		t.Fatal(err)
	}
	lp, lj, err := listed.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(rj) != len(lj) || len(rj) != ranged.Size() || ranged.Size() != 8 {
		t.Fatalf("ranged space enumerated %d jobs (Size %d), list form %d", len(rj), ranged.Size(), len(lj))
	}
	for i := range rj {
		if rp[i] != lp[i] || rj[i].ID != lj[i].ID {
			t.Fatalf("point %d: ranged %+v %q != listed %+v %q", i, rp[i], rj[i].ID, lp[i], lj[i].ID)
		}
	}

	banked := Space{Kernel: "gemm", Ports: []int{2}, Banks: []int{2, 4}}
	pts, jobs, err := banked.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || banked.Size() != 2 {
		t.Fatalf("banked space enumerated %d jobs (Size %d), want 2", len(jobs), banked.Size())
	}
	if pts[0] != (Point{Mem: "spm", FU: 0, Ports: 2, Banks: 2}) ||
		pts[1] != (Point{Mem: "spm", FU: 0, Ports: 2, Banks: 4}) {
		t.Fatalf("bank axis order wrong: %+v", pts)
	}
	if jobs[0].ID != "gemm spm fu=0 ports=2 banks=2" {
		t.Fatalf("explicit-banks ID format: %q", jobs[0].ID)
	}
	if jobs[0].Opts.SPMBanks != 2 || jobs[1].Opts.SPMBanks != 4 {
		t.Fatalf("SPMBanks not wired: %d / %d", jobs[0].Opts.SPMBanks, jobs[1].Opts.SPMBanks)
	}

	// The implicit default bank axis must not disturb legacy job identity:
	// same ID bytes and same content-addressed key as a pre-banks build.
	plain, plainJobs, err := (Space{Kernel: "gemm", Ports: []int{2}}).Build()
	if err != nil {
		t.Fatal(err)
	}
	if plain[0] != (Point{Mem: "spm", FU: 0, Ports: 2}) {
		t.Fatalf("default-banks point gained a Banks value: %+v", plain[0])
	}
	if plainJobs[0].ID != "gemm spm fu=0 ports=2" {
		t.Fatalf("default-banks ID changed: %q", plainJobs[0].ID)
	}
	if plainJobs[0].Opts.SPMBanks != 4 {
		t.Fatalf("default bank count %d, want 4", plainJobs[0].Opts.SPMBanks)
	}
	wantKey, err := JobKey(plainJobs[0])
	if err != nil {
		t.Fatal(err)
	}
	gotKey, err := JobKey(jobs[1]) // banks=4 explicit: same opts, different ID
	if err != nil {
		t.Fatal(err)
	}
	if wantKey != gotKey {
		t.Fatalf("banks=4 explicit and implicit default produce different cache keys")
	}
}

// TestSpaceAxesLazy: JobAt/PointAt agree with Build index for index, so
// lazy consumers (the search engine, shard merges over huge spaces) see
// exactly the enumeration Build would produce.
func TestSpaceAxesLazy(t *testing.T) {
	s := Space{Kernel: "gemm", Mem: []string{"spm", "cache"}, FU: []int{0, 2}, Ports: []int{1, 4}, Banks: []int{2, 4}}
	pts, jobs, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Axes()
	if err != nil {
		t.Fatal(err)
	}
	if a.Size() != len(jobs) || a.Size() != 16 {
		t.Fatalf("Axes.Size %d, Build enumerated %d", a.Size(), len(jobs))
	}
	for i := range jobs {
		if a.PointAt(i) != pts[i] {
			t.Fatalf("PointAt(%d) = %+v, Build has %+v", i, a.PointAt(i), pts[i])
		}
		j := a.JobAt(i)
		if j.ID != jobs[i].ID {
			t.Fatalf("JobAt(%d).ID = %q, Build has %q", i, j.ID, jobs[i].ID)
		}
		k1, err := JobKey(j)
		if err != nil {
			t.Fatal(err)
		}
		k2, err := JobKey(jobs[i])
		if err != nil {
			t.Fatal(err)
		}
		if k1 != k2 {
			t.Fatalf("JobAt(%d) cache key differs from Build", i)
		}
	}
}
