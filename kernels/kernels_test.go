package kernels

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"gosalam/ir"
)

// runKernel executes a kernel functionally and checks the golden.
func runKernel(t *testing.T, k *Kernel, seed int64) ir.ExecStats {
	t.Helper()
	mem := ir.NewFlatMem(0, 1<<24)
	inst := k.Setup(mem, seed)
	_, stats, err := ir.Exec(k.F, inst.Args, mem, nil)
	if err != nil {
		t.Fatalf("%s: exec: %v", k.Name, err)
	}
	if err := inst.Check(mem); err != nil {
		t.Fatalf("%s: golden mismatch: %v", k.Name, err)
	}
	return stats
}

func TestAllKernelsSmallPreset(t *testing.T) {
	for _, k := range All(Small) {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			stats := runKernel(t, k, 1)
			if stats.Steps == 0 {
				t.Fatal("kernel executed no instructions")
			}
			if stats.MemReads == 0 || stats.MemWrites == 0 {
				t.Fatalf("no memory traffic: r=%d w=%d", stats.MemReads, stats.MemWrites)
			}
		})
	}
}

func TestAllKernelsMultipleSeeds(t *testing.T) {
	for _, k := range All(Small) {
		for seed := int64(2); seed <= 4; seed++ {
			runKernel(t, k, seed)
		}
	}
}

// catalogIR pins what the catalog builds to what the hand-written preset
// lists built before it: per preset, the All-then-Extras order, each
// kernel's name, and the first 8 bytes of sha256(ir.Print(k.M)).
var catalogIR = [numPresets][]struct{ name, ir string }{
	Small: {
		{"bfs", "43d7ff4f295e998e"}, {"fft", "065a74288b626212"}, {"gemm", "6890822c3d1fd8c5"},
		{"md-knn", "9df82595c7ce1ebf"}, {"md-grid", "6c7f343156fcc47f"}, {"nw", "540cf4a5d02e6501"},
		{"spmv", "5811fbfc697623b6"}, {"stencil2d", "e8a2912712045f09"}, {"stencil3d", "c8819f6c908bace5"},
		{"spmv-condshift", "907093eb5590b77d"}, {"gemm-unrolled", "1359fa3c4a59f827"}, {"gemm-tree", "915406948b1f5f5f"},
		{"bfs-queue", "1651d3076f403927"}, {"conv2d", "62bb29ce16f45026"}, {"relu", "71d69054fd46705c"},
		{"maxpool", "efa30720d285daca"}, {"maxpool-stream", "effb87f4772b0037"},
	},
	Default: {
		{"bfs", "56ac3d6f162f1594"}, {"fft", "c38d0ef0f8d8fc4e"}, {"gemm", "65f2c37e150e9740"},
		{"md-knn", "d47895301b526dee"}, {"md-grid", "80f9b0e5bcdd7f72"}, {"nw", "5733bceb8ba8fecf"},
		{"spmv", "4fa4ed8bc8ae5ff4"}, {"stencil2d", "b7dc3ee09f883e2f"}, {"stencil3d", "5d1d0510ff10c56c"},
		{"spmv-condshift", "c9fdc2a12025d9c7"}, {"gemm-unrolled", "914debc67e099d23"}, {"gemm-tree", "efca4d6807c159e4"},
		{"bfs-queue", "1651d3076f403927"}, {"conv2d", "c9be79c3ad3fdc9c"}, {"relu", "30a5bb4ab268ddd5"},
		{"maxpool", "fae1f35743e0b4cf"}, {"maxpool-stream", "d92fee0145c338b7"},
	},
	Micro: {
		{"bfs", "6007429b0acc84e9"}, {"fft", "451b56593a73e191"}, {"gemm", "24c0602397d6e3e1"},
		{"md-knn", "1bd736f370a33c31"}, {"md-grid", "ff4d6ed0b53ba89b"}, {"nw", "daae72e99db389f9"},
		{"spmv", "b988cd303ebb7dd8"}, {"stencil2d", "8d89e64ad62c4691"}, {"stencil3d", "fca0ce503a17c805"},
		{"spmv-condshift", "766cc36b4b6d8eb7"}, {"gemm-unrolled", "767f308aa4fb4382"}, {"gemm-tree", "5ac6a36c6782765c"},
		{"bfs-queue", "1651d3076f403927"}, {"conv2d", "71ca659a51f9edcf"}, {"relu", "cec2a93b5db9c433"},
		{"maxpool", "6a366629f720f661"}, {"maxpool-stream", "524dfb0694e3621c"},
	},
	Large: {
		{"bfs", "c8174b874a8dd129"}, {"fft", "528905a994f4c965"}, {"gemm", "b3d0ac08d3ca9c6d"},
		{"md-knn", "85d5e44bfba03b0e"}, {"md-grid", "8a5f19800418eaf1"}, {"nw", "30272e4da5c914dc"},
		{"spmv", "5378606a30759bf2"}, {"stencil2d", "90848385f431ff7c"}, {"stencil3d", "37d3fb0cc2447833"},
		{"spmv-condshift", "65d2bfa8a7c41cbf"}, {"gemm-unrolled", "1467b821061a05b3"}, {"gemm-tree", "e35ebe739343cd33"},
		{"bfs-queue", "1651d3076f403927"}, {"conv2d", "931b2f1bbad0ffa0"}, {"relu", "6104ec2afab62b27"},
		{"maxpool", "4a3ad19d9587c65d"}, {"maxpool-stream", "492c0777c57e929a"},
	},
}

// TestByName: the catalog builds what the hand-written preset lists built,
// and resolving one name builds that one kernel, not the preset's list.
func TestByName(t *testing.T) {
	if _, err := Lookup(Small, "nope"); err == nil || ByName(Small, "nope") != nil {
		t.Fatal("found nonexistent kernel")
	}
	if _, err := ParsePreset("tiny", Small); err == nil {
		t.Fatal("ParsePreset accepted an unknown spelling")
	}
	built := 0 // constructor calls
	for i := range families {
		f, build := &families[i], families[i].build
		f.build = func(s []int) *Kernel { built++; return build(s) }
		defer func() { f.build = build }()
	}
	for p := Small; p < numPresets; p++ {
		if got, err := ParsePreset(p.String(), Large-p); err != nil || got != p {
			t.Fatalf("ParsePreset(%q) = %v, %v", p.String(), got, err)
		}
		ks := append(All(p), Extras(p)...)
		if len(All(p)) != 9 || len(ks) != len(catalogIR[p]) {
			t.Fatalf("%v: %d MachSuite kernels, %d in all; want 9 and %d", p, len(All(p)), len(ks), len(catalogIR[p]))
		}
		for i, want := range catalogIR[p] {
			before := built
			k := ByName(p, want.name)
			if built-before != 1 {
				t.Errorf("%v %s: ByName built %d kernels, want 1", p, want.name, built-before)
			}
			for _, k := range []*Kernel{ks[i], k} {
				sum := sha256.Sum256([]byte(ir.Print(k.M)))
				if got := hex.EncodeToString(sum[:8]); k.Name != want.name || got != want.ir {
					t.Errorf("%v[%d] = %s with IR %s, want %s with IR %s", p, i, k.Name, got, want.name, want.ir)
				}
			}
		}
	}
}

// TestConstructErrors pins Construct's diagnostics: config files reach
// them through the size knob.
func TestConstructErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		size []int
		want string
	}{
		{"gemm", nil, "kernels: gemm takes 1-2 size arguments, got 0"},
		{"gemm", []int{8, 1, 1}, "kernels: gemm takes 1-2 size arguments, got 3"},
		{"fft", []int{8, 8}, "kernels: fft takes 1 size arguments, got 2"},
		{"stencil3d", []int{6, 6}, "kernels: stencil3d takes 3 size arguments, got 2"},
		{"md-knn", []int{16}, "kernels: md-knn takes 2 size arguments, got 1"},
		{"spmv", []int{32, 0}, "kernels: spmv size[1] = 0, must be positive"},
		{"relu", []int{-4}, "kernels: relu size[0] = -4, must be positive"},
		{"maxpool", []int{3, 4}, "kernels: maxpool[3 4]: kernels: maxpool needs even dims, got 3x4"},
		{"gemm-tree", []int{6}, "kernels: gemm-tree[6]: kernels: GEMMTree size must be a power of two >= 2"},
	} {
		if k, err := Construct(c.name, c.size); err == nil || err.Error() != c.want {
			t.Errorf("Construct(%s, %v) = %v, %v; want error %q", c.name, c.size, k, err, c.want)
		}
	}
	if _, err := Construct("nope", []int{1}); err == nil || !strings.HasPrefix(err.Error(), `kernels: unknown kernel "nope"`) {
		t.Errorf("Construct(nope) error = %v", err)
	}
	// Optional trailing arguments take the constructor's default, and an
	// explicit size is a fresh kernel every time.
	a, err := Construct("bfs", []int{64})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Construct("bfs", []int{64, 4})
	if ir.Print(a.M) != ir.Print(b.M) || ir.Print(a.M) != ir.Print(ByName(Small, "bfs").M) || a == b {
		t.Error("bfs[64] is not a fresh bfs[64 4]")
	}
}

func TestGEMMUnrollEquivalence(t *testing.T) {
	// Unrolled GEMM computes the same product.
	for _, unroll := range []int{1, 2, 4, 8} {
		k := GEMM(8, unroll)
		runKernel(t, k, 7)
	}
	// Fully unrolled variant.
	runKernel(t, GEMMUnrolledInner(8), 7)
}

func TestSPMVCondShiftDatasets(t *testing.T) {
	k := SPMVCondShift(32, 4)
	// Even seed: no triggering values; odd seed: triggering values. Both
	// must pass their goldens.
	runKernel(t, k, 2)
	runKernel(t, k, 3)

	// The shift must actually execute for the odd dataset and not for the
	// even one — the Table I probe.
	countShifts := func(seed int64) int {
		mem := ir.NewFlatMem(0, 1<<22)
		inst := k.Setup(mem, seed)
		shifts := 0
		_, _, err := ir.Exec(k.F, inst.Args, mem, &ir.ExecOpts{
			Trace: func(ev ir.TraceEvent) {
				if ev.I.Op == ir.OpShl {
					shifts++
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return shifts
	}
	if n := countShifts(2); n != 0 {
		t.Fatalf("even dataset executed %d shifts, want 0", n)
	}
	if n := countShifts(3); n == 0 {
		t.Fatal("odd dataset executed no shifts")
	}
}

func TestBFSLevelsReachable(t *testing.T) {
	k := BFS(64, 4)
	mem := ir.NewFlatMem(0, 1<<22)
	inst := k.Setup(mem, 1)
	if _, _, err := ir.Exec(k.F, inst.Args, mem, nil); err != nil {
		t.Fatal(err)
	}
	if err := inst.Check(mem); err != nil {
		t.Fatal(err)
	}
	// The spanning-tree construction keeps every node reachable.
	lvA := inst.Args[3]
	for i := 0; i < 64; i++ {
		if lv := mem.ReadI64(lvA + uint64(i*8)); lv >= 127 {
			t.Fatalf("node %d unreached (level %d)", i, lv)
		}
	}
}

func TestCNNKernels(t *testing.T) {
	runKernel(t, Conv2D(12, 12), 5)
	runKernel(t, ReLU(100), 5)
	runKernel(t, MaxPool(10, 10), 5)
}

func TestCNNPipelineComposition(t *testing.T) {
	// conv -> relu -> pool goldens compose: feeding conv output through
	// relu and pool goldens matches an end-to-end manual computation.
	h, w := 10, 10
	r := rng(11)
	img := make([]float64, h*w)
	for i := range img {
		img[i] = r.Float64()*2 - 1
	}
	weights := []float64{1, 0, -1, 2, 0, -2, 1, 0, -1}
	conv := ConvGolden(img, weights, h, w)
	rel := ReLUGolden(conv)
	pool := MaxPoolGolden(rel, h-2, w-2)
	if len(pool) != ((h-2)/2)*((w-2)/2) {
		t.Fatalf("pool size %d", len(pool))
	}
	// Spot-check positivity: relu output is nonnegative, so pooled too.
	for i, v := range pool {
		if v < 0 {
			t.Fatalf("pool[%d] = %g < 0", i, v)
		}
	}
}

func TestInstanceMetadata(t *testing.T) {
	for _, k := range All(Small) {
		mem := ir.NewFlatMem(0, 1<<24)
		inst := k.Setup(mem, 1)
		if inst.Bytes <= 0 {
			t.Fatalf("%s: bytes = %d", k.Name, inst.Bytes)
		}
		if inst.InBytes == 0 || inst.OutBytes == 0 {
			t.Fatalf("%s: missing in/out ranges", k.Name)
		}
		if !mem.Contains(inst.InAddr, int(inst.InBytes)) ||
			!mem.Contains(inst.OutAddr, int(inst.OutBytes)) {
			t.Fatalf("%s: in/out ranges outside memory", k.Name)
		}
	}
}

func TestKernelsPrintable(t *testing.T) {
	// Every kernel's module prints and reparses (round trip through the
	// textual IR) and still verifies.
	for _, k := range All(Small) {
		text := ir.Print(k.M)
		m2, err := ir.Parse(k.Name, text)
		if err != nil {
			t.Fatalf("%s: reparse: %v", k.Name, err)
		}
		f2 := m2.Func(k.F.Name())
		if f2 == nil {
			t.Fatalf("%s: function lost", k.Name)
		}
		if err := ir.Verify(f2); err != nil {
			t.Fatalf("%s: reverify: %v", k.Name, err)
		}
	}
}

func TestMaxPoolStreamMatchesMaxPool(t *testing.T) {
	runKernel(t, MaxPoolStream(8, 8), 9)
	// Loads from `in` must be strictly sequential — the stream contract.
	k := MaxPoolStream(8, 8)
	mem := ir.NewFlatMem(0, 1<<20)
	inst := k.Setup(mem, 9)
	inBase := inst.Args[0]
	var last int64 = -1
	ok := true
	_, _, err := ir.Exec(k.F, inst.Args, mem, &ir.ExecOpts{
		Trace: func(ev ir.TraceEvent) {
			if ev.I.Op == ir.OpLoad && ev.Addr >= inBase && ev.Addr < inBase+inst.InBytes {
				idx := int64(ev.Addr-inBase) / 8
				if idx != last+1 {
					ok = false
				}
				last = idx
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("stream-pool input loads are not sequential")
	}
	if last != 63 {
		t.Fatalf("consumed %d inputs, want 64", last+1)
	}
}

func TestGEMMTree(t *testing.T) {
	runKernel(t, GEMMTree(8), 7)
	// The tree kernel has n fmuls and n-1 fadds per output, all in one
	// block: wide ILP.
	k := GEMMTree(8)
	fmuls := 0
	for _, blk := range k.F.Blocks {
		for _, in := range blk.Instrs {
			if in.Op == ir.OpFMul {
				fmuls++
			}
		}
	}
	if fmuls != 8 {
		t.Fatalf("static fmuls = %d, want 8", fmuls)
	}
}

func TestExtrasRunAndResolve(t *testing.T) {
	for _, k := range Extras(Small) {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			runKernel(t, k, 3)
			if ByName(Small, k.Name) == nil {
				t.Fatalf("%s not resolvable by name", k.Name)
			}
		})
	}
}

func TestMicroPresetRunsAndResolves(t *testing.T) {
	// Every Micro kernel executes, passes its golden, and carries the same
	// name as its Small sibling so ProxyOf can pair them.
	for _, k := range append(All(Micro), Extras(Micro)...) {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			stats := runKernel(t, k, 1)
			if stats.Steps == 0 {
				t.Fatal("micro kernel executed no instructions")
			}
			if ByName(Small, k.Name) == nil {
				t.Fatalf("%s has no Small sibling", k.Name)
			}
			if ProxyOf(k.Name) != nil && ProxyOf(k.Name).Name != k.Name {
				t.Fatalf("ProxyOf(%s) resolves to %s", k.Name, ProxyOf(k.Name).Name)
			}
		})
	}
	if ProxyOf("no-such-kernel") != nil {
		t.Fatal("ProxyOf invented a kernel")
	}
}

func TestLargePresetConstructsAndResolves(t *testing.T) {
	// Large is the sampled-simulation tier: running every instance in a
	// unit test would take minutes, so this checks construction (IR
	// verifies at build), name parity with the Small tier, and that the
	// sizes genuinely grew.
	large := append(All(Large), Extras(Large)...)
	if len(large) != len(All(Small))+len(Extras(Small)) {
		t.Fatalf("Large has %d kernels, Small tier has %d", len(large), len(All(Small))+len(Extras(Small)))
	}
	for _, k := range large {
		if ByName(Small, k.Name) == nil {
			t.Errorf("%s has no Small sibling", k.Name)
		}
		if ByName(Large, k.Name) == nil {
			t.Errorf("%s not resolvable in the Large preset", k.Name)
		}
	}
}

func TestBFSQueueMatchesBulk(t *testing.T) {
	// The worklist and bulk variants must label every node identically
	// (same graph, same seed).
	qk := BFSQueue(64, 4)
	runKernel(t, qk, 1)
	bk := BFS(64, 4)

	memQ := ir.NewFlatMem(0, 1<<22)
	instQ := qk.Setup(memQ, 5)
	if _, _, err := ir.Exec(qk.F, instQ.Args, memQ, nil); err != nil {
		t.Fatal(err)
	}
	memB := ir.NewFlatMem(0, 1<<22)
	instB := bk.Setup(memB, 5)
	if _, _, err := ir.Exec(bk.F, instB.Args, memB, nil); err != nil {
		t.Fatal(err)
	}
	lvQ, lvB := instQ.Args[3], instB.Args[3]
	for i := 0; i < 64; i++ {
		a := memQ.ReadI64(lvQ + uint64(i*8))
		c := memB.ReadI64(lvB + uint64(i*8))
		if a != c {
			t.Fatalf("node %d: queue level %d != bulk level %d", i, a, c)
		}
	}
}
