// Package kernels provides the MachSuite benchmark kernels the paper
// validates gem5-SALAM on — BFS, FFT (strided), GEMM (n-cubed), MD-KNN,
// MD-Grid, NW, SPMV-CRS, Stencil2D, Stencil3D — plus the CNN-layer kernels
// (conv2d, ReLU, max-pool) of the multi-accelerator study, each as an IR
// builder with deterministic input generators and golden Go reference
// implementations. Goldens make every simulation functionally checkable,
// which is the point of an execute-in-execute model.
package kernels

import (
	"fmt"
	"math/rand"
	"strings"

	"gosalam/ir"
)

// Kernel is one accelerator benchmark: an IR function plus a workload
// generator.
type Kernel struct {
	Name string
	M    *ir.Module
	F    *ir.Function
	// Setup allocates and initializes the kernel's buffers in mem
	// (using its allocation cursor) and returns the run instance.
	Setup func(mem *ir.FlatMem, seed int64) *Instance
}

// Instance is one prepared invocation: argument bits, a golden checker,
// and bookkeeping for experiments.
type Instance struct {
	Args []uint64
	// Check verifies the outputs against the golden model.
	Check func(mem *ir.FlatMem) error
	// Bytes is the approximate data footprint (for sizing memories).
	Bytes int
	// In/Out name the primary input and output buffers for DMA staging.
	InAddr, InBytes   uint64
	OutAddr, OutBytes uint64
}

// verify panics on malformed generated IR — a kernel construction bug.
func verify(f *ir.Function) {
	if err := ir.Verify(f); err != nil {
		panic(fmt.Sprintf("kernels: %s: %v", f.Name(), err))
	}
}

// rng returns a deterministic generator for workload data.
func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Preset selects workload sizes.
type Preset int

// Presets: Small keeps go test fast; Default matches the bench harness;
// Micro is the proxy tier — the smallest instance of each kernel that
// still exercises its full control structure, used as a cheap ranking
// stand-in for the real workload (see ProxyOf); Large is the sampled
// tier — problem sizes big enough that interval-sampled simulation
// (RunOpts.Sample) pays off, and the target of the sampled benchmarks.
const (
	Small Preset = iota
	Default
	Micro
	Large
	numPresets
)

// presetNames is the one spelling of each preset: config documents, space
// specs and command-line flags all parse through ParsePreset, and
// Preset.String prints the same word back.
var presetNames = [numPresets]string{"small", "default", "micro", "large"}

func (p Preset) String() string { return presetNames[p] }

// ParsePreset resolves a preset spelling. The empty string selects def —
// each surface documents its own default (configs: default; sweeps and
// the inspection tools: small).
func ParsePreset(name string, def Preset) (Preset, error) {
	if name == "" {
		return def, nil
	}
	for p, n := range presetNames {
		if n == name {
			return Preset(p), nil
		}
	}
	return 0, fmt.Errorf("unknown preset %q (want %s)", name, strings.Join(presetNames[:], ", "))
}

// family is one row of the kernel catalog: everything the package knows
// about a kernel family apart from its builder code. All, Extras, ByName,
// ProxyOf and Construct are all views of the families table.
type family struct {
	name string
	// extra marks the variant and CNN kernels (Extras); the rest are the
	// MachSuite set (All).
	extra bool
	// build calls the Go constructor with the full argument list.
	build func(size []int) *Kernel
	// opt holds the defaults of the trailing arguments Construct lets a
	// config omit.
	opt []int
	// sizes is the argument list at each preset, indexed by Preset.
	sizes [numPresets][]int
}

func args1(f func(int) *Kernel) func([]int) *Kernel {
	return func(s []int) *Kernel { return f(s[0]) }
}

func args2(f func(int, int) *Kernel) func([]int) *Kernel {
	return func(s []int) *Kernel { return f(s[0], s[1]) }
}

// families lists the MachSuite set in the order the paper's figures use,
// then the extras: the Table I probe, the Table II / DSE GEMM variants,
// the queue BFS, and the Fig. 16 layers. Sizes read Small, Default,
// Micro, Large.
var families = [...]family{
	{name: "bfs", build: args2(BFS), opt: []int{4},
		sizes: [numPresets][]int{{64, 4}, {256, 4}, {16, 4}, {1024, 4}}},
	{name: "fft", build: args1(FFT),
		sizes: [numPresets][]int{{64}, {256}, {16}, {1024}}},
	{name: "gemm", build: args2(GEMM), opt: []int{1},
		sizes: [numPresets][]int{{8, 1}, {24, 1}, {4, 1}, {96, 1}}},
	{name: "md-knn", build: args2(MDKnn),
		sizes: [numPresets][]int{{16, 16}, {64, 16}, {8, 8}, {256, 16}}},
	{name: "md-grid", build: args2(MDGrid),
		sizes: [numPresets][]int{{2, 4}, {3, 6}, {2, 2}, {4, 8}}},
	{name: "nw", build: args1(NW),
		sizes: [numPresets][]int{{16}, {48}, {8}, {96}}},
	{name: "spmv", build: args2(SPMV), opt: []int{4},
		sizes: [numPresets][]int{{32, 4}, {128, 5}, {16, 4}, {512, 5}}},
	{name: "stencil2d", build: args2(Stencil2D),
		sizes: [numPresets][]int{{12, 12}, {32, 32}, {6, 6}, {64, 64}}},
	{name: "stencil3d", build: func(s []int) *Kernel { return Stencil3D(s[0], s[1], s[2]) },
		sizes: [numPresets][]int{{6, 6, 6}, {12, 12, 12}, {4, 4, 4}, {24, 24, 24}}},

	{name: "spmv-condshift", extra: true, build: args2(SPMVCondShift), opt: []int{4},
		sizes: [numPresets][]int{{32, 4}, {128, 5}, {16, 4}, {512, 5}}},
	{name: "gemm-unrolled", extra: true, build: args1(GEMMUnrolledInner),
		sizes: [numPresets][]int{{6}, {10}, {4}, {24}}},
	{name: "gemm-tree", extra: true, build: args1(GEMMTree),
		sizes: [numPresets][]int{{8}, {32}, {4}, {128}}},
	{name: "bfs-queue", extra: true, build: args2(BFSQueue), opt: []int{4},
		sizes: [numPresets][]int{{64, 4}, {256, 4}, {16, 4}, {1024, 4}}},
	{name: "conv2d", extra: true, build: args2(Conv2D),
		sizes: [numPresets][]int{{18, 18}, {34, 34}, {10, 10}, {66, 66}}},
	{name: "relu", extra: true, build: args1(ReLU),
		sizes: [numPresets][]int{{256}, {1024}, {64}, {4096}}},
	{name: "maxpool", extra: true, build: args2(MaxPool),
		sizes: [numPresets][]int{{16, 16}, {32, 32}, {8, 8}, {64, 64}}},
	{name: "maxpool-stream", extra: true, build: args2(MaxPoolStream),
		sizes: [numPresets][]int{{16, 16}, {32, 32}, {8, 8}, {64, 64}}},
}

// familyByName finds a catalog row, or returns the catalog's one
// unknown-kernel error.
func familyByName(name string) (*family, error) {
	for i := range families {
		if families[i].name == name {
			return &families[i], nil
		}
	}
	names := make([]string, len(families))
	for i := range families {
		names[i] = families[i].name
	}
	return nil, fmt.Errorf("unknown kernel %q (want one of %s)", name, strings.Join(names, ", "))
}

// at builds the family's kernel at a preset: a new object on every call,
// like Construct. The engine's elaboration, analysis, size and session
// caches key on kernel identity, so a caller that wants them to hit keeps
// the kernel it resolved.
func (f *family) at(p Preset) *Kernel { return f.build(f.sizes[p]) }

// preset builds one half of the catalog.
func preset(p Preset, extra bool) []*Kernel {
	var ks []*Kernel
	for i := range families {
		if families[i].extra == extra {
			ks = append(ks, families[i].at(p))
		}
	}
	return ks
}

// All returns the full MachSuite set at a preset size, in the order the
// paper's figures list them.
func All(p Preset) []*Kernel { return preset(p, false) }

// Extras returns the variant and CNN kernels at a preset size.
func Extras(p Preset) []*Kernel { return preset(p, true) }

// Lookup builds the named kernel at a preset — that one kernel, not the
// preset's whole list — or returns the catalog's unknown-kernel error.
func Lookup(p Preset, name string) (*Kernel, error) {
	f, err := familyByName(name)
	if err != nil {
		return nil, err
	}
	return f.at(p), nil
}

// ByName is Lookup for callers that name kernels in code (nil if absent).
func ByName(p Preset, name string) *Kernel {
	k, _ := Lookup(p, name)
	return k
}

// ProxyOf returns the reduced-trip proxy of a named kernel: the Micro
// instance of the same kernel family (nil when none exists). A proxy
// shares the kernel's IR structure with shorter, provably-counted loop
// trips, so a proxy measurement ranks configurations cheaply; it is never
// a substitute for the full run's numbers.
func ProxyOf(name string) *Kernel { return ByName(Micro, name) }

func almostEqual(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := 1.0
	if a > scale {
		scale = a
	}
	if -a > scale {
		scale = -a
	}
	return d <= 1e-9*scale
}

func checkF64(mem *ir.FlatMem, addr uint64, want []float64, what string) error {
	for i, w := range want {
		got := mem.ReadF64(addr + uint64(i*8))
		if !almostEqual(got, w) {
			return fmt.Errorf("%s[%d] = %g, want %g", what, i, got, w)
		}
	}
	return nil
}

func checkI64(mem *ir.FlatMem, addr uint64, want []int64, what string) error {
	for i, w := range want {
		got := mem.ReadI64(addr + uint64(i*8))
		if got != w {
			return fmt.Errorf("%s[%d] = %d, want %d", what, i, got, w)
		}
	}
	return nil
}

func writeF64s(mem *ir.FlatMem, addr uint64, vals []float64) {
	for i, v := range vals {
		mem.WriteF64(addr+uint64(i*8), v)
	}
}

func writeI64s(mem *ir.FlatMem, addr uint64, vals []int64) {
	for i, v := range vals {
		mem.WriteI64(addr+uint64(i*8), v)
	}
}
