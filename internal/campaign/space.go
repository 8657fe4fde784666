package campaign

import (
	"fmt"
	"io"
	"os"
	"time"

	salam "gosalam"
	"gosalam/internal/soccfg"
	"gosalam/kernels"
)

// Space is a declarative design-space spec: the JSON body a salam-serve
// campaign submission carries, and the document salam-dse -space reads.
// One definition on both sides guarantees the CLI and the service
// enumerate identical job lists — same IDs, same content-addressed keys —
// which is what makes their outputs diffable and their shards mergeable.
//
// Each knob has a list form (spell out every value) and a range form
// (Min..Max arithmetic progression); the range form keeps 10⁵–10⁶-point
// spaces a few bytes of JSON, which is what internal/search explores
// without enumerating. A knob may use one form or the other, not both.
type Space struct {
	// Kernel names the workload (kernels.Lookup).
	Kernel string `json:"kernel"`
	// Preset selects the workload size: "small" (the default), "default",
	// "micro" or "large" (kernels.ParsePreset).
	Preset string `json:"preset,omitempty"`
	// Ports lists the read/write port counts to sweep (default 2,4,8).
	Ports []int `json:"ports,omitempty"`
	// FU lists FP adder+multiplier limits to sweep; 0 = dedicated
	// (default just 0).
	FU []int `json:"fu,omitempty"`
	// Banks lists SPM bank counts to sweep (default just 4, the paper
	// default — the default axis is omitted from job IDs so pre-banks
	// sweeps keep byte-identical IDs and cache keys).
	Banks []int `json:"banks,omitempty"`
	// Mem lists memory kinds to sweep: "spm" and/or "cache"
	// (default just "spm").
	Mem []string `json:"mem,omitempty"`
	// PortRange/FURange/BankRange are the ranged forms of the knobs
	// above, each mutually exclusive with its list form.
	PortRange *Range `json:"port_range,omitempty"`
	FURange   *Range `json:"fu_range,omitempty"`
	BankRange *Range `json:"bank_range,omitempty"`
	// TimeoutMS bounds each point's simulation (0 = no per-job timeout).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Objective selects what a search over this space optimizes: "pareto"
	// (the default: the three-axis cycles/power/area frontier), "edp"
	// (minimize energy-delay product), or "cycles" (minimize cycles).
	// Sweeps enumerate every point regardless and ignore it.
	Objective string `json:"objective,omitempty"`
	// MaxAreaUM2, when > 0, constrains a search to configurations whose
	// total area fits the budget; infeasible points never enter the result
	// and provably-infeasible regions are pruned without simulating.
	// Sweeps ignore it.
	MaxAreaUM2 float64 `json:"max_area_um2,omitempty"`
}

// LoadSpace reads a Space document from path ("-" reads stdin) through the
// strict config decoder: a key Space does not define is an error carrying
// its field path and, for a near miss, a "did you mean" hint.
func LoadSpace(path string) (Space, error) {
	var space Space
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return space, err
	}
	if err := soccfg.Unmarshal(data, &space); err != nil {
		return space, fmt.Errorf("%s: %w", path, err)
	}
	return space, nil
}

// Range is an inclusive arithmetic progression: Min, Min+Step, … ≤ Max.
// Step 0 means 1.
type Range struct {
	Min  int `json:"min"`
	Max  int `json:"max"`
	Step int `json:"step,omitempty"`
}

func (r Range) step() int {
	if r.Step > 0 {
		return r.Step
	}
	return 1
}

// Count returns how many values the range enumerates.
func (r Range) Count() int {
	if r.Max < r.Min {
		return 0
	}
	return (r.Max-r.Min)/r.step() + 1
}

// Values expands the progression.
func (r Range) Values() []int {
	vs := make([]int, 0, r.Count())
	for v := r.Min; v <= r.Max; v += r.step() {
		vs = append(vs, v)
	}
	return vs
}

// Point is the sweep coordinate of one job, in enumeration order — the
// metadata a CSV renderer needs alongside the outcome rows. Banks is 0
// when the space left the bank axis at its implicit default.
type Point struct {
	Mem   string
	FU    int
	Ports int
	Banks int
}

// axisValues resolves one integer knob: list form, range form, or the
// default. Empty (but present) lists, duplicate values, out-of-range
// values, and list+range conflicts are errors.
func axisValues(name string, list []int, rng *Range, min int, def []int) ([]int, error) {
	if list != nil && rng != nil {
		return nil, fmt.Errorf("campaign: both %s list and %s range set; pick one form", name, name)
	}
	if rng != nil {
		if rng.Step < 0 {
			return nil, fmt.Errorf("campaign: negative %s range step %d", name, rng.Step)
		}
		if rng.Min < min {
			return nil, fmt.Errorf("campaign: invalid %s range min %d: must be >= %d", name, rng.Min, min)
		}
		if rng.Max < rng.Min {
			return nil, fmt.Errorf("campaign: empty %s range [%d, %d]", name, rng.Min, rng.Max)
		}
		return rng.Values(), nil
	}
	if list == nil {
		return def, nil
	}
	if len(list) == 0 {
		return nil, fmt.Errorf("campaign: empty %s list (omit the field for the default)", name)
	}
	seen := make(map[int]bool, len(list))
	for _, v := range list {
		if v < min {
			return nil, fmt.Errorf("campaign: invalid %s value %d: must be >= %d", name, v, min)
		}
		if seen[v] {
			return nil, fmt.Errorf("campaign: duplicate %s value %d", name, v)
		}
		seen[v] = true
	}
	return list, nil
}

// Axes is a validated, enumerable view of a Space: kernel resolved, every
// knob axis expanded, defaults applied. PointAt/JobAt construct points on
// demand in canonical enumeration order (memory kind outermost, then FU,
// then ports, then banks innermost), so million-point spaces never have to
// materialize a job slice.
type Axes struct {
	Kernel    *kernels.Kernel
	KernelKey string
	Mem       []string
	FU        []int
	Ports     []int
	Banks     []int
	// Objective and MaxAreaUM2 carry the validated search-only knobs
	// through to internal/search; sweeps ignore them.
	Objective  string
	MaxAreaUM2 float64

	// banksDefaulted records that the bank axis is the implicit paper
	// default ([4]): job IDs and Points omit it, keeping pre-banks sweeps
	// byte-identical.
	banksDefaulted bool
	timeout        time.Duration
}

// Axes validates the space and resolves its axes without enumerating the
// cross product.
func (s Space) Axes() (*Axes, error) {
	preset, err := kernels.ParsePreset(s.Preset, kernels.Small)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	k, err := kernels.Lookup(preset, s.Kernel)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	ports, err := axisValues("ports", s.Ports, s.PortRange, 1, []int{2, 4, 8})
	if err != nil {
		return nil, err
	}
	fu, err := axisValues("fu", s.FU, s.FURange, 0, []int{0})
	if err != nil {
		return nil, err
	}
	banks, err := axisValues("banks", s.Banks, s.BankRange, 1, []int{4})
	if err != nil {
		return nil, err
	}
	mems := s.Mem
	if mems == nil {
		mems = []string{"spm"}
	}
	if len(mems) == 0 {
		return nil, fmt.Errorf("campaign: empty mem list (omit the field for the default)")
	}
	seen := make(map[string]bool, len(mems))
	for _, m := range mems {
		if m != "spm" && m != "cache" {
			return nil, fmt.Errorf("campaign: unknown memory %q (want spm or cache)", m)
		}
		if seen[m] {
			return nil, fmt.Errorf("campaign: duplicate memory %q", m)
		}
		seen[m] = true
	}
	if s.TimeoutMS < 0 {
		return nil, fmt.Errorf("campaign: negative timeout_ms %d", s.TimeoutMS)
	}
	switch s.Objective {
	case "", "pareto", "edp", "cycles":
	default:
		return nil, fmt.Errorf("campaign: unknown objective %q (want pareto, edp, or cycles)", s.Objective)
	}
	if s.MaxAreaUM2 < 0 {
		return nil, fmt.Errorf("campaign: negative max_area_um2 %g", s.MaxAreaUM2)
	}
	return &Axes{
		Kernel:         k,
		KernelKey:      fmt.Sprintf("%s/preset=%s", k.Name, preset),
		Mem:            mems,
		FU:             fu,
		Ports:          ports,
		Banks:          banks,
		Objective:      s.Objective,
		MaxAreaUM2:     s.MaxAreaUM2,
		banksDefaulted: s.Banks == nil && s.BankRange == nil,
		timeout:        time.Duration(s.TimeoutMS) * time.Millisecond,
	}, nil
}

// Validate checks the space without enumerating it: unknown kernels,
// presets, and memory kinds, empty or duplicate knob lists, malformed
// ranges, and negative timeouts are all reported before any job exists.
func (s Space) Validate() error {
	_, err := s.Axes()
	return err
}

// Size returns the number of points the space enumerates (after
// defaulting) without building jobs, 0 for a space Validate rejects.
func (s Space) Size() int {
	a, err := s.Axes()
	if err != nil {
		return 0
	}
	return a.Size()
}

// Size is the number of points the axes enumerate.
func (a *Axes) Size() int {
	return len(a.Mem) * len(a.FU) * len(a.Ports) * len(a.Banks)
}

// coords decomposes an enumeration index (banks fastest, memory slowest).
func (a *Axes) coords(i int) (mem string, fu, port, bank int) {
	bank = a.Banks[i%len(a.Banks)]
	i /= len(a.Banks)
	port = a.Ports[i%len(a.Ports)]
	i /= len(a.Ports)
	fu = a.FU[i%len(a.FU)]
	i /= len(a.FU)
	return a.Mem[i], fu, port, bank
}

// PointAt returns the i-th sweep coordinate.
func (a *Axes) PointAt(i int) Point {
	mem, fu, port, bank := a.coords(i)
	p := Point{Mem: mem, FU: fu, Ports: port}
	if !a.banksDefaulted {
		p.Banks = bank
	}
	return p
}

// JobAt constructs the i-th job. Pure in i: the same index always yields
// the same ID, options, and content-addressed key.
func (a *Axes) JobAt(i int) Job {
	mem, fu, port, bank := a.coords(i)
	opts := salam.DefaultRunOpts()
	opts.SetPoint(port, fu, fu)
	opts.SPMBanks = bank
	if mem == "cache" {
		opts.Mem = salam.MemCache
	}
	id := fmt.Sprintf("%s %s fu=%d ports=%d", a.Kernel.Name, mem, fu, port)
	if !a.banksDefaulted {
		id = fmt.Sprintf("%s banks=%d", id, bank)
	}
	return Job{
		ID:        id,
		Kernel:    a.Kernel,
		KernelKey: a.KernelKey,
		Opts:      opts,
		Timeout:   a.timeout,
	}
}

// Build validates the space and enumerates it into points and jobs in the
// canonical order. Every validation error is reported before any
// simulation could run. Spaces too large to materialize should use Axes
// and JobAt instead.
func (s Space) Build() ([]Point, []Job, error) {
	a, err := s.Axes()
	if err != nil {
		return nil, nil, err
	}
	n := a.Size()
	pts := make([]Point, n)
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		pts[i] = a.PointAt(i)
		jobs[i] = a.JobAt(i)
	}
	return pts, jobs, nil
}
