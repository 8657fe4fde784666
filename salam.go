// Package salam is the public API of gosalam, a from-scratch Go
// reproduction of gem5-SALAM (MICRO 2020): LLVM-based, execute-in-execute
// modeling of custom hardware accelerators inside a full-system
// discrete-event simulation.
//
// The quickest entry point is RunKernel, which simulates one accelerator
// kernel against a private scratchpad or cache and returns timing, power,
// area, and occupancy results:
//
//	res, err := salam.RunKernel(kernels.GEMM(16, 1), salam.DefaultRunOpts())
//
// For multi-accelerator SoCs (clusters, DMAs, hosts, stream links), build
// a SoC with NewSoC and wire components explicitly.
package salam

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gosalam/internal/analysis"
	"gosalam/internal/core"
	"gosalam/internal/hw"
	"gosalam/internal/mem"
	"gosalam/internal/sample"
	"gosalam/internal/sim"
	"gosalam/internal/timeline"
	"gosalam/ir"
	"gosalam/kernels"
)

// defaultProfile is the shared Default40nm instance used whenever
// RunOpts.Profile is nil. Sharing one object (profiles are immutable after
// construction) lets the elaboration cache key profiles by identity, so
// every default-profile run of a kernel maps to the same cached CDFG.
var defaultProfile = hw.Default40nm()

// Re-exported configuration types so callers need only this package.
type (
	// AccelConfig is the accelerator "device config" (clock, FU limits,
	// ports, queue sizes).
	AccelConfig = core.AccelConfig
	// PowerReport is the seven-category power/area breakdown.
	PowerReport = core.PowerReport
	// FUClass names functional-unit classes for FULimits.
	FUClass = hw.FUClass
	// SampleSpec configures interval-sampled simulation (RunOpts.Sample).
	SampleSpec = sample.Spec
	// SampleEstimate is the extrapolation detail of a sampled run
	// (Result.Sample).
	SampleEstimate = sample.Estimate
)

// Functional-unit classes (for AccelConfig.FULimits).
const (
	FUIntAdder      = hw.FUIntAdder
	FUIntMultiplier = hw.FUIntMultiplier
	FUIntDivider    = hw.FUIntDivider
	FUShifter       = hw.FUShifter
	FUBitwise       = hw.FUBitwise
	FUComparator    = hw.FUComparator
	FUFPAdder       = hw.FUFPAdder
	FUFPMultiplier  = hw.FUFPMultiplier
	FUFPDivider     = hw.FUFPDivider
	FUFPSqrt        = hw.FUFPSqrt
)

// MemKind selects the accelerator's data memory.
type MemKind int

// Memory hierarchy options for RunKernel.
const (
	// MemSPM gives the accelerator a private scratchpad sized to the
	// workload (the paper's default configuration).
	MemSPM MemKind = iota
	// MemCache backs the accelerator with a private L1 cache over DRAM.
	MemCache
)

// RunOpts configures a single-accelerator simulation.
type RunOpts struct {
	Accel AccelConfig
	// Profile is the hardware profile (nil = Default40nm).
	Profile *hw.Profile

	Mem MemKind
	// SPM knobs (MemSPM).
	SPMLatency  int
	SPMBanks    int
	SPMPortsPer int
	// Cache knobs (MemCache).
	CacheBytes int
	CacheLine  int
	CacheAssoc int
	CacheMSHRs int

	// Seed selects the workload dataset.
	Seed int64
	// SkipCheck disables the golden comparison (for sweeps where only
	// timing matters).
	SkipCheck bool
	// ProfileCycles enables per-cycle profiling, keeping up to this many
	// samples (0 = off). Read the result via Result.Acc.Profile().
	ProfileCycles int

	// Sample, when enabled, runs interval-sampled simulation: the kernel
	// is divided into Sample.N equal intervals of committed dynamic ops,
	// only the first Sample.K simulate in detail (with a checkpoint taken
	// at each interval boundary), and the rest is extrapolated from the
	// measured steady-state rate. Only kernels whose loop trip counts the
	// static analysis proves exact are eligible. The Result is marked
	// Estimated with a reported error bound; the golden output check is
	// skipped (the run never completes functionally) and the session that
	// ran it is not reused. Part of campaign cache keys.
	Sample SampleSpec `json:"sample"`

	// Timeline, when non-nil, receives cycle-accurate trace events from
	// the run (event-queue activity, engine issue/stall attribution, memory
	// service) — see internal/timeline for the recorder backends. Tracing
	// is observer-effect-free: schedules, cycle counts and stats are
	// byte-identical with it on or off. Excluded from JSON marshaling so
	// campaign job keys (and their result caches) ignore it.
	Timeline timeline.Recorder `json:"-"`
}

// DefaultRunOpts returns the paper-default configuration: a 100 MHz
// accelerator with dedicated FUs and a 2-cycle, 4-bank private SPM.
func DefaultRunOpts() RunOpts {
	return RunOpts{
		Accel:       core.DefaultConfig(),
		Mem:         MemSPM,
		SPMLatency:  2,
		SPMBanks:    4,
		SPMPortsPer: 2,
		CacheBytes:  4096,
		CacheLine:   64,
		CacheAssoc:  2,
		CacheMSHRs:  8,
		Seed:        1,
	}
}

// SetPoint overlays one design-space coordinate — the sweep-point rule
// every front end (campaign spaces, salam analyze, the DSE experiments)
// shares. ports sets the accelerator's read and write ports and the
// scratchpad's ports per bank together, with twice as many requests
// allowed in flight, so memory bandwidth follows the port sweep; fpAdd
// and fpMul cap the FP adder and multiplier pools. A zero leaves that
// knob as it is (FP units: dedicated, one per static op).
func (o *RunOpts) SetPoint(ports, fpAdd, fpMul int) {
	if ports > 0 {
		o.Accel.ReadPorts = ports
		o.Accel.WritePorts = ports
		o.Accel.MaxOutstanding = 2 * ports
		o.SPMPortsPer = ports
	}
	if fpAdd > 0 || fpMul > 0 {
		o.Accel.FULimits = map[hw.FUClass]int{}
		if fpAdd > 0 {
			o.Accel.FULimits[hw.FUFPAdder] = fpAdd
		}
		if fpMul > 0 {
			o.Accel.FULimits[hw.FUFPMultiplier] = fpMul
		}
	}
}

// Result carries everything a run produced.
type Result struct {
	// Cycles is the kernel's accelerator-cycle count.
	Cycles uint64
	// Ticks is total simulated time.
	Ticks sim.Tick
	// EventsFired is the total number of event-queue events executed:
	// clock edges and memory-system events. The engine's own schedule —
	// what issued and committed on which cycle — never reaches the queue,
	// so the golden file's schedule_sha (a hash of the per-cycle profile),
	// not this count, is what detects engine drift that preserves the
	// final cycle count.
	EventsFired uint64
	// Power is the full power/area report over the kernel's runtime.
	Power PowerReport
	// Acc exposes the accelerator's detailed statistics.
	Acc *core.Accelerator
	// SPM is non-nil in MemSPM mode.
	SPM *mem.Scratchpad
	// Cache is non-nil in MemCache mode.
	Cache *mem.Cache
	// Stats is the stat-group root for dumping.
	Stats *sim.Group
	// Instance is the workload that ran.
	Instance *kernels.Instance
	// Space is the simulated physical memory.
	Space *ir.FlatMem

	// Estimated marks Cycles and Ticks as sampled extrapolations rather
	// than exact measurements (RunOpts.Sample). Estimated results never
	// enter golden files or exactness-certified search frontiers, and
	// Power covers only the simulated prefix.
	Estimated bool
	// SampleError is the extrapolation's reported relative error bound
	// (zero for exact runs).
	SampleError float64
	// Sample holds the per-interval measurements and extrapolation detail
	// of a sampled run (nil for exact runs).
	Sample *SampleEstimate
}

// RunKernel builds a single-accelerator system around k, runs it to
// completion, verifies the outputs against the kernel's golden model, and
// reports metrics.
func RunKernel(k *kernels.Kernel, opts RunOpts) (*Result, error) {
	return runKernel(k, opts, nil)
}

// RunKernelCtx is RunKernel with cooperative cancellation: when ctx is
// canceled (or its deadline passes) the event loop stops at the next event
// boundary and the call returns ctx's error. This is what lets a sweep
// campaign kill a runaway simulation without leaking a goroutine — the
// simulation really stops rather than being abandoned.
func RunKernelCtx(ctx context.Context, k *kernels.Kernel, opts RunOpts) (*Result, error) {
	return runWithCtx(ctx, k.Name, func(stop func() bool) (*Result, error) {
		return runKernel(k, opts, stop)
	})
}

// runWithCtx wraps a stoppable simulation run with cooperative
// cancellation; Session.RunCtx shares it with RunKernelCtx.
func runWithCtx(ctx context.Context, name string, run func(stop func() bool) (*Result, error)) (*Result, error) {
	if ctx == nil || ctx.Done() == nil {
		return run(nil)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("salam: %s not started: %w", name, err)
	}
	var stop atomic.Bool
	cancelWatch := context.AfterFunc(ctx, func() { stop.Store(true) })
	defer cancelWatch()
	// Check the deadline directly every so often as well: on a single-CPU
	// machine the event loop never yields, so neither the AfterFunc
	// goroutine nor the context's own timer may run before a short
	// simulation finishes — ctx.Err() stays nil past the deadline until the
	// timer fires. Reading the clock here only affects cancellation, never
	// simulated state.
	deadline, hasDeadline := ctx.Deadline()
	ctxErr := func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if hasDeadline && !time.Now().Before(deadline) {
			return context.DeadlineExceeded
		}
		return nil
	}
	canceled := false
	var polled uint64
	stopFn := func() bool {
		if canceled {
			return true
		}
		polled++
		if stop.Load() || (polled&1023 == 0 && ctxErr() != nil) {
			canceled = true
		}
		return canceled
	}
	res, err := run(stopFn)
	if err != nil {
		if cerr := ctxErr(); cerr != nil {
			return nil, fmt.Errorf("salam: %s canceled: %w", name, cerr)
		}
	}
	return res, err
}

// spaceSizes caches the simulated-memory size per (kernel, seed): sizing
// requires a throwaway Setup into a probe memory, which would otherwise
// dominate runtime for repeated runs of the same kernel (DSE sweeps run the
// same kernel object hundreds of times). Setup is deterministic, so the
// cached size is exact. Keys pin kernel objects for process lifetime, which
// is fine for sweep workloads that reuse a handful of kernels.
var spaceSizes sync.Map // spaceSizeKey -> int

type spaceSizeKey struct {
	k    *kernels.Kernel
	seed int64
}

func spaceSizeFor(k *kernels.Kernel, seed int64) int {
	key := spaceSizeKey{k: k, seed: seed}
	if v, ok := spaceSizes.Load(key); ok {
		return v.(int)
	}
	probe := ir.NewFlatMem(0, 1<<26)
	probeInst := k.Setup(probe, seed)
	size := nextPow2(probeInst.Bytes*2 + 1<<16)
	spaceSizes.Store(key, size)
	return size
}

// runKernel is the shared cold-path implementation: a one-shot Session. A
// non-nil stop func is polled at every event boundary and halts the
// simulation when it reports true. Warm-start reuse lives in Session /
// SessionPool; this path builds a fresh system per call, sharing only the
// cached static CDFG.
func runKernel(k *kernels.Kernel, opts RunOpts, stop func() bool) (*Result, error) {
	s, err := NewSession(k, opts)
	if err != nil {
		return nil, err
	}
	return s.run(opts, stop)
}

func nextPow2(v int) int {
	n := 1 << 16
	for n < v {
		n <<= 1
	}
	return n
}

// Elaborate exposes static elaboration for tooling (salam ll and the
// experiments). It goes through the shared elaboration cache, so repeated
// elaborations of the same configuration return the same immutable CDFG.
func Elaborate(f *ir.Function, profile *hw.Profile, limits map[hw.FUClass]int) (*core.CDFG, error) {
	if profile == nil {
		profile = defaultProfile
	}
	return core.SharedElab.Elaborate(f, profile, limits)
}

// ElabCacheStats reports the process-wide elaboration cache counters:
// lookups that found an existing CDFG vs. lookups that elaborated one.
func ElabCacheStats() (hits, misses uint64) { return core.SharedElab.Stats() }

// AnalyzeKernel returns the static analysis report for k elaborated under
// opts' profile and FU limits. Both the CDFG and the report are cached
// process-wide, so analyzing every point of a sweep that varies only
// non-structural knobs (ports, memory) costs one analysis.
func AnalyzeKernel(k *kernels.Kernel, opts RunOpts) (*analysis.Report, error) {
	g, err := Elaborate(k.F, opts.Profile, opts.Accel.FULimits)
	if err != nil {
		return nil, err
	}
	return analysis.For(g), nil
}

// StaticLowerBound returns the provable cycle-count lower bound for
// simulating k under opts, without running the simulation. ok is false
// when elaboration fails (the simulation itself would fail the same way).
func StaticLowerBound(k *kernels.Kernel, opts RunOpts) (lb uint64, ok bool) {
	rep, err := AnalyzeKernel(k, opts)
	if err != nil {
		return 0, false
	}
	return rep.LowerBound(opts.Accel).Cycles, true
}

// StaticEnvelope is the static floor of one configuration's power and
// area, computed without simulating: AreaUM2 is the exact total area the
// run would report (datapath FUs + registers, plus the SPM macro in
// MemSPM mode), and StaticMW is the exact leakage — a provable lower
// bound on the run's total power, since dynamic energy only adds to it.
// Cache-backed runs mirror the runtime accounting, which attributes no
// private-memory categories.
type StaticEnvelope struct {
	AreaUM2  float64
	StaticMW float64
}

// StaticEnvelopeFor evaluates the static power/area floor for simulating
// k under opts. It mirrors Accelerator.Power exactly: the datapath part
// comes from the elaborated CDFG, the SPM part from the CACTI model at
// the same sizing (the workload-sized scratchpad) and the same knob
// clamping: the run's Scratchpad.Cacti and this function both go through
// hw.NewCactiSRAM, on top of the ports floor Scratchpad.Retune applies.
func StaticEnvelopeFor(k *kernels.Kernel, opts RunOpts) (StaticEnvelope, error) {
	rep, err := AnalyzeKernel(k, opts)
	if err != nil {
		return StaticEnvelope{}, err
	}
	env := StaticEnvelope{
		AreaUM2:  rep.Envelope.AreaUM2,
		StaticMW: rep.Envelope.StaticFUMW + rep.Envelope.StaticRegMW,
	}
	if opts.Mem == MemSPM {
		c := hw.NewCactiSRAM(spaceSizeFor(k, opts.Seed), opts.SPMPortsPer, opts.SPMBanks)
		env.AreaUM2 += c.AreaUM2()
		env.StaticMW += c.LeakageMW()
	}
	return env, nil
}

// StaticEnergy is the provable dynamic-energy lower bound of one
// configuration, computed without simulating. Every component is a floor
// of a runtime counter (see analysis.EnergyBound for the proof sketch);
// TotalPJ is therefore a sound lower bound on the run's measured energy
// (Power.TotalMW() x elapsed), and EDP on its energy-delay product.
type StaticEnergy struct {
	// Dynamic floors: FU energy, register traffic, private-memory
	// accesses (zero for cache-backed runs, whose private-memory energy
	// the accelerator power report does not attribute).
	FUPJ  float64 `json:"fu_pj"`
	RegPJ float64 `json:"reg_pj"`
	MemPJ float64 `json:"mem_pj"`
	// LeakPJ integrates LeakMW (datapath + SPM leakage) over the cycle
	// lower bound at PeriodNS per cycle.
	LeakPJ   float64 `json:"leak_pj"`
	TotalPJ  float64 `json:"total_pj"`
	CyclesLB uint64  `json:"cycles_lb"`
	PeriodNS float64 `json:"period_ns"`
	LeakMW   float64 `json:"leak_mw"`
	// EDP is the energy-delay-product floor in pJ*ns.
	EDP float64 `json:"edp_pjns"`
	// Exact is true when every reachable block's trip count is proved, so
	// the dynamic terms are exact counts rather than floors.
	Exact bool `json:"exact"`
	// Classes breaks the FU floor down per functional-unit class.
	Classes []analysis.ClassEnergy `json:"classes,omitempty"`
}

// StaticEnergyLowerBound evaluates the dynamic-energy floor for simulating
// k under opts. It mirrors the run's energy accounting exactly: the
// datapath floors come from the cached analysis report, the memory-access
// energies from the CACTI model at the same workload sizing and knob
// clamping as StaticEnvelopeFor (cache-backed runs get a zero memory
// model, matching MeasuredEnergy's role in Power reports).
func StaticEnergyLowerBound(k *kernels.Kernel, opts RunOpts) (StaticEnergy, error) {
	rep, err := AnalyzeKernel(k, opts)
	if err != nil {
		return StaticEnergy{}, err
	}
	var me analysis.MemEnergy
	if opts.Mem == MemSPM {
		c := hw.NewCactiSRAM(spaceSizeFor(k, opts.Seed), opts.SPMPortsPer, opts.SPMBanks)
		me = analysis.MemEnergy{ReadPJ: c.ReadEnergyPJ(), WritePJ: c.WriteEnergyPJ(), LeakMW: c.LeakageMW()}
	}
	b := rep.EnergyLowerBound(opts.Accel, me)
	se := StaticEnergy{
		FUPJ:     b.FUPJ,
		RegPJ:    b.RegPJ,
		MemPJ:    b.MemPJ,
		LeakPJ:   b.LeakPJ,
		TotalPJ:  b.TotalPJ,
		CyclesLB: b.CyclesLB,
		PeriodNS: b.PeriodNS,
		LeakMW:   rep.Envelope.StaticFUMW + rep.Envelope.StaticRegMW + me.LeakMW,
		EDP:      b.EDPpJns(),
		Exact:    b.Exact,
		Classes:  b.Classes,
	}
	return se, nil
}
