// Package core implements gem5-SALAM's contribution: LLVM-based
// execute-in-execute accelerator modeling. Static elaboration turns an IR
// function into a static control/data-flow graph with functional-unit and
// register mappings (Sec. III-A2); the dynamic runtime engine (Sec. III-B)
// instantiates it basic block by basic block through reservation, compute,
// and read/write queues; the communications interface (Sec. III-D1)
// connects the datapath to the rest of the memory system; and the metrics
// layer produces the paper's power/area/occupancy outputs (Sec. III-C).
package core

import (
	"fmt"

	"gosalam/internal/hw"
	"gosalam/ir"
)

// operandSrc is a precompiled operand source: where one input of a static
// op comes from at runtime. Compiling sources once at elaboration keeps the
// per-fetch dependency search free of interface dispatch and map lookups.
type operandSrc struct {
	bits uint64 // constant bits or global address (srcConst)
	idx  int32  // param index (srcParam) or producer StaticOp.ID (srcDef)
	kind uint8
}

const (
	srcConst uint8 = iota // literal constant or global address
	srcParam              // kernel argument register
	srcDef                // SSA value produced by another static op
)

// StaticOp is one statically elaborated instruction: the IR instruction
// linked to its virtual hardware resources.
type StaticOp struct {
	In      *ir.Instr
	Class   hw.FUClass
	Latency int
	// Pipelined mirrors the FU spec; unpipelined units stay busy for
	// their full latency.
	Pipelined bool
	// RegBits is the width of the destination register (0 for void).
	RegBits int

	// ID densely numbers static ops within the function, so runtime state
	// (last definitions, per-cycle issue stamps) lives in flat slices.
	ID int

	// Precompiled operand sources. Srcs parallels In.Args for every op but
	// phi; PhiSrcs parallels In.Blocks, one source per incoming edge.
	Srcs    []operandSrc
	PhiSrcs []operandSrc

	// Dispatch flags and energies precomputed from the IR and profile so
	// the cycle loop never re-derives them.
	Mem, Load, Store bool
	Term             bool
	FP               bool
	Result           bool
	AccSize          int       // memory access size in bytes
	EnergyPJ         float64   // FU dynamic energy per initiation
	WritePJ          float64   // register-write energy on commit
	MemReadPJ        float64   // register-read energy on memory issue
	ReadPJ           []float64 // per-argument register-read energy
	GEPStrides       []int64   // byte stride per index operand (GEPs only)
}

// IsMem reports whether the op uses the memory queues instead of an FU.
func (s *StaticOp) IsMem() bool { return s.Mem }

// IsFP reports whether the op occupies a floating-point functional unit.
func (s *StaticOp) IsFP() bool {
	switch s.Class {
	case hw.FUFPAdder, hw.FUFPMultiplier, hw.FUFPDivider, hw.FUFPSqrt:
		return true
	}
	return false
}

// CDFG is the statically elaborated datapath skeleton: the static half of
// the paper's dual-CDFG design. Unlike the trace-based baseline, it is a
// pure function of the IR and the hardware profile — input data and memory
// configuration cannot change it (the property Tables I and II test).
type CDFG struct {
	F       *ir.Function
	Profile *hw.Profile

	Ops      map[*ir.Instr]*StaticOp
	BlockOps map[*ir.Block][]*StaticOp

	// FUTotal is the number of functional units instantiated per class:
	// one per static instruction by default (dedicated 1:1 mapping), or
	// the user-constrained pool size when a limit is set.
	FUTotal map[hw.FUClass]int
	// FULimit holds the user constraints that were applied (0 = none).
	FULimit map[hw.FUClass]int

	// RegBits is the total datapath register width: every SSA value plus
	// the argument registers.
	RegBits int
	// RegCount is the number of registers.
	RegCount int

	// NumOps is the number of static ops (dense StaticOp.ID space).
	NumOps int
	// MaxLatency is the longest issue-to-commit latency of any op; it sizes
	// the engine's due-wheel.
	MaxLatency int
	// opsByID maps a dense ID back to its static op, so snapshots can
	// name ops by ID and restores can rebind them.
	opsByID []*StaticOp
}

// OpByID returns the static op with the given dense ID.
func (g *CDFG) OpByID(id int) *StaticOp { return g.opsByID[id] }

// compileSrc resolves one IR operand to its precompiled source.
func (g *CDFG) compileSrc(v ir.Value) operandSrc {
	if b, ok := ir.ConstBits(v); ok {
		return operandSrc{kind: srcConst, bits: b}
	}
	switch vv := v.(type) {
	case *ir.Global:
		return operandSrc{kind: srcConst, bits: vv.Addr}
	case *ir.Param:
		return operandSrc{kind: srcParam, idx: int32(vv.Index)}
	case *ir.Instr:
		return operandSrc{kind: srcDef, idx: int32(g.Ops[vv].ID)}
	}
	panic("core: unknown value kind")
}

// Elaborate builds the static CDFG for f under a hardware profile with
// optional per-class FU limits ("hardware profile" constraints enforcing
// reuse, Sec. III-A2).
func Elaborate(f *ir.Function, profile *hw.Profile, limits map[hw.FUClass]int) (*CDFG, error) {
	if err := ir.Verify(f); err != nil {
		return nil, fmt.Errorf("core: elaborating unverifiable IR: %w", err)
	}
	g := &CDFG{
		F:        f,
		Profile:  profile,
		Ops:      map[*ir.Instr]*StaticOp{},
		BlockOps: map[*ir.Block][]*StaticOp{},
		FUTotal:  map[hw.FUClass]int{},
		FULimit:  map[hw.FUClass]int{},
	}
	for _, c := range hw.AllFUClasses() {
		if n, ok := limits[c]; ok {
			g.FULimit[c] = n
		}
	}
	demand := map[hw.FUClass]int{}
	// One slab holds every static op, so they cost elaboration one
	// allocation, not one per instruction (a campaign elaborates per
	// kernel object it builds, dse_replay included).
	slab := make([]StaticOp, f.NumInstrs())
	g.opsByID = make([]*StaticOp, 0, len(slab))
	for _, b := range f.Blocks {
		ops := make([]*StaticOp, 0, len(b.Instrs))
		for _, in := range b.Instrs {
			class := hw.OpClass(in)
			spec := profile.Spec(class)
			op := &slab[g.NumOps]
			*op = StaticOp{
				In:        in,
				Class:     class,
				Latency:   profile.OpLatency(in),
				Pipelined: spec.Pipelined || class == hw.FUNone,
				RegBits:   in.T.Bits(),
				ID:        g.NumOps,
				Mem:       in.Op.IsMemAccess(),
				Load:      in.Op == ir.OpLoad,
				Store:     in.Op == ir.OpStore,
				Term:      in.Op.IsTerminator(),
				Result:    in.HasResult(),
				EnergyPJ:  spec.EnergyPJ,
			}
			op.FP = op.IsFP()
			if in.Op == ir.OpGEP {
				op.GEPStrides = in.GEPStrides()
			}
			if op.Latency > g.MaxLatency {
				g.MaxLatency = op.Latency
			}
			g.NumOps++
			g.opsByID = append(g.opsByID, op)
			g.Ops[in] = op
			ops = append(ops, op)
			if class != hw.FUNone {
				demand[class]++
			}
			if in.HasResult() {
				g.RegBits += in.T.Bits()
				g.RegCount++
			}
		}
		g.BlockOps[b] = ops
	}
	// Second pass: compile operand sources and per-op energies. This must
	// run after every op has an ID, because phi arguments reference ops in
	// blocks that are elaborated later.
	for _, b := range f.Blocks {
		for _, op := range g.BlockOps[b] {
			in := op.In
			if in.Op == ir.OpPhi {
				op.PhiSrcs = make([]operandSrc, len(in.Args))
				for k, v := range in.Args {
					op.PhiSrcs[k] = g.compileSrc(v)
				}
			} else if len(in.Args) > 0 {
				op.Srcs = make([]operandSrc, len(in.Args))
				for k, v := range in.Args {
					op.Srcs[k] = g.compileSrc(v)
				}
			}
			if len(in.Args) > 0 {
				op.ReadPJ = make([]float64, len(in.Args))
				for k, v := range in.Args {
					op.ReadPJ[k] = profile.Reg.ReadEnergyPJ * float64(v.Type().Bits())
				}
			}
			if op.Result {
				op.WritePJ = profile.Reg.WriteEnergyPJ * float64(in.T.Bits())
			}
			if op.Load {
				op.AccSize = in.T.SizeBytes()
				op.MemReadPJ = profile.Reg.ReadEnergyPJ * 64
			} else if op.Store {
				op.AccSize = in.Args[0].Type().SizeBytes()
				op.MemReadPJ = profile.Reg.ReadEnergyPJ * float64(64+op.AccSize*8)
			}
		}
	}
	for _, p := range f.Params {
		g.RegBits += p.T.Bits()
		g.RegCount++
	}
	for _, c := range hw.AllFUClasses() {
		n, ok := demand[c]
		if !ok {
			continue
		}
		if lim := g.FULimit[c]; lim > 0 && lim < n {
			g.FUTotal[c] = lim
		} else {
			g.FUTotal[c] = n
		}
	}
	return g, nil
}

// AreaUM2 returns datapath area: functional units plus registers. Memory
// macros are reported separately (they belong to the memory hierarchy,
// which gem5-SALAM deliberately decouples from the datapath).
func (g *CDFG) AreaUM2() float64 {
	// Iterate classes in declaration order: float summation order must be
	// fixed or reports differ in the last bit between runs (map iteration
	// order is randomized).
	area := 0.0
	for _, c := range hw.AllFUClasses() {
		if n := g.FUTotal[c]; n > 0 {
			area += g.Profile.Spec(c).AreaUM2 * float64(n)
		}
	}
	area += g.Profile.Reg.AreaUM2 * float64(g.RegBits)
	return area
}

// StaticFULeakageMW returns functional-unit leakage power.
func (g *CDFG) StaticFULeakageMW() float64 {
	p := 0.0
	for _, c := range hw.AllFUClasses() {
		if n := g.FUTotal[c]; n > 0 {
			p += g.Profile.Spec(c).LeakageMW * float64(n)
		}
	}
	return p
}

// StaticRegLeakageMW returns register leakage power.
func (g *CDFG) StaticRegLeakageMW() float64 {
	return g.Profile.Reg.LeakageMW * float64(g.RegBits)
}

// FUCount returns the instantiated unit count for one class.
func (g *CDFG) FUCount(c hw.FUClass) int { return g.FUTotal[c] }

// Summary renders a one-line-per-class inventory for reports.
func (g *CDFG) Summary() string {
	s := fmt.Sprintf("function %s: %d blocks, %d instrs, %d regs (%d bits)\n",
		g.F.Name(), len(g.F.Blocks), g.F.NumInstrs(), g.RegCount, g.RegBits)
	for _, c := range hw.AllFUClasses() {
		if n := g.FUTotal[c]; n > 0 {
			lim := ""
			if g.FULimit[c] > 0 {
				lim = fmt.Sprintf(" (limit %d)", g.FULimit[c])
			}
			s += fmt.Sprintf("  %-16s %d%s\n", c, n, lim)
		}
	}
	return s
}
