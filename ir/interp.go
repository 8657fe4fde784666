package ir

import (
	"encoding/binary"
	"fmt"
	"math"
)

// FlatMem is a flat little-endian byte memory used for functional execution
// (goldens, trace generation, HLS profiling). Addresses are absolute; the
// memory covers [Base, Base+len).
type FlatMem struct {
	Base uint64
	Data []byte
	// next is the allocation cursor for Alloc.
	next uint64
}

// NewFlatMem allocates a memory of the given size starting at base.
func NewFlatMem(base uint64, size int) *FlatMem {
	return &FlatMem{Base: base, Data: make([]byte, size), next: base}
}

// Contains reports whether [addr, addr+size) lies inside the memory.
func (m *FlatMem) Contains(addr uint64, size int) bool {
	return addr >= m.Base && addr+uint64(size) <= m.Base+uint64(len(m.Data))
}

func (m *FlatMem) check(addr uint64, size int) {
	if !m.Contains(addr, size) {
		panic(fmt.Sprintf("ir: access [%#x,+%d) outside memory [%#x,+%d)",
			addr, size, m.Base, len(m.Data)))
	}
}

// SetAllocBase moves the allocation cursor (e.g. to place kernel buffers
// inside a particular device's address range).
func (m *FlatMem) SetAllocBase(addr uint64) {
	m.check(addr, 0)
	m.next = addr
}

// AllocCursor returns the current allocation cursor.
func (m *FlatMem) AllocCursor() uint64 { return m.next }

// Reset zeroes the backing store and rewinds the allocation cursor to the
// base, returning the space to its just-constructed state so a
// warm-started simulation can lay out kernel buffers from scratch.
func (m *FlatMem) Reset() {
	for i := range m.Data {
		m.Data[i] = 0
	}
	m.next = m.Base
}

// Alloc reserves size bytes aligned to align and returns the address.
func (m *FlatMem) Alloc(size int, align int) uint64 {
	if align <= 0 {
		align = 8
	}
	a := (m.next + uint64(align) - 1) &^ (uint64(align) - 1)
	m.check(a, size)
	m.next = a + uint64(size)
	return a
}

// AllocFor reserves room for n values of type t (8-byte aligned).
func (m *FlatMem) AllocFor(t Type, n int) uint64 {
	return m.Alloc(t.SizeBytes()*n, 8)
}

// ReadBits loads a value of type t at addr as runtime bits.
func (m *FlatMem) ReadBits(t Type, addr uint64) uint64 {
	size := t.SizeBytes()
	m.check(addr, size)
	off := addr - m.Base
	switch size {
	case 1:
		return uint64(m.Data[off])
	case 2:
		return uint64(binary.LittleEndian.Uint16(m.Data[off:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(m.Data[off:]))
	case 8:
		return binary.LittleEndian.Uint64(m.Data[off:])
	}
	panic(fmt.Sprintf("ir: load of %d-byte type", size))
}

// WriteBits stores runtime bits of type t at addr.
func (m *FlatMem) WriteBits(t Type, addr uint64, bits uint64) {
	size := t.SizeBytes()
	m.check(addr, size)
	off := addr - m.Base
	switch size {
	case 1:
		m.Data[off] = byte(bits)
	case 2:
		binary.LittleEndian.PutUint16(m.Data[off:], uint16(bits))
	case 4:
		binary.LittleEndian.PutUint32(m.Data[off:], uint32(bits))
	case 8:
		binary.LittleEndian.PutUint64(m.Data[off:], bits)
	default:
		panic(fmt.Sprintf("ir: store of %d-byte type", size))
	}
}

// ReadRaw copies len(p) bytes starting at addr into p.
func (m *FlatMem) ReadRaw(addr uint64, p []byte) {
	m.check(addr, len(p))
	copy(p, m.Data[addr-m.Base:])
}

// WriteRaw copies p into memory starting at addr.
func (m *FlatMem) WriteRaw(addr uint64, p []byte) {
	m.check(addr, len(p))
	copy(m.Data[addr-m.Base:], p)
}

// Typed helpers for test/workload setup.

func (m *FlatMem) WriteF64(addr uint64, v float64) { m.WriteBits(F64, addr, math.Float64bits(v)) }
func (m *FlatMem) ReadF64(addr uint64) float64     { return math.Float64frombits(m.ReadBits(F64, addr)) }
func (m *FlatMem) WriteF32(addr uint64, v float32) {
	m.WriteBits(F32, addr, uint64(math.Float32bits(v)))
}
func (m *FlatMem) ReadF32(addr uint64) float32 {
	return math.Float32frombits(uint32(m.ReadBits(F32, addr)))
}
func (m *FlatMem) WriteI64(addr uint64, v int64) { m.WriteBits(I64, addr, uint64(v)) }
func (m *FlatMem) ReadI64(addr uint64) int64     { return int64(m.ReadBits(I64, addr)) }
func (m *FlatMem) WriteI32(addr uint64, v int32) { m.WriteBits(I32, addr, uint64(uint32(v))) }
func (m *FlatMem) ReadI32(addr uint64) int32     { return int32(uint32(m.ReadBits(I32, addr))) }

// TraceEvent is one executed dynamic instruction, delivered to trace hooks.
type TraceEvent struct {
	Seq   uint64
	I     *Instr
	Val   uint64 // result bits (if any)
	Addr  uint64 // effective address for load/store
	Bytes int    // access size for load/store
}

// ExecOpts controls interpretation.
type ExecOpts struct {
	// Trace, when non-nil, receives every executed instruction in order.
	Trace func(TraceEvent)
	// MaxSteps bounds execution (0 = default 500M).
	MaxSteps uint64
}

// ExecStats summarizes a functional run.
type ExecStats struct {
	Steps       uint64
	BlockVisits map[*Block]uint64
	MemReads    uint64
	MemWrites   uint64
}

// Exec functionally executes f with the given argument bits against mem.
// It returns the return-value bits (0 for void).
func Exec(f *Function, args []uint64, mem *FlatMem, opts *ExecOpts) (uint64, ExecStats, error) {
	if opts == nil {
		opts = &ExecOpts{}
	}
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = 500_000_000
	}
	if len(args) != len(f.Params) {
		return 0, ExecStats{}, fmt.Errorf("ir: %s takes %d args, got %d", f.FName, len(f.Params), len(args))
	}

	env := make(map[Value]uint64, 64)
	for i, p := range f.Params {
		env[p] = args[i]
	}
	stats := ExecStats{BlockVisits: make(map[*Block]uint64)}
	gepStrides := map[*Instr][]int64{}
	eval := func(v Value) uint64 {
		if bits, ok := ConstBits(v); ok {
			return bits
		}
		if g, ok := v.(*Global); ok {
			return g.Addr
		}
		bits, ok := env[v]
		if !ok {
			panic(fmt.Sprintf("ir: use of undefined value %s", v.Ident()))
		}
		return bits
	}

	cur := f.Entry()
	var prev *Block
	var seq uint64
	for {
		stats.BlockVisits[cur]++
		// Phis evaluate atomically against the incoming edge.
		phiVals := map[*Instr]uint64{}
		for _, in := range cur.Instrs {
			if in.Op != OpPhi {
				break
			}
			found := false
			for k, blk := range in.Blocks {
				if blk == prev {
					phiVals[in] = eval(in.Args[k])
					found = true
					break
				}
			}
			if !found {
				return 0, stats, fmt.Errorf("ir: phi %%%s has no incoming from %s", in.Name, prev.BName)
			}
		}
		for in, v := range phiVals {
			env[in] = v
			seq++
			stats.Steps++
			if opts.Trace != nil {
				opts.Trace(TraceEvent{Seq: seq, I: in, Val: v})
			}
		}

		advanced := false
		for _, in := range cur.Instrs {
			if in.Op == OpPhi {
				continue
			}
			if stats.Steps >= maxSteps {
				return 0, stats, fmt.Errorf("ir: exceeded %d steps in %s", maxSteps, f.FName)
			}
			stats.Steps++
			seq++
			ev := TraceEvent{Seq: seq, I: in}
			switch {
			case in.Op.IsBinOp():
				env[in] = EvalBin(in.Op, in.T, eval(in.Args[0]), eval(in.Args[1]))
				ev.Val = env[in]
			case in.Op == OpICmp:
				env[in] = EvalICmp(in.Pred, in.Args[0].Type(), eval(in.Args[0]), eval(in.Args[1]))
				ev.Val = env[in]
			case in.Op == OpFCmp:
				env[in] = EvalFCmp(in.Pred, in.Args[0].Type(), eval(in.Args[0]), eval(in.Args[1]))
				ev.Val = env[in]
			case in.Op.IsCast():
				env[in] = EvalCast(in.Op, in.Args[0].Type(), in.T, eval(in.Args[0]))
				ev.Val = env[in]
			case in.Op == OpGEP:
				idx := make([]uint64, len(in.Args)-1)
				for k := 1; k < len(in.Args); k++ {
					idx[k-1] = eval(in.Args[k])
				}
				strides, ok := gepStrides[in]
				if !ok {
					strides = in.GEPStrides()
					gepStrides[in] = strides
				}
				env[in] = EvalGEP(in, strides, eval(in.Args[0]), idx)
				ev.Val = env[in]
			case in.Op == OpLoad:
				addr := eval(in.Args[0])
				env[in] = mem.ReadBits(in.T, addr)
				stats.MemReads++
				ev.Val, ev.Addr, ev.Bytes = env[in], addr, in.T.SizeBytes()
			case in.Op == OpStore:
				addr := eval(in.Args[1])
				val := eval(in.Args[0])
				mem.WriteBits(in.Args[0].Type(), addr, val)
				stats.MemWrites++
				ev.Val, ev.Addr, ev.Bytes = val, addr, in.Args[0].Type().SizeBytes()
			case in.Op == OpSelect:
				if eval(in.Args[0]) != 0 {
					env[in] = eval(in.Args[1])
				} else {
					env[in] = eval(in.Args[2])
				}
				ev.Val = env[in]
			case in.Op == OpCall:
				cargs := make([]uint64, len(in.Args))
				for k, a := range in.Args {
					cargs[k] = eval(a)
				}
				env[in] = EvalCall(in.Callee, in.T, cargs)
				ev.Val = env[in]
			case in.Op == OpBr:
				var next *Block
				if len(in.Args) == 0 {
					next = in.Blocks[0]
				} else if eval(in.Args[0]) != 0 {
					next = in.Blocks[0]
					ev.Val = 1
				} else {
					next = in.Blocks[1]
				}
				if opts.Trace != nil {
					opts.Trace(ev)
				}
				prev, cur = cur, next
				advanced = true
			case in.Op == OpRet:
				var ret uint64
				if len(in.Args) == 1 {
					ret = eval(in.Args[0])
					ev.Val = ret
				}
				if opts.Trace != nil {
					opts.Trace(ev)
				}
				return ret, stats, nil
			default:
				return 0, stats, fmt.Errorf("ir: interp cannot execute %s", in.Op)
			}
			if advanced {
				break
			}
			if opts.Trace != nil {
				opts.Trace(ev)
			}
		}
		if !advanced {
			return 0, stats, fmt.Errorf("ir: block %s fell through without terminator", cur.BName)
		}
	}
}
