package ir

import (
	"fmt"
	"math"
)

// This file holds the single source of truth for instruction semantics.
// Both the functional interpreter (used for goldens, trace generation, and
// HLS profiling) and the cycle-accurate runtime engine in internal/core
// evaluate values through these functions, which is what makes gosalam an
// "execute-in-execute" model: the same computation happens in both worlds.

// EvalBin evaluates a binary arithmetic/bitwise op on runtime bits.
func EvalBin(op Opcode, t Type, a, b uint64) uint64 {
	switch op {
	case OpAdd:
		return MaskInt(t, a+b)
	case OpSub:
		return MaskInt(t, a-b)
	case OpMul:
		return MaskInt(t, a*b)
	case OpSDiv:
		sb := SignExt(t, b)
		if sb == 0 {
			return 0 // accelerator datapaths saturate rather than trap
		}
		return MaskInt(t, uint64(SignExt(t, a)/sb))
	case OpUDiv:
		ub := MaskInt(t, b)
		if ub == 0 {
			return 0
		}
		return MaskInt(t, MaskInt(t, a)/ub)
	case OpSRem:
		sb := SignExt(t, b)
		if sb == 0 {
			return 0
		}
		return MaskInt(t, uint64(SignExt(t, a)%sb))
	case OpURem:
		ub := MaskInt(t, b)
		if ub == 0 {
			return 0
		}
		return MaskInt(t, MaskInt(t, a)%ub)
	case OpAnd:
		return MaskInt(t, a&b)
	case OpOr:
		return MaskInt(t, a|b)
	case OpXor:
		return MaskInt(t, a^b)
	case OpShl:
		return MaskInt(t, a<<(b&63))
	case OpLShr:
		return MaskInt(t, MaskInt(t, a)>>(b&63))
	case OpAShr:
		return MaskInt(t, uint64(SignExt(t, a)>>(b&63)))
	case OpFAdd:
		return FloatToBits(t, FloatFromBits(t, a)+FloatFromBits(t, b))
	case OpFSub:
		return FloatToBits(t, FloatFromBits(t, a)-FloatFromBits(t, b))
	case OpFMul:
		return FloatToBits(t, FloatFromBits(t, a)*FloatFromBits(t, b))
	case OpFDiv:
		return FloatToBits(t, FloatFromBits(t, a)/FloatFromBits(t, b))
	}
	panic(fmt.Sprintf("ir: EvalBin on %s", op))
}

// EvalICmp evaluates an integer comparison; t is the operand type.
func EvalICmp(pred Pred, t Type, a, b uint64) uint64 {
	sa, sb := SignExt(t, a), SignExt(t, b)
	ua, ub := MaskInt(t, a), MaskInt(t, b)
	var r bool
	switch pred {
	case IEQ:
		r = ua == ub
	case INE:
		r = ua != ub
	case ISLT:
		r = sa < sb
	case ISLE:
		r = sa <= sb
	case ISGT:
		r = sa > sb
	case ISGE:
		r = sa >= sb
	case IULT:
		r = ua < ub
	case IULE:
		r = ua <= ub
	case IUGT:
		r = ua > ub
	case IUGE:
		r = ua >= ub
	default:
		panic(fmt.Sprintf("ir: EvalICmp with %s", pred))
	}
	if r {
		return 1
	}
	return 0
}

// EvalFCmp evaluates an ordered float comparison; t is the operand type.
func EvalFCmp(pred Pred, t Type, a, b uint64) uint64 {
	fa, fb := FloatFromBits(t, a), FloatFromBits(t, b)
	if math.IsNaN(fa) || math.IsNaN(fb) {
		return 0 // ordered predicates are false on NaN
	}
	var r bool
	switch pred {
	case FOEQ:
		r = fa == fb
	case FONE:
		r = fa != fb
	case FOLT:
		r = fa < fb
	case FOLE:
		r = fa <= fb
	case FOGT:
		r = fa > fb
	case FOGE:
		r = fa >= fb
	default:
		panic(fmt.Sprintf("ir: EvalFCmp with %s", pred))
	}
	if r {
		return 1
	}
	return 0
}

// EvalCast converts v from type `from` to type `to` per the cast opcode.
func EvalCast(op Opcode, from, to Type, v uint64) uint64 {
	switch op {
	case OpZExt:
		return MaskInt(to, MaskInt(from, v))
	case OpSExt:
		return MaskInt(to, uint64(SignExt(from, v)))
	case OpTrunc:
		return MaskInt(to, v)
	case OpFPExt, OpFPTrunc:
		return FloatToBits(to, FloatFromBits(from, v))
	case OpFPToSI:
		f := FloatFromBits(from, v)
		return MaskInt(to, uint64(int64(f)))
	case OpSIToFP:
		return FloatToBits(to, float64(SignExt(from, v)))
	case OpBitcast:
		return v
	}
	panic(fmt.Sprintf("ir: EvalCast on %s", op))
}

// Intrinsics supported by call instructions. All are pure math functions:
// the paper's flow inlines user code, so calls only reach hardware math IP.
var Intrinsics = map[string]bool{
	"sqrt": true, "fabs": true, "exp": true, "log": true,
	"sin": true, "cos": true, "fmin": true, "fmax": true,
	"smin": true, "smax": true, "abs": true,
}

// EvalCall evaluates an intrinsic call. t is the result type; args are the
// operand bits (operand types equal t for the supported intrinsics).
func EvalCall(callee string, t Type, args []uint64) uint64 {
	if IsFloat(t) {
		f := func(i int) float64 { return FloatFromBits(t, args[i]) }
		switch callee {
		case "sqrt":
			return FloatToBits(t, math.Sqrt(f(0)))
		case "fabs":
			return FloatToBits(t, math.Abs(f(0)))
		case "exp":
			return FloatToBits(t, math.Exp(f(0)))
		case "log":
			return FloatToBits(t, math.Log(f(0)))
		case "sin":
			return FloatToBits(t, math.Sin(f(0)))
		case "cos":
			return FloatToBits(t, math.Cos(f(0)))
		case "fmin":
			return FloatToBits(t, math.Min(f(0), f(1)))
		case "fmax":
			return FloatToBits(t, math.Max(f(0), f(1)))
		}
	} else {
		s := func(i int) int64 { return SignExt(t, args[i]) }
		switch callee {
		case "abs":
			v := s(0)
			if v < 0 {
				v = -v
			}
			return MaskInt(t, uint64(v))
		case "smin":
			if s(0) < s(1) {
				return MaskInt(t, args[0])
			}
			return MaskInt(t, args[1])
		case "smax":
			if s(0) > s(1) {
				return MaskInt(t, args[0])
			}
			return MaskInt(t, args[1])
		}
	}
	panic(fmt.Sprintf("ir: unknown intrinsic %q on %s", callee, t))
}

// EvalGEP computes the byte address of a GEP given its strides
// (i.GEPStrides(), which callers compute once per instruction, not per
// evaluation), the base address and the index operand bits. Index operands
// are treated as signed.
func EvalGEP(i *Instr, strides []int64, base uint64, idxBits []uint64) uint64 {
	addr := int64(base)
	for k, s := range strides {
		idx := SignExt(i.Args[k+1].Type(), idxBits[k])
		addr += idx * s
	}
	return uint64(addr)
}
