package ir

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEvalBinInt(t *testing.T) {
	cases := []struct {
		op   Opcode
		t    Type
		a, b uint64
		want uint64
	}{
		{OpAdd, I64, 3, 4, 7},
		{OpAdd, I8, 0xff, 1, 0},
		{OpSub, I64, 3, 5, ^uint64(1)}, // -2
		{OpMul, I32, 7, 6, 42},
		{OpSDiv, I32, uint64(uint32(math.MaxUint32 - 6)), 2, uint64(uint32(0xfffffffd))}, // -7/2 = -3
		{OpSDiv, I32, 9, 0, 0}, // div-by-zero saturates to 0
		{OpUDiv, I32, 9, 2, 4},
		{OpSRem, I32, 9, 4, 1},
		{OpURem, I32, 9, 4, 1},
		{OpAnd, I8, 0xf0, 0x3c, 0x30},
		{OpOr, I8, 0xf0, 0x0c, 0xfc},
		{OpXor, I8, 0xff, 0x0f, 0xf0},
		{OpShl, I8, 1, 3, 8},
		{OpShl, I8, 0x80, 1, 0},
		{OpLShr, I8, 0x80, 1, 0x40},
		{OpAShr, I8, 0x80, 1, 0xc0},
	}
	for _, c := range cases {
		if got := EvalBin(c.op, c.t, c.a, c.b); got != c.want {
			t.Errorf("%s %s(%#x, %#x) = %#x, want %#x", c.op, c.t, c.a, c.b, got, c.want)
		}
	}
}

func TestEvalBinFloat(t *testing.T) {
	a, b := FloatToBits(F64, 1.5), FloatToBits(F64, 2.0)
	if got := FloatFromBits(F64, EvalBin(OpFAdd, F64, a, b)); got != 3.5 {
		t.Errorf("fadd = %g", got)
	}
	if got := FloatFromBits(F64, EvalBin(OpFSub, F64, a, b)); got != -0.5 {
		t.Errorf("fsub = %g", got)
	}
	if got := FloatFromBits(F64, EvalBin(OpFMul, F64, a, b)); got != 3.0 {
		t.Errorf("fmul = %g", got)
	}
	if got := FloatFromBits(F64, EvalBin(OpFDiv, F64, a, b)); got != 0.75 {
		t.Errorf("fdiv = %g", got)
	}
	// f32 path.
	a32, b32 := FloatToBits(F32, 1.5), FloatToBits(F32, 0.5)
	if got := FloatFromBits(F32, EvalBin(OpFAdd, F32, a32, b32)); got != 2.0 {
		t.Errorf("f32 fadd = %g", got)
	}
}

func TestEvalICmp(t *testing.T) {
	neg := uint64(uint32(0xffffffff)) // -1 as i32
	cases := []struct {
		p    Pred
		a, b uint64
		want uint64
	}{
		{IEQ, 5, 5, 1}, {IEQ, 5, 6, 0},
		{INE, 5, 6, 1},
		{ISLT, neg, 0, 1}, // -1 < 0 signed
		{IULT, neg, 0, 0}, // 0xffffffff < 0 unsigned is false
		{ISGT, 0, neg, 1},
		{IUGT, 0, neg, 0},
		{ISLE, 3, 3, 1}, {ISGE, 3, 3, 1},
		{IULE, 3, 4, 1}, {IUGE, 5, 4, 1},
	}
	for _, c := range cases {
		if got := EvalICmp(c.p, I32, c.a, c.b); got != c.want {
			t.Errorf("icmp %s(%#x, %#x) = %d, want %d", c.p, c.a, c.b, got, c.want)
		}
	}
}

func TestEvalFCmp(t *testing.T) {
	f := func(v float64) uint64 { return FloatToBits(F64, v) }
	if EvalFCmp(FOLT, F64, f(1), f(2)) != 1 {
		t.Fatal("1 < 2 failed")
	}
	if EvalFCmp(FOGE, F64, f(2), f(2)) != 1 {
		t.Fatal("2 >= 2 failed")
	}
	nan := FloatToBits(F64, math.NaN())
	for _, p := range []Pred{FOEQ, FONE, FOLT, FOLE, FOGT, FOGE} {
		if EvalFCmp(p, F64, nan, f(1)) != 0 {
			t.Fatalf("ordered %s with NaN returned true", p)
		}
	}
}

func TestEvalCast(t *testing.T) {
	if EvalCast(OpZExt, I8, I32, 0xff) != 0xff {
		t.Fatal("zext")
	}
	if EvalCast(OpSExt, I8, I32, 0xff) != 0xffffffff {
		t.Fatal("sext")
	}
	if EvalCast(OpTrunc, I32, I8, 0x1234) != 0x34 {
		t.Fatal("trunc")
	}
	if got := FloatFromBits(F64, EvalCast(OpSIToFP, I32, F64, uint64(uint32(0xfffffffb)))); got != -5.0 {
		t.Fatalf("sitofp = %g", got)
	}
	if got := EvalCast(OpFPToSI, F64, I32, FloatToBits(F64, -7.9)); SignExt(I32, got) != -7 {
		t.Fatalf("fptosi = %d", SignExt(I32, got))
	}
	if got := FloatFromBits(F32, EvalCast(OpFPTrunc, F64, F32, FloatToBits(F64, 1.5))); got != 1.5 {
		t.Fatalf("fptrunc = %g", got)
	}
	if got := FloatFromBits(F64, EvalCast(OpFPExt, F32, F64, FloatToBits(F32, 2.25))); got != 2.25 {
		t.Fatalf("fpext = %g", got)
	}
	if EvalCast(OpBitcast, I64, F64, 42) != 42 {
		t.Fatal("bitcast should be identity on bits")
	}
}

func TestEvalCallIntrinsics(t *testing.T) {
	f := func(v float64) uint64 { return FloatToBits(F64, v) }
	if got := FloatFromBits(F64, EvalCall("sqrt", F64, []uint64{f(9)})); got != 3 {
		t.Fatalf("sqrt = %g", got)
	}
	if got := FloatFromBits(F64, EvalCall("fabs", F64, []uint64{f(-2)})); got != 2 {
		t.Fatalf("fabs = %g", got)
	}
	if got := FloatFromBits(F64, EvalCall("fmin", F64, []uint64{f(2), f(3)})); got != 2 {
		t.Fatalf("fmin = %g", got)
	}
	if got := FloatFromBits(F64, EvalCall("fmax", F64, []uint64{f(2), f(3)})); got != 3 {
		t.Fatalf("fmax = %g", got)
	}
	if got := SignExt(I32, EvalCall("abs", I32, []uint64{uint64(uint32(0xfffffffe))})); got != 2 {
		t.Fatalf("abs = %d", got)
	}
	if got := SignExt(I32, EvalCall("smin", I32, []uint64{5, uint64(uint32(0xffffffff))})); got != -1 {
		t.Fatalf("smin = %d", got)
	}
	if got := SignExt(I32, EvalCall("smax", I32, []uint64{5, 3})); got != 5 {
		t.Fatalf("smax = %d", got)
	}
}

// Property: signed comparison semantics match Go int64 comparison after
// sign extension, for random widths and values.
func TestICmpMatchesGoProperty(t *testing.T) {
	prop := func(a, b uint64, w8 uint8) bool {
		widths := []Type{I8, I16, I32, I64}
		typ := widths[int(w8)%len(widths)]
		sa, sb := SignExt(typ, a), SignExt(typ, b)
		want := uint64(0)
		if sa < sb {
			want = 1
		}
		return EvalICmp(ISLT, typ, a, b) == want
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: add/sub round-trip (a+b)-b == a (mod 2^w).
func TestAddSubInverseProperty(t *testing.T) {
	prop := func(a, b uint64) bool {
		sum := EvalBin(OpAdd, I32, a, b)
		back := EvalBin(OpSub, I32, sum, b)
		return back == MaskInt(I32, a)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEvalGEP(t *testing.T) {
	m := NewModule("t")
	b := NewBuilder(m)
	arr := P("a", Ptr(Arr(10, F64)))
	f := b.Func("g", Void, arr, P("i", I64), P("j", I64))
	gep := b.GEP(arr, "p", f.Params[1], f.Params[2])
	b.Ret(nil)
	// a[i][j] = base + i*80 + j*8
	strides := gep.GEPStrides()
	addr := EvalGEP(gep, strides, 1000, []uint64{2, 3})
	if addr != 1000+2*80+3*8 {
		t.Fatalf("gep addr = %d", addr)
	}
	// Negative index.
	addr = EvalGEP(gep, strides, 1000, []uint64{^uint64(0), 0}) // i = -1
	if addr != 1000-80 {
		t.Fatalf("gep negative addr = %d", addr)
	}
}
