package core

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"gosalam/internal/hw"
)

// memOrderOK memoizes its scan. These tests hold it, edge by edge, to the
// full O(pending) scan it replaced, which lives on here only as the oracle.

// referenceScan is the full disambiguation scan: every older, unfinished
// access is examined again on every call.
func referenceScan(a *Accelerator, d *dynOp) bool {
	for _, o := range a.pendingMem {
		if o.seq >= d.seq {
			break
		}
		if o.state == stDone {
			continue
		}
		if a.Cfg.ConservativeMemOrder {
			return false
		}
		dAddr, dSize := d.effAddr()
		dWin := a.Comm.WindowIndex(dAddr)
		if d.isLoad() && o.isLoad() {
			if dWin < 0 {
				continue
			}
			if !o.addrKnown() {
				return false
			}
			oAddr, _ := o.effAddr()
			if a.Comm.WindowIndex(oAddr) == dWin && o.state == stWaiting {
				return false
			}
			continue
		}
		if !o.addrKnown() {
			return false
		}
		oAddr, oSize := o.effAddr()
		if dWin >= 0 && a.Comm.WindowIndex(oAddr) == dWin && o.state == stWaiting {
			return false
		}
		if oAddr < dAddr+uint64(dSize) && dAddr < oAddr+uint64(oSize) {
			return false
		}
	}
	return true
}

// OrderOracle checks memOrderOK against referenceScan for every ready
// memory op of a, twice each so the second call answers from the memo the
// first one left. It reports how many ops it checked and how many of them
// were blocked. Exported for the SoC-level oracle in package core_test.
func OrderOracle(a *Accelerator) (checked, blocked int, err error) {
	for qi := a.ready.next(0); qi >= 0; qi = a.ready.next(qi + 1) {
		d := a.resQ[qi]
		if !d.st.Mem {
			continue
		}
		want := referenceScan(a, d)
		for range 2 {
			if got := a.memOrderOK(d); got != want {
				return checked, blocked, fmt.Errorf("%s cycle %d: memOrderOK(seq %d) = %v, the full scan says %v",
					a.Name(), a.Cycles, d.seq, got, want)
			}
		}
		checked++
		if !want {
			blocked++
		}
	}
	return checked, blocked, nil
}

// HoldsBlocker reports whether a waiting op of a has a memoized blocker
// that has not been recycled.
func HoldsBlocker(a *Accelerator) bool {
	for _, d := range a.resQ {
		if d.state == stWaiting && d.ordBlk != nil && d.ordBlk.seq == d.ordSeq {
			return true
		}
	}
	return false
}

// The memo fields must not push dynOp out of the 192-byte size class: a
// larger object costs the SPM engine a measurable slowdown.
func TestDynOpSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(dynOp{}); n > 192 {
		t.Fatalf("dynOp is %d bytes, want at most 192", n)
	}
}

// Random kernels in both ordering modes, stepped event by event: after
// every event each ready memory op gets the full scan's verdict, and the
// inspected run ends on the same cycle, tick and event count as an
// uninspected one, so the oracle's own calls perturb nothing.
func TestMemOrderOracleRandomKernels(t *testing.T) {
	checked, blocked := 0, 0
	for seed := int64(1); seed <= 24; seed++ {
		for _, conservative := range []bool{false, true} {
			run := func(inspect bool) [3]uint64 {
				rng := rand.New(rand.NewSource(seed))
				f, n := genRandomKernel(rng)
				cfg := DefaultConfig()
				cfg.ReadPorts = 1 + rng.Intn(4)
				cfg.WritePorts = 1 + rng.Intn(4)
				cfg.ResQueueSize = 24 + rng.Intn(200)
				cfg.PipelineLoops = rng.Intn(2) == 0
				cfg.ConservativeMemOrder = conservative
				r := newRig(t, f, cfg, map[hw.FUClass]int{hw.FUFPAdder: 1 + rng.Intn(3)})
				args := setupWith(r.space, n, seed)
				done := false
				r.acc.OnDone = func() { done = true }
				r.acc.Start(args)
				r.q.RunWhile(func() bool {
					if inspect {
						c, b, err := OrderOracle(r.acc)
						if err != nil {
							t.Fatalf("seed %d conservative=%v: %v", seed, conservative, err)
						}
						checked, blocked = checked+c, blocked+b
					}
					return !done
				})
				if !done {
					t.Fatalf("seed %d: kernel never finished", seed)
				}
				r.q.Run()
				return [3]uint64{r.acc.LastKernelCycles(), uint64(r.q.Now()), r.q.Fired()}
			}
			if plain, inspected := run(false), run(true); plain != inspected {
				t.Fatalf("seed %d conservative=%v: inspected run %v, plain run %v", seed, conservative, inspected, plain)
			}
		}
	}
	t.Logf("%d ready memory ops checked, %d blocked", checked, blocked)
	if blocked == 0 || blocked == checked {
		t.Fatalf("oracle saw %d blocked of %d checks; the kernels must exercise both verdicts", blocked, checked)
	}
}

// A blocker that commits, is recycled, and is fetched again as a younger
// op before the blocked op looks again must not be taken for the blocker
// it was: its seq no longer matches the memo.
func TestMemOrderRecycledBlocker(t *testing.T) {
	f, _ := buildVecAdd(t)
	r := newRig(t, f, DefaultConfig(), nil)
	a := r.acc
	var ld, st *StaticOp
	for id := range a.CDFG.NumOps {
		switch op := a.CDFG.OpByID(id); {
		case op.Load && ld == nil:
			ld = op
		case op.Store && st == nil:
			st = op
		}
	}
	const addr = 0x100
	mk := func(s *StaticOp, seq uint64) *dynOp {
		d := a.newDynOp()
		d.st, d.seq, d.state = s, seq, stWaiting
		d.win, d.ordBlk, d.ordSeq = winUnknown, nil, 0
		d.operands, d.pending = make([]uint64, len(s.Srcs)), make([]bool, len(s.Srcs))
		if s.Load {
			d.operands[0] = addr
		} else {
			d.operands[1] = addr
		}
		return d
	}
	older, store, load := mk(ld, 0), mk(st, 1), mk(ld, 2)
	a.pendingMem = append(a.pendingMem[:0], older, store, load)
	if a.memOrderOK(load) || load.ordBlk != store {
		t.Fatal("a load behind a waiting store to its address issued, or memoized the wrong blocker")
	}

	// The store commits and compaction recycles it; the next fetch takes
	// the same object from the pool for a younger store to the same
	// address, which does not order the load.
	store.state = stDone
	a.pendingMem = append(a.pendingMem[:0], older, load)
	a.recycle(store)
	again := mk(st, 3)
	if again != store {
		t.Fatal("the pool did not hand back the recycled store")
	}
	a.pendingMem = append(a.pendingMem, again)
	if got, want := a.memOrderOK(load), referenceScan(a, load); got != want || !got {
		t.Fatalf("after the blocker was recycled: memOrderOK = %v, full scan = %v, want true", got, want)
	}
}
