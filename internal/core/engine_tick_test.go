package core

import (
	"slices"
	"testing"

	"gosalam/internal/mem"
	"gosalam/ir"
)

// The tick visits the ready and arrived sets instead of scanning the
// reservation queue. These tests drive the orderings the sets must keep and
// pin each run's cycle count to what the scan-based engine produced, with
// the interpreter as the functional oracle.

// tickCase runs vecadd over n doubles and checks output, cycle count and
// how deep the reservation queue got.
func tickCase(t *testing.T, r *rig, setup func(*ir.FlatMem, int) []uint64, n int, wantCycles uint64, minResident uint16) {
	t.Helper()
	prof := r.acc.EnableProfile(0)
	args := setup(r.space, n)
	done := false
	r.acc.OnDone = func() { done = true }
	r.acc.Start(args)
	// A lost set member parks an op for ever while the engine keeps
	// ticking; bound the run so that fails instead of hanging.
	r.q.RunWhile(func() bool { return !done && r.acc.Cycles < 4*wantCycles })
	if !done {
		t.Fatalf("kernel still running after %d cycles, want %d", r.acc.Cycles, wantCycles)
	}
	cycles := r.acc.LastKernelCycles()
	r.q.Run()
	for i := 0; i < n; i++ {
		if got, want := r.space.ReadF64(args[2]+uint64(i*8)), float64(3*i); got != want {
			t.Fatalf("c[%d] = %g, want %g", i, got, want)
		}
	}
	var peak uint16
	for _, s := range prof.Samples {
		if s.Resident > peak {
			peak = s.Resident
		}
	}
	if peak < minResident {
		t.Fatalf("reservation queue peaked at %d entries, the case needs %d", peak, minResident)
	}
	if cycles != wantCycles {
		t.Fatalf("cycles = %d, want %d (the scan-based engine's count)", cycles, wantCycles)
	}
}

// A walk of a set sees members added above its position and leaves members
// added below it to the next walk: the issue phase's same-pass pick-up and
// its rescan. Queue order puts every consumer above its producer, so inside
// the engine a wake always lands above the op that caused it; the walk must
// still not revisit what lies below.
func TestQsetWalkOrder(t *testing.T) {
	s := make(qset, 3)
	for _, i := range []int32{5, 63, 64, 130} {
		s.set(i)
	}
	var seen []int
	for qi := s.next(0); qi >= 0; qi = s.next(qi + 1) {
		seen = append(seen, qi)
		if qi == 63 {
			s.set(2)   // below the position: next walk
			s.set(127) // above, across a word boundary: this walk
			s.clear(64)
		}
	}
	if want := []int{5, 63, 127, 130}; !slices.Equal(seen, want) {
		t.Fatalf("walk visited %v, want %v", seen, want)
	}
	if got := s.next(0); got != 2 {
		t.Fatalf("rescan starts at %d, want 2", got)
	}
	if got := s.next(192); got != -1 {
		t.Fatalf("next past the end = %d, want -1", got)
	}
}

// A deep window over a slow scratchpad grows the queue past the sets' 64-
// and 128-entry word boundaries.
func TestQueueGrowsAcrossSetWords(t *testing.T) {
	f, setup := buildVecAdd(t)
	cfg := DefaultConfig()
	cfg.ResQueueSize = 400
	cfg.ReadPorts, cfg.WritePorts, cfg.MaxOutstanding = 8, 8, 256
	r := newRig(t, f, cfg, nil)
	r.spm.Retune(120, 4)
	tickCase(t, r, setup, 160, 568, 129)
}

// syncPort completes every request inside Send: the completion callback
// runs in the middle of the issue phase, before the op is marked in flight.
type syncPort struct{ space *ir.FlatMem }

func (p syncPort) Send(r *mem.Request) {
	if r.Write {
		p.space.WriteRaw(r.Addr, r.Data)
	} else {
		p.space.ReadRaw(r.Addr, r.Data)
	}
	r.Done(r)
}

// An op that completes synchronously inside cycle() enters the arrived set
// at its queue index; the compaction that ends the same cycle moves the op,
// and the set must follow it.
func TestSyncCompletionThenCompaction(t *testing.T) {
	f, setup := buildVecAdd(t)
	r := newRig(t, f, DefaultConfig(), nil)
	r.comm.AttachLocal(nil)
	r.comm.AttachGlobal(syncPort{r.space})
	tickCase(t, r, setup, 48, 102, 1)
}

// A window smaller than one basic block must still admit the block once
// only its terminator is resident.
func TestOverWindowFetchNeverWedges(t *testing.T) {
	f, setup := buildVecAdd(t)
	cfg := DefaultConfig()
	cfg.ResQueueSize = 2
	r := newRig(t, f, cfg, nil)
	tickCase(t, r, setup, 24, 266, 3)
}
