package mem

// Regression tests for the bugfix sweep: scratchpad multi-bank port
// accounting, the BlockDMA MMR busy-start contract, and the stream
// buffer's head-index FIFO.

import (
	"encoding/binary"
	"testing"

	"gosalam/internal/sim"
)

// TestScratchpadMultiBankBurst pins the banking fix: a burst wider than
// the interleaving word occupies every bank it touches, not just the one
// its start address hashes to. Under 8-byte cyclic interleaving with one
// port per bank, a 64-byte burst fills all eight banks' port slots, so a
// word access to a *different* bank the same cycle must wait — before the
// fix the two proceeded in parallel and partitioning sweeps under-counted
// exactly these conflicts.
func TestScratchpadMultiBankBurst(t *testing.T) {
	env := newEnv(1 << 16)
	spm := NewScratchpad("spm", env.q, env.clk, env.space,
		AddrRange{Base: 0, Size: 0x1000}, 1, 8, 1, env.stats)

	var burstDone, wordDone sim.Tick
	spm.Send(NewRead(0, 64, func(*Request) { burstDone = env.q.Now() })) // banks 0..7
	spm.Send(NewRead(8, 8, func(*Request) { wordDone = env.q.Now() }))   // bank 1
	env.q.Run()

	if burstDone == 0 || wordDone == 0 {
		t.Fatal("requests did not complete")
	}
	if wordDone <= burstDone {
		t.Fatalf("word access at tick %d not delayed behind burst at %d", wordDone, burstDone)
	}
	if got := wordDone - burstDone; got != env.clk.Period() {
		t.Fatalf("word access delayed %d ticks, want one cycle (%d)", got, env.clk.Period())
	}
	if spm.MultiBank.Value() != 1 {
		t.Fatalf("multi_bank_accesses = %g, want 1", spm.MultiBank.Value())
	}
	if spm.BankConflictCycles.Value() == 0 {
		t.Fatal("burst-induced conflict not counted")
	}
}

// TestScratchpadMultiBankWrap: a burst whose span wraps past the last
// bank charges banks modulo Banks and never overruns the port array.
func TestScratchpadMultiBankWrap(t *testing.T) {
	env := newEnv(1 << 16)
	spm := NewScratchpad("spm", env.q, env.clk, env.space,
		AddrRange{Base: 0, Size: 0x1000}, 1, 4, 1, env.stats)

	var wrapDone, wordDone sim.Tick
	// Banks 3, 0 (wraps). Arbitration runs in bank-index order, so the
	// bank-0 word access wins the cycle and the wrapped burst must stall
	// behind it — were the span computed without the wrap, both would
	// service in parallel.
	spm.Send(NewRead(24, 16, func(*Request) { wrapDone = env.q.Now() }))
	spm.Send(NewRead(32, 8, func(*Request) { wordDone = env.q.Now() }))
	env.q.Run()
	if wrapDone == 0 || wordDone == 0 {
		t.Fatal("requests did not complete")
	}
	if wrapDone-wordDone != env.clk.Period() {
		t.Fatalf("wrapped burst did not contend on bank 0 (delta %d)", wrapDone-wordDone)
	}
	// Wider than the bank count: span caps at Banks, still services.
	capDone := false
	spm.Send(NewRead(0x100, 64, func(*Request) { capDone = true })) // 8 words, 4 banks
	env.q.Run()
	if !capDone {
		t.Fatal("burst wider than the bank count never completed")
	}
}

// TestScratchpadSingleWordUnchanged: accesses no wider than the
// interleaving word behave exactly as before the fix — PortsPerBank of
// them service per bank per cycle.
func TestScratchpadSingleWordUnchanged(t *testing.T) {
	env := newEnv(1 << 16)
	spm := NewScratchpad("spm", env.q, env.clk, env.space,
		AddrRange{Base: 0, Size: 0x1000}, 1, 2, 2, env.stats)
	done := 0
	var last sim.Tick
	// Four word reads on bank 0: two ports drain them in two cycles.
	for i := 0; i < 4; i++ {
		spm.Send(NewRead(uint64(i*16), 8, func(*Request) { done++; last = env.q.Now() }))
	}
	env.q.Run()
	if done != 4 {
		t.Fatalf("completed %d of 4", done)
	}
	if spm.MultiBank.Value() != 0 {
		t.Fatalf("word accesses counted as multi-bank: %g", spm.MultiBank.Value())
	}
	_ = last
	if spm.BankConflictCycles.Value() != 1 {
		t.Fatalf("bank_conflict_cycles = %g, want 1 (4 reads / 2 ports)", spm.BankConflictCycles.Value())
	}
}

// TestBlockDMADroppedStart pins the MMR busy-start contract: a ctrl start
// written while a transfer is in flight is ignored, counted in
// dropped_starts, and the in-flight transfer completes untouched.
func TestBlockDMADroppedStart(t *testing.T) {
	env := newEnv(1 << 16)
	dram := NewDRAM("dram", env.q, env.clk, env.space, AddrRange{Base: 0, Size: 1 << 16}, env.stats)
	dma := NewBlockDMA("dma", env.q, env.clk, 0xF0000000, dram, env.stats)

	n := 256
	for i := 0; i < n; i++ {
		env.space.Data[0x100+i] = byte(i * 3)
	}
	wr := func(idx int, val uint64) {
		data := make([]byte, 8)
		binary.LittleEndian.PutUint64(data, val)
		dma.MMR.Send(NewWrite(dma.MMR.AddrOf(idx), data, nil))
	}
	wr(DMARegSrc, 0x100)
	wr(DMARegDst, 0x4000)
	wr(DMARegLen, uint64(n))
	wr(DMARegBurst, 64)
	wr(DMARegCtrl, 1)
	// Re-arm while busy: the engine has no doorbell queue, so this start
	// (with different registers) must vanish without corrupting the
	// in-flight transfer.
	env.q.Schedule(env.q.Now()+env.clk.Period(), sim.PriDefault, func() {
		if !dma.Busy() {
			t.Error("DMA not busy one cycle after start")
		}
		wr(DMARegDst, 0x8000)
		wr(DMARegCtrl, 1)
	})
	env.q.Run()

	if dma.DroppedStarts.Value() != 1 {
		t.Fatalf("dropped_starts = %g, want 1", dma.DroppedStarts.Value())
	}
	if dma.Transfers.Value() != 1 {
		t.Fatalf("transfers = %g, want 1 (dropped start must not queue)", dma.Transfers.Value())
	}
	for i := 0; i < n; i++ {
		if env.space.Data[0x4000+i] != byte(i*3) {
			t.Fatalf("dst[%d] corrupted by dropped start", i)
		}
	}
	// The engine is re-armable after completion: the same MMRs start a
	// second transfer normally.
	wr(DMARegDst, 0x8000)
	wr(DMARegCtrl, 1)
	env.q.Run()
	if dma.Transfers.Value() != 2 {
		t.Fatalf("transfers after re-arm = %g, want 2", dma.Transfers.Value())
	}
	if env.space.Data[0x8000] != 0 || env.space.Data[0x8000+1] != 3 {
		t.Fatal("re-armed transfer did not run")
	}
}

// TestStreamBufferHeadReuse pins the Pop re-slice fix: draining the FIFO
// through many push/pop rounds must keep the backing array bounded — the
// old `data = data[n:]` permanently discarded the popped prefix's
// capacity, so a long-lived stream grew its allocation forever.
func TestStreamBufferHeadReuse(t *testing.T) {
	stats := newEnv(64).stats
	sb := NewStreamBuffer("fifo", nil, 64, stats)

	// Steady-state streaming at half fill: after the initial fill, no
	// round should allocate.
	chunk := make([]byte, 16)
	for i := range chunk {
		chunk[i] = byte(i)
	}
	sb.Push(chunk)
	sb.Push(chunk)
	allocs := testing.AllocsPerRun(200, func() {
		if !sb.Push(chunk) {
			t.Fatal("push failed at half fill")
		}
		if _, ok := sb.Pop(16); !ok {
			t.Fatal("pop failed at half fill")
		}
	})
	// Pop returns a fresh slice (one alloc); the backing array itself must
	// not grow, so exactly that one allocation per round is allowed.
	if allocs > 1 {
		t.Fatalf("steady-state push/pop allocates %.1f objects/op, want <= 1 (backing array grows)", allocs)
	}

	// Byte-exactness across the compaction path: interleave uneven pushes
	// and pops and verify strict FIFO order.
	sb2 := NewStreamBuffer("fifo2", nil, 32, stats)
	var wrote, read []byte
	next := byte(0)
	push := func(n int) {
		p := make([]byte, n)
		for i := range p {
			p[i] = next
			next++
		}
		if !sb2.Push(p) {
			t.Fatalf("push %d failed with %d free", n, sb2.Space())
		}
		wrote = append(wrote, p...)
	}
	pop := func(n int) {
		p, ok := sb2.Pop(n)
		if !ok {
			t.Fatalf("pop %d failed with %d buffered", n, sb2.Len())
		}
		read = append(read, p...)
	}
	push(20)
	pop(13)  // head advances
	push(24) // forces compaction: 7 live + 24 > cap grown for 20
	pop(31)
	push(5)
	pop(5)
	if len(read) != len(wrote) {
		t.Fatalf("read %d bytes, wrote %d", len(read), len(wrote))
	}
	for i := range wrote {
		if read[i] != wrote[i] {
			t.Fatalf("byte %d = %d, want %d (FIFO order broken by compaction)", i, read[i], wrote[i])
		}
	}

	// Reset drops buffered bytes and forgets registered wakeups.
	sb2.Push([]byte{1, 2, 3})
	fired := false
	sb2.NotifyData(func() { fired = true })
	sb2.Reset()
	if sb2.Len() != 0 {
		t.Fatalf("Len after Reset = %d", sb2.Len())
	}
	sb2.Push([]byte{9})
	if fired {
		t.Fatal("stale wakeup survived Reset")
	}
	p, ok := sb2.Pop(1)
	if !ok || p[0] != 9 {
		t.Fatalf("post-Reset pop = %v, %v", p, ok)
	}
}
