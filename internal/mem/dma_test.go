package mem

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"gosalam/internal/sim"
)

func TestBlockDMATransferAPI(t *testing.T) {
	env := newEnv(1 << 20)
	dram := NewDRAM("dram", env.q, env.clk, env.space, AddrRange{Base: 0, Size: 1 << 20}, env.stats)
	dma := NewBlockDMA("dma", env.q, env.clk, 0xF0000000, dram, env.stats)

	n := 1024
	for i := 0; i < n/8; i++ {
		env.space.WriteI64(uint64(i*8), int64(i))
	}
	done := false
	dma.Transfer(0, 0x8000, uint64(n), 64, func() { done = true })
	env.q.Run()
	if !done {
		t.Fatal("transfer never completed")
	}
	for i := 0; i < n/8; i++ {
		if env.space.ReadI64(0x8000+uint64(i*8)) != int64(i) {
			t.Fatalf("dst[%d] = %d", i, env.space.ReadI64(0x8000+uint64(i*8)))
		}
	}
	if dma.BytesMoved.Value() != float64(n) {
		t.Fatalf("bytes moved = %g", dma.BytesMoved.Value())
	}
	if dma.Busy() {
		t.Fatal("still busy after completion")
	}
}

func TestBlockDMAViaMMRsWithIRQ(t *testing.T) {
	env := newEnv(1 << 20)
	dram := NewDRAM("dram", env.q, env.clk, env.space, AddrRange{Base: 0, Size: 1 << 20}, env.stats)
	dma := NewBlockDMA("dma", env.q, env.clk, 0xF0000000, dram, env.stats)
	irqs := 0
	dma.IRQ = func() { irqs++ }

	env.space.WriteI64(0x100, 77)
	wr := func(idx int, val uint64) {
		data := make([]byte, 8)
		binary.LittleEndian.PutUint64(data, val)
		dma.MMR.Send(NewWrite(dma.MMR.AddrOf(idx), data, nil))
	}
	wr(DMARegSrc, 0x100)
	wr(DMARegDst, 0x200)
	wr(DMARegLen, 8)
	wr(DMARegBurst, 64)
	wr(DMARegCtrl, 1|2) // start + IRQ enable
	env.q.Run()
	if env.space.ReadI64(0x200) != 77 {
		t.Fatalf("MMR-programmed transfer failed: %d", env.space.ReadI64(0x200))
	}
	if irqs != 1 {
		t.Fatalf("irqs = %d", irqs)
	}
	if dma.MMR.Reg(DMARegStatus)&2 == 0 {
		t.Fatal("done status bit not set")
	}
}

func TestBlockDMAZeroLength(t *testing.T) {
	env := newEnv(1 << 16)
	dram := NewDRAM("dram", env.q, env.clk, env.space, AddrRange{Base: 0, Size: 1 << 16}, env.stats)
	dma := NewBlockDMA("dma", env.q, env.clk, 0xF0000000, dram, env.stats)
	done := false
	dma.Transfer(0, 0x100, 0, 64, func() { done = true })
	env.q.Run()
	if !done {
		t.Fatal("zero-length transfer should complete immediately")
	}
}

// Property: DMA through DRAM moves arbitrary blocks intact for random
// sizes, bursts and offsets.
func TestBlockDMAIntegrityProperty(t *testing.T) {
	prop := func(sz16 uint16, burst8 uint8) bool {
		size := int(sz16%2000) + 1
		burst := int(burst8%100) + 4
		env := newEnv(1 << 16)
		dram := NewDRAM("dram", env.q, env.clk, env.space, AddrRange{Base: 0, Size: 1 << 16}, env.stats)
		dma := NewBlockDMA("dma", env.q, env.clk, 0xF0000000, dram, env.stats)
		src, dst := uint64(0x100), uint64(0x4000)
		for i := 0; i < size; i++ {
			env.space.Data[src+uint64(i)] = byte(i * 7)
		}
		ok := false
		dma.Transfer(src, dst, uint64(size), burst, func() { ok = true })
		env.q.Run()
		if !ok {
			return false
		}
		for i := 0; i < size; i++ {
			if env.space.Data[dst+uint64(i)] != byte(i*7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamBufferHandshake(t *testing.T) {
	stats := newEnv(64).stats
	sb := NewStreamBuffer("fifo", nil, 16, stats)
	if !sb.Push([]byte{1, 2, 3, 4}) {
		t.Fatal("push into empty buffer failed")
	}
	if sb.Len() != 4 || sb.Space() != 12 {
		t.Fatalf("len=%d space=%d", sb.Len(), sb.Space())
	}
	if sb.Push(make([]byte, 13)) {
		t.Fatal("overfull push succeeded")
	}
	got, ok := sb.Pop(4)
	if !ok || got[0] != 1 || got[3] != 4 {
		t.Fatalf("pop = %v, %v", got, ok)
	}
	if _, ok := sb.Pop(1); ok {
		t.Fatal("pop from empty buffer succeeded")
	}

	// FIFO ordering.
	sb.Push([]byte{9})
	sb.Push([]byte{8})
	a, _ := sb.Pop(1)
	b, _ := sb.Pop(1)
	if a[0] != 9 || b[0] != 8 {
		t.Fatal("not FIFO")
	}
}

func TestStreamBufferNotify(t *testing.T) {
	stats := newEnv(64).stats
	sb := NewStreamBuffer("fifo", nil, 4, stats)
	dataFired, spaceFired := 0, 0
	sb.NotifyData(func() { dataFired++ })
	sb.Push([]byte{1})
	if dataFired != 1 {
		t.Fatal("data notify did not fire")
	}
	sb.Push([]byte{2, 3, 4})
	sb.NotifySpace(func() { spaceFired++ })
	sb.Pop(2)
	if spaceFired != 1 {
		t.Fatal("space notify did not fire")
	}
	// One-shot: further pushes don't re-fire.
	sb.Push([]byte{5})
	if dataFired != 1 {
		t.Fatal("notify fired twice")
	}
}

func TestStreamDMAInOut(t *testing.T) {
	env := newEnv(1 << 16)
	dram := NewDRAM("dram", env.q, env.clk, env.space, AddrRange{Base: 0, Size: 1 << 16}, env.stats)
	sb := NewStreamBuffer("fifo", env.q, 256, env.stats)
	in := NewStreamDMA("sdma_in", env.q, env.clk, dram, sb, env.stats)
	out := NewStreamDMA("sdma_out", env.q, env.clk, dram, sb, env.stats)

	n := 1000
	for i := 0; i < n; i++ {
		env.space.Data[0x100+i] = byte(i)
	}
	inDone, outDone := false, false
	// Producer streams memory into the FIFO; the consumer starts late, so
	// with a 256B FIFO and 1000B payload backpressure must engage first.
	in.StreamIn(0x100, uint64(n), func() { inDone = true })
	env.q.Schedule(1000*env.clk.Period(), sim.PriDefault, func() {
		out.StreamOut(0x4000, uint64(n), func() { outDone = true })
	})
	env.q.Run()
	if !inDone || !outDone {
		t.Fatalf("inDone=%v outDone=%v", inDone, outDone)
	}
	for i := 0; i < n; i++ {
		if env.space.Data[0x4000+i] != byte(i) {
			t.Fatalf("streamed byte %d = %d", i, env.space.Data[0x4000+i])
		}
	}
	if sb.StallsFull.Value() == 0 {
		t.Fatal("expected backpressure stalls with small FIFO")
	}
	if sb.Len() != 0 {
		t.Fatalf("fifo should be empty, has %d", sb.Len())
	}
}

func TestDMABusyPanics(t *testing.T) {
	env := newEnv(1 << 16)
	dram := NewDRAM("dram", env.q, env.clk, env.space, AddrRange{Base: 0, Size: 1 << 16}, env.stats)
	dma := NewBlockDMA("dma", env.q, env.clk, 0xF0000000, dram, env.stats)
	dma.Transfer(0, 0x100, 64, 64, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("double start did not panic")
		}
	}()
	dma.Transfer(0, 0x200, 64, 64, nil)
}
