package main

import (
	"fmt"
	"math/rand"

	salam "gosalam"
	"gosalam/internal/soccfg"
	"gosalam/kernels"
)

// The soc_stream system: a block DMA feeds conv2d, whose output streams
// through ReLU into a streaming max-pool over two stream links — the shape
// of configs/cnn_stream.json at a 34x34 image.
const (
	imgH, imgW   = 34, 34
	convH, convW = imgH - 2, imgW - 2
	frames       = 2
	imgBytes     = imgH * imgW * 8
	poolBytes    = (convH / 2) * (convW / 2) * 8
)

// streamConfig generates the version-1 config document the SoC is built
// from.
func streamConfig() ([]byte, error) {
	dev := soccfg.DeviceCfg{ClockMHz: 100, ReadPorts: 8, WritePorts: 4, MaxOutstanding: 32, ResQueue: 256}
	accel := func(name, kernel string, size []int, spm uint64) soccfg.AccelCfg {
		return soccfg.AccelCfg{
			Name: name, KernelRef: soccfg.KernelRef{Kernel: kernel, Size: size},
			DeviceCfg: dev, SPMBytes: spm, SPMBanks: 8, SPMPorts: 8,
		}
	}
	c := soccfg.Config{Version: 1, SoC: &soccfg.SoCCfg{
		DRAMMB: 16,
		Accels: []soccfg.AccelCfg{
			accel("conv", "conv2d", []int{imgH, imgW}, 16384),
			accel("relu", "relu", []int{convH * convW}, 4096),
			accel("pool", "maxpool-stream", []int{convH, convW}, 8192),
		},
		DMAs: []soccfg.DMACfg{{Name: "dma", Kind: "block"}},
		Streams: []soccfg.StreamCfg{
			{Name: "s1", Producer: "conv", Consumer: "relu", BufferBytes: 512},
			{Name: "s2", Producer: "relu", Consumer: "pool", BufferBytes: 512},
		},
	}}
	return c.Emit()
}

// socInst is the SoC built once, its driver program, and the frames it
// processes.
type socInst struct {
	built   *salam.ConfiguredSoC
	prog    []salam.DriverOp
	imgs    [frames][]float64
	weights []float64
	want    [frames][]float64
	last    [3]uint64 // end tick, final tick, events fired
	ref     [3]uint64
}

// DRAM layout of the frames: inputs from 1 MiB, weights after them,
// outputs from 8 MiB.
func imgAddr(f int) uint64 { return 1<<20 + uint64(f)*imgBytes }
func outAddr(f int) uint64 { return 8<<20 + uint64(f)*poolBytes }

const weightAddr = 1<<20 + frames*imgBytes

func setupSoC(seed int64) (instance, error) {
	doc, err := streamConfig()
	if err != nil {
		return nil, err
	}
	cfg, err := soccfg.Parse(doc)
	if err != nil {
		return nil, err
	}
	s := &socInst{}
	if s.built, err = salam.BuildFromConfig(cfg); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed))
	s.weights = make([]float64, 9)
	for i := range s.weights {
		s.weights[i] = r.Float64()*4 - 2
	}
	for f := range s.imgs {
		s.imgs[f] = make([]float64, imgH*imgW)
		for i := range s.imgs[f] {
			s.imgs[f][i] = r.Float64()*2 - 1
		}
		s.want[f] = kernels.MaxPoolGolden(
			kernels.ReLUGolden(kernels.ConvGolden(s.imgs[f], s.weights, imgH, imgW)), convH, convW)
	}
	s.prog = s.driver()

	// Cold run on the freshly built system; every op resets and must
	// replay it exactly.
	if err := s.runFrames(nil); err != nil {
		return nil, err
	}
	s.ref = s.last
	return s, nil
}

// driver is the host program: per frame, DMA the image and weights into
// the conv scratchpad, start the three accelerators back to front, wait
// for the pool's interrupt, and DMA the pooled frame back to DRAM.
func (s *socInst) driver() []salam.DriverOp {
	b := s.built
	conv, relu, pool := b.Accels["conv"], b.Accels["relu"], b.Accels["pool"]
	dma, dmaIRQ := b.DMAs["dma"].MMR.Range().Base, b.DMAIRQs["dma"]
	cImg := conv.SPM.Range().Base
	cW := cImg + imgBytes
	pLines := pool.SPM.Range().Base
	pOut := pLines + 2*convW*8 + 64

	var prog []salam.DriverOp
	for f := 0; f < frames; f++ {
		prog = append(prog, salam.StartDMA(dma, imgAddr(f), cImg, imgBytes, 256, true)...)
		prog = append(prog, salam.WaitIRQ{Line: dmaIRQ})
		prog = append(prog, salam.StartDMA(dma, weightAddr, cW, 72, 256, true)...)
		prog = append(prog, salam.WaitIRQ{Line: dmaIRQ})
		prog = append(prog, salam.StartAccel(pool.MMRBase, []uint64{b.StreamIn["s2"], pLines, pOut}, true)...)
		prog = append(prog, salam.StartAccel(relu.MMRBase, []uint64{b.StreamIn["s1"], b.StreamOut["s2"]}, false)...)
		prog = append(prog, salam.StartAccel(conv.MMRBase, []uint64{cImg, cW, b.StreamOut["s1"]}, false)...)
		prog = append(prog, salam.WaitIRQ{Line: pool.IRQLine})
		prog = append(prog, salam.StartDMA(dma, pOut, outAddr(f), poolBytes, 256, true)...)
		prog = append(prog, salam.WaitIRQ{Line: dmaIRQ})
	}
	return prog
}

// runFrames stages the inputs in DRAM and runs the driver program and the
// trailing events.
func (s *socInst) runFrames(tr *tracer) error {
	soc := s.built.SoC
	for f, img := range s.imgs {
		for i, v := range img {
			soc.Space.WriteF64(imgAddr(f)+uint64(i*8), v)
		}
	}
	for i, v := range s.weights {
		soc.Space.WriteF64(weightAddr+uint64(i*8), v)
	}
	var err error
	tr.do("salam.soc_run", func() {
		end, rerr := soc.RunHost(s.prog)
		if err = rerr; err != nil {
			return
		}
		soc.Run()
		s.last = [3]uint64{uint64(end), uint64(soc.Q.Now()), soc.Q.Fired()}
	})
	if err != nil {
		return err
	}
	// The golden check is part of the op, as Session.Run's is.
	for f, want := range s.want {
		for i, w := range want {
			got := soc.Space.ReadF64(outAddr(f) + uint64(i*8))
			if d := got - w; d > 1e-9 || d < -1e-9 {
				return fmt.Errorf("frame %d pool[%d] = %g, want %g", f, i, got, w)
			}
		}
	}
	return nil
}

func (s *socInst) prepare() error { return nil }

func (s *socInst) op(tr *tracer) error {
	tr.do("salam.soc_reset", s.built.SoC.Reset)
	return s.runFrames(tr)
}

// sysCycles is the driver program's end tick in system cycles of the
// 100 MHz accelerator clock: 10 000 ps each.
func (s *socInst) sysCycles() uint64 { return s.last[0] / 10000 }

func (s *socInst) verify() (opOut, error) {
	if s.last != s.ref {
		return opOut{}, fmt.Errorf("run diverged from the cold run: %v vs %v", s.last, s.ref)
	}
	return opOut{Points: frames, Cycles: s.sysCycles()}, nil
}

func (s *socInst) counts(into map[string]float64) {
	st := s.built.SoC.Stats
	stat := func(path string) float64 {
		v, _ := st.Lookup("soc." + path)
		return v
	}
	into["core.sim_cycles_per_op"] += float64(s.sysCycles())
	into["sim.events_per_op"] += float64(s.last[2])
	for _, a := range s.built.Order {
		into["core.committed_ops_per_op"] += stat(a + ".committed")
		into["mem.spm_accesses"] += stat(a+".spm.reads") + stat(a+".spm.writes")
		into["mem.spm_bank_conflicts"] += stat(a + ".spm.bank_conflict_cycles")
	}
	into["mem.dram_reqs"] += stat("dram.reads") + stat("dram.writes")
	into["mem.dma_bytes"] += stat("dma.bytes")
	into["mem.stream_bytes"] += stat("s1.pushes") + stat("s2.pushes")
}

func (s *socInst) close() {}
