package salam_test

// Byte-identity gate for the declarative config layer: every shipped
// configs/*.json must build the exact same simulation as the equivalent
// Go-constructed system — same cycles, same total ticks, same fired-event
// count. A config path that silently defaults a knob differently from the
// Go constructors shifts a fingerprint and fails here.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	salam "gosalam"
	"gosalam/internal/hw"
	"gosalam/internal/soccfg"
	"gosalam/kernels"
)

func goldenEntries(t *testing.T) map[string]goldenPoint {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	var m map[string]goldenPoint
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// The shipped gemm_spm.json is DefaultRunOpts in JSON: its run must hit
// the committed golden "gemm" entry byte for byte.
func TestConfigGemmSPMMatchesGolden(t *testing.T) {
	c, err := soccfg.Load(filepath.Join("configs", "gemm_spm.json"))
	if err != nil {
		t.Fatal(err)
	}
	k, opts, err := salam.KernelFromConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	got := kernelGolden(t, k, opts)
	want, ok := goldenEntries(t)["gemm"]
	if !ok {
		t.Fatal("golden file has no gemm entry")
	}
	if got != want {
		t.Fatalf("config run diverged from golden: got %+v want %+v", got, want)
	}
}

// The other flat configs carry non-default options; each must match a
// Go-constructed run with the same RunOpts.
func TestConfigFlatMatchesGoBuilt(t *testing.T) {
	t.Run("gemm_cache", func(t *testing.T) {
		c, err := soccfg.Load(filepath.Join("configs", "gemm_cache.json"))
		if err != nil {
			t.Fatal(err)
		}
		k, opts, err := salam.KernelFromConfig(c)
		if err != nil {
			t.Fatal(err)
		}
		got := kernelGolden(t, k, opts)

		ref := salam.DefaultRunOpts()
		ref.Mem = salam.MemCache
		ref.CacheBytes = 4096
		ref.CacheLine = 64
		ref.CacheAssoc = 2
		want := kernelGolden(t, kernels.ByName(kernels.Small, "gemm"), ref)
		if got != want {
			t.Fatalf("config run diverged from Go-built: got %+v want %+v", got, want)
		}
	})
	t.Run("mdknn_fu_limited", func(t *testing.T) {
		c, err := soccfg.Load(filepath.Join("configs", "mdknn_fu_limited.json"))
		if err != nil {
			t.Fatal(err)
		}
		k, opts, err := salam.KernelFromConfig(c)
		if err != nil {
			t.Fatal(err)
		}
		got := kernelGolden(t, k, opts)

		ref := salam.DefaultRunOpts()
		ref.Accel.FULimits = map[hw.FUClass]int{
			hw.FUFPAdder:      2,
			hw.FUFPMultiplier: 2,
			hw.FUFPDivider:    1,
		}
		want := kernelGolden(t, kernels.ByName(kernels.Small, "md-knn"), ref)
		if got != want {
			t.Fatalf("config run diverged from Go-built: got %+v want %+v", got, want)
		}
	})
}

// cnn_cluster.json describes the exact topology clusterGolden constructs
// in Go. Building it with BuildFromConfig and replaying the same driver
// must reproduce the committed "cnn-cluster" fingerprint — MMR bases, IRQ
// lines, and the whole event schedule included.
func TestConfigClusterMatchesGolden(t *testing.T) {
	_, run := clusterConfigSoC(t)
	fp := run()
	got := goldenPoint{Cycles: fp[0], Ticks: fp[1], EventsFired: fp[2]}
	wantFP, ok := goldenEntries(t)["cnn-cluster"]
	if !ok {
		t.Fatal("golden file has no cnn-cluster entry")
	}
	wantFP.ScheduleSHA = "" // the config-built run keeps no profiles
	if got != wantFP {
		t.Fatalf("config-built SoC diverged from golden: got %+v want %+v", got, wantFP)
	}
}

// clusterConfigSoC builds configs/cnn_cluster.json and returns the SoC
// plus a run function that stages the inputs, drives conv → relu → pool
// from the host, checks the result, and fingerprints the completed run
// (driver end tick, final tick, events fired).
func clusterConfigSoC(t *testing.T) (*salam.SoC, func() [3]uint64) {
	t.Helper()
	c, err := soccfg.Load(filepath.Join("configs", "cnn_cluster.json"))
	if err != nil {
		t.Fatal(err)
	}
	built, err := salam.BuildFromConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	soc := built.SoC

	const imgH, imgW = 12, 12
	const convH, convW = imgH - 2, imgW - 2
	img := make([]float64, imgH*imgW)
	for i := range img {
		img[i] = float64((i*31)%13)/6.0 - 1
	}
	weights := []float64{1, 0, -1, 2, 0, -2, 1, 0, -1}
	want := kernels.MaxPoolGolden(
		kernels.ReLUGolden(kernels.ConvGolden(img, weights, imgH, imgW)), convH, convW)

	shared, ok := built.SPMs["shared"]
	if !ok {
		t.Fatal("config did not build the shared SPM")
	}
	conv, relu, pool := built.Accels["conv"], built.Accels["relu"], built.Accels["pool"]
	if conv == nil || relu == nil || pool == nil {
		t.Fatalf("missing accelerators: %v", built.Order)
	}

	base := shared.Range().Base
	imgA, wA := base, base+uint64(len(img)*8)
	convA := wA + 128
	reluA := convA + uint64(convH*convW*8)
	poolA := reluA + uint64(convH*convW*8)

	var prog []salam.DriverOp
	prog = append(prog, salam.StartAccel(conv.MMRBase, []uint64{imgA, wA, convA}, true)...)
	prog = append(prog, salam.WaitIRQ{Line: conv.IRQLine})
	prog = append(prog, salam.StartAccel(relu.MMRBase, []uint64{convA, reluA}, true)...)
	prog = append(prog, salam.WaitIRQ{Line: relu.IRQLine})
	prog = append(prog, salam.StartAccel(pool.MMRBase, []uint64{reluA, poolA}, true)...)
	prog = append(prog, salam.WaitIRQ{Line: pool.IRQLine})

	run := func() [3]uint64 {
		for i, v := range img {
			soc.Space.WriteF64(imgA+uint64(i*8), v)
		}
		for i, v := range weights {
			soc.Space.WriteF64(wA+uint64(i*8), v)
		}
		end, err := soc.RunHost(prog)
		if err != nil {
			t.Fatal(err)
		}
		soc.Run()
		for i, w := range want {
			got := soc.Space.ReadF64(poolA + uint64(i*8))
			if diff := got - w; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("pool[%d] = %g, want %g", i, got, w)
			}
		}
		return [3]uint64{uint64(end), uint64(soc.Q.Now()), soc.Q.Fired()}
	}
	return soc, run
}

// streamDriver programs the conv→relu→pool stream pipeline on an
// already-built SoC and returns its schedule fingerprint. Shared between
// the config-built and the Go-built SoC so the comparison is pure
// construction-path vs construction-path.
func streamDriver(t *testing.T, soc *salam.SoC, conv, relu, pool *salam.AccelNode,
	dmaMMRBase uint64, dmaIRQ int, convOutWin, reluInWin, reluOutWin, poolInWin uint64) goldenPoint {
	t.Helper()
	const imgH, imgW = 12, 12
	const convH, convW = imgH - 2, imgW - 2
	img := make([]float64, imgH*imgW)
	for i := range img {
		img[i] = float64((i*31)%13)/6.0 - 1
	}
	weights := []float64{1, 0, -1, 2, 0, -2, 1, 0, -1}
	want := kernels.MaxPoolGolden(
		kernels.ReLUGolden(kernels.ConvGolden(img, weights, imgH, imgW)), convH, convW)

	imgA, wA := uint64(1<<20), uint64(1<<20)+uint64(len(img)*8)
	for i, v := range img {
		soc.Space.WriteF64(imgA+uint64(i*8), v)
	}
	for i, v := range weights {
		soc.Space.WriteF64(wA+uint64(i*8), v)
	}
	imgBytes := uint64(imgH * imgW * 8)
	poolBytes := uint64((convH / 2) * (convW / 2) * 8)

	cb := conv.SPM.Range().Base
	cImg, cW := cb, cb+imgBytes
	pb := pool.SPM.Range().Base
	pLines, pOut := pb, pb+uint64(2*convW*8)+64
	dramOut := uint64(8 << 20)

	var prog []salam.DriverOp
	prog = append(prog, salam.StartDMA(dmaMMRBase, imgA, cImg, imgBytes, 256, true)...)
	prog = append(prog, salam.WaitIRQ{Line: dmaIRQ})
	prog = append(prog, salam.StartDMA(dmaMMRBase, wA, cW, 72, 256, true)...)
	prog = append(prog, salam.WaitIRQ{Line: dmaIRQ})
	prog = append(prog, salam.StartAccel(pool.MMRBase, []uint64{poolInWin, pLines, pOut}, true)...)
	prog = append(prog, salam.StartAccel(relu.MMRBase, []uint64{reluInWin, reluOutWin}, false)...)
	prog = append(prog, salam.StartAccel(conv.MMRBase, []uint64{cImg, cW, convOutWin}, false)...)
	prog = append(prog, salam.WaitIRQ{Line: pool.IRQLine})
	prog = append(prog, salam.StartDMA(dmaMMRBase, pOut, dramOut, poolBytes, 256, true)...)
	prog = append(prog, salam.WaitIRQ{Line: dmaIRQ})

	end, err := soc.RunHost(prog)
	if err != nil {
		t.Fatal(err)
	}
	soc.Run()
	for i, w := range want {
		got := soc.Space.ReadF64(dramOut + uint64(i*8))
		if diff := got - w; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("pool[%d] = %g, want %g", i, got, w)
		}
	}
	return goldenPoint{
		Cycles:      uint64(end),
		Ticks:       uint64(soc.Q.Now()),
		EventsFired: soc.Q.Fired(),
	}
}

// cnn_stream.json describes a DMA-fed, stream-linked pipeline. The
// config-built SoC must be byte-identical to the same topology built by
// hand in Go: same stream windows, same DMA IRQ, same schedule.
func TestConfigStreamMatchesGoBuilt(t *testing.T) {
	c, err := soccfg.Load(filepath.Join("configs", "cnn_stream.json"))
	if err != nil {
		t.Fatal(err)
	}
	built, err := salam.BuildFromConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	got := streamDriver(t, built.SoC,
		built.Accels["conv"], built.Accels["relu"], built.Accels["pool"],
		built.DMAs["dma"].MMR.Range().Base, built.DMAIRQs["dma"],
		built.StreamOut["s1"], built.StreamIn["s1"],
		built.StreamOut["s2"], built.StreamIn["s2"])

	// The same topology, constructed directly against the Go API.
	soc := salam.NewSoC(16)
	accelOpts := func(spmBytes uint64) salam.AccelOpts {
		return salam.AccelOpts{
			Cfg: salam.AccelConfig{
				ClockMHz:       100,
				ReadPorts:      8,
				WritePorts:     4,
				MaxOutstanding: 32,
				ResQueueSize:   256,
				PipelineLoops:  true,
			},
			SPMBytes: spmBytes, SPMBanks: 8, SPMPorts: 8,
		}
	}
	conv, err := soc.AddAccel("conv", kernels.Conv2D(12, 12).F, accelOpts(8192))
	if err != nil {
		t.Fatal(err)
	}
	relu, err := soc.AddAccel("relu", kernels.ReLU(100).F, accelOpts(4096))
	if err != nil {
		t.Fatal(err)
	}
	pool, err := soc.AddAccel("pool", kernels.MaxPoolStream(10, 10).F, accelOpts(8192))
	if err != nil {
		t.Fatal(err)
	}
	dma, dmaIRQ := soc.AddBlockDMA("dma")
	convOutWin, reluInWin := soc.StreamLink("s1", conv, relu, 512)
	reluOutWin, poolInWin := soc.StreamLink("s2", relu, pool, 512)
	want := streamDriver(t, soc, conv, relu, pool,
		dma.MMR.Range().Base, dmaIRQ, convOutWin, reluInWin, reluOutWin, poolInWin)

	if got != want {
		t.Fatalf("config-built SoC diverged from Go-built: got %+v want %+v", got, want)
	}
}

// Every shipped config must parse, validate, and survive an emit
// round-trip (parse → emit → parse → emit is a fixpoint).
func TestShippedConfigsRoundTrip(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("configs", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 5 {
		t.Fatalf("expected at least 5 shipped configs, found %d", len(paths))
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			c, err := soccfg.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			e1, err := c.Emit()
			if err != nil {
				t.Fatal(err)
			}
			c2, err := soccfg.Parse(e1)
			if err != nil {
				t.Fatalf("emitted config does not re-parse: %v\n%s", err, e1)
			}
			e2, err := c2.Emit()
			if err != nil {
				t.Fatal(err)
			}
			if string(e1) != string(e2) {
				t.Fatalf("emit not idempotent for %s", path)
			}
		})
	}
}
