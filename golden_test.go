package salam_test

// Golden determinism gate for the simulation engine. Every kernel in
// kernels.All runs at DefaultRunOpts (stencil2d also under strict memory
// order) and two SoCs run a CNN pipeline; each run's cycle count, total
// tick count, fired-event count and per-cycle schedule hash are compared
// byte-for-byte against the committed golden file. Any engine change that
// alters the schedule — not just the final answer — trips this test.
// Regenerate deliberately with
//
//	go test -run TestGoldenDeterminism -update-golden
//
// and justify the diff in the commit message.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	salam "gosalam"
	"gosalam/internal/core"
	"gosalam/internal/soccfg"
	"gosalam/internal/timeline"
	"gosalam/kernels"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_cycles.json from the current engine")

const goldenPath = "testdata/golden_cycles.json"

// goldenPoint is one kernel's schedule fingerprint. ScheduleSHA is the
// drift detector for the engine's own schedule: it hashes what issued,
// what was resident and which hazards fired on every cycle, so an engine
// change that reorders issue or commit moves it even when the totals
// survive. EventsFired counts queue events (clock edges and memory-system
// traffic) and moves whenever work is taken off or put on the queue.
type goldenPoint struct {
	Cycles      uint64 `json:"cycles"`
	Ticks       uint64 `json:"ticks"`
	EventsFired uint64 `json:"events_fired"`
	ScheduleSHA string `json:"schedule_sha"`
}

// goldenProfileCap keeps every cycle of every golden run (the longest is
// under 2^16 cycles), so ScheduleSHA covers the whole schedule.
const goldenProfileCap = 1 << 20

// scheduleSHA is the sha256 of the accelerators' per-cycle profiles, in
// the byte form `salam-sim -profile` writes them.
func scheduleSHA(t *testing.T, accs ...*core.Accelerator) string {
	t.Helper()
	h := sha256.New()
	for _, a := range accs {
		p := a.Profile()
		if p == nil || p.Dropped > 0 {
			t.Fatalf("%s: per-cycle profile missing or truncated", a.Name())
		}
		if err := p.WriteCSV(h); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// kernelGolden fingerprints one single-accelerator run.
func kernelGolden(t *testing.T, k *kernels.Kernel, opts salam.RunOpts) goldenPoint {
	t.Helper()
	opts.ProfileCycles = goldenProfileCap
	res, err := salam.RunKernel(k, opts)
	if err != nil {
		t.Fatalf("%s: %v", k.Name, err)
	}
	return goldenPoint{
		Cycles:      res.Cycles,
		Ticks:       uint64(res.Ticks),
		EventsFired: res.EventsFired,
		ScheduleSHA: scheduleSHA(t, res.Acc),
	}
}

// currentGolden fingerprints every kernel plus the cluster scenario. With
// traced set, every run carries a live timeline recorder (JSON + breakdown
// tee); the resulting bytes must be identical either way — that is the
// observer-effect guarantee TestGoldenTracedObserverEffect enforces.
func currentGolden(t *testing.T, traced bool) []byte {
	t.Helper()
	got := map[string]goldenPoint{}
	for _, k := range kernels.All(kernels.Small) {
		opts := salam.DefaultRunOpts()
		if traced {
			opts.Timeline = timeline.NewTee(timeline.NewJSON(), timeline.NewBreakdown())
		}
		got[k.Name] = kernelGolden(t, k, opts)
	}
	// Clang-emitted fixtures enter the suite under ll/ keys: same
	// workloads, compiler-shaped IR, separately pinned schedules.
	for _, k := range llKernels(t) {
		opts := salam.DefaultRunOpts()
		if traced {
			opts.Timeline = timeline.NewTee(timeline.NewJSON(), timeline.NewBreakdown())
		}
		got[k.Name] = kernelGolden(t, k, opts)
	}
	// Strict program order is the conservative-disambiguation branch no
	// default-option kernel takes.
	strict := salam.DefaultRunOpts()
	strict.Accel.ConservativeMemOrder = true
	if traced {
		strict.Timeline = timeline.NewTee(timeline.NewJSON(), timeline.NewBreakdown())
	}
	got["stencil2d/strict-order"] = kernelGolden(t, kernels.Stencil2D(12, 12), strict)
	got["cnn-cluster"] = clusterGolden(t, traced)
	got["cnn-stream"] = streamGolden(t, traced)
	// encoding/json emits map keys sorted, so the bytes are canonical.
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// clusterGolden fingerprints a multi-accelerator SoC: a host-sequenced
// conv2d → ReLU → max-pool pipeline through one shared scratchpad (the
// paper's Fig. 16b integration). The single-kernel entries exercise one
// accelerator against private memory; this entry pins the schedule of the
// crossbar, IRQ/GIC, host driver, and inter-accelerator sequencing, so
// engine drift in the system layer cannot hide behind unchanged kernel
// runs. The cycle fingerprint is the host-observed end time in ticks.
func clusterGolden(t *testing.T, traced bool) goldenPoint {
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

	soc := salam.NewSoC(16)
	if traced {
		soc.SetTimeline(timeline.NewTee(timeline.NewJSON(), timeline.NewBreakdown()))
	}
	shared := soc.AddSPM("shared", 64<<10, 2, 4, 4)
	conv, err := soc.AddAccel("conv", kernels.Conv2D(imgH, imgW).F, salam.AccelOpts{SharedSPM: shared})
	if err != nil {
		t.Fatal(err)
	}
	relu, err := soc.AddAccel("relu", kernels.ReLU(convH*convW).F, salam.AccelOpts{SharedSPM: shared})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := soc.AddAccel("pool", kernels.MaxPool(convH, convW).F, salam.AccelOpts{SharedSPM: shared})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []*salam.AccelNode{conv, relu, pool} {
		n.Acc.EnableProfile(goldenProfileCap)
	}

	base := shared.Range().Base
	imgA, wA := base, base+uint64(len(img)*8)
	convA := wA + 128
	reluA := convA + uint64(convH*convW*8)
	poolA := reluA + uint64(convH*convW*8)
	for i, v := range img {
		soc.Space.WriteF64(imgA+uint64(i*8), v)
	}
	for i, v := range weights {
		soc.Space.WriteF64(wA+uint64(i*8), v)
	}

	var prog []salam.DriverOp
	prog = append(prog, salam.StartAccel(conv.MMRBase, []uint64{imgA, wA, convA}, true)...)
	prog = append(prog, salam.WaitIRQ{Line: conv.IRQLine})
	prog = append(prog, salam.StartAccel(relu.MMRBase, []uint64{convA, reluA}, true)...)
	prog = append(prog, salam.WaitIRQ{Line: relu.IRQLine})
	prog = append(prog, salam.StartAccel(pool.MMRBase, []uint64{reluA, poolA}, true)...)
	prog = append(prog, salam.WaitIRQ{Line: pool.IRQLine})

	end, err := soc.RunHost(prog)
	if err != nil {
		t.Fatal(err)
	}
	soc.Run()
	for i, w := range want {
		got := soc.Space.ReadF64(poolA + uint64(i*8))
		if diff := got - w; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("cnn-cluster: pool[%d] = %g, want %g", i, got, w)
		}
	}
	return goldenPoint{
		Cycles:      uint64(end),
		Ticks:       uint64(soc.Q.Now()),
		EventsFired: soc.Q.Fired(),
		ScheduleSHA: scheduleSHA(t, conv.Acc, relu.Acc, pool.Acc),
	}
}

// streamGolden fingerprints configs/cnn_stream.json: conv2d → ReLU →
// streaming max-pool, fed by a block DMA and linked by two stream windows.
// It is the one entry whose loads and stores are FIFO pops and pushes, so
// it pins the engine's same-window ordering and the stream handshake.
func streamGolden(t *testing.T, traced bool) goldenPoint {
	t.Helper()
	c, err := soccfg.Load(filepath.Join("configs", "cnn_stream.json"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := salam.BuildFromConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	if traced {
		b.SoC.SetTimeline(timeline.NewTee(timeline.NewJSON(), timeline.NewBreakdown()))
	}
	conv, relu, pool := b.Accels["conv"], b.Accels["relu"], b.Accels["pool"]
	for _, n := range []*salam.AccelNode{conv, relu, pool} {
		n.Acc.EnableProfile(goldenProfileCap)
	}
	p := streamDriver(t, b.SoC, conv, relu, pool,
		b.DMAs["dma"].MMR.Range().Base, b.DMAIRQs["dma"],
		b.StreamOut["s1"], b.StreamIn["s1"], b.StreamOut["s2"], b.StreamIn["s2"])
	p.ScheduleSHA = scheduleSHA(t, conv.Acc, relu.Acc, pool.Acc)
	return p
}

// TestGoldenTracedObserverEffect is the CI gate on the timeline's
// observer-effect-free contract: the full golden suite — all kernels plus
// the cnn-cluster SoC — re-runs with live recorders attached and must
// produce exactly the committed golden bytes. A recorder that schedules an
// event, perturbs a queue, or leaks into engine state shifts a fingerprint
// and fails here.
func TestGoldenTracedObserverEffect(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run TestGoldenDeterminism -update-golden once): %v", err)
	}
	got := currentGolden(t, true)
	if !bytes.Equal(got, want) {
		t.Fatalf("tracing perturbed the simulation:\ntraced:\n%s\ngolden:\n%s", got, want)
	}
}

func TestGoldenDeterminism(t *testing.T) {
	got := currentGolden(t, false)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden once): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	// Report the per-kernel drift, not just "bytes differ".
	var gotM, wantM map[string]goldenPoint
	if json.Unmarshal(got, &gotM) != nil || json.Unmarshal(want, &wantM) != nil {
		t.Fatalf("golden mismatch (and undecodable):\ngot:\n%s\nwant:\n%s", got, want)
	}
	for name, w := range wantM {
		g, ok := gotM[name]
		if !ok {
			t.Errorf("%s: missing from current run", name)
			continue
		}
		if g != w {
			t.Errorf("%s: got cycles=%d ticks=%d events=%d sha=%.12s, want cycles=%d ticks=%d events=%d sha=%.12s",
				name, g.Cycles, g.Ticks, g.EventsFired, g.ScheduleSHA, w.Cycles, w.Ticks, w.EventsFired, w.ScheduleSHA)
		}
	}
	for name := range gotM {
		if _, ok := wantM[name]; !ok {
			t.Errorf("%s: not in golden file (run -update-golden)", name)
		}
	}
	if !t.Failed() {
		t.Fatal("golden bytes differ but decoded values match: file needs -update-golden reformat")
	}
}
