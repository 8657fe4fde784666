package core_test

import (
	"path/filepath"
	"testing"

	salam "gosalam"
	"gosalam/internal/core"
	"gosalam/internal/soccfg"
	"gosalam/internal/timeline"
	"gosalam/kernels"
)

// inspector is a timeline recorder that runs core.OrderOracle over its
// accelerators at every engine edge: each engine reports one Cycle per
// edge, after its issue phase and compaction. Recorders only observe, so
// an inspected run must end exactly where an uninspected one does.
type inspector struct {
	t                *testing.T
	name             string
	accs             []*core.Accelerator
	checked, blocked int
}

func (in *inspector) Lane(string, string) timeline.LaneID           { return 0 }
func (in *inspector) Slice(timeline.LaneID, uint64, uint64, string) {}
func (in *inspector) Instant(timeline.LaneID, uint64, string)       {}
func (in *inspector) Counter(timeline.LaneID, uint64, float64)      {}

func (in *inspector) Cycle(timeline.LaneID, uint64, uint64, timeline.CycleClass) {
	for _, a := range in.accs {
		c, b, err := core.OrderOracle(a)
		if err != nil {
			in.t.Fatalf("%s: %v", in.name, err)
		}
		in.checked, in.blocked = in.checked+c, in.blocked+b
	}
}

type runEnd struct{ cycles, ticks, events uint64 }

func endOf(res *salam.Result) runEnd {
	return runEnd{res.Cycles, uint64(res.Ticks), res.EventsFired}
}

// goldenRun is one of the golden suite's single-kernel runs.
type goldenRun struct {
	name string
	k    *kernels.Kernel
	opts salam.RunOpts
}

// goldenRuns lists every kernel at the default options, and stencil2d
// under strict memory order.
func goldenRuns() []goldenRun {
	var runs []goldenRun
	for _, k := range kernels.All(kernels.Small) {
		runs = append(runs, goldenRun{k.Name, k, salam.DefaultRunOpts()})
	}
	strict := salam.DefaultRunOpts()
	strict.Accel.ConservativeMemOrder = true
	k := kernels.Stencil2D(12, 12)
	return append(runs, goldenRun{k.Name + "/strict-order", k, strict})
}

// The golden kernels, each run cold and uninspected, then rerun warm in
// the same session under the oracle. The warm rerun restarts seq at 0 over
// a pool of ops that still carry the cold run's memos, so a memo that
// survived fetch would skip a blocker and fail the oracle.
func TestMemOrderOracleGoldenKernels(t *testing.T) {
	checked, blocked := 0, 0
	for _, g := range goldenRuns() {
		s, err := salam.NewSession(g.k, g.opts)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := s.Run(g.opts)
		if err != nil {
			t.Fatal(err)
		}
		want := endOf(cold)
		in := &inspector{t: t, name: g.name, accs: []*core.Accelerator{cold.Acc}}
		opts := g.opts
		opts.Timeline = in
		warm, err := s.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := endOf(warm); got != want {
			t.Fatalf("%s: inspected warm run ended at %+v, uninspected cold run at %+v", g.name, got, want)
		}
		checked, blocked = checked+in.checked, blocked+in.blocked
	}
	t.Logf("%d ready memory ops checked, %d blocked", checked, blocked)
	if blocked == 0 {
		t.Fatal("no golden kernel ever blocked a memory op")
	}
}

// A checkpoint taken while an op holds a memoized blocker restores into
// ops drawn from the pool, which carry the memos of the run that filled
// it; the restored run must meet the oracle and end where the straight
// run does.
func TestMemOrderOracleRestoreMidFlight(t *testing.T) {
	for _, g := range goldenRuns() {
		if g.name != "stencil2d/strict-order" && g.name != "fft" {
			continue
		}
		s, err := salam.NewSession(g.k, g.opts)
		if err != nil {
			t.Fatal(err)
		}
		straight, err := s.Run(g.opts)
		if err != nil {
			t.Fatal(err)
		}
		want, acc := endOf(straight), straight.Acc
		var cycle uint64
		for cycle = 1; cycle < straight.Cycles; cycle++ {
			if _, err := s.RunToCycle(g.opts, cycle); err != nil {
				t.Fatal(err)
			}
			if core.HoldsBlocker(acc) {
				break
			}
			if _, err := s.Resume(g.opts); err != nil {
				t.Fatal(err)
			}
		}
		if cycle == straight.Cycles {
			t.Fatalf("%s: no op ever held a memoized blocker", g.name)
		}
		img, err := s.Checkpoint()
		if err != nil {
			t.Fatalf("%s at cycle %d: %v", g.name, cycle, err)
		}
		// Finish the paused run, so the pool is full of its committed ops.
		if _, err := s.Resume(g.opts); err != nil {
			t.Fatal(err)
		}
		in := &inspector{t: t, name: g.name, accs: []*core.Accelerator{acc}}
		opts := g.opts
		opts.Timeline = in
		if err := s.Restore(opts, img); err != nil {
			t.Fatal(err)
		}
		res, err := s.Resume(opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := endOf(res); got != want {
			t.Fatalf("%s: restored at cycle %d, ended at %+v, straight run at %+v", g.name, cycle, got, want)
		}
		if in.checked == 0 {
			t.Fatalf("%s: the restored run checked no memory op", g.name)
		}
	}
}

// The stream SoC of configs/cnn_stream.json: FIFO pops and pushes keep
// program order within a window, the one ordering rule no single-kernel
// run reaches. Run cold, then reset and rerun warm under the oracle.
func TestMemOrderOracleStreamSoC(t *testing.T) {
	c, err := soccfg.Load(filepath.Join("..", "..", "configs", "cnn_stream.json"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := salam.BuildFromConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	soc := b.SoC
	conv, relu, pool := b.Accels["conv"], b.Accels["relu"], b.Accels["pool"]

	const imgH, imgW = 12, 12
	const convH, convW = imgH - 2, imgW - 2
	img := make([]float64, imgH*imgW)
	for i := range img {
		img[i] = float64((i*31)%13)/6.0 - 1
	}
	weights := []float64{1, 0, -1, 2, 0, -2, 1, 0, -1}
	wantOut := kernels.MaxPoolGolden(kernels.ReLUGolden(kernels.ConvGolden(img, weights, imgH, imgW)), convH, convW)
	imgA, wA, outA := uint64(1<<20), uint64(1<<20+imgH*imgW*8), uint64(8<<20)
	dma, dmaIRQ := b.DMAs["dma"].MMR.Range().Base, b.DMAIRQs["dma"]
	cImg := conv.SPM.Range().Base
	cW := cImg + imgH*imgW*8
	pLines := pool.SPM.Range().Base
	pOut := pLines + 2*convW*8 + 64

	var prog []salam.DriverOp
	prog = append(prog, salam.StartDMA(dma, imgA, cImg, imgH*imgW*8, 256, true)...)
	prog = append(prog, salam.WaitIRQ{Line: dmaIRQ})
	prog = append(prog, salam.StartDMA(dma, wA, cW, 72, 256, true)...)
	prog = append(prog, salam.WaitIRQ{Line: dmaIRQ})
	prog = append(prog, salam.StartAccel(pool.MMRBase, []uint64{b.StreamIn["s2"], pLines, pOut}, true)...)
	prog = append(prog, salam.StartAccel(relu.MMRBase, []uint64{b.StreamIn["s1"], b.StreamOut["s2"]}, false)...)
	prog = append(prog, salam.StartAccel(conv.MMRBase, []uint64{cImg, cW, b.StreamOut["s1"]}, false)...)
	prog = append(prog, salam.WaitIRQ{Line: pool.IRQLine})
	prog = append(prog, salam.StartDMA(dma, pOut, outA, uint64(len(wantOut)*8), 256, true)...)
	prog = append(prog, salam.WaitIRQ{Line: dmaIRQ})

	run := func() runEnd {
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
		for i, w := range wantOut {
			if got := soc.Space.ReadF64(outA + uint64(i*8)); got-w > 1e-9 || w-got > 1e-9 {
				t.Fatalf("pool[%d] = %g, want %g", i, got, w)
			}
		}
		return runEnd{uint64(end), uint64(soc.Q.Now()), soc.Q.Fired()}
	}
	want := run()
	soc.Reset()
	in := &inspector{t: t, name: "cnn-stream", accs: []*core.Accelerator{conv.Acc, relu.Acc, pool.Acc}}
	soc.SetTimeline(in)
	if got := run(); got != want {
		t.Fatalf("inspected warm run ended at %+v, uninspected cold run at %+v", got, want)
	}
	t.Logf("%d ready memory ops checked, %d blocked", in.checked, in.blocked)
	if in.blocked == 0 {
		t.Fatal("no stream access was ever ordered behind another")
	}
}
