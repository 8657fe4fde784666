package salam_test

// CI gate for checkpoint/restore: pausing a run mid-flight, capturing it,
// landing the image in a fresh session, and resuming must be byte-identical
// to having run straight through — same kernel cycles, same total ticks,
// same fired-event fingerprint, same statistics dump. This is enforced over
// the full golden kernel suite (like the traced-observer gate), over the
// cache/DRAM hierarchy, and for image byte-stability across a
// Checkpoint -> Restore -> Checkpoint round trip.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	salam "gosalam"
	"gosalam/internal/core"
	"gosalam/internal/mem"
	"gosalam/internal/snapshot"
	"gosalam/kernels"
)

// statsDump renders the full statistics tree to bytes.
func statsDump(res *salam.Result) []byte {
	var buf bytes.Buffer
	res.Stats.Dump(&buf)
	return buf.Bytes()
}

// splitRun runs k to the given accelerator cycle, checkpoints, encodes and
// decodes the image (exercising the on-disk codec), restores it into a
// brand-new session, and resumes to completion.
func splitRun(t *testing.T, k *kernels.Kernel, opts salam.RunOpts, cycle uint64) (*salam.Result, *snapshot.Image) {
	t.Helper()
	s, err := salam.NewSession(k, opts)
	if err != nil {
		t.Fatalf("%s: %v", k.Name, err)
	}
	if _, err := s.RunToCycle(opts, cycle); err != nil {
		t.Fatalf("%s: run to cycle %d: %v", k.Name, cycle, err)
	}
	img, err := s.Checkpoint()
	if err != nil {
		t.Fatalf("%s: checkpoint at cycle %d: %v", k.Name, cycle, err)
	}
	enc, err := img.Encode()
	if err != nil {
		t.Fatalf("%s: encode: %v", k.Name, err)
	}
	dec, err := snapshot.Decode(enc)
	if err != nil {
		t.Fatalf("%s: decode: %v", k.Name, err)
	}

	fresh, err := salam.NewSession(k, opts)
	if err != nil {
		t.Fatalf("%s: fresh session: %v", k.Name, err)
	}
	if err := fresh.Restore(opts, dec); err != nil {
		t.Fatalf("%s: restore at cycle %d: %v", k.Name, cycle, err)
	}
	res, err := fresh.Resume(opts)
	if err != nil {
		t.Fatalf("%s: resume: %v", k.Name, err)
	}
	return res, dec
}

// TestRestoreThenRunGoldenSuite is the restore-exactness CI gate over the
// full golden kernel set: a checkpoint taken mid-run and restored into a
// fresh session must finish with a byte-identical schedule and statistics
// tree. The resumed run also re-verifies the kernel's output against its
// golden model, so restored functional state is checked end to end.
func TestRestoreThenRunGoldenSuite(t *testing.T) {
	for _, k := range kernels.All(kernels.Small) {
		opts := salam.DefaultRunOpts()
		straight, err := salam.RunKernel(k, opts)
		if err != nil {
			t.Fatalf("%s: straight run: %v", k.Name, err)
		}
		want := pointOf(straight)
		wantStats := statsDump(straight)

		res, _ := splitRun(t, k, opts, straight.Cycles/2)
		if got := pointOf(res); got != want {
			t.Errorf("%s: restored run %+v != straight run %+v", k.Name, got, want)
		}
		if got := statsDump(res); !bytes.Equal(got, wantStats) {
			t.Errorf("%s: restored stats differ from straight run:\n--- restored\n%s\n--- straight\n%s", k.Name, got, wantStats)
		}
	}
}

// TestRestoreCacheHierarchy exercises the cache/DRAM restore path — MSHRs,
// in-flight fills, writebacks, DRAM bank state — at several points of the
// run, where different request populations are in flight.
func TestRestoreCacheHierarchy(t *testing.T) {
	for _, k := range []*kernels.Kernel{kernels.GEMM(8, 1), kernels.Stencil2D(12, 12)} {
		opts := salam.DefaultRunOpts()
		opts.Mem = salam.MemCache
		straight, err := salam.RunKernel(k, opts)
		if err != nil {
			t.Fatalf("%s: straight run: %v", k.Name, err)
		}
		want := pointOf(straight)
		wantStats := statsDump(straight)
		for _, frac := range []uint64{4, 2} {
			cycle := straight.Cycles / frac
			res, _ := splitRun(t, k, opts, cycle)
			if got := pointOf(res); got != want {
				t.Errorf("%s@%d: restored run %+v != straight run %+v", k.Name, cycle, got, want)
			}
			if got := statsDump(res); !bytes.Equal(got, wantStats) {
				t.Errorf("%s@%d: restored stats differ from straight run", k.Name, cycle)
			}
		}
	}
}

// TestCheckpointImageByteStability: re-checkpointing a restored session
// without advancing it must reproduce the image byte for byte, across the
// golden kernel set. This pins the codec and every capture path to
// deterministic output.
func TestCheckpointImageByteStability(t *testing.T) {
	for _, k := range kernels.All(kernels.Small) {
		opts := salam.DefaultRunOpts()
		straight, err := salam.RunKernel(k, opts)
		if err != nil {
			t.Fatalf("%s: straight run: %v", k.Name, err)
		}

		s, err := salam.NewSession(k, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunToCycle(opts, straight.Cycles/2); err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		img1, err := s.Checkpoint()
		if err != nil {
			t.Fatalf("%s: first checkpoint: %v", k.Name, err)
		}
		b1, err := img1.Encode()
		if err != nil {
			t.Fatal(err)
		}
		// Checkpoint is read-only: a second capture of the same state must
		// be identical.
		img1b, err := s.Checkpoint()
		if err != nil {
			t.Fatalf("%s: re-checkpoint: %v", k.Name, err)
		}
		b1b, err := img1b.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b1b) {
			t.Errorf("%s: two checkpoints of one paused session differ", k.Name)
		}

		fresh, err := salam.NewSession(k, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Restore(opts, img1); err != nil {
			t.Fatalf("%s: restore: %v", k.Name, err)
		}
		img2, err := fresh.Checkpoint()
		if err != nil {
			t.Fatalf("%s: checkpoint of restored session: %v", k.Name, err)
		}
		b2, err := img2.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("%s: checkpoint -> restore -> checkpoint image drifted", k.Name)
		}
	}
}

// TestRestoreRejectsMismatch: an image must not land in a session whose
// configuration or kernel differs from the one it was captured under.
func TestRestoreRejectsMismatch(t *testing.T) {
	k := kernels.GEMM(8, 1)
	opts := salam.DefaultRunOpts()
	straight, err := salam.RunKernel(k, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, img := splitRun(t, k, opts, straight.Cycles/2)

	other := opts
	other.Seed = opts.Seed + 1
	s, err := salam.NewSession(k, other)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(other, img); err == nil {
		t.Fatal("restore accepted an image from a different seed")
	} else if !strings.Contains(err.Error(), "different") {
		t.Fatalf("unexpected error: %v", err)
	}

	s2, err := salam.NewSession(kernels.FFT(64), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Restore(opts, img); err == nil {
		t.Fatal("restore accepted an image from a different kernel")
	}

	// A matching fingerprint over malformed contents is refused before the
	// session is touched: it still runs, and still restores the real image.
	s3, err := salam.NewSession(k, opts)
	if err != nil {
		t.Fatal(err)
	}
	bad := *img
	bad.Comps = bad.Comps[1:]
	if err := s3.Restore(opts, &bad); err == nil {
		t.Fatal("restore accepted an image missing a component")
	}
	if s3.IsBroken() || s3.Runs() != 0 {
		t.Fatal("a refused image left the session mid-rewrite")
	}
	if err := s3.Restore(opts, img); err != nil {
		t.Fatal(err)
	}
	if res, err := s3.Resume(opts); err != nil || res.Cycles != straight.Cycles {
		t.Fatalf("resume after a refused restore: %v", err)
	}
}

// engineState returns the image's accelerator component.
func engineState(t *testing.T, img *snapshot.Image) *snapshot.Component {
	t.Helper()
	for i := range img.Comps {
		if img.Comps[i].Accel != nil {
			return &img.Comps[i]
		}
	}
	t.Fatal("image has no accelerator component")
	return nil
}

// TestRestoreWithOpsOnTheWheel: in-flight compute ops live on the engine's
// due-wheel, which an image records only as each op's due cycle. A restore
// at every cycle of a stretch of GEMM's steady state — whatever mix of due
// cycles the wheel holds — must finish exactly like the straight run, and
// an op due outside the wheel's reach, which would never commit, is refused.
func TestRestoreWithOpsOnTheWheel(t *testing.T) {
	k := kernels.GEMM(8, 1)
	opts := salam.DefaultRunOpts()
	straight, err := salam.RunKernel(k, opts)
	if err != nil {
		t.Fatal(err)
	}
	var enc []byte
	for c := straight.Cycles / 2; c < straight.Cycles/2+8; c++ {
		res, img := splitRun(t, k, opts, c)
		if got, want := pointOf(res), pointOf(straight); got != want {
			t.Fatalf("restore at cycle %d: %+v != straight run %+v", c, got, want)
		}
		dues := map[uint64]bool{}
		for _, op := range engineState(t, img).Accel.Ops {
			if op.Due != 0 {
				dues[op.Due] = true
			}
		}
		if len(dues) >= 2 && enc == nil {
			if enc, err = img.Encode(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if enc == nil {
		t.Fatal("no checkpoint caught compute ops due at two different cycles")
	}

	for _, tc := range []struct {
		name string
		due  func(now uint64) uint64
	}{
		{"already past", func(now uint64) uint64 { return now }},
		{"beyond the longest latency", func(now uint64) uint64 { return now + 1000 }},
		{"unset", func(uint64) uint64 { return 0 }},
	} {
		img, err := snapshot.Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		comp := engineState(t, img)
		for i := range comp.Accel.Ops {
			if comp.Accel.Ops[i].Due != 0 {
				comp.Accel.Ops[i].Due = tc.due(comp.Clk.Cycles)
				break
			}
		}
		s, err := salam.NewSession(k, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Restore(opts, img); err == nil || !strings.Contains(err.Error(), "due") {
			t.Fatalf("compute op %s: restore returned %v, want a due-cycle error", tc.name, err)
		}
	}
}

// TestCheckpointRequiresRunInProgress: checkpointing an idle session is a
// clean error, not a garbage image.
func TestCheckpointRequiresRunInProgress(t *testing.T) {
	k := kernels.GEMM(8, 1)
	opts := salam.DefaultRunOpts()
	s, err := salam.NewSession(k, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint of an idle session succeeded")
	}
	if _, err := s.Run(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint of a completed session succeeded")
	}
}

// TestSoCQuiescentCheckpoint: a quiescent SoC (driver program complete)
// checkpoints, restores into a freshly built identical topology, and
// re-checkpoints byte-identically — over every warm-start topology, so the
// LLC's tag state and a cluster's devices are in the image too. A busy SoC
// is refused by the same claim accounting that guards Session images.
func TestSoCQuiescentCheckpoint(t *testing.T) {
	for _, tc := range warmTopologies {
		t.Run(tc.name, func(t *testing.T) {
			socA, runA := tc.build(t)
			runA()
			imgA, err := socA.Checkpoint()
			if err != nil {
				t.Fatalf("quiescent checkpoint: %v", err)
			}
			bA, err := imgA.Encode()
			if err != nil {
				t.Fatal(err)
			}

			socB, _ := tc.build(t)
			if err := socB.Restore(imgA); err != nil {
				t.Fatalf("restore: %v", err)
			}
			imgB, err := socB.Checkpoint()
			if err != nil {
				t.Fatalf("re-checkpoint: %v", err)
			}
			bB, err := imgB.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bA, bB) {
				t.Fatal("SoC checkpoint -> restore -> checkpoint image drifted")
			}
			// Restored physical memory carries the computed results.
			if !bytes.Equal(socA.Space.Data, socB.Space.Data) {
				t.Fatal("restored physical memory differs from the checkpointed SoC's")
			}
		})
	}

	// The LLC's warmed tags are part of the image.
	soc, run := llcClusterSoC(t)
	run()
	img, err := soc.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	valid := 0
	for _, c := range img.Comps {
		if c.Name != "llc" {
			continue
		}
		for _, set := range c.Cache.Sets {
			for _, ln := range set {
				if ln.Valid {
					valid++
				}
			}
		}
	}
	if valid == 0 {
		t.Fatal("image carries no valid LLC line after a run through the LLC")
	}

	// A busy SoC is refused: a device that keeps no snapshot state must
	// have none to lose. A request queued in the crossbar ...
	soc.Reset()
	soc.Xbar.Send(mem.NewRead(0, 8, nil))
	if _, err := soc.Checkpoint(); err == nil || !strings.Contains(err.Error(), "xbar is busy") {
		t.Fatalf("checkpoint with a request in the crossbar: %v", err)
	}
	// ... a host blocked on an interrupt, which holds no event at all,
	// only a waiter in the GIC and program state no image can carry ...
	soc.Reset()
	soc.Host.Run([]salam.DriverOp{salam.WaitIRQ{Line: 0}}, nil)
	soc.Run()
	if _, err := soc.Checkpoint(); err == nil || !strings.Contains(err.Error(), "gic is busy") || !soc.Host.Busy() {
		t.Fatalf("checkpoint with a host program in flight: %v", err)
	}
	// ... and an interrupt latched with nobody waiting for it yet.
	soc.Reset()
	soc.GIC.Raise(0)
	if _, err := soc.Checkpoint(); err == nil || !strings.Contains(err.Error(), "gic is busy") {
		t.Fatalf("checkpoint with a latched interrupt: %v", err)
	}

	// Restore validates the image before it touches the target: a wrong
	// kind, or a matching topology key over malformed contents, leaves the
	// SoC exactly as it was.
	soc.Reset()
	run()
	before, want := *img, socDump(soc)
	for name, bad := range map[string]func(*snapshot.Image){
		"session image":    func(i *snapshot.Image) { i.Kind = snapshot.KindSession },
		"short memory":     func(i *snapshot.Image) { i.Space = i.Space[:len(i.Space)-1] },
		"missing device":   func(i *snapshot.Image) { i.Comps = i.Comps[1:] },
		"misnamed device":  func(i *snapshot.Image) { i.Comps = append([]snapshot.Component{{Name: "nosuch"}}, i.Comps[1:]...) },
		"foreign topology": func(i *snapshot.Image) { i.Key += "|extra" },
	} {
		broken := before
		bad(&broken)
		if err := soc.Restore(&broken); err == nil {
			t.Fatalf("SoC restore accepted an image with a %s", name)
		}
		if got := socDump(soc); got != want {
			t.Fatalf("rejected restore (%s) changed the SoC", name)
		}
	}
}

// socDump fingerprints an SoC's observable state: time plus the full
// statistics tree.
func socDump(soc *salam.SoC) string {
	var sb strings.Builder
	soc.Stats.Dump(&sb)
	return fmt.Sprintf("%d\n%s", soc.Q.Now(), sb.String())
}

// TestRestoreSoCMidFlight: the invariant that guards Session images is the
// only gate on an SoC too. Accelerators started without the host are probed
// with a checkpoint at every engine cycle of the kernel; each probe must
// either be refused or resume in a freshly built SoC byte-identically to
// the straight run — an accepted image never drops state.
//
//   - spm: running out of a scratchpad every pending event is claimed, so
//     the SoC checkpoints mid-kernel.
//   - stream: the input arrives through a stream window from a pre-filled
//     FIFO, whose bytes no image carries — refused until it drains (the
//     regression for dropping the quiescent-SoC gate).
//   - dram: loads and stores cross the global crossbar, whose return-hop
//     closures no image carries either.
//   - two engines: owner tags are ambiguous, so in-flight points are refused.
func TestRestoreSoCMidFlight(t *testing.T) {
	const n = 64
	type wiring func(soc *salam.SoC, i int, fill bool) (*salam.AccelNode, []uint64)
	input := func(i int) []byte {
		in := make([]byte, n*8)
		for j := 0; j < n; j++ {
			binary.LittleEndian.PutUint64(in[j*8:], math.Float64bits(float64((i*n+j)%7)-3))
		}
		return in
	}
	addAccel := func(soc *salam.SoC, i int, o salam.AccelOpts) *salam.AccelNode {
		node, err := soc.AddAccel("relu"+string(rune('0'+i)), kernels.ReLU(n).F, o)
		if err != nil {
			t.Fatal(err)
		}
		return node
	}
	spm := func(soc *salam.SoC, i int, fill bool) (*salam.AccelNode, []uint64) {
		node := addAccel(soc, i, salam.AccelOpts{SPMBytes: 2 * n * 8})
		base := node.SPM.Range().Base
		if fill {
			copy(soc.Space.Data[base:], input(i))
		}
		return node, []uint64{base, base + n*8}
	}
	stream := func(soc *salam.SoC, i int, fill bool) (*salam.AccelNode, []uint64) {
		node := addAccel(soc, i, salam.AccelOpts{SPMBytes: n * 8})
		fifo := mem.NewStreamBuffer("fifo", soc.Q, n*8, soc.Stats)
		win := soc.StreamWindow(node, fifo, core.StreamIn)
		if fill && !fifo.Push(input(i)) {
			t.Fatal("pre-fill did not fit the FIFO")
		}
		return node, []uint64{win, node.SPM.Range().Base}
	}
	dram := func(soc *salam.SoC, i int, fill bool) (*salam.AccelNode, []uint64) {
		node := addAccel(soc, i, salam.AccelOpts{Global: true})
		if fill {
			copy(soc.Space.Data[4096:], input(i))
		}
		return node, []uint64{4096, 4096 + n*8}
	}

	for _, tc := range []struct {
		name        string
		wire        wiring
		accels      int
		wantResumed bool // some in-flight probe must be accepted
		wantRefused bool // some in-flight probe must be refused
	}{
		{"spm", spm, 1, true, false},
		{"stream", stream, 1, false, true},
		{"dram", dram, 1, false, true},
		{"two engines", spm, 2, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// build wires the SoC; start also loads the input and launches.
			build := func(start bool) (*salam.SoC, []*salam.AccelNode, func() bool) {
				soc := salam.NewSoC(1)
				var nodes []*salam.AccelNode
				for i := 0; i < tc.accels; i++ {
					node, args := tc.wire(soc, i, start)
					if start {
						node.Acc.Start(args)
					}
					nodes = append(nodes, node)
				}
				busy := func() bool {
					for _, node := range nodes {
						if node.Acc.Busy() {
							return true
						}
					}
					return false
				}
				return soc, nodes, busy
			}
			// A run that lost state may never finish; give up well past
			// the straight run's end instead of spinning.
			limit := ^uint64(0)
			finish := func(soc *salam.SoC, busy func() bool) string {
				soc.Q.RunWhile(func() bool { return busy() && uint64(soc.Q.Now()) < limit })
				if busy() {
					return "livelocked"
				}
				soc.Run()
				return socDump(soc)
			}
			straight, _, sbusy := build(true)
			want := finish(straight, sbusy)
			limit = 4 * uint64(straight.Q.Now())

			refused, resumed := 0, 0
			for cycle := uint64(1); ; cycle++ {
				paused, nodes, pbusy := build(true)
				paused.Q.RunWhile(func() bool { return pbusy() && nodes[0].Acc.Cycles < cycle })
				if !pbusy() {
					break
				}
				img, err := paused.Checkpoint()
				if err != nil {
					refused++
					continue
				}
				fresh, _, fbusy := build(false)
				if err := fresh.Restore(img); err != nil {
					t.Fatalf("cycle %d: restore: %v", cycle, err)
				}
				if got := finish(fresh, fbusy); got != want {
					t.Fatalf("cycle %d: checkpoint was accepted but the restored run diverged from the straight run", cycle)
				}
				resumed++
			}
			t.Logf("%d probe points refused, %d resumed byte-identically", refused, resumed)
			if tc.wantResumed && resumed == 0 {
				t.Fatal("no mid-flight checkpoint was accepted")
			}
			if tc.wantRefused && refused == 0 {
				t.Fatal("no mid-flight checkpoint was refused")
			}
		})
	}
}

// A stream-window pop completes one accelerator clock after its
// handshake, on an event no device claims. A checkpoint taken while that
// completion is pending must be refused; one clock later, with nothing
// else in flight, the same system checkpoints.
func TestCheckpointRefusedWhileStreamPopPending(t *testing.T) {
	const n = 8
	soc := salam.NewSoC(1)
	node, err := soc.AddAccel("relu", kernels.ReLU(n).F, salam.AccelOpts{SPMBytes: n * 8})
	if err != nil {
		t.Fatal(err)
	}
	fifo := mem.NewStreamBuffer("fifo", soc.Q, n*8, soc.Stats)
	win := soc.StreamWindow(node, fifo, core.StreamIn)
	in := make([]byte, n*8)
	for j := 0; j < n; j++ {
		binary.LittleEndian.PutUint64(in[j*8:], math.Float64bits(float64(j)-3))
	}
	if !fifo.Push(in) {
		t.Fatal("input did not fit the FIFO")
	}
	node.Acc.Start([]uint64{win, node.SPM.Range().Base})
	soc.Q.RunWhile(func() bool { return fifo.Len() > 0 })
	if !node.Acc.Busy() {
		t.Fatal("kernel finished before its last pop completed")
	}
	if _, err := soc.Checkpoint(); err == nil || !strings.Contains(err.Error(), "not snapshotable") {
		t.Fatalf("checkpoint with a stream pop pending: err = %v, want a refusal", err)
	}
	soc.Q.RunUntil(soc.Q.Now() + node.Acc.Clk.Period())
	if _, err := soc.Checkpoint(); err != nil {
		t.Fatalf("checkpoint once the pop completed: %v", err)
	}
}

// TestSessionPoolDropsPanicPoisonedSession is the satellite regression for
// dirty-session poisoning: a panic raised while begin is rewriting session
// state (between the warm rewind and Reconfigure) must leave the session
// marked broken, and the pool's release path must refuse to recycle it.
func TestSessionPoolDropsPanicPoisonedSession(t *testing.T) {
	k := kernels.GEMMTree(8)
	opts := salam.DefaultRunOpts()
	pool := salam.NewSessionPool()

	s, err := pool.AcquireForTest(k, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(opts); err != nil {
		t.Fatal(err)
	}

	s.SetTestHookReconfigure(func() { panic("injected reconfigure fault") })
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("injected panic did not propagate")
			}
		}()
		_, _ = s.Run(opts)
	}()
	if !s.IsBroken() {
		t.Fatal("session not marked broken after a panic during reconfigure")
	}
	pool.ReleaseForTest(s)
	if n := pool.IdleForTest(); n != 0 {
		t.Fatalf("pool recycled a poisoned session (%d idle)", n)
	}

	// The pool must hand out a fresh, working session afterwards.
	s2, err := pool.AcquireForTest(k, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s2 == s {
		t.Fatal("pool handed the poisoned session back out")
	}
	if _, err := s2.Run(opts); err != nil {
		t.Fatalf("replacement session: %v", err)
	}
}
