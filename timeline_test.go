package salam_test

// Tests for the timeline tracing subsystem's public surfaces: trace_event
// JSON structure of a real kernel trace, the stall-attribution invariant
// (breakdown classes sum to the kernel's cycle count), and full-SoC
// warm-start reuse through SoC.Reset on a streaming (Fig. 16c-style)
// topology.

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	salam "gosalam"
	"gosalam/internal/sim"
	"gosalam/internal/timeline"
	"gosalam/ir"
	"gosalam/kernels"
)

// traceFile mirrors the Chrome trace_event "JSON Object Format".
type traceFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

type traceEvent struct {
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Name string         `json:"name"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// TestTimelineTrace generates a gemm trace and decodes it back: the bytes
// must be valid trace_event JSON with the expected process/thread
// structure, the breakdown classes must sum exactly to the kernel's cycle
// count, and the traced run must report the same result as an untraced one.
func TestTimelineTrace(t *testing.T) {
	k := kernels.ByName(kernels.Small, "gemm")
	if k == nil {
		t.Fatal("gemm kernel missing")
	}
	plain, err := salam.RunKernel(k, salam.DefaultRunOpts())
	if err != nil {
		t.Fatal(err)
	}

	rec := timeline.NewJSON()
	bd := timeline.NewBreakdown()
	opts := salam.DefaultRunOpts()
	opts.Timeline = timeline.NewTee(rec, bd)
	res, err := salam.RunKernel(k, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != plain.Cycles || res.Ticks != plain.Ticks || res.EventsFired != plain.EventsFired {
		t.Fatalf("traced run diverged: cycles %d/%d ticks %d/%d events %d/%d",
			res.Cycles, plain.Cycles, res.Ticks, plain.Ticks, res.EventsFired, plain.EventsFired)
	}

	// Stall attribution: exactly one cycle class per engine cycle, so the
	// histogram over the engine lane sums to the kernel cycle count.
	counts, ok := bd.Counts(k.Name, "engine")
	if !ok {
		t.Fatalf("breakdown has no %s/engine lane", k.Name)
	}
	var sum uint64
	for _, c := range counts {
		sum += c
	}
	if sum != res.Cycles {
		t.Fatalf("breakdown classes sum to %d, kernel ran %d cycles", sum, res.Cycles)
	}
	if counts[timeline.ClassIssue] == 0 {
		t.Fatal("gemm recorded zero issue cycles")
	}

	var buf bytes.Buffer
	if err := rec.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	// Lane structure: process metadata for the accelerator and the sim
	// group, a thread named "engine", and real slices on it.
	procs := map[int]string{}
	threads := map[[2]int]string{}
	slices, instants, counters := 0, 0, 0
	var engineCycles uint64
	for _, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "M":
			switch ev.Name {
			case "process_name":
				procs[ev.Pid], _ = ev.Args["name"].(string)
			case "thread_name":
				threads[[2]int{ev.Pid, ev.Tid}], _ = ev.Args["name"].(string)
			case "process_sort_index", "thread_sort_index":
			default:
				t.Fatalf("unexpected metadata record %q", ev.Name)
			}
		case "X":
			slices++
			if ev.Dur <= 0 {
				t.Fatalf("slice %q has non-positive duration %g", ev.Name, ev.Dur)
			}
			if threads[[2]int{ev.Pid, ev.Tid}] == "engine" && procs[ev.Pid] == k.Name {
				// Engine slices are cycle classes; dur is µs of engine time.
				if _, known := map[string]bool{"issue": true, "stall.mem": true,
					"stall.fu": true, "stall.fetch": true, "stall.operand": true}[ev.Name]; !known {
					t.Fatalf("unknown engine cycle class %q", ev.Name)
				}
				engineCycles += uint64(ev.Dur*1e6 + 0.5) // µs back to ps
			}
		case "i":
			instants++
			if ev.S != "t" {
				t.Fatalf("instant %q missing thread scope", ev.Name)
			}
		case "C":
			counters++
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	groups := map[string]bool{}
	for _, name := range procs {
		groups[name] = true
	}
	if !groups[k.Name] || !groups["sim"] {
		t.Fatalf("missing process groups in %v", procs)
	}
	if slices == 0 || counters == 0 {
		t.Fatalf("trace has %d slices, %d counters; want both nonzero", slices, counters)
	}
	// The merged engine slices must tile the kernel's cycles exactly:
	// total engine-lane duration == cycles * clock period.
	wantPS := res.Cycles * uint64(sim.Tick(10000)) // 100 MHz default accel clock
	if engineCycles != wantPS {
		t.Fatalf("engine lane covers %d ps, want %d (cycles*period)", engineCycles, wantPS)
	}
}

// streamSoC builds the Fig. 16c-style streaming pipeline — conv → relu →
// max-pool connected by stream FIFOs, DMA-staged input, self-synchronizing
// stages — and returns the SoC plus a run function that stages inputs,
// drives the host program, and fingerprints the completed run.
func streamSoC(t *testing.T) (*salam.SoC, func() [3]uint64) {
	t.Helper()
	const h, w = 10, 10
	const ch, cw = h - 2, w - 2
	img := make([]float64, h*w)
	for i := range img {
		img[i] = float64((i*37)%17)/8.0 - 1
	}
	weights := []float64{1, 0, -1, 2, 0, -2, 1, 0, -1}
	want := kernels.MaxPoolGolden(kernels.ReLUGolden(kernels.ConvGolden(img, weights, h, w)), ch, cw)

	soc := salam.NewSoC(16)
	cfg := salam.AccelConfig{ClockMHz: 100, ReadPorts: 8, WritePorts: 4,
		MaxOutstanding: 32, ResQueueSize: 256, PipelineLoops: true}
	aopts := func(spm uint64) salam.AccelOpts {
		return salam.AccelOpts{Cfg: cfg, SPMBytes: spm, SPMPorts: 8, SPMBanks: 8}
	}
	conv, err := soc.AddAccel("conv", kernels.Conv2D(h, w).F, aopts(4096))
	if err != nil {
		t.Fatal(err)
	}
	relu, err := soc.AddAccel("relu", kernels.ReLU(ch*cw).F, aopts(4096))
	if err != nil {
		t.Fatal(err)
	}
	pool, err := soc.AddAccel("pool", kernels.MaxPoolStream(ch, cw).F, aopts(4096))
	if err != nil {
		t.Fatal(err)
	}
	dma, dmaIRQ := soc.AddBlockDMA("dma")
	convOutWin, reluInWin := soc.StreamLink("s1", conv, relu, 512)
	reluOutWin, poolInWin := soc.StreamLink("s2", relu, pool, 512)

	run := func() [3]uint64 {
		imgBytes := uint64(h * w * 8)
		poolBytes := uint64((ch / 2) * (cw / 2) * 8)
		// FlatMem.Reset rewinds the allocation cursor, so warm re-staging
		// lands on the same addresses as the cold run.
		soc.Space.SetAllocBase(1 << 20)
		imgA := soc.Space.AllocFor(ir.F64, h*w)
		wA := soc.Space.AllocFor(ir.F64, 9)
		for i, v := range img {
			soc.Space.WriteF64(imgA+uint64(i*8), v)
		}
		for i, v := range weights {
			soc.Space.WriteF64(wA+uint64(i*8), v)
		}
		cb := conv.SPM.Range().Base
		cImg, cW := cb, cb+imgBytes
		pb := pool.SPM.Range().Base
		pLines, pOut := pb, pb+uint64(2*cw*8)+64
		dramOut := uint64(8 << 20)

		dmaBase := dma.MMR.Range().Base
		var tEnd sim.Tick
		var prog []salam.DriverOp
		prog = append(prog, salam.StartDMA(dmaBase, imgA, cImg, imgBytes, 256, true)...)
		prog = append(prog, salam.WaitIRQ{Line: dmaIRQ})
		prog = append(prog, salam.StartDMA(dmaBase, wA, cW, 72, 256, true)...)
		prog = append(prog, salam.WaitIRQ{Line: dmaIRQ})
		prog = append(prog, salam.StartAccel(pool.MMRBase, []uint64{poolInWin, pLines, pOut}, true)...)
		prog = append(prog, salam.StartAccel(relu.MMRBase, []uint64{reluInWin, reluOutWin}, false)...)
		prog = append(prog, salam.StartAccel(conv.MMRBase, []uint64{cImg, cW, convOutWin}, false)...)
		prog = append(prog, salam.WaitIRQ{Line: pool.IRQLine})
		prog = append(prog, salam.StartDMA(dmaBase, pOut, dramOut, poolBytes, 256, true)...)
		prog = append(prog, salam.WaitIRQ{Line: dmaIRQ})
		prog = append(prog, salam.Stamp(soc, &tEnd))

		if _, err := soc.RunHost(prog); err != nil {
			t.Fatal(err)
		}
		soc.Run()
		for i, wv := range want {
			got := soc.Space.ReadF64(dramOut + uint64(i*8))
			if d := got - wv; d > 1e-9 || d < -1e-9 {
				t.Fatalf("pool[%d] = %g, want %g", i, got, wv)
			}
		}
		return [3]uint64{uint64(tEnd), uint64(soc.Q.Now()), soc.Q.Fired()}
	}
	return soc, run
}

// llcClusterSoC builds a cluster behind a last-level cache — local
// crossbar, shared scratchpad, cluster DMA, one ReLU accelerator — and
// returns the SoC plus a run function that stages input in DRAM, has the
// cluster DMA pull it through the LLC into the shared SPM, runs the
// kernel, DMAs the result back, and fingerprints the completed run.
func llcClusterSoC(t *testing.T) (*salam.SoC, func() [3]uint64) {
	t.Helper()
	const n = 64
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i%9) - 4
	}
	want := kernels.ReLUGolden(vals)

	soc := salam.NewSoC(16)
	soc.EnableLLC(64<<10, 64, 4)
	cl := soc.NewCluster("cl0", salam.ClusterOpts{SharedSPMBytes: 64 << 10})
	node, err := cl.AddAccel("relu", salam.AccelBuild{F: kernels.ReLU(n).F,
		Opts: salam.AccelOpts{SharedSPM: cl.SharedSPM}})
	if err != nil {
		t.Fatal(err)
	}
	const dramIn, dramOut, bytes = 0x1000, 0x2000, n * 8
	spmIn := cl.SharedSPM.Range().Base
	spmOut := spmIn + bytes
	dmaBase := cl.DMA.MMR.Range().Base

	run := func() [3]uint64 {
		for i, v := range vals {
			soc.Space.WriteF64(dramIn+uint64(i*8), v)
		}
		var tEnd sim.Tick
		var prog []salam.DriverOp
		prog = append(prog, salam.StartDMA(dmaBase, dramIn, spmIn, bytes, 128, true)...)
		prog = append(prog, salam.WaitIRQ{Line: cl.DMAIRQ})
		prog = append(prog, salam.StartAccel(node.MMRBase, []uint64{spmIn, spmOut}, true)...)
		prog = append(prog, salam.WaitIRQ{Line: node.IRQLine})
		prog = append(prog, salam.StartDMA(dmaBase, spmOut, dramOut, bytes, 128, true)...)
		prog = append(prog, salam.WaitIRQ{Line: cl.DMAIRQ})
		// Read the input back: served by the LLC lines the first DMA filled.
		prog = append(prog, salam.StartDMA(dmaBase, dramIn, spmIn, bytes, 128, true)...)
		prog = append(prog, salam.WaitIRQ{Line: cl.DMAIRQ})
		prog = append(prog, salam.Stamp(soc, &tEnd))
		if _, err := soc.RunHost(prog); err != nil {
			t.Fatal(err)
		}
		soc.Run()
		for i, w := range want {
			if got := soc.Space.ReadF64(dramOut + uint64(i*8)); got != w {
				t.Fatalf("out[%d] = %g, want %g", i, got, w)
			}
		}
		return [3]uint64{uint64(tEnd), uint64(soc.Q.Now()), soc.Q.Fired()}
	}
	return soc, run
}

// warmTopologies are the systems the warm-start and registry tests walk:
// the streaming pipeline, a cluster behind an LLC, and a config-built SoC.
var warmTopologies = []struct {
	name  string
	build func(*testing.T) (*salam.SoC, func() [3]uint64)
}{
	{"stream", streamSoC},
	{"llc-cluster", llcClusterSoC},
	{"cnn_cluster.json", clusterConfigSoC},
}

// TestSoCWarmStartStreaming is the warm-start regression: every topology
// — stream buffers, stream windows, block DMA, crossbars, GIC, host, a
// cluster's local crossbar and DMA, the LLC — must replay its driver
// program after SoC.Reset with a byte-identical schedule and statistics to
// a freshly built system. Any device missing from the registry, or whose
// Reset contract is incomplete (stale FIFO bytes, a latched DMA busy bit,
// queued crossbar requests, pending GIC lines, warm LLC tags), shifts the
// fingerprint.
func TestSoCWarmStartStreaming(t *testing.T) {
	dump := func(s *salam.SoC) string {
		var sb strings.Builder
		s.Stats.Dump(&sb)
		return sb.String()
	}
	for _, tc := range warmTopologies {
		t.Run(tc.name, func(t *testing.T) {
			coldSoC, coldRun := tc.build(t)
			cold := coldRun()
			coldStats := dump(coldSoC)

			warmSoC, warmRun := tc.build(t)
			first := warmRun()
			if first != cold {
				t.Fatalf("two fresh SoCs diverged: %v vs %v", first, cold)
			}
			for i := 0; i < 2; i++ {
				warmSoC.Reset()
				got := warmRun()
				if got != cold {
					t.Fatalf("warm run %d fingerprint = %v, cold = %v", i+1, got, cold)
				}
				if s := dump(warmSoC); s != coldStats {
					t.Fatalf("warm run %d stats dump diverged from cold run:\nwarm:\n%s\ncold:\n%s", i+1, s, coldStats)
				}
			}
		})
	}
}

// TestSoCWarmStartTraced: SoC.Reset with a timeline attached — the traced
// warm replay must still match the untraced cold fingerprint, and lanes
// registered at construction must survive the reset.
func TestSoCWarmStartTraced(t *testing.T) {
	coldSoC, coldRun := streamSoC(t)
	cold := coldRun()
	_ = coldSoC

	soc, run := streamSoC(t)
	rec := timeline.NewBreakdown()
	soc.SetTimeline(rec)
	if got := run(); got != cold {
		t.Fatalf("traced fresh run fingerprint = %v, cold = %v", got, cold)
	}
	soc.Reset()
	if got := run(); got != cold {
		t.Fatalf("traced warm run fingerprint = %v, cold = %v", got, cold)
	}
	if rec.Total("dma", "transfer") == 0 {
		// The breakdown only counts Cycle() records; DMA lanes carry
		// slices, so check an engine lane instead for liveness.
		if rec.Total("conv", "engine") == 0 {
			t.Fatal("timeline recorded nothing across warm restart")
		}
	}

	// Every device registers lanes, including the ones a cluster and
	// EnableLLC construct.
	soc, _ = llcClusterSoC(t)
	soc.SetTimeline(rec)
	for _, lane := range [][2]string{{"llc", "access"}, {"cl0.xbar", "route"}, {"cl0.dma", "transfer"}} {
		if _, ok := rec.Counts(lane[0], lane[1]); !ok {
			t.Errorf("SetTimeline registered no %s/%s lane", lane[0], lane[1])
		}
	}
}
