package salam_test

// Warm-start reuse tests: a Session that re-runs design points in a pooled
// system must produce results byte-identical to cold RunKernel calls, and
// the shared elaboration cache must hand every identical configuration the
// same immutable CDFG.

import (
	"context"
	"testing"

	salam "gosalam"
	"gosalam/kernels"
)

// sessionSweepOpts returns three design points that share one structural
// configuration (same kernel/seed/mem/banks/clock) but differ in every
// tunable knob a sweep would move: FU limits, ports, queue sizes, SPM
// latency/ports.
func sessionSweepOpts() []salam.RunOpts {
	a := salam.DefaultRunOpts()
	a.Accel.FULimits = map[salam.FUClass]int{salam.FUFPAdder: 2, salam.FUFPMultiplier: 2}

	b := salam.DefaultRunOpts()
	b.Accel.ReadPorts, b.Accel.WritePorts = 8, 8
	b.Accel.MaxOutstanding = 32
	b.Accel.ResQueueSize = 512
	b.SPMPortsPer = 8
	b.SPMLatency = 1

	c := salam.DefaultRunOpts()
	c.Accel.FULimits = map[salam.FUClass]int{salam.FUFPAdder: 8, salam.FUFPMultiplier: 8}
	c.Accel.ConservativeMemOrder = true
	return []salam.RunOpts{a, b, c}
}

type runPoint struct {
	cycles uint64
	ticks  uint64
	events uint64
}

func pointOf(res *salam.Result) runPoint {
	return runPoint{cycles: res.Cycles, ticks: uint64(res.Ticks), events: res.EventsFired}
}

// TestSessionWarmMatchesCold runs a sweep through one warm Session and
// checks every point — including re-running the first configuration after
// the system has been reused — against a cold RunKernel of the same
// options. Cycle counts, total ticks, and the event-count fingerprint must
// all be byte-identical, which is the reset contract the golden suite
// enforces for the cold path.
func TestSessionWarmMatchesCold(t *testing.T) {
	k := kernels.GEMMTree(8)
	sweep := sessionSweepOpts()
	sweep = append(sweep, sweep[0]) // revisit the first point warm

	s, err := salam.NewSession(k, sweep[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, opts := range sweep {
		warm, err := s.Run(opts)
		if err != nil {
			t.Fatalf("warm run %d: %v", i, err)
		}
		cold, err := salam.RunKernel(k, opts)
		if err != nil {
			t.Fatalf("cold run %d: %v", i, err)
		}
		if got, want := pointOf(warm), pointOf(cold); got != want {
			t.Fatalf("run %d: warm %+v != cold %+v", i, got, want)
		}
	}
	if s.Runs() != uint64(len(sweep)) {
		t.Fatalf("session ran %d times, want %d", s.Runs(), len(sweep))
	}
}

// TestSessionWarmMatchesColdCache exercises the cache/DRAM reset path: a
// warm re-run must observe the cold-miss behaviour of a fresh cache.
func TestSessionWarmMatchesColdCache(t *testing.T) {
	k := kernels.GEMM(8, 1)
	opts := salam.DefaultRunOpts()
	opts.Mem = salam.MemCache

	s, err := salam.NewSession(k, opts)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := salam.RunKernel(k, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		warm, err := s.Run(opts)
		if err != nil {
			t.Fatalf("warm run %d: %v", i, err)
		}
		if got, want := pointOf(warm), pointOf(cold); got != want {
			t.Fatalf("warm run %d: %+v != cold %+v", i, got, want)
		}
	}
}

// TestSessionRejectsStructuralMismatch: a session must refuse design
// points that change baked-in geometry instead of producing wrong numbers.
func TestSessionRejectsStructuralMismatch(t *testing.T) {
	k := kernels.GEMM(8, 1)
	opts := salam.DefaultRunOpts()
	s, err := salam.NewSession(k, opts)
	if err != nil {
		t.Fatal(err)
	}
	other := opts
	other.SPMBanks = opts.SPMBanks * 2
	if s.Reusable(k, other) {
		t.Fatal("session claims to be reusable across a bank-count change")
	}
	if _, err := s.Run(other); err == nil {
		t.Fatal("session ran a structurally different configuration")
	}
	if !s.Reusable(k, opts) {
		t.Fatal("structural rejection must not poison the session")
	}
	if _, err := s.Run(opts); err != nil {
		t.Fatalf("matching run after rejection: %v", err)
	}
}

// TestSessionPoolReuse: the pool reuses one system for a sequential sweep
// and never hands out a session dropped by a failed run.
func TestSessionPoolReuse(t *testing.T) {
	k := kernels.GEMMTree(8)
	pool := salam.NewSessionPool()
	for _, opts := range sessionSweepOpts() {
		if _, err := pool.RunCtx(context.Background(), k, opts); err != nil {
			t.Fatal(err)
		}
	}
	reused, created := pool.Stats()
	if created != 1 || reused != 2 {
		t.Fatalf("pool stats reused=%d created=%d, want 2/1", reused, created)
	}

	// A canceled run must drop its session rather than recycle it dirty.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pool.RunCtx(ctx, k, salam.DefaultRunOpts()); err == nil {
		t.Fatal("canceled run succeeded")
	}
	if _, err := pool.RunCtx(context.Background(), k, salam.DefaultRunOpts()); err != nil {
		t.Fatalf("pool run after canceled job: %v", err)
	}
}

// TestElabCacheSharesCDFG: identical configurations must resolve to the
// same immutable CDFG object, and the hit counter must move.
func TestElabCacheSharesCDFG(t *testing.T) {
	k := kernels.FFT(64)
	limits := map[salam.FUClass]int{salam.FUFPAdder: 4}
	g1, err := salam.Elaborate(k.F, nil, limits)
	if err != nil {
		t.Fatal(err)
	}
	h0, _ := salam.ElabCacheStats()
	g2, err := salam.Elaborate(k.F, nil, map[salam.FUClass]int{salam.FUFPAdder: 4})
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("identical configurations elaborated to distinct CDFGs")
	}
	h1, _ := salam.ElabCacheStats()
	if h1 != h0+1 {
		t.Fatalf("hit counter moved %d -> %d, want +1", h0, h1)
	}
}

// TestWarmRunAllocs guards the steady-state engine: a warm GEMM Session.Run
// allocates for the run's bookkeeping (result, workload instance, power
// report) and nothing per cycle, per dynamic op or per queue slot. A
// per-evaluation allocation — the GEP stride slice was one — costs
// thousands here.
func TestWarmRunAllocs(t *testing.T) {
	k := kernels.GEMM(8, 1)
	opts := salam.DefaultRunOpts()
	s, err := salam.NewSession(k, opts)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := s.Run(opts); err != nil {
			t.Fatal(err)
		}
	}
	run() // cold: grows the op pool, the sets and the event arena
	allocs := testing.AllocsPerRun(5, run)
	t.Logf("warm GEMM run: %.0f allocs", allocs)
	if allocs > 32 {
		t.Fatalf("warm GEMM run allocates %.0f times, want at most 32", allocs)
	}
}
