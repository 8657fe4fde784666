package salam

// Warm-start simulation reuse: a Session is a pooled single-accelerator
// system that can run many design points without being reconstructed. It
// sits on the same system core as an SoC (system.go): the static CDFG comes
// from the shared elaboration cache; everything dynamic (event queue,
// stats, backing store, and every registered device) is rewound by the
// core's one reset between runs, so a warm run is byte-identical to a cold
// one — the golden determinism suite holds over both. Campaign workers keep
// sessions in a SessionPool and re-run the next design point in place
// instead of reallocating a system per job.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"gosalam/internal/core"
	"gosalam/internal/hw"
	"gosalam/internal/mem"
	"gosalam/internal/sim"
	"gosalam/ir"
	"gosalam/kernels"
)

// sessionKey is the structural configuration of a single-accelerator
// system: everything NewSession bakes into component geometry or clock
// domains. Design points that differ only in tunable knobs — FU limits,
// port counts, queue sizes, SPM latency/ports, cache MSHRs, SkipCheck,
// profiling — share a key and can reuse one Session.
type sessionKey struct {
	k                                 *kernels.Kernel
	profile                           *hw.Profile
	seed                              int64
	mem                               MemKind
	clockMHz                          float64
	spmBanks                          int
	cacheBytes, cacheLine, cacheAssoc int
}

// structuralKey derives the session key for a run request.
func structuralKey(k *kernels.Kernel, opts RunOpts) sessionKey {
	profile := opts.Profile
	if profile == nil {
		profile = defaultProfile
	}
	key := sessionKey{
		k: k, profile: profile, seed: opts.Seed,
		mem: opts.Mem, clockMHz: opts.Accel.ClockMHz,
	}
	switch opts.Mem {
	case MemSPM:
		key.spmBanks = opts.SPMBanks
	case MemCache:
		key.cacheBytes = opts.CacheBytes
		key.cacheLine = opts.CacheLine
		key.cacheAssoc = opts.CacheAssoc
	}
	return key
}

// Session is a reusable single-accelerator system. It is not safe for
// concurrent use; share sessions across goroutines through a SessionPool.
type Session struct {
	key     sessionKey
	k       *kernels.Kernel
	profile *hw.Profile

	sys       system
	spaceSize int
	acc       *core.Accelerator
	// spm or cache is the accelerator's memory, by the key's memory kind;
	// the other stays nil.
	spm   *mem.Scratchpad
	cache *mem.Cache

	runs   uint64
	broken bool

	// Mid-run state shared by begin/finish so a run can be split around a
	// checkpoint: the live workload instance, the completion latch, and the
	// configuration fingerprint that stamps images taken from this run.
	inst    *kernels.Instance
	runDone bool
	fp      string

	// testHookReconfigure, when set, runs inside begin between retuning
	// and the warm rewind — test-only, for poisoning regression coverage.
	testHookReconfigure func()
}

// NewSession builds the system for k once. The opts fix the session's
// structural configuration (kernel, profile, seed, memory kind and
// geometry, clock); the tunable knobs passed to each Run may differ.
func NewSession(k *kernels.Kernel, opts RunOpts) (*Session, error) {
	profile := opts.Profile
	if profile == nil {
		profile = defaultProfile
	}
	// Validate the static configuration before building anything.
	g, err := core.SharedElab.Elaborate(k.F, profile, opts.Accel.FULimits)
	if err != nil {
		return nil, err
	}

	s := &Session{
		key:     structuralKey(k, opts),
		k:       k,
		profile: profile,
	}
	s.spaceSize = spaceSizeFor(k, opts.Seed)
	s.sys = system{
		Q:     sim.NewEventQueue(),
		Space: ir.NewFlatMem(0, s.spaceSize),
		Stats: sim.NewGroup("system"),
	}
	q, space, stats := s.sys.Q, s.sys.Space, s.sys.Stats
	memClk := sim.NewClockDomainMHz("memclk", opts.Accel.ClockMHz)
	comm := core.NewCommInterface(k.Name+".comm", q, memClk, 0xF0000000, len(k.F.Params), stats)

	rng := mem.AddrRange{Base: 0, Size: uint64(s.spaceSize)}
	switch opts.Mem {
	case MemSPM:
		s.spm = register(&s.sys, mem.NewScratchpad(k.Name+".spm", q, memClk, space, rng,
			opts.SPMLatency, opts.SPMBanks, opts.SPMPortsPer, stats))
		comm.AttachLocal(s.spm)
	case MemCache:
		dram := register(&s.sys, mem.NewDRAM(k.Name+".dram", q, memClk, space, rng, stats))
		s.cache = register(&s.sys, mem.NewCache(k.Name+".l1", q, memClk, space, rng, dram,
			opts.CacheBytes, opts.CacheLine, opts.CacheAssoc, 2, opts.CacheMSHRs, stats))
		comm.AttachGlobal(s.cache)
	default:
		return nil, fmt.Errorf("salam: unknown memory kind %d", opts.Mem)
	}

	// The accelerator node (engine + comm) is one component.
	s.acc = register(&s.sys, core.NewAccelerator(k.Name, q, g, opts.Accel, comm, stats))
	return s, nil
}

// Reusable reports whether the session can run the given request: the
// structural configuration matches and no earlier run was abandoned
// mid-simulation.
func (s *Session) Reusable(k *kernels.Kernel, opts RunOpts) bool {
	return !s.broken && structuralKey(k, opts) == s.key
}

// Runs returns how many runs the session has completed or attempted.
func (s *Session) Runs() uint64 { return s.runs }

// Run simulates one design point in the pooled system. The first run uses
// the freshly built components; later runs rewind them through the system
// core's reset first, so results are byte-identical to a cold RunKernel
// with the same options.
func (s *Session) Run(opts RunOpts) (*Result, error) {
	return s.run(opts, nil)
}

// RunCtx is Run with the cooperative cancellation of RunKernelCtx.
func (s *Session) RunCtx(ctx context.Context, opts RunOpts) (*Result, error) {
	return runWithCtx(ctx, s.k.Name, func(stop func() bool) (*Result, error) {
		return s.run(opts, stop)
	})
}

func (s *Session) run(opts RunOpts, stop func() bool) (*Result, error) {
	if opts.Sample.Enabled() {
		return s.runSampled(opts, stop)
	}
	if err := s.begin(opts); err != nil {
		return nil, err
	}
	s.acc.Start(s.inst.Args)
	return s.finish(opts, stop)
}

// begin is the warm prologue shared by Run, RunToCycle and Restore: it
// validates the request, rewinds all dynamic state, applies the design
// point, and sets up the workload — everything up to (but not including)
// starting the accelerator.
func (s *Session) begin(opts RunOpts) error {
	if s.broken {
		return fmt.Errorf("salam: session for %s poisoned by an abandoned run", s.k.Name)
	}
	if key := structuralKey(s.k, opts); key != s.key {
		return fmt.Errorf("salam: session for %s cannot run a structurally different configuration", s.k.Name)
	}
	g, err := core.SharedElab.Elaborate(s.k.F, s.profile, opts.Accel.FULimits)
	if err != nil {
		return err
	}

	// From here on the session's dynamic state is being rewritten; any
	// error or panic below — including one raised while retuning or inside
	// the warm rewind — leaves it mid-flight. The session stays unusable
	// until the flag is cleared on success; pools drop broken sessions
	// instead of recycling them.
	s.broken = true

	// Apply the design point first — swap in the (shared) CDFG and retune
	// the knobs the structural key does not pin — so the rewind below arms
	// every device once, for the new knobs.
	s.acc.Retune(g, opts.Accel)
	switch s.key.mem {
	case MemSPM:
		s.spm.Retune(opts.SPMLatency, opts.SPMPortsPer)
	case MemCache:
		s.cache.Retune(opts.CacheMSHRs)
	}
	if s.testHookReconfigure != nil {
		s.testHookReconfigure()
	}
	if s.runs > 0 {
		// Warm start: rewind all dynamic state to the cold zero state.
		s.sys.reset()
	} else {
		// A fresh system is already there, except that the engine is sized
		// for the constructor's design point.
		s.acc.Reset()
	}
	s.runs++
	if opts.ProfileCycles > 0 {
		s.acc.EnableProfile(opts.ProfileCycles)
	}
	// Attach (or detach, when nil) the timeline recorder per run: the
	// engine's FU lanes follow the design point, so attachment must come
	// after it is armed, and a pooled session must not leak one job's
	// recorder into the next.
	s.sys.setTimeline(opts.Timeline)

	s.inst = s.k.Setup(s.sys.Space, opts.Seed)
	s.fp = fingerprintFor(s.k, opts, s.spaceSize)
	s.runDone = false
	s.acc.OnDone = func() { s.runDone = true }
	return nil
}

// finish is the epilogue shared by Run and Resume: it runs the event loop
// to kernel completion, drains trailing events, verifies the output, and
// assembles the Result.
func (s *Session) finish(opts RunOpts, stop func() bool) (*Result, error) {
	res := &Result{Stats: s.sys.Stats, Instance: s.inst, Space: s.sys.Space, Acc: s.acc, SPM: s.spm, Cache: s.cache}

	s.sys.Q.RunWhile(func() bool { return !s.runDone && (stop == nil || !stop()) })
	if !s.runDone {
		if stop != nil && stop() {
			return nil, fmt.Errorf("salam: %s canceled", s.k.Name)
		}
		return nil, fmt.Errorf("salam: %s did not finish (deadlock?)", s.k.Name)
	}
	s.sys.Q.Run() // drain trailing events (writebacks etc.)

	if !opts.SkipCheck {
		if err := s.inst.Check(s.sys.Space); err != nil {
			return nil, fmt.Errorf("salam: %s output mismatch: %w", s.k.Name, err)
		}
	}
	s.broken = false
	res.Cycles = s.acc.LastKernelCycles()
	res.Ticks = s.sys.Q.Now()
	res.EventsFired = s.sys.Q.Fired()
	res.Power = s.acc.Power(res.SPM, res.Ticks)
	return res, nil
}

// runUntil advances a begun, started session until pred reports true or
// the kernel completes, stopping at an event boundary. It reports whether
// the kernel completed.
func (s *Session) runUntil(pred func() bool) bool {
	s.sys.Q.RunWhile(func() bool { return !s.runDone && !pred() })
	return s.runDone
}

// RunToCycle starts a run like Run but pauses it at the first event
// boundary at or after the given accelerator cycle, leaving the session
// mid-run for Checkpoint. It reports whether the kernel already finished
// before the target cycle. Either way the run is completed (and the
// session healed) by Resume.
func (s *Session) RunToCycle(opts RunOpts, cycle uint64) (finished bool, err error) {
	if err := s.begin(opts); err != nil {
		return false, err
	}
	s.acc.Start(s.inst.Args)
	return s.runUntil(func() bool { return s.acc.Cycles >= cycle }), nil
}

// Resume completes a run left mid-flight by RunToCycle or landed by
// Restore: it runs the kernel to completion and returns the Result, with
// the same output verification as Run. opts must be the options the run
// began with.
func (s *Session) Resume(opts RunOpts) (*Result, error) {
	if s.inst == nil || !s.broken {
		return nil, fmt.Errorf("salam: session for %s has no run in progress to resume", s.k.Name)
	}
	return s.finish(opts, nil)
}

// SessionPool keeps idle Sessions keyed by structural configuration so
// concurrent sweep workers can reuse pooled systems across design points.
// Acquire removes a session from the pool and release returns it, so a
// worker that panics or errors mid-run simply never returns the session —
// a dirty system can never be handed to another job.
type SessionPool struct {
	mu      sync.Mutex
	idle    map[sessionKey][]*Session
	reused  atomic.Uint64
	created atomic.Uint64
}

// NewSessionPool returns an empty pool.
func NewSessionPool() *SessionPool {
	return &SessionPool{idle: map[sessionKey][]*Session{}}
}

// Stats reports how many runs reused a pooled session and how many had to
// build one.
func (p *SessionPool) Stats() (reused, created uint64) {
	return p.reused.Load(), p.created.Load()
}

func (p *SessionPool) acquire(k *kernels.Kernel, opts RunOpts) (*Session, error) {
	key := structuralKey(k, opts)
	p.mu.Lock()
	if ss := p.idle[key]; len(ss) > 0 {
		s := ss[len(ss)-1]
		p.idle[key] = ss[:len(ss)-1]
		p.mu.Unlock()
		p.reused.Add(1)
		return s, nil
	}
	p.mu.Unlock()
	p.created.Add(1)
	return NewSession(k, opts)
}

func (p *SessionPool) release(s *Session) {
	// Belt and suspenders: callers already skip release on error, but a
	// session that reports itself broken (abandoned run, panic inside the
	// warm rewind or Reconfigure, sampled run left mid-flight) must never
	// rejoin the pool regardless of how it got here.
	if s.broken {
		return
	}
	p.mu.Lock()
	p.idle[s.key] = append(p.idle[s.key], s)
	p.mu.Unlock()
}

// RunCtx runs one design point on a pooled session, building one on first
// use of a structural configuration. The session returns to the pool only
// after a fully successful run; cancellation, simulation errors, and
// panics all drop it, so fault isolation is preserved.
//
// The returned Result aliases the live session (Acc, SPM, Stats, Space
// point into pooled state that the next run on the session will rewind);
// read what you need before triggering another run, or run cold when the
// Result must outlive the sweep.
func (p *SessionPool) RunCtx(ctx context.Context, k *kernels.Kernel, opts RunOpts) (*Result, error) {
	return p.RunCtxWith(ctx, k, opts, nil)
}

// RunCtxWith is RunCtx with a read hook that runs while the session is
// still held: the hook is the only safe place to read Result fields that
// alias pooled state (Stats, Cache counters, SPM contents), because once
// the session is back in the pool a concurrent job may acquire it and
// rewind exactly that state. The session is released after the hook
// returns; a hook panic leaves the session out of the pool, preserving
// fault isolation.
func (p *SessionPool) RunCtxWith(ctx context.Context, k *kernels.Kernel, opts RunOpts, then func(*Result)) (*Result, error) {
	s, err := p.acquire(k, opts)
	if err != nil {
		return nil, err
	}
	res, err := s.RunCtx(ctx, opts)
	if err == nil {
		if then != nil {
			then(res)
		}
		p.release(s)
	}
	return res, err
}
