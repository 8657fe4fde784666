// Package campaign runs many independent accelerator simulations as one
// batch: the paper's design-space-exploration workflow (Sec. IV-D,
// Figs. 13-15) is a sweep of hundreds of deterministic single-accelerator
// runs, and this package owns "run many simulations" as a first-class
// concern the way a serving stack owns a job queue.
//
// The engine is a fixed worker pool draining a job queue. Results flow
// through a channel into an ordered collector, so Run always returns
// outcomes in submission order regardless of completion order — a parallel
// sweep renders byte-identical CSV to a serial one. Each job is fault
// isolated: a panicking simulation becomes that job's error (not a crashed
// campaign), and a per-job timeout cancels a runaway via context without
// sinking its siblings. An optional content-addressed cache persists each
// job's metrics as JSON keyed by the hash of the kernel identity and run
// options, so re-running a sweep after editing one knob only simulates the
// changed points.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	salam "gosalam"
	"gosalam/internal/sim"
	"gosalam/kernels"
)

// Job is one simulation in a campaign.
type Job struct {
	// ID is a human-readable label for progress lines ("fig13 spm fu=4 p=8").
	ID string
	// Kernel is the accelerator workload to simulate.
	Kernel *kernels.Kernel
	// KernelKey identifies the kernel's construction for cache keying
	// (name plus size/preset, e.g. "gemm_tree/n=8"). Two jobs with equal
	// KernelKey and equal Opts must be the same simulation. Empty falls
	// back to Kernel.Name, which is only safe when the name pins the size.
	KernelKey string
	// Opts configures the run; part of the cache key.
	Opts salam.RunOpts
	// Timeout overrides Config.Timeout for this job (0 = inherit).
	Timeout time.Duration
	// Probe extracts derived metrics from a live result (occupancies,
	// stall fractions, ...) into Metrics.Extra so they survive caching.
	// It runs on the worker goroutine right after a successful simulation.
	Probe func(*salam.Result) map[string]float64
	// ProbeKey versions the Probe computation in the cache key; bump it
	// when the probe's meaning changes so stale extras are not replayed.
	ProbeKey string
}

// Metrics is the JSON-serializable projection of a run that the cache
// stores and every sweep consumer reads: core timing/power plus the job
// probe's derived values.
type Metrics struct {
	Cycles uint64            `json:"cycles"`
	Ticks  sim.Tick          `json:"ticks"`
	Power  salam.PowerReport `json:"power"`
	// Extra holds the job Probe's derived metrics (may be nil).
	Extra map[string]float64 `json:"extra,omitempty"`
	// Estimated marks Cycles as an interval-sampling extrapolation
	// (RunOpts.Sample) with the given relative ErrorBound. Estimated
	// metrics never anchor pruning or best-point election: both rely on
	// exact cycle comparisons.
	Estimated  bool    `json:"estimated,omitempty"`
	ErrorBound float64 `json:"error_bound,omitempty"`
}

// Outcome is one job's result, delivered in submission order.
type Outcome struct {
	// Index is the job's position in the submitted slice.
	Index int
	// Job echoes the spec that produced this outcome.
	Job Job
	// Metrics is non-nil on success (fresh or cached).
	Metrics *Metrics
	// Result is the live simulation result; nil on error, on a cache hit,
	// and under warm-start reuse (the default), where the live result
	// aliases a pooled system the next job will rewind — consume live
	// state through Job.Probe, or set Config.ColdStart to keep Results.
	Result *salam.Result
	// Err is non-nil when the job failed (simulation error, panic, or
	// timeout); sibling jobs are unaffected.
	Err error
	// Cached marks a cache hit (no simulation ran).
	Cached bool
	// Skipped marks a job this process did not own under Config.Shard:
	// another shard pointed at the same Store simulates it. No simulation
	// ran and Metrics is nil; MergeRows (or salam-serve -merge) reassembles
	// the full sweep from the shared store afterwards.
	Skipped bool
	// Wall is the job's wall-clock time on the worker.
	Wall time.Duration
}

// ErrDrained marks a job that was never handed to a worker because
// Config.Drain closed first — the caller shed it gracefully rather than
// failing it. Resubmitting the same job later is always safe.
var ErrDrained = errors.New("campaign: drained before this job started")

// PanicError wraps a panic recovered from a simulation so one crashed job
// cannot sink the campaign.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("simulation panicked: %v", e.Value)
}

// Runner simulates one job; the default wraps salam.RunKernelCtx.
// Tests inject counting, panicking, or slow runners through Config.Runner.
type Runner func(ctx context.Context, k *kernels.Kernel, opts salam.RunOpts) (*salam.Result, error)

// Config parameterizes a campaign.
type Config struct {
	// Workers sizes the pool (<=0 means GOMAXPROCS).
	Workers int
	// Timeout is the default per-job timeout (0 = none).
	Timeout time.Duration
	// Cache enables content-addressed result caching (nil = off). The
	// standard backend is the filesystem Cache (OpenCache), whose atomic
	// writes make one directory safe to share across processes.
	Cache Store
	// Progress receives per-job completion events from the collector
	// goroutine (nil = silent). Events arrive in completion order.
	Progress Reporter
	// Stats, when non-nil, gets a "campaign" child group with job
	// counters wired into the existing sim stats framework. Runs that
	// share one group add into the same counters.
	Stats *sim.Group
	// Runner overrides the simulation function (nil = warm-start pooled
	// sessions, or salam.RunKernelCtx when ColdStart is set).
	Runner Runner
	// ColdStart disables warm-start session reuse for the default runner:
	// every job builds its system from scratch (the pre-reuse behaviour)
	// and Outcome.Result stays populated.
	ColdStart bool
	// Sessions, when non-nil, is the session pool warm-started jobs draw
	// from. Share one pool across campaigns to start later sweeps warm;
	// nil creates a pool scoped to the Run call. Ignored with ColdStart
	// or a custom Runner.
	Sessions *salam.SessionPool
	// Shard, when non-nil, restricts this Run to the jobs it owns: a job
	// is simulated only when its content-addressed key (JobKey) maps to
	// Shard.Index under ShardOf; every other job resolves immediately with
	// Outcome.Skipped set. Ownership is a pure function of job content and
	// (Index, Count), so n processes configured as shards 0..n-1 over one
	// job list partition it exactly — zero duplicated simulation — and a
	// shared Store plus MergeRows reassembles the full sweep byte-
	// identically.
	Shard *Shard
	// Drain, when non-nil, is a soft stop: once it is closed, jobs not yet
	// handed to a worker resolve with ErrDrained while in-flight jobs run
	// to completion (and persist to the cache) — the graceful-shutdown
	// half of the ctx story, which by contrast cancels in-flight work too.
	Drain <-chan struct{}
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// jobRunner executes one job and its probe as a unit. The probe runs at a
// point where the Result's pooled aliases are still safe to read — for the
// warm path that means while the session is held, before it returns to the
// pool (a probe that ran after release raced the next job's warm-start
// state rewind on the same session).
type jobRunner func(ctx context.Context, job Job) (res *salam.Result, extra map[string]float64, err error)

// probeAfter runs the probe once the runner returned — correct for cold
// and custom runners, whose Results alias nothing shared.
func probeAfter(run Runner) jobRunner {
	return func(ctx context.Context, job Job) (*salam.Result, map[string]float64, error) {
		res, err := run(ctx, job.Kernel, job.Opts)
		if err != nil || job.Probe == nil {
			return res, nil, err
		}
		return res, job.Probe(res), nil
	}
}

// runner resolves the effective simulation function. The default is
// warm-start reuse through a session pool: each job runs in a pooled
// system whose static CDFG comes from the shared elaboration cache and
// whose dynamic state is rewound between design points. The returned pool
// is non-nil only when warm start is active (for reuse stats); transient
// reports whether live Results alias pooled state and must not escape.
func (c Config) runner() (run jobRunner, pool *salam.SessionPool, transient bool) {
	if c.Runner != nil {
		return probeAfter(c.Runner), nil, false
	}
	if c.ColdStart {
		return probeAfter(func(ctx context.Context, k *kernels.Kernel, opts salam.RunOpts) (*salam.Result, error) {
			return salam.RunKernelCtx(ctx, k, opts)
		}), nil, false
	}
	pool = c.Sessions
	if pool == nil {
		pool = salam.NewSessionPool()
	}
	return func(ctx context.Context, job Job) (*salam.Result, map[string]float64, error) {
		var extra map[string]float64
		res, err := pool.RunCtxWith(ctx, job.Kernel, job.Opts, func(r *salam.Result) {
			if job.Probe != nil {
				extra = job.Probe(r)
			}
		})
		return res, extra, err
	}, pool, true
}

// counters is the campaign-level stat group (updated only on the
// collector goroutine, so plain sim scalars are safe).
type counters struct {
	total, ok, failed, cached *sim.Scalar
	reused, built             *sim.Scalar
	skipped, simulated        *sim.Scalar
	wallMS                    *sim.Distribution
}

// newCounters registers the counters in root's "campaign" group, or
// returns the ones an earlier Run over the same group registered.
func newCounters(root *sim.Group) *counters {
	if root == nil {
		return nil
	}
	g := root.Child("campaign")
	scalar := func(name, desc string) *sim.Scalar {
		if s, ok := g.Stat(name).(*sim.Scalar); ok {
			return s
		}
		return g.Scalar(name, desc)
	}
	c := &counters{
		total:     scalar("jobs", "jobs submitted"),
		ok:        scalar("jobs_ok", "jobs completed successfully"),
		failed:    scalar("jobs_failed", "jobs that errored, panicked, or timed out"),
		cached:    scalar("jobs_cached", "jobs served from the result cache"),
		reused:    scalar("sessions_reused", "warm-start runs on a pooled system"),
		built:     scalar("sessions_built", "runs that had to build a system"),
		skipped:   scalar("points_skipped", "design points owned by another shard"),
		simulated: scalar("jobs_simulated", "jobs that actually ran a simulation (not cached or skipped)"),
	}
	var ok bool
	if c.wallMS, ok = g.Stat("job_wall_ms").(*sim.Distribution); !ok {
		c.wallMS = g.Distribution("job_wall_ms", "per-job wall-clock (ms)")
	}
	return c
}

func (c *counters) observe(o Outcome) {
	if c == nil {
		return
	}
	switch {
	case o.Skipped:
		c.skipped.Inc(1)
		return // another shard's job: nothing ran here
	case o.Err != nil:
		c.failed.Inc(1)
	case o.Cached:
		c.cached.Inc(1)
		c.ok.Inc(1)
	default:
		c.ok.Inc(1)
		c.simulated.Inc(1)
	}
	c.wallMS.Sample(float64(o.Wall) / float64(time.Millisecond))
}

// Run executes jobs on the worker pool and returns their outcomes in
// submission order. Run never returns an error itself: per-job failures
// are recorded in the corresponding Outcome.Err, and FirstError scans for
// callers that want fail-on-any semantics. Canceling ctx stops feeding new
// jobs and cancels in-flight ones; their outcomes carry the context error.
func Run(ctx context.Context, cfg Config, jobs []Job) []Outcome {
	if ctx == nil {
		ctx = context.Background()
	}
	outcomes := make([]Outcome, len(jobs))
	if len(jobs) == 0 {
		return outcomes
	}
	stats := newCounters(cfg.Stats)
	if stats != nil {
		stats.total.Inc(float64(len(jobs)))
	}
	if cfg.Progress != nil {
		cfg.Progress.Start(len(jobs))
	}
	run, pool, transient := cfg.runner()
	var poolReused0, poolCreated0 uint64
	if pool != nil {
		poolReused0, poolCreated0 = pool.Stats()
	}

	// deliver records one resolved outcome; every job passes through here
	// exactly once, whether it ran on a worker or belonged to another
	// shard.
	done := 0
	deliver := func(o Outcome) {
		outcomes[o.Index] = o
		done++
		stats.observe(o)
		if cfg.Progress != nil {
			cfg.Progress.JobDone(o, done, len(jobs))
		}
	}

	resolved := make([]bool, len(jobs))

	// Shard filter: resolve jobs owned by other shards before anything can
	// simulate. Ownership is content-addressed (ShardOf over JobKey), so
	// the partition is identical in every process regardless of worker
	// count or scheduling. A job that cannot be keyed belongs to shard 0,
	// so exactly one shard reports its keying error.
	if cfg.Shard != nil && cfg.Shard.Count > 1 {
		for i, j := range jobs {
			owner := 0
			if key, err := JobKey(j); err == nil {
				owner = ShardOf(key, cfg.Shard.Count)
			}
			if owner != cfg.Shard.Index {
				resolved[i] = true
				deliver(Outcome{Index: i, Job: j, Skipped: true})
			}
		}
	}

	type item struct {
		idx int
		job Job
	}
	work := make(chan item)
	results := make(chan Outcome)

	var wg sync.WaitGroup
	for w := 0; w < cfg.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range work {
				results <- runJob(ctx, cfg, run, transient, it.idx, it.job)
			}
		}()
	}
	go func() {
		defer close(work)
		var drain <-chan struct{} // nil channel: select case never fires
		if cfg.Drain != nil {
			drain = cfg.Drain
		}
		// fail resolves every not-yet-submitted job with err; in-flight
		// jobs are untouched and still deliver their own outcomes.
		fail := func(from int, err error) {
			for k := from; k < len(jobs); k++ {
				if !resolved[k] {
					results <- Outcome{Index: k, Job: jobs[k], Err: err}
				}
			}
		}
		for i, j := range jobs {
			if resolved[i] {
				continue
			}
			select {
			case work <- item{i, j}:
			case <-ctx.Done():
				// Unsubmitted jobs fail with the context error so the
				// caller can tell "not run" from "ran and failed".
				fail(i, ctx.Err())
				return
			case <-drain:
				// Soft stop: unsubmitted jobs are marked drained; workers
				// finish (and persist) what they already hold.
				fail(i, ErrDrained)
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	// Ordered collector: outcomes land by index; progress and stats see
	// them in completion order on this single goroutine. Exactly one
	// outcome arrives per unresolved job (from a worker, or from the
	// feeder for jobs never submitted after a cancel), and results closes
	// after the last.
	for o := range results {
		deliver(o)
	}
	if cfg.Progress != nil {
		cfg.Progress.Finish()
	}
	if stats != nil && pool != nil {
		reused, created := pool.Stats()
		stats.reused.Inc(float64(reused - poolReused0))
		stats.built.Inc(float64(created - poolCreated0))
	}
	return outcomes
}

// runJob executes one job with cache lookup, panic recovery, and timeout.
func runJob(ctx context.Context, cfg Config, run jobRunner, transient bool, idx int, job Job) (out Outcome) {
	start := time.Now()
	out = Outcome{Index: idx, Job: job}
	defer func() { out.Wall = time.Since(start) }()

	var key string
	if cfg.Cache != nil {
		var err error
		key, err = JobKey(job)
		if err != nil {
			out.Err = fmt.Errorf("campaign: keying job %q: %w", job.ID, err)
			return out
		}
		if m, ok := cfg.Cache.Get(key); ok {
			out.Metrics = m
			out.Cached = true
			return out
		}
	}

	jctx := ctx
	timeout := job.Timeout
	if timeout == 0 {
		timeout = cfg.Timeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	res, extra, err := runIsolated(jctx, run, job)
	if err != nil {
		// Attribute timeouts precisely: the simulation reports a generic
		// cancel, the deadline is the campaign's.
		if jctx.Err() != nil && ctx.Err() == nil {
			err = fmt.Errorf("campaign: job %q: %w", job.ID, jctx.Err())
		}
		out.Err = err
		return out
	}
	m := &Metrics{Cycles: res.Cycles, Ticks: res.Ticks, Power: res.Power, Extra: extra,
		Estimated: res.Estimated, ErrorBound: res.SampleError}
	if !transient {
		// Warm-started results alias a pooled system another job will
		// rewind; only snapshots (Metrics, probe extras) may escape.
		out.Result = res
	}
	out.Metrics = m
	if cfg.Cache != nil {
		if err := cfg.Cache.Put(key, job, m); err != nil {
			// A cache write failure degrades to "not cached", it does not
			// fail the job; surface it through the progress reporter.
			out.Err = nil
			if cfg.Progress != nil {
				cfg.Progress.Warn(fmt.Sprintf("cache write for %q failed: %v", job.ID, err))
			}
		}
	}
	return out
}

// runIsolated invokes the runner (simulation plus probe) with panic
// recovery, so a crashing probe is attributed to its job like a crashing
// simulation instead of sinking the worker.
func runIsolated(ctx context.Context, run jobRunner, job Job) (res *salam.Result, extra map[string]float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 16<<10)
			buf = buf[:runtime.Stack(buf, false)]
			res, extra, err = nil, nil, &PanicError{Value: r, Stack: buf}
		}
	}()
	return run(ctx, job)
}

// StaticEnergy is the provable dynamic-energy lower bound (total pJ) for
// the job's kernel under its run options — the static_energy column of
// campaign rows. Elaboration failures yield no bound.
func StaticEnergy(j Job) (float64, bool) {
	if j.Kernel == nil {
		return 0, false
	}
	se, err := salam.StaticEnergyLowerBound(j.Kernel, j.Opts)
	if err != nil {
		return 0, false
	}
	return se.TotalPJ, true
}

// FirstError returns the first failed outcome's error in submission order
// (nil when every job succeeded) — the fail-fast view for callers like the
// experiments, which abort a whole table on any failed point.
func FirstError(outcomes []Outcome) error {
	for _, o := range outcomes {
		if o.Err != nil {
			return fmt.Errorf("job %d (%s): %w", o.Index, o.Job.ID, o.Err)
		}
	}
	return nil
}
