// Package search explores a design space without sweeping it: a
// deterministic branch-and-bound Pareto-frontier search over the knob
// lattice a campaign.Space declares. Where the campaign engine's sweep
// simulates every point, the search maintains a frontier over measured
// (cycles, power, area) vectors and expands boxed regions of the lattice
// best-bound first, pruning any region whose provable lower-bound corner
// is already strictly dominated by a measurement — those points can never
// join the frontier, so skipping them is exact, not approximate.
//
// Three levers make million-point spaces tractable:
//
//   - equivalence collapse: FU limits clamp to the kernel's dedicated
//     demand and cache mode ignores SPM banking, so whole slabs of the
//     space are provably the same hardware and are measured once;
//   - bound pruning: static cycle bounds and static power/area floors
//     (internal/analysis plus the Cacti envelope) bound every point in a
//     region from one corner evaluation;
//   - successive halving: when a reduced-trip proxy of the kernel exists
//     (kernels.ProxyOf with proven loop trips), each wave's candidates
//     first race the cheap proxy and only the better half is promoted to
//     a full simulation this wave — the rest re-queue. Proxy numbers only
//     ever order work; they never enter the frontier or any bound.
//
// Everything that decides expansion, pruning, and attribution is a pure
// function of the space and the committed measurements, and simulations
// run through the campaign engine's ordered collector, so the frontier is
// byte-identical at any worker count, warm or cold, fresh or resumed from
// a prior run's result store.
package search

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sort"

	salam "gosalam"
	"gosalam/internal/campaign"
	"gosalam/internal/sim"
	"gosalam/kernels"
)

// DefaultBatch is the wave size: how many regions a wave pops before
// simulating. It is a fixed constant on purpose — deriving it from the
// worker count would let parallelism change which corners are measured
// and break byte-identical frontiers across -jobs settings.
const DefaultBatch = 32

// Config parameterizes a search. Workers, Cache, Sessions, Runner, and
// Drain have campaign.Config semantics — the search runs its simulations
// through that engine.
type Config struct {
	// Space declares the design space (ranged knobs welcome: the search
	// never enumerates the cross product).
	Space campaign.Space
	// Workers sizes the simulation pool (<=0 means GOMAXPROCS). Any value
	// yields the identical frontier.
	Workers int
	// BatchSize overrides the wave size (<=0 means DefaultBatch). Part of
	// the search's deterministic identity: two runs must use the same
	// batch size to follow the same expansion order.
	BatchSize int
	// Cache is the content-addressed result store (nil = none). A warm
	// store turns re-runs and resumed searches into cache hits.
	Cache campaign.Store
	// Sessions is the warm-start pool simulations draw from (nil = one
	// scoped to this search).
	Sessions *salam.SessionPool
	// Runner overrides the simulation function (tests).
	Runner campaign.Runner
	// Stats, when non-nil, gets a "search" child group with the outcome
	// counters.
	Stats *sim.Group
	// Drain, when non-nil and closed, soft-stops the search at the next
	// wave boundary: committed results stand, Result.Drained is set, and
	// re-running against the same store resumes the work.
	Drain <-chan struct{}

	// coldStart disables warm-start session reuse, and noProxy the
	// successive-halving proxy rung; the package's tests compare both
	// against the defaults.
	coldStart, noProxy bool
}

// Result is what a search proved.
type Result struct {
	// Frontier is the exact Pareto frontier (complete runs) or the
	// frontier of everything measured so far (drained runs), sorted by
	// cycles ascending.
	Frontier []FrontierPoint `json:"frontier"`
	// Points is the raw size of the space.
	Points int `json:"points"`
	// Classes is the collapsed leaf count: the space after FU-equivalence
	// and cache-bank collapse, the most the search could ever simulate.
	Classes int `json:"classes"`
	// Evaluated counts committed full-fidelity measurements
	// (Simulated + CacheHits).
	Evaluated int `json:"evaluated"`
	// Simulated counts full simulations that actually ran.
	Simulated int `json:"simulated"`
	// CacheHits counts full measurements served from the store.
	CacheHits int `json:"cache_hits"`
	// ProxyRuns counts proxy (reduced-trip) evaluations; these are
	// ranking-only and never enter the frontier.
	ProxyRuns int `json:"proxy_runs"`
	// PrunedPoints counts raw points discarded by dominance pruning.
	PrunedPoints int `json:"pruned_points"`
	// CollapsedPoints counts raw points covered by an equivalent
	// measured representative.
	CollapsedPoints int `json:"collapsed_points"`
	// Waves is how many expansion waves ran.
	Waves int `json:"waves"`
	// Drained reports a soft stop: the frontier is a certified frontier
	// of the measured prefix, not of the whole space.
	Drained bool `json:"drained"`
}

func (c Config) batch() int {
	if c.BatchSize > 0 {
		return c.BatchSize
	}
	return DefaultBatch
}

// base assembles the campaign config the search submits waves through.
func (c Config) base(pool *salam.SessionPool) campaign.Config {
	return campaign.Config{
		Workers:   c.Workers,
		Cache:     c.Cache,
		Runner:    c.Runner,
		ColdStart: c.coldStart,
		Sessions:  pool,
		Drain:     c.Drain,
	}
}

func (c Config) pool() *salam.SessionPool {
	if c.Runner != nil || c.coldStart {
		return nil
	}
	if c.Sessions != nil {
		return c.Sessions
	}
	return salam.NewSessionPool()
}

func vecOf(m *campaign.Metrics) Vec {
	v := Vec{
		Cycles:  m.Cycles,
		PowerMW: m.Power.TotalMW(),
		AreaUM2: m.Power.AreaFU + m.Power.AreaReg + m.Power.AreaSPM,
	}
	// Ticks are ps; mW x ns = pJ. The elapsed window is the same one the
	// power report averaged over, so EnergyPJ is exactly the run's charged
	// energy and EDP its energy-delay product in pJ*ns.
	ns := float64(m.Ticks) / 1000.0
	if ns > 0 {
		v.EnergyPJ = v.PowerMW * ns
		v.EDP = v.EnergyPJ * ns
	}
	return v
}

// proxyKernel resolves the successive-halving proxy: the Micro instance
// of the space's kernel, admitted only when every one of its loops has a
// proven constant trip count — the "reduced-trip" guarantee that makes a
// proxy run strictly cheaper than the real workload rather than
// accidentally equivalent or unbounded.
func proxyKernel(ax *campaign.Axes, disabled bool) (*kernels.Kernel, string) {
	if disabled {
		return nil, ""
	}
	pk := kernels.ProxyOf(ax.Kernel.Name)
	if pk == nil {
		return nil, ""
	}
	rep, err := salam.AnalyzeKernel(pk, salam.DefaultRunOpts())
	if err != nil {
		return nil, ""
	}
	for _, lp := range rep.Loops {
		if lp.Trip < 0 {
			return nil, ""
		}
	}
	return pk, pk.Name + "/preset=micro"
}

func drainClosed(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// outcomeErr classifies one wave outcome: drained, context-canceled, or a
// hard job failure.
func outcomeErr(ctx context.Context, o campaign.Outcome) (drained bool, err error) {
	if o.Err == nil {
		return false, nil
	}
	if errors.Is(o.Err, campaign.ErrDrained) {
		return true, nil
	}
	if ctx.Err() != nil {
		return false, ctx.Err()
	}
	return false, fmt.Errorf("search: point %q: %w", o.Job.ID, o.Err)
}

// Run executes the branch-and-bound search to completion (or soft stop)
// and returns the proven frontier. A hard simulation failure aborts with
// an error: a frontier cannot be certified exact over a space with
// unmeasurable points.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ax, err := cfg.Space.Axes()
	if err != nil {
		return nil, err
	}
	lats, leaves := buildLattices(ax)
	res := &Result{Points: ax.Size(), Classes: leaves}
	obj, _ := ParseObjective(ax.Objective) // Axes validated the string
	sel := newSelector(obj, ax.MaxAreaUM2)
	proxyK, proxyKey := proxyKernel(ax, cfg.noProxy)
	pool := cfg.pool()
	base := cfg.base(pool)

	var seq uint64
	pq := &regionHeap{}
	push := func(r *region) {
		r.computeLB()
		if sel.prunes(r.lb) {
			res.PrunedPoints += r.points()
			return
		}
		r.seq = seq
		seq++
		heap.Push(pq, r)
	}
	for _, l := range lats {
		push(&region{
			lat: l,
			f1:  len(l.classes) - 1, p1: len(l.ports) - 1, b1: len(l.banks) - 1,
		})
	}

	for pq.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if drainClosed(cfg.Drain) {
			res.Drained = true
			break
		}

		// Pop a wave of candidates, re-checking dominance at pop time:
		// the frontier has grown since these regions were pushed.
		var cands []*region
		for len(cands) < cfg.batch() && pq.Len() > 0 {
			r := heap.Pop(pq).(*region)
			if sel.prunes(r.lb) {
				res.PrunedPoints += r.points()
				continue
			}
			cands = append(cands, r)
		}
		if len(cands) == 0 {
			break
		}
		res.Waves++

		// Successive-halving proxy rung: race the not-yet-proxied
		// candidates on the reduced-trip kernel and promote the better
		// half (plus everything that already lost one rung — a region is
		// demoted at most once, so the search always terminates). Proxy
		// cycles order work and do nothing else.
		if proxyK != nil {
			var fresh []int
			for i, c := range cands {
				if !c.proxied {
					fresh = append(fresh, i)
				}
			}
			if len(fresh) > 1 {
				jobs := make([]campaign.Job, len(fresh))
				for j, i := range fresh {
					jb := cands[i].lat.ax.JobAt(cands[i].cornerIdx())
					jb.Kernel = proxyK
					jb.KernelKey = proxyKey
					jb.ID = "proxy " + jb.ID
					jobs[j] = jb
				}
				outs := campaign.Run(ctx, base, jobs)
				type ranked struct {
					pos    int // index into fresh — the deterministic tiebreak
					cycles uint64
				}
				rs := make([]ranked, len(fresh))
				for j, o := range outs {
					drained, err := outcomeErr(ctx, o)
					if err != nil && ctx.Err() != nil {
						return nil, err
					}
					if drained {
						// Soft stop mid-rung: nothing was committed, so
						// requeueing every candidate restores the exact
						// pre-wave state.
						for _, c := range cands {
							heap.Push(pq, c)
						}
						res.Drained = true
						res.fill(cfg, sel)
						return res, nil
					}
					rs[j] = ranked{pos: j}
					if err == nil && o.Metrics != nil {
						rs[j].cycles = o.Metrics.Cycles
						res.ProxyRuns++
					}
					// A failed proxy ranks first (cycles 0): it promotes to
					// a full run, whose real error is then authoritative.
				}
				sort.Slice(rs, func(a, b int) bool {
					if rs[a].cycles != rs[b].cycles {
						return rs[a].cycles < rs[b].cycles
					}
					return rs[a].pos < rs[b].pos
				})
				promote := make(map[int]bool, len(fresh))
				for _, r := range rs[:(len(rs)+1)/2] {
					promote[fresh[r.pos]] = true
				}
				var kept []*region
				for i, c := range cands {
					if c.proxied || promote[i] {
						kept = append(kept, c)
					} else {
						c.proxied = true
						heap.Push(pq, c)
					}
				}
				cands = kept
			}
		}

		// Full-fidelity corner simulations for the wave's survivors, then
		// commit in candidate order: insert the measurement, peel the
		// corner, and push (or prune) the remainder boxes.
		jobs := make([]campaign.Job, len(cands))
		for i, c := range cands {
			jobs[i] = c.lat.ax.JobAt(c.cornerIdx())
		}
		outs := campaign.Run(ctx, base, jobs)
		for _, o := range outs {
			drained, err := outcomeErr(ctx, o)
			if err != nil {
				return nil, err
			}
			// The frontier's exactness certificate rests on exact corner
			// measurements: the branch-and-bound pruning proof compares
			// measured cycles against static lower bounds, and an
			// extrapolated measurement voids it. JobAt never requests
			// sampling; this guards custom Runners and poisoned caches.
			if o.Metrics != nil && o.Metrics.Estimated {
				return nil, fmt.Errorf("search: job %q returned an estimated measurement; the frontier requires exact runs", o.Job.ID)
			}
			if drained {
				// Completed siblings of this wave are already persisted in
				// the store; requeueing the whole wave keeps the committed
				// state exactly "all complete waves", so a resumed run
				// replays deterministically with cache hits.
				for _, c := range cands {
					heap.Push(pq, c)
				}
				res.Drained = true
				res.fill(cfg, sel)
				return res, nil
			}
		}
		for i, c := range cands {
			o := outs[i]
			res.Evaluated++
			if o.Cached {
				res.CacheHits++
			} else {
				res.Simulated++
			}
			res.CollapsedPoints += c.cornerPoints() - 1
			idx := c.cornerIdx()
			sel.insert(FrontierPoint{
				Index: idx,
				ID:    o.Job.ID,
				Point: ax.PointAt(idx),
				Vec:   vecOf(o.Metrics),
			})
			for _, s := range c.split() {
				push(s)
			}
		}
	}

	res.fill(cfg, sel)
	return res, nil
}

// fill finalizes the result and publishes the stat counters.
func (r *Result) fill(cfg Config, sel *selector) {
	r.Frontier = sel.points()
	if cfg.Stats == nil {
		return
	}
	g := cfg.Stats.Child("search")
	set := func(name, desc string, v int) {
		g.Scalar(name, desc).Set(float64(v))
	}
	set("points", "raw design points in the space", r.Points)
	set("classes", "collapsed leaves after equivalence collapse", r.Classes)
	set("evaluated", "full-fidelity measurements committed", r.Evaluated)
	set("simulated", "full simulations that ran", r.Simulated)
	set("cache_hits", "full measurements served from the store", r.CacheHits)
	set("proxy_runs", "reduced-trip proxy evaluations (ranking only)", r.ProxyRuns)
	set("points_pruned", "raw points discarded by dominance pruning", r.PrunedPoints)
	set("points_collapsed", "raw points covered by an equivalent representative", r.CollapsedPoints)
	set("waves", "expansion waves", r.Waves)
	set("frontier", "Pareto-frontier size", len(r.Frontier))
}

// BruteForce sweeps the entire space through the campaign engine and
// Pareto-filters every measurement: the oracle the search is tested and
// smoke-checked against. Only sensible for spaces small enough to
// enumerate.
func BruteForce(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ax, err := cfg.Space.Axes()
	if err != nil {
		return nil, err
	}
	n := ax.Size()
	jobs := make([]campaign.Job, n)
	for i := range jobs {
		jobs[i] = ax.JobAt(i)
	}
	res := &Result{Points: n, Classes: n}
	obj, _ := ParseObjective(ax.Objective) // Axes validated the string
	sel := newSelector(obj, ax.MaxAreaUM2)
	outs := campaign.Run(ctx, cfg.base(cfg.pool()), jobs)
	for i, o := range outs {
		if drained, err := outcomeErr(ctx, o); err != nil {
			return nil, err
		} else if drained {
			return nil, fmt.Errorf("search: brute-force sweep drained before completion")
		}
		if o.Metrics != nil && o.Metrics.Estimated {
			return nil, fmt.Errorf("search: job %q returned an estimated measurement; the frontier requires exact runs", o.Job.ID)
		}
		res.Evaluated++
		if o.Cached {
			res.CacheHits++
		} else {
			res.Simulated++
		}
		sel.insert(FrontierPoint{
			Index: i,
			ID:    o.Job.ID,
			Point: ax.PointAt(i),
			Vec:   vecOf(o.Metrics),
		})
	}
	res.Frontier = sel.points()
	return res, nil
}
