package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart anchors setup_s: a block's set-up is timed from here, so
// runtime start and flag parsing are inside it.
var processStart = time.Now()

// workload is one named set of inputs. The op counts are compiled in: every
// block is a fresh process that sets the workload up, runs warmups untimed
// ops and then perBlock timed ones, sized so the timed part of a pass lasts
// about nominalSeconds on the reference box.
type workload struct {
	name     string
	warmups  int
	perBlock int
	setup    func(seed int64) (instance, error)
	// probe, if set, measures what belongs to this workload's layers but
	// to no op (the same jobs with no HTTP in front). The traced pass runs
	// it once, in its own process, and adds what it returns to the layer
	// probes' metrics.
	probe func(seed int64, tr *tracer) (map[string]float64, error)
}

const (
	nominalSeconds = 12
	blocks         = 6
)

// instance is a workload set up and ready to run ops. One op is prepare
// (untimed), op (timed), verify (untimed).
type instance interface {
	// prepare does per-op work that is not part of the op (building the
	// server and empty store a dse_serve op runs against).
	prepare() error
	// op runs one operation; tr is nil on untraced ops.
	op(tr *tracer) error
	// verify checks the outputs of the op that just ran against the
	// workload's reference and reports what the op delivered.
	verify() (opOut, error)
	// counts adds the exact per-op counts of the op that just ran
	// (traced ops only).
	counts(into map[string]float64)
	close()
}

// opOut is what one op delivered.
type opOut struct {
	Points int    `json:"points"` // design points completed and output-checked
	Cycles uint64 `json:"cycles"` // simulated cycles delivered
}

// shape is the plan of one pass: how many blocks, and the warm-up and timed
// ops of each.
type shape struct{ warmups, blocks, perBlock int }

func (w *workload) shape() shape { return shape{w.warmups, blocks, w.perBlock} }

// sample is one timed op.
type sample struct {
	MS      float64 `json:"ms"`
	Traced  bool    `json:"traced"`
	Block   int     `json:"block"`
	Mallocs uint64  `json:"mallocs"`
	Bytes   uint64  `json:"bytes"`
	GCNS    uint64  `json:"gc_ns"`
	Out     opOut   `json:"out"`
}

// blockResult is everything one block measured. A block runs in a process
// of its own and prints this as one JSON line for the pass that started it.
type blockResult struct {
	SetupS   float64            `json:"setup_s"` // process start to first timed op
	Samples  []sample           `json:"samples"`
	Failures []string           `json:"failures,omitempty"`
	Spans    []span             `json:"spans,omitempty"`  // traced block: its op spans
	Counts   map[string]float64 `json:"counts,omitempty"` // traced block: exact counts of one op
}

// runBlock is one block in this process: set the workload up (timed from
// start), run the warm-up ops, then n timed ops. Set-up and warm-up
// failures are errors: nothing is measured on a broken instance.
func runBlock(w *workload, seed int64, warmups, n int, traced bool, start time.Time) (*blockResult, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	inst, err := w.setup(seed)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer inst.close()
	for i := 0; i < warmups; i++ {
		if err := inst.prepare(); err == nil {
			if err = inst.op(nil); err == nil {
				_, err = inst.verify()
			}
		}
		if err != nil {
			return nil, fmt.Errorf("%s: warm-up op %d: %w", w.name, i, err)
		}
	}
	runtime.GC()
	r := &blockResult{SetupS: time.Since(start).Seconds()}
	for i := 0; i < n; i++ {
		s := sample{Traced: traced}
		if err := r.timedOp(inst, tr, &s); err != nil {
			r.Failures = append(r.Failures, fmt.Sprintf("op %d: %v", i, err))
		}
		r.Samples = append(r.Samples, s)
	}
	if tr != nil {
		r.Spans = tr.spans
	}
	return r, nil
}

// timedOp runs one op — prepare, the timed call, verify — and fills s. A
// traced op also holds its exact counts against the block's first op's.
func (r *blockResult) timedOp(inst instance, tr *tracer, s *sample) error {
	if err := inst.prepare(); err != nil {
		return err
	}
	if tr != nil {
		tr.op = len(r.Samples)
		defer func() { tr.op = -1 }()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0, b0, g0 := ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs
	start := time.Now()
	var err error
	tr.do("op", func() { err = inst.op(tr) })
	s.MS = float64(time.Since(start).Nanoseconds()) / 1e6
	runtime.ReadMemStats(&ms)
	s.Mallocs, s.Bytes, s.GCNS = ms.Mallocs-m0, ms.TotalAlloc-b0, ms.PauseTotalNs-g0
	if err != nil {
		return err
	}
	if s.Out, err = inst.verify(); err != nil || tr == nil {
		return err
	}
	c := map[string]float64{}
	inst.counts(c)
	if r.Counts == nil {
		r.Counts = c
	} else if d := diffCounts(r.Counts, c); d != "" {
		return fmt.Errorf("exact count %s changed between ops", d)
	}
	return nil
}

// blockRunner runs block b of a pass, traced or not, and returns what it
// measured. The benchmark starts a fresh process per block; the smoke test
// runs them in its own.
type blockRunner func(b int, traced bool) (*blockResult, error)

// pass is everything one pass measured, over all its blocks.
type pass struct {
	w        *workload
	seed     int64
	setups   []float64 // seconds, one per block
	samples  []sample
	failures []string
	tr       *tracer            // traced pass: probe spans, then every traced block's
	probes   map[string]float64 // traced pass: layer-probe metrics
	opCounts map[string]float64 // traced pass: exact counts of one op
}

// measure runs the blocks of one pass in turn and gathers their samples.
// With a tracer the blocks alternate traced and untraced, so the two halves
// see the same drift, and the traced blocks' spans join tr's.
func measure(w *workload, seed int64, sh shape, tr *tracer, runBlock blockRunner) (*pass, error) {
	p := &pass{w: w, seed: seed, tr: tr}
	for b := 0; b < sh.blocks; b++ {
		traced := tr != nil && b%2 == 0
		var shift int64
		if traced {
			shift = time.Since(tr.t0).Nanoseconds()
		}
		r, err := runBlock(b, traced)
		if err != nil {
			return nil, err
		}
		for _, f := range r.Failures {
			p.failures = append(p.failures, fmt.Sprintf("block %d %s", b, f))
		}
		if traced {
			tr.adopt(r.Spans, shift, len(p.samples))
			if p.opCounts == nil {
				p.opCounts = r.Counts
			} else if d := diffCounts(p.opCounts, r.Counts); d != "" {
				p.failures = append(p.failures, fmt.Sprintf("block %d: exact count %s changed between blocks", b, d))
			}
		}
		p.setups = append(p.setups, r.SetupS)
		for _, s := range r.Samples {
			s.Block = b
			p.samples = append(p.samples, s)
		}
	}
	return p, nil
}

// diffCounts names the first exact count that differs, or "".
func diffCounts(a, b map[string]float64) string {
	for _, m := range perLayerMetrics {
		if name := m[0]; exactCounts[name] && a[name] != b[name] {
			return fmt.Sprintf("%s (%v vs %v)", name, a[name], b[name])
		}
	}
	return ""
}

// ---- statistics ------------------------------------------------------

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tail returns the highest percentile with at least ten samples beyond
// it, and the op time there; with fewer than 20 samples that is the median.
func tail(ms []float64) (pct, value float64) {
	n := len(ms)
	if n < 20 {
		return 50, median(ms)
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	return 100 * float64(n-10) / float64(n), s[n-11]
}

// ---- derived metrics -------------------------------------------------

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// timed selects the samples of one kind that ran (failed ops carry no
// time or output).
func (p *pass) timed(traced bool) []sample {
	var out []sample
	for _, s := range p.samples {
		if s.Traced == traced && s.Out.Points > 0 {
			out = append(out, s)
		}
	}
	return out
}

func opTimes(ss []sample) []float64 {
	ms := make([]float64, len(ss))
	for i, s := range ss {
		ms[i] = s.MS
	}
	return ms
}

// endToEnd computes the five end-to-end metrics from the untraced ops.
func (p *pass) endToEnd() map[string]metric {
	ss := p.timed(false)
	if len(ss) == 0 {
		return nil
	}
	var sumMS float64
	var points int
	var mallocs uint64
	for _, s := range ss {
		sumMS += s.MS
		points += s.Out.Points
		mallocs += s.Mallocs
	}
	p50 := median(opTimes(ss))
	return map[string]metric{
		"setup_s":           {median(p.setups), "s"},
		"op_ms_p50":         {p50, "ms"},
		"host_ns_per_cycle": {p50 * 1e6 / float64(ss[0].Out.Cycles), "ns/cycle"},
		"points_per_s":      {float64(points) / (sumMS / 1e3), "1/s"},
		"allocs_per_op":     {float64(mallocs) / float64(len(ss)), "count"},
	}
}

// blockMedians returns the median op time of each block, in block order.
func blockMedians(ss []sample) []float64 {
	byBlock := map[int][]float64{}
	for _, s := range ss {
		byBlock[s.Block] = append(byBlock[s.Block], s.MS)
	}
	var order []int
	for b := range byBlock {
		order = append(order, b)
	}
	sort.Ints(order)
	meds := make([]float64, len(order))
	for i, b := range order {
		meds[i] = median(byBlock[b])
	}
	return meds
}

// blockSpread is (max - min block median) / median over the untraced
// blocks: the run's own reading of its noise.
func blockSpread(ss []sample) float64 {
	meds := blockMedians(ss)
	if len(meds) < 2 {
		return 0
	}
	return (slices.Max(meds) - slices.Min(meds)) / median(opTimes(ss))
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
