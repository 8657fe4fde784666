package sim

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Stat is anything that can report itself into a stats dump.
type Stat interface {
	StatName() string
	StatDesc() string
	Rows() []StatRow
}

// StatRow is one line of a stats dump.
type StatRow struct {
	Name  string
	Value float64
	Desc  string
}

// Scalar is a single counter or gauge.
type Scalar struct {
	name, desc string
	V          float64
}

// NewScalar registers nothing; attach it to a Group to have it dumped.
func NewScalar(name, desc string) *Scalar { return &Scalar{name: name, desc: desc} }

// Inc adds delta.
func (s *Scalar) Inc(delta float64) { s.V += delta }

// Set overwrites the value.
func (s *Scalar) Set(v float64) { s.V = v }

// ResetStat zeroes the counter.
func (s *Scalar) ResetStat() { s.V = 0 }

// Value returns the current value.
func (s *Scalar) Value() float64 { return s.V }

func (s *Scalar) StatName() string { return s.name }
func (s *Scalar) StatDesc() string { return s.desc }
func (s *Scalar) Rows() []StatRow {
	return []StatRow{{Name: s.name, Value: s.V, Desc: s.desc}}
}

// Vector is a set of named counters under one stat (e.g. per-FU-class).
// Buckets live in a value slice; the map only resolves names to indices,
// so hot paths can pre-bind a Bucket handle and skip the string lookup.
type Vector struct {
	name, desc string
	keys       []string
	vals       []float64
	idx        map[string]int
}

// NewVector creates an empty vector stat.
func NewVector(name, desc string) *Vector {
	return &Vector{name: name, desc: desc, idx: map[string]int{}}
}

func (v *Vector) bucketIdx(key string) int {
	i, ok := v.idx[key]
	if !ok {
		i = len(v.keys)
		v.keys = append(v.keys, key)
		v.vals = append(v.vals, 0)
		v.idx[key] = i
	}
	return i
}

// Inc adds delta to the named bucket, creating it if needed.
func (v *Vector) Inc(key string, delta float64) {
	v.vals[v.bucketIdx(key)] += delta
}

// Bucket is a pre-bound accumulator for one Vector bucket. Handles stay
// valid as the vector grows. The zero Bucket is unbound (Valid reports
// false); Inc through it panics.
type Bucket struct {
	v *Vector
	i int32
}

// Bucket resolves (creating if needed) the named bucket and returns a
// handle that increments it without a map lookup. Bind lazily — at the
// first increment, not at construction — when key insertion order is
// observable (Keys reports it).
func (v *Vector) Bucket(key string) Bucket {
	return Bucket{v: v, i: int32(v.bucketIdx(key))}
}

// Inc adds delta to the bound bucket.
func (b Bucket) Inc(delta float64) { b.v.vals[b.i] += delta }

// Valid reports whether the handle is bound.
func (b Bucket) Valid() bool { return b.v != nil }

// Get returns the bucket value (0 if absent).
func (v *Vector) Get(key string) float64 {
	if i, ok := v.idx[key]; ok {
		return v.vals[i]
	}
	return 0
}

// Total returns the sum over buckets.
func (v *Vector) Total() float64 {
	t := 0.0
	for _, x := range v.vals {
		t += x
	}
	return t
}

// Keys returns bucket names in insertion order.
func (v *Vector) Keys() []string { return append([]string(nil), v.keys...) }

// ResetStat zeroes every bucket while keeping keys and indices, so Bucket
// handles bound before the reset keep pointing at their bucket. Keys that
// a previous run created remain present at value zero.
func (v *Vector) ResetStat() {
	for i := range v.vals {
		v.vals[i] = 0
	}
}

func (v *Vector) StatName() string { return v.name }
func (v *Vector) StatDesc() string { return v.desc }
func (v *Vector) Rows() []StatRow {
	keys := append([]string(nil), v.keys...)
	sort.Strings(keys)
	rows := make([]StatRow, 0, len(keys))
	for _, k := range keys {
		rows = append(rows, StatRow{Name: v.name + "::" + k, Value: v.vals[v.idx[k]], Desc: v.desc})
	}
	return rows
}

// Distribution tracks min/max/mean of samples plus a sample count.
type Distribution struct {
	name, desc string
	n          uint64
	sum        float64
	min, max   float64
}

// NewDistribution creates an empty distribution stat.
func NewDistribution(name, desc string) *Distribution {
	return &Distribution{name: name, desc: desc}
}

// Sample records one observation.
func (d *Distribution) Sample(v float64) {
	if d.n == 0 || v < d.min {
		d.min = v
	}
	if d.n == 0 || v > d.max {
		d.max = v
	}
	d.n++
	d.sum += v
}

// Count returns the number of samples.
func (d *Distribution) Count() uint64 { return d.n }

// Mean returns the sample mean (0 when empty).
func (d *Distribution) Mean() float64 {
	if d.n == 0 {
		return 0
	}
	return d.sum / float64(d.n)
}

// Min returns the smallest sample (0 when empty).
func (d *Distribution) Min() float64 { return d.min }

// Max returns the largest sample (0 when empty).
func (d *Distribution) Max() float64 { return d.max }

// ResetStat drops all samples.
func (d *Distribution) ResetStat() { d.n, d.sum, d.min, d.max = 0, 0, 0, 0 }

func (d *Distribution) StatName() string { return d.name }
func (d *Distribution) StatDesc() string { return d.desc }
func (d *Distribution) Rows() []StatRow {
	return []StatRow{
		{Name: d.name + "::count", Value: float64(d.n), Desc: d.desc},
		{Name: d.name + "::mean", Value: d.Mean(), Desc: d.desc},
		{Name: d.name + "::min", Value: d.min, Desc: d.desc},
		{Name: d.name + "::max", Value: d.max, Desc: d.desc},
	}
}

// Formula is a stat computed from others at dump time.
type Formula struct {
	name, desc string
	Fn         func() float64
}

// NewFormula creates a derived stat evaluated lazily.
func NewFormula(name, desc string, fn func() float64) *Formula {
	return &Formula{name: name, desc: desc, Fn: fn}
}

// ResetStat is a no-op: a formula stores nothing, but implementing the
// method lets formulas sit in groups that are reset between warm runs.
func (f *Formula) ResetStat() {}

func (f *Formula) StatName() string { return f.name }
func (f *Formula) StatDesc() string { return f.desc }
func (f *Formula) Rows() []StatRow {
	return []StatRow{{Name: f.name, Value: f.Fn(), Desc: f.desc}}
}

// Group is a named collection of stats and child groups, mirroring gem5's
// SimObject stat hierarchy.
type Group struct {
	name     string
	stats    []Stat
	children []*Group
}

// NewGroup creates a root or standalone group.
func NewGroup(name string) *Group { return &Group{name: name} }

// Child creates (or returns an existing) child group.
func (g *Group) Child(name string) *Group {
	for _, c := range g.children {
		if c.name == name {
			return c
		}
	}
	c := &Group{name: name}
	g.children = append(g.children, c)
	return c
}

// Add registers stats into the group and returns the group for chaining.
func (g *Group) Add(stats ...Stat) *Group {
	g.stats = append(g.stats, stats...)
	return g
}

// Stat returns the stat registered in this group under name, or nil.
func (g *Group) Stat(name string) Stat {
	for _, s := range g.stats {
		if s.StatName() == name {
			return s
		}
	}
	return nil
}

// Scalar creates and registers a scalar in one step.
func (g *Group) Scalar(name, desc string) *Scalar {
	s := NewScalar(name, desc)
	g.Add(s)
	return s
}

// Vector creates and registers a vector in one step.
func (g *Group) Vector(name, desc string) *Vector {
	v := NewVector(name, desc)
	g.Add(v)
	return v
}

// Distribution creates and registers a distribution in one step.
func (g *Group) Distribution(name, desc string) *Distribution {
	d := NewDistribution(name, desc)
	g.Add(d)
	return d
}

// Formula creates and registers a formula in one step.
func (g *Group) Formula(name, desc string, fn func() float64) *Formula {
	f := NewFormula(name, desc, fn)
	g.Add(f)
	return f
}

// Reset recursively zeroes every stat in this group and its children that
// implements ResetStat (all sim-provided stat types do). Structure is
// preserved — registered stats, child groups, and Vector key order all
// survive — so handles and formulas bound before the reset stay valid.
func (g *Group) Reset() {
	type resetter interface{ ResetStat() }
	for _, s := range g.stats {
		if r, ok := s.(resetter); ok {
			r.ResetStat()
		}
	}
	for _, c := range g.children {
		c.Reset()
	}
}

// Dump writes all stats, depth-first, one per line, prefixed by the group
// path, in a fixed-width gem5-like format.
func (g *Group) Dump(w io.Writer) {
	g.dump(w, "")
}

func (g *Group) dump(w io.Writer, prefix string) {
	path := g.name
	if prefix != "" {
		path = prefix + "." + g.name
	}
	for _, s := range g.stats {
		for _, row := range s.Rows() {
			fmt.Fprintf(w, "%-58s %16.6g  # %s\n", path+"."+row.Name, row.Value, row.Desc)
		}
	}
	for _, c := range g.children {
		c.dump(w, path)
	}
}

// Lookup finds a stat row value by dotted path ("sys.acc0.cycles"). It
// returns false if the path does not resolve. The walk is structural —
// not a re-parse of the %16.6g Dump text — so values keep full float64
// precision (a Dump round-trip truncates anything >= 1e6, which cycle
// counts routinely are, to 6 significant digits).
func (g *Group) Lookup(path string) (float64, bool) {
	prefix := g.name + "."
	if !strings.HasPrefix(path, prefix) {
		return 0, false
	}
	return g.lookup(path[len(prefix):])
}

// lookup resolves rest, a dotted path relative to g. Stat rows are
// checked before child groups, matching Dump's ordering; row names may
// themselves be dotted (Vector keys, Distribution "name::mean" rows never
// are, but nothing forbids it), so rows are compared whole.
func (g *Group) lookup(rest string) (float64, bool) {
	for _, s := range g.stats {
		for _, row := range s.Rows() {
			if row.Name == rest {
				return row.Value, true
			}
		}
	}
	for _, c := range g.children {
		p := c.name + "."
		if strings.HasPrefix(rest, p) {
			if v, ok := c.lookup(rest[len(p):]); ok {
				return v, true
			}
		}
	}
	return 0, false
}
