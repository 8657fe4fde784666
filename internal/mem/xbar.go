package mem

import (
	"fmt"

	"gosalam/internal/sim"
	"gosalam/internal/timeline"
)

// Crossbar routes requests to targets by address range, with a per-cycle
// issue width (arbitration) and a forward latency per hop — the paper's
// local and global X-bars (Fig. 6).
type Crossbar struct {
	sim.Clocked

	ForwardCycles int
	WidthPerCycle int

	targets []Ranged
	// Default target for addresses no range claims (e.g. the path off-
	// cluster through the global crossbar). May be nil.
	defaultTarget Port

	queue reqQueue
	// responses counts routed requests whose wrapped response hop has not
	// been delivered yet; they live in downstream queues, not here.
	responses int

	// rec, when non-nil, receives a routing slice per busy cycle.
	rec    timeline.Recorder
	tlLane timeline.LaneID

	Routed      *sim.Scalar
	RouteErrors *sim.Scalar
	QueueDelay  *sim.Distribution
}

// NewCrossbar builds a crossbar.
func NewCrossbar(name string, q *sim.EventQueue, clk *sim.ClockDomain,
	forwardCycles, widthPerCycle int, stats *sim.Group) *Crossbar {
	x := &Crossbar{ForwardCycles: forwardCycles, WidthPerCycle: max(1, widthPerCycle)}
	x.InitClocked(name, q, clk)
	x.CycleFn = x.cycle
	g := stats.Child(name)
	x.Routed = g.Scalar("routed", "requests routed")
	x.RouteErrors = g.Scalar("route_errors", "requests with no matching target")
	x.QueueDelay = g.Distribution("queue_delay", "ticks queued at crossbar")
	return x
}

// Attach adds a ranged target.
func (x *Crossbar) Attach(t Ranged) {
	for _, e := range x.targets {
		if e.Range().Overlaps(t.Range()) {
			panic(fmt.Sprintf("mem: crossbar ranges overlap: %s and %s", e.Range(), t.Range()))
		}
	}
	x.targets = append(x.targets, t)
}

// SetDefault routes unmatched addresses to p.
func (x *Crossbar) SetDefault(p Port) { x.defaultTarget = p }

// Reset rewinds the crossbar for a warm-started run after the owning
// EventQueue has been Reset: queued requests from an abandoned run drop
// and the clocked state rewinds to idle. Topology (targets, default)
// survives — it is structural, not per-run.
func (x *Crossbar) Reset() {
	x.queue.reset()
	x.responses = 0
	x.ResetClocked()
}

// Busy reports whether requests are queued for routing or responses still
// owe their return hop. The hop closures are bound to live requests, which
// is why the crossbar keeps no snapshot state.
func (x *Crossbar) Busy() bool { return x.Active() || x.responses > 0 }

// AttachTimeline binds a routing lane (plus the clocked "active" lane)
// for the crossbar. A nil recorder detaches.
func (x *Crossbar) AttachTimeline(rec timeline.Recorder) {
	x.rec = rec
	if rec == nil {
		x.Clocked.AttachTimeline(nil, 0)
		return
	}
	x.Clocked.AttachTimeline(rec, rec.Lane(x.Name(), "active"))
	x.tlLane = rec.Lane(x.Name(), "route")
}

// Send enqueues a request for routing.
func (x *Crossbar) Send(r *Request) {
	r.Issued = x.Q.Now()
	x.queue.push(r)
	x.Activate()
}

// route finds the target for an address.
func (x *Crossbar) route(addr uint64, size int) Port {
	for _, t := range x.targets {
		if t.Range().Contains(addr, size) {
			return t
		}
	}
	return x.defaultTarget
}

func (x *Crossbar) cycle() bool {
	routed := 0
	for i := 0; i < x.WidthPerCycle && !x.queue.empty(); i++ {
		r := x.queue.pop()
		routed++
		x.QueueDelay.Sample(float64(x.Q.Now() - r.Issued))
		t := x.route(r.Addr, r.Size)
		if t == nil {
			x.RouteErrors.Inc(1)
			panic(fmt.Sprintf("mem: crossbar %s: no route for %#x", x.Name(), r.Addr))
		}
		x.Routed.Inc(1)
		// Response path costs a hop too: wrap Done.
		if x.ForwardCycles > 0 && r.Done != nil {
			orig := r.Done
			lat := x.Clk.CyclesToTicks(uint64(x.ForwardCycles))
			x.responses++
			r.Done = func(rr *Request) {
				x.Q.Schedule(x.Q.Now()+lat, sim.PriMemResp, func() { x.responses--; orig(rr) })
			}
		}
		if x.ForwardCycles > 0 {
			lat := x.Clk.CyclesToTicks(uint64(x.ForwardCycles))
			rr := r
			x.Q.Schedule(x.Q.Now()+lat, sim.PriMemResp, func() { t.Send(rr) })
		} else {
			t.Send(r)
		}
	}
	if x.rec != nil && routed > 0 {
		x.rec.Slice(x.tlLane, uint64(x.Q.Now()), uint64(x.Clk.Period()), "route")
	}
	return !x.queue.empty()
}
