package sim

import (
	"fmt"

	"gosalam/internal/snapshot"
)

// This file is the sim half of checkpoint/restore. A snapshot records the
// queue's logical state only — (now, seq, fired) plus each pending
// event's (when, pri, seq) coordinates, claimed by the component that
// owns the callback — never slot indices, heap layout, or the free list.
// That is sound because pop order is a total order on (when, pri, seq):
// two queues holding the same logical pending multiset at the same
// (now, seq) execute identically regardless of physical layout.

// Info returns the scheduling coordinates of a still-pending event, so
// its owner can claim it in a snapshot. ok is false once the event has
// fired or been canceled.
func (id EventID) Info() (when Tick, pri int32, seq uint64, ok bool) {
	if !id.Scheduled() {
		return 0, 0, 0, false
	}
	s := &id.q.slots[id.slot]
	if s.pos < 0 {
		return 0, 0, 0, false
	}
	return s.when, s.pri, s.seq, true
}

// Seq returns the queue's next-sequence cursor, for snapshots.
func (q *EventQueue) Seq() uint64 { return q.seq }

// ForEachPending calls f for every pending event in heap-array order
// (arbitrary but deterministic). obj is non-nil for ScheduleObj events;
// closure events pass nil and must be claimed by their owners through
// EventID.Info instead.
func (q *EventQueue) ForEachPending(f func(when Tick, pri int32, seq uint64, obj Firer)) {
	for _, idx := range q.order {
		s := &q.slots[idx]
		f(s.when, s.pri, s.seq, s.obj)
	}
}

// RestoreAt rewinds a freshly Reset (empty) queue to a captured logical
// position. Subsequent ScheduleRestoredObj and RestoreClock calls
// re-insert the pending events; new Schedule calls continue the sequence
// from seq exactly as the original run would have.
func (q *EventQueue) RestoreAt(now Tick, seq, fired uint64) {
	if len(q.order) != 0 {
		panic("sim: RestoreAt on a queue with pending events")
	}
	q.now, q.seq, q.fired = now, seq, fired
}

// scheduleRestored inserts an event with a historical sequence number
// instead of allocating a new one. Only valid between RestoreAt and the
// resumption of execution; the seq must predate the restored cursor.
func (q *EventQueue) scheduleRestored(when Tick, pri int, seq uint64, fn func(), obj Firer) EventID {
	if when < q.now {
		panic(fmt.Sprintf("sim: restoring event at %d before now %d", when, q.now))
	}
	if seq >= q.seq {
		panic(fmt.Sprintf("sim: restored event seq %d not below queue seq %d", seq, q.seq))
	}
	idx := q.alloc()
	s := &q.slots[idx]
	s.when, s.pri, s.seq = when, int32(pri), seq
	s.fn, s.obj = fn, obj
	q.order = append(q.order, idx)
	q.siftUp(len(q.order) - 1)
	return EventID{q: q, slot: idx, gen: s.gen}
}

// ScheduleRestoredObj re-inserts a captured Firer event.
func (q *EventQueue) ScheduleRestoredObj(ev snapshot.Event, obj Firer) EventID {
	return q.scheduleRestored(Tick(ev.When), int(ev.Pri), ev.Seq, nil, obj)
}

// CaptureClock snapshots a Clocked helper: activity, executed cycles, and
// the armed tick event's coordinates.
func (c *Clocked) CaptureClock() snapshot.Clock {
	out := snapshot.Clock{Active: c.active, Cycles: c.Cycles}
	if c.tick != nil {
		if when, pri, seq, ok := c.tick.id.Info(); ok {
			out.Armed = true
			out.Tick = snapshot.Event{When: uint64(when), Pri: pri, Seq: seq}
		}
	}
	return out
}

// RestoreClock rewinds a Clocked helper into a captured state, re-arming
// its pre-bound tick closure with the historical event coordinates. The
// owning queue must already be positioned via RestoreAt.
func (c *Clocked) RestoreClock(s snapshot.Clock) {
	c.active = s.Active
	c.Cycles = s.Cycles
	if s.Armed {
		c.tick.id = c.Q.scheduleRestored(Tick(s.Tick.When), int(s.Tick.Pri), s.Tick.Seq, c.tick.fn, nil)
	} else {
		c.tick.id = EventID{}
	}
}

// CaptureStats snapshots a stats group tree. It fails on a Stat
// implementation it does not know how to serialize — snapshotting demands
// every stat be one of the four sim types.
func CaptureStats(g *Group) (snapshot.Group, error) {
	out := snapshot.Group{Name: g.name}
	for _, s := range g.stats {
		switch st := s.(type) {
		case *Scalar:
			out.Stats = append(out.Stats, snapshot.Stat{Kind: snapshot.StatScalar, Name: st.name, V: st.V})
		case *Vector:
			out.Stats = append(out.Stats, snapshot.Stat{
				Kind: snapshot.StatVector, Name: st.name,
				Keys: append([]string(nil), st.keys...),
				Vals: append([]float64(nil), st.vals...),
			})
		case *Distribution:
			out.Stats = append(out.Stats, snapshot.Stat{
				Kind: snapshot.StatDistribution, Name: st.name,
				N: st.n, Sum: st.sum, Min: st.min, Max: st.max,
			})
		case *Formula:
			out.Stats = append(out.Stats, snapshot.Stat{Kind: snapshot.StatFormula, Name: st.name})
		default:
			return snapshot.Group{}, fmt.Errorf("sim: cannot snapshot stat %q (%T)", s.StatName(), s)
		}
	}
	for _, c := range g.children {
		cg, err := CaptureStats(c)
		if err != nil {
			return snapshot.Group{}, err
		}
		out.Children = append(out.Children, cg)
	}
	return out, nil
}

// RestoreStats loads captured values into an already-Reset live tree.
// Stats are matched by name within each group and must exist with the
// captured kind; the structure comes from elaboration, never from the
// image. Vector restore is a merge: captured keys are created (in
// captured insertion order) or overwritten, and keys only the live tree
// knows stay at their reset value of zero — so Bucket handles bound
// before the restore remain valid.
func RestoreStats(g *Group, s snapshot.Group) error {
	if g.name != s.Name {
		return fmt.Errorf("sim: stats group %q does not match image group %q", g.name, s.Name)
	}
	for _, ss := range s.Stats {
		live := g.Stat(ss.Name)
		if live == nil {
			return fmt.Errorf("sim: stats group %q has no stat %q from image", g.name, ss.Name)
		}
		switch st := live.(type) {
		case *Scalar:
			if ss.Kind != snapshot.StatScalar {
				return kindMismatch(g.name, ss.Name)
			}
			st.V = ss.V
		case *Vector:
			if ss.Kind != snapshot.StatVector {
				return kindMismatch(g.name, ss.Name)
			}
			for i, k := range ss.Keys {
				st.vals[st.bucketIdx(k)] = ss.Vals[i]
			}
		case *Distribution:
			if ss.Kind != snapshot.StatDistribution {
				return kindMismatch(g.name, ss.Name)
			}
			st.n, st.sum, st.min, st.max = ss.N, ss.Sum, ss.Min, ss.Max
		case *Formula:
			if ss.Kind != snapshot.StatFormula {
				return kindMismatch(g.name, ss.Name)
			}
		default:
			return fmt.Errorf("sim: cannot restore into stat %q (%T)", ss.Name, live)
		}
	}
	for _, sc := range s.Children {
		live := findChild(g, sc.Name)
		if live == nil {
			return fmt.Errorf("sim: stats group %q has no child %q from image", g.name, sc.Name)
		}
		if err := RestoreStats(live, sc); err != nil {
			return err
		}
	}
	return nil
}

func findChild(g *Group, name string) *Group {
	for _, c := range g.children {
		if c.name == name {
			return c
		}
	}
	return nil
}

func kindMismatch(group, stat string) error {
	return fmt.Errorf("sim: stat %q in group %q has a different kind in the image", stat, group)
}
