package core

import (
	"fmt"

	"gosalam/internal/mem"
	"gosalam/internal/sim"
	"gosalam/internal/snapshot"
)

// This file is the core half of checkpoint/restore: the accelerator
// engine's dynamic state (in-flight dynOps, dependence edges,
// per-static-op stamps) and the communications interface's counters. Dynamic ops are captured by reservation-queue index —
// dependence edges (waiters, lastDef producers, pendingMem) all point at
// live resQ members, so indices fully encode the graph — and static
// identity is the dense StaticOp ID, valid because restore happens into
// the same elaborated CDFG.

// capture snapshots the interface's persistent counters and MMRs.
// Per-cycle counters (readsThisCycle/writesThisCycle) are captured too:
// a checkpoint can land between an engine edge and a same-tick retry.
func (c *CommInterface) capture() *snapshot.Comm {
	return &snapshot.Comm{
		ReadsCycle: c.readsThisCycle, WritesCycle: c.writesThisCycle,
		OutReads: c.outReads, OutWrites: c.outWrites,
		MMR: c.MMR.Regs(),
	}
}

// restore rewinds a freshly Reset interface into a captured state.
func (c *CommInterface) restore(st *snapshot.Comm) error {
	c.readsThisCycle, c.writesThisCycle = st.ReadsCycle, st.WritesCycle
	c.outReads, c.outWrites = st.OutReads, st.OutWrites
	return c.MMR.RestoreRegs(st.MMR)
}

// Capture snapshots the accelerator node — engine plus communications
// interface — between events. Per-cycle engine transients (fuIssued, hazard
// flags, profile counters) are dead at event boundaries and excluded;
// everything else that outlives an event is recorded.
func (a *Accelerator) Capture() (snapshot.Component, error) {
	st := &snapshot.Accel{
		Running: a.running, Finished: a.finished, RetBits: a.retBits,
		Seq:        a.seq,
		ArgBits:    append([]uint64(nil), a.argBits...),
		StartCycle: a.startCycle,
		Inflight:   a.inflight, Resident: a.resident,
		PendLoads: a.pendLoads, PendStores: a.pendStores, PendComp: a.pendComp,
		InflLoads: a.inflLoads, InflStores: a.inflStores,
		FuBusy:     append([]int(nil), a.fuBusy...),
		OpStamp:    append([]uint64(nil), a.opStamp...),
		CycleStamp: a.cycleStamp,
	}
	for qi, d := range a.resQ {
		if d.st == nil {
			return snapshot.Component{}, fmt.Errorf("core: %s: resQ[%d] has no static op", a.Name(), qi)
		}
		sd := snapshot.DynOp{
			StaticID: int32(d.st.ID), Seq: d.seq,
			Operands:  append([]uint64(nil), d.operands...),
			Pending:   append([]bool(nil), d.pending...),
			WaitingOn: int32(d.waitingOn),
			State:     uint8(d.state), Val: d.val,
			Addr: d.addr, Size: int32(d.size), Arrived: d.arrived,
			Buf: d.buf,
		}
		for _, w := range d.waiters {
			sd.Waiters = append(sd.Waiters, snapshot.Waiter{Op: w.op.qi, Idx: int32(w.idx)})
		}
		if d.state == stInflight && !d.st.Mem {
			sd.Due = d.due
		}
		st.Ops = append(st.Ops, sd)
	}
	for _, d := range a.pendingMem {
		st.PendingMem = append(st.PendingMem, d.qi)
	}
	st.LastDef = make([]snapshot.Def, len(a.lastDef))
	for i := range a.lastDef {
		rec := &a.lastDef[i]
		sd := snapshot.Def{Val: rec.val, Producer: -1, Live: rec.live}
		if rec.producer != nil {
			sd.Producer = rec.producer.qi
		}
		st.LastDef[i] = sd
	}
	return snapshot.Component{Name: a.Name(), Clk: a.CaptureClock(), Accel: st, Comm: a.Comm.capture()}, nil
}

// Restore rewinds a node — freshly Reset against the same CDFG and config
// — into a captured state. The ready and arrived sets and the due-wheel are
// rebuilt from the ops' own state. In-flight memory requests are rebuilt
// separately via RebuildRequest as the memory system restores its queues,
// so the node itself resolves none.
func (a *Accelerator) Restore(c *snapshot.Component, _ mem.Resolver) error {
	st := c.Accel
	if st == nil || c.Comm == nil {
		return fmt.Errorf("core: %s: component carries no engine state", a.Name())
	}
	if err := a.Comm.restore(c.Comm); err != nil {
		return err
	}
	g := a.CDFG
	if len(st.OpStamp) != g.NumOps || len(st.LastDef) != g.NumOps {
		return fmt.Errorf("core: %s: image has %d static ops, CDFG has %d", a.Name(), len(st.OpStamp), g.NumOps)
	}
	a.running, a.finished, a.retBits = st.Running, st.Finished, st.RetBits
	a.seq = st.Seq
	a.argBits = append(a.argBits[:0], st.ArgBits...)
	a.startCycle = st.StartCycle
	a.inflight, a.resident = st.Inflight, st.Resident
	a.pendLoads, a.pendStores, a.pendComp = st.PendLoads, st.PendStores, st.PendComp
	a.inflLoads, a.inflStores = st.InflLoads, st.InflStores
	copy(a.fuBusy, st.FuBusy)
	copy(a.opStamp, st.OpStamp)
	a.cycleStamp = st.CycleStamp

	// Pass 1: materialize every dynamic op with its scalar state, entering
	// it into the sets and, for a compute op in flight, onto the wheel.
	a.resQ = a.resQ[:0]
	a.growSets(len(st.Ops))
	now, reach := c.Clk.Cycles, uint64(g.MaxLatency)
	for qi, sd := range st.Ops {
		if int(sd.StaticID) < 0 || int(sd.StaticID) >= g.NumOps {
			return fmt.Errorf("core: %s: image op %d names static op %d of %d", a.Name(), qi, sd.StaticID, g.NumOps)
		}
		d := a.newDynOp()
		d.st = g.OpByID(int(sd.StaticID))
		d.seq = sd.Seq
		d.operands = append(d.operands[:0], sd.Operands...)
		d.pending = append(d.pending[:0], sd.Pending...)
		d.waitingOn = int(sd.WaitingOn)
		d.waiters = d.waiters[:0]
		d.state = opState(sd.State)
		d.val = sd.Val
		d.qi = int32(qi)
		d.addr, d.size = sd.Addr, int(sd.Size)
		d.arrived = sd.Arrived
		d.buf = sd.Buf
		d.win, d.ordBlk, d.ordSeq = winUnknown, nil, 0
		a.resQ = append(a.resQ, d)
		if d.state == stInflight && !d.st.Mem {
			// A compute op arrives only by coming due, within the wheel's reach.
			if sd.Arrived || sd.Due <= now || sd.Due-now > reach {
				return fmt.Errorf("core: %s: image op %d is due at cycle %d (arrived: %v), outside (%d, %d]", a.Name(), qi, sd.Due, sd.Arrived, now, now+reach)
			}
			d.due = sd.Due
			a.park(d)
		}
		a.index(d)
	}
	// Pass 2: rebuild dependence edges, now that queue indices resolve.
	for qi, sd := range st.Ops {
		d := a.resQ[qi]
		for _, w := range sd.Waiters {
			if int(w.Op) < 0 || int(w.Op) >= len(a.resQ) {
				return fmt.Errorf("core: %s: image op %d waiter names resQ[%d]", a.Name(), qi, w.Op)
			}
			d.waiters = append(d.waiters, waiter{op: a.resQ[w.Op], idx: int(w.Idx)})
		}
	}
	a.pendingMem = a.pendingMem[:0]
	for _, qi := range st.PendingMem {
		if int(qi) < 0 || int(qi) >= len(a.resQ) {
			return fmt.Errorf("core: %s: image pendingMem names resQ[%d]", a.Name(), qi)
		}
		a.pendingMem = append(a.pendingMem, a.resQ[qi])
	}
	for i, sd := range st.LastDef {
		rec := defRec{val: sd.Val, live: sd.Live}
		if sd.Producer >= 0 {
			if int(sd.Producer) >= len(a.resQ) {
				return fmt.Errorf("core: %s: image lastDef[%d] names resQ[%d]", a.Name(), i, sd.Producer)
			}
			rec.producer = a.resQ[sd.Producer]
		}
		a.lastDef[i] = rec
	}
	a.RestoreClock(c.Clk)
	return nil
}

// Owner is the tag the engine stamps on its loads and stores.
func (a *Accelerator) Owner() uint8 { return snapshot.OwnerEngine }

// RebuildRequest reconstructs an in-flight engine memory request from its
// captured form, rebinding it to the restored dynamic op named by its
// owner ID (the dynOp seq) through a fresh pooled wrapper — exactly the
// binding IssueRead/IssueWrite would have produced.
func (a *Accelerator) RebuildRequest(sr snapshot.Req) (*mem.Request, error) {
	var d *dynOp
	for _, o := range a.resQ {
		if o.seq == sr.OwnerID && o.st != nil && o.state == stInflight {
			d = o
			break
		}
	}
	if d == nil {
		return nil, fmt.Errorf("core: %s: in-flight request owner seq %d not in restored queue", a.Name(), sr.OwnerID)
	}
	c := a.Comm
	cr := c.allocReq()
	cr.start = sim.Tick(sr.Issued)
	if sr.Write {
		cr.wdone = d.arriveFn
		cr.req = mem.Request{
			Addr: sr.Addr, Size: sr.Size, Write: true, Data: d.buf[:sr.Size],
			Done: cr.writeDoneFn, Owner: sr.Owner, OwnerID: sr.OwnerID, Issued: cr.start,
		}
	} else {
		cr.rdone = d.readDoneFn
		cr.req = mem.Request{
			Addr: sr.Addr, Size: sr.Size,
			Done: cr.readDoneFn, Owner: sr.Owner, OwnerID: sr.OwnerID, Issued: cr.start,
		}
		if sr.Size <= len(cr.buf) {
			cr.req.Data = cr.buf[:sr.Size]
		}
	}
	return &cr.req, nil
}
