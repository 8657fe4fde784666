package mem

import (
	"strconv"

	"gosalam/internal/hw"
	"gosalam/internal/sim"
	"gosalam/internal/timeline"
	"gosalam/ir"
)

// Scratchpad is a banked, multi-ported SPM: the paper's private/shared
// scratchpad with configurable partitioning and bandwidth (Fig. 6).
// Requests are serviced at up to PortsPerBank accesses per bank per cycle
// and complete LatencyCycles later.
type Scratchpad struct {
	sim.Clocked

	rng   AddrRange
	space *ir.FlatMem

	LatencyCycles int
	Banks         int
	PortsPerBank  int
	// WordBytes is the interleaving granularity for bank selection
	// (cyclic partitioning). Block partitioning uses contiguous regions.
	WordBytes int
	// BlockPartition switches bank selection from cyclic (word-
	// interleaved) to block (contiguous) partitioning.
	BlockPartition bool

	queues []reqQueue // one per bank
	// portUsed counts port slots consumed per bank within the current
	// cycle; a request charges one slot on every bank it touches.
	portUsed []int

	// rec, when non-nil, receives per-bank service slices (AttachTimeline).
	rec    timeline.Recorder
	tlBank []timeline.LaneID

	// Stats.
	Reads, Writes      *sim.Scalar
	BytesRead, BytesWr *sim.Scalar
	BankConflictCycles *sim.Scalar
	// MultiBank counts serviced accesses that spanned more than one bank
	// (DMA bursts wider than the interleaving word).
	MultiBank  *sim.Scalar
	QueueDelay *sim.Distribution
}

// NewScratchpad creates an SPM over the given range of the global space.
func NewScratchpad(name string, q *sim.EventQueue, clk *sim.ClockDomain,
	space *ir.FlatMem, rng AddrRange, latency, banks, portsPerBank int,
	stats *sim.Group) *Scratchpad {
	if banks < 1 {
		banks = 1
	}
	s := &Scratchpad{
		rng: rng, space: space,
		Banks: banks, WordBytes: 8,
		queues:   make([]reqQueue, banks),
		portUsed: make([]int, banks),
	}
	s.Retune(latency, portsPerBank)
	s.InitClocked(name, q, clk)
	s.CycleFn = s.cycle
	g := stats.Child(name)
	s.Reads = g.Scalar("reads", "read accesses serviced")
	s.Writes = g.Scalar("writes", "write accesses serviced")
	s.BytesRead = g.Scalar("bytes_read", "bytes read")
	s.BytesWr = g.Scalar("bytes_written", "bytes written")
	s.BankConflictCycles = g.Scalar("bank_conflict_cycles", "bank-cycles with requests left waiting")
	s.MultiBank = g.Scalar("multi_bank_accesses", "serviced accesses touching more than one bank")
	s.QueueDelay = g.Distribution("queue_delay", "ticks spent queued before service")
	return s
}

// Range returns the SPM's address range.
func (s *Scratchpad) Range() AddrRange { return s.rng }

// Retune applies the per-design-point knobs — access latency and ports per
// bank (at least one) — at construction and again before each warm run.
// Geometry (range, bank count) is fixed at construction.
func (s *Scratchpad) Retune(latency, portsPerBank int) {
	s.LatencyCycles = latency
	s.PortsPerBank = max(1, portsPerBank)
}

// Reset rewinds the SPM for a warm-started run after the owning EventQueue
// has been Reset: bank queues drop any requests an abandoned run left
// behind and the clocked state rewinds to idle.
func (s *Scratchpad) Reset() {
	for b := range s.queues {
		s.queues[b].reset()
	}
	s.ResetClocked()
}

// Busy reports whether any bank still has requests to serve.
func (s *Scratchpad) Busy() bool { return s.Active() }

// Cacti returns the analytic power/area model for this configuration.
func (s *Scratchpad) Cacti() hw.CactiSRAM {
	return hw.NewCactiSRAM(int(s.rng.Size), s.PortsPerBank, s.Banks)
}

func (s *Scratchpad) bank(addr uint64) int {
	off := addr - s.rng.Base
	if s.BlockPartition {
		blk := s.rng.Size / uint64(s.Banks)
		if blk == 0 {
			return 0
		}
		b := int(off / blk)
		if b >= s.Banks {
			b = s.Banks - 1
		}
		return b
	}
	return int(off/uint64(s.WordBytes)) % s.Banks
}

// bankSpan returns the banks a request occupies as (first, n): the
// request touches first, first+1, ..., first+n-1, modulo Banks under
// cyclic partitioning. A 64-byte burst over 8-byte interleaving spans
// eight banks, not one — routing by start address alone under-reports
// exactly the bank conflicts partitioning sweeps measure.
func (s *Scratchpad) bankSpan(addr, size uint64) (first, n int) {
	if size == 0 {
		size = 1
	}
	if s.BlockPartition {
		first = s.bank(addr)
		n = s.bank(addr+size-1) - first + 1
		return first, n
	}
	off := addr - s.rng.Base
	w := uint64(s.WordBytes)
	words := int((off+size-1)/w-off/w) + 1
	if words > s.Banks {
		words = s.Banks
	}
	return s.bank(addr), words
}

// Send enqueues a request.
func (s *Scratchpad) Send(r *Request) {
	if !s.rng.Contains(r.Addr, r.Size) {
		panic("mem: scratchpad request outside range: " + s.rng.String())
	}
	r.Issued = s.Q.Now()
	s.queues[s.bank(r.Addr)].push(r)
	s.Activate()
}

func (s *Scratchpad) cycle() bool {
	busy := false
	lat := s.Clk.CyclesToTicks(uint64(s.LatencyCycles))
	// Per-cycle port budget: a request needs one free slot on every bank
	// it touches and charges all of them, so wide bursts consume bandwidth
	// proportional to their width. Banks arbitrate in fixed index order.
	for b := range s.portUsed {
		s.portUsed[b] = 0
	}
	for b := range s.queues {
		for !s.queues[b].empty() {
			r := s.queues[b].peek()
			first, n := s.bankSpan(r.Addr, uint64(r.Size))
			free := true
			for k := 0; k < n; k++ {
				if s.portUsed[(first+k)%s.Banks] >= s.PortsPerBank {
					free = false
					break
				}
			}
			if !free {
				break // head-of-line blocks until slots free up next cycle
			}
			for k := 0; k < n; k++ {
				s.portUsed[(first+k)%s.Banks]++
			}
			if n > 1 {
				s.MultiBank.Inc(1)
			}
			s.queues[b].pop()
			s.QueueDelay.Sample(float64(s.Q.Now() - r.Issued))
			if r.Write {
				s.Writes.Inc(1)
				s.BytesWr.Inc(float64(r.Size))
			} else {
				s.Reads.Inc(1)
				s.BytesRead.Inc(float64(r.Size))
			}
			if s.rec != nil {
				label := "rd"
				if r.Write {
					label = "wr"
				}
				for k := 0; k < n; k++ {
					s.rec.Slice(s.tlBank[(first+k)%s.Banks],
						uint64(s.Q.Now()), uint64(s.Clk.Period()), label)
				}
			}
			complete(s.Q, s.space, r, s.Q.Now()+lat)
		}
		if !s.queues[b].empty() {
			s.BankConflictCycles.Inc(1)
			busy = true
			if s.rec != nil {
				s.rec.Instant(s.tlBank[b], uint64(s.Q.Now()), "conflict")
			}
		}
	}
	return busy
}

// AttachTimeline binds recorder lanes for the SPM: an "active" lane on
// the clocked helper plus one service lane per bank. A nil recorder
// detaches.
func (s *Scratchpad) AttachTimeline(rec timeline.Recorder) {
	s.rec = rec
	s.tlBank = s.tlBank[:0]
	if rec == nil {
		s.Clocked.AttachTimeline(nil, 0)
		return
	}
	name := s.Name()
	s.Clocked.AttachTimeline(rec, rec.Lane(name, "active"))
	for b := 0; b < s.Banks; b++ {
		s.tlBank = append(s.tlBank, rec.Lane(name, "bank"+strconv.Itoa(b)))
	}
}
