package mem

import (
	"gosalam/internal/sim"
	"gosalam/internal/timeline"
)

// StreamBuffer is a bounded FIFO with a two-way handshake, modeling the
// AXI-Stream-style links the paper uses for direct accelerator-to-
// accelerator communication (Fig. 16c). Producers that find it full and
// consumers that find it empty register one-shot wakeups.
type StreamBuffer struct {
	name     string
	capacity int
	// data[head:] holds the buffered bytes. Pop advances head instead of
	// re-slicing the front away — `data = data[n:]` permanently discards
	// the prefix capacity, so a long-lived stream re-allocates forever.
	// The prefix is reclaimed by compacting in place when a push would
	// otherwise grow the backing array, and head rewinds to zero whenever
	// the buffer drains.
	data []byte
	head int

	onData  []func()
	onSpace []func()

	// rec, when non-nil, receives an occupancy counter sample per push and
	// pop, timestamped off q (the buffer itself is unclocked).
	rec    timeline.Recorder
	tlLane timeline.LaneID
	q      *sim.EventQueue

	Pushes, Pops, StallsFull, StallsEmpty *sim.Scalar
	Occupancy                             *sim.Distribution
}

// NewStreamBuffer creates a FIFO holding up to capacity bytes; q only
// timestamps timeline samples.
func NewStreamBuffer(name string, q *sim.EventQueue, capacity int, stats *sim.Group) *StreamBuffer {
	s := &StreamBuffer{name: name, q: q, capacity: capacity}
	g := stats.Child(name)
	s.Pushes = g.Scalar("pushes", "bytes pushed")
	s.Pops = g.Scalar("pops", "bytes popped")
	s.StallsFull = g.Scalar("stalls_full", "rejected pushes (buffer full)")
	s.StallsEmpty = g.Scalar("stalls_empty", "rejected pops (not enough data)")
	s.Occupancy = g.Distribution("occupancy", "bytes resident at each push")
	return s
}

// Name returns the buffer name.
func (s *StreamBuffer) Name() string { return s.name }

// Capacity returns the byte capacity.
func (s *StreamBuffer) Capacity() int { return s.capacity }

// Len returns bytes currently buffered.
func (s *StreamBuffer) Len() int { return len(s.data) - s.head }

// Space returns free bytes.
func (s *StreamBuffer) Space() int { return s.capacity - s.Len() }

// Push appends p if it fits, reporting success. On failure the producer
// should retry after a NotifySpace wakeup.
func (s *StreamBuffer) Push(p []byte) bool {
	if len(p) > s.Space() {
		s.StallsFull.Inc(1)
		return false
	}
	if s.head > 0 && len(s.data)+len(p) > cap(s.data) {
		// Reclaim the popped prefix instead of growing: the live bytes
		// slide to the front, so the backing array stays bounded by the
		// capacity the stream actually needs.
		n := copy(s.data, s.data[s.head:])
		s.data = s.data[:n]
		s.head = 0
	}
	s.data = append(s.data, p...)
	s.Pushes.Inc(float64(len(p)))
	s.Occupancy.Sample(float64(s.Len()))
	if s.rec != nil {
		s.rec.Counter(s.tlLane, uint64(s.q.Now()), float64(s.Len()))
	}
	s.wake(&s.onData)
	return true
}

// Pop removes and returns n bytes, or (nil, false) if fewer are buffered.
func (s *StreamBuffer) Pop(n int) ([]byte, bool) {
	if s.Len() < n {
		s.StallsEmpty.Inc(1)
		return nil, false
	}
	out := make([]byte, n)
	return out, s.PopInto(out)
}

// PopInto removes the next len(dst) bytes into dst, reporting false, with
// dst untouched, if fewer are buffered. It is Pop without the allocation.
func (s *StreamBuffer) PopInto(dst []byte) bool {
	n := len(dst)
	if s.Len() < n {
		s.StallsEmpty.Inc(1)
		return false
	}
	copy(dst, s.data[s.head:s.head+n])
	s.head += n
	if s.head == len(s.data) {
		s.data = s.data[:0]
		s.head = 0
	}
	s.Pops.Inc(float64(n))
	if s.rec != nil {
		s.rec.Counter(s.tlLane, uint64(s.q.Now()), float64(s.Len()))
	}
	s.wake(&s.onSpace)
	return true
}

// NotifyData registers a one-shot callback for when data arrives.
func (s *StreamBuffer) NotifyData(fn func()) { s.onData = append(s.onData, fn) }

// NotifySpace registers a one-shot callback for when space frees.
func (s *StreamBuffer) NotifySpace(fn func()) { s.onSpace = append(s.onSpace, fn) }

// Reset rewinds the FIFO for a warm-started run: buffered bytes from an
// abandoned run are dropped and registered wakeups are forgotten — a
// stale onData/onSpace callback would otherwise re-animate the previous
// run's producer or consumer mid-way through the next one.
func (s *StreamBuffer) Reset() {
	s.data = s.data[:0]
	s.head = 0
	s.onData = nil
	s.onSpace = nil
}

// Busy reports whether the FIFO buffers data or holds registered wakeups;
// neither is captured in snapshots.
func (s *StreamBuffer) Busy() bool { return s.Len() > 0 || len(s.onData)+len(s.onSpace) > 0 }

// AttachTimeline binds an occupancy counter lane for the FIFO. A nil
// recorder detaches.
func (s *StreamBuffer) AttachTimeline(rec timeline.Recorder) {
	s.rec = rec
	if rec != nil {
		s.tlLane = rec.Lane(s.name, "occupancy")
	}
}

func (s *StreamBuffer) wake(list *[]func()) {
	fns := *list
	*list = nil
	for _, fn := range fns {
		fn()
	}
}
