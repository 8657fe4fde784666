// Package snapshot defines the versioned, deterministic serialization
// format for full SoC dynamic state: the event queue's logical pending
// set, backing-store bytes, device state (SPM/cache/DRAM queues, MSHRs,
// stream buffers, MMRs), per-accelerator CDFG progress (in-flight dynOps,
// opStamp arrays), and the statistics tree.
//
// The package is a leaf: plain state structs plus an Image envelope, with
// no simulator imports. Devices in sim/mem/core exchange these structs
// through their Capture/Restore methods; the root salam package's system
// core walks its component registry to fill and land an Image, the same
// way for a single-accelerator Session and a full SoC.
//
// Restoration soundness rests on one property of the event queue: pop
// order is a total order on (when, pri, seq), independent of heap layout
// or slot indices. A snapshot therefore records only the logical state —
// each pending event's (when, pri, seq) claimed by the component that
// owns its callback — and restore re-schedules the same multiset with
// historical sequence numbers, after which the simulation replays
// byte-identically to a run that never stopped.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
)

// Image kinds.
const (
	// KindSession is a single-accelerator Session checkpoint taken
	// mid-run at an event boundary.
	KindSession = "session"
	// KindSoC is a full-SoC checkpoint, typically taken at quiescence
	// (empty event queue).
	KindSoC = "soc"
)

// Request owner tags: which component created an in-flight memory request
// and will rebind its completion callback on restore. The values are part
// of the image format; do not reorder.
const (
	// OwnerNone marks a request no component claims; such requests make
	// the state unsnapshotable and Checkpoint reports a clean error.
	OwnerNone uint8 = iota
	// OwnerEngine is an accelerator load/store (OwnerID = dynOp seq).
	OwnerEngine
	// OwnerCacheFill is a cache line fill (OwnerID = line address).
	OwnerCacheFill
	// OwnerWriteback is a timing-only dirty eviction (no callback).
	OwnerWriteback
)

// Event is one pending event-queue entry, identified by its logical
// scheduling coordinates. Seq is globally unique among pending events.
type Event struct {
	When uint64
	Pri  int32
	Seq  uint64
}

// Queue is the event queue's logical state: current time, the next
// sequence number, the fired-event count, and how many events were
// pending at capture (cross-checked after restore re-schedules claims).
type Queue struct {
	Now     uint64
	Seq     uint64
	Fired   uint64
	Pending int
}

// Clock is the state of one sim.Clocked helper: whether it is
// self-scheduling, its executed-cycle count, and its armed tick event.
type Clock struct {
	Active bool
	Cycles uint64
	Armed  bool
	Tick   Event
}

// Stat kinds inside a Group.
const (
	StatScalar uint8 = iota + 1
	StatVector
	StatDistribution
	StatFormula
)

// Stat is one captured statistic. Formula stats carry no state but are
// recorded (kind+name only) so restore can verify structural identity.
type Stat struct {
	Kind uint8
	Name string
	// Scalar value.
	V float64
	// Vector keys in insertion order with their values.
	Keys []string
	Vals []float64
	// Distribution moments.
	N             uint64
	Sum, Min, Max float64
}

// Group is one captured stats group subtree.
type Group struct {
	Name     string
	Stats    []Stat
	Children []Group
}

// Req is one in-flight memory request, captured wherever it lives: a
// device queue (in FIFO order), an MSHR waiting list, or — when Sched is
// set — the event queue itself as a scheduled completion.
type Req struct {
	Owner      uint8
	OwnerID    uint64
	Addr       uint64
	Size       int
	Write      bool
	TimingOnly bool
	// Data carries write payload bytes. Reads omit it: the backing store
	// fills read data at fire time, so pre-fire contents are irrelevant.
	Data   []byte
	Issued uint64
	Sched  bool
	Ev     Event
}

// SPM is a scratchpad's dynamic state: per-bank request queues in FIFO
// order.
type SPM struct {
	Queues [][]Req
}

// CacheLine is one cache line's tag state.
type CacheLine struct {
	Tag          uint64
	Valid, Dirty bool
	LRU          uint64
}

// MSHR is one miss-status holding register: the missing line and the
// requests waiting on its fill. The fill request itself is captured
// wherever it currently lives (downstream queue or scheduled completion)
// as an OwnerCacheFill request with OwnerID = LineAddr.
type MSHR struct {
	LineAddr uint64
	Waiting  []Req
}

// Cache is a cache's dynamic state.
type Cache struct {
	Sets     [][]CacheLine
	LRUTick  uint64
	Incoming []Req
	MSHRs    []MSHR
}

// DRAM is the DRAM model's dynamic state.
type DRAM struct {
	Queue   []Req
	OpenRow []uint64
	Budget  int
}

// Comm is a communications interface's dynamic state: port counters and
// the MMR register file.
type Comm struct {
	ReadsCycle, WritesCycle int
	OutReads, OutWrites     int
	MMR                     []uint64
}

// Waiter is one (consumer op, operand index) dependence edge, with the
// consumer identified by its reservation-queue index.
type Waiter struct {
	Op  int32
	Idx int32
}

// DynOp is one in-flight dynamic operation in the reservation queue.
// Static identity is the dense StaticOp ID; dependences are encoded as
// queue indices. Due is the cycle an in-flight compute op commits at, zero
// for every other op (memory ops complete through captured Reqs instead).
type DynOp struct {
	StaticID  int32
	Seq       uint64
	Operands  []uint64
	Pending   []bool
	WaitingOn int32
	Waiters   []Waiter
	State     uint8
	Val       uint64
	Addr      uint64
	Size      int32
	Arrived   bool
	Buf       [8]byte
	Due       uint64
}

// Def is one last-definition record: the newest value (or in-flight
// producer, by queue index; -1 = none) for a static op's result.
type Def struct {
	Val      uint64
	Producer int32
	Live     bool
}

// Accel is an accelerator engine's dynamic state between events.
// Per-cycle transients (issue slots, hazard flags) are dead at event
// boundaries and are deliberately not part of the format.
type Accel struct {
	Running, Finished               bool
	RetBits                         uint64
	Seq                             uint64
	ArgBits                         []uint64
	StartCycle                      uint64
	Inflight                        int
	Resident                        int
	PendLoads, PendStores, PendComp int
	InflLoads, InflStores           int
	FuBusy                          []int
	OpStamp                         []uint64
	CycleStamp                      uint64
	Ops                             []DynOp
	PendingMem                      []int32
	LastDef                         []Def
}

// Component is one registered component's state, named so restore can
// check it lands in the same device: its clocked helper, plus exactly the
// fields the component's kind uses (an accelerator node fills Accel and
// Comm).
type Component struct {
	Name  string
	Clk   Clock
	SPM   *SPM
	Cache *Cache
	DRAM  *DRAM
	Accel *Accel
	Comm  *Comm
}

// Claims counts the pending events this component's state accounts for:
// its armed clock tick. Checkpoint sums these against the queue's pending
// total.
func (c *Component) Claims() int {
	if c.Clk.Armed {
		return 1
	}
	return 0
}

// Image is one complete checkpoint: the shared queue/space/stats triple,
// every snapshot-capable component in registry order, and the requests
// pending as scheduled completions. Key is an opaque structural
// fingerprint that restore validates before touching any state.
type Image struct {
	Kind  string
	Key   string
	Queue Queue
	Space []byte
	Stats Group
	Comps []Component
	// Sched holds requests pending as scheduled completions, sorted by
	// event sequence number.
	Sched []Req
}

// Binary envelope: magic, format version, payload length, gob payload,
// CRC-32 (IEEE) over everything before the checksum. The CRC is verified
// before the payload is decoded, so truncated or corrupted images fail
// with a clean error instead of feeding garbage to the decoder.
var magic = [4]byte{'G', 'S', 'N', 'P'}

// Version is the image format version. Decode rejects other versions.
const Version uint16 = 3

// Encode serializes the image. Encoding the same logical state always
// produces the same bytes: the payload is a gob stream of a fixed struct
// shape (type descriptors appear in a deterministic order) and the
// envelope adds only derived fields.
func (img *Image) Encode() ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(img); err != nil {
		return nil, fmt.Errorf("snapshot: encode: %w", err)
	}
	var out bytes.Buffer
	out.Write(magic[:])
	var hdr [6]byte
	binary.LittleEndian.PutUint16(hdr[0:2], Version)
	binary.LittleEndian.PutUint32(hdr[2:6], uint32(payload.Len()))
	out.Write(hdr[:])
	out.Write(payload.Bytes())
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(out.Bytes()))
	out.Write(crc[:])
	return out.Bytes(), nil
}

// Decode parses an encoded image, verifying envelope integrity first.
// All failure modes — short input, bad magic, version mismatch, length
// mismatch, checksum failure, undecodable payload — return errors; no
// input can panic the decoder, because the payload is only decoded after
// its checksum proves it byte-identical to what Encode produced.
func Decode(b []byte) (*Image, error) {
	const envelope = 4 + 6 + 4 // magic + header + crc
	if len(b) < envelope {
		return nil, fmt.Errorf("snapshot: truncated image (%d bytes)", len(b))
	}
	if !bytes.Equal(b[:4], magic[:]) {
		return nil, fmt.Errorf("snapshot: bad magic %q", b[:4])
	}
	if v := binary.LittleEndian.Uint16(b[4:6]); v != Version {
		return nil, fmt.Errorf("snapshot: unsupported format version %d (want %d)", v, Version)
	}
	n := int(binary.LittleEndian.Uint32(b[6:10]))
	if len(b) != envelope+n {
		return nil, fmt.Errorf("snapshot: image length %d does not match header (%d payload bytes)", len(b), n)
	}
	want := binary.LittleEndian.Uint32(b[len(b)-4:])
	if got := crc32.ChecksumIEEE(b[:len(b)-4]); got != want {
		return nil, fmt.Errorf("snapshot: checksum mismatch (image corrupted)")
	}
	img := &Image{}
	if err := gob.NewDecoder(bytes.NewReader(b[10 : len(b)-4])).Decode(img); err != nil {
		return nil, fmt.Errorf("snapshot: decode: %w", err)
	}
	return img, nil
}
