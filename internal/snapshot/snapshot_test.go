package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"
)

// testImage builds an image exercising every struct in the format.
func testImage() *Image {
	return &Image{
		Kind:  KindSession,
		Key:   "k:test",
		Queue: Queue{Now: 12345, Seq: 678, Fired: 600, Pending: 3},
		Space: []byte{1, 2, 3, 4, 5},
		Stats: Group{
			Name: "root",
			Stats: []Stat{
				{Kind: StatScalar, Name: "cycles", V: 42},
				{Kind: StatVector, Name: "ops", Keys: []string{"load", "add"}, Vals: []float64{7, 9}},
				{Kind: StatDistribution, Name: "lat", N: 3, Sum: 30, Min: 5, Max: 20},
				{Kind: StatFormula, Name: "ipc"},
			},
			Children: []Group{{Name: "acc", Stats: []Stat{{Kind: StatScalar, Name: "stalls", V: 1}}}},
		},
		Comps: []Component{
			{Name: "spm", Clk: Clock{Active: true, Cycles: 98, Armed: true, Tick: Event{When: 1000, Pri: 10, Seq: 54}}, SPM: &SPM{
				Queues: [][]Req{{{Owner: OwnerEngine, OwnerID: 16, Addr: 0x40, Size: 8, Issued: 12000}}, nil},
			}},
			{Name: "dram", DRAM: &DRAM{Queue: []Req{{Owner: OwnerCacheFill, OwnerID: 0xc0, Addr: 0xc0, Size: 64}}, OpenRow: []uint64{^uint64(0)}, Budget: 32}},
			{Name: "l1", Cache: &Cache{
				Sets:    [][]CacheLine{{{Tag: 0x80, Valid: true, Dirty: true, LRU: 7}}},
				LRUTick: 8,
				MSHRs:   []MSHR{{LineAddr: 0xc0, Waiting: []Req{{Owner: OwnerEngine, OwnerID: 15, Addr: 0xc8, Size: 8}}}},
			}},
			{Name: "acc",
				Clk: Clock{Active: true, Cycles: 99, Armed: true, Tick: Event{When: 1000, Pri: 10, Seq: 55}},
				Accel: &Accel{
					Running: true,
					Seq:     17,
					ArgBits: []uint64{0x1000, 0x2000},
					OpStamp: []uint64{1, 0, 2},
					Ops: []DynOp{{
						StaticID: 4, Seq: 16, Operands: []uint64{8, 9},
						Pending: []bool{false, true}, WaitingOn: 1,
						Waiters: []Waiter{{Op: 1, Idx: 0}}, State: 1,
						Due: 102,
					}},
					PendingMem: []int32{0},
					LastDef:    []Def{{Val: 3, Producer: -1, Live: true}},
				},
				Comm: &Comm{OutReads: 1, MMR: []uint64{0, 1, 2, 3}},
			},
		},
		Sched: []Req{{Owner: OwnerWriteback, Addr: 0x100, Size: 64, Write: true, TimingOnly: true, Sched: true, Ev: Event{When: 1050, Pri: 20, Seq: 50}}},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	img := testImage()
	b, err := img.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	b2, err := got.Encode()
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("Encode→Decode→Encode not byte-identical (%d vs %d bytes)", len(b), len(b2))
	}
	if got.Queue != img.Queue || got.Kind != img.Kind || got.Key != img.Key {
		t.Fatalf("decoded header mismatch: %+v", got.Queue)
	}
	if got.Comps[3].Accel.Ops[0].Due != img.Comps[3].Accel.Ops[0].Due {
		t.Fatalf("dynOp due cycle mismatch: %d", got.Comps[3].Accel.Ops[0].Due)
	}
	// The image's claims — armed clocks and scheduled requests — are
	// exactly its recorded pending events.
	claimed := len(got.Sched)
	for i := range got.Comps {
		claimed += got.Comps[i].Claims()
	}
	if claimed != got.Queue.Pending {
		t.Fatalf("claims = %d, want %d", claimed, got.Queue.Pending)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a, err := testImage().Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := testImage().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two encodes of the same logical state differ")
	}
}

// Decode must reject damaged input with an error — never panic — for
// every truncation length and every single-byte corruption.
func TestDecodeRejectsDamage(t *testing.T) {
	full, err := testImage().Encode()
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(full); n++ {
		if _, err := Decode(full[:n]); err == nil {
			t.Fatalf("Decode accepted truncation to %d of %d bytes", n, len(full))
		}
	}
	for i := 0; i < len(full); i++ {
		bad := append([]byte(nil), full...)
		bad[i] ^= 0xff
		if _, err := Decode(bad); err == nil {
			t.Fatalf("Decode accepted corruption at byte %d", i)
		}
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("Decode accepted nil input")
	}
}

func TestDecodeRejectsWrongVersion(t *testing.T) {
	full, err := testImage().Encode()
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), full...)
	binary.LittleEndian.PutUint16(bad[4:6], 2) // the previous format
	// Re-seal with a valid checksum so the version check, not the CRC,
	// is what trips.
	binary.LittleEndian.PutUint32(bad[len(bad)-4:], crc32.ChecksumIEEE(bad[:len(bad)-4]))
	if _, err := Decode(bad); err == nil {
		t.Fatal("Decode accepted wrong format version")
	}
	if !strings.Contains(Decode2Err(bad), "version") {
		t.Fatalf("want version error, got %q", Decode2Err(bad))
	}
}

// Decode2Err returns Decode's error text ("" on success).
func Decode2Err(b []byte) string {
	_, err := Decode(b)
	if err == nil {
		return ""
	}
	return err.Error()
}
