package salam_test

import (
	"strings"
	"testing"

	salam "gosalam"
	"gosalam/internal/snapshot"
	"gosalam/kernels"
)

// FuzzSnapshotDecode holds the snapshot byte surface to "reject or accept,
// never panic or hang": arbitrary bytes go through Decode, whatever decodes
// is restored into a fresh GEMM session, and whatever restores is run to the
// end under a cycle bound.
func FuzzSnapshotDecode(f *testing.F) {
	k := kernels.GEMM(8, 1)
	opts := salam.DefaultRunOpts()
	straight, err := salam.RunKernel(k, opts)
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range []uint64{0, 1, straight.Cycles / 2, straight.Cycles - 1} {
		s, err := salam.NewSession(k, opts)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := s.RunToCycle(opts, c); err != nil {
			f.Fatal(err)
		}
		img, err := s.Checkpoint()
		if err != nil {
			f.Fatal(err)
		}
		enc, err := img.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	f.Add([]byte("GSNP\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := snapshot.Decode(data)
		if err != nil {
			return
		}
		s, err := salam.NewSession(k, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Restore(opts, img); err != nil {
			return
		}
		if _, err := s.ResumeWithin(opts, 4*straight.Cycles); err != nil && strings.Contains(err.Error(), "canceled") {
			t.Fatalf("restored image never finishes: %v", err)
		}
	})
}
