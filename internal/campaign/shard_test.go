package campaign

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	salam "gosalam"
	"gosalam/kernels"
)

// shardSweep builds a deterministic 12-point fake sweep.
func shardSweep(k *kernels.Kernel) []Job {
	var jobs []Job
	for _, port := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12} {
		opts := salam.DefaultRunOpts()
		opts.Accel.ReadPorts = port
		opts.Accel.WritePorts = port
		jobs = append(jobs, Job{
			ID:        fmt.Sprintf("p=%d", port),
			Kernel:    k,
			KernelKey: "gemm/n=8",
			Opts:      opts,
		})
	}
	return jobs
}

// TestShardOfStable: the key->shard mapping is a pure function with sane
// range behavior.
func TestShardOfStable(t *testing.T) {
	keys := []string{
		"0000000000000000000000000000000000000000000000000000000000000000",
		"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
		"deadbeefcafef00ddeadbeefcafef00ddeadbeefcafef00ddeadbeefcafef00d",
	}
	for _, key := range keys {
		for _, n := range []int{1, 2, 3, 5, 7, 16} {
			got := ShardOf(key, n)
			if got < 0 || got >= n {
				t.Fatalf("ShardOf(%q, %d) = %d out of range", key, n, got)
			}
			if got != ShardOf(key, n) {
				t.Fatalf("ShardOf(%q, %d) unstable", key, n)
			}
		}
	}
	if ShardOf(keys[0], 7) != 0 {
		t.Fatalf("all-zero key must map to shard 0")
	}
	// ffff...ff mod 2 == 1 (odd value).
	if ShardOf(keys[1], 2) != 1 {
		t.Fatalf("all-f key mod 2 must be 1")
	}
}

// TestShardPartitionExact: across n shards, every job is owned by exactly
// one shard, the owned sets are disjoint, each shard simulates only its
// own jobs, and the union covers the sweep.
func TestShardPartitionExact(t *testing.T) {
	k := kernels.GEMM(8, 1)
	jobs := shardSweep(k)
	const n = 3
	owned := make([]int, len(jobs))
	for i, j := range jobs {
		key, err := JobKey(j)
		if err != nil {
			t.Fatal(err)
		}
		owned[i] = ShardOf(key, n)
	}

	simulatedBy := make([][]bool, n)
	for shard := 0; shard < n; shard++ {
		simulated := make([]bool, len(jobs))
		runner := func(_ context.Context, _ *kernels.Kernel, opts salam.RunOpts) (*salam.Result, error) {
			simulated[opts.Accel.ReadPorts-1] = true
			return &salam.Result{Cycles: uint64(100 + opts.Accel.ReadPorts)}, nil
		}
		out := Run(context.Background(), Config{
			Workers: 2,
			Runner:  runner,
			Shard:   &Shard{Index: shard, Count: n},
		}, jobs)
		for i, o := range out {
			wantOwned := owned[i] == shard
			if o.Skipped == wantOwned {
				t.Fatalf("shard %d job %d: Skipped=%v, owned=%v", shard, i, o.Skipped, wantOwned)
			}
			if wantOwned && (o.Err != nil || o.Metrics == nil) {
				t.Fatalf("shard %d owned job %d did not run: %+v", shard, i, o)
			}
			if !wantOwned && o.Metrics != nil {
				t.Fatalf("shard %d foreign job %d has metrics", shard, i)
			}
		}
		simulatedBy[shard] = simulated
	}
	for i := range jobs {
		count := 0
		for shard := 0; shard < n; shard++ {
			if simulatedBy[shard][i] {
				count++
			}
		}
		if count != 1 {
			t.Fatalf("job %d simulated by %d shards, want exactly 1", i, count)
		}
	}
}

// TestShardMergeByteIdentical: two shards sharing one store, merged
// through MergeRows, render byte-identical NDJSON to an unsharded run of
// the same sweep — the property that makes sharded campaigns assemble
// deterministically.
func TestShardMergeByteIdentical(t *testing.T) {
	k := kernels.GEMM(8, 1)
	jobs := shardSweep(k)
	var calls atomic.Int32
	runner := countingRunner(&calls)

	// Reference: unsharded, storeless run.
	ref := Run(context.Background(), Config{Workers: 3, Runner: runner}, jobs)
	if err := FirstError(ref); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteRows(&want, Rows(ref)); err != nil {
		t.Fatal(err)
	}

	store, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	calls.Store(0)
	for shard := 0; shard < 2; shard++ {
		out := Run(context.Background(), Config{
			Workers: 2,
			Runner:  runner,
			Cache:   store,
			Shard:   &Shard{Index: shard, Count: 2},
		}, jobs)
		for _, o := range out {
			if o.Err != nil {
				t.Fatalf("shard %d: %v", shard, o.Err)
			}
		}
	}
	if got := int(calls.Load()); got != len(jobs) {
		t.Fatalf("two shards simulated %d jobs total, want %d (zero duplication)", got, len(jobs))
	}

	merged, err := MergeRows(jobs, store)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := WriteRows(&got, merged); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("merged rows differ from unsharded run:\nmerged:\n%s\nunsharded:\n%s", got.String(), want.String())
	}
}

// TestMergeRowsMissing: a merge over an incomplete store reports the holes
// as status "missing" instead of inventing data.
func TestMergeRowsMissing(t *testing.T) {
	k := kernels.GEMM(8, 1)
	jobs := shardSweep(k)[:3]
	store, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Persist only job 1.
	key, err := JobKey(jobs[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(key, jobs[1], &Metrics{Cycles: 42}); err != nil {
		t.Fatal(err)
	}
	rows, err := MergeRows(jobs, store)
	if err != nil {
		t.Fatal(err)
	}
	wantStatus := []string{StatusMissing, StatusOK, StatusMissing}
	for i, r := range rows {
		if r.Status != wantStatus[i] {
			t.Fatalf("row %d status %q, want %q", i, r.Status, wantStatus[i])
		}
	}
	if rows[1].Metrics == nil || rows[1].Metrics.Cycles != 42 {
		t.Fatalf("row 1 metrics lost: %+v", rows[1])
	}
}
