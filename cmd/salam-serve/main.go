// Command salam-serve is the simulation-campaign daemon: a multi-tenant
// HTTP/JSON service that accepts design-space submissions, runs them
// through the warm-start campaign engine, and streams per-point results as
// NDJSON in deterministic submission order. Several salam-serve processes
// configured as shards of one store split every sweep with zero duplicated
// simulation; -merge reassembles the combined, byte-identical result.
//
// Usage:
//
//	salam-serve -addr :8080 -store results/store
//	salam-serve -addr :8081 -store results/store -shard 0/2
//	salam-serve -addr :8082 -store results/store -shard 1/2
//	salam-serve -merge -store results/store -space space.json > merged.ndjson
//
// API:
//
//	POST /v1/campaigns                 submit a space spec (JSON body)
//	GET  /v1/campaigns                 list campaigns
//	GET  /v1/campaigns/{id}            status
//	GET  /v1/campaigns/{id}/results    NDJSON stream (resume with ?from=idx)
//	GET  /healthz                      liveness (503 while draining)
//	GET  /statsz                       counters + elab-cache hit rate
//
// SIGTERM/SIGINT drains gracefully: in-flight points finish and persist to
// the store, queued work is rejected, then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gosalam/internal/campaign"
	"gosalam/internal/serve"
)

// parseShard parses "k/n" into a Shard.
func parseShard(s string) (campaign.Shard, error) {
	if s == "" {
		return campaign.Shard{}, nil
	}
	idx := strings.IndexByte(s, '/')
	if idx < 0 {
		return campaign.Shard{}, fmt.Errorf("invalid shard %q: want k/n (e.g. 0/2)", s)
	}
	k, err1 := strconv.Atoi(s[:idx])
	n, err2 := strconv.Atoi(s[idx+1:])
	if err1 != nil || err2 != nil {
		return campaign.Shard{}, fmt.Errorf("invalid shard %q: want k/n (e.g. 0/2)", s)
	}
	sh := campaign.Shard{Index: k, Count: n}
	if !sh.Valid() {
		return campaign.Shard{}, fmt.Errorf("invalid shard %d/%d: want 0 <= k < n", k, n)
	}
	return sh, nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for a random port)")
	storeDir := flag.String("store", "", "shared result-store directory (required with -shard and -merge)")
	shardSpec := flag.String("shard", "", "claim only points whose key maps to shard k of n, as k/n (empty = all)")
	workers := flag.Int("workers", 0, "worker pool per campaign (0 = GOMAXPROCS)")
	active := flag.Int("active", 2, "campaigns running concurrently")
	queue := flag.Int("queue", 16, "submission queue depth before load shedding")
	maxPoints := flag.Int("max-points", 4096, "largest accepted design space")
	tenantActive := flag.Int("tenant-active", 4, "per-tenant queued+running campaign quota")
	tenantPoints := flag.Int("tenant-points", 16384, "per-tenant queued+running point quota")
	deadline := flag.Duration("deadline", 10*time.Minute, "per-campaign deadline (0 = none)")
	merge := flag.Bool("merge", false, "merge mode: read -space, emit merged NDJSON rows from -store, exit")
	spacePath := flag.String("space", "", "space spec JSON file for -merge (\"-\" = stdin)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "salam-serve:", err)
		os.Exit(2)
	}

	shard, err := parseShard(*shardSpec)
	if err != nil {
		fail(err)
	}

	if *merge {
		if *storeDir == "" || *spacePath == "" {
			fail(fmt.Errorf("-merge needs -store and -space"))
		}
		space, err := campaign.LoadSpace(*spacePath)
		if err != nil {
			fail(err)
		}
		store, err := campaign.OpenCache(*storeDir)
		if err != nil {
			fail(err)
		}
		missing, err := serve.Merge(space, store, os.Stdout)
		if err != nil {
			fail(err)
		}
		if missing > 0 {
			fmt.Fprintf(os.Stderr, "salam-serve: %d point(s) missing from the store (shards still running, or failed points)\n", missing)
			os.Exit(1)
		}
		return
	}

	cfg := serve.Config{
		Shard:        shard,
		Workers:      *workers,
		MaxActive:    *active,
		QueueDepth:   *queue,
		MaxPoints:    *maxPoints,
		TenantActive: *tenantActive,
		TenantPoints: *tenantPoints,
		Deadline:     *deadline,
	}
	if *storeDir != "" {
		store, err := campaign.OpenCache(*storeDir)
		if err != nil {
			fail(err)
		}
		cfg.Store = store
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		fail(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "salam-serve: listening on http://%s", ln.Addr())
	if shard.Count > 1 {
		fmt.Fprintf(os.Stderr, " (shard %d/%d)", shard.Index, shard.Count)
	}
	fmt.Fprintln(os.Stderr)

	httpSrv := &http.Server{Handler: srv}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "salam-serve: %v: draining (in-flight points will finish and persist)\n", sig)
		srv.Drain()
		srv.Wait()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx) //nolint:errcheck // lingering streams are cut at the deadline
		fmt.Fprintln(os.Stderr, "salam-serve: drained")
	case err := <-errCh:
		if err != nil && err != http.ErrServerClosed {
			fail(err)
		}
	}
}
