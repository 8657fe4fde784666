# gosalam build/test entry points.
#
# `make check` is the tier-1 gate: full build + tests, vet, the race
# detector over the repo's concurrency layer (the campaign engine and the
# experiment sweeps that ride on it), plus the golden determinism guard
# and a 1-iteration benchmark smoke so a change that breaks the benchmark
# harness is caught before bench/run.sh has to find it.

GO ?= go

.PHONY: all build test race vet vet-sim analyze-smoke fuzz-smoke golden trace-smoke serve-smoke search-smoke dse-smoke snapshot-smoke sample-smoke config-smoke ll-smoke bench-smoke bench-build check bench-all bench-campaign loc

all: check

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Determinism linter: rejects map iteration, wall-clock reads, math/rand,
# and stray goroutines in the simulation packages (see cmd/salam-vet).
vet-sim:
	$(GO) run ./cmd/salam-vet ./...

# Static analyzer smoke: every kernel must analyze without error and
# produce a nonzero lower bound (the CSV goes to /dev/null; failure exits
# nonzero).
analyze-smoke:
	$(GO) run ./cmd/salam analyze -all > /dev/null

# Native-fuzz smoke over the untrusted-input surfaces: malformed CDFG
# sources through parse -> elaborate -> analyze -> cycle/energy bounds,
# arbitrary bytes through the .ll parser (parse -> verify -> print),
# arbitrary bytes through the strict config decoder (parse -> validate ->
# emit), and arbitrary bytes through the snapshot decoder (decode -> restore
# into a fresh session -> run under a cycle bound). The contract everywhere
# is "reject or accept, never panic" — and for snapshots, never hang.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzAnalyzeReport -fuzztime 5s ./internal/analysis
	$(GO) test -run '^$$' -fuzz FuzzParseLL -fuzztime 5s ./ir
	$(GO) test -run '^$$' -fuzz FuzzSoCConfig -fuzztime 5s ./internal/soccfg
	$(GO) test -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime 5s .

# The concurrent subsystems — the campaign engine, the experiments that
# drive real parallel simulations through it, and the salam-serve service
# layer on top — must stay race-clean by construction.
race:
	$(GO) test -race ./internal/campaign/... ./internal/experiments/... ./internal/search/... ./internal/serve/... ./internal/sample/...
	$(GO) test -race -run 'TestSampled|TestRestore|TestCheckpoint|TestSessionPool' -count=1 .

# Golden determinism guard: cycles, ticks, fired events and schedule_sha
# (the sha256 of every cycle's issue/resident/hazard sample) for the
# committed kernel set must stay byte-identical to
# testdata/golden_cycles.json. Perf work on the engine hot paths is only
# legal when this passes; only a change that moves work on or off the event
# queue may regenerate events_fired, and then schedule_sha must not move.
# The memory-order oracle holds the engine's memoized disambiguation to
# the full scan at every edge of the golden kernels, the stream SoC and
# random kernels, and the stream config must match its Go-built twin, so
# the gate covers every ordering branch.
golden:
	$(GO) test -run TestGoldenDeterminism -count=1 .
	$(GO) test -run 'TestMemOrder|TestDynOpSizeClass' -count=1 ./internal/core
	$(GO) test -run TestConfigStreamMatchesGoBuilt -count=1 .

# Timeline smoke: the CLI path writes a gemm Perfetto trace end to end, and
# the decoding test re-validates the trace_event JSON structure plus the
# observer-effect guarantee (traced golden bytes == committed golden bytes).
trace-smoke:
	$(GO) run ./cmd/salam-sim -config configs/gemm_spm.json \
		-timeline /tmp/gosalam-trace-smoke.json -timeline-breakdown > /dev/null
	$(GO) test -run 'TestTimelineTrace|TestGoldenTracedObserverEffect' -count=1 .

# salam-serve smoke: two in-process shards over real HTTP split the
# gemm_dse space against one shared store — zero duplicated simulation
# (checked via /statsz) and a merged result byte-identical to a local
# campaign.Run.
serve-smoke:
	$(GO) test -run TestServeSmoke -count=1 ./internal/serve

# Branch-and-bound search smoke: the searched Pareto frontier of a small
# multi-axis space must equal the brute-force sweep's Pareto filter byte
# for byte — the exactness oracle behind salam-dse -search.
search-smoke:
	$(GO) test -run TestSearchExactFrontier -count=1 ./internal/search

# salam-dse smoke: for every capture testdata/dse/<document>.<mode>, the
# binary run on configs/spaces/<document>.json prints the captured stdout
# byte for byte. Modes: sweep.csv is the default (pruned) sweep CSV,
# rows.ndjson is `-no-prune -json`, search.csv is `-search`.
dse-smoke:
	@dir=$$(mktemp -d); trap 'rm -rf $$dir' EXIT; \
	$(GO) build -o $$dir/salam-dse ./cmd/salam-dse || exit 1; \
	for want in testdata/dse/*; do \
		name=$$(basename $$want); \
		case $${name#*.} in \
			sweep.csv) flags= ;; \
			rows.ndjson) flags="-no-prune -json" ;; \
			search.csv) flags=-search ;; \
			*) echo "dse-smoke: unknown capture $$want"; exit 1 ;; \
		esac; \
		$$dir/salam-dse -quiet $$flags -space configs/spaces/$${name%%.*}.json 2>/dev/null | cmp - $$want || exit 1; \
	done

# Snapshot smoke: restore-then-run must be byte-identical to straight-run
# over the full golden kernel set (the restore-exactness CI gate), and
# checkpoint images must survive a Checkpoint -> Restore -> Checkpoint
# round trip byte for byte.
snapshot-smoke:
	$(GO) test -run 'TestRestoreThenRunGoldenSuite|TestCheckpointImageByteStability' -count=1 .

# Sampled-simulation smoke: the interval-sampled estimate must honor its
# own reported error bound against the exact run, and a sampled session
# must never rejoin a pool.
sample-smoke:
	$(GO) test -run 'TestSampled' -count=1 .
	$(GO) test -count=1 ./internal/sample

# Declarative-config smoke: every shipped config validates, summarizes,
# and emits through the `salam config` CLI; a known-bad fixture with a
# typo'd knob must be rejected with a "did you mean" diagnostic; and the
# byte-identity suite proves config-built systems match Go-built ones.
config-smoke:
	$(GO) run ./cmd/salam config validate configs/*.json > /dev/null
	$(GO) run ./cmd/salam config info configs/cnn_cluster.json > /dev/null
	$(GO) run ./cmd/salam config list-fus > /dev/null
	$(GO) run ./cmd/salam config emit configs/gemm_spm.json > /dev/null
	@if $(GO) run ./cmd/salam config validate testdata/config/bad_spm_bank.json 2>/dev/null; then \
		echo "config-smoke: bad fixture was accepted"; exit 1; fi
	$(GO) test -run 'TestConfig|TestShippedConfigs' -count=1 .

# Clang-ingestion smoke: the compiler-shaped .ll fixtures parse, verify,
# bind to their workloads, and simulate to their golden cycle counts; the
# bring-your-own-kernel config path runs one end to end through salam-sim.
ll-smoke:
	$(GO) run ./cmd/salam-sim -config configs/gemm_ll.json > /dev/null
	$(GO) test -run 'TestLLFixtures' -count=1 .
	$(GO) test -run 'TestParse' -count=1 ./ir

# One engine iteration end to end, so `check` notices a broken benchmark
# harness without paying for a full timed run; the ordering ablation adds
# one strict-program-order run.
bench-smoke:
	$(GO) test -bench='BenchmarkEngineGEMM|BenchmarkAblationMemOrder' -benchtime=1x -run '^$$' .

# bench/ is a nested module root `go build ./...` never compiles, yet it is
# the accept/reject benchmark and it compiles against this module's API
# (internal packages included). Vet it — build only, no run — so an API
# refactor cannot break it unnoticed.
bench-build:
	cd bench && $(GO) vet .

check: build vet vet-sim test race golden trace-smoke serve-smoke search-smoke dse-smoke snapshot-smoke sample-smoke config-smoke ll-smoke bench-smoke bench-build analyze-smoke fuzz-smoke

# Every benchmark in the suite, one iteration each.
bench-all:
	$(GO) test -bench=. -benchtime=1x .

# 1-worker vs all-cores sweep wall-time (the campaign speedup).
bench-campaign:
	$(GO) test -bench=BenchmarkDSECampaign -benchtime=3x .

# The size figures every simplicity PR reports: non-test Go lines outside
# the nested bench/ module, and the number of binaries under cmd/.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l
	@ls cmd | wc -l
