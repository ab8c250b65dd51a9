#!/bin/sh
# CI verify recipe: build (all CLIs included), vet, the repo's own
# contract analyzers (rainbar-lint, DESIGN.md §8), tests, the full suite
# under the race detector, a metrics smoke run, then a short fuzz smoke
# pass. The lint gate fails the build on any determinism /
# error-discipline / observability / concurrency contract breach; the
# race step protects the parallel experiment engine, the row-parallel
# raster kernels and the sharded metrics recorder; the metrics smoke
# proves rainbar-bench can instrument a sweep end to end; the recovery
# smoke proves the decode-recovery ablation runs under the full ladder
# with cross-round combining; the determinism gate diffs one table across
# worker counts; the allocation gate holds the steady-state
# receiver at 0 allocs/op (the DESIGN.md §11 hot-path memory contract);
# the bench smoke proves the perf-snapshot harness (scripts/bench.sh,
# BENCH_<n>.json) runs end to end; the serve soak and loadtest smoke
# gate the multi-session daemon (DESIGN.md §12); the _xferbench steps
# vet and test the transfer benchmark's own module (its delivered-byte
# gate and tamper tests) against every simulator change; the fuzz steps
# keep the decode paths panic-free on corrupt input and hold the blob
# labeling to its flood-fill reference (Go runs one fuzz target per
# invocation, hence one line each). Set CI_FUZZ=0 to skip the
# fuzz smoke locally and keep the build+lint+test gate fast. Run before
# every merge.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go build -o /dev/null ./cmd/rainbar-bench
go build -o /dev/null ./cmd/rainbar-xfer
go build -o /dev/null ./cmd/rainbar-send
go build -o /dev/null ./cmd/rainbar-recv
go build -o /dev/null ./cmd/rainbar-debug
go build -o /dev/null ./cmd/rainbar-lint
go build -o /dev/null ./cmd/rainbar-serve
go vet ./...
go -C _xferbench vet ./...

# Lint gates, each timed against the <10s budget the interprocedural
# engine is held to: the -json gate is the machine-readable findings run
# (whole-module analysis included: RB-D4 taint, RB-S1 snapshot
# completeness, RB-C3/C4 serve concurrency), and the -annotations gate
# audits every escape hatch, failing on stale rule IDs. (Timed with
# date(1), not the `time` keyword — /bin/sh is dash on some CI hosts.)
lint_t0=$(date +%s)
go run ./cmd/rainbar-lint -json ./... >/tmp/rainbar-lint.json
echo "rainbar-lint -json: $(($(date +%s) - lint_t0))s"
lint_t0=$(date +%s)
go run ./cmd/rainbar-lint -annotations ./...
echo "rainbar-lint -annotations: $(($(date +%s) - lint_t0))s"

go test ./...
go -C _xferbench test ./...
go test -race ./...
go run ./cmd/rainbar-bench -exp fig10a -frames 1 -metrics - >/dev/null
go run ./cmd/rainbar-bench -exp recovery -frames 1 -recovery combine >/dev/null

# Determinism gate: a table must be byte-identical at any worker count;
# the elapsed footer is its one wall-clock line. Temp files, not process
# substitution, because /bin/sh may be dash.
det=$(mktemp -d)
go build -o "$det/rainbar-bench" ./cmd/rainbar-bench
"$det/rainbar-bench" -exp fig10a -frames 1 -workers 1 >"$det/w1.out"
"$det/rainbar-bench" -exp fig10a -frames 1 -workers 2 >"$det/w2.out"
grep -v elapsed "$det/w1.out" >"$det/w1"
grep -v elapsed "$det/w2.out" >"$det/w2"
diff "$det/w1" "$det/w2"
rm -r "$det"

# Serve gates: the 1000-session registry soak must be race-clean (it
# also runs inside `go test -race ./...`; this line keeps it visible as
# its own gate), and the loadtest smoke must emit a perf snapshot with
# the serve throughput/latency section populated.
go test -race -run TestServeSoak ./internal/serve
go run ./cmd/rainbar-serve -loadtest -sessions 4 -payload 300 -faults 'drop=0.5;' \
	-perf-json /tmp/rainbar-serve-smoke.json >/dev/null
grep -q '"sessions_per_sec"' /tmp/rainbar-serve-smoke.json
grep -q '"p99_round_seconds"' /tmp/rainbar-serve-smoke.json

# Durability gates: the chaos harness's kill-at-random-round property
# (crash, torn journal tail, Recover, bit-identical delivery) and the
# crash matrix (a kill after EVERY journal record) must hold under the
# race detector — crash recovery that only works without -race is not
# crash recovery.
go test -race -run 'TestChaos' ./internal/serve/chaos
go test -race -run TestCrashMatrixBitIdentical ./internal/serve

# Allocation gate: the steady-state receiver benchmark must report
# 0 allocs/op (TestReceiverSteadyStateAllocFree enforces the same
# contract in-process; this reads the number the snapshots record).
steady=$(go test -run XXX -bench BenchmarkReceiverProcessSteady -benchtime 10x -benchmem ./internal/core | awk '/BenchmarkReceiverProcessSteady/ {print $(NF-1)}')
test "$steady" = "0"

# Perf-snapshot smoke: the bench.sh harness must run end to end.
BENCHTIME=1x scripts/bench.sh /tmp/rainbar-bench-smoke.json >/dev/null

if [ "${CI_FUZZ:-1}" != "0" ]; then
	go test -fuzz=FuzzHeaderDecode -fuzztime=10s ./internal/core/header
	go test -fuzz=FuzzRSDecode -fuzztime=10s ./internal/rs
	go test -fuzz=FuzzFrameDecode -fuzztime=20s ./internal/core
	go test -fuzz=FuzzLadderDecode -fuzztime=20s ./internal/core
	go test -fuzz=FuzzSnapshotDecode -fuzztime=10s ./internal/serve
	go test -fuzz=FuzzJournalReplay -fuzztime=10s ./internal/serve/journal
	go test -fuzz=FuzzBlackBlobs -fuzztime=10s ./internal/vision
fi
