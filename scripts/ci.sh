#!/bin/sh
# ci.sh — the full verification pipeline, runnable locally and in CI.
# Fails fast on the first broken step.
set -eu

cd "$(dirname "$0")/.."

echo "==> go vet"
go vet ./...

# Domain invariant checkers: determinism of the stochastic kernels,
# cancellation flow, float-comparison discipline, goroutine panic barriers,
# enum-switch exhaustiveness, hot-path allocations, lock discipline and
# rename durability, plus a self-lint that holds the analyzer framework
# to its own rules. See docs/LINT.md.
echo "==> mmlint (make lint: module-wide, then self-lint)"
make lint

# Allocation pins: every //mm:noalloc function must prove
# testing.AllocsPerRun == 0 with 1:1 annotation/pin coverage
# (internal/allocpin, docs/LINT.md).
echo "==> bench-pins (//mm:noalloc AllocsPerRun pins)"
make bench-pins

echo "==> go build"
go build ./...

echo "==> go test -race"
go test -race ./...

# The benchmark is a module of its own (benchmark/go.mod), so ./... above
# skips it; it calls ga.Run, sched.ListSchedule and the synth API, and
# must keep building against them.
echo "==> benchmark module (go vet, go test)"
(cd benchmark && go vet ./... && go test ./...)

# Fuzz smoke: short native-fuzzing bursts over the untrusted-input readers
# (spec files and checkpoints) and over the evaluator and voltage scaling,
# whose fuzzers check fuzzed mappings bit for bit against the reference
# inner loop and the reference scaler, and over the service's hand-written
# result document and JSON string encoder against encoding/json. The
# minimise time must be capped — the default 60s minimiser can dwarf the
# fuzz time itself on the ~30KB seed corpus entries.
echo "==> fuzz smoke (make fuzz-smoke: FuzzRead, FuzzReadReference, FuzzCanonical, FuzzWriteReference, FuzzCheckpoint, FuzzEvaluateDifferential, FuzzScaleDifferential, FuzzResultWriter, FuzzAppendJSONString)"
make fuzz-smoke

# Observability smoke: a traced synthesis and benchmark row, every JSONL
# event and the metrics snapshot schema-validated by mmtrace, then one
# mmserved job's lifecycle spans and access log.
echo "==> trace smoke (mmsynth -trace/-metrics, mmserved -lifecycle-trace, through mmtrace)"
./scripts/trace_smoke.sh

# Job-service smoke: boot mmserved, one job over HTTP to a certified
# result, clean SIGTERM drain (exit 0).
echo "==> serve smoke (mmserved job service)"
./scripts/serve_smoke.sh

# Fleet chaos smoke: two nodes over one shared fleet directory, four jobs,
# kill -9 one node mid-run; the survivor must steal the orphaned leases and
# finish every job exactly once with certified results.
echo "==> fleet chaos smoke (mmserved multi-node node-loss recovery)"
./scripts/fleet_chaos_smoke.sh

# Result-cache smoke: resubmission must hit the content-addressed cache,
# a corrupted entry must be evicted and re-run (never served), and a batch
# of 6 cells with 2 duplicates must run exactly 4 jobs.
echo "==> cache smoke (mmserved result cache + batch API)"
./scripts/cache_smoke.sh

# Certification sweep: every benchmark spec through `mmsynth -certify` at
# a small GA budget, plus a fault-injection negative control (exit 4).
echo "==> certify (specs/ through mmsynth -certify)"
./scripts/certify.sh

echo "==> OK"
