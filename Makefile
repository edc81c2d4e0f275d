# Developer entry points. `make ci` is what the CI workflow runs.

GO ?= go

.PHONY: all build test race vet lint bench-pins fuzz-smoke trace-smoke serve-smoke fleet-smoke cache-smoke certify bench ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Domain invariant checkers (determinism, cancellation, numeric safety,
# hot-path allocations, lock discipline, rename durability); see
# docs/LINT.md. Exit 1 means findings, exit 2 usage/load error. The first
# run covers the whole module including cmd/; the second names the
# analyzer framework explicitly so mmlint keeps linting itself even if
# the module-wide pattern is ever narrowed.
lint:
	$(GO) run ./cmd/mmlint ./...
	$(GO) run ./cmd/mmlint ./internal/lint/...

# Allocation pins: every //mm:noalloc function must run with
# testing.AllocsPerRun == 0, with 1:1 coverage between annotations and
# pins (see internal/allocpin and docs/LINT.md).
bench-pins:
	$(GO) test -run TestAllocPins -count=1 ./internal/sched ./internal/synth ./internal/dvs ./internal/ga ./internal/allocpin

# Short native-fuzzing bursts over the untrusted-input readers (spec files
# and checkpoints) and the evaluator's differential check; the minimiser is
# capped so large seed-corpus entries cannot stall the run (see
# scripts/ci.sh).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzRead -fuzztime=5s -fuzzminimizetime=5s ./internal/specio
	$(GO) test -run='^$$' -fuzz=FuzzCanonical -fuzztime=5s -fuzzminimizetime=5s ./internal/specio
	$(GO) test -run='^$$' -fuzz=FuzzCheckpoint -fuzztime=5s -fuzzminimizetime=5s ./internal/runctl
	$(GO) test -run='^$$' -fuzz=FuzzEvaluateDifferential -fuzztime=5s -fuzzminimizetime=5s ./internal/synth

# Observability smoke: a traced mmsynth run on a small spec, every JSONL
# event and the metrics snapshot validated by mmtrace, then one mmserved
# job whose lifecycle spans (-lifecycle-trace) and access log render
# through mmtrace -lifecycle. See docs/OBSERVABILITY.md.
trace-smoke:
	./scripts/trace_smoke.sh

# Job-service smoke: boot mmserved on a free port, drive one synthesis job
# over HTTP to a certified result, then SIGTERM and require a clean drain.
# See docs/SERVER.md.
serve-smoke:
	./scripts/serve_smoke.sh

# Fleet chaos smoke: two mmserved nodes on a shared fleet directory, four
# jobs, kill -9 one node mid-run; the survivor must finish every job
# exactly once with certified results. See docs/FLEET.md.
fleet-smoke:
	./scripts/fleet_chaos_smoke.sh

# Result-cache smoke: submit, resubmit (must hit, terminal at birth),
# corrupt the entry (must miss and re-run, never serve bad bytes), then a
# batch of 6 cells with 2 duplicates (must run exactly 4 jobs). See
# docs/CACHE.md.
cache-smoke:
	./scripts/cache_smoke.sh

# Oracle-check the whole benchmark suite: every spec through
# `mmsynth -certify` at a small GA budget, plus a fault-injection negative
# control that must exit 4. See docs/VERIFY.md.
certify:
	./scripts/certify.sh

bench:
	$(GO) test -bench=. -benchmem ./...

ci:
	./scripts/ci.sh
