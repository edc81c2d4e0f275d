#!/bin/sh
# trace_smoke.sh — end-to-end smoke test of the observability pipeline:
# run mmsynth with -trace/-metrics on a small spec, then validate every
# JSONL event and the metrics snapshot with mmtrace. A schema regression
# in the trace writer fails CI here even if no unit test covers it. Also
# exercises the job lifecycle span stream: one mmserved job with
# -lifecycle-trace and -access-log, rendered by `mmtrace -lifecycle`.
# See docs/OBSERVABILITY.md.
set -eu

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT INT TERM

echo "==> build mmsynth, mmbench, mmtrace"
go build -o "$workdir" ./cmd/mmsynth ./cmd/mmbench ./cmd/mmtrace

echo "==> traced synthesis (specs/mul1.spec, small GA budget)"
"$workdir/mmsynth" -spec specs/mul1.spec -dvs \
    -pop 16 -gens 25 -stagnation 10 \
    -trace "$workdir/run.jsonl" -metrics "$workdir/metrics.json" \
    > "$workdir/report.txt"
grep -q '^mutations' "$workdir/report.txt"
grep -q '^phase times' "$workdir/report.txt"

echo "==> validate trace + metrics"
"$workdir/mmtrace" -summary -metrics "$workdir/metrics.json" "$workdir/run.jsonl"

echo "==> traced benchmark row (Table 3, 1 rep)"
"$workdir/mmbench" -table 3 -reps 1 -pop 12 -gens 10 -progress \
    -trace "$workdir/bench.jsonl" > /dev/null
"$workdir/mmtrace" "$workdir/bench.jsonl"

echo "==> build mmserved (lifecycle span stream)"
go build -o "$workdir" ./cmd/mmserved

echo "==> boot mmserved with -lifecycle-trace and -access-log"
"$workdir/mmserved" -addr 127.0.0.1:0 -data "$workdir/data" -specs specs \
    -workers 1 -lifecycle-trace "$workdir/jobs.jsonl" \
    -access-log "$workdir/access.jsonl" \
    > "$workdir/stdout" 2> "$workdir/stderr" &
served_pid=$!
base=
for _ in $(seq 50); do
    base=$(sed -n 's/^mmserved listening on //p' "$workdir/stdout")
    [ -n "$base" ] && break
    kill -0 "$served_pid" 2>/dev/null || { cat "$workdir/stderr"; exit 1; }
    sleep 0.1
done
[ -n "$base" ] || { echo "mmserved never announced its address"; cat "$workdir/stderr"; exit 1; }

echo "==> run one job and drain"
job=$(curl -sfS -X POST "$base/v1/jobs" \
    -d '{"spec_name":"mul1","seed":1,"ga":{"pop_size":12,"max_generations":10,"stagnation":5}}')
id=$(printf '%s' "$job" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
[ -n "$id" ] || { echo "submission returned no job id: $job"; exit 1; }
state=queued
for _ in $(seq 600); do
    state=$(curl -sfS "$base/v1/jobs/$id" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')
    [ "$state" = done ] && break
    sleep 0.1
done
[ "$state" = done ] || { echo "job stuck in state $state"; exit 1; }
kill -TERM "$served_pid"
wait "$served_pid" || { echo "mmserved exited non-zero"; cat "$workdir/stderr"; exit 1; }

echo "==> lifecycle span stream validates and renders a dwell table"
"$workdir/mmtrace" -lifecycle "$workdir/jobs.jsonl" | tee "$workdir/lifecycle.txt"
grep -q 'terminal: done 1' "$workdir/lifecycle.txt"

echo "==> access log has one JSON line per request, with the job id"
grep -q "\"job\":\"$id\"" "$workdir/access.jsonl"
grep -cq '"method":"POST"' "$workdir/access.jsonl"

echo "==> trace smoke OK"
