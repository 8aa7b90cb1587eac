#!/usr/bin/env bash
#
# Distributed-execution smoke driver: runs the quick figure suite four ways —
# in-process, on 2 worker processes, on 2 workers under full observation
# (--events --profile, with `results trace` / `results metrics` exercised on the
# artifacts), and on 2 workers with one SIGKILLed mid-shard — and requires every
# table to come out byte-identical, with the faulted run still exiting 0. Workers
# live for the whole run: the clean 2-worker run must spawn exactly 2, the faulted
# one exactly 3 (the two, plus one replacement). CI calls this; it also works
# locally from the repo root.
#
# Usage: scripts/dist_smoke.sh [SCRATCH_DIR]
#
# Leaves the four table directories plus the distributed runs' event logs
# (dist_events.jsonl, observed_events.jsonl, killed_events.jsonl), the exported
# Perfetto trace (trace.json) and the metrics/events summaries in SCRATCH_DIR
# (default: dist_smoke/).

set -euo pipefail

scratch=${1:-dist_smoke}

figures() { cargo run --release -q --bin figures -- "$@"; }

rm -rf "$scratch"
mkdir -p "$scratch"

figures --all --quick --jobs 2 --out "$scratch/inproc"
figures --all --quick --workers 2 --out "$scratch/dist" \
  --events "$scratch/dist_events.jsonl"

for f in "$scratch"/inproc/*.csv; do
  cmp "$f" "$scratch/dist/$(basename "$f")"
done
# One worker_joined line per worker process: LOG must show exactly WANT spawns.
expect_joined() {
  local log=$1 want=$2 got
  got=$(grep -c '"kind":"worker_joined"' "$log" || true)
  if [ "$got" -ne "$want" ]; then
    echo "dist smoke: $log has $got worker_joined lines, want $want" >&2
    exit 1
  fi
}
expect_joined "$scratch/dist_events.jsonl" 2

# Observability composes with distribution: the same 2-worker run with the profiler on
# must still produce identical bytes, bring every cell's profile back over the wire into
# its worker-attributed events, convert to a Perfetto-loadable trace, and expose the
# metrics snapshot.
figures --all --quick --workers 2 --out "$scratch/observed" --profile \
  --events "$scratch/observed_events.jsonl"
for f in "$scratch"/inproc/*.csv; do
  cmp "$f" "$scratch/observed/$(basename "$f")"
done
grep -q '"kind":"cell_finished".*"profile"' "$scratch/observed_events.jsonl"
grep -q '"kind":"cell_started".*"worker"' "$scratch/observed_events.jsonl"
test -s "$scratch/observed/profile.folded"

results() { cargo run --release -q --bin results -- "$@"; }

# (written to files, not piped: `grep -q` would close the pipe mid-print)
results events "$scratch/observed_events.jsonl" --json > "$scratch/events_summary.json"
grep -q '"distributed"' "$scratch/events_summary.json"
results trace "$scratch/observed_events.jsonl" --out "$scratch/trace.json"
results metrics "$scratch/observed/BENCH_sim.json" --json > "$scratch/metrics.json"
grep -q '"cells_simulated"' "$scratch/metrics.json"
# The exported trace must be one valid JSON document with per-worker process rows.
python3 - "$scratch/trace.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
pids = {e["pid"] for e in events if e.get("ph") == "M" and e.get("name") == "process_name"}
assert {1, 2} <= pids, f"want a process row per worker, got {sorted(pids)}"
assert any(e.get("ph") == "X" and e.get("cat") == "cell" for e in events), "no cell spans"
print(f"trace.json: {len(events)} events, processes {sorted(pids)}")
PY

# Same run again, but the marker file arms an injected SIGKILL that exactly one worker
# fires on itself mid-shard: the coordinator must notice, reassign the dead worker's
# unfinished cells to a fresh process, exit 0, and produce the same bytes anyway.
(
  export ATHENA_DIST_FAULT_DIE="$scratch/die.marker"
  figures --all --quick --workers 2 --out "$scratch/killed" \
    --events "$scratch/killed_events.jsonl"
)
test -e "$scratch/die.marker"
grep -q '"kind":"worker_died"' "$scratch/killed_events.jsonl"
grep -q '"kind":"cell_reassigned"' "$scratch/killed_events.jsonl"
expect_joined "$scratch/killed_events.jsonl" 3
for f in "$scratch"/inproc/*.csv; do
  cmp "$f" "$scratch/killed/$(basename "$f")"
done

echo "dist smoke: tables byte-identical in-process / 2 workers / observed / under worker death"
