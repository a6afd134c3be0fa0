#!/usr/bin/env bash
# Tier-1 verification plus end-to-end smoke of every user-facing surface.
#
# 1. Runs the full pytest suite (the repo's tier-1 gate) and the
#    benchmark's own tests (perfbench/tests), which fail when a refactor
#    drops a name the benchmark's layer timers bind.
# 2. Runs one benchmark with observability enabled (REPRO_OBS=jsonl:...)
#    into a throwaway cache, then greps the event stream and the cached
#    run manifest for all five pipeline stage names, so a regression
#    that silently drops a stage's spans fails fast.
# 3. Renders the observability report CLI over the smoke cache (and
#    checks the sim.engine.* counter family is surfaced, and that the
#    cold collect counted register-allocation memo hits).
# 4. A DSE sweep, its per-point report, and the trajectory/golden
#    gates.  Resume, frontier and warm-store bit-identity are tier-1
#    (tests/test_dse.py, tests/test_scheduler_failures.py,
#    tests/test_flow_record.py).
# 5. Cross-process trace gate: a --jobs 2 sweep under REPRO_OBS must
#    export as ONE parent-linked Perfetto trace (every worker span's
#    trace_id/parent_id resolves to the coordinator's root span); its
#    --progress line must end on 4/4 points with none failed and leave
#    nothing in the store but results.  A --jobs 2 --dash sweep's frame
#    must list its own 4 dse.point.seconds samples, and `dse gc --json`
#    must report torn, superseded and legacy counts only.
# 6. Block-profiler smoke: REPRO_PROFILE on a cold crc32 collect must
#    attribute every simulation, the FITS flow's included, to crc32 for
#    each of the three ISAs, with >= 1 compiled superblock of nonzero
#    units/wall time, and `profile top --stable` must be deterministic
#    across two runs.
# 7. Sweep-service gate: a live `repro.serve` server must dedupe two
#    overlapping sweeps through the global cache (hit counter > 0),
#    stream bit-identical metrics to the direct dse sweep, survive a
#    client connection killed mid-stream (exactly-once delivery), and
#    shut down cleanly.
# 8. Metrics gate: the serve `metrics` op must return valid OpenMetrics
#    whose serve.cache.hit counter matches the job manifests exactly and
#    which holds the pool workers' timing.runs_per_simulation histogram;
#    `alerts check` on the committed rules must pass against the live
#    server and an injected-breach rule set must fail non-zero;
#    `status` must list the same histogram families as the `metrics`
#    op; and `serve dash --once` must render a frame with the
#    per-worker pool row.  (Simulation bit-identity with obs on vs off is tier-1:
#    tests/test_engine.py::test_obs_on_off_bit_identical.)
#
# Performance is measured by perfbench/ (see perfbench/NOTES.md), not
# here.

set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 pytest =="
python -m pytest -x -q

echo "== benchmark self-tests (layer timers still bind) =="
python -m pytest perfbench/tests -q

tmp="$(mktemp -d)"
# the sweep-service gate starts a server in the background: a gate that
# fails before its clean shutdown must not leave it running
serve_pid=
trap '[ -z "$serve_pid" ] || kill "$serve_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT

# hermetic persistent trace store for everything below (the pytest run
# above isolates its own via tests/conftest.py)
export REPRO_TRACE_CACHE="$tmp/trace_cache"

echo "== observability smoke run (crc32, small) =="
REPRO_CACHE_DIR="$tmp/cache" REPRO_OBS="jsonl:$tmp/obs.jsonl" python - <<'EOF'
from repro.harness.runner import collect
collect(scale="small", names=["crc32"], verbose=True)
EOF

manifest="$tmp/cache/crc32-small.json"
[ -f "$manifest" ] || { echo "FAIL: cached summary $manifest not written"; exit 1; }

for stage in compile profile synthesize translate simulate; do
    grep -q "stage.$stage" "$tmp/obs.jsonl" \
        || { echo "FAIL: no stage.$stage spans in obs stream"; exit 1; }
    grep -q "\"$stage\"" "$manifest" \
        || { echo "FAIL: stage $stage missing from run manifest"; exit 1; }
done
echo "all five pipeline stages present in manifest and event stream"

echo "== observability report =="
python -m repro.obs.report --cache-dir "$tmp/cache" | tee "$tmp/report.txt"
grep -q "sim.engine" "$tmp/report.txt" \
    || { echo "FAIL: sim.engine.* counter family missing from obs report"; exit 1; }
# the FITS flow's budgets and the Thumb compile reuse the ARM unit's
# register allocations: the cold collect must count memo hits
python -m repro.obs.report --cache-dir "$tmp/cache" --counters 1000 \
    > "$tmp/report-all.txt"
grep -Eq "regalloc\.memo_hits +[1-9]" "$tmp/report-all.txt" \
    || { echo "FAIL: no regalloc.memo_hits in the cold collect's obs report"; exit 1; }

echo "== DSE smoke sweep (2 benchmarks x 4 points, --jobs 2) =="
dse_store="$tmp/dse"
python -m repro.dse sweep --preset smoke --benchmarks crc32,sha \
    --scale small --jobs 2 --store "$dse_store" | tee "$tmp/sweep1.txt"
grep -q "evaluated: 8" "$tmp/sweep1.txt" \
    || { echo "FAIL: first sweep did not evaluate 8 points"; exit 1; }
grep -q "failed:    0" "$tmp/sweep1.txt" \
    || { echo "FAIL: sweep reported failures"; exit 1; }

echo "== DSE per-point observability report =="
python -m repro.obs.report --dse "$dse_store" --counters 8 > "$tmp/dse-report.txt"
head -20 "$tmp/dse-report.txt"
grep -q "benchmark/point" "$tmp/dse-report.txt" \
    || { echo "FAIL: DSE observability report missing per-point table"; exit 1; }

echo "== trajectory record + paper-golden gates (paper4 points, smoke scale) =="
hist="$tmp/trajectory.jsonl"
REPRO_COMMIT=verify-smoke python -m repro.obs.regress record \
    --from-dse "$dse_store" --store "$hist" | tee "$tmp/record1.txt"
grep -q "recorded 8 new" "$tmp/record1.txt" \
    || { echo "FAIL: DSE->trajectory bridge did not record 8 points"; exit 1; }
REPRO_COMMIT=verify-smoke python -m repro.obs.regress record \
    --cache-dir "$tmp/cache" --store "$hist" > /dev/null
python -m repro.obs.regress check --store "$hist" | tee "$tmp/golden.txt"
grep -q " 0 fail" "$tmp/golden.txt" \
    || { echo "FAIL: golden gates reported failures"; exit 1; }

echo "== regression diff (unchanged re-run must be clean) =="
REPRO_COMMIT=verify-smoke python -m repro.obs.regress record \
    --from-dse "$dse_store" --store "$hist" | tee "$tmp/record2.txt"
grep -q "recorded 0 new" "$tmp/record2.txt" \
    || { echo "FAIL: unchanged re-record was not deduplicated"; exit 1; }
python -m repro.obs.regress diff --store "$hist" | tee "$tmp/diff.txt"
grep -q "0 regressions" "$tmp/diff.txt" \
    || { echo "FAIL: diff flagged regressions on an unchanged re-run"; exit 1; }

echo "== Chrome trace-event export =="
python -m repro.obs.regress export-trace --jsonl "$tmp/obs.jsonl" \
    --out "$tmp/trace.json"
python - "$tmp/trace.json" <<'EOF'
import json, sys
from repro.obs.trace_export import validate_trace
trace = json.load(open(sys.argv[1]))
validate_trace(trace)
names = {e["name"] for e in trace["traceEvents"]}
assert any(n.startswith("stage.") for n in names), names
print("trace valid: %d events" % len(trace["traceEvents"]))
EOF

echo "== cross-process trace gate (--jobs 2 sweep -> one linked trace) =="
REPRO_OBS="jsonl:$tmp/sweep-spans.jsonl" python -m repro.dse sweep \
    --preset smoke --benchmarks crc32 --scale small --jobs 2 \
    --store "$tmp/dse-trace" --progress 2> "$tmp/progress.txt" \
    || { cat "$tmp/progress.txt"; echo "FAIL: --progress sweep failed"; exit 1; }
# the live line's last redraw: every point done, none failed; progress
# is counted from the result store, so workers add nothing beside it
tr '\r' '\n' < "$tmp/progress.txt" | grep "^dse: " | tail -1 \
    | tee "$tmp/progress-final.txt"
grep -q "^dse: 4/4 points | " "$tmp/progress-final.txt" \
    || { echo "FAIL: --progress did not end on 4/4 points, none failed"; exit 1; }
[ ! -e "$tmp/dse-trace/progress" ] \
    || { echo "FAIL: --progress sweep left a progress/ directory"; exit 1; }
python - "$tmp/sweep-spans.jsonl" "$tmp/sweep-trace.json" <<'EOF'
import json, sys
from repro.obs.trace_export import check_parent_links, export_trace, \
    validate_trace

stats = check_parent_links(sys.argv[1])  # raises on any unresolvable parent
assert len(stats["traces"]) == 1, \
    "sweep split across %d trace ids" % len(stats["traces"])
assert len(stats["processes"]) >= 2, "no worker-process spans in stream"
assert stats["cross_process_links"] >= 1, "no coordinator->worker links"
trace = export_trace(sys.argv[1])
validate_trace(trace)
flows = sum(1 for e in trace["traceEvents"] if e["ph"] == "s")
labels = [e["args"]["name"] for e in trace["traceEvents"] if e["ph"] == "M"]
assert any("coordinator" in n for n in labels), labels
assert any("worker" in n for n in labels), labels
json.dump(trace, open(sys.argv[2], "w"))
print("linked trace: %d spans across %d processes, %d flow arrows, "
      "all parent ids resolve" % (stats["spans"], len(stats["processes"]),
                                  flows))
EOF
python -m repro.obs.report --jsonl "$tmp/sweep-spans.jsonl" --top-spans 5 \
    | tee "$tmp/top-spans.txt"
grep -q "p95" "$tmp/top-spans.txt" \
    || { echo "FAIL: --top-spans report missing percentile columns"; exit 1; }

echo "== sweep dashboard and store gc =="
python -m repro.dse sweep --preset smoke --benchmarks crc32 --scale small \
    --jobs 2 --store "$tmp/dse-dash" --dash 2> "$tmp/dash-sweep.txt" \
    || { cat "$tmp/dash-sweep.txt"; echo "FAIL: --dash sweep failed"; exit 1; }
cat "$tmp/dash-sweep.txt"
grep -Eq "^dse\.point\.seconds +n=4 " "$tmp/dash-sweep.txt" \
    || { echo "FAIL: --dash frame does not list dse.point.seconds n=4"; exit 1; }
python -m repro.dse gc --store "$tmp/dse-trace" --json | tee "$tmp/gc.json"
python - "$tmp/gc.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert sorted(report) == ["legacy", "superseded", "torn"], report
EOF

echo "== block profiler smoke (crc32 collect, two cold runs, deterministic) =="
for n in 1 2; do
    REPRO_PROFILE="jsonl:$tmp/prof$n.jsonl" REPRO_CACHE_DIR="$tmp/prof-cache$n" \
        REPRO_TRACE_CACHE="$tmp/prof-store$n" python - <<'EOF'
from repro.harness.runner import collect

collect(scale="small", names=["crc32"])
EOF
done
python -m repro.obs.profile top --profile "$tmp/prof1.jsonl" \
    | tee "$tmp/prof-top.txt"
grep -q "compiled" "$tmp/prof-top.txt" \
    || { echo "FAIL: profiler top lists no compiled superblock"; exit 1; }
python - "$tmp/prof1.jsonl" <<'EOF'
import sys
from repro.obs.profile import aggregate, load_records

records = load_records(sys.argv[1])
unattributed = [r["isa"] for r in records if r.get("benchmark") != "crc32"]
assert not unattributed, "runs not attributed to crc32: %s" % unattributed
groups = aggregate(records)
assert sorted(groups) == [("crc32", isa) for isa in ("arm", "fits", "thumb")], \
    sorted(groups)
rows = groups[("crc32", "arm")].values()
compiled = [r for r in rows if r["compiled"]]
assert compiled, "no compiled superblocks attributed"
assert any(r["units"] > 0 for r in compiled), "compiled blocks ran 0 units"
assert any(r["seconds"] > 0 for r in compiled), "no wall time attributed"
print("profiler: %d blocks, %d compiled, hot block %d units" % (
    len(rows), len(compiled),
    max(r["units"] + r["interp_units"] for r in rows)))
EOF
python -m repro.obs.profile top --stable --profile "$tmp/prof1.jsonl" \
    > "$tmp/stable1.txt"
python -m repro.obs.profile top --stable --profile "$tmp/prof2.jsonl" \
    > "$tmp/stable2.txt"
cmp "$tmp/stable1.txt" "$tmp/stable2.txt" \
    || { echo "FAIL: profile top --stable differs across identical runs"; exit 1; }
python -m repro.obs.profile flame --profile "$tmp/prof1.jsonl" \
    --out "$tmp/flame.folded" > /dev/null
[ -s "$tmp/flame.folded" ] \
    || { echo "FAIL: flame export produced no collapsed stacks"; exit 1; }
echo "profiler smoke OK (top non-empty, stable output identical, flame written)"

echo "== sweep service gate (dedupe, bit-identity, reconnect, shutdown) =="
python -m repro.serve serve --socket "$tmp/serve.sock" \
    --cache "$tmp/serve-cache" --state "$tmp/serve-state" --jobs 2 \
    > "$tmp/serve.log" 2>&1 &
serve_pid=$!
python -m repro.serve status --socket "$tmp/serve.sock" --wait-up 30 > /dev/null
python - "$tmp/serve.sock" "$dse_store" <<'EOF'
import sys
from repro.dse.space import preset
from repro.dse.store import ResultStore
from repro.serve import ServeClient

client = ServeClient(sys.argv[1], timeout=600.0)
space = preset("smoke").to_dict()

# job A computes the 4 smoke points for crc32; job B overlaps on all of
# them (crc32 again, sha fresh), so its crc32 half must be cache-served
a = client.submit(space, ["crc32"], scale="small")
sa = client.wait(a["id"])["summary"]
assert sa["status"] == "done" and sa["computed"] == 4, sa

seen, killed = [], []
def on_event(event):
    if event.get("type") == "point":
        seen.append(event["seq"])
        if len(seen) == 2 and not killed:
            killed.append(True)
            client.kill_connection()    # sever the watch mid-stream
b = client.submit(space, ["crc32", "sha"], scale="small")
sb = client.wait(b["id"], on_event=on_event)["summary"]
assert sb["status"] == "done", sb
assert sb["cache_hits"] >= 4, "overlap not served from the cache: %s" % sb
assert killed and seen == list(range(1, 9)), seen   # exactly-once resume

status = client.status()["server"]
assert status["cache"]["hits"] >= 4, status["cache"]
assert status["stats"]["points_computed"] == 8, status["stats"]

# bit-identical to the direct `python -m repro.dse sweep` store
direct = {(r["benchmark"], r["point"]["id"]): r["metrics"]
          for r in ResultStore(sys.argv[2]).iter_results()}
served = {(r["benchmark"], r["point"]["id"]): r["metrics"]
          for r in client.results(b["id"])}
assert served and set(served) <= set(direct), (len(served), len(direct))
for key, metrics in served.items():
    assert metrics == direct[key], "serve metrics diverged for %s/%s" % key
print("serve: %d cache hits, reconnect resumed exactly-once, %d points "
      "bit-identical to the direct sweep"
      % (status["cache"]["hits"], len(served)))

# -- metrics op: valid exposition, counters match the job manifests ----
reply = client.metrics()
from repro.obs.metrics import validate_openmetrics
validate_openmetrics(reply["text"])
# timing_runs_per_simulation comes only from the pool workers' flushed
# snapshots (the server simulates nothing at --jobs 2): the one registry
# reaches the merged view
for family in ("serve_request_seconds_bucket", "serve_point_seconds_bucket",
               "serve_cache_hit_total", "serve_cache_miss_total",
               "timing_runs_per_simulation_bucket"):
    assert family in reply["text"], "metrics exposition missing %s" % family
counters = reply["snapshot"]["counters"]
want_hits = sa["cache_hits"] + sb["cache_hits"]
assert counters.get("serve.cache.hit", 0) == want_hits, \
    (counters.get("serve.cache.hit"), want_hits)
assert counters.get("serve.points.computed") == 8, counters
hists = reply["snapshot"]["histograms"]
from repro.obs.metrics import summarize
point = summarize(hists["serve.point.seconds"])
assert point["count"] >= 8 and point["p99"] > 0, point
print("metrics op: exposition valid, cache.hit == %d matches manifests, "
      "point latency n=%d p99=%.3fs"
      % (want_hits, point["count"], point["p99"]))
# status's histogram rows are the merged view the metrics op serves
status_families = set(client.status()["server"]["metrics"])
assert status_families == set(hists), \
    sorted(status_families.symmetric_difference(hists))
print("status: the same %d histogram families as the metrics op"
      % len(status_families))
EOF

echo "== alert gate (committed rules pass, injected breach fails) =="
python -m repro.obs.alerts check --rules configs/alerts.yaml \
    --serve "$tmp/serve.sock" | tee "$tmp/alerts.txt"
grep -q "OK" "$tmp/alerts.txt" \
    || { echo "FAIL: no OK outcomes from default alert rules"; exit 1; }
cat > "$tmp/breach.json" <<'EOF'
{"rules": [{"rule": "serve.cache.hit < 0", "name": "impossible"}]}
EOF
if python -m repro.obs.alerts check --rules "$tmp/breach.json" \
    --serve "$tmp/serve.sock" > "$tmp/breach.txt"; then
    echo "FAIL: injected breach rule did not fail the alert check"; exit 1
fi
grep -q "BREACH" "$tmp/breach.txt" \
    || { echo "FAIL: breach outcome not reported"; exit 1; }
echo "alerts: default rules pass, injected breach exits non-zero"

echo "== serve dashboard (single frame) =="
python -m repro.serve dash --socket "$tmp/serve.sock" --once \
    | tee "$tmp/dash.txt"
grep -q "repro.serve dash" "$tmp/dash.txt" \
    || { echo "FAIL: dash --once rendered no frame"; exit 1; }
grep -q "^histograms:" "$tmp/dash.txt" \
    && grep -q "serve.point.seconds .*p50=[0-9.]*m\?s " "$tmp/dash.txt" \
    || { echo "FAIL: dash frame missing histogram section"; exit 1; }
grep -q "workers:" "$tmp/dash.txt" \
    || { echo "FAIL: dash frame missing per-worker pool utilization row"; exit 1; }

python -m repro.serve status --socket "$tmp/serve.sock" --shutdown > /dev/null
wait "$serve_pid" \
    || { echo "FAIL: serve exited non-zero"; cat "$tmp/serve.log"; exit 1; }
serve_pid=
grep -q "shut down cleanly" "$tmp/serve.log" \
    || { echo "FAIL: no clean-shutdown message"; cat "$tmp/serve.log"; exit 1; }

echo "verify OK"
