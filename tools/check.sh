#!/usr/bin/env bash
# Full local gate: plain build + tests, sanitizer builds + tests
# (ASan+UBSan, then TSan over the concurrency-relevant suites), and
# (when a clang-tidy binary exists) lint over the source tree.
#
# Usage: tools/check.sh [--no-tidy] [--no-asan] [--no-tsan] [--no-perf]
set -euo pipefail

cd "$(dirname "$0")/.."

run_tidy=1
run_asan=1
run_tsan=1
run_perf=1
for arg in "$@"; do
    case "$arg" in
    --no-tidy) run_tidy=0 ;;
    --no-asan) run_asan=0 ;;
    --no-tsan) run_tsan=0 ;;
    --no-perf) run_perf=0 ;;
    *)
        echo "usage: tools/check.sh [--no-tidy] [--no-asan]" \
             "[--no-tsan] [--no-perf]" >&2
        exit 1
        ;;
    esac
done

jobs=$(nproc 2>/dev/null || echo 2)

smoke=""
sweep=""
fault=""
perf=""
trap 'rm -rf "$smoke" "$sweep" "$fault" "$perf"' EXIT

echo "== hot-path lint =="
tools/lint_hotpath.sh

echo "== plain build =="
cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

if [ "$run_asan" = 1 ]; then
    echo "== sanitizer build (ASan + UBSan) =="
    cmake -B build-asan -S . -DMPRESS_SANITIZE=ON >/dev/null
    cmake --build build-asan -j "$jobs"
    ctest --test-dir build-asan --output-on-failure -j "$jobs"

    echo "== trace/metrics export smoke =="
    # Either output flag records the whole run, so each file is
    # complete without the other flag.
    smoke=$(mktemp -d)
    ./build-asan/examples/mpress_cli \
        --timeline "$smoke/trace.json" >/dev/null
    ./build-asan/examples/mpress_cli \
        --metrics "$smoke/metrics.json" >/dev/null
    python3 - "$smoke" <<'EOF'
import json, sys
d = sys.argv[1]
trace = json.load(open(d + "/trace.json"))
events = trace["traceEvents"]
assert any(e.get("ph") == "C" for e in events), "no counter events"
assert any(e.get("ph") == "X" for e in events), "no span events"
metrics = json.load(open(d + "/metrics.json"))
assert metrics["memory"], "no memory timelines"
assert metrics["utilization"], "no utilization channels"
print("trace: %d events; metrics: %d GPUs, %d channels"
      % (len(events), len(metrics["memory"]),
         len(metrics["utilization"])))
EOF

    echo "== fault-scenario smoke (ASan) =="
    fault=$(mktemp -d)
    cat >"$fault/faults.json" <<'EOF'
{ "name": "dead-d2d", "seed": 7, "events": [
  {"type": "transfer-fail", "start_ms": 0, "end_ms": 1000000,
   "src": 0, "probability": 1.0},
  {"type": "gpu-straggle", "start_ms": 0, "end_ms": 500,
   "gpu": 1, "factor": 0.8}
] }
EOF
    # The ladder completes a run whose D2D path is killed outright;
    # the same run without the ladder must OOM (exit 2).
    ./build-asan/examples/mpress_cli --model bert-1.67b \
        --strategy d2d-only --microbatch 6 \
        --faults "$fault/faults.json" \
        --metrics "$fault/run1.json" >/dev/null
    ./build-asan/examples/mpress_cli --model bert-1.67b \
        --strategy d2d-only --microbatch 6 \
        --faults "$fault/faults.json" \
        --metrics "$fault/run2.json" >/dev/null
    cmp "$fault/run1.json" "$fault/run2.json"
    if ./build-asan/examples/mpress_cli --model bert-1.67b \
        --strategy d2d-only --microbatch 6 --no-fault-ladder \
        --faults "$fault/faults.json" >/dev/null; then
        echo "expected OOM with the ladder disabled" >&2
        exit 1
    fi
    python3 - "$fault" <<'EOF'
import json, sys
d = sys.argv[1]
series = json.load(open(d + "/run1.json"))["metrics"]
names = {s["name"] for s in series}
assert "fault.transfer.failures" in names, names
assert "fault.fallback.swap" in names, names
print("fault smoke: deterministic metrics, ladder rescued the run")
EOF

    echo "== static analysis smoke (ASan) =="
    # A plan the planner accepts for bert-1.67b must analyze and
    # verify clean (exit 0); judging the same plan against a model
    # it provably cannot hold must be rejected (exit 3) with the
    # cap-stage-overflow rule in the diagnostics.
    ./build-asan/examples/mpress_cli --model bert-1.67b \
        --strategy mpress --minibatches 2 \
        --save-plan "$smoke/fit.plan" >/dev/null
    ./build-asan/examples/mpress-verify --plan "$smoke/fit.plan" \
        --model bert-1.67b --analyze >"$smoke/fit.out"
    grep -q 'analysis:' "$smoke/fit.out"
    rc=0
    ./build-asan/examples/mpress-verify --plan "$smoke/fit.plan" \
        --model gpt-25.5b --analyze >"$smoke/oom.out" || rc=$?
    [ "$rc" = 3 ] || {
        echo "the gpt-25.5b judgment exited $rc, want 3" >&2
        exit 1
    }
    grep -q 'cap-stage-overflow' "$smoke/oom.out"
    echo "analysis smoke: certificate printed, provable overflow" \
         "rejected"

    echo "== cluster smoke (ASan) =="
    # A 2-node DGX-2 cluster must plan a model that OOMs on one node,
    # and a spec that fails verifyClusterSpec must be rejected with
    # the diagnostic exit code (3), not a crash.
    ./build-asan/examples/mpress_cli --cluster 2x-dgx2 \
        --model bert-1.67b --minibatches 2 \
        --strategy mpress >"$smoke/cluster.out"
    grep -q 'samples/s' "$smoke/cluster.out"
    cat >"$smoke/bad-cluster.json" <<'EOF'
{"name":"bad","nodes":65,"node":"dgx2","nicsPerNode":1}
EOF
    if ./build-asan/examples/mpress_cli \
        --cluster "$smoke/bad-cluster.json" >/dev/null 2>&1; then
        echo "expected the 65-node spec to be rejected" >&2
        exit 1
    fi
    rc=0
    ./build-asan/examples/mpress_cli \
        --cluster "$smoke/bad-cluster.json" >/dev/null 2>&1 || rc=$?
    [ "$rc" = 3 ] || {
        echo "bad cluster spec exited $rc, want 3" >&2
        exit 1
    }
    # The cross-server claims exit 1 unless they all hold: 2x-dgx1
    # scales GPT-10.3B by at least 1.5x over one DGX-1, and GPT-25.5B
    # (2x-dgx1) and GPT-3 175B (4x-dgx2) OOM without compaction and
    # fit with MPress.
    ./build-asan/bench/bench_multinode >"$smoke/multinode.out" || {
        cat "$smoke/multinode.out" >&2
        exit 1
    }
    echo "cluster smoke: 2-node plan trained, bad spec rejected," \
         "cross-server claims hold"

    echo "== serve smoke (ASan) =="
    # The daemon under ASan: serve a real plan, then feed it hostile
    # input (syntax garbage, a nesting bomb, an unknown op) — every
    # one must come back as a typed error on a surviving connection —
    # then saturate both workers (test-only stall op, zero queue) so
    # an over-capacity request gets the typed overloaded error, and
    # finally the shutdown op must stop the process with exit 0.
    ./build-asan/examples/mpress-serve --port 0 \
        --workers 2 --max-queue 0 --allow-stall \
        >"$smoke/serve.out" &
    serve_pid=$!
    for _ in $(seq 1 50); do
        grep -q 'listening on' "$smoke/serve.out" 2>/dev/null && break
        sleep 0.1
    done
    serve_port=$(sed -n \
        's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
        "$smoke/serve.out")
    python3 - "$serve_port" <<'EOF'
import json, socket, sys
port = int(sys.argv[1])
s = socket.create_connection(("127.0.0.1", port), timeout=60)
f = s.makefile("r")

def call(line):
    s.sendall(line.encode() + b"\n")
    return json.loads(f.readline())

assert call('{"op":"ping"}')["ok"]
plan = call('{"op":"plan","id":"smoke"}')
assert plan["ok"] and plan["result"]["planText"], plan
again = call('{"op":"plan","id":"smoke2"}')
assert again["result"]["planText"] == plan["result"]["planText"]
bad = call('{nope')
assert not bad["ok"] and bad["error"]["kind"] == "parse-error", bad
bomb = '{"op":"plan","job":' + "[" * 64 + "]" * 64 + "}"
deep = call(bomb)
assert not deep["ok"] and deep["error"]["kind"] == "parse-error", deep
unknown = call('{"op":"warp-drive"}')
assert not unknown["ok"], unknown
assert unknown["error"]["kind"] == "bad-request", unknown
stats = call('{"op":"stats"}')["result"]
assert stats["cacheHits"] > 0, stats  # repeat plan hit the cache

# Over capacity: hold both workers with stalls (queue bound is 0),
# then the next real request must be shed with a typed error.
import time
holders = []
for _ in range(2):
    h = socket.create_connection(("127.0.0.1", port), timeout=60)
    h.sendall(b'{"op":"stall","ms":2000}\n')
    holders.append(h)
for _ in range(100):
    if call('{"op":"stats"}')["result"]["inFlight"] == 2:
        break
    time.sleep(0.05)
else:
    raise AssertionError("stalls never occupied both workers")
shed = call('{"op":"plan","id":"too-many"}')
assert not shed["ok"], shed
assert shed["error"]["kind"] == "overloaded", shed
for h in holders:  # stalls finish normally; connections were fine
    assert json.loads(h.makefile("r").readline())["ok"]
    h.close()

assert call('{"op":"shutdown"}')["ok"]
print("serve smoke: plan served twice (cache hits %d), hostile "
      "input rejected, over-capacity shed, clean shutdown"
      % stats["cacheHits"])
EOF
    wait "$serve_pid"
fi

if [ "$run_tsan" = 1 ]; then
    echo "== sanitizer build (TSan) =="
    # The race-relevant surface: the thread pool, the device
    # mapper's chunk-parallel placement scan, the planner's parallel
    # trial search (including the robustness matrix), the executor it
    # drives concurrently, the fault suites, the determinism suite
    # that exercises threads=1 vs threads=4, and the serve daemon
    # (request workers + readers sharing the resident trial cache and
    # per-connection write locks), the fabric, and the golden digests.
    cmake -B build-tsan -S . -DMPRESS_SANITIZE=thread >/dev/null
    cmake --build build-tsan -j "$jobs"
    ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
        -R 'ThreadPool|Mapper|SearchDriver|SharedTrialCache|BudgetGate|BudgetLedger|Determinism|Planner|Runtime|Fault|Ladder|Robustness|Injector|Analysis|Serve|Cli|Cluster|WorkerArena|Fabric|GoldenDigest'

    echo "== sweep smoke (TSan) =="
    sweep=$(mktemp -d)
    cat >"$sweep/spec.json" <<'EOF'
{ "scenarios": [
  {"model": "bert-0.64b", "strategy": "recompute", "minibatches": 2},
  {"model": "bert-0.64b", "strategy": "gpu-cpu-swap", "minibatches": 2},
  {"model": "bert-1.67b", "strategy": "mpress", "minibatches": 2}
] }
EOF
    ./build-tsan/examples/mpress_cli --sweep "$sweep/spec.json" \
        --threads 4 --sweep-csv "$sweep/rows.csv" \
        >"$sweep/rows.json"
    python3 - "$sweep" <<'EOF'
import json, sys
d = sys.argv[1]
rows = json.load(open(d + "/rows.json"))["rows"]
assert len(rows) == 3, rows
csv = open(d + "/rows.csv").read().splitlines()
assert len(csv) == 4, csv
# Rows keep spec order regardless of worker completion order.
assert [r["model"] for r in rows] == \
    ["bert-0.64b", "bert-0.64b", "bert-1.67b"]
print("sweep: %d scenarios ok" % len(rows))
EOF

    echo "== robustness smoke (TSan) =="
    cat >"$sweep/matrix.json" <<'EOF'
{ "scenarios": [
  {"name": "straggler", "seed": 3, "events": [
    {"type": "gpu-straggle", "start_ms": 0, "end_ms": 1000000,
     "gpu": 0, "factor": 0.5}]},
  {"name": "flaky", "seed": 5, "events": [
    {"type": "transfer-fail", "start_ms": 0, "end_ms": 1000000,
     "src": 0, "probability": 0.5}]}
] }
EOF
    # The matrix fans out on the pool; the profile must be
    # byte-identical at any thread count.
    ./build-tsan/examples/mpress_cli --model bert-1.67b \
        --strategy mpress --minibatches 2 --robustness "$sweep/matrix.json" \
        --threads 1 --robustness-out "$sweep/rb1.json" >/dev/null
    ./build-tsan/examples/mpress_cli --model bert-1.67b \
        --strategy mpress --minibatches 2 --robustness "$sweep/matrix.json" \
        --threads 4 --robustness-out "$sweep/rb4.json" >/dev/null
    cmp "$sweep/rb1.json" "$sweep/rb4.json"
    python3 - "$sweep" <<'EOF'
import json, sys
rb = json.load(open(sys.argv[1] + "/rb1.json"))
assert len(rb["rows"]) == 2, rb
assert rb["worst"] <= rb["p10"] <= rb["p50"], rb
print("robustness: 2 scenarios, worst %.2f <= p10 %.2f <= p50 %.2f"
      % (rb["worst"], rb["p10"], rb["p50"]))
EOF
fi

if [ "$run_perf" = 1 ]; then
    echo "== perf smoke (Release + IPO) =="
    # Event-queue throughput vs the committed baseline.  Wide (30%)
    # tolerance: this catches "someone reintroduced a heap alloc per
    # event", not single-digit regressions, and must not flake on a
    # loaded CI box.  The switch-fabric iteration's event count is
    # exact on any host, so it gets an exact gate: more events than
    # committed means per-lane transfer events came back.  Its
    # allocs_per_run, the heap allocations of one warm replay, is exact
    # too: more than committed means the executor's swap path (or its
    # set-up) allocates again.  The node
    # ring's window count is exact too, and windows decide where a
    # multi-node stop lands, so it must equal the committed count.  The
    # mapping scan's placement count is exact as well: more placements
    # evaluated than committed means a bound of the scan got weaker.  After
    # deliberate engine changes, refresh the committed BENCH_sim.json
    # from the repo root with the full, unfiltered bench:
    #   MPRESS_BENCH_DIR=. MPRESS_GIT_REV=$(git rev-parse --short HEAD) \
    #   MPRESS_BENCH_DATE=$(date -u +%Y-%m-%d) \
    #       ./build-perf/bench/bench_sim_micro
    cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_INTERPROCEDURAL_OPTIMIZATION=ON >/dev/null
    cmake --build build-perf -j "$jobs" --target bench_sim_micro
    perf=$(mktemp -d)
    MPRESS_BENCH_DIR="$perf" \
    MPRESS_GIT_REV=$(git rev-parse --short HEAD 2>/dev/null || echo unknown) \
    MPRESS_BENCH_DATE=$(date -u +%Y-%m-%d) \
        ./build-perf/bench/bench_sim_micro \
        --benchmark_filter='BM_EventQueue|BM_EventChainSteady|BM_FullIterationSwitchFabric|BM_NodeWindows|BM_MappingSearch' \
        --benchmark_min_time=0.5 >/dev/null
    python3 - "$perf/BENCH_sim.json" BENCH_sim.json <<'EOF'
import json, sys
fresh = json.load(open(sys.argv[1]))["benchmarks"]
base = json.load(open(sys.argv[2]))["benchmarks"]
tol = 0.30
failed = False
for name in ("BM_EventQueue/100000", "BM_EventChainSteady/64"):
    want = base[name]["items_per_second"]
    got = fresh[name]["items_per_second"]
    ratio = got / want
    status = "ok" if ratio >= 1.0 - tol else "REGRESSED"
    print("%-28s %8.2fM ev/s vs baseline %8.2fM (%.0f%%) %s"
          % (name, got / 1e6, want / 1e6, 100 * ratio, status))
    failed = failed or ratio < 1.0 - tol
    ape = fresh[name].get("allocs_per_event", 0.0)
    if ape > 0.01:
        print("%-28s allocs/event %.3f > 0.01 FAIL" % (name, ape))
        failed = True
name = "BM_FullIterationSwitchFabric"
for counter in ("events_per_run", "allocs_per_run"):
    want = base[name][counter]
    got = fresh[name][counter]
    status = "ok" if got <= want else "REGRESSED"
    print("%-28s %8d %s vs baseline %8d %s"
          % (name, got, counter.replace("_per_", "/"), want, status))
    failed = failed or got > want
for name in ("BM_NodeWindows/2", "BM_NodeWindows/8"):
    want = base[name]["windows_per_run"]
    got = fresh[name]["windows_per_run"]
    status = "ok" if got == want else "CHANGED"
    print("%-28s %8d windows/run vs baseline %8d %s"
          % (name, got, want, status))
    failed = failed or got != want
name = "BM_MappingSearch"
want = base[name]["placements_evaluated"]
got = fresh[name]["placements_evaluated"]
status = "ok" if got <= want else "REGRESSED"
print("%-28s %8d placements vs baseline %8d %s"
      % (name, got, want, status))
failed = failed or got > want
if failed:
    sys.exit("perf smoke failed: event queue slower, more events or "
             "allocations, other windows or more placements than "
             "baseline - investigate before updating BENCH_sim.json")
EOF

    echo "== planner search smoke (Release + IPO) =="
    # The planner bench gates its own invariants (byte-identical
    # plans, cache hit rates, analyzer pricing, portfolio anytime
    # contract) via its exit status; on top of that, re-assert the
    # thread-scaling contract here against the fresh JSON so the
    # original regression — adding workers made planning *slower* —
    # can never recommit.  Threads may not help on a small host, but
    # 4 workers must stay within noise of serial.
    cmake --build build-perf -j "$jobs" --target bench_planner_search
    MPRESS_BENCH_DIR="$perf" \
    MPRESS_GIT_REV=$(git rev-parse --short HEAD 2>/dev/null || echo unknown) \
    MPRESS_BENCH_DATE=$(date -u +%Y-%m-%d) \
        ./build-perf/bench/bench_planner_search >/dev/null
    python3 - "$perf/BENCH_planner.json" <<'EOF'
import json, sys
b = json.load(open(sys.argv[1]))["benchmarks"]
tol = 1.15
t1 = b["plan/threads:1"]["wall_ms"]
t4 = b["plan/threads:4"]["wall_ms"]
print("plan wall: threads=1 %.1f ms, threads=4 %.1f ms (%.2fx)"
      % (t1, t4, t1 / t4))
if t4 > t1 * tol:
    sys.exit("planner smoke failed: planning at 4 threads is slower "
             "than serial beyond %d%% tolerance" % ((tol - 1) * 100))
EOF

    echo "== cluster scale smoke (Release + IPO) =="
    # The scale bench gates its own invariants (per-row feasibility,
    # byte-identical plans across thread counts, monotone aggregate
    # throughput) via its exit status; on top of that, compare the
    # fresh rows against the committed baseline so a silent
    # cross-node pricing regression cannot recommit.  Wide (30%)
    # tolerance, same rationale as the event-queue gate.
    cmake --build build-perf -j "$jobs" --target bench_cluster_scale
    MPRESS_BENCH_DIR="$perf" \
    MPRESS_GIT_REV=$(git rev-parse --short HEAD 2>/dev/null || echo unknown) \
    MPRESS_BENCH_DATE=$(date -u +%Y-%m-%d) \
        ./build-perf/bench/bench_cluster_scale >/dev/null
    python3 - "$perf/BENCH_cluster.json" BENCH_cluster.json <<'EOF'
import json, sys
fresh = json.load(open(sys.argv[1]))["benchmarks"]
base = json.load(open(sys.argv[2]))["benchmarks"]
tol = 0.30
failed = False
for nodes in (1, 2, 4, 8):
    name = "scale/nodes:%d" % nodes
    if fresh[name]["feasible"] != 1:
        print("%-16s INFEASIBLE" % name)
        failed = True
        continue
    want = base[name]["samples_per_sec"]
    got = fresh[name]["samples_per_sec"]
    ratio = got / want
    status = "ok" if ratio >= 1.0 - tol else "REGRESSED"
    print("%-16s %7.2f samples/s vs baseline %7.2f (%.0f%%) %s"
          % (name, got, want, 100 * ratio, status))
    failed = failed or ratio < 1.0 - tol
if failed:
    sys.exit("cluster smoke failed: scale-out throughput below "
             "baseline - investigate before updating "
             "BENCH_cluster.json")
EOF

    echo "== bench drift (fresh vs committed baselines) =="
    tools/bench_diff.sh "$perf"
fi

if [ "$run_tidy" = 1 ]; then
    if command -v clang-tidy >/dev/null 2>&1; then
        echo "== clang-tidy =="
        git ls-files 'src/*.cc' 'examples/*.cc' |
            xargs -P "$jobs" -n 1 clang-tidy -p build --quiet
    else
        echo "== clang-tidy not installed; skipping lint =="
    fi
fi

echo "== all checks passed =="
