#!/usr/bin/env bash
# Full local check: the tier-1 build + tests, then a ThreadSanitizer build
# that runs the concurrency-sensitive tests (thread pool + metrics +
# parallel pipeline + fault injection), then CLI smoke runs: a metrics
# run that validates the --metrics-out JSON, a cache run, and a
# fault-injected run that must exit degraded (2) with health.* metrics
# and a spec byte-identical to a survivors-only run, and a seldond smoke
# that proves warm daemon answers match a cold CLI run byte-for-byte
# without re-parsing. Run from anywhere; builds land in build/ and
# build-tsan/.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"

echo "=== tier-1: configure + build + ctest (smoke tier first) ==="
cmake -B "$ROOT/build" -S "$ROOT"
cmake --build "$ROOT/build" -j "$JOBS"
# Fast unit suites first for quick signal, then the full tier.
ctest --test-dir "$ROOT/build" --output-on-failure -j "$JOBS" -L smoke
ctest --test-dir "$ROOT/build" --output-on-failure -j "$JOBS" -LE smoke

echo
echo "=== tsan: concurrency-sensitive tests under ThreadSanitizer ==="
cmake -B "$ROOT/build-tsan" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -g"
cmake --build "$ROOT/build-tsan" -j "$JOBS" \
  --target threadpool_test metrics_test pipeline_parallel_test \
           objective_kernel_test cache_fault_test \
           cache_pipeline_test fault_pipeline_test service_test \
           shard_fault_test shard_pipeline_test active_learning_test \
           feedback_test
ctest --test-dir "$ROOT/build-tsan" --output-on-failure -j "$JOBS" \
  -R 'ThreadPoolTest|MetricsTest|TraceTest|MetricsPipelineTest|PipelineParallelTest|ObjectiveTest|CompileTest|CompiledEquivalenceTest|SimdLayoutTest|SimdEquivalenceTest|SimdDispatchTest|CodecFaultTest|CacheFaultTest|CachePipelineTest|CacheStalenessTest|CacheDegradedTest|CacheKeyTest|FaultPipelineTest|ServiceTest|ServiceJsonTest|ProtocolTest|ShardCodecTest|ShardCodecFaultTest|ShardCacheFaultTest|ShardPipelineTest|ShardStalenessTest|ShardKeyTest|ShardWarmStartTest|ShardFallbackTest|ShardDegradedTest|ShardPipelineComboTest|ActiveLearningTest|UncertaintyTest|FileOracleTest|FeedbackTest'

echo
echo "=== ubsan: the solver kernel under UndefinedBehaviorSanitizer ==="
# The kernel's compile hashes raw double bit patterns and converts row
# multiplicities to integers, and its tiers index blocked arrays through
# gathers and scatters: an out-of-range conversion, shift or index must
# be a caught bug, not silent UB.
cmake -B "$ROOT/build-ubsan" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=undefined,float-cast-overflow -fno-sanitize-recover=all -g"
cmake --build "$ROOT/build-ubsan" -j "$JOBS" \
  --target objective_kernel_test solver_test
ctest --test-dir "$ROOT/build-ubsan" --output-on-failure -j "$JOBS" \
  -R 'ObjectiveTest|CompileTest|CompiledEquivalenceTest|SimdLayoutTest|SimdEquivalenceTest|SimdDispatchTest|AdamTest|SlackSweepTest'

echo
echo "=== kernel tiers: the kernel test once per SELDON_SIMD setting ==="
# Tests that do not sweep tiers themselves run on whatever SELDON_SIMD
# selects, so each run covers one tier end to end (on hosts without
# AVX2 or AVX-512 the capped settings fall back to a lower tier).
for TIER in off avx2 ""; do
  echo "--- SELDON_SIMD=${TIER:-<unset>}"
  if [ -n "$TIER" ]; then
    SELDON_SIMD="$TIER" "$ROOT/build/tests/objective_kernel_test" --gtest_brief=1
  else
    env -u SELDON_SIMD "$ROOT/build/tests/objective_kernel_test" --gtest_brief=1
  fi
done

echo
echo "=== asan+ubsan: service, durability and on-disk format tests ==="
# Every test that parses bytes read from disk runs here: the shared frame
# codec and file layer, the graph and shard codecs and caches (every
# truncation and bit flip), the durability layer (journal frames,
# snapshot decoding, torn-tail truncation), and a daemon that dies at
# injected crash points — exactly where a heap overrun, use-after-free or
# out-of-range shift would hide. The recovery harness forks the
# sanitized seldond, so the kill-and-restart sweep runs sanitized end to
# end. The constraint tests ride along: the one Fig. 4 emitter runs on
# every generation and indexes its term caches and option lists by local
# event ids, and the pinned-system digests (FormatGoldenTest) drive it
# directly and through cold and warm shard replay. So do the explanation
# tests: the daemon's var→rows index is addressed by variable and row ids,
# and the indexed query walk forms its prefetch addresses and its label
# memo slots from those ids (ExplainTest, FormatGoldenTest and ServiceTest
# all take the indexed walk).
# The fault-pipeline and active-learning tests run here too:
# infer::ScopedOptions restores the borrowed WarmStart and Feedback
# pointers on every exit path, throws included. So do the pipeline
# tests: every PipelineResult shares its Session's graph, which must
# outlive the Session that built it. So do the flat row and option store
# tests: a system's rows and options are views into a few arrays, and a
# view held across an append that reallocates them is a use-after-free.
# The graph suites run for the same reason: an Event, its Reps and every
# adjacency span read the propagation graph's flat arrays, which any
# write (an event, an edge batch, an append) may reallocate. The taint
# analyzer's tests run too: its searches share one stamp and one parent
# array per call, both indexed by event id.
cmake -B "$ROOT/build-asan" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=undefined -fno-omit-frame-pointer -g"
cmake --build "$ROOT/build-asan" -j "$JOBS" \
  --target service_test durability_fault_test recovery_harness_test \
           fileio_test format_golden_test graphcodec_test \
           cache_fault_test shard_fault_test constraints_test explain_test \
           fault_pipeline_test active_learning_test infer_test \
           constraint_rows_test propgraph_test
ctest --test-dir "$ROOT/build-asan" --output-on-failure -j "$JOBS" \
  -R 'ServiceTest|ServiceJsonTest|ProtocolTest|JournalCodecTest|SnapshotCodecTest|StateStoreTest|RecoveryHarnessTest|FrameCodecTest|FileIOTest|FormatGoldenTest|CodecSweepTest|GraphCodecTest|CodecFaultTest|CacheFaultTest|ShardCodecTest|ShardCodecFaultTest|ShardCacheFaultTest|ConstraintGenTest|ExplainTest|FaultPipelineTest|ActiveLearningTest|^PipelineTest\.|ConstraintRowsTest|EventOptionsTest|PropagationGraphTest|RepTableTest|GraphBuilderTest|TaintAnalyzerTest'

echo
echo "=== metrics smoke: seldon learn --metrics-out on a toy repo ==="
SMOKE="$(mktemp -d)"
trap 'rm -rf "$SMOKE"' EXIT
cat > "$SMOKE/app.py" <<'PY'
from flask import request
import flask

def greet():
    name = request.args.get('name')
    flask.make_response('<h1>' + name + '</h1>')

def safe():
    name = request.args.get('name')
    flask.make_response(flask.escape(name))
PY
"$ROOT/build/tools/seldon" learn --cutoff 1 --iters 100 --jobs 2 \
  --metrics-out "$SMOKE/metrics.json" --out "$SMOKE/learned.spec" "$SMOKE"
python3 - "$SMOKE/metrics.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    m = json.load(f)
if not m["enabled"]:
    sys.exit("FAIL: metrics snapshot reports enabled=false")
paths = {s["path"] for s in m["spans"]}
for stage in ("session/build", "session/constraints", "session/assemble",
              "session/solve", "session/solve/compile",
              "session/solve/iterate", "session/solve/readback"):
    if stage not in paths:
        sys.exit(f"FAIL: missing {stage} span")
if m.get("spans_dropped") != 0:
    sys.exit(f"FAIL: a short run dropped {m.get('spans_dropped')} span(s)")
for s in m["spans"]:
    if s["duration_seconds"] < 0:
        sys.exit(f"FAIL: span {s['path']} has negative duration")
for c in ("parse.files", "solve.iterations", "pointsto.solves"):
    if m["counters"].get(c, 0) <= 0:
        sys.exit(f"FAIL: counter {c} not populated")
for g in ("gen.constraints", "solver.rows_before", "solver.rows_after",
          "solve.final_objective"):
    if g not in m["gauges"]:
        sys.exit(f"FAIL: gauge {g} missing")
if m["gauges"]["solver.rows_after"] > m["gauges"]["solver.rows_before"]:
    sys.exit("FAIL: dedup grew the row count")
obj = m["series"].get("solve.objective", {"count": 0})
if obj["count"] == 0 or not obj["samples"]:
    sys.exit("FAIL: no solver convergence samples")
for t in ("parse.file_seconds", "build.project_seconds"):
    if m["timers"].get(t, {"count": 0})["count"] == 0:
        sys.exit(f"FAIL: timer {t} not populated")
print("OK: metrics snapshot has all expected stages, counters, gauges, "
      "timers, and convergence samples")
EOF

echo
echo "=== cache smoke: cold + warm seldon learn with --cache-dir ==="
"$ROOT/build/tools/seldon" learn --cutoff 1 --iters 100 --jobs 2 \
  --cache-dir "$SMOKE/cache" --cache-stats \
  --out "$SMOKE/cold.spec" "$SMOKE"
"$ROOT/build/tools/seldon" learn --cutoff 1 --iters 100 --jobs 2 \
  --cache-dir "$SMOKE/cache" --cache-stats \
  --metrics-out "$SMOKE/warm-metrics.json" \
  --out "$SMOKE/warm.spec" "$SMOKE"
cmp "$SMOKE/cold.spec" "$SMOKE/warm.spec" \
  || { echo "FAIL: warm-cache spec differs from cold run"; exit 1; }
python3 - "$SMOKE/warm-metrics.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    m = json.load(f)
hits = m["counters"].get("cache.hits", 0)
misses = m["counters"].get("cache.misses", 0)
if hits <= 0:
    sys.exit(f"FAIL: warm run recorded {hits} cache hits")
if misses != 0:
    sys.exit(f"FAIL: warm run recorded {misses} cache misses")
if m["counters"].get("cache.bytes_read", 0) <= 0:
    sys.exit("FAIL: warm run read no cache bytes")
if m["timers"].get("cache.load_seconds", {"count": 0})["count"] != hits:
    sys.exit("FAIL: cache.load_seconds count disagrees with cache.hits")
print(f"OK: warm run served {hits} project(s) from the graph cache, "
      "specs byte-identical")
EOF

echo
echo "=== incremental smoke: --shard-cache re-learn after one edit ==="
mkdir -p "$SMOKE/incr/p1" "$SMOKE/incr/p2"
cp "$SMOKE/app.py" "$SMOKE/incr/p1/app.py"
cp "$SMOKE/app.py" "$SMOKE/incr/p2/app.py"
# Cold learn populates the graph + shard caches and writes the spec a
# later warm start reads.
"$ROOT/build/tools/seldon" learn --cutoff 1 --iters 100 --jobs 2 \
  --cache-dir "$SMOKE/incr/cache" --shard-cache \
  --out "$SMOKE/incr/learned.spec" "$SMOKE/incr/p1" "$SMOKE/incr/p2"
# The edit: one project grows a handler; the other is untouched.
cat >> "$SMOKE/incr/p1/app.py" <<'PY'

def extra():
    v = request.args.get('v')
    flask.make_response(flask.escape(v))
PY
# From-scratch reference on the edited corpus (no caches).
"$ROOT/build/tools/seldon" learn --cutoff 1 --iters 100 --jobs 2 \
  --out "$SMOKE/incr/fresh.spec" "$SMOKE/incr/p1" "$SMOKE/incr/p2"
# Incremental re-learn with warm start disabled: exactly one shard
# rebuilds and the composed spec is byte-identical to from-scratch.
"$ROOT/build/tools/seldon" learn --cutoff 1 --iters 100 --jobs 2 \
  --cache-dir "$SMOKE/incr/cache" --shard-cache --no-warm-start \
  --metrics-out "$SMOKE/incr/metrics.json" \
  --out "$SMOKE/incr/learned.spec" "$SMOKE/incr/p1" "$SMOKE/incr/p2"
cmp "$SMOKE/incr/learned.spec" "$SMOKE/incr/fresh.spec" \
  || { echo "FAIL: incremental spec differs from from-scratch run"; exit 1; }
python3 - "$SMOKE/incr/metrics.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    m = json.load(f)
g = m["gauges"]
if g.get("incr.shards_rebuilt") != 1:
    sys.exit(f"FAIL: expected 1 shard rebuild after one edit, got "
             f"{g.get('incr.shards_rebuilt')}")
if g.get("incr.shards_hit") != 1:
    sys.exit(f"FAIL: expected 1 shard hit, got {g.get('incr.shards_hit')}")
if g.get("incr.warm_start") != 0:
    sys.exit("FAIL: --no-warm-start run still flagged incr.warm_start")
if m["timers"].get("incr.merge_seconds", {"count": 0})["count"] == 0:
    sys.exit("FAIL: composed run recorded no merge time")
if m["counters"].get("parse.files", 0) != 1:
    sys.exit("FAIL: expected only the edited file parsed, got parse.files="
             f"{m['counters'].get('parse.files', 0)}")
print("OK: one edit -> one file parsed, one shard rebuilt, one replayed, "
      "spec byte-identical to from-scratch")
EOF
# Warm-started re-learn: --out exists, so the solve seeds from it.
"$ROOT/build/tools/seldon" learn --cutoff 1 --iters 100 --jobs 2 \
  --cache-dir "$SMOKE/incr/cache" --shard-cache \
  --metrics-out "$SMOKE/incr/warm-metrics.json" \
  --out "$SMOKE/incr/learned.spec" "$SMOKE/incr/p1" "$SMOKE/incr/p2"
python3 - "$SMOKE/incr/warm-metrics.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    m = json.load(f)
g = m["gauges"]
if g.get("incr.warm_start") != 1:
    sys.exit("FAIL: re-learn over an existing --out did not warm-start")
if g.get("incr.shards_rebuilt") != 0 or g.get("incr.shards_hit") != 2:
    sys.exit(f"FAIL: expected all-hit replay, got hit="
             f"{g.get('incr.shards_hit')} rebuilt="
             f"{g.get('incr.shards_rebuilt')}")
if m["counters"].get("parse.files", 0) != 0:
    sys.exit("FAIL: all-hit re-learn parsed "
             f"{m['counters'].get('parse.files', 0)} file(s)")
print("OK: warm-started re-learn replayed every shard, parsed no file")
EOF

echo
echo "=== active smoke: seldon learn --active with a file oracle ==="
# Own corpus directory: later smokes treat "$SMOKE" itself as a corpus
# root, so the wrapper app must not land inside it.
ASMOKE="$(mktemp -d)"
trap 'rm -rf "$SMOKE" "$ASMOKE"' EXIT
# The wrapper sanitizer is the point: clean() is not in the built-in
# seed, so its score variable is unpinned and the loop has candidates to
# query (the seeded flask.* reps are pinned and never proposed).
cat > "$ASMOKE/app.py" <<'PY'
from flask import request
import flask

def clean(value):
    return flask.escape(value)

def greet():
    name = request.args.get('name')
    flask.make_response('<h1>' + name + '</h1>')

def safe():
    name = request.args.get('name')
    flask.make_response(clean(name))

def page():
    v = request.args.get('v')
    flask.make_response(clean(v))
PY
cat > "$ASMOKE/oracle.json" <<'JSON'
{"answers":[{"rep":"clean()","role":"sanitizer","truth":true}]}
JSON
"$ROOT/build/tools/seldon" learn --cutoff 1 --iters 100 --jobs 2 \
  --active --oracle "$ASMOKE/oracle.json" \
  --rounds 2 --queries-per-round 4 \
  --oracle-out "$ASMOKE/transcript.json" \
  --metrics-out "$ASMOKE/metrics.json" \
  --out "$ASMOKE/learned.spec" "$ASMOKE"
python3 - "$ASMOKE/metrics.json" "$ASMOKE/transcript.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    m = json.load(f)
c, g = m["counters"], m["gauges"]
if c.get("active.queries", 0) < 1:
    sys.exit("FAIL: active run recorded no oracle queries")
if c.get("active.answers", 0) != 1 or c.get("active.pins_true", 0) != 1:
    sys.exit(f"FAIL: expected 1 answered query pinned true, got "
             f"answers={c.get('active.answers')} "
             f"pins_true={c.get('active.pins_true')}")
if g.get("active.rounds") != 2:
    sys.exit(f"FAIL: expected 2 rounds, got {g.get('active.rounds')}")
if g.get("active.candidates", 0) < 1 or g.get("active.pinned") != 1:
    sys.exit(f"FAIL: candidates={g.get('active.candidates')} "
             f"pinned={g.get('active.pinned')}")
if g.get("active.queried_fraction", 0) <= 0:
    sys.exit("FAIL: active.queried_fraction not populated")
rounds = m["timers"].get("active.round_seconds", {"count": 0})["count"]
if rounds != g["active.rounds"]:
    sys.exit("FAIL: active.round_seconds count disagrees with rounds")
with open(sys.argv[2]) as f:
    t = json.load(f)
if t != {"answers": [{"rep": "clean()", "role": "sanitizer",
                      "truth": True}]}:
    sys.exit(f"FAIL: unexpected replay transcript: {t}")
print(f"OK: active run queried {c['active.queries']} candidate(s) over "
      f"2 rounds, pinned clean() as a sanitizer, transcript replayable")
EOF

echo
echo "=== fault smoke: SELDON_FAULT=parse:0 degrades but matches survivors ==="
mkdir -p "$SMOKE/p1" "$SMOKE/p2"
cp "$SMOKE/app.py" "$SMOKE/p1/app.py"
cp "$SMOKE/app.py" "$SMOKE/p2/app.py"
RC=0
SELDON_FAULT=parse:0 "$ROOT/build/tools/seldon" learn --cutoff 1 --iters 100 \
  --jobs 2 --metrics-out "$SMOKE/fault-metrics.json" \
  --out "$SMOKE/degraded.spec" "$SMOKE/p1" "$SMOKE/p2" || RC=$?
if [ "$RC" -ne 2 ]; then
  echo "FAIL: fault-injected run exited $RC, expected degraded exit code 2"
  exit 1
fi
"$ROOT/build/tools/seldon" learn --cutoff 1 --iters 100 --jobs 2 \
  --out "$SMOKE/survivor.spec" "$SMOKE/p2"
cmp "$SMOKE/degraded.spec" "$SMOKE/survivor.spec" \
  || { echo "FAIL: degraded spec differs from the survivors-only run"; exit 1; }
python3 - "$SMOKE/fault-metrics.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    m = json.load(f)
if m["counters"].get("health.quarantined", 0) != 1:
    sys.exit("FAIL: expected exactly one quarantined project, got "
             f"{m['counters'].get('health.quarantined', 0)}")
if m["gauges"].get("health.status") != 1:
    sys.exit("FAIL: health.status gauge is not Degraded (1): "
             f"{m['gauges'].get('health.status')}")
if m["gauges"].get("health.deadline_expired") != 0:
    sys.exit("FAIL: deadline flagged on a fault-only run")
if m["gauges"].get("health.fault_trips", 0) < 1:
    sys.exit("FAIL: fault registry recorded no trips")
print("OK: parse fault quarantined one project, exit code 2, health.* "
      "metrics populated, spec byte-identical to the survivors-only run")
EOF

echo
echo "=== daemon smoke: seldond --once vs a cold seldon explain ==="
# Cold references: one-shot CLI queries on the same corpus and settings,
# for a pair its rows demand (the sanitizer), a pair its rows only cap
# (the same rep as a sink, pinned to 0), a seed-pinned sink, and a pair
# with no variable.
explain_json() {
  "$ROOT/build/tools/seldon" explain --json --rep "$1" --role "$2" \
    --cutoff 1 --iters 200 "$SMOKE" > "$3"
}
explain_json 'flask.escape()' sanitizer "$SMOKE/cold.json"
explain_json 'flask.escape()' sink "$SMOKE/cold-capped.json"
explain_json 'flask.make_response()' sink "$SMOKE/cold-pinned.json"
explain_json 'never.seen()' source "$SMOKE/cold-missing.json"
cat > "$SMOKE/requests.txt" <<'REQ'
{"v":1,"id":1,"op":"status"}
{"v":1,"id":2,"op":"query","rep":"flask.escape()","role":"sanitizer"}
{"v":1,"id":3,"op":"query","rep":"flask.escape()","role":"sanitizer"}
{"v":1,"id":4,"op":"query","rep":"flask.escape()","role":"sink"}
{"v":1,"id":5,"op":"query","rep":"flask.make_response()","role":"sink"}
{"v":1,"id":6,"op":"query","rep":"never.seen()","role":"source"}
{"v":1,"id":7,"op":"learn","iters":200,"warm":true}
{"v":1,"id":8,"op":"query","rep":"flask.escape()","role":"sanitizer"}
{"v":1,"id":9,"op":"status"}
{"v":1,"id":10,"op":"shutdown"}
REQ
"$ROOT/build/tools/seldond" --once --cutoff 1 --iters 200 "$SMOKE" \
  < "$SMOKE/requests.txt" > "$SMOKE/responses.txt" 2> "$SMOKE/seldond.log"
python3 - "$SMOKE/responses.txt" "$SMOKE/relearned.json" "$SMOKE/cold.json" \
  "$SMOKE/cold-capped.json" "$SMOKE/cold-pinned.json" \
  "$SMOKE/cold-missing.json" <<'EOF'
import json, sys
lines = open(sys.argv[1]).read().splitlines()
cold, capped, pinned, missing = (open(p).read().rstrip("\n")
                                 for p in sys.argv[3:7])
if len(lines) != 10:
    sys.exit(f"FAIL: expected 10 response lines, got {len(lines)}")
for n, line in enumerate(lines, 1):
    r = json.loads(line)
    if r.get("v") != 1 or r.get("id") != n or r.get("ok") is not True:
        sys.exit(f"FAIL: bad envelope on line {n}: {line[:120]}")
    # The envelope emits `result` last, so byte splicing must work.
    if not line.startswith(f'{{"v":1,"id":{n},"ok":true,"result":'):
        sys.exit(f"FAIL: envelope key order broken on line {n}")
def result_bytes(line):
    return line.split('"result":', 1)[1][:-1]
# Warm daemon answers == cold CLI runs, byte for byte; and the repeated
# query is byte-identical (nothing recomputed differently).
q2, q3 = result_bytes(lines[1]), result_bytes(lines[2])
if q3 != q2:
    sys.exit("FAIL: second identical query returned different bytes")
for n, ref, what in ((2, cold, "demanded"), (4, capped, "capped"),
                     (5, pinned, "seed-pinned"), (6, missing, "missing")):
    warm = result_bytes(lines[n - 1])
    if warm != ref:
        sys.exit(f"FAIL: warm {what} query differs from cold explain "
                 f"--json:\n  daemon: {warm[:200]}\n  cli:    {ref[:200]}")
# Each pair is the kind it stands for.
def kinds(answer):
    return {c["kind"] for c in json.loads(answer)["constraints"]}
if "demands" not in kinds(cold):
    sys.exit("FAIL: the demanded pair lists no demanding row")
if kinds(capped) != {"caps"}:
    sys.exit(f"FAIL: the capped pair lists {sorted(kinds(capped))}")
p = json.loads(pinned)
if not (p["found"] and p["pinned"] and p["pinned_value"] == 1.0):
    sys.exit(f"FAIL: the seed-pinned pair reads {pinned[:200]}")
m = json.loads(missing)
if m["found"] or m["constraints"]:
    sys.exit(f"FAIL: the missing pair reads {missing[:200]}")
# The query after the learn is answered from the state the learn
# published (and indexed); the shell cmp's it against the cold answer.
open(sys.argv[2], "w").write(result_bytes(lines[7]) + "\n")
# No re-parse: parse.files must not move across queries and a learn,
# and must equal the corpus file count from the initial status.
s1, s9 = json.loads(result_bytes(lines[0])), json.loads(result_bytes(lines[8]))
files = s1["corpus"]["files"]
p1, p9 = s1["metrics"]["parse_files"], s9["metrics"]["parse_files"]
if p1 != files:
    sys.exit(f"FAIL: initial parse_files {p1} != corpus files {files}")
if p9 != p1:
    sys.exit(f"FAIL: parse_files moved {p1} -> {p9}: the daemon re-parsed")
if not json.loads(result_bytes(lines[6])).get("converged", False):
    sys.exit("FAIL: warm learn did not converge")
if json.loads(result_bytes(lines[9])) != {"stopping": True}:
    sys.exit("FAIL: shutdown did not acknowledge")
print(f"OK: warm daemon == cold CLI byte-for-byte for a demanded, a "
      f"capped, a seed-pinned and a missing pair; {files} file(s) parsed "
      "exactly once across queries and a learn")
EOF
cmp "$SMOKE/cold.json" "$SMOKE/relearned.json"
echo "OK: the query after a learn == cold CLI byte-for-byte"

# Warm restart through the graph cache: the second daemon start must
# serve every project graph from the cache (sources are still read — they
# feed the content-hashed cache key — but no file is parsed and no graph
# is rebuilt).
"$ROOT/build/tools/seldond" --once --cutoff 1 --iters 200 \
  --cache-dir "$SMOKE/dcache" "$SMOKE" \
  <<< '{"v":1,"id":1,"op":"shutdown"}' > /dev/null 2>&1
printf '%s\n' '{"v":1,"id":1,"op":"status"}' '{"v":1,"id":2,"op":"shutdown"}' |
  "$ROOT/build/tools/seldond" --once --cutoff 1 --iters 200 \
    --cache-dir "$SMOKE/dcache" "$SMOKE" > "$SMOKE/restart.txt" 2>/dev/null
python3 - "$SMOKE/restart.txt" <<'EOF'
import json, sys
status = json.loads(
    open(sys.argv[1]).read().splitlines()[0].split('"result":', 1)[1][:-1])
cache = status["cache"]
if not cache["enabled"] or cache["hits"] < 1 or cache["misses"] != 0:
    sys.exit(f"FAIL: warm daemon restart did not hit the cache: {cache}")
if status["metrics"]["parse_files"] != 0:
    sys.exit("FAIL: restart parsed "
             f"{status['metrics']['parse_files']} file(s); every graph "
             "came from the cache, so it should parse none")
print(f"OK: daemon restart served {cache['hits']} project(s) from the "
      "graph cache, no file parsed, no graphs rebuilt")
EOF

echo
echo "=== crash-recovery smoke: kill seldond mid-op, restart, compare ==="
# Reference: the served answer after an acknowledged feedback op.
QUERY='{"v":1,"id":7,"op":"query","rep":"flask.escape()","role":"sanitizer"}'
FEEDBACK='{"v":1,"id":6,"op":"feedback","iters":200,"accept":[{"rep":"flask.escape()","role":"sanitizer"}]}'
printf '%s\n%s\n' "$FEEDBACK" "$QUERY" |
  "$ROOT/build/tools/seldond" --once --cutoff 1 --iters 200 \
    --state-dir "$SMOKE/dstate-ref" "$SMOKE" 2>/dev/null |
  tail -1 > "$SMOKE/crash-ref.json"
# Arm a crash after the journal fsync: the daemon dies mid-op (exit 86)
# before answering, leaving the op only in the write-ahead journal.
RC=0
printf '%s\n%s\n' "$FEEDBACK" "$QUERY" |
  SELDON_FAULT=crash:journal-synced:1 \
  "$ROOT/build/tools/seldond" --once --cutoff 1 --iters 200 \
    --state-dir "$SMOKE/dstate" "$SMOKE" \
    > "$SMOKE/crash-out.txt" 2> "$SMOKE/crash-err.txt" || RC=$?
if [ "$RC" -ne 86 ]; then
  echo "FAIL: armed crash point exited $RC, expected 86"
  exit 1
fi
if [ -s "$SMOKE/crash-out.txt" ]; then
  echo "FAIL: crashed daemon answered before the injected crash"
  exit 1
fi
# Restart on the same state dir: replay re-executes the journaled op and
# the served answer matches the never-crashed reference byte for byte.
printf '%s\n' "$QUERY" |
  "$ROOT/build/tools/seldond" --once --cutoff 1 --iters 200 \
    --state-dir "$SMOKE/dstate" "$SMOKE" 2>/dev/null |
  tail -1 > "$SMOKE/crash-recovered.json"
cmp "$SMOKE/crash-ref.json" "$SMOKE/crash-recovered.json" \
  || { echo "FAIL: recovered answer differs from the reference"; exit 1; }
echo "OK: daemon killed at the journal boundary, restart replayed the op,"
echo "    served answer byte-identical to a never-crashed run"

# A degraded solve stays degraded across a restart: every solver step is
# poisoned, so the start-up solve falls back; the restart re-serves that
# solve from its snapshot, without the fault, and reports its health.
STATUS='{"v":1,"id":8,"op":"status"}'
printf '%s\n' "$STATUS" |
  SELDON_FAULT='solver-step:*' \
  "$ROOT/build/tools/seldond" --once --cutoff 1 --iters 200 \
    --state-dir "$SMOKE/dstate-degraded" "$SMOKE" 2>/dev/null |
  tail -1 > "$SMOKE/degraded-start.json"
printf '%s\n' "$STATUS" |
  "$ROOT/build/tools/seldond" --once --cutoff 1 --iters 200 \
    --state-dir "$SMOKE/dstate-degraded" "$SMOKE" 2>/dev/null |
  tail -1 > "$SMOKE/degraded-restart.json"
for RUN in degraded-start degraded-restart; do
  grep -q '"health":{"status":"degraded"' "$SMOKE/$RUN.json" || {
    echo "FAIL: $RUN status is not degraded: $(cat "$SMOKE/$RUN.json")"
    exit 1
  }
done
echo "OK: a fallen-back solve reports degraded before and after a restart"

echo
echo "all checks passed"
