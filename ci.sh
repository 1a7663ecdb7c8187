#!/usr/bin/env bash
# Local CI pipeline — the source of truth for what "green" means.
#
# The GitHub workflow (.github/workflows/ci.yml) runs these same stages as
# separate jobs; run this script before pushing to get the identical
# verdict locally.
#
# Offline note: this workspace intentionally builds with NO network access.
# External dependencies are vendored as minimal API stand-ins under
# `compat/` (see compat/README.md), so every stage below works against a
# cold cargo home with no registry. Cargo.lock is committed and must stay
# in sync (`--locked` enforces it).
#
# Usage:
#   ./ci.sh          # run every stage
#   ./ci.sh gate     # just the tier-1 gate (build + tests)
#   ./ci.sh workspace  # every crate's tests, release build
#   ./ci.sh fmt | clippy | bench | determinism | simd | faults | metrics | trace | serve | chaos

set -euo pipefail
cd "$(dirname "$0")"

stage() { printf '\n=== %s ===\n' "$1"; }

# Temp-file hygiene: a single EXIT trap over a global list. Stages used to
# set per-function `trap … RETURN` cleanups, but `exit 1` on a failure path
# (or `set -e` aborting a cargo invocation) skips RETURN traps entirely and
# leaked the files; EXIT fires on every termination path. The helpers
# assign into a named variable (`mktemp_tracked t1`) rather than printing,
# because `t1=$(mktemp_tracked)` would grow TMP_CLEANUP inside a command
# substitution subshell where the parent never sees it.
TMP_CLEANUP=()
cleanup_tmp() {
    if [ "${#TMP_CLEANUP[@]}" -gt 0 ]; then
        rm -rf -- "${TMP_CLEANUP[@]}"
    fi
}
trap cleanup_tmp EXIT
mktemp_tracked()  { local t; t=$(mktemp);    TMP_CLEANUP+=("$t"); printf -v "$1" '%s' "$t"; }
mktempd_tracked() { local t; t=$(mktemp -d); TMP_CLEANUP+=("$t"); printf -v "$1" '%s' "$t"; }

run_gate() {
    stage "tier-1 gate: cargo build --release && cargo test -q"
    cargo build --release --locked
    cargo test -q --locked
}

run_workspace() {
    stage "workspace tests: cargo test --workspace --release"
    # Tier-1 runs the root package's tests only; this runs every crate's
    # unit and integration tests, so a failure in a library crate cannot
    # hide behind a green gate.
    cargo test --workspace --release --locked
}

run_fmt() {
    stage "cargo fmt --check"
    cargo fmt --all -- --check
}

run_clippy() {
    stage "cargo clippy --workspace -- -D warnings"
    cargo clippy --workspace --all-targets --locked -- -D warnings
}

run_bench() {
    stage "benchmarks build and test: bench_gemm + bench_diff + bench_e2e"
    # The GEMM sweep backs BENCH_gemm.json; bench_diff gates it.
    cargo build --release --locked -p ist-bench --bin bench_gemm --bin bench_diff
    # bench_e2e (the BENCHMARK.json harness) is its own workspace, built
    # --locked --offline against the library crates; a library API or
    # [dependencies] change that breaks it must fail here, not only in the
    # benchmark pipeline.
    cargo test --release --locked --offline --manifest-path bench_e2e/Cargo.toml
}

run_determinism() {
    stage "determinism guard: same-seed losses across IST_THREADS=1 vs 4"
    # The quickstart trains with verbose per-epoch losses on stderr. The
    # reported losses must be byte-identical regardless of pool size: the
    # worker pool partitions work, it must never change results.
    local t1 t4
    mktemp_tracked t1; mktemp_tracked t4
    IST_THREADS=1 cargo run --release --locked --example quickstart 2>"$t1" >/dev/null
    IST_THREADS=4 cargo run --release --locked --example quickstart 2>"$t4" >/dev/null
    if ! diff <(grep '^epoch' "$t1") <(grep '^epoch' "$t4"); then
        echo "FAIL: training losses differ between IST_THREADS=1 and IST_THREADS=4" >&2
        exit 1
    fi
    echo "losses identical across thread counts:"
    grep '^epoch' "$t1"
}

run_simd() {
    stage "SIMD dispatch gate: per-level equivalence, loss/scores invariance, env hygiene"
    # Kernel level: every dispatch level this host supports must be bitwise
    # identical to scalar (simd_equivalence sweeps available_levels
    # internally), and the full training pipeline must replay the same loss
    # stream and serving scores at every level (simd_determinism).
    cargo test -q --release --locked -p ist-tensor --test simd_equivalence
    cargo test -q --release --locked --test simd_determinism
    # Catalog scoring at catalog width, scalar: the small serving world
    # below never reaches the GEMM's multi-panel column split or the
    # pre-packed catalog's reload, so the 18k-item test runs here too.
    IST_SIMD=scalar cargo test -q --release --locked -p ist-serve --test wide_catalog
    # Products that read a transposed operand in place, scalar: the test
    # sweeps the levels itself, and this pins the process's starting level.
    IST_SIMD=scalar cargo test -q --release --locked -p ist-tensor --test transposed_operands

    # Quickstart losses: forcing IST_SIMD=scalar must not change a bit
    # against the auto-detected best level, and the best level must stay
    # thread-count invariant (SIMD lanes never cross pool partitions).
    local s1 b1 b4
    mktemp_tracked s1; mktemp_tracked b1; mktemp_tracked b4
    IST_SIMD=scalar IST_THREADS=1 \
        cargo run --release --locked --example quickstart 2>"$s1" >/dev/null
    IST_THREADS=1 cargo run --release --locked --example quickstart 2>"$b1" >/dev/null
    IST_THREADS=4 cargo run --release --locked --example quickstart 2>"$b4" >/dev/null
    if ! diff <(grep '^epoch' "$s1") <(grep '^epoch' "$b1"); then
        echo "FAIL: IST_SIMD=scalar changed the quickstart losses vs the detected level" >&2
        exit 1
    fi
    if ! diff <(grep '^epoch' "$b1") <(grep '^epoch' "$b4") >/dev/null; then
        echo "FAIL: losses differ across IST_THREADS=1 vs 4 at the detected SIMD level" >&2
        exit 1
    fi
    echo "quickstart losses identical: IST_SIMD=scalar vs detected, 1 vs 4 threads"

    # Serving: the report's scores_crc must be bitwise identical whether
    # scoring runs scalar or at the detected best level.
    local work crc_scalar crc_best
    mktempd_tracked work
    cargo run --release --locked --bin isrec -- \
        generate --world beauty --scale 0.25 --seed 42 --out "$work/data" >/dev/null
    cargo run --release --locked --bin isrec -- \
        train --data "$work/data" --snapshot "$work/model.bin" --epochs 2 --max-len 20 >/dev/null
    IST_SIMD=scalar cargo run --release --locked --bin isrec -- \
        serve --data "$work/data" --snapshot "$work/model.bin" \
        --synthetic 500 --report "$work/report_scalar.json" >/dev/null
    cargo run --release --locked --bin isrec -- \
        serve --data "$work/data" --snapshot "$work/model.bin" \
        --synthetic 500 --report "$work/report_best.json" >/dev/null
    crc_scalar=$(python3 -c "import json,sys; print(json.load(open(sys.argv[1]))['scores_crc'])" \
        "$work/report_scalar.json")
    crc_best=$(python3 -c "import json,sys; print(json.load(open(sys.argv[1]))['scores_crc'])" \
        "$work/report_best.json")
    if [ "$crc_scalar" != "$crc_best" ]; then
        echo "FAIL: serve scores_crc differs: IST_SIMD=scalar $crc_scalar vs detected $crc_best" >&2
        exit 1
    fi
    echo "serve scores_crc identical under IST_SIMD=scalar and the detected level ($crc_best)"

    # Env hygiene: a malformed IST_SIMD warns exactly once, falls back to
    # the detected level, and changes nothing.
    local glog warns
    mktemp_tracked glog
    IST_SIMD=garbage IST_THREADS=1 \
        cargo run --release --locked --example quickstart 2>"$glog" >/dev/null
    warns=$(grep -c 'malformed IST_SIMD' "$glog" || true)
    if [ "$warns" -ne 1 ]; then
        echo "FAIL: expected exactly one malformed-IST_SIMD warning, saw $warns" >&2
        grep 'IST_SIMD' "$glog" >&2 || true
        exit 1
    fi
    if ! diff <(grep '^epoch' "$glog") <(grep '^epoch' "$b1") >/dev/null; then
        echo "FAIL: IST_SIMD=garbage changed the losses (must fall back to detected)" >&2
        exit 1
    fi
    echo "malformed IST_SIMD warned exactly once and fell back to the detected level"
}

run_faults() {
    stage "fault-injection gate: quickstart survives injected faults"
    # Inject a NaN loss mid-training plus two sabotaged checkpoint writes;
    # the run must still finish with finite losses, log its recoveries,
    # and leave at least one valid checkpoint behind (see DESIGN.md §7).
    local log ckpt
    mktemp_tracked log; mktempd_tracked ckpt
    IST_FAULTS='loss_nan@e1s3,torn_write@ckpt2,bitflip@ckpt1' IST_CKPT_DIR="$ckpt" \
        cargo run --release --locked --example quickstart >"$log" 2>&1
    if ! grep -q '^epoch' "$log"; then
        echo "FAIL: no per-epoch losses in output" >&2
        exit 1
    fi
    if grep '^epoch' "$log" | grep -qiE 'nan|inf'; then
        echo "FAIL: non-finite epoch loss under fault injection" >&2
        grep '^epoch' "$log" >&2
        exit 1
    fi
    if ! grep -q '^recovery:' "$log"; then
        echo "FAIL: recovery log is empty — injected faults went unhandled" >&2
        exit 1
    fi
    if ! ls "$ckpt"/ckpt-*.ist >/dev/null 2>&1; then
        echo "FAIL: no checkpoint files written" >&2
        exit 1
    fi
    echo "fault injection survived; recovery log:"
    grep '^recovery:' "$log" | sort -u
}

run_metrics() {
    stage "observability gate: IST_METRICS=json emits valid, complete telemetry"
    # Run the quickstart with JSON telemetry into a file (checkpoints on so
    # ckpt.write spans appear), then validate every line is a JSON object
    # carrying the schema keys, and that the required probes all reported.
    local metrics ckpt t1 t4
    mktemp_tracked metrics; mktempd_tracked ckpt
    mktemp_tracked t1; mktemp_tracked t4
    IST_METRICS=json IST_METRICS_OUT="$metrics" IST_CKPT_DIR="$ckpt" \
        cargo run --release --locked --example quickstart >/dev/null 2>&1
    python3 - "$metrics" <<'EOF'
import json, sys

required = {"tensor.gemm", "train.epoch", "ckpt.write", "eval.protocol"}
seen = set()
# Span events carry no "count"; the flushed aggregate of the same name does,
# and it must count exactly the events emitted.
events, aggregates = {}, {}
with open(sys.argv[1]) as f:
    lines = [l for l in f if l.strip()]
if not lines:
    sys.exit("FAIL: metrics file is empty")
for i, line in enumerate(lines, 1):
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        sys.exit(f"FAIL: line {i} is not valid JSON ({e}): {line!r}")
    if "span" in obj:
        if "elapsed_us" not in obj:
            sys.exit(f"FAIL: span line {i} lacks elapsed_us: {line!r}")
        seen.add(obj["span"])
        if "count" in obj:
            aggregates[obj["span"]] = obj["count"]
        else:
            events[obj["span"]] = events.get(obj["span"], 0) + 1
    elif "counter" in obj:
        if "value" not in obj:
            sys.exit(f"FAIL: counter line {i} lacks value: {line!r}")
    elif "histogram" in obj:
        if not {"count", "p50", "p95", "p99"} <= obj.keys():
            sys.exit(f"FAIL: histogram line {i} lacks quantiles: {line!r}")
    else:
        sys.exit(f"FAIL: line {i} is not a span/counter/histogram: {line!r}")
missing = required - seen
if missing:
    sys.exit(f"FAIL: no telemetry from probes: {sorted(missing)}")
for span in ("train.epoch", "ckpt.write", "eval.protocol"):
    if span not in aggregates:
        sys.exit(f"FAIL: no aggregate line with a count for span {span}")
    if aggregates[span] != events.get(span, 0):
        sys.exit(f"FAIL: {span} aggregate counts {aggregates[span]} "
                 f"but {events.get(span, 0)} events were emitted")
print(f"validated {len(lines)} telemetry lines; spans cover {sorted(required)}; "
      f"span aggregates match their event counts")
EOF
    # Telemetry on must not break the determinism guarantee either.
    IST_METRICS=json IST_METRICS_OUT=/dev/null IST_THREADS=1 \
        cargo run --release --locked --example quickstart 2>"$t1" >/dev/null
    IST_METRICS=json IST_METRICS_OUT=/dev/null IST_THREADS=4 \
        cargo run --release --locked --example quickstart 2>"$t4" >/dev/null
    if ! diff <(grep '^epoch' "$t1") <(grep '^epoch' "$t4"); then
        echo "FAIL: with IST_METRICS=json, losses differ across IST_THREADS=1 vs 4" >&2
        exit 1
    fi
    echo "losses identical across thread counts with telemetry enabled"
}

run_trace() {
    stage "trace/profiler gate: chrome-trace schema + op attribution + bench_diff"
    # `isrec profile` trains a scaled run with the event ring recording and
    # reports autograd op-attribution coverage. IST_THREADS=4 so pool tasks
    # actually parallelise (single-core runners would otherwise never emit
    # pool.task scopes).
    local trace log
    mktemp_tracked trace; mktemp_tracked log
    IST_THREADS=4 cargo run --release --locked --bin isrec -- \
        profile --trace-out "$trace" | tee "$log"
    python3 - "$trace" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    events = json.load(f)
if not isinstance(events, list) or not events:
    sys.exit("FAIL: trace is not a non-empty JSON array")
stacks, names, pids, last_ts = {}, set(), set(), None
begins = ends = 0
for ev in events:
    ph = ev["ph"]
    pids.add(ev["pid"])
    if ph == "M":
        continue
    if ph == "X":
        # Complete events (slow-request exemplars) carry their own dur and
        # sit on a dedicated track — exempt from B/E ordering and stacks.
        if "dur" not in ev:
            sys.exit(f"FAIL: X event without dur: {ev}")
        continue
    ts = ev["ts"]
    if last_ts is not None and ts < last_ts:
        sys.exit(f"FAIL: events out of timestamp order at ts={ts}")
    last_ts = ts
    if ph == "B":
        begins += 1
        names.add(ev["name"])
        stacks.setdefault(ev["tid"], []).append(ev["name"])
    elif ph == "E":
        ends += 1
        stack = stacks.get(ev["tid"]) or sys.exit(f"FAIL: E without B on tid {ev['tid']}")
        if stack.pop() != ev["name"]:
            sys.exit(f"FAIL: mismatched B/E pair on tid {ev['tid']}")
    elif ph != "I":
        sys.exit(f"FAIL: unexpected phase {ph!r}")
if begins != ends or any(stacks.values()):
    sys.exit(f"FAIL: unbalanced B/E events ({begins} vs {ends})")
if len(pids) != 1:
    sys.exit(f"FAIL: inconsistent pids {sorted(pids)}")
required = {"pool.task", "nn.attention", "autograd.backward", "train.epoch"}
missing = required - names
if missing:
    sys.exit(f"FAIL: stages missing from timeline: {sorted(missing)}")
print(f"validated {len(events)} trace events; stages cover {sorted(required)}")
EOF
    # The profiler must attribute ≥95% of measured forward+backward time
    # to named autograd ops (ISSUE acceptance bar).
    python3 - "$log" <<'EOF'
import re, sys

text = open(sys.argv[1]).read()
m = re.search(r"autograd op attribution: ([0-9.]+)%", text)
if not m:
    sys.exit("FAIL: profile run printed no attribution coverage")
cov = float(m.group(1))
if cov < 95.0:
    sys.exit(f"FAIL: op attribution {cov}% is below the 95% bar")
print(f"op attribution coverage {cov}% >= 95%")
EOF
    # Bench regression check: warn-only here (shared-runner throughput is
    # too noisy to gate merges on), hard-fail when run by hand via
    # `cargo run --release -p ist-bench --bin bench_diff`.
    if ! cargo run --release --locked -p ist-bench --bin bench_diff; then
        echo "WARN: bench_diff reported a GEMM throughput regression (soft gate)" >&2
    fi
}

run_serve() {
    stage "serving gate: batched inference, live scrape soak, access log, bitwise invariance"
    # Train a small checkpoint, replay a synthetic 2000-request stream
    # through `isrec serve` as a *live soak*: the scrape endpoint
    # (IST_METRICS_ADDR) is polled while requests flow, the structured
    # access log records every request, and the JSON report (v5: latency +
    # SLO + exemplars) is validated. Then re-serve the same stream under
    # IST_SERVE_BATCH=1 vs 32 and IST_THREADS=1/2/4 — the result
    # fingerprint must be bitwise identical in all of them
    # (batching/parallelism/observability must never change scores). This
    # world's catalog is too small for matmul's column split; the
    # `ist-serve` test `wide_catalog` gates that path end to end.
    local work
    mktempd_tracked work
    cargo run --release --locked --bin isrec -- \
        generate --world beauty --scale 0.25 --seed 42 --out "$work/data" >/dev/null
    cargo run --release --locked --bin isrec -- \
        train --data "$work/data" --snapshot "$work/model.bin" \
        --checkpoint-dir "$work/ckpts" --epochs 2 --max-len 20 >/dev/null
    # Build first so the background soak doesn't race a cold compile.
    cargo build --release --locked --bin isrec >/dev/null
    # The soak: port 0 picks a free port (printed to stderr); --linger-ms
    # keeps the endpoint up after the report so the scraper's final pass
    # can never lose the race. The process exits on its own — no kill, so
    # the telemetry flush (--metrics-out) always runs.
    IST_METRICS_ADDR=127.0.0.1:0 ./target/release/isrec \
        serve --data "$work/data" --checkpoint-dir "$work/ckpts" \
        --synthetic 2000 --report "$work/report_main.json" \
        --metrics-out "$work/metrics.jsonl" \
        --access-log "$work/access.jsonl" --linger-ms 10000 \
        >"$work/soak.out" 2>"$work/soak.err" &
    local soak_pid=$!
    if ! python3 - "$work/soak.err" "$work/report_main.json" "$work/final_scrape.txt" <<'EOF'
import json, re, sys, time, urllib.request

err_path, report_path, scrape_out = sys.argv[1:4]

def fail(msg):
    sys.exit(f"FAIL: {msg}")

def wait_for(what, predicate, timeout_s):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        got = predicate()
        if got is not None:
            return got
        time.sleep(0.2)
    fail(f"timed out waiting for {what}")

def bound_addr():
    try:
        text = open(err_path).read()
    except OSError:
        return None
    m = re.search(r"metrics endpoint listening on (http://\S+)", text)
    return m.group(1) if m else None

base = wait_for("the soak to print its bound address", bound_addr, 120)

def get(path):
    with urllib.request.urlopen(base + path, timeout=5) as resp:
        return resp.status, resp.read().decode()

def check_exposition(body):
    """Prometheus text exposition: comments or `name[{labels}] value`."""
    for line in body.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            if not line.startswith("# TYPE "):
                fail(f"unknown comment line: {line!r}")
            continue
        name, _, value = line.rpartition(" ")
        bare = name.split("{")[0]
        if not re.fullmatch(r"[A-Za-z_:][A-Za-z0-9_:]*", bare):
            fail(f"bad metric name in: {line!r}")
        float(value)

def sample(body, metric):
    for line in body.splitlines():
        if line.split(" ")[0] == metric:
            return float(line.rsplit(" ", 1)[1])
    return None

# Poll /metrics while the soak serves: every scrape must be valid
# exposition and serve_requests_total must climb monotonically to exactly
# the driver's 2000 requests.
last = 0.0
def requests_done():
    global last
    status, body = get("/metrics")
    if status != 200:
        fail(f"/metrics answered {status}")
    check_exposition(body)
    n = sample(body, "serve_requests_total")
    if n is None:
        return None
    if n < last:
        fail(f"serve_requests_total went backwards: {n} < {last}")
    last = n
    if n > 2000:
        fail(f"serve_requests_total overshot the driver: {n}")
    return body if n == 2000 else None

final = wait_for("serve_requests_total to reach 2000", requests_done, 300)
with open(scrape_out, "w") as f:
    f.write(final)
for family in ("serve_request_us_bucket", "serve_slo_p99_us", "serve_queue_depth",
               "serve_batch_size_count"):
    if family not in final:
        fail(f"final scrape lacks {family}:\n{final}")
# Per-op encoder time while serving: the autograd profiler's rows.
if not re.search(r"^autograd_op_\w+_calls_total ", final, re.M):
    fail(f"final scrape lacks an autograd_op family:\n{final}")

# The engine is healthy: /healthz answers 200 and reports non-degraded
# with a live SLO block.
status, body = get("/healthz")
if status != 200:
    fail(f"/healthz answered {status}: {body}")
health = json.loads(body)
eng = health.get("engine") or fail(f"/healthz has no engine block: {body}")
if eng["degraded"]:
    fail(f"engine degraded after a fault-free soak: {body}")
if eng["slo"]["total_observed"] != 2000:
    fail(f"SLO monitor missed requests: {eng['slo']}")

wait_for("the serve report to be written",
         lambda: True if __import__("os").path.exists(report_path) else None, 60)
print(f"live soak ok: scraped {base}, serve_requests_total reached 2000, engine healthy")
EOF
    then
        kill "$soak_pid" 2>/dev/null || true
        wait "$soak_pid" 2>/dev/null || true
        echo "FAIL: live-soak scrape validation failed; soak stderr:" >&2
        tail -20 "$work/soak.err" >&2 || true
        exit 1
    fi
    wait "$soak_pid"
    cat "$work/soak.out"
    python3 - "$work/report_main.json" <<'EOF'
import json, math, sys

r = json.load(open(sys.argv[1]))
if r.get("schema") != "isrec.serve_report.v5":
    sys.exit(f"FAIL: unexpected report schema {r.get('schema')!r}")
slo = r["slo"]
if not slo["active"]:
    sys.exit("FAIL: SLO monitor inactive despite access log + endpoint")
if slo["total_observed"] != r["requests"]:
    sys.exit(f"FAIL: SLO observed {slo['total_observed']} of {r['requests']} requests")
if slo["p99_us"] <= 0:
    sys.exit(f"FAIL: SLO p99 not positive: {slo}")
if slo["error_pct"] != 0 or slo["error_burn"] != 0:
    sys.exit(f"FAIL: fault-free soak burned error budget: {slo}")
exs = r["exemplars"]
if not exs or len(exs) > 8:
    sys.exit(f"FAIL: exemplar reservoir has {len(exs)} entries")
for ex in exs:
    if ex["total_us"] <= 0 or "score_us" not in ex or "queue_us" not in ex:
        sys.exit(f"FAIL: malformed exemplar: {ex}")
if any(exs[i]["total_us"] < exs[i + 1]["total_us"] for i in range(len(exs) - 1)):
    sys.exit("FAIL: exemplars not sorted slowest-first")
p99 = r["latency_us"]["p99"]
if not (isinstance(p99, (int, float)) and math.isfinite(p99) and p99 > 0):
    sys.exit(f"FAIL: p99 latency is not a positive finite number: {p99!r}")
if r["batch"]["avg"] <= 1.0:
    sys.exit(f"FAIL: average batch size {r['batch']['avg']} — micro-batcher never coalesced")
if r["cache"]["hit_rate"] <= 0.0:
    sys.exit("FAIL: zero cache hit rate on a repeated-user stream")
if r["requests"] != 2000:
    sys.exit(f"FAIL: expected 2000 requests, saw {r['requests']}")
# Fault-free, the resilience layer must be invisible: everything answered,
# nothing shed/timed out/degraded, zero panics.
res = r["resilience"]
if res["answered"] != r["requests"] or res["failed"] != 0 or res["errors"]:
    sys.exit(f"FAIL: fault-free run reported failures: {res}")
if any(res[k] != 0 for k in ("shed", "timed_out", "scorer_panics", "respawns", "degraded_answers")):
    sys.exit(f"FAIL: fault-free run tripped resilience counters: {res}")
if res["degraded"]:
    sys.exit("FAIL: fault-free run ended degraded")
print(f"report ok: p99={p99}us avg_batch={r['batch']['avg']} hit_rate={r['cache']['hit_rate']}")
EOF
    python3 - "$work/access.jsonl" <<'EOF'
import json, sys

stages = ("queue_us", "batch_us", "cache_us", "encode_us", "score_us", "merge_us", "reply_us")
seen = set()
lines = [l for l in open(sys.argv[1]) if l.strip()]
if len(lines) != 2000:
    sys.exit(f"FAIL: access log has {len(lines)} lines for 2000 requests")
for i, line in enumerate(lines, 1):
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as e:
        sys.exit(f"FAIL: access-log line {i} is not valid JSON ({e}): {line!r}")
    missing = ({"req", "outcome", "total_us", "batch", "cache_hit"}
               | set(stages)) - rec.keys()
    if missing:
        sys.exit(f"FAIL: access-log line {i} lacks {sorted(missing)}: {line!r}")
    if rec["req"] in seen:
        sys.exit(f"FAIL: duplicate trace id {rec['req']}")
    seen.add(rec["req"])
    if rec["outcome"] != "ok":
        sys.exit(f"FAIL: fault-free soak logged outcome {rec['outcome']!r}: {line!r}")
    if sum(rec[s] for s in stages) > rec["total_us"]:
        sys.exit(f"FAIL: stage breakdown exceeds total latency: {line!r}")
    if rec["batch"] < 1:
        sys.exit(f"FAIL: answered request without batch info: {line!r}")
hits = sum(json.loads(l)["cache_hit"] for l in lines)
if hits == 0:
    sys.exit("FAIL: access log saw zero cache hits on a repeated-user stream")
print(f"access log ok: 2000 unique traced requests, stage sums consistent, {hits} cache hits")
EOF
    python3 - "$work/metrics.jsonl" <<'EOF'
import json, sys

spans, hists = set(), set()
for line in open(sys.argv[1]):
    if not line.strip():
        continue
    obj = json.loads(line)
    spans.add(obj.get("span"))
    hists.add(obj.get("histogram"))
missing = {"serve.request", "serve.batch"} - spans
if missing:
    sys.exit(f"FAIL: serve spans missing from telemetry: {sorted(missing)}")
if "serve.request_us" not in hists:
    sys.exit("FAIL: no serve.request_us latency histogram in telemetry")
print("serve telemetry ok: spans + latency histogram present")
EOF
    local variant crc crcs=()
    for variant in "IST_SERVE_BATCH=1" "IST_SERVE_BATCH=32" \
                   "IST_THREADS=1" "IST_THREADS=2" "IST_THREADS=4"; do
        env "$variant" cargo run --release --locked --bin isrec -- \
            serve --data "$work/data" --checkpoint-dir "$work/ckpts" \
            --synthetic 500 --report "$work/report_variant.json" >/dev/null
        crc=$(python3 -c "import json,sys; print(json.load(open(sys.argv[1]))['scores_crc'])" \
            "$work/report_variant.json")
        echo "  $variant → scores_crc $crc"
        crcs+=("$crc")
    done
    if [ "$(printf '%s\n' "${crcs[@]}" | sort -u | wc -l)" -ne 1 ]; then
        echo "FAIL: scores are not bitwise identical across batch/thread configs" >&2
        exit 1
    fi
    echo "scores bitwise identical across IST_SERVE_BATCH=1/32, IST_THREADS=1/2/4"
}

run_chaos() {
    stage "serving chaos gate: typed responses under injected faults + bitwise fault-free rerun"
    # Train once, then serve the same synthetic stream three times:
    #   1. fault-free baseline → record scores_crc, resilience all-zero;
    #   2. chaos soak under IST_SERVE_FAULTS (slow batch, scorer panics,
    #      corrupt respawn reload) on a 4-worker pool (IST_THREADS=4) and
    #      a per-request deadline — every
    #      request must end in a typed response before its deadline and the
    #      engine must recover (no lingering degraded mode, no deadlock);
    #      `isrec serve` itself fails the run if the engine's requests /
    #      shed / timed_out counters differ from the callers' outcomes;
    #   3. fault-free rerun → scores_crc bitwise identical to the baseline
    #      (the resilience layer must be invisible when nothing fails).
    local work
    mktempd_tracked work
    cargo run --release --locked --bin isrec -- \
        generate --world beauty --scale 0.25 --seed 42 --out "$work/data" >/dev/null
    cargo run --release --locked --bin isrec -- \
        train --data "$work/data" --snapshot "$work/model.bin" --epochs 2 --max-len 20 >/dev/null

    cargo run --release --locked --bin isrec -- \
        serve --data "$work/data" --snapshot "$work/model.bin" \
        --synthetic 600 --report "$work/report_baseline.json" >/dev/null
    IST_SERVE_FAULTS='slow@batch2:100,panic@batch4,corrupt_reload@2,panic@batch9' \
        IST_THREADS=4 \
        cargo run --release --locked --bin isrec -- \
        serve --data "$work/data" --snapshot "$work/model.bin" \
        --synthetic 600 --deadline-ms 2000 --allow-errors 1 \
        --report "$work/report_chaos.json"
    cargo run --release --locked --bin isrec -- \
        serve --data "$work/data" --snapshot "$work/model.bin" \
        --synthetic 600 --report "$work/report_rerun.json" >/dev/null

    python3 - "$work/report_baseline.json" "$work/report_chaos.json" "$work/report_rerun.json" <<'EOF'
import json, sys

base, chaos, rerun = (json.load(open(p)) for p in sys.argv[1:4])
for name, r in (("baseline", base), ("chaos", chaos), ("rerun", rerun)):
    if r.get("schema") != "isrec.serve_report.v5":
        sys.exit(f"FAIL: {name}: unexpected report schema {r.get('schema')!r}")

# Chaos soak: every request accounted for with a typed outcome.
res = chaos["resilience"]
if res["answered"] + res["failed"] != chaos["requests"]:
    sys.exit(f"FAIL: chaos run lost requests: {res} of {chaos['requests']}")
if sum(res["errors"].values()) != res["failed"]:
    sys.exit(f"FAIL: failed/errors mismatch: {res}")
allowed = {"invalid", "deadline", "shed", "panic", "internal", "shutdown"}
stray = set(res["errors"]) - allowed
if stray:
    sys.exit(f"FAIL: untyped error kinds {sorted(stray)}")
if res["scorer_panics"] < 1 or res["respawns"] < 1:
    sys.exit(f"FAIL: injected panics did not register: {res}")
if res["degraded"]:
    sys.exit(f"FAIL: engine still degraded after the chaos run: {res}")
# Deadline honored: no request (even poisoned/stalled ones) blocked past
# its 2000ms budget plus scheduling slack.
if chaos["latency_us"]["max"] > 4_000_000:
    sys.exit(f"FAIL: a request blocked {chaos['latency_us']['max']}us past its deadline")

# Fault-free runs: resilience invisible, scores bitwise identical.
for name, r in (("baseline", base), ("rerun", rerun)):
    res = r["resilience"]
    if res["failed"] != 0 or res["errors"] or res["degraded"]:
        sys.exit(f"FAIL: fault-free {name} run reported failures: {res}")
if base["scores_crc"] != rerun["scores_crc"]:
    sys.exit(
        f"FAIL: fault-free rerun CRC {rerun['scores_crc']} != baseline {base['scores_crc']} "
        "— the resilience layer changed scores"
    )
print(
    f"chaos ok: {chaos['resilience']['answered']}/{chaos['requests']} answered, "
    f"errors {chaos['resilience']['errors']}, "
    f"panics {chaos['resilience']['scorer_panics']}, respawns {chaos['resilience']['respawns']}; "
    f"fault-free CRC identical ({base['scores_crc']})"
)
EOF
}

case "${1:-all}" in
    gate)        run_gate ;;
    workspace)   run_workspace ;;
    fmt)         run_fmt ;;
    clippy)      run_clippy ;;
    bench)       run_bench ;;
    determinism) run_determinism ;;
    simd)        run_simd ;;
    faults)      run_faults ;;
    metrics)     run_metrics ;;
    trace)       run_trace ;;
    serve)       run_serve ;;
    chaos)       run_chaos ;;
    all)
        run_gate
        run_workspace
        run_fmt
        run_clippy
        run_bench
        run_determinism
        run_simd
        run_faults
        run_metrics
        run_trace
        run_serve
        run_chaos
        printf '\nci.sh: all stages passed\n'
        ;;
    *)
        echo "usage: $0 [all|gate|workspace|fmt|clippy|bench|determinism|simd|faults|metrics|trace|serve|chaos]" >&2
        exit 2
        ;;
esac
