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

# The stages that run `isrec` build it once, then run the binary. Their
# output files are checked by `isrec validate <kind> <file>…`: each format
# and each scenario bar lives in `ist_obs::schema`, one kind per check.
build_isrec() { cargo build --release --locked --bin isrec >/dev/null; }
validate() { ./target/release/isrec validate "$@"; }

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
    build_isrec
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
    local work
    mktempd_tracked work
    ./target/release/isrec \
        generate --world beauty --scale 0.25 --seed 42 --out "$work/data" >/dev/null
    ./target/release/isrec \
        train --data "$work/data" --snapshot "$work/model.bin" --epochs 2 --max-len 20 >/dev/null
    IST_SIMD=scalar ./target/release/isrec \
        serve --data "$work/data" --snapshot "$work/model.bin" \
        --synthetic 500 --report "$work/report_scalar.json" >/dev/null
    ./target/release/isrec \
        serve --data "$work/data" --snapshot "$work/model.bin" \
        --synthetic 500 --report "$work/report_best.json" >/dev/null
    validate crc "$work/report_scalar.json" "$work/report_best.json"

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

    # Likewise a malformed IST_THREADS: one warning, the detected pool size,
    # and the same losses (pool size never changes them).
    IST_THREADS=garbage \
        cargo run --release --locked --example quickstart 2>"$glog" >/dev/null
    warns=$(grep -c 'malformed IST_THREADS' "$glog" || true)
    if [ "$warns" -ne 1 ]; then
        echo "FAIL: expected exactly one malformed-IST_THREADS warning, saw $warns" >&2
        grep 'IST_THREADS' "$glog" >&2 || true
        exit 1
    fi
    if ! diff <(grep '^epoch' "$glog") <(grep '^epoch' "$b1") >/dev/null; then
        echo "FAIL: IST_THREADS=garbage changed the losses (must fall back to detected)" >&2
        exit 1
    fi
    echo "malformed IST_THREADS warned exactly once and fell back to the detected size"
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
    build_isrec
    # Run the quickstart with JSON telemetry into a file (checkpoints on so
    # ckpt.write spans appear), then validate every line is a JSON object
    # carrying the schema keys, and that the required probes all reported.
    local metrics ckpt t1 t4
    mktemp_tracked metrics; mktempd_tracked ckpt
    mktemp_tracked t1; mktemp_tracked t4
    IST_METRICS=json IST_METRICS_OUT="$metrics" IST_CKPT_DIR="$ckpt" \
        cargo run --release --locked --example quickstart >/dev/null 2>&1
    validate metrics "$metrics"
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
    build_isrec
    # `isrec profile` trains a scaled run with the event ring recording and
    # reports autograd op-attribution coverage. IST_THREADS=4 so pool tasks
    # actually parallelise (single-core runners would otherwise never emit
    # pool.task scopes).
    local trace log
    mktemp_tracked trace; mktemp_tracked log
    IST_THREADS=4 ./target/release/isrec \
        profile --trace-out "$trace" | tee "$log"
    validate trace "$trace"
    # The profiler must attribute ≥95% of measured forward+backward time
    # to named autograd ops.
    validate attribution "$log"
    # Bench regression check: warn-only here (shared-runner throughput is
    # too noisy to gate merges on), hard-fail when run by hand via
    # `cargo run --release -p ist-bench --bin bench_diff`.
    if ! cargo run --release --locked -p ist-bench --bin bench_diff; then
        echo "WARN: bench_diff reported a GEMM throughput regression (soft gate)" >&2
    fi
}

run_serve() {
    stage "serving gate: batched inference, live scrape soak, access log, bitwise invariance"
    build_isrec
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
    ./target/release/isrec \
        generate --world beauty --scale 0.25 --seed 42 --out "$work/data" >/dev/null
    ./target/release/isrec \
        train --data "$work/data" --snapshot "$work/model.bin" \
        --checkpoint-dir "$work/ckpts" --epochs 2 --max-len 20 >/dev/null
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
    if ! validate soak "$work/soak.err" "$work/report_main.json" "$work/final_scrape.txt"
    then
        kill "$soak_pid" 2>/dev/null || true
        wait "$soak_pid" 2>/dev/null || true
        echo "FAIL: live-soak scrape validation failed; soak stderr:" >&2
        tail -20 "$work/soak.err" >&2 || true
        exit 1
    fi
    wait "$soak_pid"
    cat "$work/soak.out"
    validate serve-report "$work/report_main.json"
    validate access-log "$work/access.jsonl"
    validate serve-metrics "$work/metrics.jsonl"
    local variant reports=()
    for variant in "IST_SERVE_BATCH=1" "IST_SERVE_BATCH=32" \
                   "IST_THREADS=1" "IST_THREADS=2" "IST_THREADS=4"; do
        env "$variant" ./target/release/isrec \
            serve --data "$work/data" --checkpoint-dir "$work/ckpts" \
            --synthetic 500 --report "$work/report_$variant.json" >/dev/null
        reports+=("$work/report_$variant.json")
    done
    validate crc "${reports[@]}"
}

run_chaos() {
    stage "serving chaos gate: typed responses under injected faults + bitwise fault-free rerun"
    build_isrec
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
    ./target/release/isrec \
        generate --world beauty --scale 0.25 --seed 42 --out "$work/data" >/dev/null
    ./target/release/isrec \
        train --data "$work/data" --snapshot "$work/model.bin" --epochs 2 --max-len 20 >/dev/null

    ./target/release/isrec \
        serve --data "$work/data" --snapshot "$work/model.bin" \
        --synthetic 600 --report "$work/report_baseline.json" >/dev/null
    IST_SERVE_FAULTS='slow@batch2:100,panic@batch4,corrupt_reload@2,panic@batch9' \
        IST_THREADS=4 \
        ./target/release/isrec \
        serve --data "$work/data" --snapshot "$work/model.bin" \
        --synthetic 600 --deadline-ms 2000 --allow-errors 1 \
        --report "$work/report_chaos.json"
    ./target/release/isrec \
        serve --data "$work/data" --snapshot "$work/model.bin" \
        --synthetic 600 --report "$work/report_rerun.json" >/dev/null

    validate chaos "$work/report_baseline.json" "$work/report_chaos.json" "$work/report_rerun.json"
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
