//! The scenario checks CI runs on the files a run leaves behind, one kind
//! per check: [`validate`] reads the files, checks their format with the
//! parent module's checkers, then asserts what the scenario must show
//! (required probes, request counts, bars).

use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use super::{access_log, chrome_trace, exposition, metrics_lines, sample, Json};
use super::{Field, Health, ServeReport, Show, ERROR_KINDS};
use crate::export;

/// Requests the serve gate's soak sends; the report, the access log and
/// the live scrape must all account for exactly this many.
pub const SERVE_REQUESTS: u64 = 2000;

/// Probes a telemetry-on quickstart must report; all but the first are
/// spans whose aggregate must exist and count exactly their events.
const METRICS_PROBES: [&str; 4] = ["tensor.gemm", "train.epoch", "ckpt.write", "eval.protocol"];

/// Stages a profiled training run's timeline must show.
const TRACE_STAGES: [&str; 4] = [
    "pool.task",
    "nn.attention",
    "autograd.backward",
    "train.epoch",
];

/// The share of forward+backward time the profiler must attribute to
/// named autograd ops, in percent.
const MIN_ATTRIBUTION_PCT: f64 = 95.0;

/// Exemplars a report may hold at most.
const MAX_EXEMPLARS: usize = 8;

/// Families the soak's final scrape must carry.
const SCRAPE_FAMILIES: [&str; 4] = [
    "serve_request_us_bucket",
    "serve_slo_p99_us",
    "serve_queue_depth",
    "serve_batch_size_count",
];

/// The longest a chaos request may take: its 2 000 ms deadline plus
/// scheduling slack.
const CHAOS_MAX_LATENCY_US: u64 = 4_000_000;

/// Waits of the live soak, in seconds: for the bound address, for the
/// scrape to reach [`SERVE_REQUESTS`], and for the report.
const SOAK_WAITS_S: [u64; 3] = [120, 300, 60];

const USAGE: &str = "usage: isrec validate <kind> <file>…, kinds: \
     metrics <metrics.jsonl> | trace <trace.json> | attribution <profile.log> | \
     soak <serve.stderr> <report.json> <final-scrape-out> | serve-report <report.json> | \
     soak-report <report.json> | access-log <access.jsonl> | serve-metrics <metrics.jsonl> | \
     chaos <baseline.json> <chaos.json> <rerun.json> | crc <report.json> <report.json>…";

/// Runs check `kind` over `files`; `Ok` holds a one-line summary.
pub fn validate(kind: &str, files: &[String]) -> Result<String, String> {
    let read =
        |path: &String| std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"));
    let report =
        |path: &String| ServeReport::parse(&read(path)?).map_err(|e| format!("{path}: {e}"));
    match (kind, files) {
        ("metrics", [f]) => metrics(&read(f)?),
        ("trace", [f]) => trace(&read(f)?),
        ("attribution", [f]) => attribution(&read(f)?),
        ("soak", [err, report, scrape_out]) => soak(err, report, scrape_out),
        ("serve-report", [f]) => serve_report(&report(f)?),
        ("soak-report", [f]) => soak_report(&report(f)?),
        ("access-log", [f]) => access(&read(f)?),
        ("serve-metrics", [f]) => serve_metrics(&read(f)?),
        ("chaos", [base, run, rerun]) => chaos(&report(base)?, &report(run)?, &report(rerun)?),
        ("crc", [first, rest @ ..]) if !rest.is_empty() => {
            let want = report(first)?.scores_crc;
            for f in rest {
                let crc = report(f)?.scores_crc;
                ensure!(
                    crc == want,
                    "scores_crc differs: {first} has {want}, {f} has {crc}"
                );
            }
            Ok(format!(
                "scores_crc {want} identical across {} reports",
                files.len()
            ))
        }
        _ => Err(USAGE.into()),
    }
}

fn metrics(text: &str) -> Result<String, String> {
    let m = metrics_lines(text)?;
    let missing: Vec<_> = METRICS_PROBES.iter().filter(|p| !m.has_span(p)).collect();
    ensure!(missing.is_empty(), "no telemetry from probes: {missing:?}");
    for span in &METRICS_PROBES[1..] {
        let events = m.events.get(*span).copied().unwrap_or(0);
        let Some(&count) = m.aggregates.get(*span) else {
            return Err(format!("no aggregate line with a count for span {span}"));
        };
        ensure!(
            count == events,
            "{span} aggregate counts {count} but {events} events were emitted"
        );
    }
    Ok(format!(
        "validated {} telemetry lines; spans cover {METRICS_PROBES:?}; \
         span aggregates match their event counts",
        m.lines
    ))
}

fn trace(text: &str) -> Result<String, String> {
    let t = chrome_trace(text)?;
    let missing: Vec<_> = TRACE_STAGES
        .iter()
        .filter(|s| !t.names.contains(**s))
        .collect();
    ensure!(
        missing.is_empty(),
        "stages missing from timeline: {missing:?}"
    );
    Ok(format!(
        "validated {} trace events; stages cover {TRACE_STAGES:?}",
        t.events
    ))
}

fn attribution(log: &str) -> Result<String, String> {
    const KEY: &str = "autograd op attribution: ";
    let pct: f64 = log
        .find(KEY)
        .and_then(|at| log[at + KEY.len()..].split_once('%'))
        .filter(|(num, _)| num.bytes().all(|b| b.is_ascii_digit() || b == b'.'))
        .and_then(|(num, _)| num.parse().ok())
        .ok_or("profile run printed no attribution coverage")?;
    ensure!(
        pct >= MIN_ATTRIBUTION_PCT,
        "op attribution {pct}% is below the {MIN_ATTRIBUTION_PCT}% bar"
    );
    Ok(format!(
        "op attribution coverage {pct}% >= {MIN_ATTRIBUTION_PCT}%"
    ))
}

/// One poll of the live soak's `/metrics`: the body must be valid
/// exposition, and `serve_requests_total` may neither fall below `last`
/// (the previous poll's value) nor exceed [`SERVE_REQUESTS`]. Returns the
/// counter, `None` while the body lacks it.
pub fn soak_step(body: &str, last: f64) -> Result<Option<f64>, String> {
    exposition(body)?;
    let Some(n) = sample(body, "serve_requests_total") else {
        return Ok(None);
    };
    ensure!(
        n >= last,
        "serve_requests_total went backwards: {n} < {last}"
    );
    ensure!(
        n <= SERVE_REQUESTS as f64,
        "serve_requests_total overshot the {SERVE_REQUESTS} requests sent: {n}"
    );
    Ok(Some(n))
}

/// The soak's final scrape carries the serving families and at least one
/// autograd per-op family (the encoder's time while serving).
pub fn soak_final(body: &str) -> Result<(), String> {
    if let Some(family) = SCRAPE_FAMILIES.iter().find(|f| !body.contains(**f)) {
        return Err(format!("final scrape lacks {family}:\n{body}"));
    }
    let autograd_op = body.lines().any(|l| {
        let (name, _) = l.split_once(' ').unwrap_or((l, ""));
        let op = name
            .strip_prefix("autograd_op_")
            .and_then(|n| n.strip_suffix("_calls_total"));
        name.len() < l.len()
            && op.is_some_and(|op| {
                !op.is_empty() && op.chars().all(|c| c.is_alphanumeric() || c == '_')
            })
    });
    ensure!(
        autograd_op,
        "final scrape lacks an autograd_op family:\n{body}"
    );
    Ok(())
}

/// The soak's `/healthz` answer: 200, an engine block that is not
/// degraded, and an SLO monitor that saw every request.
pub fn soak_health(status: u16, body: &str) -> Result<(), String> {
    ensure!(status == 200, "/healthz answered {status}: {body}");
    let health = Json::parse(body).and_then(|doc| Health::read(&doc, ""));
    let health = health.map_err(|e| format!("/healthz body ({e}): {body}"))?;
    ensure!(
        !health.engine.degraded,
        "engine degraded after a fault-free soak: {body}"
    );
    ensure!(
        health.engine.slo.total_observed == SERVE_REQUESTS,
        "SLO monitor missed requests: {body}"
    );
    Ok(())
}

/// Polls `poll` every 200 ms until it yields a value, for at most `secs`.
fn wait_for<T>(
    what: &str,
    secs: u64,
    mut poll: impl FnMut() -> Result<Option<T>, String>,
) -> Result<T, String> {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while Instant::now() < deadline {
        if let Some(v) = poll()? {
            return Ok(v);
        }
        std::thread::sleep(Duration::from_millis(200));
    }
    Err(format!("timed out waiting for {what}"))
}

/// The live soak: reads the endpoint's address from the serving process's
/// stderr, polls `/metrics` with [`soak_step`] until every request is
/// counted, saves that final scrape to `scrape_out` and checks it with
/// [`soak_final`], checks `/healthz` with [`soak_health`], then waits for
/// the report file.
fn soak(err_path: &str, report_path: &str, scrape_out: &str) -> Result<String, String> {
    const PREFIX: &str = "metrics endpoint listening on http://";
    let [addr_s, scrape_s, report_s] = SOAK_WAITS_S;
    let addr: SocketAddr = wait_for("the soak to print its bound address", addr_s, || {
        let text = std::fs::read_to_string(err_path).unwrap_or_default();
        let Some(at) = text.find(PREFIX) else {
            return Ok(None);
        };
        let addr = text[at + PREFIX.len()..]
            .split_whitespace()
            .next()
            .unwrap_or("");
        addr.parse()
            .map(Some)
            .map_err(|e| format!("bad bound address {addr:?}: {e}"))
    })?;
    let mut last = 0.0;
    let body = wait_for(
        &format!("serve_requests_total to reach {SERVE_REQUESTS}"),
        scrape_s,
        || {
            let (status, body) = export::get(addr, "/metrics")?;
            ensure!(status == 200, "/metrics answered {status}");
            Ok(soak_step(&body, last)?.and_then(|n| {
                last = n;
                (n == SERVE_REQUESTS as f64).then_some(body)
            }))
        },
    )?;
    std::fs::write(scrape_out, &body).map_err(|e| format!("write {scrape_out}: {e}"))?;
    soak_final(&body)?;
    let (status, health) = export::get(addr, "/healthz")?;
    soak_health(status, &health)?;
    wait_for("the serve report to be written", report_s, || {
        Ok(Path::new(report_path).exists().then_some(()))
    })?;
    Ok(format!(
        "live soak ok: scraped http://{addr}, serve_requests_total reached {SERVE_REQUESTS}, engine healthy"
    ))
}

/// The field grammar every report meets, from a faulted run or not:
/// latency quantiles in order, at most [`MAX_EXEMPLARS`] exemplars,
/// slowest first, a cache hit rate within [0, 1], every error kind typed
/// and the error counts summing to `failed`.
fn serve_report(r: &ServeReport) -> Result<String, String> {
    let l = &r.latency_us;
    ensure!(
        l.p50 <= l.p95 && l.p95 <= l.p99 && l.p99 <= l.max,
        "latency quantiles out of order: {}",
        Show(l)
    );
    let totals: Vec<u64> = r.exemplars.iter().map(|ex| ex.total_us).collect();
    ensure!(
        totals.len() <= MAX_EXEMPLARS,
        "exemplar reservoir has {} entries",
        totals.len()
    );
    ensure!(
        totals.windows(2).all(|w| w[0] >= w[1]),
        "exemplars not sorted slowest-first: {totals:?}"
    );
    let hit_rate = r.cache.hit_rate;
    ensure!(
        (0.0..=1.0).contains(&hit_rate),
        "cache hit rate {hit_rate} outside [0, 1]"
    );
    let res = &r.resilience;
    if let Some(kind) = res
        .errors
        .keys()
        .find(|k| !ERROR_KINDS.contains(&k.as_str()))
    {
        return Err(format!("untyped error kind {kind:?}"));
    }
    let typed: u64 = res.errors.values().sum();
    ensure!(typed == res.failed, "failed/errors mismatch: {res:?}");
    Ok(format!(
        "report well-formed: {} requests, {} answered, {} failed",
        r.requests, res.answered, res.failed
    ))
}

/// The fault-free soak's report, on top of [`serve_report`]'s grammar:
/// SLO monitor live and unburnt, 1 to [`MAX_EXEMPLARS`] exemplars, the
/// batcher coalescing, the cache hitting, every request answered and
/// every fault counter 0.
fn soak_report(r: &ServeReport) -> Result<String, String> {
    serve_report(r)?;
    let (requests, slo) = (r.requests, &r.slo);
    ensure!(
        slo.active,
        "SLO monitor inactive despite access log + endpoint"
    );
    ensure!(
        slo.total_observed == requests,
        "SLO observed {} of {requests} requests",
        slo.total_observed
    );
    let slo_json = Show(slo);
    ensure!(slo.p99_us > 0, "SLO p99 not positive: {slo_json}");
    let burnt = slo.error_pct != 0.0 || slo.error_burn != 0.0;
    ensure!(!burnt, "fault-free soak burned error budget: {slo_json}");
    let totals: Vec<u64> = r.exemplars.iter().map(|ex| ex.total_us).collect();
    ensure!(!totals.is_empty(), "exemplar reservoir has 0 entries");
    ensure!(
        totals.iter().all(|&t| t > 0),
        "malformed exemplar total_us: {totals:?}"
    );
    let (p99, avg_batch, hit_rate) = (r.latency_us.p99, r.batch.avg, r.cache.hit_rate);
    ensure!(p99 > 0, "p99 latency is not positive: {p99}");
    ensure!(
        avg_batch > 1.0,
        "average batch size {avg_batch} — micro-batcher never coalesced"
    );
    ensure!(
        hit_rate > 0.0,
        "zero cache hit rate on a repeated-user stream"
    );
    ensure!(
        requests == SERVE_REQUESTS,
        "expected {SERVE_REQUESTS} requests, saw {requests}"
    );
    fault_free("soak", r)?;
    let res = &r.resilience;
    ensure!(
        res.answered == requests,
        "fault-free run reported failures: {res:?}"
    );
    for (counter, n) in [
        ("shed", res.shed),
        ("timed_out", res.timed_out),
        ("scorer_panics", res.scorer_panics),
        ("respawns", res.respawns),
        ("degraded_answers", res.degraded_answers),
    ] {
        ensure!(
            n == 0,
            "fault-free run tripped resilience counter {counter}: {res:?}"
        );
    }
    Ok(format!(
        "report ok: p99={p99}us avg_batch={avg_batch} hit_rate={hit_rate}"
    ))
}

/// A fault-free run failed nothing, logged no error kind and did not end
/// degraded.
fn fault_free(name: &str, r: &ServeReport) -> Result<(), String> {
    let res = &r.resilience;
    let clean = res.failed == 0 && res.errors.is_empty() && !res.degraded;
    ensure!(clean, "fault-free {name} run reported failures: {res:?}");
    Ok(())
}

fn access(text: &str) -> Result<String, String> {
    let lines = text.lines().filter(|l| !l.trim().is_empty()).count();
    ensure!(
        lines as u64 == SERVE_REQUESTS,
        "access log has {lines} lines for {SERVE_REQUESTS} requests"
    );
    let recs = access_log(text)?;
    for r in &recs {
        ensure!(
            r.outcome == "ok",
            "fault-free soak logged outcome {:?} for req {}",
            r.outcome,
            r.req
        );
        ensure!(
            r.batch >= 1,
            "answered request {} without batch info",
            r.req
        );
    }
    let hits = recs.iter().filter(|r| r.cache_hit).count();
    ensure!(
        hits > 0,
        "access log saw zero cache hits on a repeated-user stream"
    );
    Ok(format!(
        "access log ok: {lines} unique traced requests, stage sums consistent, {hits} cache hits"
    ))
}

fn serve_metrics(text: &str) -> Result<String, String> {
    let m = metrics_lines(text)?;
    let missing: Vec<_> = ["serve.request", "serve.batch"]
        .into_iter()
        .filter(|s| !m.has_span(s))
        .collect();
    ensure!(
        missing.is_empty(),
        "serve spans missing from telemetry: {missing:?}"
    );
    ensure!(
        m.histograms.contains("serve.request_us"),
        "no serve.request_us latency histogram in telemetry"
    );
    Ok("serve telemetry ok: spans + latency histogram present".into())
}

/// The chaos gate: every chaos request ends in a typed outcome within its
/// deadline and the engine recovers; the fault-free runs around it fail
/// nothing and score bit for bit alike.
fn chaos(base: &ServeReport, chaos: &ServeReport, rerun: &ServeReport) -> Result<String, String> {
    let (requests, res) = (chaos.requests, &chaos.resilience);
    ensure!(
        res.answered + res.failed == requests,
        "chaos run lost requests: {res:?} of {requests}"
    );
    serve_report(chaos)?;
    ensure!(
        res.scorer_panics >= 1 && res.respawns >= 1,
        "injected panics did not register: {res:?}"
    );
    ensure!(
        !res.degraded,
        "engine still degraded after the chaos run: {res:?}"
    );
    let max = chaos.latency_us.max;
    ensure!(
        max <= CHAOS_MAX_LATENCY_US,
        "a request blocked {max}us past its deadline"
    );
    fault_free("baseline", base)?;
    fault_free("rerun", rerun)?;
    let (b, r) = (base.scores_crc, rerun.scores_crc);
    ensure!(
        b == r,
        "fault-free rerun CRC {r} != baseline {b} — the resilience layer changed scores"
    );
    Ok(format!(
        "chaos ok: {}/{requests} answered, errors {:?}, panics {}, respawns {}; \
         fault-free CRC identical ({b})",
        res.answered, res.errors, res.scorer_panics, res.respawns
    ))
}
