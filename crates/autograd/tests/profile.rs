//! Autograd profiler integration tests: op attribution, window coverage,
//! and the agreement of every obs sink on one snapshot.
//!
//! Profiler and registry state is process-global, so the tests in this
//! binary take `SERIAL` and reset the registry first: tests in one binary
//! run in parallel, and one test's ops would be attributed to the other.

use std::sync::Mutex;

use ist_autograd::{fused, ops, profile, Tape};
use ist_obs::export::sanitize;
use ist_obs::schema::{sample, Json};
use ist_tensor::rng::{randn, SeedRng, SeedRngExt};
use ist_tensor::Tensor;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

#[test]
fn attribution_and_coverage() {
    let _g = serial();
    ist_obs::set_mode(ist_obs::Mode::Summary);
    ist_obs::reset();

    let n = 96;
    let mut rng = SeedRng::seed(7);
    for _ in 0..3 {
        // Draw the inputs before the window opens: sampling is not an op,
        // so time spent on it inside the window would count as uncovered.
        let (a0, b0) = (randn(&[n, n], 1.0, &mut rng), randn(&[n, n], 1.0, &mut rng));
        let tape = Tape::new();
        let _window = profile::forward_window();
        let a = tape.leaf(a0);
        let b = tape.leaf(b0);
        let prod = ops::matmul(&a, &b);
        let act = ops::tanh(&prod);
        let gamma = tape.leaf(Tensor::full(&[n], 1.0));
        let beta = tape.leaf(Tensor::zeros(&[n]));
        let norm = fused::layer_norm_rows(&act, &gamma, &beta, 1e-5);
        let loss = ops::mean_all(&ops::mul(&norm, &norm));
        drop(_window);
        tape.backward(&loss);
    }

    let rows = profile::op_table();
    let find = |op: &str| {
        rows.iter()
            .find(|(k, _)| *k == op)
            .map(|(_, s)| *s)
            .unwrap_or_else(|| panic!("op {op:?} missing from profile table"))
    };

    let mm = find("matmul");
    assert_eq!(mm.fwd_count, 3);
    assert!(mm.bwd_count >= 3, "matmul backward not attributed");
    assert_eq!(mm.out_bytes, 3 * (n * n * 4) as u64);

    let ln = find("layer_norm_rows");
    assert_eq!(ln.fwd_count, 3);
    assert!(ln.bwd_count >= 3);

    // mean_all delegates to sum_all + scale; the composite gets the forward
    // attribution (outermost guard), the inner nodes keep their own op tags
    // and therefore their own backward attribution.
    let mean = find("mean_all");
    assert_eq!(mean.fwd_count, 3);
    assert_eq!(mean.bwd_count, 0);
    assert!(find("sum_all").bwd_count >= 3);

    // Everything inside the forward window is an op call, and the backward
    // window is the sweep itself, so attribution should account for nearly
    // all of both (glue between ops is the only uncovered time).
    let t = profile::totals();
    assert!(t.fwd_window_ns > 0 && t.bwd_window_ns > 0);
    assert!(
        t.coverage() >= 0.90,
        "op attribution should cover the forward+backward windows, got {:.3}",
        t.coverage()
    );

    // The summary render includes the per-op rows and the coverage figure.
    let summary = ist_obs::render_summary();
    let mm_row = summary
        .lines()
        .find(|l| l.starts_with("autograd.op.matmul "))
        .unwrap_or_else(|| panic!("no matmul row in summary:\n{summary}"));
    assert!(mm_row.contains("fwd_count=3"), "{mm_row}");
    assert!(
        summary.contains(&format!("coverage={}", t.coverage())),
        "summary:\n{summary}"
    );

    // json snapshot lines use the span schema the CI validator expects.
    let json = ist_obs::snapshot_json().join("\n");
    assert!(json.contains("\"span\":\"autograd.op.matmul\""));
    assert!(json.contains("\"span\":\"autograd.coverage\""));

    ist_obs::set_mode(ist_obs::Mode::Off);
}

static PROBE_HIST: ist_obs::Histogram = ist_obs::Histogram::with_unit("probe.hist", "us");

/// The `nth` whitespace-separated token after `name` on the summary line
/// that starts with `name`.
fn summary_token(summary: &str, name: &str, nth: usize) -> Option<String> {
    let line = summary
        .lines()
        .find(|l| l.split_whitespace().next() == Some(name))?;
    line.split_whitespace().nth(nth + 1).map(str::to_string)
}

/// Every row of one snapshot shows up in all three sinks (JSON lines, the
/// summary table, the Prometheus exposition) with the same count or value.
#[test]
fn every_sink_renders_every_snapshot_row() {
    let _g = serial();
    ist_obs::set_mode(ist_obs::Mode::Collect);
    ist_obs::reset();

    let mut rng = SeedRng::seed(11);
    let (a0, b0) = (randn(&[8, 8], 1.0, &mut rng), randn(&[8, 8], 1.0, &mut rng));
    {
        let _span = ist_obs::Span::enter("probe.span");
        let tape = Tape::new();
        let window = profile::forward_window();
        let prod = ops::matmul(&tape.leaf(a0), &tape.leaf(b0));
        let loss = ops::mean_all(&ops::tanh(&prod));
        drop(window);
        tape.backward(&loss);
    }
    for v in [3u64, 40, 500] {
        PROBE_HIST.record(v);
    }

    let snap = ist_obs::snapshot();
    let json = ist_obs::snapshot_json();
    let summary = ist_obs::render_summary();
    let prom = ist_obs::export::render_prometheus();
    ist_obs::set_mode(ist_obs::Mode::Off);

    for name in ["probe.span", "autograd.op.matmul", "autograd.coverage"] {
        assert!(
            snap.timers.iter().any(|t| t.name == name),
            "snapshot lacks timer {name}"
        );
    }
    assert!(snap.histograms.iter().any(|h| h.name == "probe.hist"));

    // `field` of the JSON line whose `key` names `name`.
    let json_field = |key: &str, name: &str, field: &str| {
        let mut rows = json.iter().map(|l| Json::parse(l).unwrap());
        rows.find(|row| row.text(key) == Ok(name))
            .and_then(|row| row.uint(field).ok())
    };
    for t in &snap.timers {
        let name = &t.name;
        assert_eq!(json_field("span", name, "count"), Some(t.count), "{name}");
        assert_eq!(
            summary_token(&summary, name, 0),
            Some(t.count.to_string()),
            "{name} in summary:\n{summary}"
        );
        let calls = format!("{}_calls_total", sanitize(name));
        assert_eq!(
            sample(&prom, &calls),
            Some(t.count as f64),
            "{calls} in:\n{prom}"
        );
    }
    for h in &snap.histograms {
        let name = &h.name;
        assert_eq!(
            json_field("histogram", name, "count"),
            Some(h.count()),
            "{name}"
        );
        assert_eq!(
            summary_token(&summary, name, 1),
            Some(h.count().to_string()),
            "{name} in summary:\n{summary}"
        );
        let count = format!("{}_count", sanitize(name));
        assert_eq!(
            sample(&prom, &count),
            Some(h.count() as f64),
            "{count} in:\n{prom}"
        );
    }
    let counters = snap.counters.iter().map(|c| (c, true));
    for ((name, value), is_counter) in counters.chain(snap.gauges.iter().map(|g| (g, false))) {
        assert_eq!(json_field("counter", name, "value"), Some(*value), "{name}");
        assert_eq!(
            summary_token(&summary, name, 0),
            Some(value.to_string()),
            "{name} in summary:\n{summary}"
        );
        let mut metric = sanitize(name);
        if is_counter && !metric.ends_with("_total") {
            metric.push_str("_total");
        }
        assert_eq!(
            sample(&prom, &metric),
            Some(*value as f64),
            "{metric} in:\n{prom}"
        );
    }
}
