//! Autograd profiler integration tests: op attribution and window coverage.
//!
//! Profiler state is process-global, so the attribution/coverage checks
//! live in a single test function, alone in this binary: tests in one
//! binary run in parallel, and any other test's ops would be attributed
//! here too.

use ist_autograd::{fused, ops, profile, Tape};
use ist_tensor::rng::{randn, SeedRng, SeedRngExt};
use ist_tensor::Tensor;

#[test]
fn attribution_and_coverage() {
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

    // The summary render includes the top-K table and coverage line.
    let summary = ist_obs::render_summary();
    assert!(summary.contains("autograd op"), "summary:\n{summary}");
    assert!(summary.contains("matmul"));
    assert!(summary.contains("op-attributed time"));

    // json snapshot lines use the span schema the CI validator expects.
    let json = ist_obs::snapshot_json().join("\n");
    assert!(json.contains("\"span\":\"autograd.op.matmul\""));
    assert!(json.contains("\"span\":\"autograd.coverage\""));

    ist_obs::set_mode(ist_obs::Mode::Off);
}
