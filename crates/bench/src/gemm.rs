//! Shared GEMM benchmark harness: the measurement suite behind the
//! `bench_gemm` binary, plus a parser for its `BENCH_gemm.json` artifact so
//! `bench_diff` can compare a fresh run against the committed baseline.
//!
//! The JSON is hand-rolled here — the offline workspace carries no serde —
//! and read back with `ist_obs::schema::Json`; the round-trip is covered
//! by tests.

use std::time::Instant;

use ist_obs::schema::Json;
use ist_tensor::matmul::{gemm_blocked, gemm_serial, matmul_in};
use ist_tensor::pool::ThreadPool;
use ist_tensor::rng::{uniform, SeedRng, SeedRngExt as _};
use ist_tensor::simd;

/// Square problem sizes benchmarked; 512 is the acceptance-gate size.
pub const SIZES: [usize; 3] = [128, 256, 512];
/// Pool sizes for the parallel rows of the report.
pub const THREADS: [usize; 4] = [1, 2, 4, 8];
/// Warm-up calls before the timed loop (page-in, pool spin-up).
pub const WARMUP: usize = 1;

/// One benchmark configuration's result. `warmup`/`iters` record how the
/// number was measured, so a comparison between two files can flag rows
/// timed under different regimes instead of silently treating them alike.
/// `dispatch` names the SIMD level the row was measured at (empty in
/// baselines written before the dispatch layer existed).
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRow {
    pub kernel: String,
    pub size: usize,
    pub threads: usize,
    pub dispatch: String,
    pub gflops: f64,
    pub ms_per_iter: f64,
    pub warmup: usize,
    pub iters: usize,
}

impl BenchRow {
    /// Configuration key used to match rows across runs. Includes the
    /// dispatch level: an `avx2` number is never compared to a `scalar`
    /// one.
    pub fn key(&self) -> (String, usize, usize, String) {
        (
            self.kernel.clone(),
            self.size,
            self.threads,
            self.dispatch.clone(),
        )
    }
}

/// Times `f` adaptively: enough iterations to fill ~200 ms, min 3.
/// Returns `(ms_per_iter, iters)` of the final timing loop.
pub fn time_ms(mut f: impl FnMut()) -> (f64, usize) {
    for _ in 0..WARMUP {
        f();
    }
    let mut iters = 1usize;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= 0.2 || iters >= 1024 {
            return (elapsed * 1e3 / iters as f64, iters);
        }
        iters = (iters * 2).max(3);
    }
}

fn gflops(n: usize, ms: f64) -> f64 {
    (2.0 * (n as f64).powi(3)) / (ms * 1e6)
}

/// Runs the full suite: the serial reference, the cache-blocked kernel at
/// **every SIMD dispatch level this host supports**, and the
/// pool-dispatched path across [`THREADS`] (at the detected best level) for
/// every size in [`SIZES`]. The active dispatch level is restored on exit.
pub fn run_suite() -> Vec<BenchRow> {
    let mut rows: Vec<BenchRow> = Vec::new();
    let mut push =
        |kernel: &str, size: usize, threads: usize, dispatch: &str, ms: f64, iters: usize| {
            rows.push(BenchRow {
                kernel: kernel.into(),
                size,
                threads,
                dispatch: dispatch.into(),
                gflops: gflops(size, ms),
                ms_per_iter: ms,
                warmup: WARMUP,
                iters,
            });
        };

    let prev_level = simd::level();
    let best = simd::detected();
    for &n in &SIZES {
        let mut rng = SeedRng::seed(42);
        let a = uniform(&[n, n], -1.0, 1.0, &mut rng);
        let b = uniform(&[n, n], -1.0, 1.0, &mut rng);
        let mut out = vec![0.0f32; n * n];

        // The i-k-j reference has no dispatched inner loop; it is scalar
        // code at every level.
        let (ms, iters) = time_ms(|| {
            out.iter_mut().for_each(|v| *v = 0.0);
            gemm_serial(a.data(), b.data(), &mut out, n, n, n);
        });
        push("serial_ikj", n, 1, "scalar", ms, iters);

        for level in simd::available_levels() {
            simd::set_level(level);
            let (ms, iters) = time_ms(|| {
                out.iter_mut().for_each(|v| *v = 0.0);
                gemm_blocked(a.data(), b.data(), &mut out, n, n, n);
            });
            push("blocked", n, 1, level.name(), ms, iters);
        }

        simd::set_level(best);
        for &t in &THREADS {
            let pool = ThreadPool::new(t);
            let (ms, iters) = time_ms(|| {
                std::hint::black_box(matmul_in(&pool, &a, &b));
            });
            push("blocked_pool", n, t, best.name(), ms, iters);
        }
    }
    simd::set_level(prev_level);
    rows
}

/// Serialises rows as the `"results"` JSON array (indented two levels).
pub fn rows_to_json(rows: &[BenchRow]) -> String {
    let mut json = String::new();
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"size\": {}, \"threads\": {}, \"dispatch\": \"{}\", \
             \"gflops\": {:.4}, \"ms_per_iter\": {:.4}, \"warmup\": {}, \"iters\": {}}}{}\n",
            r.kernel,
            r.size,
            r.threads,
            r.dispatch,
            r.gflops,
            r.ms_per_iter,
            r.warmup,
            r.iters,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json
}

/// Serialises the host CPU's dispatch capabilities as the `"cpu"` JSON
/// object, so a baseline records which machine produced it.
pub fn cpu_to_json() -> String {
    let levels: Vec<String> = simd::available_levels()
        .iter()
        .map(|l| format!("\"{l}\""))
        .collect();
    format!(
        "{{\"detected\": \"{}\", \"active\": \"{}\", \"levels\": [{}]}}",
        simd::detected(),
        simd::level(),
        levels.join(", ")
    )
}

/// Parses the `"results"` array out of a `BENCH_gemm.json` document.
/// `warmup`/`iters` default to 0 for baselines written before those fields
/// existed (comparisons then carry a measurement-regime caveat).
pub fn parse_rows(json: &str) -> Result<Vec<BenchRow>, String> {
    let doc = Json::parse(json)?;
    let rows = doc.items("results")?.iter().map(|r| {
        Ok(BenchRow {
            kernel: r.text("kernel")?.to_string(),
            size: r.uint("size")? as usize,
            threads: r.uint("threads")? as usize,
            // Empty for baselines written before the SIMD dispatch layer;
            // `bench_diff` pairs those against fresh scalar rows.
            dispatch: r.text("dispatch").unwrap_or_default().to_string(),
            gflops: r.num("gflops")?,
            ms_per_iter: r.num("ms_per_iter")?,
            warmup: r.uint("warmup").unwrap_or(0) as usize,
            iters: r.uint("iters").unwrap_or(0) as usize,
        })
    });
    let rows = rows.collect::<Result<Vec<_>, String>>()?;
    if rows.is_empty() {
        return Err("baseline contains no result rows".into());
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows() -> Vec<BenchRow> {
        vec![
            BenchRow {
                kernel: "serial_ikj".into(),
                size: 128,
                threads: 1,
                dispatch: "scalar".into(),
                gflops: 16.2832,
                ms_per_iter: 0.2576,
                warmup: 1,
                iters: 768,
            },
            BenchRow {
                kernel: "blocked_pool".into(),
                size: 512,
                threads: 4,
                dispatch: "avx2".into(),
                gflops: 21.2854,
                ms_per_iter: 12.6112,
                warmup: 1,
                iters: 24,
            },
        ]
    }

    #[test]
    fn json_round_trips() {
        let rows = sample_rows();
        let doc = format!(
            "{{\n  \"benchmark\": \"gemm\",\n  \"results\": [\n{}  ]\n}}\n",
            rows_to_json(&rows)
        );
        let parsed = parse_rows(&doc).unwrap();
        assert_eq!(parsed.len(), rows.len());
        for (p, r) in parsed.iter().zip(&rows) {
            assert_eq!(p.key(), r.key());
            assert!((p.gflops - r.gflops).abs() < 1e-3);
            assert_eq!(p.warmup, r.warmup);
            assert_eq!(p.iters, r.iters);
        }
    }

    #[test]
    fn parses_legacy_baseline_without_measurement_fields() {
        let doc = r#"{
  "benchmark": "gemm",
  "results": [
    {"kernel": "blocked", "size": 256, "threads": 1, "gflops": 22.1958, "ms_per_iter": 1.5117}
  ],
  "obs": []
}"#;
        let rows = parse_rows(doc).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].kernel, "blocked");
        assert_eq!(rows[0].dispatch, "", "legacy rows carry no dispatch");
        assert_eq!(rows[0].warmup, 0);
        assert_eq!(rows[0].iters, 0);
    }

    #[test]
    fn cpu_metadata_names_the_active_level() {
        let json = cpu_to_json();
        assert!(json.contains("\"detected\""));
        assert!(json.contains(&format!("\"{}\"", simd::detected())));
        assert!(json.contains("\"levels\": [\"scalar\""));
    }

    #[test]
    fn rejects_documents_without_results() {
        assert!(parse_rows("{}").is_err());
        assert!(parse_rows("{\"results\": []}").is_err());
    }
}
