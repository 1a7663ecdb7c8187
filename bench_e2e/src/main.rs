//! `bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a human-readable report, then, as the last
//! line of standard output, one JSON object:
//! `{"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value": v, "unit": u}}}`
//! holding the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Exits 2 on bad arguments, 1 when the run cannot be set up
//! (nothing printed) or an output check fails (printed with
//! `"correct": false`).

use bench_e2e::{json, per_layer, run, RunOpts, Workload, END_TO_END};

const USAGE: &str = "usage: bench_e2e --workload <train-beauty|serve-miss|serve-catalog> \
                     --seed <u64> --seconds <1-60> --trace <0|1>";

fn parse_args() -> Result<(Workload, RunOpts), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !args.len().is_multiple_of(2) {
        return Err("arguments come in --flag value pairs".into());
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let value = pair[1].as_str();
        match pair[0].as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err(format!("--seconds {s} outside 1..=60"));
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?}: expected 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok((
        workload,
        RunOpts {
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
            sizing: workload.sizing(),
        },
    ))
}

/// glibc's malloc adapts its mmap and trim thresholds while the process
/// runs, from the order in which large blocks are freed, which here
/// depends on thread scheduling. Left adaptive, about half of all
/// `train-beauty` processes re-fault their tensors on every optimizer step
/// (about a million minor page faults per fit, 4.2 instead of 5.9 steps/s
/// on a 2-core host), so the same code measures in two modes. Fixing both
/// thresholds puts every run on one allocator path.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only sets allocator parameters; it runs before this
    // process has started any other thread or allocated a tensor.
    let pinned = unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1
    };
    if !pinned {
        eprintln!("warning: mallopt refused to pin the malloc thresholds");
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() {}

fn main() {
    pin_allocator();
    let (workload, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // End-to-end numbers come from runs with every probe dark, whatever
    // the environment asks for; the traced pass arms them itself.
    ist_obs::set_mode(ist_obs::Mode::Off);
    ist_obs::trace::set_enabled(false);
    ist_obs::reqctx::disable_access_log();

    let outcome = match run(workload, &opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {} could not run: {e}", workload.name());
            std::process::exit(1);
        }
    };

    println!(
        "workload {} seed {} seconds {} trace {}",
        workload.name(),
        opts.seed,
        opts.seconds,
        opts.trace as u8
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    let rows: Vec<(String, &str, f64)> = if opts.trace {
        per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let v = outcome.per_layer.get(&name).copied().unwrap_or(0.0);
                (name, unit, v)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let v = *outcome
                    .end_to_end
                    .get(name)
                    .unwrap_or_else(|| panic!("{} did not measure {name}", workload.name()));
                (name.to_string(), unit, v)
            })
            .collect()
    };
    for (name, unit, value) in &rows {
        println!("  {name:<44} {value:>16.4} {unit}");
    }
    const SHOWN: usize = 20;
    for problem in outcome.problems.iter().take(SHOWN) {
        println!("  CHECK FAILED: {problem}");
    }
    if outcome.problems.len() > SHOWN {
        println!(
            "  ... and {} more failed checks",
            outcome.problems.len() - SHOWN
        );
    }
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(name),
                json::number(*value),
                json::string(unit)
            )
        })
        .collect();
    let correct = outcome.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
