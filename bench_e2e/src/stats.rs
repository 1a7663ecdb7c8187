//! Order statistics over measured samples.

/// Quantile `q` of ascending-sorted `sorted`, interpolating linearly
/// between closest ranks (Python's `statistics.quantiles(method=
/// "inclusive")` convention). 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorts `values` ascending (total order) and returns them.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.5)
}

/// Times `f` repeatedly — at least `min_reps` times, then until `budget`
/// seconds have passed or `max_reps` calls ran — and returns the median
/// seconds per call.
pub fn median_secs(min_reps: usize, max_reps: usize, budget: f64, mut f: impl FnMut()) -> f64 {
    let started = std::time::Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps
        || (samples.len() < max_reps && started.elapsed().as_secs_f64() < budget)
    {
        let t = std::time::Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
