//! Deterministic fault injection for the serving path, in the spirit of
//! the training-side `IST_FAULTS` plan (`isrec_core::FaultPlan`): every
//! fault fires at a fixed ordinal and exactly once, so panic recovery,
//! slow-batch deadline enforcement, and degraded-mode fallback are covered
//! by ordinary deterministic tests and a CI chaos gate.
//!
//! ## Grammar
//!
//! Comma-separated `kind@location` tokens (`IST_SERVE_FAULTS` or
//! `ServeConfig::faults`):
//!
//! ```text
//! panic@batch<N>        the N-th scored batch (1-based) panics mid-score
//! slow@batch<N>:<MS>    the N-th scored batch stalls MS milliseconds first
//! corrupt_reload@<K>    the K-th weight load of the engine's lifetime
//!                       (startup = 1, each reload/respawn increments)
//!                       fails as if the file were corrupt
//! ```
//!
//! e.g. `IST_SERVE_FAULTS=panic@batch3,slow@batch5:80,corrupt_reload@2`.
//!
//! Batch ordinals count *model* batches only — degraded-mode fallback
//! answers never consult the plan (that is the point of the fallback:
//! zero dependencies on the scorer).

use std::time::Duration;

/// What the fault plan injects into one scored batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchFault {
    /// Stall this long before scoring (a `slow@batchN:MS` token).
    pub slow: Option<Duration>,
    /// Panic instead of scoring (a `panic@batchN` token).
    pub panic: bool,
}

/// A parsed, consumable schedule of injected serving faults. Ordinal
/// counters live inside the plan, so it must be consulted exactly once per
/// batch / weight load (the engine keeps it behind a mutex and skips the
/// lock entirely once the plan drains).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeFaultPlan {
    panic_batches: Vec<u64>,
    slow_batches: Vec<(u64, Duration)>,
    corrupt_reloads: Vec<u64>,
    batches_seen: u64,
    loads_seen: u64,
}

impl ServeFaultPlan {
    /// Parses the `IST_SERVE_FAULTS` grammar (see the module docs).
    pub fn parse(spec: &str) -> Result<ServeFaultPlan, String> {
        let mut plan = ServeFaultPlan::default();
        for tok in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (kind, loc) = tok
                .split_once('@')
                .ok_or_else(|| format!("serve fault `{tok}`: expected kind@location"))?;
            match kind {
                "panic" => plan.panic_batches.push(parse_batch(tok, loc)?),
                "slow" => {
                    let err = || format!("serve fault `{tok}`: expected slow@batch<n>:<ms>");
                    let (at, ms) = loc.split_once(':').ok_or_else(err)?;
                    let n = parse_batch(tok, at)?;
                    let ms: u64 = ms.parse().map_err(|_| err())?;
                    plan.slow_batches.push((n, Duration::from_millis(ms)));
                }
                "corrupt_reload" => {
                    let err = || format!("serve fault `{tok}`: location must be <k> with k >= 1");
                    let k: u64 = loc.parse().map_err(|_| err())?;
                    if k == 0 {
                        return Err(err());
                    }
                    plan.corrupt_reloads.push(k);
                }
                other => {
                    return Err(format!(
                        "unknown serve fault kind `{other}` (panic|slow|corrupt_reload)"
                    ))
                }
            }
        }
        Ok(plan)
    }

    /// Builds the plan from `IST_SERVE_FAULTS`. Unset or empty means no
    /// faults; a malformed spec is reported on stderr and ignored (the CI
    /// chaos gate then fails loudly on a clean report rather than the
    /// engine crashing at startup).
    pub fn from_env() -> ServeFaultPlan {
        let parse = |spec: &str| {
            let plan = ServeFaultPlan::parse(spec)?;
            eprintln!("serve fault injection active: {spec}");
            Ok(plan)
        };
        ist_obs::env::parsed("IST_SERVE_FAULTS", "no faults", parse).unwrap_or_default()
    }

    /// True when no faults remain to fire.
    pub fn is_empty(&self) -> bool {
        self.panic_batches.is_empty()
            && self.slow_batches.is_empty()
            && self.corrupt_reloads.is_empty()
    }

    /// Advances the batch ordinal and returns the faults scheduled for the
    /// batch about to be scored. `slow` and `panic` may both fire on the
    /// same ordinal (stall first, then panic).
    pub fn take_batch(&mut self) -> BatchFault {
        self.batches_seen += 1;
        let n = self.batches_seen;
        let mut fault = BatchFault::default();
        if let Some(i) = self.slow_batches.iter().position(|&(at, _)| at == n) {
            fault.slow = Some(self.slow_batches.remove(i).1);
        }
        if let Some(i) = self.panic_batches.iter().position(|&at| at == n) {
            self.panic_batches.remove(i);
            fault.panic = true;
        }
        fault
    }

    /// Advances the weight-load ordinal and reports whether this load must
    /// fail as if the source were corrupt.
    pub fn take_corrupt_reload(&mut self) -> bool {
        self.loads_seen += 1;
        let n = self.loads_seen;
        match self.corrupt_reloads.iter().position(|&at| at == n) {
            Some(i) => {
                self.corrupt_reloads.remove(i);
                true
            }
            None => false,
        }
    }
}

/// Parses `batch<N>`, N ≥ 1.
fn parse_batch(tok: &str, loc: &str) -> Result<u64, String> {
    let err = || format!("serve fault `{tok}`: location must be batch<n> with n >= 1");
    let n: u64 = loc
        .strip_prefix("batch")
        .ok_or_else(err)?
        .parse()
        .map_err(|_| err())?;
    if n == 0 {
        return Err(err());
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_example() {
        let mut plan =
            ServeFaultPlan::parse("panic@batch3,slow@batch5:80,corrupt_reload@2").unwrap();
        assert!(!plan.is_empty());
        // Batches 1, 2 clean; 3 panics; 4 clean; 5 slow.
        assert_eq!(plan.take_batch(), BatchFault::default());
        assert_eq!(plan.take_batch(), BatchFault::default());
        assert_eq!(
            plan.take_batch(),
            BatchFault {
                slow: None,
                panic: true
            }
        );
        assert_eq!(plan.take_batch(), BatchFault::default());
        assert_eq!(
            plan.take_batch(),
            BatchFault {
                slow: Some(Duration::from_millis(80)),
                panic: false
            }
        );
        // Load 1 clean, load 2 corrupt, load 3 clean again.
        assert!(!plan.take_corrupt_reload());
        assert!(plan.take_corrupt_reload());
        assert!(!plan.take_corrupt_reload());
        assert!(plan.is_empty());
    }

    #[test]
    fn slow_and_panic_can_share_an_ordinal() {
        let mut plan = ServeFaultPlan::parse("slow@batch1:10,panic@batch1").unwrap();
        let f = plan.take_batch();
        assert_eq!(f.slow, Some(Duration::from_millis(10)));
        assert!(f.panic);
        assert!(plan.is_empty());
    }

    #[test]
    fn faults_fire_exactly_once() {
        let mut plan = ServeFaultPlan::parse("panic@batch1,panic@batch1").unwrap();
        assert!(plan.take_batch().panic, "first copy fires");
        // The duplicate is scheduled for ordinal 1, which has passed.
        assert!(!plan.take_batch().panic);
        assert!(!plan.is_empty(), "the stale duplicate never fires");
    }

    #[test]
    fn empty_spec_is_empty_plan() {
        assert!(ServeFaultPlan::parse("").unwrap().is_empty());
        assert!(ServeFaultPlan::parse(" , ").unwrap().is_empty());
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "panic",
            "panic@",
            "panic@batch0",
            "panic@batchx",
            "panic@3",
            "slow@batch1",
            "slow@batch1:",
            "slow@batch1:xs",
            "slow@batch0:10",
            "corrupt_reload@0",
            "corrupt_reload@ckpt1",
            "meteor_strike@batch1",
        ] {
            assert!(
                ServeFaultPlan::parse(bad).is_err(),
                "`{bad}` should not parse"
            );
        }
    }
}
