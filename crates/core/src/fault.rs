//! Deterministic fault injection for exercising the recovery paths.
//!
//! A [`FaultPlan`] names exact points where the training stack misbehaves
//! on purpose: a NaN loss at a given epoch/step, an infinite gradient norm,
//! a torn (half-written) checkpoint file, or a bit-flip inside a checkpoint
//! that was "durably" written. Because every fault fires at a fixed point
//! and exactly once, the recovery machinery can be covered by ordinary
//! deterministic tests and CI gates — no chaos-monkey nondeterminism.
//!
//! ## Grammar
//!
//! Comma-separated `kind@location` tokens:
//!
//! ```text
//! loss_nan@e<E>s<S>     poison the loss with NaN at epoch E, step S
//! grad_inf@e<E>s<S>     poison the gradient norm with +inf at epoch E, step S
//! torn_write@ckpt<N>    the N-th checkpoint write (1-based) stops half-way
//! bitflip@ckpt<N>       the N-th checkpoint write lands with one bit flipped
//! ```
//!
//! e.g. `IST_FAULTS=loss_nan@e1s3,torn_write@ckpt2,bitflip@ckpt1`.
//!
//! Plans come from `TrainConfig::faults` when set, else the `IST_FAULTS`
//! environment variable (see [`FaultPlan::from_env`]).

/// How a checkpoint write is sabotaged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CkptFault {
    /// The file is cut off half-way — a crash between write and fsync.
    TornWrite,
    /// One bit of the written image is flipped — silent media corruption.
    BitFlip,
}

/// A parsed, consumable schedule of injected faults. Each entry fires once.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    loss_nan: Vec<(usize, usize)>,
    grad_inf: Vec<(usize, usize)>,
    ckpt: Vec<(usize, CkptFault)>,
}

impl FaultPlan {
    /// Parses the `IST_FAULTS` grammar (see the module docs).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for tok in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (kind, loc) = tok
                .split_once('@')
                .ok_or_else(|| format!("fault `{tok}`: expected kind@location"))?;
            match kind {
                "loss_nan" => plan.loss_nan.push(parse_epoch_step(tok, loc)?),
                "grad_inf" => plan.grad_inf.push(parse_epoch_step(tok, loc)?),
                "torn_write" => plan
                    .ckpt
                    .push((parse_ckpt(tok, loc)?, CkptFault::TornWrite)),
                "bitflip" => plan.ckpt.push((parse_ckpt(tok, loc)?, CkptFault::BitFlip)),
                other => {
                    return Err(format!(
                        "unknown fault kind `{other}` (loss_nan|grad_inf|torn_write|bitflip)"
                    ))
                }
            }
        }
        Ok(plan)
    }

    /// Builds the plan from the `IST_FAULTS` environment variable. Unset or
    /// empty means no faults; a malformed spec is reported on stderr and
    /// ignored (the CI fault gate then fails loudly on its empty recovery
    /// log rather than the trainer crashing mid-run).
    pub fn from_env() -> FaultPlan {
        let parse = |spec: &str| {
            let plan = FaultPlan::parse(spec)?;
            eprintln!("fault injection active: {spec}");
            Ok(plan)
        };
        ist_obs::env::parsed("IST_FAULTS", "no faults", parse).unwrap_or_default()
    }

    /// True when no faults remain to fire.
    pub fn is_empty(&self) -> bool {
        self.loss_nan.is_empty() && self.grad_inf.is_empty() && self.ckpt.is_empty()
    }

    /// Consumes a scheduled NaN-loss fault for this epoch/step, if any.
    pub fn take_loss_nan(&mut self, epoch: usize, step: usize) -> bool {
        take_match(&mut self.loss_nan, |&p| p == (epoch, step))
    }

    /// Consumes a scheduled infinite-gradient fault for this epoch/step.
    pub fn take_grad_inf(&mut self, epoch: usize, step: usize) -> bool {
        take_match(&mut self.grad_inf, |&p| p == (epoch, step))
    }

    /// Consumes the fault scheduled for the `ordinal`-th checkpoint write
    /// of this process (1-based), if any.
    pub fn take_ckpt_fault(&mut self, ordinal: usize) -> Option<CkptFault> {
        let idx = self.ckpt.iter().position(|&(n, _)| n == ordinal)?;
        Some(self.ckpt.remove(idx).1)
    }
}

fn take_match<T>(v: &mut Vec<T>, pred: impl Fn(&T) -> bool) -> bool {
    match v.iter().position(pred) {
        Some(i) => {
            v.remove(i);
            true
        }
        None => false,
    }
}

/// Parses `e<E>s<S>`.
fn parse_epoch_step(tok: &str, loc: &str) -> Result<(usize, usize), String> {
    let err = || format!("fault `{tok}`: location must be e<epoch>s<step>");
    let rest = loc.strip_prefix('e').ok_or_else(err)?;
    let (e, s) = rest.split_once('s').ok_or_else(err)?;
    Ok((e.parse().map_err(|_| err())?, s.parse().map_err(|_| err())?))
}

/// Parses `ckpt<N>`, N ≥ 1.
fn parse_ckpt(tok: &str, loc: &str) -> Result<usize, String> {
    let err = || format!("fault `{tok}`: location must be ckpt<n> with n >= 1");
    let n: usize = loc
        .strip_prefix("ckpt")
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
        let mut plan = FaultPlan::parse("loss_nan@e1s3,torn_write@ckpt2,bitflip@ckpt1").unwrap();
        assert!(!plan.is_empty());
        assert!(!plan.take_loss_nan(0, 3));
        assert!(plan.take_loss_nan(1, 3));
        assert!(!plan.take_loss_nan(1, 3), "faults fire exactly once");
        assert_eq!(plan.take_ckpt_fault(1), Some(CkptFault::BitFlip));
        assert_eq!(plan.take_ckpt_fault(2), Some(CkptFault::TornWrite));
        assert_eq!(plan.take_ckpt_fault(3), None);
        assert!(plan.is_empty());
    }

    #[test]
    fn parses_grad_inf_and_whitespace() {
        let mut plan = FaultPlan::parse(" grad_inf@e0s12 , loss_nan@e2s0 ,").unwrap();
        assert!(plan.take_grad_inf(0, 12));
        assert!(plan.take_loss_nan(2, 0));
        assert!(plan.is_empty());
    }

    #[test]
    fn empty_spec_is_empty_plan() {
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "loss_nan",
            "loss_nan@",
            "loss_nan@s1e1",
            "loss_nan@e1",
            "loss_nan@exsy",
            "torn_write@ckpt0",
            "torn_write@ckptx",
            "bitflip@2",
            "meteor_strike@e1s1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn duplicate_points_fire_once_each() {
        let mut plan = FaultPlan::parse("loss_nan@e0s0,loss_nan@e0s0").unwrap();
        assert!(plan.take_loss_nan(0, 0));
        assert!(plan.take_loss_nan(0, 0));
        assert!(!plan.take_loss_nan(0, 0));
    }
}
