//! Crash-safe checkpoint files: atomic durable writes, bounded retention,
//! and newest-valid selection on load.
//!
//! A checkpoint is a v2 snapshot (see [`crate::snapshot`]) written as
//! `ckpt-<epoch>.ist` inside a dedicated directory. Writes go through a
//! temp file + `fsync` + rename (+ directory `fsync`), so a crash at any
//! point leaves either the old file set or the new one — never a visible
//! half-file. Loads walk the directory newest-first and skip anything that
//! fails its checksums with a warning, so one corrupted file costs one
//! checkpoint interval of progress, not the run.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use ist_autograd::Param;

use crate::fault::{CkptFault, FaultPlan};
use crate::snapshot::{self, TrainerState};

const PREFIX: &str = "ckpt-";
const EXT: &str = "ist";

/// Writes, prunes, and loads the checkpoint files of one training run.
pub struct CheckpointManager {
    dir: PathBuf,
    retain: usize,
    writes: usize,
}

impl CheckpointManager {
    /// Opens (creating if needed) a checkpoint directory, keeping at most
    /// `retain` files (minimum 1).
    pub fn new(dir: impl Into<PathBuf>, retain: usize) -> Result<Self, String> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| format!("create checkpoint dir {dir:?}: {e}"))?;
        Ok(CheckpointManager {
            dir,
            retain: retain.max(1),
            writes: 0,
        })
    }

    /// The managed directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Existing checkpoints as `(epoch, path)`, oldest first.
    pub fn list(&self) -> Vec<(u64, PathBuf)> {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut found: Vec<(u64, PathBuf)> = entries
            .flatten()
            .filter_map(|entry| {
                let path = entry.path();
                let name = path.file_name()?.to_str()?;
                let epoch = name
                    .strip_prefix(PREFIX)?
                    .strip_suffix(&format!(".{EXT}"))?
                    .parse()
                    .ok()?;
                Some((epoch, path))
            })
            .collect();
        found.sort();
        found
    }

    /// Durably writes `bytes` as the checkpoint for `epoch` and prunes old
    /// files beyond the retention count. `faults` may sabotage this write
    /// (torn file / bit-flip) — the sabotage is applied to what reaches
    /// disk, never to the caller's buffer.
    pub fn save(
        &mut self,
        epoch: u64,
        bytes: &[u8],
        faults: &mut FaultPlan,
    ) -> Result<PathBuf, String> {
        self.writes += 1;
        let _span = ist_obs::Span::enter("ckpt.write")
            .field("epoch", epoch)
            .field("bytes", bytes.len());
        let path = self.dir.join(format!("{PREFIX}{epoch:08}.{EXT}"));
        match faults.take_ckpt_fault(self.writes) {
            Some(CkptFault::TornWrite) => {
                // Simulated crash between write and fsync: the half-written
                // image lands at the *final* path, bypassing the atomic
                // protocol, exactly the wreckage resume must tolerate.
                let torn = &bytes[..bytes.len() / 2];
                fs::write(&path, torn).map_err(|e| format!("write {path:?}: {e}"))?;
                eprintln!(
                    "fault injection: tore checkpoint write {} ({path:?})",
                    self.writes
                );
            }
            Some(CkptFault::BitFlip) => {
                let mut flipped = bytes.to_vec();
                let at = flipped.len() / 3;
                flipped[at] ^= 0x10;
                self.write_atomic(&path, &flipped)?;
                eprintln!(
                    "fault injection: bit-flipped checkpoint write {} ({path:?})",
                    self.writes
                );
            }
            None => self.write_atomic(&path, bytes)?,
        }
        self.prune();
        Ok(path)
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), String> {
        let tmp = self.dir.join(format!(
            ".tmp-{}",
            path.file_name().and_then(|n| n.to_str()).unwrap_or("ckpt")
        ));
        {
            let mut f = fs::File::create(&tmp).map_err(|e| format!("create {tmp:?}: {e}"))?;
            f.write_all(bytes)
                .map_err(|e| format!("write {tmp:?}: {e}"))?;
            f.sync_all().map_err(|e| format!("fsync {tmp:?}: {e}"))?;
        }
        fs::rename(&tmp, path).map_err(|e| format!("rename {tmp:?} -> {path:?}: {e}"))?;
        // Persist the rename itself; not all filesystems support fsync on a
        // directory handle, so a failure here is not fatal.
        if let Ok(d) = fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    fn prune(&self) {
        let found = self.list();
        if found.len() > self.retain {
            for (_, path) in &found[..found.len() - self.retain] {
                if let Err(e) = fs::remove_file(path) {
                    eprintln!("warning: could not prune old checkpoint {path:?}: {e}");
                }
            }
        }
    }

    /// Loads the newest checkpoint that passes every integrity check,
    /// restores `params` from it, and returns `(epoch, trainer state)`.
    ///
    /// A checkpoint only counts as valid for resume when its checksums
    /// pass, it covers *every* parameter of the model, and it carries the
    /// trainer state block; anything else is skipped with a warning and the
    /// next-older file is tried. Returns `None` when nothing valid exists.
    pub fn load_latest(&self, params: &[Param]) -> Option<(u64, TrainerState)> {
        for (epoch, path) in self.list().into_iter().rev() {
            let raw = match fs::read(&path) {
                Ok(raw) => raw,
                Err(e) => {
                    eprintln!("warning: skipping unreadable checkpoint {path:?}: {e}");
                    continue;
                }
            };
            match snapshot::load_full(params, raw) {
                Ok((restored, Some(state))) if restored == params.len() => {
                    return Some((epoch, state));
                }
                Ok((restored, state)) => {
                    eprintln!(
                        "warning: skipping checkpoint {path:?}: restored {restored}/{} params, trainer state {}",
                        params.len(),
                        if state.is_some() { "present" } else { "missing" }
                    );
                }
                Err(e) => {
                    eprintln!("warning: skipping invalid checkpoint {path:?}: {e}");
                }
            }
        }
        None
    }

    /// Serving-side variant of [`CheckpointManager::load_latest`]: restores
    /// parameter *values* only, ignoring (and not requiring) trainer state,
    /// and returns the epoch restored from.
    ///
    /// `newer_than` filters to strictly newer epochs so a hot-reload poll
    /// never re-applies (or regresses to) the checkpoint already being
    /// served. Validation is all-before-apply ([`snapshot::load_full`]), so
    /// a torn or corrupt file is skipped with a warning and `params` are
    /// left untouched by it — the engine keeps serving the old weights.
    pub fn load_latest_values(&self, params: &[Param], newer_than: Option<u64>) -> Option<u64> {
        self.load_latest_values_report(params, newer_than).epoch
    }

    /// Like [`CheckpointManager::load_latest_values`], but also reports how
    /// many candidate checkpoints were skipped as unreadable, corrupt, or
    /// incomplete on the way to the one restored — the serving layer
    /// surfaces this as a `serve.reload_skipped` counter so operators can
    /// tell "nothing newer" apart from "newer but rotten".
    pub fn load_latest_values_report(
        &self,
        params: &[Param],
        newer_than: Option<u64>,
    ) -> ValuesLoadReport {
        let mut skipped = 0usize;
        for (epoch, path) in self.list().into_iter().rev() {
            if let Some(floor) = newer_than {
                if epoch <= floor {
                    // list() is sorted; everything further back is older.
                    return ValuesLoadReport {
                        epoch: None,
                        skipped,
                    };
                }
            }
            let raw = match fs::read(&path) {
                Ok(raw) => raw,
                Err(e) => {
                    eprintln!("warning: skipping unreadable checkpoint {path:?}: {e}");
                    skipped += 1;
                    continue;
                }
            };
            match snapshot::load_full(params, raw) {
                Ok((restored, _)) if restored == params.len() => {
                    return ValuesLoadReport {
                        epoch: Some(epoch),
                        skipped,
                    };
                }
                Ok((restored, _)) => {
                    eprintln!(
                        "warning: skipping checkpoint {path:?}: restored {restored}/{} params",
                        params.len()
                    );
                    skipped += 1;
                }
                Err(e) => {
                    eprintln!("warning: skipping invalid checkpoint {path:?}: {e}");
                    skipped += 1;
                }
            }
        }
        ValuesLoadReport {
            epoch: None,
            skipped,
        }
    }
}

/// Outcome of [`CheckpointManager::load_latest_values_report`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ValuesLoadReport {
    /// Epoch restored from, `None` when nothing (newer and) valid exists.
    pub epoch: Option<u64>,
    /// Candidate checkpoints skipped as unreadable, corrupt, or incomplete
    /// before the search ended.
    pub skipped: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ist_tensor::Tensor;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("isrec-ckpt-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn param(val: f32) -> Param {
        Param::new("w", Tensor::from_vec(vec![val, val + 1.0], &[2]))
    }

    fn state_for(p: &Param, epoch: u64) -> TrainerState {
        TrainerState {
            epoch,
            rng_state: [epoch + 1, 2, 3, 4],
            lr: 0.5,
            adam_t: epoch * 10,
            adam_m: vec![Tensor::zeros(&p.shape())],
            adam_v: vec![Tensor::ones(&p.shape())],
        }
    }

    fn write_epoch(mgr: &mut CheckpointManager, p: &Param, epoch: u64, faults: &mut FaultPlan) {
        let bytes =
            snapshot::save_with_state(std::slice::from_ref(p), Some(&state_for(p, epoch))).unwrap();
        mgr.save(epoch, &bytes, faults).unwrap();
    }

    #[test]
    fn retains_only_the_newest_n() {
        let dir = tmpdir("retain");
        let mut mgr = CheckpointManager::new(&dir, 2).unwrap();
        let mut faults = FaultPlan::default();
        for epoch in 0..5 {
            write_epoch(&mut mgr, &param(epoch as f32), epoch, &mut faults);
        }
        let epochs: Vec<u64> = mgr.list().into_iter().map(|(e, _)| e).collect();
        assert_eq!(epochs, vec![3, 4]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_falls_back_to_older_valid() {
        let dir = tmpdir("fallback");
        let mut mgr = CheckpointManager::new(&dir, 10).unwrap();
        // Checkpoint 2 (epoch 1) is bit-flipped, 3 (epoch 2) is torn.
        let mut faults = FaultPlan::parse("bitflip@ckpt2,torn_write@ckpt3").unwrap();
        for epoch in 0..3 {
            write_epoch(&mut mgr, &param(epoch as f32 * 100.0), epoch, &mut faults);
        }
        let target = param(0.0);
        let (epoch, state) = mgr.load_latest(std::slice::from_ref(&target)).unwrap();
        assert_eq!(epoch, 0, "both newer checkpoints are corrupt");
        assert_eq!(state.adam_t, 0);
        assert_eq!(target.value().data(), &[0.0, 1.0]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_or_garbage_dir_yields_none() {
        let dir = tmpdir("empty");
        let mgr = CheckpointManager::new(&dir, 3).unwrap();
        assert!(mgr.load_latest(&[param(0.0)]).is_none());
        fs::write(dir.join("ckpt-00000007.ist"), b"not a snapshot").unwrap();
        fs::write(dir.join("unrelated.txt"), b"ignored").unwrap();
        assert!(mgr.load_latest(&[param(0.0)]).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_latest_values_accepts_stateless_and_honors_newer_than() {
        let dir = tmpdir("values");
        let mut mgr = CheckpointManager::new(&dir, 10).unwrap();
        let mut faults = FaultPlan::default();
        // Epoch 3 is value-only (no trainer state) — fine for serving.
        for epoch in 0..3 {
            write_epoch(&mut mgr, &param(epoch as f32 * 10.0), epoch, &mut faults);
        }
        let p3 = param(30.0);
        let bytes = snapshot::save(std::slice::from_ref(&p3)).unwrap();
        mgr.save(3, &bytes, &mut faults).unwrap();

        let target = param(0.0);
        let epoch = mgr
            .load_latest_values(std::slice::from_ref(&target), None)
            .unwrap();
        assert_eq!(epoch, 3);
        assert_eq!(target.value().data(), &[30.0, 31.0]);
        // Already serving epoch 3 ⇒ nothing newer, values untouched.
        target.set_value(Tensor::from_vec(vec![-1.0, -1.0], &[2]));
        assert!(mgr
            .load_latest_values(std::slice::from_ref(&target), Some(3))
            .is_none());
        assert_eq!(target.value().data(), &[-1.0, -1.0]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_latest_values_skips_corrupt_newer() {
        let dir = tmpdir("values-corrupt");
        let mut mgr = CheckpointManager::new(&dir, 10).unwrap();
        // Epoch 1 bit-flipped, epoch 2 torn: serving must fall back to 0.
        let mut faults = FaultPlan::parse("bitflip@ckpt2,torn_write@ckpt3").unwrap();
        for epoch in 0..3 {
            write_epoch(&mut mgr, &param(epoch as f32 * 100.0), epoch, &mut faults);
        }
        let target = param(-5.0);
        let epoch = mgr
            .load_latest_values(std::slice::from_ref(&target), None)
            .unwrap();
        assert_eq!(epoch, 0);
        assert_eq!(target.value().data(), &[0.0, 1.0]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn values_report_counts_skipped_checkpoints() {
        let dir = tmpdir("values-report");
        let mut mgr = CheckpointManager::new(&dir, 10).unwrap();
        // Epoch 1 bit-flipped, epoch 2 torn: the report must say both were
        // passed over on the way back to epoch 0.
        let mut faults = FaultPlan::parse("bitflip@ckpt2,torn_write@ckpt3").unwrap();
        for epoch in 0..3 {
            write_epoch(&mut mgr, &param(epoch as f32 * 100.0), epoch, &mut faults);
        }
        let target = param(-5.0);
        let report = mgr.load_latest_values_report(std::slice::from_ref(&target), None);
        assert_eq!(report.epoch, Some(0));
        assert_eq!(report.skipped, 2);
        // Already serving the newest epoch: nothing newer, nothing skipped.
        let report = mgr.load_latest_values_report(std::slice::from_ref(&target), Some(2));
        assert_eq!(
            report,
            ValuesLoadReport {
                epoch: None,
                skipped: 0
            }
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn value_only_snapshot_is_not_a_resume_point() {
        let dir = tmpdir("no-state");
        let mut mgr = CheckpointManager::new(&dir, 3).unwrap();
        let p = param(7.0);
        let bytes = snapshot::save(std::slice::from_ref(&p)).unwrap();
        mgr.save(0, &bytes, &mut FaultPlan::default()).unwrap();
        assert!(mgr.load_latest(std::slice::from_ref(&p)).is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
