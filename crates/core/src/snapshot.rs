//! Versioned, checksummed binary snapshots of trained parameters and
//! (optionally) the full trainer state needed for exact resume.
//!
//! ## Format v2 (current, little-endian)
//!
//! ```text
//! magic "ISNP" | u32 version=2 | u8 has_state | u32 param_count
//! param records…
//! [trainer-state block, iff has_state = 1]
//! u32 file_crc            CRC32 (IEEE) of every preceding byte
//! ```
//!
//! Each *record* is `u16 name_len | name | u8 rank | u32 dims… | f32 data…`
//! followed by a `u32` CRC32 of the record's own bytes, so corruption is
//! attributed to a specific parameter. The trailing whole-file CRC makes any
//! torn or truncated write detectable before a single value is applied.
//!
//! The trainer-state block is
//! `u64 epoch | 4×u64 rng_state | f32 lr | u64 adam_t | u32 n | n records`
//! where the records carry Adam's first/second moments under the names
//! `m:<param>` / `v:<param>`.
//!
//! ## Legacy format (v1, headerless)
//!
//! Pre-versioning snapshots start directly with the `u32` param count and
//! have no checksums. They are still loadable (read-only: values only, never
//! trainer state), and, like v2, must end where their last record does;
//! [`save`] always writes v2.

use ist_autograd::Param;
use ist_tensor::Tensor;
use std::collections::HashMap;

/// First bytes of every versioned snapshot.
pub const MAGIC: [u8; 4] = *b"ISNP";
/// Current format version written by [`save`] / [`save_with_state`].
pub const FORMAT_VERSION: u32 = 2;

/// Everything beyond parameter values that an exact training resume needs.
///
/// `adam_m` / `adam_v` are aligned index-for-index with the `params` slice
/// passed to [`save_with_state`] / returned by [`load_full`].
#[derive(Clone, Debug)]
pub struct TrainerState {
    /// Index of the last completed epoch (resume starts at `epoch + 1`).
    pub epoch: u64,
    /// Shuffle-RNG state captured at the end of that epoch.
    pub rng_state: [u64; 4],
    /// Learning rate in effect (including any recovery backoff).
    pub lr: f32,
    /// Adam's step counter.
    pub adam_t: u64,
    /// Adam first moments, aligned with the snapshot's parameter order.
    pub adam_m: Vec<Tensor>,
    /// Adam second moments, aligned with the snapshot's parameter order.
    pub adam_v: Vec<Tensor>,
}

/// CRC32 (IEEE 802.3, reflected) over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut crc = !0u32;
    for &b in data {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Serialises parameter values to v2 bytes (no trainer state).
pub fn save(params: &[Param]) -> Result<Vec<u8>, String> {
    save_with_state(params, None)
}

/// Serialises parameters plus, when given, the trainer state block.
/// Errors if any count/length exceeds its on-disk field width or the state
/// is not aligned with `params` — never silently truncates.
pub fn save_with_state(params: &[Param], state: Option<&TrainerState>) -> Result<Vec<u8>, String> {
    let mut buf = MAGIC.to_vec();
    buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    buf.push(state.is_some() as u8);
    let count: u32 = params
        .len()
        .try_into()
        .map_err(|_| format!("{} params exceed the u32 count field", params.len()))?;
    buf.extend_from_slice(&count.to_le_bytes());
    for p in params {
        put_record(&mut buf, &p.name(), &p.value())?;
    }
    if let Some(s) = state {
        if s.adam_m.len() != params.len() || s.adam_v.len() != params.len() {
            return Err(format!(
                "trainer state has {}/{} moments for {} params",
                s.adam_m.len(),
                s.adam_v.len(),
                params.len()
            ));
        }
        buf.extend_from_slice(&s.epoch.to_le_bytes());
        for w in s.rng_state {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        buf.extend_from_slice(&s.lr.to_le_bytes());
        buf.extend_from_slice(&s.adam_t.to_le_bytes());
        let n: u32 = (2 * params.len())
            .try_into()
            .map_err(|_| "moment count exceeds u32".to_string())?;
        buf.extend_from_slice(&n.to_le_bytes());
        for (p, m) in params.iter().zip(&s.adam_m) {
            put_record(&mut buf, &format!("m:{}", p.name()), m)?;
        }
        for (p, v) in params.iter().zip(&s.adam_v) {
            put_record(&mut buf, &format!("v:{}", p.name()), v)?;
        }
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    Ok(buf)
}

/// Restores parameter values by name (either format). Parameters present in
/// `params` but missing from the snapshot are left untouched; shape
/// mismatches and any checksum failure error out.
pub fn load(params: &[Param], bytes: Vec<u8>) -> Result<usize, String> {
    load_full(params, bytes).map(|(restored, _)| restored)
}

/// Like [`load`], but also returns the trainer state when the snapshot
/// carries one (v2 with `has_state`; legacy snapshots never do).
///
/// Nothing is applied to `params` until the entire snapshot — checksums,
/// shapes, and state alignment — has validated, so a rejected snapshot
/// leaves the model untouched.
pub fn load_full(
    params: &[Param],
    bytes: Vec<u8>,
) -> Result<(usize, Option<TrainerState>), String> {
    let (records, state) = if bytes.starts_with(&MAGIC) {
        parse_v2(&bytes)?
    } else {
        // A legacy file is `u32 count | records`, each a v2 record without
        // its checksum, and nothing after them.
        let mut r = Reader::new(&bytes);
        let records = r.records("snapshot header", false)?;
        if !r.done() {
            return Err("trailing bytes after snapshot body".into());
        }
        (records, None)
    };
    apply(params, records, state)
}

/// Writes one `name | rank | dims | data` record plus its CRC32.
fn put_record(buf: &mut Vec<u8>, name: &str, value: &Tensor) -> Result<(), String> {
    let start = buf.len();
    let name_len: u16 = name
        .len()
        .try_into()
        .map_err(|_| format!("param name `{:.40}…` exceeds {} bytes", name, u16::MAX))?;
    buf.extend_from_slice(&name_len.to_le_bytes());
    buf.extend_from_slice(name.as_bytes());
    let rank: u8 = value
        .rank()
        .try_into()
        .map_err(|_| format!("rank {} of {name} exceeds u8", value.rank()))?;
    buf.push(rank);
    for &d in value.shape() {
        let dim: u32 = d
            .try_into()
            .map_err(|_| format!("dimension {d} of {name} exceeds u32"))?;
        buf.extend_from_slice(&dim.to_le_bytes());
    }
    buf.reserve(4 * value.data().len() + 4);
    for &v in value.data() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    let crc = crc32(&buf[start..]);
    buf.extend_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// One parsed record: `(name, shape, data)`.
type Record = (String, Vec<usize>, Vec<f32>);

/// A parsed trainer-state block whose moments are not yet matched to params.
struct StateBlock {
    epoch: u64,
    rng_state: [u64; 4],
    lr: f32,
    adam_t: u64,
    moments: Vec<Record>,
}

/// Bounds-checked little-endian reader over a byte slice.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err(format!("truncated {what}"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    fn u32(&mut self, what: &str) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn f32(&mut self, what: &str) -> Result<f32, String> {
        Ok(f32::from_bits(self.u32(what)?))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Reads a `u32` count, then that many records, each followed by its
    /// CRC32 when `checked`. The count never sizes an allocation beyond
    /// what the unread bytes can hold.
    fn records(&mut self, what: &str, checked: bool) -> Result<Vec<Record>, String> {
        let count = self.u32(what)? as usize;
        // Smallest record: name length (2), rank (1), checksum (4).
        let min_record = if checked { 7 } else { 3 };
        let mut records = Vec::with_capacity(count.min((self.buf.len() - self.pos) / min_record));
        for _ in 0..count {
            records.push(self.record(checked)?);
        }
        Ok(records)
    }

    /// Reads one record and, when `checked`, verifies its own CRC.
    fn record(&mut self, checked: bool) -> Result<Record, String> {
        let start = self.pos;
        let name_len = self.u16("name length")? as usize;
        let name = String::from_utf8(self.take(name_len, "name")?.to_vec())
            .map_err(|e| format!("bad name: {e}"))?;
        let rank = self.u8("rank")? as usize;
        let mut shape = Vec::with_capacity(rank);
        for _ in 0..rank {
            shape.push(self.u32("shape")? as usize);
        }
        let len = shape
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or_else(|| format!("shape {shape:?} of {name} overflows element count"))?;
        let byte_len = len
            .checked_mul(4)
            .ok_or_else(|| format!("data size of {name} overflows"))?;
        let data: Vec<f32> = self
            .take(byte_len, "data")?
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        if checked {
            let end = self.pos;
            let stored_crc = self.u32("record checksum")?;
            let actual_crc = crc32(&self.buf[start..end]);
            if stored_crc != actual_crc {
                return Err(format!(
                    "checksum mismatch in record `{name}` (stored {stored_crc:08x}, computed {actual_crc:08x})"
                ));
            }
        }
        Ok((name, shape, data))
    }
}

/// Checks a v2 snapshot's whole-file CRC and header, then reads its records
/// and trainer-state block.
fn parse_v2(raw: &[u8]) -> Result<(Vec<Record>, Option<StateBlock>), String> {
    // Whole-file integrity first: nothing is parsed, let alone applied,
    // from a torn or bit-flipped snapshot.
    if raw.len() < MAGIC.len() + 4 + 1 + 4 + 4 {
        return Err("truncated snapshot header".into());
    }
    let (body, trailer) = raw.split_at(raw.len() - 4);
    let stored = u32::from_le_bytes(trailer.try_into().unwrap());
    let actual = crc32(body);
    if stored != actual {
        return Err(format!(
            "snapshot failed whole-file checksum (stored {stored:08x}, computed {actual:08x}) — torn write or corruption"
        ));
    }

    let mut r = Reader::new(&body[MAGIC.len()..]);
    let version = r.u32("version")?;
    if version != FORMAT_VERSION {
        return Err(format!(
            "unsupported snapshot version {version} (this build reads {FORMAT_VERSION} and legacy headerless)"
        ));
    }
    let has_state = match r.u8("state flag")? {
        0 => false,
        1 => true,
        other => return Err(format!("bad state flag {other}")),
    };
    let records = r.records("param count", true)?;
    let state = if has_state {
        let epoch = r.u64("epoch")?;
        let mut rng_state = [0u64; 4];
        for w in &mut rng_state {
            *w = r.u64("rng state")?;
        }
        Some(StateBlock {
            epoch,
            rng_state,
            lr: r.f32("learning rate")?,
            adam_t: r.u64("adam step")?,
            moments: r.records("moment count", true)?,
        })
    } else {
        None
    };
    if !r.done() {
        return Err("trailing bytes after snapshot body".into());
    }
    Ok((records, state))
}

/// Validates parsed records (and trainer state) against the model, then —
/// only if everything matches — writes the values into `params`.
fn apply(
    params: &[Param],
    records: Vec<Record>,
    state: Option<StateBlock>,
) -> Result<(usize, Option<TrainerState>), String> {
    let by_name: HashMap<String, &Param> = params.iter().map(|p| (p.name(), p)).collect();
    for (name, shape, _) in &records {
        if let Some(p) = by_name.get(name) {
            if &p.shape() != shape {
                return Err(format!(
                    "shape mismatch for {name}: snapshot {:?} vs model {:?}",
                    shape,
                    p.shape()
                ));
            }
        }
    }
    let state = match state {
        None => None,
        Some(block) => {
            let mut moments: HashMap<String, (Vec<usize>, Vec<f32>)> = block
                .moments
                .into_iter()
                .map(|(name, shape, data)| (name, (shape, data)))
                .collect();
            let mut adam_m = Vec::with_capacity(params.len());
            let mut adam_v = Vec::with_capacity(params.len());
            for p in params {
                for (prefix, out) in [("m", &mut adam_m), ("v", &mut adam_v)] {
                    let key = format!("{prefix}:{}", p.name());
                    let (shape, data) = moments
                        .remove(&key)
                        .ok_or_else(|| format!("trainer state lacks moment `{key}`"))?;
                    if shape != p.shape() {
                        return Err(format!(
                            "moment `{key}` shape {:?} vs param {:?}",
                            shape,
                            p.shape()
                        ));
                    }
                    out.push(Tensor::from_vec(data, &shape));
                }
            }
            Some(TrainerState {
                epoch: block.epoch,
                rng_state: block.rng_state,
                lr: block.lr,
                adam_t: block.adam_t,
                adam_m,
                adam_v,
            })
        }
    };

    let mut restored = 0usize;
    for (name, shape, data) in records {
        if let Some(p) = by_name.get(&name) {
            p.set_value(Tensor::from_vec(data, &shape));
            restored += 1;
        }
    }
    Ok((restored, state))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes params in the legacy headerless layout (the old `save`).
    fn save_legacy(params: &[Param]) -> Vec<u8> {
        let mut buf = (params.len() as u32).to_le_bytes().to_vec();
        for p in params {
            let name = p.name();
            let value = p.value();
            buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
            buf.extend_from_slice(name.as_bytes());
            buf.push(value.rank() as u8);
            for &d in value.shape() {
                buf.extend_from_slice(&(d as u32).to_le_bytes());
            }
            for &v in value.data() {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        buf
    }

    fn toy_state(params: &[Param]) -> TrainerState {
        TrainerState {
            epoch: 5,
            rng_state: [1, 2, 3, 4],
            lr: 0.125,
            adam_t: 77,
            adam_m: params.iter().map(|p| Tensor::ones(&p.shape())).collect(),
            adam_v: params.iter().map(|p| Tensor::zeros(&p.shape())).collect(),
        }
    }

    #[test]
    fn roundtrip_restores_values() {
        let a = Param::new("a", Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]));
        let b = Param::new("b", Tensor::from_vec(vec![4.0, 5.0], &[2, 1]));
        let snap = save(&[a.clone(), b.clone()]).unwrap();

        let a2 = Param::new("a", Tensor::zeros(&[3]));
        let b2 = Param::new("b", Tensor::zeros(&[2, 1]));
        let restored = load(&[a2.clone(), b2.clone()], snap).unwrap();
        assert_eq!(restored, 2);
        assert_eq!(a2.value().data(), &[1.0, 2.0, 3.0]);
        assert_eq!(b2.value().data(), &[4.0, 5.0]);
    }

    #[test]
    fn roundtrip_preserves_trainer_state() {
        let a = Param::new("a", Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let state = toy_state(std::slice::from_ref(&a));
        let snap = save_with_state(std::slice::from_ref(&a), Some(&state)).unwrap();

        let a2 = Param::new("a", Tensor::zeros(&[2]));
        let (restored, back) = load_full(std::slice::from_ref(&a2), snap).unwrap();
        assert_eq!(restored, 1);
        let back = back.expect("state present");
        assert_eq!(back.epoch, 5);
        assert_eq!(back.rng_state, [1, 2, 3, 4]);
        assert_eq!(back.lr, 0.125);
        assert_eq!(back.adam_t, 77);
        assert_eq!(back.adam_m[0].data(), &[1.0, 1.0]);
        assert_eq!(back.adam_v[0].data(), &[0.0, 0.0]);
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let a = Param::new("a", Tensor::zeros(&[3]));
        let snap = save(&[a]).unwrap();
        let wrong = Param::new("a", Tensor::zeros(&[4]));
        assert!(load(&[wrong], snap).unwrap_err().contains("shape mismatch"));
    }

    #[test]
    fn rejected_snapshot_leaves_params_untouched() {
        let good = Param::new("good", Tensor::ones(&[2]));
        let bad = Param::new("bad", Tensor::ones(&[3]));
        let snap = save(&[good.clone(), bad]).unwrap();
        // Model where `bad` has a different shape: the load must fail
        // without applying `good` either.
        let g2 = Param::new("good", Tensor::zeros(&[2]));
        let b2 = Param::new("bad", Tensor::zeros(&[4]));
        assert!(load(&[g2.clone(), b2], snap).is_err());
        assert_eq!(g2.value().data(), &[0.0, 0.0]);
    }

    #[test]
    fn unknown_params_are_skipped() {
        let a = Param::new("a", Tensor::ones(&[2]));
        let snap = save(&[a]).unwrap();
        let other = Param::new("b", Tensor::zeros(&[2]));
        let restored = load(std::slice::from_ref(&other), snap).unwrap();
        assert_eq!(restored, 0);
        assert_eq!(other.value().data(), &[0.0, 0.0]);
    }

    #[test]
    fn truncated_snapshot_errors() {
        let a = Param::new("a", Tensor::ones(&[8]));
        let mut snap = save(&[a]).unwrap();
        snap.truncate(snap.len() - 4);
        assert!(load(&[Param::new("a", Tensor::zeros(&[8]))], snap).is_err());
    }

    /// A 17-byte snapshot whose record count is `u32::MAX`, behind a valid
    /// whole-file checksum, must be rejected as truncated, not used to size
    /// an allocation (the engine's hot reload reads untrusted snapshot
    /// files).
    #[test]
    fn huge_record_count_errors_instead_of_allocating() {
        let mut body = MAGIC.to_vec();
        body.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        body.push(0);
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        let a = Param::new("a", Tensor::zeros(&[2]));
        let err = load_full(&[a], body).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn legacy_headerless_snapshot_still_loads() {
        let a = Param::new("a", Tensor::from_vec(vec![9.0, 8.0], &[2]));
        let legacy = save_legacy(&[a]);
        let a2 = Param::new("a", Tensor::zeros(&[2]));
        let (restored, state) = load_full(std::slice::from_ref(&a2), legacy).unwrap();
        assert_eq!(restored, 1);
        assert!(state.is_none(), "legacy snapshots carry no trainer state");
        assert_eq!(a2.value().data(), &[9.0, 8.0]);
    }

    /// Every proper prefix of a legacy file, and a legacy header claiming
    /// `u32::MAX` records, is rejected without panicking or touching the
    /// model.
    #[test]
    fn truncated_legacy_snapshot_errors_and_leaves_params_untouched() {
        let a = Param::new("a", Tensor::from_vec(vec![9.0, 8.0], &[2]));
        let b = Param::new("b", Tensor::from_vec(vec![7.0; 6], &[2, 3]));
        let legacy = save_legacy(&[a, b]);
        let fresh = || {
            [
                Param::new("a", Tensor::zeros(&[2])),
                Param::new("b", Tensor::zeros(&[2, 3])),
            ]
        };
        let mut huge = u32::MAX.to_le_bytes().to_vec();
        huge.extend_from_slice(&legacy[4..]);
        let inputs = (0..legacy.len())
            .map(|n| legacy[..n].to_vec())
            .chain([huge]);
        for input in inputs {
            let len = input.len();
            let targets = fresh();
            let err = load_full(&targets, input).unwrap_err();
            assert!(err.contains("truncated"), "{len} bytes: {err}");
            for t in &targets {
                assert!(t.value().data().iter().all(|&v| v == 0.0), "{len} bytes");
            }
        }
    }

    /// A file that is not v2 is read as legacy, so bytes that are no
    /// snapshot at all — 4 KiB of zeros reads as a count of 0 — must fail
    /// on what follows the records, not load as nothing restored.
    #[test]
    fn legacy_snapshot_with_trailing_bytes_is_rejected() {
        let a = Param::new("a", Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let err = load_full(std::slice::from_ref(&a), vec![0u8; 4096]).unwrap_err();
        assert!(err.contains("trailing bytes"), "{err}");
        assert_eq!(a.value().data(), &[1.0, 2.0]);

        let src = Param::new("a", Tensor::from_vec(vec![9.0, 8.0], &[2]));
        let mut legacy = save_legacy(&[src]);
        legacy.push(0);
        let err = load_full(std::slice::from_ref(&a), legacy).unwrap_err();
        assert!(err.contains("trailing bytes"), "{err}");
        assert_eq!(a.value().data(), &[1.0, 2.0]);
    }

    #[test]
    fn oversized_name_is_rejected_at_save() {
        let long = "x".repeat(u16::MAX as usize + 1);
        let p = Param::new(long, Tensor::zeros(&[1]));
        assert!(save(&[p]).unwrap_err().contains("exceeds"));
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let a = Param::new("a", Tensor::from_vec(vec![1.5, -2.5, 3.25], &[3]));
        let state = toy_state(std::slice::from_ref(&a));
        let snap = save_with_state(std::slice::from_ref(&a), Some(&state)).unwrap();
        let clean = snap.to_vec();
        for i in 0..clean.len() {
            let mut corrupt = clean.clone();
            corrupt[i] ^= 0x20;
            let target = Param::new("a", Tensor::zeros(&[3]));
            assert!(
                load_full(std::slice::from_ref(&target), corrupt).is_err(),
                "flip at byte {i}/{} went undetected",
                clean.len()
            );
        }
    }

    /// The on-disk bytes of a seeded model's checkpoint, trainer state
    /// included, are pinned by their CRC: a change to the writer that moves
    /// a single byte fails here.
    #[test]
    fn checkpoint_bytes_are_pinned() {
        use crate::{Isrec, IsrecConfig};
        use ist_data::{IntentWorld, WorldConfig};
        use ist_nn::Module;

        let ds = IntentWorld::new(WorldConfig::beauty_like().scaled(0.15)).generate(11);
        let cfg = IsrecConfig {
            d: 16,
            d_prime: 4,
            lambda: 4,
            max_len: 10,
            layers: 1,
            ..Default::default()
        };
        let params = Isrec::new(&ds, cfg, 7).params();
        let moment = |p: &Param, f: fn(f32) -> f32| {
            let v = p.value();
            Tensor::from_vec(v.data().iter().map(|&x| f(x)).collect(), v.shape())
        };
        let state = TrainerState {
            epoch: 3,
            rng_state: [11, 22, 33, 44],
            lr: 1e-3,
            adam_t: 150,
            adam_m: params.iter().map(|p| moment(p, |x| 0.5 * x)).collect(),
            adam_v: params.iter().map(|p| moment(p, |x| x * x)).collect(),
        };
        let snap = save_with_state(&params, Some(&state)).unwrap();
        assert_eq!((snap.len(), crc32(&snap)), (164_541, 558_161_692));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The standard IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
