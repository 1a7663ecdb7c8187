//! Explicit SIMD kernel layer with runtime CPU-feature dispatch.
//!
//! Every f32 hot path in the workspace (the GEMM micro-kernel, elementwise
//! maps, row reductions, the Adam update) funnels through this module. A
//! dispatch [`Level`] is detected once per process (`std::arch` feature
//! probes, cached in an atomic) and selects between three implementations of
//! each kernel:
//!
//! * `scalar` — portable lane-by-lane Rust, the reference semantics (on an
//!   x86-64 host without AVX2 it compiles to the SSE2 baseline);
//! * `avx2`   — 256-bit vectors;
//! * `avx512` — 512-bit vectors (`avx512f`).
//!
//! Each level has exactly one GEMM micro-kernel path: every packed column
//! block, including a panel's partial last block, runs the level's
//! `ColBlock` register tile.
//!
//! ## The determinism argument
//!
//! Every kernel here is written so that **all dispatch levels produce
//! bitwise-identical results**. Two rules make that possible:
//!
//! 1. *Vertical* kernels (GEMM, add/mul/axpy/scale, Adam) map vector lanes
//!    to **independent output elements** — in the GEMM micro-kernel, lanes
//!    are distinct output *columns* of the packed-B `NR` block. Each
//!    element's operation sequence (and therefore its rounding) is the same
//!    at every width; vectorisation only changes how many independent
//!    elements advance per instruction. A partial block's padded lanes
//!    compute on zeros and are never written back.
//! 2. *Horizontal* kernels (row sum/max) fix the accumulation
//!    *structure* — eight independent lane partials over `chunks_exact(8)`,
//!    combined in lane order, then a sequential tail — and every level
//!    implements exactly that structure. The scalar level emulates the
//!    eight lanes with an array; wider levels never use more than eight
//!    partials.
//!
//! No kernel fuses multiply-add: `mul` then `add`, two roundings, at every
//! level.
//!
//! ## Knob
//!
//! `IST_SIMD=scalar|avx2|avx512` forces a dispatch level (testing /
//! benchmarking). Requests above what the CPU supports are clamped to the
//! detected level with a one-time warning; malformed values (including the
//! retired `sse2`) warn once and fall back to the detected level.

// The only module in `ist-tensor` allowed to use `unsafe`: `std::arch`
// intrinsics and `#[target_feature]` wrappers. Every unsafe block is a
// feature-gated intrinsic call guarded by runtime detection in `level()`.
#![allow(unsafe_code)]

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Rows of `a` processed per GEMM micro-kernel pass. Shared with the
/// packing loops in [`crate::matmul`]. Identical at every dispatch level:
/// the `m % MR` remainder rows take the (zero-skipping) single-row path,
/// and which rows those are must not depend on the level.
pub const MR: usize = 4;
/// Output columns per GEMM register tile — one packed-B block, i.e. two
/// f32x8 registers at `avx2` or one f32x16 at `avx512`.
pub const NR: usize = 16;
/// Depth of one packed GEMM panel (rows of `b`), shared with the packing
/// loops in [`crate::matmul`]: the micro-kernel never sees more.
pub const KC: usize = 256;
/// NR blocks a remainder row of the GEMM micro-kernel accumulates per
/// pass, each on its own chain.
const GROUP: usize = 4;

/// SIMD dispatch level, ordered from narrowest to widest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Portable scalar lane emulation (the reference semantics).
    Scalar = 0,
    /// 256-bit AVX2.
    Avx2 = 1,
    /// 512-bit AVX-512F.
    Avx512 = 2,
}

impl Level {
    /// The knob/report spelling of this level.
    pub fn name(self) -> &'static str {
        match self {
            Level::Scalar => "scalar",
            Level::Avx2 => "avx2",
            Level::Avx512 => "avx512",
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            1 => Level::Avx2,
            2 => Level::Avx512,
            _ => Level::Scalar,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Level {
    type Err = String;

    fn from_str(s: &str) -> Result<Level, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Ok(Level::Scalar),
            "avx2" => Ok(Level::Avx2),
            "avx512" => Ok(Level::Avx512),
            other => Err(format!("unknown SIMD level {other:?}")),
        }
    }
}

/// Best level the running CPU supports (feature probes run once).
pub fn detected() -> Level {
    static DETECTED: OnceLock<Level> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                Level::Avx512
            } else if is_x86_feature_detected!("avx2") {
                Level::Avx2
            } else {
                Level::Scalar
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Level::Scalar
        }
    })
}

/// Every level this host can run, narrowest first (always starts with
/// `scalar`, always ends with [`detected`]).
pub fn available_levels() -> Vec<Level> {
    let det = detected();
    [Level::Scalar, Level::Avx2, Level::Avx512]
        .into_iter()
        .filter(|&l| l <= det)
        .collect()
}

const LEVEL_UNSET: u8 = u8::MAX;
static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

/// `IST_SIMD` resolution, run once per process: parse (malformed values
/// warn once via the shared knob machinery), then clamp to the detected
/// level (unsupported requests warn once too).
fn env_level() -> Level {
    static ENV: OnceLock<Level> = OnceLock::new();
    *ENV.get_or_init(|| {
        let det = detected();
        let req: Level = ist_obs::env::parse_or("IST_SIMD", det);
        if req > det {
            eprintln!("warning: IST_SIMD={req} is not supported by this CPU; using {det}");
            det
        } else {
            req
        }
    })
}

/// The active dispatch level (env override, else detected; cached).
pub fn level() -> Level {
    let v = LEVEL.load(Ordering::Relaxed);
    if v != LEVEL_UNSET {
        return Level::from_u8(v);
    }
    let l = env_level();
    // Benign race with `set_level`: last store wins either way.
    let _ = LEVEL.compare_exchange(LEVEL_UNSET, l as u8, Ordering::Relaxed, Ordering::Relaxed);
    Level::from_u8(LEVEL.load(Ordering::Relaxed))
}

/// Forces a dispatch level (bench/test hook; production code configures
/// via `IST_SIMD`). Requests above the detected level are clamped; returns
/// the level actually in effect.
pub fn set_level(level: Level) -> Level {
    let effective = level.min(detected());
    LEVEL.store(effective as u8, Ordering::Relaxed);
    effective
}

// ---------------------------------------------------------------------------
// 8-lane f32 vector abstraction (elementwise + lane-structured reductions).
// ---------------------------------------------------------------------------

/// Eight f32 lanes. Implementations must be *semantically identical* per
/// lane: same operation, same rounding, same NaN behaviour — the scalar
/// impl is the specification, the SIMD impls are transcriptions.
trait V8: Copy {
    fn splat(x: f32) -> Self;
    /// Loads lanes from `s[..8]`.
    fn load(s: &[f32]) -> Self;
    /// Stores lanes into `s[..8]`.
    fn store(self, s: &mut [f32]);
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;
    fn div(self, o: Self) -> Self;
    fn sqrt(self) -> Self;
    /// Per-lane `if self > o { self } else { o }` — the `maxps` semantics
    /// (new operand first): NaN lanes in `self` never win, NaN lanes in
    /// `o` are kept.
    fn pick_greater(self, o: Self) -> Self;
    fn to_array(self) -> [f32; 8];
}

/// The reference lane semantics: plain scalar ops on an array.
#[derive(Clone, Copy)]
struct ScalarV([f32; 8]);

impl V8 for ScalarV {
    #[inline(always)]
    fn splat(x: f32) -> Self {
        ScalarV([x; 8])
    }
    #[inline(always)]
    fn load(s: &[f32]) -> Self {
        ScalarV(s[..8].try_into().unwrap())
    }
    #[inline(always)]
    fn store(self, s: &mut [f32]) {
        s[..8].copy_from_slice(&self.0);
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        ScalarV(std::array::from_fn(|i| self.0[i] + o.0[i]))
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        ScalarV(std::array::from_fn(|i| self.0[i] - o.0[i]))
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        ScalarV(std::array::from_fn(|i| self.0[i] * o.0[i]))
    }
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        ScalarV(std::array::from_fn(|i| self.0[i] / o.0[i]))
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        ScalarV(std::array::from_fn(|i| self.0[i].sqrt()))
    }
    #[inline(always)]
    fn pick_greater(self, o: Self) -> Self {
        ScalarV(std::array::from_fn(|i| {
            if self.0[i] > o.0[i] {
                self.0[i]
            } else {
                o.0[i]
            }
        }))
    }
    #[inline(always)]
    fn to_array(self) -> [f32; 8] {
        self.0
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! SIMD transcriptions of the scalar lane semantics. Intrinsic calls
    //! are `unsafe` only because of the feature requirement; callers reach
    //! these types exclusively through `#[target_feature]` wrappers picked
    //! by `level()`, which never exceeds the detected feature set.
    use super::V8;
    use std::arch::x86_64::*;

    /// One AVX2 register (also serves the `avx512` level for 8-lane work;
    /// the lane *structure* of reductions is fixed at 8 by contract).
    #[derive(Clone, Copy)]
    pub(super) struct Avx2V(__m256);

    impl V8 for Avx2V {
        #[inline(always)]
        fn splat(x: f32) -> Self {
            unsafe { Avx2V(_mm256_set1_ps(x)) }
        }
        #[inline(always)]
        fn load(s: &[f32]) -> Self {
            debug_assert!(s.len() >= 8);
            unsafe { Avx2V(_mm256_loadu_ps(s.as_ptr())) }
        }
        #[inline(always)]
        fn store(self, s: &mut [f32]) {
            debug_assert!(s.len() >= 8);
            unsafe { _mm256_storeu_ps(s.as_mut_ptr(), self.0) }
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            unsafe { Avx2V(_mm256_add_ps(self.0, o.0)) }
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            unsafe { Avx2V(_mm256_sub_ps(self.0, o.0)) }
        }
        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            unsafe { Avx2V(_mm256_mul_ps(self.0, o.0)) }
        }
        #[inline(always)]
        fn div(self, o: Self) -> Self {
            unsafe { Avx2V(_mm256_div_ps(self.0, o.0)) }
        }
        #[inline(always)]
        fn sqrt(self) -> Self {
            unsafe { Avx2V(_mm256_sqrt_ps(self.0)) }
        }
        #[inline(always)]
        fn pick_greater(self, o: Self) -> Self {
            unsafe { Avx2V(_mm256_max_ps(self.0, o.0)) }
        }
        #[inline(always)]
        fn to_array(self) -> [f32; 8] {
            let mut out = [0.0f32; 8];
            self.store(&mut out);
            out
        }
    }
}

/// Generates the runtime-dispatched front door for a generic kernel body:
/// `avx2`/`avx512` levels run the AVX2 transcription, `scalar` (and
/// non-x86-64 builds) the reference lanes.
macro_rules! dispatch8 {
    ($body:ident => $(#[$doc:meta])* $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?) => {
        $(#[$doc])*
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                unsafe fn avx2($($arg: $ty),*) $(-> $ret)? {
                    $body::<x86::Avx2V>($($arg),*)
                }
                match level() {
                    // SAFETY: `level()` is clamped to `detected()`, so the
                    // required CPU features are present.
                    Level::Avx2 | Level::Avx512 => return unsafe { avx2($($arg),*) },
                    Level::Scalar => {}
                }
            }
            $body::<ScalarV>($($arg),*)
        }
    };
}

#[inline(always)]
fn axpy_body<V: V8>(y: &mut [f32], s: f32, x: &[f32]) {
    let (main, tail) = split8(y.len());
    let sv = V::splat(s);
    for i in (0..main).step_by(8) {
        V::load(&y[i..])
            .add(sv.mul(V::load(&x[i..])))
            .store(&mut y[i..]);
    }
    for i in tail {
        y[i] += s * x[i];
    }
}

#[inline(always)]
fn add_assign_body<V: V8>(y: &mut [f32], x: &[f32]) {
    let (main, tail) = split8(y.len());
    for i in (0..main).step_by(8) {
        V::load(&y[i..]).add(V::load(&x[i..])).store(&mut y[i..]);
    }
    for i in tail {
        y[i] += x[i];
    }
}

#[inline(always)]
fn scale_in_place_body<V: V8>(y: &mut [f32], s: f32) {
    let (main, tail) = split8(y.len());
    let sv = V::splat(s);
    for i in (0..main).step_by(8) {
        V::load(&y[i..]).mul(sv).store(&mut y[i..]);
    }
    for i in tail {
        y[i] *= s;
    }
}

#[inline(always)]
fn row_sum_body<V: V8>(x: &[f32]) -> f32 {
    let (main, tail) = split8(x.len());
    let mut acc = V::splat(0.0);
    for i in (0..main).step_by(8) {
        acc = acc.add(V::load(&x[i..]));
    }
    let lanes = acc.to_array();
    let mut s = lanes[0];
    for &l in &lanes[1..] {
        s += l;
    }
    for i in tail {
        s += x[i];
    }
    s
}

#[inline(always)]
fn row_max_body<V: V8>(x: &[f32]) -> f32 {
    let (main, tail) = split8(x.len());
    let mut acc = V::splat(f32::NEG_INFINITY);
    for i in (0..main).step_by(8) {
        acc = V::load(&x[i..]).pick_greater(acc);
    }
    let lanes = acc.to_array();
    let mut m = lanes[0];
    for &l in &lanes[1..] {
        if l > m {
            m = l;
        }
    }
    for i in tail {
        if x[i] > m {
            m = x[i];
        }
    }
    m
}

/// The four arithmetic operations of [`binary_kernel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `x + y`.
    Add,
    /// `x - y`.
    Sub,
    /// `x * y`.
    Mul,
    /// `x / y`.
    Div,
}

/// One operand of a [`BinaryKernel`] call over `out.len() / n` runs of `n`
/// output elements: run `r` reads `data` from `start + r·row` on, one
/// value per output element when `step` is 1, or that one value repeated
/// when `step` is 0 (the operand is broadcast along the run).
#[derive(Clone, Copy, Debug)]
pub struct Side<'a> {
    /// The operand's values.
    pub data: &'a [f32],
    /// Where run 0 starts.
    pub start: usize,
    /// How far apart the runs start.
    pub row: usize,
    /// 1 or 0: the run's stride through `data`.
    pub step: usize,
}

impl<'a> Side<'a> {
    /// A slice read along one run, as many values as the output has.
    pub fn run(data: &'a [f32]) -> Side<'a> {
        Side {
            data,
            start: 0,
            row: 0,
            step: 1,
        }
    }

    /// `data[0]` for every output element.
    pub fn splat(data: &'a [f32]) -> Side<'a> {
        Side {
            data,
            start: 0,
            row: 0,
            step: 0,
        }
    }
}

/// One [`BinOp`] as a lane operation and its scalar transcription.
trait Arith {
    fn lanes<V: V8>(x: V, y: V) -> V;
    fn one(x: f32, y: f32) -> f32;
}

macro_rules! arith {
    ($name:ident, $lanes:ident, $op:tt) => {
        struct $name;
        impl Arith for $name {
            #[inline(always)]
            fn lanes<V: V8>(x: V, y: V) -> V {
                x.$lanes(y)
            }
            #[inline(always)]
            fn one(x: f32, y: f32) -> f32 {
                x $op y
            }
        }
    };
}
arith!(AddOp, add, +);
arith!(SubOp, sub, -);
arith!(MulOp, mul, *);
arith!(DivOp, div, /);

/// `out[r·n + j] = x(r, j) op y(r, j)` over the runs of `n` described by
/// `x` and `y` (see [`Side`]): the same single operation per element at
/// every level, on eight lanes and then a scalar tail per run.
#[inline(always)]
fn binary_body<V: V8, O: Arith>(x: Side<'_>, y: Side<'_>, n: usize, out: &mut [f32]) {
    let (main, tail) = split8(n);
    for (r, out) in out.chunks_exact_mut(n.max(1)).enumerate() {
        let (xi, yi) = (x.start + r * x.row, y.start + r * y.row);
        match (x.step, y.step) {
            (1, 1) => {
                let (x, y) = (&x.data[xi..xi + n], &y.data[yi..yi + n]);
                for i in (0..main).step_by(8) {
                    O::lanes(V::load(&x[i..]), V::load(&y[i..])).store(&mut out[i..]);
                }
                for i in tail.clone() {
                    out[i] = O::one(x[i], y[i]);
                }
            }
            (1, _) => {
                let (x, y) = (&x.data[xi..xi + n], y.data[yi]);
                let yv = V::splat(y);
                for i in (0..main).step_by(8) {
                    O::lanes(V::load(&x[i..]), yv).store(&mut out[i..]);
                }
                for i in tail.clone() {
                    out[i] = O::one(x[i], y);
                }
            }
            (_, 1) => {
                let (x, y) = (x.data[xi], &y.data[yi..yi + n]);
                let xv = V::splat(x);
                for i in (0..main).step_by(8) {
                    O::lanes(xv, V::load(&y[i..])).store(&mut out[i..]);
                }
                for i in tail.clone() {
                    out[i] = O::one(x, y[i]);
                }
            }
            _ => out.fill(O::one(x.data[xi], y.data[yi])),
        }
    }
}

type RawBinaryKernel = unsafe fn(Side<'_>, Side<'_>, usize, &mut [f32]);

/// A resolved elementwise arithmetic kernel: resolve once per tensor op
/// with [`binary_kernel`], then call it per chunk or per block of
/// broadcast runs. Calling it is safe for the same reason as
/// [`GemmKernel`]: its only constructor stays within `detected()`.
#[derive(Clone, Copy)]
pub struct BinaryKernel(RawBinaryKernel);

impl BinaryKernel {
    /// `out[r·n + j] = x(r, j) op y(r, j)` for every run `r` of `n` in
    /// `out` (a whole number of them); see [`Side`].
    #[inline]
    pub fn call(self, x: Side<'_>, y: Side<'_>, n: usize, out: &mut [f32]) {
        debug_assert!(out.len().is_multiple_of(n.max(1)));
        // SAFETY: `binary_kernel` selects feature-gated bodies strictly
        // within `detected()`; the bodies are bounds-checked safe Rust.
        unsafe { (self.0)(x, y, n, out) }
    }
}

/// `op`'s kernel at the active level.
fn resolve<O: Arith>() -> RawBinaryKernel {
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx2")]
        unsafe fn avx2<O: Arith>(x: Side<'_>, y: Side<'_>, n: usize, out: &mut [f32]) {
            binary_body::<x86::Avx2V, O>(x, y, n, out)
        }
        match level() {
            Level::Avx2 | Level::Avx512 => return avx2::<O>,
            Level::Scalar => {}
        }
    }
    binary_body::<ScalarV, O>
}

/// Selects the kernel for `op` at the active level (see [`BinaryKernel`]).
pub fn binary_kernel(op: BinOp) -> BinaryKernel {
    BinaryKernel(match op {
        BinOp::Add => resolve::<AddOp>(),
        BinOp::Sub => resolve::<SubOp>(),
        BinOp::Mul => resolve::<MulOp>(),
        BinOp::Div => resolve::<DivOp>(),
    })
}

/// Adam hyper-state for [`adam_step`], precomputed once per optimizer step.
#[derive(Clone, Copy, Debug)]
pub struct AdamConsts {
    /// First-moment decay β₁.
    pub b1: f32,
    /// Second-moment decay β₂.
    pub b2: f32,
    /// Bias correction `1 - β₁ᵗ`.
    pub bc1: f32,
    /// Bias correction `1 - β₂ᵗ`.
    pub bc2: f32,
    /// Denominator stabiliser ε.
    pub eps: f32,
    /// Decoupled weight decay (0 disables the term).
    pub wd: f32,
    /// Learning rate.
    pub lr: f32,
}

#[inline(always)]
fn adam_body<V: V8>(value: &mut [f32], grad: &[f32], m: &mut [f32], v: &mut [f32], c: AdamConsts) {
    let (main, tail) = split8(value.len());
    let (b1, b2) = (V::splat(c.b1), V::splat(c.b2));
    let (omb1, omb2) = (V::splat(1.0 - c.b1), V::splat(1.0 - c.b2));
    let (bc1, bc2) = (V::splat(c.bc1), V::splat(c.bc2));
    let (eps, wd, lr) = (V::splat(c.eps), V::splat(c.wd), V::splat(c.lr));
    for i in (0..main).step_by(8) {
        let g = V::load(&grad[i..]);
        // Same per-element operation order as the scalar tail below — lanes
        // are independent parameters, so the update is bitwise identical at
        // every dispatch level.
        let mi = b1.mul(V::load(&m[i..])).add(omb1.mul(g));
        let vi = b2.mul(V::load(&v[i..])).add(omb2.mul(g).mul(g));
        let mut upd = mi.div(bc1).div(vi.div(bc2).sqrt().add(eps));
        if c.wd > 0.0 {
            upd = upd.add(wd.mul(V::load(&value[i..])));
        }
        let val = V::load(&value[i..]).sub(lr.mul(upd));
        mi.store(&mut m[i..]);
        vi.store(&mut v[i..]);
        val.store(&mut value[i..]);
    }
    for i in tail {
        let g = grad[i];
        m[i] = c.b1 * m[i] + (1.0 - c.b1) * g;
        v[i] = c.b2 * v[i] + (1.0 - c.b2) * g * g;
        let mut upd = (m[i] / c.bc1) / ((v[i] / c.bc2).sqrt() + c.eps);
        if c.wd > 0.0 {
            upd += c.wd * value[i];
        }
        value[i] -= c.lr * upd;
    }
}

/// `(main, tail_range)`: the longest multiple-of-8 prefix and the indices
/// after it.
#[inline(always)]
fn split8(n: usize) -> (usize, std::ops::Range<usize>) {
    let main = n - n % 8;
    (main, main..n)
}

dispatch8!(axpy_body =>
    /// `y[i] += s * x[i]`.
    pub fn axpy(y: &mut [f32], s: f32, x: &[f32]));
dispatch8!(add_assign_body =>
    /// `y[i] += x[i]`.
    pub fn add_assign(y: &mut [f32], x: &[f32]));
dispatch8!(scale_in_place_body =>
    /// `y[i] *= s`.
    pub fn scale_in_place(y: &mut [f32], s: f32));
dispatch8!(row_sum_body =>
    /// Lane-structured sum: eight in-order partials over `chunks_exact(8)`
    /// combined in lane order, then a sequential tail. Identical bits at
    /// every dispatch level; reduces to a plain sequential sum for
    /// `x.len() < 8`.
    pub fn row_sum(x: &[f32]) -> f32);
dispatch8!(row_max_body =>
    /// Lane-structured max with `maxps` pick semantics (`new > acc` wins,
    /// NaN never wins, `-∞` identity). Identical bits at every level.
    pub fn row_max(x: &[f32]) -> f32);

/// One Adam update over a parameter's flat buffers; `value`, `grad`, `m`
/// and `v` must share a length. Same operation order per element at every
/// dispatch level (and as the pre-SIMD scalar loop), so optimizer
/// trajectories are bitwise stable across levels.
pub fn adam_step(value: &mut [f32], grad: &[f32], m: &mut [f32], v: &mut [f32], c: AdamConsts) {
    assert!(
        value.len() == grad.len() && value.len() == m.len() && value.len() == v.len(),
        "adam_step buffers disagree: value {} grad {} m {} v {}",
        value.len(),
        grad.len(),
        m.len(),
        v.len()
    );
    adam_step_dispatch(value, grad, m, v, c);
}

dispatch8!(adam_body =>
    fn adam_step_dispatch(value: &mut [f32], grad: &[f32], m: &mut [f32], v: &mut [f32], c: AdamConsts));

// ---------------------------------------------------------------------------
// GEMM micro-kernel: one packed panel of B against MR-row blocks of A.
// ---------------------------------------------------------------------------

/// Geometry of one packed-panel micro-kernel invocation (see
/// [`crate::matmul`] for the packing layout).
#[derive(Clone, Copy, Debug)]
pub struct PanelGeom {
    /// Rows of `a` / `out`.
    pub m: usize,
    /// Stride of `a`: between its rows, or between its depths when
    /// `a_t` is set.
    pub lda: usize,
    /// `a` is read transposed: element `(i, p)` is `a[p·lda + i]`, so a
    /// four-row tile is four adjacent floats at each depth. Otherwise it
    /// is `a[i·lda + p]`.
    pub a_t: bool,
    /// Columns of `out` (row stride).
    pub n: usize,
    /// First depth index covered by this panel.
    pub kk: usize,
    /// Depth of this panel (≤ KC).
    pub kc: usize,
    /// First output column covered by this panel.
    pub jj: usize,
    /// Output columns covered by this panel. The panel holds
    /// `nc.div_ceil(NR)` NR-wide blocks; the last one is zero-padded when
    /// `nc % NR != 0`.
    pub nc: usize,
}

/// A register tile covering the NR output columns of one packed block.
/// Lanes map to *independent output columns*, so mul/add accumulation is
/// bitwise identical to the scalar reference at every width.
trait ColBlock: Copy {
    fn zero() -> Self;
    fn splat(x: f32) -> Self;
    /// Loads `s[..NR]`.
    fn load(s: &[f32]) -> Self;
    fn add(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;
    /// `out[j] += lane j` for `j < NR`.
    fn accum_into(self, out: &mut [f32]);
    fn to_array(self) -> [f32; NR];
}

/// Adds the first `width` lanes of `acc` into `out`: the whole tile for a
/// full block, only the real columns of a zero-padded partial block.
#[inline(always)]
fn flush<C: ColBlock>(acc: C, out: &mut [f32], width: usize) {
    if width == NR {
        acc.accum_into(out);
    } else {
        for (slot, s) in out[..width].iter_mut().zip(acc.to_array()) {
            *slot += s;
        }
    }
}

#[derive(Clone, Copy)]
struct ScalarBlock([f32; NR]);

impl ColBlock for ScalarBlock {
    #[inline(always)]
    fn zero() -> Self {
        ScalarBlock([0.0; NR])
    }
    #[inline(always)]
    fn splat(x: f32) -> Self {
        ScalarBlock([x; NR])
    }
    #[inline(always)]
    fn load(s: &[f32]) -> Self {
        ScalarBlock(s[..NR].try_into().unwrap())
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        ScalarBlock(std::array::from_fn(|i| self.0[i] + o.0[i]))
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        ScalarBlock(std::array::from_fn(|i| self.0[i] * o.0[i]))
    }
    #[inline(always)]
    fn accum_into(self, out: &mut [f32]) {
        for (slot, &s) in out[..NR].iter_mut().zip(&self.0) {
            *slot += s;
        }
    }
    #[inline(always)]
    fn to_array(self) -> [f32; NR] {
        self.0
    }
}

#[cfg(target_arch = "x86_64")]
mod x86_gemm {
    //! x86-64 register tiles for the NR=16 column block. Same SAFETY story
    //! as the 8-lane types: only reached through feature-gated wrappers.
    use super::{ColBlock, NR};
    use std::arch::x86_64::*;

    #[derive(Clone, Copy)]
    pub(super) struct Avx2Block([__m256; 2]);

    impl ColBlock for Avx2Block {
        #[inline(always)]
        fn zero() -> Self {
            unsafe { Avx2Block([_mm256_setzero_ps(); 2]) }
        }
        #[inline(always)]
        fn splat(x: f32) -> Self {
            unsafe { Avx2Block([_mm256_set1_ps(x); 2]) }
        }
        #[inline(always)]
        fn load(s: &[f32]) -> Self {
            debug_assert!(s.len() >= NR);
            unsafe {
                Avx2Block([
                    _mm256_loadu_ps(s.as_ptr()),
                    _mm256_loadu_ps(s.as_ptr().add(8)),
                ])
            }
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            unsafe {
                Avx2Block([
                    _mm256_add_ps(self.0[0], o.0[0]),
                    _mm256_add_ps(self.0[1], o.0[1]),
                ])
            }
        }
        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            unsafe {
                Avx2Block([
                    _mm256_mul_ps(self.0[0], o.0[0]),
                    _mm256_mul_ps(self.0[1], o.0[1]),
                ])
            }
        }
        #[inline(always)]
        fn accum_into(self, out: &mut [f32]) {
            debug_assert!(out.len() >= NR);
            unsafe {
                let p = out.as_mut_ptr();
                _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), self.0[0]));
                let p = p.add(8);
                _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), self.0[1]));
            }
        }
        #[inline(always)]
        fn to_array(self) -> [f32; NR] {
            let mut lanes = [0.0f32; NR];
            // SAFETY: the two 8-float stores cover exactly `lanes`' 16.
            unsafe {
                _mm256_storeu_ps(lanes.as_mut_ptr(), self.0[0]);
                _mm256_storeu_ps(lanes.as_mut_ptr().add(8), self.0[1]);
            }
            lanes
        }
    }

    #[derive(Clone, Copy)]
    pub(super) struct Avx512Block(__m512);

    impl ColBlock for Avx512Block {
        #[inline(always)]
        fn zero() -> Self {
            unsafe { Avx512Block(_mm512_setzero_ps()) }
        }
        #[inline(always)]
        fn splat(x: f32) -> Self {
            unsafe { Avx512Block(_mm512_set1_ps(x)) }
        }
        #[inline(always)]
        fn load(s: &[f32]) -> Self {
            debug_assert!(s.len() >= NR);
            unsafe { Avx512Block(_mm512_loadu_ps(s.as_ptr())) }
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            unsafe { Avx512Block(_mm512_add_ps(self.0, o.0)) }
        }
        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            unsafe { Avx512Block(_mm512_mul_ps(self.0, o.0)) }
        }
        #[inline(always)]
        fn accum_into(self, out: &mut [f32]) {
            debug_assert!(out.len() >= NR);
            unsafe {
                let p = out.as_mut_ptr();
                _mm512_storeu_ps(p, _mm512_add_ps(_mm512_loadu_ps(p), self.0));
            }
        }
        #[inline(always)]
        fn to_array(self) -> [f32; NR] {
            let mut lanes = [0.0f32; NR];
            // SAFETY: one 16-float store into `lanes`, which holds 16.
            unsafe { _mm512_storeu_ps(lanes.as_mut_ptr(), self.0) };
            lanes
        }
    }
}

/// Computes one packed panel's contribution to `out`. Ports the blocked
/// kernel's micro-loop verbatim: the MR×NR register tile is held across
/// the whole panel depth, and `m % MR` remainder rows take a single-row
/// path with a per-element zero skip, [`GROUP`] full blocks per pass.
/// Every block, the zero-padded partial one included, runs the level's
/// [`ColBlock`]; [`flush`] writes back only a partial block's real
/// columns. `TA` selects how `a` is read (see [`PanelGeom::a_t`]); only
/// the loads differ, so both layouts give the same bits for the same
/// values.
#[inline(always)]
fn gemm_panel_body<C: ColBlock, const TA: bool>(
    a: &[f32],
    row_zero: &[bool],
    panel: &[f32],
    out: &mut [f32],
    g: PanelGeom,
) {
    let PanelGeom {
        m,
        lda,
        n,
        kk,
        kc,
        jj,
        nc,
        ..
    } = g;
    let mut i = 0;
    // Micro-kernel: an MR×NR accumulator tile held in registers across the
    // whole depth, flushed to `out` once per panel.
    while i + MR <= m {
        if row_zero[i..i + MR].iter().all(|&z| z) {
            i += MR;
            continue;
        }
        let out = &mut out[i * n + jj..];
        if TA {
            // The tile's four values at each depth are adjacent in `a`,
            // read in place: one load per depth, where a gather into a
            // packed tile costs a load and a store per depth and is slower
            // even when done once per KC panel.
            let tile = &a[kk * lda + i..];
            let at = |p: usize| -> [f32; MR] { tile[p * lda..p * lda + MR].try_into().unwrap() };
            tile_blocks::<C>(at, panel, out, n, kc, nc);
        } else {
            let row = |r: usize| &a[(i + r) * lda + kk..(i + r) * lda + kk + kc];
            let (a0, a1, a2, a3) = (row(0), row(1), row(2), row(3));
            tile_blocks::<C>(|p| [a0[p], a1[p], a2[p], a3[p]], panel, out, n, kc, nc);
        }
        i += MR;
    }
    while i < m {
        if row_zero[i] {
            i += 1;
            continue;
        }
        let row_out = &mut out[i * n + jj..];
        if TA {
            let xs = a[kk * lda + i..].iter().step_by(lda).take(kc);
            remainder_row::<C>(xs.copied(), panel, row_out, kc, nc);
        } else {
            let xs = a[i * lda + kk..i * lda + kk + kc].iter();
            remainder_row::<C>(xs.copied(), panel, row_out, kc, nc);
        }
        i += 1;
    }
}

/// One MR-row tile of [`gemm_panel_body`] over every packed block of the
/// panel, given the tile's four values at each depth. `out` starts at the
/// tile's first output element; rows are `n` apart.
#[inline(always)]
fn tile_blocks<C: ColBlock>(
    tile: impl Fn(usize) -> [f32; MR],
    panel: &[f32],
    out: &mut [f32],
    n: usize,
    kc: usize,
    nc: usize,
) {
    for c in (0..nc).step_by(NR) {
        let blk = &panel[c * kc..(c + NR) * kc];
        let mut acc = [C::zero(); MR];
        for p in 0..kc {
            let bv = C::load(&blk[p * NR..]);
            for (accr, x) in acc.iter_mut().zip(tile(p)) {
                *accr = accr.add(C::splat(x).mul(bv));
            }
        }
        for (r, accr) in acc.into_iter().enumerate() {
            flush(accr, &mut out[r * n + c..], NR.min(nc - c));
        }
    }
}

/// One remainder row of [`gemm_panel_body`] over the panel, given the
/// row's `kc` values in depth order. Four NR blocks per pass: four
/// independent accumulator chains share one splat of `a[i][p]`, so the
/// row streams the panel instead of waiting on one dependent add chain.
/// Each column is still one chain from +0.0 over `p` ascending, with zero
/// values skipped, so the grouping changes no bits.
#[inline(always)]
fn remainder_row<C: ColBlock>(
    xs: impl Iterator<Item = f32> + Clone,
    panel: &[f32],
    row_out: &mut [f32],
    kc: usize,
    nc: usize,
) {
    let grouped = nc / (GROUP * NR) * (GROUP * NR);
    for c in (0..grouped).step_by(GROUP * NR) {
        let blks: [&[f32]; GROUP] =
            std::array::from_fn(|q| &panel[(c + q * NR) * kc..(c + (q + 1) * NR) * kc]);
        let mut acc = [C::zero(); GROUP];
        for (p, x) in xs.clone().enumerate() {
            if x == 0.0 {
                continue;
            }
            let xv = C::splat(x);
            for (accq, blk) in acc.iter_mut().zip(&blks) {
                *accq = accq.add(xv.mul(C::load(&blk[p * NR..])));
            }
        }
        for (q, accq) in acc.into_iter().enumerate() {
            accq.accum_into(&mut row_out[c + q * NR..]);
        }
    }
    // Leftover blocks (and the zero-padded partial one), one at a time.
    for c in (grouped..nc).step_by(NR) {
        let blk = &panel[c * kc..(c + NR) * kc];
        let mut acc = C::zero();
        for (p, x) in xs.clone().enumerate() {
            if x == 0.0 {
                continue;
            }
            acc = acc.add(C::splat(x).mul(C::load(&blk[p * NR..])));
        }
        flush(acc, &mut row_out[c..], NR.min(nc - c));
    }
}

type RawGemmKernel = unsafe fn(&[f32], &[bool], &[f32], &mut [f32], PanelGeom);

/// A resolved GEMM micro-kernel: one invocation per packed panel over
/// `(a, row_zero, panel, out, geom)`. Obtainable only from
/// [`gemm_kernel`], which keeps the safety invariant that the selected
/// implementation never exceeds the detected CPU features — so calling it
/// is safe.
#[derive(Clone, Copy)]
pub struct GemmKernel(RawGemmKernel);

impl GemmKernel {
    /// Runs the micro-kernel over one packed panel.
    #[inline]
    pub fn call(self, a: &[f32], row_zero: &[bool], panel: &[f32], out: &mut [f32], g: PanelGeom) {
        // SAFETY: `gemm_kernel` (the only constructor) selects
        // feature-gated wrappers strictly within `detected()`, so the
        // required CPU features are present; the bodies themselves are
        // bounds-checked safe Rust.
        unsafe { (self.0)(a, row_zero, panel, out, g) }
    }
}

/// [`gemm_panel_body`] at tile type `C`, for either layout of `a`.
#[inline(always)]
fn gemm_panel<C: ColBlock>(a: &[f32], rz: &[bool], p: &[f32], out: &mut [f32], g: PanelGeom) {
    if g.a_t {
        gemm_panel_body::<C, true>(a, rz, p, out, g);
    } else {
        gemm_panel_body::<C, false>(a, rz, p, out, g);
    }
}

fn gemm_panel_scalar(a: &[f32], rz: &[bool], p: &[f32], out: &mut [f32], g: PanelGeom) {
    gemm_panel::<ScalarBlock>(a, rz, p, out, g);
}

#[cfg(target_arch = "x86_64")]
mod x86_kernels {
    use super::*;

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn avx2(a: &[f32], rz: &[bool], p: &[f32], out: &mut [f32], g: PanelGeom) {
        gemm_panel::<x86_gemm::Avx2Block>(a, rz, p, out, g);
    }

    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn avx512(a: &[f32], rz: &[bool], p: &[f32], out: &mut [f32], g: PanelGeom) {
        gemm_panel::<x86_gemm::Avx512Block>(a, rz, p, out, g);
    }
}

/// Selects the GEMM micro-kernel for the active level. Resolve once per
/// GEMM call, not per panel.
pub fn gemm_kernel() -> GemmKernel {
    #[cfg(target_arch = "x86_64")]
    {
        match level() {
            Level::Avx512 => return GemmKernel(x86_kernels::avx512),
            Level::Avx2 => return GemmKernel(x86_kernels::avx2),
            Level::Scalar => {}
        }
    }
    GemmKernel(gemm_panel_scalar as RawGemmKernel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parses_and_round_trips() {
        for l in [Level::Scalar, Level::Avx2, Level::Avx512] {
            assert_eq!(l.name().parse::<Level>().unwrap(), l);
        }
        assert_eq!(" AVX2 ".parse::<Level>().unwrap(), Level::Avx2);
        assert!("garbage".parse::<Level>().is_err());
        assert!("".parse::<Level>().is_err());
        // Retired level: `IST_SIMD=sse2` takes the malformed-value path.
        assert!("sse2".parse::<Level>().is_err());
    }

    #[test]
    fn available_levels_start_scalar_end_detected() {
        let levels = available_levels();
        assert_eq!(levels.first(), Some(&Level::Scalar));
        assert_eq!(levels.last(), Some(&detected()));
        assert!(levels.windows(2).all(|w| w[0] < w[1]), "must be ascending");
    }

    #[test]
    fn set_level_clamps_to_detected() {
        let prev = level();
        let eff = set_level(Level::Avx512);
        assert!(eff <= detected());
        assert_eq!(level(), eff);
        set_level(prev);
    }

    #[test]
    fn row_ops_match_sequential_for_short_rows() {
        // Rows shorter than one lane group reduce to the plain sequential
        // fold, whatever the level.
        let xs = [1.5f32, -2.25, 0.5];
        assert_eq!(row_sum(&xs).to_bits(), (1.5f32 + -2.25 + 0.5).to_bits());
        assert_eq!(row_max(&xs), 1.5);
    }
}
