//! Matrix multiplication: cache-blocked 2-D GEMM parallelised over the
//! shared worker pool, a right-hand side packed once and multiplied many
//! times ([`PackedRhs`]), batched 3-D `bmm`, and
//! [`Adjacency`], which applies one sparse adjacency to a batch of
//! node-feature matrices in their own layout.
//!
//! Either operand of a 2-D or batched product can be the transpose of a
//! stored matrix, read in place ([`matmul_nt`], [`matmul_tn`], [`bmm_nt`],
//! [`bmm_tn`]): the right-hand side through the strides its panels are
//! packed with, the left-hand side by the micro-kernel itself. Each is
//! bitwise equal to multiplying the materialised transpose.
//!
//! The production kernel ([`gemm_blocked`]) tiles over N (`NC` columns) and
//! K (`KC` rows of `b`). Each `b` panel is either packed into this
//! thread's grow-only workspace ([`crate::pool::with_workspace`] — zero
//! allocations once the buffers reach their high-water size) or borrowed
//! from a [`PackedRhs`] that already holds every panel in the same layout
//! (the serving catalog, packed once per model load). Either way the
//! innermost loops stream over cache-resident memory and one panel loop
//! feeds the runtime-dispatched SIMD micro-kernel
//! ([`crate::simd::gemm_kernel`]; bitwise identical output at every
//! dispatch level), which processes four rows of `a` per pass. Each
//! panel's `n mod NR` tail columns are zero-padded to a full NR block, so
//! they run the same SIMD tile as every other column. All-zero rows of `a`
//! — padded sequence positions, which are common in this workload — are
//! detected once and skipped. The unblocked `i-k-j` kernel
//! ([`gemm_serial`]) is kept as the reference implementation for tests and
//! benchmarks.
//!
//! Parallelism: blocks of the output are dealt to the persistent pool
//! ([`crate::pool`]); no threads are spawned per call. [`matmul_in`] and
//! [`matmul_packed_in`] share one split decision. Tall products split by
//! rows in blocks of whole micro-kernel row blocks ([`MR`] rows). Short
//! products (fewer such blocks than pool workers) and wide ones (at least
//! `m` NC panels per worker), such as catalog scoring at serving batch
//! sizes, split by NC-aligned column blocks. Either way every
//! output element is computed by exactly one task with the same
//! k-accumulation order (KC panels ascending, depth ascending) and the
//! same all-zero-row skip, both of which depend only on `a` — never on
//! which rows or columns a task owns, or on where its panels come from —
//! so results are bitwise identical for every pool size and both operand
//! forms. The serial/parallel crossover is derived from the
//! pool size and the per-worker grain ([`crate::pool::GEMM_GRAIN`]); the
//! row and depth splits additionally stay serial below
//! [`crate::pool::GEMM_SERIAL_CUTOFF`], the measured crossover. A deep
//! product whose rows would give each worker a single MR-row tile — a GCN
//! weight's gradient, `[R·K, d]ᵀ · [R·K, d]` — splits by depth instead:
//! contiguous ranges of KC panels, each panel's chain in its own partial
//! tile, the tiles added in ascending panel order ([`matmul_depth`]).

use std::ops::Range;

use crate::pool;
use crate::simd::{self, PanelGeom, KC, MR, NR};
use crate::Tensor;

/// Aggregate GEMM telemetry: total multiply-add work feeds a GFLOP/s rate
/// in the `ist-obs` summary (near-zero cost while `IST_METRICS` is unset).
static GEMM_TIMER: ist_obs::Timer = ist_obs::Timer::with_unit("tensor.gemm", "flop");
static BMM_TIMER: ist_obs::Timer = ist_obs::Timer::with_unit("tensor.bmm", "flop");

/// Output-buffer allocation volume per hot op (memory accounting: these
/// two are the dominant transient allocators in training).
static GEMM_OUT_BYTES: ist_obs::Counter = ist_obs::Counter::new("tensor.gemm.alloc_bytes");
static BMM_OUT_BYTES: ist_obs::Counter = ist_obs::Counter::new("tensor.bmm.alloc_bytes");

/// Packing-workspace telemetry: GEMM calls whose panel/row-zero scratch was
/// served entirely from this thread's grow-only workspace (no allocation),
/// and the bytes the workspaces did grow by. In steady state `pack_reuse`
/// tracks the GEMM call count while `pack_bytes` stays flat — the
/// regression test in `crates/tensor/tests/workspace_alloc.rs` pins this.
static GEMM_PACK_REUSE: ist_obs::Counter = ist_obs::Counter::new("tensor.gemm.pack_reuse");
static GEMM_PACK_BYTES: ist_obs::Counter = ist_obs::Counter::new("tensor.gemm.pack_bytes");

/// Columns of `b` packed per panel (`NC · KC` floats ≈ 64 KiB, L2-resident).
const NC: usize = 64;

/// Snapshot of the packing-workspace counters as
/// `(pack_reuse, pack_bytes)` — test hook for the zero-alloc steady-state
/// guarantee. Counters only advance while `ist-obs` metrics are enabled.
pub fn pack_counters() -> (u64, u64) {
    (GEMM_PACK_REUSE.get(), GEMM_PACK_BYTES.get())
}

/// Reference serial `i-k-j` GEMM kernel: `out[m×n] += a[m×k] · b[k×n]`.
///
/// Unblocked; the reference that the `simd_equivalence` and
/// `gemm_edge_cases` tests compare the blocked kernels against.
pub fn gemm_serial(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (kk, &aik) in a_row.iter().enumerate() {
            if aik == 0.0 {
                continue; // masked/padded rows are common in this workload
            }
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += aik * bv;
            }
        }
    }
}

/// Cache-blocked GEMM kernel: `out[m×n] += a[m×k] · b[k×n]`.
///
/// The k-accumulation order for each output element is `kk` ascending, the
/// same as [`gemm_serial`], so blocked and unblocked kernels agree to
/// floating-point rounding (≤ 1e-4 relative at this workspace's scales).
pub fn gemm_blocked(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    gemm_blocked_view(Lhs::rows(a, k), Panels::pack(b, n), out, m, k, n);
}

/// A `[k, n]` right-hand side held in exactly the panel layout the GEMM
/// otherwise packs per call: one panel per NC-column block `jj` and
/// KC-depth block `kk`, in that order; NR-wide `[p][NR]` blocks inside
/// each panel; the `n mod NR` tail zero-padded. [`matmul_packed`] reads
/// the panels in place, so an operand multiplied many times — the
/// serving catalog — is packed once. The product's bits equal
/// [`matmul`]'s with the unpacked operand: the micro-kernel sees the same
/// panel contents either way.
#[derive(Clone, Debug, PartialEq)]
pub struct PackedRhs {
    k: usize,
    n: usize,
    /// Every panel in order, as one tensor buffer so memory accounting
    /// ([`crate::mem`]) sees it.
    panels: Tensor,
}

impl PackedRhs {
    /// Packs `b: [k, n]`.
    pub fn pack(b: &Tensor) -> PackedRhs {
        assert_eq!(b.rank(), 2, "packed rhs must be 2-D, got {:?}", b.shape());
        let (k, n) = (b.shape()[0], b.shape()[1]);
        PackedRhs::from_layout(b.data(), k, n, n, 1)
    }

    /// Packs the transpose of `rows: [n, k]` — row `j` is column `j` of
    /// the right-hand side — without materialising `[k, n]`.
    pub fn pack_rows(rows: &Tensor) -> PackedRhs {
        assert_eq!(
            rows.rank(),
            2,
            "packed rhs rows must be 2-D, got {:?}",
            rows.shape()
        );
        let (n, k) = (rows.shape()[0], rows.shape()[1]);
        PackedRhs::from_layout(rows.data(), k, n, 1, k)
    }

    /// Element `(p, j)` of the right-hand side is `src[p·row + j·col]`.
    fn from_layout(src: &[f32], k: usize, n: usize, row: usize, col: usize) -> PackedRhs {
        let mut panels = vec![0.0f32; k * n.next_multiple_of(NR)];
        let mut rest = panels.as_mut_slice();
        for jj in (0..n).step_by(NC) {
            let nc = NC.min(n - jj);
            for kk in (0..k).step_by(KC) {
                let kc = KC.min(k - kk);
                let (panel, tail) = rest.split_at_mut(kc * nc.next_multiple_of(NR));
                pack_panel(src, row, col, kk, kc, jj, nc, panel);
                rest = tail;
            }
        }
        let panels = Tensor::from_vec(panels, &[k * n.next_multiple_of(NR)]);
        PackedRhs { k, n, panels }
    }

    /// Depth (rows of the right-hand side).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Width (columns of the right-hand side).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Panel `(jj, kk)`: every earlier NC block holds `NC·k` floats, and
    /// this block's earlier KC panels `kc · padded width` each.
    fn panel(&self, jj: usize, kk: usize) -> &[f32] {
        let ncp = NC.min(self.n - jj).next_multiple_of(NR);
        &self.panels.data()[jj * self.k + kk * ncp..][..KC.min(self.k - kk) * ncp]
    }
}

/// Packs columns `j0 .. j0+nc` at depths `kk .. kk+kc` of a right-hand
/// side whose element `(p, j)` is `src[p·row + j·col]` into `dst`:
/// NR-wide blocks, each stored as `[p][NR]` (depth-major), so the
/// micro-kernel streams each block contiguously. A partial last block
/// (`tail < NR` columns) is zero-padded to NR and runs the same SIMD
/// tile; only its `tail` real lanes are written back.
#[allow(clippy::too_many_arguments)]
fn pack_panel(
    src: &[f32],
    row: usize,
    col: usize,
    kk: usize,
    kc: usize,
    j0: usize,
    nc: usize,
    dst: &mut [f32],
) {
    let blocks = dst[..kc * nc.next_multiple_of(NR)].chunks_exact_mut(kc * NR);
    for (jb, blk) in blocks.enumerate() {
        let c0 = j0 + jb * NR;
        let width = NR.min(j0 + nc - c0);
        if col == 1 && width == NR {
            // Full blocks of a row-major `b` keep the fixed-width copy.
            for p in 0..kc {
                let at = (kk + p) * row + c0;
                blk[p * NR..(p + 1) * NR].copy_from_slice(&src[at..at + NR]);
            }
            continue;
        }
        for (p, lanes) in blk.chunks_exact_mut(NR).enumerate() {
            let at = (kk + p) * row + c0 * col;
            let (real, pad) = lanes.split_at_mut(width);
            for (lane, v) in real.iter_mut().enumerate() {
                *v = src[at + lane * col];
            }
            pad.fill(0.0);
        }
    }
}

/// The left-hand side `[m, k]` of a GEMM as it lies in memory: element
/// `(i, p)` is `a[i·ld + p]`, or `a[p·ld + i]` when `trans` is set — the
/// transpose of a row-major `[k, ld]` matrix, read in place.
#[derive(Clone, Copy)]
struct Lhs<'a> {
    a: &'a [f32],
    ld: usize,
    trans: bool,
}

impl<'a> Lhs<'a> {
    /// Row-major `a: [m, k]`.
    fn rows(a: &'a [f32], k: usize) -> Lhs<'a> {
        Lhs {
            a,
            ld: k,
            trans: false,
        }
    }

    /// The transpose of a row-major `a: [k, m]`.
    fn cols(a: &'a [f32], m: usize) -> Lhs<'a> {
        Lhs {
            a,
            ld: m,
            trans: true,
        }
    }

    /// The same operand from row `row0` on.
    fn skip_rows(self, row0: usize) -> Lhs<'a> {
        let at = if self.trans { row0 } else { row0 * self.ld };
        Lhs {
            a: &self.a[at..],
            ..self
        }
    }

    /// Appends to `flags` whether each of rows `0..m` is zero at every
    /// depth `0..k`. A transposed operand's rows are columns of the
    /// stored matrix, so they are found in one row-major pass over it.
    fn zero_rows(self, m: usize, k: usize, flags: &mut Vec<bool>) {
        if self.trans {
            let start = flags.len();
            flags.resize(start + m, true);
            let flags = &mut flags[start..];
            for p in 0..k {
                for (z, &v) in flags.iter_mut().zip(&self.a[p * self.ld..][..m]) {
                    *z &= v == 0.0;
                }
                // Stop once every row has shown a nonzero.
                if !flags.contains(&true) {
                    break;
                }
            }
        } else {
            flags.extend((0..m).map(|i| self.a[i * self.ld..][..k].iter().all(|&v| v == 0.0)));
        }
    }
}

/// Where [`gemm_blocked_view`] takes each panel of the right-hand side
/// from, viewed from column `col0` on.
#[derive(Clone, Copy)]
enum Panels<'a> {
    /// Packed per call into this thread's workspace from `b`, whose
    /// element `(p, j)` is `b[p·row + j·col]`: a row-major `[k, n]` has
    /// `(row, col) = (n, 1)`, and the transpose of a row-major `[n, k]`,
    /// read in place, `(1, k)`.
    Pack {
        b: &'a [f32],
        row: usize,
        col: usize,
        col0: usize,
    },
    /// Borrowed from a [`PackedRhs`]; `col0` is NC-aligned, so the view's
    /// panels are whole panels of the packed operand.
    Borrow { rhs: &'a PackedRhs, col0: usize },
}

impl<'a> Panels<'a> {
    /// Row-major `b`, whose rows are `stride` floats apart.
    fn pack(b: &'a [f32], stride: usize) -> Panels<'a> {
        Panels::Pack {
            b,
            row: stride,
            col: 1,
            col0: 0,
        }
    }

    /// The transpose of a row-major `b: [n, k]`.
    fn pack_t(b: &'a [f32], k: usize) -> Panels<'a> {
        Panels::Pack {
            b,
            row: 1,
            col: k,
            col0: 0,
        }
    }

    /// The same operand viewed from `by` columns further right.
    fn at(self, by: usize) -> Panels<'a> {
        match self {
            Panels::Pack { b, row, col, col0 } => Panels::Pack {
                b,
                row,
                col,
                col0: col0 + by,
            },
            Panels::Borrow { rhs, col0 } => {
                debug_assert_eq!(by % NC, 0, "packed panels split only at NC boundaries");
                Panels::Borrow {
                    rhs,
                    col0: col0 + by,
                }
            }
        }
    }
}

/// Shared body of every 2-D GEMM: `out[m×n] += a[m×k] · src[k×n]`, the
/// output a dense `m×n` block.
fn gemm_blocked_view(a: Lhs<'_>, src: Panels<'_>, out: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_depths(a, None, src, out, [m, k, n], 0..k);
}

/// [`gemm_blocked_view`] over the KC panels that start in `depths` only
/// (`dims` is `[m, k, n]`; `depths` starts on a KC boundary). Only the
/// panel source knows about the right-hand side's strides, column offsets
/// or pre-packing; the micro-kernel reads `a` in either layout.
///
/// `row_zero` holds whether each row of `a` is zero at *every* depth of
/// the whole product, or is `None` to find that here: a row that is zero
/// only within `depths` must still be multiplied, because zero times a
/// non-finite `b` is NaN.
fn gemm_depths(
    a: Lhs<'_>,
    row_zero: Option<&[bool]>,
    src: Panels<'_>,
    out: &mut [f32],
    [m, k, n]: [usize; 3],
    depths: Range<usize>,
) {
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 || depths.is_empty() {
        return;
    }

    // Resolve the SIMD micro-kernel once per call, not per panel.
    let kernel = simd::gemm_kernel();

    pool::with_workspace(|ws| {
        let pool::Workspace {
            panel: scratch,
            row_zero: flags,
        } = ws;
        // Grow-only scratch: once `panel` and `row_zero` hit their
        // high-water sizes, steady-state calls allocate nothing.
        let mut grew = 0u64;
        if matches!(src, Panels::Pack { .. }) && scratch.len() < NC * KC {
            grew += ((NC * KC - scratch.len()) * std::mem::size_of::<f32>()) as u64;
            scratch.resize(NC * KC, 0.0);
        }
        let row_zero = match row_zero {
            Some(z) => z,
            None => {
                flags.clear();
                if flags.capacity() < m {
                    grew += (m - flags.capacity()) as u64;
                    flags.reserve(m);
                }
                // Padded sequence positions show up as all-zero rows of
                // `a`; find them once (an O(m·k) scan against O(m·n·k)
                // work) and skip them everywhere.
                a.zero_rows(m, k, flags);
                flags
            }
        };
        if grew > 0 {
            GEMM_PACK_BYTES.add(grew);
        } else {
            GEMM_PACK_REUSE.add(1);
        }

        for jj in (0..n).step_by(NC) {
            let nc = NC.min(n - jj);
            for kk in depths.clone().step_by(KC) {
                let kc = KC.min(k - kk);
                let panel: &[f32] = match src {
                    Panels::Pack { b, row, col, col0 } => {
                        pack_panel(b, row, col, kk, kc, col0 + jj, nc, scratch);
                        scratch
                    }
                    Panels::Borrow { rhs, col0 } => rhs.panel(col0 + jj, kk),
                };
                kernel.call(
                    a.a,
                    row_zero,
                    panel,
                    out,
                    PanelGeom {
                        m,
                        lda: a.ld,
                        a_t: a.trans,
                        n,
                        kk,
                        kc,
                        jj,
                        nc,
                    },
                );
            }
        }
    });
}

/// `a[m×k] · b[k×n] → [m×n]` on the global pool.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_in(pool::global(), a, b)
}

/// `a[m×k] · b[k×n] → [m×n]` on an explicit pool (benchmarks measure
/// scaling by passing pools of different sizes; everything else uses
/// [`matmul`]).
pub fn matmul_in(pool: &pool::ThreadPool, a: &Tensor, b: &Tensor) -> Tensor {
    let ([m, k], [k2, n]) = (dims2(a, "lhs"), dims2(b, "rhs"));
    gemm_in(
        pool,
        Lhs::rows(a.data(), k),
        [m, k],
        [k2, n],
        Panels::pack(b.data(), n),
    )
}

/// `a[m×k] · b[n×k]ᵀ → [m×n]` on the global pool, `bᵀ` packed straight
/// from `b`'s rows. Bitwise equal to `matmul(a, &b.t())`.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_nt_in(pool::global(), a, b)
}

/// [`matmul_nt`] on an explicit pool.
pub fn matmul_nt_in(pool: &pool::ThreadPool, a: &Tensor, b: &Tensor) -> Tensor {
    let ([m, k], [n, k2]) = (dims2(a, "lhs"), dims2(b, "rhs"));
    gemm_in(
        pool,
        Lhs::rows(a.data(), k),
        [m, k],
        [k2, n],
        Panels::pack_t(b.data(), k2),
    )
}

/// `a[k×m]ᵀ · b[k×n] → [m×n]` on the global pool, `aᵀ` read in place
/// from `a`'s columns. Bitwise equal to `matmul(&a.t(), b)`.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_tn_in(pool::global(), a, b)
}

/// [`matmul_tn`] on an explicit pool.
pub fn matmul_tn_in(pool: &pool::ThreadPool, a: &Tensor, b: &Tensor) -> Tensor {
    let ([k, m], [k2, n]) = (dims2(a, "lhs"), dims2(b, "rhs"));
    gemm_in(
        pool,
        Lhs::cols(a.data(), m),
        [m, k],
        [k2, n],
        Panels::pack(b.data(), n),
    )
}

/// The extents of a 2-D matmul operand.
fn dims2(t: &Tensor, side: &str) -> [usize; 2] {
    match *t.shape() {
        [r, c] => [r, c],
        _ => panic!("matmul {side} must be 2-D, got {:?}", t.shape()),
    }
}

/// `a[m×k] · rhs → [m×n]` with the panels read in place from `rhs`, on
/// the global pool. Bitwise equal to [`matmul`] with the unpacked operand.
pub fn matmul_packed(a: &Tensor, rhs: &PackedRhs) -> Tensor {
    matmul_packed_in(pool::global(), a, rhs)
}

/// [`matmul_packed`] on an explicit pool.
pub fn matmul_packed_in(pool: &pool::ThreadPool, a: &Tensor, rhs: &PackedRhs) -> Tensor {
    let [m, k] = dims2(a, "lhs");
    let src = Panels::Borrow { rhs, col0: 0 };
    gemm_in(pool, Lhs::rows(a.data(), k), [m, k], [rhs.k, rhs.n], src)
}

/// The one serial / row-split / column-split decision behind every 2-D
/// product: `a · src`, where `a` is `a_shape = [m, k]` in either layout
/// and `src` is `b_shape = [k, n]`. The decision depends only on the
/// shapes, so a transposed operand read in place takes the same path as
/// its materialised copy.
fn gemm_in(
    pool: &pool::ThreadPool,
    a: Lhs<'_>,
    a_shape: [usize; 2],
    b_shape: [usize; 2],
    src: Panels<'_>,
) -> Tensor {
    let ([m, k], [k2, n]) = (a_shape, b_shape);
    assert_eq!(k, k2, "inner dims disagree: {a_shape:?} · {b_shape:?}");

    let mut out = vec![0.0f32; m * n];
    GEMM_OUT_BYTES.add((m * n * 4) as u64);
    let flops = m * n * k;
    let _timing = GEMM_TIMER.start_with(2 * flops as u64);
    let threads = pool.threads();
    let dims = [m, k, n];
    match split(threads, dims) {
        Split::Serial => gemm_blocked_view(a, src, &mut out, m, k, n),
        Split::Cols => matmul_cols(pool, a, src, &mut out, m, k, n),
        Split::Depth => matmul_depth(pool, a, src, &mut out, dims),
        Split::Rows(rows_per) => {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
                .chunks_mut(rows_per * n)
                .enumerate()
                .map(|(chunk_idx, out_chunk)| {
                    let rows = out_chunk.len() / n;
                    let a_block = a.skip_rows(chunk_idx * rows_per);
                    Box::new(move || {
                        gemm_blocked_view(a_block, src, out_chunk, rows, k, n);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run(tasks);
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// How [`gemm_in`] deals a product to the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Split {
    /// One task, on the calling thread.
    Serial,
    /// Blocks of this many rows, a multiple of MR.
    Rows(usize),
    /// NC-aligned column blocks ([`matmul_cols`]).
    Cols,
    /// Ranges of KC panels ([`matmul_depth`]).
    Depth,
}

/// The split of a `dims = [m, k, n]` product on a pool of `threads`
/// workers. Every split computes each output element with the serial
/// product's operations in the serial product's order, so the choice
/// moves no bit; it depends only on the shapes, so a transposed operand
/// read in place takes the same path as its materialised copy.
fn split(threads: usize, [m, k, n]: [usize; 3]) -> Split {
    let flops = m * n * k;
    // Enough work per worker (grain) for any fan-out.
    if threads == 1 || flops < pool::GEMM_GRAIN.saturating_mul(threads) {
        return Split::Serial;
    }
    // Column split when the row split below would leave workers idle
    // (fewer MR-row blocks than workers), or when the product is wide:
    // each worker's column share holds at least `m` NC panels, so row
    // blocks would each re-pack all of `b` for few rows and write rows
    // `n` floats apart.
    let short = m.div_ceil(MR) < threads;
    let wide = n >= m.saturating_mul(threads * NC);
    if n >= threads * NC && (short || wide) {
        return Split::Cols;
    }
    // Below the measured crossover the fan-out costs more than it saves.
    if flops < pool::GEMM_SERIAL_CUTOFF {
        return Split::Serial;
    }
    // Row blocks start at multiples of MR, so the rows that take the
    // micro-kernel (and the `m % MR` remainder rows that take the
    // single-row path) are the same as in the serial product — the two
    // paths treat zeros times non-finite values differently.
    let rows_per = m.div_ceil(threads).next_multiple_of(MR);
    // When each worker would own a single MR-row tile, every one of them
    // would also pack all of `b` for it; a deep product splits its KC
    // panels instead, if the partial tiles fit one dense block.
    let panels = k.div_ceil(KC);
    let partial = (panels - panels.div_ceil(threads)).saturating_mul(m * n);
    if rows_per <= MR && panels > 1 && partial <= DENSE_BLOCK {
        return Split::Depth;
    }
    if rows_per < m {
        Split::Rows(rows_per)
    } else {
        Split::Serial
    }
}

/// Floats in a column-split task's dense scratch block (256 KiB): the
/// block stays cache-resident between the GEMM writing it and the copy
/// into `out`.
const DENSE_BLOCK: usize = 1 << 16;

/// Column split of a short or wide product: one NC-aligned block of the
/// right-hand side's columns per pool worker. A single-row output's
/// blocks are disjoint slices of `out` and are written in place; with
/// more rows a block is strided, so each task computes it in dense
/// sub-blocks of whole NC panels, at most [`DENSE_BLOCK`] floats each, and
/// copies their rows out.
///
/// Bitwise contract: every output element's k-accumulation order (KC
/// panels ascending, depth ascending within a panel) and the zero-row
/// skip depend only on `a` and `k`, never on which columns a task owns
/// ([`Panels::at`] only moves the view), so each block equals the same
/// columns of the serial [`gemm_blocked_view`] product bit for bit.
fn matmul_cols(
    pool: &pool::ThreadPool,
    a: Lhs<'_>,
    src: Panels<'_>,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let cols_per = n.div_ceil(pool.threads()).next_multiple_of(NC);
    // blocks[j][i]: row i's slice of column block j.
    let mut blocks: Vec<Vec<&mut [f32]>> = (0..n.div_ceil(cols_per))
        .map(|_| Vec::with_capacity(m))
        .collect();
    for row in out.chunks_mut(n) {
        for (block, piece) in blocks.iter_mut().zip(row.chunks_mut(cols_per)) {
            block.push(piece);
        }
    }
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = blocks
        .into_iter()
        .enumerate()
        .map(|(j, mut rows)| {
            Box::new(move || {
                let ncols = rows[0].len();
                let src = src.at(j * cols_per);
                if let [row] = rows.as_mut_slice() {
                    gemm_blocked_view(a, src, row, 1, k, ncols);
                    return;
                }
                let width = (DENSE_BLOCK / (m * NC)).max(1) * NC;
                let mut scratch = vec![0.0f32; m * width.min(ncols)];
                for c0 in (0..ncols).step_by(width) {
                    let w = width.min(ncols - c0);
                    let dense = &mut scratch[..m * w];
                    dense.fill(0.0);
                    gemm_blocked_view(a, src.at(c0), dense, m, k, w);
                    for (row, src) in rows.iter_mut().zip(dense.chunks(w)) {
                        row[c0..c0 + w].copy_from_slice(src);
                    }
                }
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    pool.run(tasks);
}

/// Depth split of a product too short to split by rows or columns, such
/// as a GCN weight's gradient `[R·K, d]ᵀ · [R·K, d]`: the KC panels are
/// dealt in contiguous ranges, one per worker. The first range adds its
/// panels into `out` as the serial product does; every later panel's
/// chain goes to its own zeroed partial tile, and the tiles are then
/// added into `out` in ascending panel order.
///
/// Bitwise contract: the micro-kernel starts every panel's chain from
/// +0.0 and adds it into `out`, so the serial product is exactly
/// `((0 + P₀) + P₁) + …` per element. A partial tile holds `0 + P_q`,
/// which is `P_q` (a chain from +0.0 is never −0.0), and adding the tiles
/// in order replays that sum. The zero-row skip uses rows that are zero
/// at every depth, found once over the whole product.
fn matmul_depth(
    pool: &pool::ThreadPool,
    a: Lhs<'_>,
    src: Panels<'_>,
    out: &mut [f32],
    dims: [usize; 3],
) {
    let [m, k, n] = dims;
    if m * n * k == 0 {
        return;
    }
    let panels = k.div_ceil(KC);
    let per = panels.div_ceil(pool.threads());
    let mut zero = Vec::with_capacity(m);
    a.zero_rows(m, k, &mut zero);
    let row_zero = Some(zero.as_slice());
    let first = (per * KC).min(k);
    let mut partials = vec![0.0f32; (panels - per.min(panels)) * m * n];
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
    let head = &mut *out;
    tasks.push(Box::new(move || {
        gemm_depths(a, row_zero, src, head, dims, 0..first)
    }));
    for (t, tiles) in partials.chunks_mut(per * m * n).enumerate() {
        let d0 = first + t * per * KC;
        tasks.push(Box::new(move || {
            for (q, tile) in tiles.chunks_mut(m * n).enumerate() {
                let kk = d0 + q * KC;
                gemm_depths(a, row_zero, src, tile, dims, kk..(kk + KC).min(k));
            }
        }));
    }
    pool.run(tasks);
    for tile in partials.chunks_exact(m * n) {
        simd::add_assign(out, tile);
    }
}

/// Rows of `h` per pool task in [`Adjacency::propagate`]. Fixed, so the
/// partition does not depend on the pool size (every output element is
/// computed whole by one task either way).
const PROPAGATE_ROWS: usize = 64;

/// An adjacency `adj: [M, K]` prepared for propagation: applied to a batch
/// of node-feature matrices in their own layout,
/// `out[r, i, :] = Σ_j adj[i, j] · h[r, j, :]` for `h: [R, K, d]` →
/// `[R, M, d]` ([`Adjacency::propagate`]). This is the graph-propagation
/// step `N·H` of a GCN layer, run over `adj`'s nonzeros only: their
/// compressed rows are built once here, and those of `adjᵀ` on the first
/// [`Adjacency::propagate_t`].
///
/// Each output element is one chain from +0.0 over `j` ascending, with a
/// separate multiply and add, and zero coefficients skipped. While `h` is
/// finite a skipped term is ±0 and leaves the chain's bits unchanged, so
/// for `K ≤ KC` (256; the GEMM sums such a product as one depth chain) the
/// result is bitwise equal to [`matmul`] of `adj` with `h` laid out as
/// `[K, R·d]`. Non-finite `h` is the exception: the GEMM's 4-row
/// micro-kernel multiplies a zero coefficient by ±inf or NaN into NaN,
/// where this skips the term.
#[derive(Debug)]
pub struct Adjacency {
    dense: Tensor,
    rows: SparseRows,
    rows_t: std::sync::OnceLock<SparseRows>,
}

impl Adjacency {
    /// Prepares `adj: [M, K]`.
    pub fn new(adj: Tensor) -> Adjacency {
        let [m, k] = adj_dims(&adj);
        Adjacency {
            rows: SparseRows::new(adj.data(), m, k, k, 1),
            rows_t: std::sync::OnceLock::new(),
            dense: adj,
        }
    }

    /// The adjacency itself.
    pub fn dense(&self) -> &Tensor {
        &self.dense
    }

    /// This adjacency applied to `h: [R, K, d]` → `[R, M, d]`.
    pub fn propagate(&self, h: &Tensor) -> Tensor {
        self.rows.apply(h)
    }

    /// This adjacency's transpose applied to `g: [R, M, d]` → `[R, K, d]`
    /// — the features' gradient. Row `j` of `adjᵀ` is read from column `j`
    /// of `adj`, `i` ascending, so the bits are those of preparing the
    /// dense transpose.
    pub fn propagate_t(&self, g: &Tensor) -> Tensor {
        let [m, k] = adj_dims(&self.dense);
        self.rows_t
            .get_or_init(|| SparseRows::new(self.dense.data(), k, m, 1, k))
            .apply(g)
    }
}

fn adj_dims(adj: &Tensor) -> [usize; 2] {
    match *adj.shape() {
        [m, k] => [m, k],
        _ => panic!("propagate adj must be 2-D, got {:?}", adj.shape()),
    }
}

/// An `[M, K]` matrix in compressed-row form: row `i`'s nonzeros
/// `(j, a_ij)`, `j` ascending, end at `row_ends[i]`.
#[derive(Debug)]
struct SparseRows {
    k: usize,
    nonzeros: Vec<(usize, f32)>,
    row_ends: Vec<usize>,
}

impl SparseRows {
    /// Compresses the `[m, k]` matrix whose element `(i, j)` is
    /// `src[i·row + j·col]`.
    fn new(src: &[f32], m: usize, k: usize, row: usize, col: usize) -> SparseRows {
        let mut nonzeros = Vec::new();
        let row_ends = (0..m)
            .map(|i| {
                let nz = (0..k).map(|j| (j, src[i * row + j * col]));
                nonzeros.extend(nz.filter(|&(_, a)| a != 0.0));
                nonzeros.len()
            })
            .collect();
        SparseRows {
            k,
            nonzeros,
            row_ends,
        }
    }

    /// `out[r, i, :] = Σ_j a[i, j] · h[r, j, :]` (see [`Adjacency`]).
    fn apply(&self, h: &Tensor) -> Tensor {
        assert_eq!(h.rank(), 3, "propagate h must be 3-D, got {:?}", h.shape());
        let (m, k) = (self.row_ends.len(), self.k);
        let (r, k2, d) = (h.shape()[0], h.shape()[1], h.shape()[2]);
        assert_eq!(
            k,
            k2,
            "propagate dims disagree: [{m}, {k}] · {:?}",
            h.shape()
        );
        let (nonzeros, row_ends) = (&self.nonzeros, &self.row_ends);
        let h_data = h.data();
        let run_rows = |r0: usize, out_rows: &mut [f32]| {
            for (dr, out_r) in out_rows.chunks_exact_mut(m * d).enumerate() {
                let h_r = &h_data[(r0 + dr) * k * d..(r0 + dr + 1) * k * d];
                let mut start = 0;
                for (out_i, &end) in out_r.chunks_exact_mut(d).zip(row_ends) {
                    let row = &nonzeros[start..end];
                    start = end;
                    // Eight columns at a time, each chain held in a register.
                    let mut blocks = out_i.chunks_exact_mut(8);
                    for (b, out_b) in (&mut blocks).enumerate() {
                        let mut acc = [0.0f32; 8];
                        for &(j, a) in row {
                            let x = &h_r[j * d + b * 8..][..8];
                            for (s, &x) in acc.iter_mut().zip(x) {
                                *s += a * x;
                            }
                        }
                        out_b.copy_from_slice(&acc);
                    }
                    let c0 = d - d % 8;
                    for (c, o) in blocks.into_remainder().iter_mut().enumerate() {
                        for &(j, a) in row {
                            *o += a * h_r[j * d + c0 + c];
                        }
                    }
                }
            }
        };

        let mut out = vec![0.0f32; r * m * d];
        let chunk = PROPAGATE_ROWS * m * d;
        if r > PROPAGATE_ROWS && pool::should_parallelize(r * nonzeros.len() * d, pool::GEMM_GRAIN)
        {
            pool::parallel_chunks_mut(&mut out, chunk, |c, rows| {
                run_rows(c * PROPAGATE_ROWS, rows)
            });
        } else if !out.is_empty() {
            run_rows(0, &mut out);
        }
        Tensor::from_vec(out, &[r, m, d])
    }
}

/// Gradient of [`Adjacency::propagate`] with respect to `adj`, given the output
/// gradient `g: [R, M, d]` and the features `h: [R, K, d]` → `[M, K]`:
/// `Σ_{r,c} g[r, i, c] · h[r, j, c]`. It is the one GEMM of `g` laid out as
/// `[M, R·d]` with `h` as `[R·d, K]`, so it has the GEMM's bits (KC-deep
/// chains added in order) whatever the depth `R·d`.
pub fn propagate_adj_grad(g: &Tensor, h: &Tensor) -> Tensor {
    assert_eq!(
        g.rank(),
        3,
        "propagate grad must be 3-D, got {:?}",
        g.shape()
    );
    let (r, m, d) = (g.shape()[0], g.shape()[1], g.shape()[2]);
    assert_eq!(
        (h.shape()[0], h.shape()[2]),
        (r, d),
        "propagate grad {:?} does not match features {:?}",
        g.shape(),
        h.shape()
    );
    let k = h.shape()[1];
    let mut g_rows = vec![0.0f32; m * r * d];
    for (ri, g_r) in g.data().chunks_exact((m * d).max(1)).enumerate() {
        for (i, src) in g_r.chunks_exact(d).enumerate() {
            let at = i * r * d + ri * d;
            g_rows[at..at + d].copy_from_slice(src);
        }
    }
    let g_rows = Tensor::from_vec(g_rows, &[m, r * d]);
    matmul(&g_rows, &h.transpose_last2().reshape(&[r * d, k]))
}

/// Batched matmul: `a[B×m×k] · b[B×k×n] → [B×m×n]`, batch blocks dealt to
/// the pool.
pub fn bmm(a: &Tensor, b: &Tensor) -> Tensor {
    bmm_in(pool::global(), a, b)
}

/// [`bmm`] on an explicit pool.
pub fn bmm_in(pool: &pool::ThreadPool, a: &Tensor, b: &Tensor) -> Tensor {
    bmm_with(pool, a, false, b, false)
}

/// `a[B×m×k] · b[B×n×k]ᵀ → [B×m×n]`, each `bᵀ` packed straight from `b`'s
/// rows. Bitwise equal to `bmm(a, &b.transpose_last2())`.
pub fn bmm_nt(a: &Tensor, b: &Tensor) -> Tensor {
    bmm_nt_in(pool::global(), a, b)
}

/// [`bmm_nt`] on an explicit pool.
pub fn bmm_nt_in(pool: &pool::ThreadPool, a: &Tensor, b: &Tensor) -> Tensor {
    bmm_with(pool, a, false, b, true)
}

/// `a[B×k×m]ᵀ · b[B×k×n] → [B×m×n]`, each `aᵀ` read in place from `a`'s
/// columns. Bitwise equal to `bmm(&a.transpose_last2(), b)`.
pub fn bmm_tn(a: &Tensor, b: &Tensor) -> Tensor {
    bmm_tn_in(pool::global(), a, b)
}

/// [`bmm_tn`] on an explicit pool.
pub fn bmm_tn_in(pool: &pool::ThreadPool, a: &Tensor, b: &Tensor) -> Tensor {
    bmm_with(pool, a, true, b, false)
}

/// The batched product behind [`bmm`], [`bmm_nt`] and [`bmm_tn`]:
/// `op(a) · op(b)` per batch, `op` the transpose of the last two axes
/// where `a_t` / `b_t` is set, read in place.
fn bmm_with(pool: &pool::ThreadPool, a: &Tensor, a_t: bool, b: &Tensor, b_t: bool) -> Tensor {
    let dims3 = |t: &Tensor, side: &str, trans: bool| match *t.shape() {
        [bs, r, c] if trans => [bs, c, r],
        [bs, r, c] => [bs, r, c],
        _ => panic!("bmm {side} must be 3-D, got {:?}", t.shape()),
    };
    let ([ba, m, k], [bb, k2, n]) = (dims3(a, "lhs", a_t), dims3(b, "rhs", b_t));
    assert_eq!(ba, bb, "bmm batch dims disagree");
    assert_eq!(k, k2, "bmm inner dims disagree");

    let mut out = vec![0.0f32; ba * m * n];
    BMM_OUT_BYTES.add((ba * m * n * 4) as u64);
    let threads = pool.threads();
    let flops = ba * m * n * k;
    let _timing = BMM_TIMER.start_with(2 * flops as u64);
    let a_data = a.data();
    let b_data = b.data();
    let run_batches = |b0: usize, out_chunk: &mut [f32]| {
        for (j, o) in out_chunk.chunks_mut(m * n).enumerate() {
            let bi = b0 + j;
            let (a_bi, b_bi) = (
                &a_data[bi * m * k..][..m * k],
                &b_data[bi * k * n..][..k * n],
            );
            let lhs = if a_t {
                Lhs::cols(a_bi, m)
            } else {
                Lhs::rows(a_bi, k)
            };
            let rhs = if b_t {
                Panels::pack_t(b_bi, k)
            } else {
                Panels::pack(b_bi, n)
            };
            gemm_blocked_view(lhs, rhs, o, m, k, n);
        }
    };
    let parallel = threads > 1 && ba > 1 && flops >= pool::GEMM_GRAIN.saturating_mul(threads);
    if !parallel {
        run_batches(0, &mut out);
        return Tensor::from_vec(out, &[ba, m, n]);
    }

    let batches_per = ba.div_ceil(threads).max(1);
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
        .chunks_mut(batches_per * m * n)
        .enumerate()
        .map(|(chunk_idx, out_chunk)| {
            let run_batches = &run_batches;
            Box::new(move || run_batches(chunk_idx * batches_per, out_chunk))
                as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    pool.run(tasks);
    Tensor::from_vec(out, &[ba, m, n])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;
    use crate::rng::{uniform, SeedRng, SeedRngExt as _};

    #[test]
    fn matmul_hand_case() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        let b = Tensor::from_vec(vec![7., 8., 9., 10., 11., 12.], &[3, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = SeedRng::seed(7);
        let a = uniform(&[5, 5], -1.0, 1.0, &mut rng);
        let i = Tensor::eye(5);
        assert_close(matmul(&a, &i).data(), a.data(), 1e-6);
        assert_close(matmul(&i, &a).data(), a.data(), 1e-6);
    }

    #[test]
    fn matmul_matches_transpose_identity() {
        // (A·B)ᵀ = Bᵀ·Aᵀ
        let mut rng = SeedRng::seed(11);
        let a = uniform(&[4, 6], -1.0, 1.0, &mut rng);
        let b = uniform(&[6, 3], -1.0, 1.0, &mut rng);
        let lhs = matmul(&a, &b).t();
        let rhs = matmul(&b.t(), &a.t());
        assert_close(lhs.data(), rhs.data(), 1e-5);
    }

    #[test]
    fn parallel_path_matches_serial() {
        let mut rng = SeedRng::seed(3);
        // Big enough to cross the parallel threshold on any pool size.
        let a = uniform(&[256, 128], -1.0, 1.0, &mut rng);
        let b = uniform(&[128, 256], -1.0, 1.0, &mut rng);
        let par = matmul(&a, &b);
        let mut serial = vec![0.0f32; 256 * 256];
        gemm_serial(a.data(), b.data(), &mut serial, 256, 128, 256);
        assert_close(par.data(), &serial, 1e-4);
    }

    #[test]
    fn explicit_pools_agree_bitwise_across_sizes() {
        let mut rng = SeedRng::seed(13);
        let a = uniform(&[96, 200], -1.0, 1.0, &mut rng);
        let b = uniform(&[200, 96], -1.0, 1.0, &mut rng);
        let one = pool::ThreadPool::new(1);
        let four = pool::ThreadPool::new(4);
        let c1 = matmul_in(&one, &a, &b);
        let c4 = matmul_in(&four, &a, &b);
        assert_eq!(c1.data(), c4.data(), "thread count changed GEMM bits");
    }

    #[test]
    fn bmm_matches_per_batch_matmul() {
        let mut rng = SeedRng::seed(9);
        let a = uniform(&[3, 2, 4], -1.0, 1.0, &mut rng);
        let b = uniform(&[3, 4, 5], -1.0, 1.0, &mut rng);
        let c = bmm(&a, &b);
        for bi in 0..3 {
            let a2 = Tensor::from_vec(a.data()[bi * 8..(bi + 1) * 8].to_vec(), &[2, 4]);
            let b2 = Tensor::from_vec(b.data()[bi * 20..(bi + 1) * 20].to_vec(), &[4, 5]);
            let c2 = matmul(&a2, &b2);
            assert_close(&c.data()[bi * 10..(bi + 1) * 10], c2.data(), 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "inner dims disagree")]
    fn dimension_mismatch_panics() {
        matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2]));
    }

    /// `matmul_in`'s column split (taken for short or wide products on a
    /// pool of more than one worker) must reproduce the serial blocked
    /// product bit for bit, across NC-boundary widths, KC-crossing depths,
    /// batches up to 4·MR rows, an all-zero row and non-finite inputs —
    /// from per-call panels and from a [`PackedRhs`] alike.
    #[test]
    fn column_split_matches_blocked_bitwise() {
        let _g = crate::mem::tests::ACCOUNTING
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let pools: Vec<pool::ThreadPool> = (1..=4).map(pool::ThreadPool::new).collect();
        let mut rng = SeedRng::seed(29);
        for n in [2 * NC - 1, 2 * NC, 2 * NC + NR + 3, 113_959] {
            for k in [1, 32, KC + 7] {
                // Every row count up to MR, then both sides of each
                // MR-block boundary up to 4·MR. At n = 113 959 the
                // multi-row shapes are computed in several dense
                // sub-blocks per worker.
                for m in [1, 2, 3, MR, MR + 1, 2 * MR, 3 * MR, 3 * MR + 1, 4 * MR] {
                    let mut a = uniform(&[m, k], -1.0, 1.0, &mut rng).data().to_vec();
                    let mut b = uniform(&[k, n], -1.0, 1.0, &mut rng).data().to_vec();
                    if m >= 2 {
                        a[k..2 * k].fill(0.0);
                    }
                    if m > MR {
                        a[(m - 1) * k..].fill(0.0);
                    }
                    if m >= 3 {
                        a[2 * k] = f32::NAN;
                    }
                    b[n - 1] = f32::INFINITY;
                    let mut want = vec![0.0f32; m * n];
                    gemm_blocked(&a, &b, &mut want, m, k, n);
                    let (a, b) = (Tensor::from_vec(a, &[m, k]), Tensor::from_vec(b, &[k, n]));
                    let packed = PackedRhs::pack(&b);
                    for p in &pools {
                        // Through the gate, and forced (the narrow shapes
                        // fall under the grain, so the gate alone would
                        // never split their NC boundaries).
                        let gated = matmul_in(p, &a, &b);
                        let gated_packed = matmul_packed_in(p, &a, &packed);
                        let forced = |src| {
                            let mut out = vec![0.0f32; m * n];
                            matmul_cols(p, Lhs::rows(a.data(), k), src, &mut out, m, k, n);
                            out
                        };
                        let forced_packed = forced(Panels::Borrow {
                            rhs: &packed,
                            col0: 0,
                        });
                        let forced = forced(Panels::pack(b.data(), n));
                        for (path, got) in [
                            ("gated", gated.data()),
                            ("gated packed", gated_packed.data()),
                            ("forced", &forced),
                            ("forced packed", &forced_packed),
                        ] {
                            let same = got
                                .iter()
                                .zip(&want)
                                .all(|(g, w)| g.to_bits() == w.to_bits());
                            assert!(same, "{path} m={m} k={k} n={n} threads={}", p.threads());
                        }
                    }
                }
            }
        }
    }

    /// [`matmul_depth`] adds the same panel chains in the same order as
    /// the serial product, bit for bit: depths from one element to 320
    /// KC panels plus a partial one, a single panel (every worker but the
    /// first idle), fewer panels than workers, a row zero at every depth
    /// and a whole MR tile zero inside panel 0 only (where `b` is
    /// infinite, so the serial product makes NaN), NaN and ±inf in either
    /// operand,
    /// and both layouts of `a` — at every SIMD level, on 1, 2 and 4
    /// workers.
    #[test]
    fn depth_split_matches_blocked_bitwise() {
        let pools: Vec<pool::ThreadPool> =
            [1, 2, 4].into_iter().map(pool::ThreadPool::new).collect();
        // Plain vectors, not tensors: this test's multi-megabyte operands
        // stay outside the memory accounting another test reads.
        let values = |len: usize, seed: usize| -> Vec<f32> {
            let hash = |i: usize| (i * 2_654_435_761 + seed * 40_503) % 2_001;
            (0..len).map(|i| hash(i) as f32 / 1_000.0 - 1.0).collect()
        };
        let prev = simd::level();
        for k in [1, KC - 1, KC, KC + 1, 3 * KC + 5, 320 * KC, 320 * KC + 3] {
            for (m, n) in [(8, 8), (3, 17), (MR + 1, NR + 1), (0, 8), (8, 0)] {
                let mut a = values(m * k, k + m);
                let mut b = values(k * n, k + n + 1);
                if m >= 3 {
                    // The first MR rows (a whole tile where m allows) are
                    // zero in panel 0 only, row 1 at every depth.
                    for row in a.chunks_exact_mut(k).take(MR) {
                        row[..KC.min(k)].fill(0.0);
                    }
                    a[k..2 * k].fill(0.0);
                    a[m * k - 1] = f32::NAN;
                }
                if n >= 2 {
                    // Depth 0 meets the zero tile: 0 × -inf is NaN there.
                    b[(k - 1) * n] = f32::INFINITY;
                    b[n - 1] = f32::NEG_INFINITY;
                }
                // Row-major `a`, and the same values stored as `aᵀ`.
                let a_cols: Vec<f32> = (0..k * m).map(|e| a[(e % m) * k + e / m]).collect();
                let mut want = vec![0.0f32; m * n];
                gemm_blocked(&a, &b, &mut want, m, k, n);
                for level in simd::available_levels() {
                    simd::set_level(level);
                    for p in &pools {
                        for (layout, lhs) in
                            [("rows", Lhs::rows(&a, k)), ("cols", Lhs::cols(&a_cols, m))]
                        {
                            let mut got = vec![0.0f32; m * n];
                            matmul_depth(p, lhs, Panels::pack(&b, n), &mut got, [m, k, n]);
                            let same = got
                                .iter()
                                .zip(&want)
                                .all(|(g, w)| g.to_bits() == w.to_bits());
                            let threads = p.threads();
                            assert!(same, "{layout} m={m} k={k} n={n} threads={threads} {level}");
                        }
                    }
                }
            }
        }
        simd::set_level(prev);
    }

    /// The gate takes the depth split only for a deep product whose rows
    /// would give each worker one MR tile, and only above the cutoff.
    #[test]
    fn split_gate_picks_each_path() {
        assert_eq!(split(1, [81_920, 8, 8]), Split::Serial);
        assert_eq!(split(2, [81_920, 8, 8]), Split::Rows(40_960));
        assert_eq!(split(2, [8, 81_920, 8]), Split::Depth);
        assert_eq!(split(4, [8, 81_920, 8]), Split::Depth);
        assert_eq!(split(2, [8, 1_280, 8]), Split::Serial);
        assert_eq!(split(2, [40, 32, 32]), Split::Serial);
        assert_eq!(split(2, [1_280, 32, 891]), Split::Rows(640));
        assert_eq!(split(2, [32, 1_280, 891]), Split::Rows(16));
        assert_eq!(split(2, [1, 32, 113_959]), Split::Cols);
        // Partial tiles beyond one dense block fall back to the row split.
        assert_eq!(split(2, [8, 81_920, 1_000]), Split::Rows(4));
    }

    /// The row split of a tall product keeps every row on the same kernel
    /// path as the serial product: zero rows times an infinite column give
    /// NaN inside a 4-row micro-kernel block but 0 on the single-row path,
    /// so a row block that does not start at a multiple of MR changes bits.
    #[test]
    fn row_split_matches_blocked_bitwise() {
        let (m, k, n) = (64 * MR + 1, KC + 7, 2 * NC + NR + 3);
        let mut rng = SeedRng::seed(31);
        let mut a = uniform(&[m, k], -1.0, 1.0, &mut rng).data().to_vec();
        let mut b = uniform(&[k, n], -1.0, 1.0, &mut rng).data().to_vec();
        for i in (0..m).filter(|i| i % 2 == 0 || (2 * MR..3 * MR).contains(i)) {
            a[i * k..(i + 1) * k].fill(0.0);
        }
        a[k] = f32::NAN;
        b[n - 1] = f32::INFINITY;
        let mut want = vec![0.0f32; m * n];
        gemm_blocked(&a, &b, &mut want, m, k, n);
        let (a, b) = (Tensor::from_vec(a, &[m, k]), Tensor::from_vec(b, &[k, n]));
        for threads in 1..=4 {
            let got = matmul_in(&pool::ThreadPool::new(threads), &a, &b);
            let same = got
                .data()
                .iter()
                .zip(&want)
                .all(|(g, w)| g.to_bits() == w.to_bits());
            assert!(same, "threads={threads}");
        }
    }
}
