//! `ops::propagate` against the GEMM path it replaced: the features
//! transposed to `[K, R·d]` by an index loop, one `matmul`, and transposed
//! back. Forward values and both operands' gradients must agree bit for bit
//! while the features are finite; the one documented difference (a zero
//! coefficient meeting ±inf) is pinned too.

use ist_autograd::check::check_grads;
use ist_autograd::{fused, ops, Tape, Var};
use ist_tensor::rng::{uniform, SeedRng, SeedRngExt as _};
use ist_tensor::Tensor;

/// `[A, B, C] → [B, A, C]` by an index loop.
fn swap01(t: &Tensor) -> Tensor {
    let (a, b, c) = (t.shape()[0], t.shape()[1], t.shape()[2]);
    let mut out = vec![0.0f32; t.len()];
    for i in 0..a {
        for j in 0..b {
            for k in 0..c {
                out[(j * a + i) * c + k] = t.data()[(i * b + j) * c + k];
            }
        }
    }
    Tensor::from_vec(out, &[b, a, c])
}

/// The axis-01 transpose as a tape node (self-adjoint).
fn transpose_01(v: &Var) -> Var {
    v.tape().push_for_tests(
        swap01(&v.value()),
        vec![v.id()],
        Some(Box::new(|g, _| vec![Some(swap01(g))])),
    )
}

/// `adj · h` per copy, the way the GCN layer computed it before
/// `propagate`: transpose_01 → reshape → GEMM → reshape → transpose_01.
fn gemm_path(adj: &Var, h: &Var) -> Var {
    let (m, [r, k, d]) = (adj.shape()[0], <[usize; 3]>::try_from(h.shape()).unwrap());
    let hk = ops::reshape(&transpose_01(h), &[k, r * d]);
    let agg = ops::matmul(adj, &hk);
    transpose_01(&ops::reshape(&agg, &[m, r, d]))
}

/// Output, `adj`'s gradient and `h`'s gradient of `Σ path(adj, h) ⊙ wts`,
/// so the upstream gradient is exactly `wts`.
fn run(
    path: fn(&Var, &Var) -> Var,
    adj: &Tensor,
    h: &Tensor,
    wts: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let tape = Tape::new();
    let (a, x) = (tape.leaf(adj.clone()), tape.leaf(h.clone()));
    let out = path(&a, &x);
    let loss = ops::sum_all(&ops::mul(&out, &tape.constant(wts.clone())));
    let grads = tape.backward(&loss);
    let grad = |v: &Var| grads[v.id()].clone().expect("leaf gradient");
    (out.value(), grad(&a), grad(&x))
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn assert_matches_gemm_path(case: &str, adj: &Tensor, h: &Tensor) {
    let (m, r, d) = (adj.shape()[0], h.shape()[0], h.shape()[2]);
    let wts = uniform(&[r, m, d], -1.0, 1.0, &mut SeedRng::seed(r as u64));
    let new = run(ops::propagate, adj, h, &wts);
    let old = run(gemm_path, adj, h, &wts);
    assert_eq!(new.0.shape(), &[r, m, d], "{case}: output shape");
    assert!(bits(&new.0) == bits(&old.0), "{case}: forward bits differ");
    assert!(
        bits(&new.1) == bits(&old.1),
        "{case}: adj gradient bits differ"
    );
    assert!(
        bits(&new.2) == bits(&old.2),
        "{case}: h gradient bits differ"
    );
}

/// Symmetric-normalised adjacency with self-loops of a 5-node path, plus
/// concept 5 (isolated: self-loop only) and concept 6 (all-zero row and
/// column).
fn path_graph() -> Tensor {
    let k = 7;
    let mut ahat = vec![0.0f32; k * k];
    for i in 0..6 {
        ahat[i * k + i] = 1.0;
    }
    for i in 0..4 {
        ahat[i * k + i + 1] = 1.0;
        ahat[(i + 1) * k + i] = 1.0;
    }
    let deg: Vec<f32> = ahat.chunks(k).map(|row| row.iter().sum()).collect();
    let n = (0..k * k)
        .map(|e| {
            let (i, j) = (e / k, e % k);
            if ahat[e] == 0.0 {
                0.0
            } else {
                ahat[e] / (deg[i] * deg[j]).sqrt()
            }
        })
        .collect();
    Tensor::from_vec(n, &[k, k])
}

/// Row-softmax of random logits: every coefficient nonzero, like the
/// learned adjacency mode.
fn dense_learned(k: usize, seed: u64) -> Tensor {
    let tape = Tape::no_grad();
    let logits = tape.leaf(uniform(&[k, k], -2.0, 2.0, &mut SeedRng::seed(seed)));
    fused::softmax_lastdim(&logits).value()
}

/// Random features with one all-zero node row per copy and ±0 entries.
fn features(r: usize, k: usize, d: usize, seed: u64) -> Tensor {
    let mut h = uniform(&[r, k, d], -1.0, 1.0, &mut SeedRng::seed(seed));
    let data = h.data_mut();
    for copy in data.chunks_mut(k * d) {
        copy[d..2 * d].fill(0.0);
    }
    for (e, v) in data.iter_mut().enumerate() {
        match e % 11 {
            3 => *v = -0.0,
            7 => *v = 0.0,
            _ => {}
        }
    }
    h
}

#[test]
fn path_graph_matches_gemm_path_bitwise_across_row_chunks() {
    let adj = path_graph();
    for r in [1, 2, 63, 64, 65, 1280] {
        assert_matches_gemm_path(&format!("path R={r}"), &adj, &features(r, 7, 8, r as u64));
    }
}

#[test]
fn dense_learned_adjacency_matches_gemm_path_bitwise_across_row_chunks() {
    // 64 concepts, the largest shipped world; large enough R takes the
    // pool's 64-row chunks.
    let adj = dense_learned(64, 5);
    for r in [1, 2, 63, 64, 65, 1280] {
        assert_matches_gemm_path(&format!("dense R={r}"), &adj, &features(r, 64, 4, r as u64));
    }
}

#[test]
fn rectangular_adjacency_matches_gemm_path_bitwise() {
    // Caser's vertical filters: [n_filters, L] over [B, L, d].
    let mut adj = uniform(&[3, 7], -1.0, 1.0, &mut SeedRng::seed(9))
        .data()
        .to_vec();
    adj[4] = 0.0;
    adj[8] = -0.0;
    let adj = Tensor::from_vec(adj, &[3, 7]);
    for r in [1, 65] {
        assert_matches_gemm_path(
            &format!("rect R={r}"),
            &adj,
            &features(r, 7, 5, 40 + r as u64),
        );
    }
}

#[test]
fn propagate_gradients_check_on_both_operands() {
    let mut rng = SeedRng::seed(21);
    let mut adj = uniform(&[3, 4], -1.0, 1.0, &mut rng);
    adj.data_mut()[5] = 0.0;
    let h = uniform(&[2, 4, 3], -1.0, 1.0, &mut rng);
    check_grads(&[adj, h], |_, xs| {
        ops::sum_squares(&ops::propagate(&xs[0], &xs[1]))
    });
}

/// The one place the two paths part: a zero coefficient times ±inf is NaN
/// inside the GEMM's 4-row micro-kernel, while `propagate` skips the term.
#[test]
fn infinite_feature_behind_a_zero_coefficient_stays_finite() {
    let adj = path_graph();
    for inf in [f32::INFINITY, f32::NEG_INFINITY] {
        let mut h = features(1, 7, 2, 3);
        h.data_mut()[0] = inf; // node 0, feature 0; adj[2][0] == 0
        assert_eq!(adj.data()[2 * 7], 0.0);
        let tape = Tape::no_grad();
        let (a, x) = (tape.leaf(adj.clone()), tape.leaf(h));
        let (new, old) = (ops::propagate(&a, &x).value(), gemm_path(&a, &x).value());
        // out[0, 2, 0]: node 2 does not neighbour node 0.
        assert!(
            new.data()[2 * 2].is_finite(),
            "propagate skips the zero term"
        );
        assert!(old.data()[2 * 2].is_nan(), "the GEMM path computes 0 · inf");
        // Node 1 neighbours node 0: both paths carry the infinity.
        assert_eq!(new.data()[2], inf);
        assert_eq!(old.data()[2], inf);
    }
}
