//! Property-based tests of the tensor algebra (proptest).

use ist_tensor::rng::{uniform, SeedRng, SeedRngExt as _};
use ist_tensor::{broadcast_shapes, matmul, ops, order, reduce, strides_for, Tensor};
use proptest::prelude::*;

fn small_dims() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..5, 1..4)
}

fn tensor_of(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = SeedRng::seed(seed);
    uniform(dims, -2.0, 2.0, &mut rng)
}

/// Per-element reference for the broadcast walk: maps a flat index of the
/// output `out_dims` to the flat index of the operand element of shape
/// `in_dims` (right-aligned, broadcast axes contribute 0) that it reads.
fn broadcast_source_index(flat: usize, out_dims: &[usize], in_dims: &[usize]) -> usize {
    let out_strides = strides_for(out_dims);
    let in_strides = strides_for(in_dims);
    let offset = out_dims.len() - in_dims.len();
    let mut src = 0usize;
    let mut rem = flat;
    for (axis, (&extent, &stride)) in out_dims.iter().zip(out_strides.iter()).enumerate() {
        let idx = rem / stride;
        rem %= stride;
        assert!(idx < extent);
        if axis >= offset {
            let in_axis = axis - offset;
            if in_dims[in_axis] != 1 {
                src += idx * in_strides[in_axis];
            }
        }
    }
    src
}

/// Random values with every third one a negative zero, so a reduction's
/// starting value shows in its bits.
fn values_of(dims: &[usize], seed: u64) -> Tensor {
    let mut t = tensor_of(dims, seed);
    for v in t.data_mut().iter_mut().step_by(3) {
        *v = -0.0;
    }
    t
}

fn bits(data: &[f32]) -> Vec<u32> {
    data.iter().map(|v| v.to_bits()).collect()
}

/// `zip_map` (both argument orders), `broadcast_to` and `reduce_to` agree
/// bitwise with per-element loops over [`broadcast_source_index`].
fn walk_matches_reference(a: &Tensor, b: &Tensor) -> Result<(), TestCaseError> {
    let f = |x: f32, y: f32| x - 2.0 * y;
    let out = broadcast_shapes(a.shape(), b.shape()).expect("compatible shapes");
    let n: usize = out.iter().product();
    for (x, y) in [(a, b), (b, a)] {
        let want: Vec<f32> = (0..n)
            .map(|i| {
                let ix = broadcast_source_index(i, &out, x.shape());
                let iy = broadcast_source_index(i, &out, y.shape());
                f(x.data()[ix], y.data()[iy])
            })
            .collect();
        let got = ops::zip_map(x, y, f);
        prop_assert_eq!(got.shape(), &out[..]);
        prop_assert_eq!(
            bits(got.data()),
            bits(&want),
            "zip_map {:?} {:?}",
            x.shape(),
            y.shape()
        );
    }
    for t in [a, b] {
        let want: Vec<f32> = (0..n)
            .map(|i| t.data()[broadcast_source_index(i, &out, t.shape())])
            .collect();
        prop_assert_eq!(
            bits(t.broadcast_to(&out).data()),
            bits(&want),
            "broadcast_to {:?}",
            t.shape()
        );
        for big in [values_of(&out, 99), Tensor::full(&out, -0.0)] {
            // Same shape is the identity (a copy); a broadcast target sums from +0.0.
            let mut want = vec![0.0f32; t.len()];
            if t.shape() == &out[..] {
                want.copy_from_slice(big.data());
            } else {
                for (i, v) in big.data().iter().enumerate() {
                    want[broadcast_source_index(i, &out, t.shape())] += v;
                }
            }
            let got = big.reduce_to(t.shape());
            prop_assert_eq!(got.shape(), t.shape());
            prop_assert_eq!(
                bits(got.data()),
                bits(&want),
                "reduce_to {:?} -> {:?}",
                out,
                t.shape()
            );
        }
    }
    Ok(())
}

/// An operand broadcastable to `out`: the leading `drop` axes removed and
/// every axis whose bit is set in `ones` collapsed to extent 1.
fn operand_dims(out: &[usize], drop: usize, ones: u32) -> Vec<usize> {
    out[drop.min(out.len())..]
        .iter()
        .enumerate()
        .map(|(i, &d)| if ones >> i & 1 == 1 { 1 } else { d })
        .collect()
}

#[test]
fn broadcast_walk_matches_reference_on_fixed_cases() {
    // The reference itself: rows collapse, right alignment, columns collapse.
    let out = [2, 3];
    let map = |inp: &[usize]| -> Vec<usize> {
        (0..6)
            .map(|f| broadcast_source_index(f, &out, inp))
            .collect()
    };
    assert_eq!(map(&[1, 3]), vec![0, 1, 2, 0, 1, 2]);
    assert_eq!(map(&[3]), vec![0, 1, 2, 0, 1, 2]);
    assert_eq!(map(&[2, 1]), vec![0, 0, 0, 1, 1, 1]);
    // Both operands broadcast, rank 0, and the model's hot patterns.
    let pairs: [(&[usize], &[usize]); 7] = [
        (&[4, 1, 3], &[2, 3]),
        (&[2, 1], &[1, 3]),
        (&[], &[2, 3]),
        (&[5, 4, 6], &[5, 4, 1]),
        (&[5, 6], &[1]),
        (&[5, 6], &[6]),
        (&[0, 3], &[3]),
    ];
    for (i, (da, db)) in pairs.into_iter().enumerate() {
        let (a, b) = (values_of(da, i as u64), values_of(db, 50 + i as u64));
        walk_matches_reference(&a, &b).unwrap_or_else(|e| panic!("{da:?} x {db:?}: {e:?}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn broadcast_walk_matches_reference(
        out in prop::collection::vec(0usize..5, 0..5),
        (drop_a, drop_b) in (0usize..5, 0usize..5),
        (ones_a, ones_b) in (0u32..16, 0u32..16),
        seed in 0u64..1000,
    ) {
        let a = values_of(&operand_dims(&out, drop_a, ones_a), seed);
        let b = values_of(&operand_dims(&out, drop_b, ones_b), seed + 1);
        walk_matches_reference(&a, &b)?;
    }

    /// `mul_reduce_to(g, x, dims)` is bitwise `mul(g, x).reduce_to(dims)`
    /// over the same shapes: `g` the full shape, `x` and the target each
    /// an operand broadcast to it, with ±0 and some non-finite values.
    #[test]
    fn mul_reduce_to_matches_the_two_step_form(
        out in prop::collection::vec(0usize..5, 0..5),
        (drop_x, drop_t) in (0usize..5, 0usize..5),
        (ones_x, ones_t) in (0u32..16, 0u32..16),
        seed in 0u64..1000,
    ) {
        let mut g = values_of(&out, seed);
        let mut x = values_of(&operand_dims(&out, drop_x, ones_x), seed + 1);
        if seed % 3 == 0 && !g.is_empty() {
            g.data_mut()[0] = f32::NAN;
        }
        if seed % 5 == 0 && !x.is_empty() {
            let last = x.len() - 1;
            x.data_mut()[last] = f32::INFINITY;
        }
        let dims = operand_dims(&out, drop_t, ones_t);
        let want = ops::mul(&g, &x).reduce_to(&dims);
        let got = ops::mul_reduce_to(&g, &x, &dims);
        prop_assert_eq!(got.shape(), &dims[..]);
        // A NaN compares as NaN: `-0 · inf` makes the default NaN, and
        // when two different NaNs meet in one add the compiler may commute
        // it, so which payload survives is fixed by neither form.
        let canon = |t: &Tensor| -> Vec<u32> {
            t.data().iter().map(|v| if v.is_nan() { f32::NAN } else { *v }.to_bits()).collect()
        };
        prop_assert_eq!(canon(&got), canon(&want), "{:?} x {:?} -> {:?}", out, x.shape(), dims);
    }

    #[test]
    fn broadcast_is_commutative_for_add(dims in small_dims(), seed in 0u64..1000) {
        // a + row == row + a under row broadcasting.
        let a = tensor_of(&dims, seed);
        let last = *dims.last().unwrap();
        let row = tensor_of(&[last], seed + 1);
        let ab = ops::add(&a, &row);
        let ba = ops::add(&row, &a);
        prop_assert_eq!(ab.data(), ba.data());
        prop_assert_eq!(ab.shape(), a.shape());
    }

    #[test]
    fn broadcast_shapes_is_symmetric(a in small_dims(), b in small_dims()) {
        prop_assert_eq!(broadcast_shapes(&a, &b), broadcast_shapes(&b, &a));
    }

    #[test]
    fn reduce_to_is_adjoint_of_broadcast(dims in small_dims(), seed in 0u64..1000) {
        // ⟨broadcast(x), y⟩ == ⟨x, reduce(y)⟩ — the defining adjoint
        // property used by every broadcast backward rule.
        let last = *dims.last().unwrap();
        let x = tensor_of(&[last], seed);
        let y = tensor_of(&dims, seed + 7);
        let bx = x.broadcast_to(&dims);
        let ry = y.reduce_to(&[last]);
        let lhs: f32 = bx.data().iter().zip(y.data()).map(|(p, q)| p * q).sum();
        let rhs: f32 = x.data().iter().zip(ry.data()).map(|(p, q)| p * q).sum();
        prop_assert!((lhs - rhs).abs() <= 1e-3 * (1.0 + lhs.abs()));
    }

    #[test]
    fn matmul_distributes_over_add(m in 1usize..5, k in 1usize..5, n in 1usize..5, seed in 0u64..1000) {
        let a = tensor_of(&[m, k], seed);
        let b = tensor_of(&[k, n], seed + 1);
        let c = tensor_of(&[k, n], seed + 2);
        let lhs = matmul::matmul(&a, &ops::add(&b, &c));
        let rhs = ops::add(&matmul::matmul(&a, &b), &matmul::matmul(&a, &c));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-4 * (1.0 + x.abs()));
        }
    }

    #[test]
    fn transpose_is_involutive(m in 1usize..6, n in 1usize..6, seed in 0u64..1000) {
        let a = tensor_of(&[m, n], seed);
        let att = a.t().t();
        prop_assert_eq!(att.data(), a.data());
        let b = tensor_of(&[2, m, n], seed + 3);
        let b_last2 = b.transpose_last2().transpose_last2();
        prop_assert_eq!(b_last2.data(), b.data());
    }

    #[test]
    fn softmax_rows_are_distributions(rows in 1usize..6, cols in 1usize..8, seed in 0u64..1000) {
        let t = tensor_of(&[rows, cols], seed);
        let s = reduce::softmax_lastdim(&t);
        for r in 0..rows {
            let row = &s.data()[r * cols..(r + 1) * cols];
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5);
            prop_assert!(row.iter().all(|&v| v >= 0.0));
        }
        // argmax is preserved by softmax.
        prop_assert_eq!(reduce::argmax_lastdim(&t), reduce::argmax_lastdim(&s));
    }

    #[test]
    fn topk_returns_k_distinct_best(rows in 1usize..4, cols in 2usize..9, seed in 0u64..1000) {
        let t = tensor_of(&[rows, cols], seed);
        let k = 1 + seed as usize % cols;
        let tk = reduce::topk_lastdim(&t, k);
        for (r, idx) in tk.iter().enumerate() {
            prop_assert_eq!(idx.len(), k);
            let set: std::collections::HashSet<_> = idx.iter().collect();
            prop_assert_eq!(set.len(), k);
            // Every excluded entry is ≤ the smallest included entry.
            let worst_in = idx.iter().map(|&j| t.at2(r, j)).fold(f32::INFINITY, f32::min);
            for j in 0..cols {
                if !idx.contains(&j) {
                    prop_assert!(t.at2(r, j) <= worst_in + 1e-6);
                }
            }
        }
    }

    #[test]
    fn topk_matches_a_full_sort(
        rows in 1usize..4,
        cols in 1usize..12,
        picks in prop::collection::vec(0usize..8, 33..34),
    ) {
        // Few distinct values, so ties are common; NaN, ±0 and ±inf too.
        const POOL: [f32; 8] = [
            f32::NAN, 0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, 1.0, -1.0, 0.5,
        ];
        let data: Vec<f32> = picks[..rows * cols].iter().map(|&p| POOL[p]).collect();
        let t = Tensor::from_vec(data, &[rows, cols]);
        for k in 0..=cols {
            let tk = reduce::topk_lastdim(&t, k);
            prop_assert_eq!(tk.len(), rows);
            for (r, got) in tk.iter().enumerate() {
                let row = &t.data()[r * cols..(r + 1) * cols];
                let mut full: Vec<usize> = (0..cols).collect();
                full.sort_by(|&a, &b| order::nan_last_desc(row[a], row[b]).then(a.cmp(&b)));
                prop_assert_eq!(got, &full[..k]);
            }
        }
    }

    #[test]
    fn gather_then_scatter_recovers_row_counts(rows in 2usize..6, seed in 0u64..1000) {
        let table = tensor_of(&[rows, 3], seed);
        let idx: Vec<usize> = (0..rows * 2).map(|i| i % rows).collect();
        let picked = table.index_select_rows(&idx);
        let mut acc = Tensor::zeros(&[rows, 3]);
        acc.scatter_add_rows(&idx, &picked);
        // Each row was picked exactly twice.
        for r in 0..rows {
            for c in 0..3 {
                prop_assert!((acc.at2(r, c) - 2.0 * table.at2(r, c)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn logsumexp_bounds_max(rows in 1usize..5, cols in 1usize..8, seed in 0u64..1000) {
        let t = tensor_of(&[rows, cols], seed);
        let lse = reduce::logsumexp_lastdim(&t);
        for r in 0..rows {
            let row = &t.data()[r * cols..(r + 1) * cols];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(lse.data()[r] >= max - 1e-5);
            prop_assert!(lse.data()[r] <= max + (cols as f32).ln() + 1e-5);
        }
    }
}
