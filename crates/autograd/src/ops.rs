//! Differentiable primitive operations on [`Var`].
//!
//! Every function records one node on the tape of its operands. Binary ops
//! follow NumPy broadcasting; their backward rules reduce gradients back to
//! the operand shapes with [`Tensor::reduce_to`] (the adjoint of
//! broadcasting).

use std::sync::Arc;

use ist_tensor::matmul::{self as mm, Adjacency};
use ist_tensor::{ops as t, Tensor};

use crate::tape::{Tape, Var};

fn same_tape(a: &Var, b: &Var) -> Tape {
    // All ops in one step must share a tape; mixing tapes is a logic error.
    assert!(
        a.tape.same_as(&b.tape),
        "operands recorded on different tapes"
    );
    a.tape.clone()
}

/// `a + b` (broadcasting).
pub fn add(a: &Var, b: &Var) -> Var {
    let _p = crate::profile::fwd("add");
    let tape = same_tape(a, b);
    let (av, bv) = (a.value(), b.value());
    let out = t::add(&av, &bv);
    let (sa, sb) = (av.shape().to_vec(), bv.shape().to_vec());
    tape.push(
        out,
        vec![a.id, b.id],
        Some(Box::new(move |g, needs| {
            vec![
                needs[0].then(|| g.reduce_to(&sa)),
                needs[1].then(|| g.reduce_to(&sb)),
            ]
        })),
        a.requires_grad() || b.requires_grad(),
    )
}

/// `a - b` (broadcasting).
pub fn sub(a: &Var, b: &Var) -> Var {
    let _p = crate::profile::fwd("sub");
    let tape = same_tape(a, b);
    let (av, bv) = (a.value(), b.value());
    let out = t::sub(&av, &bv);
    let (sa, sb) = (av.shape().to_vec(), bv.shape().to_vec());
    tape.push(
        out,
        vec![a.id, b.id],
        Some(Box::new(move |g, needs| {
            vec![
                needs[0].then(|| g.reduce_to(&sa)),
                needs[1].then(|| t::neg(g).reduce_to(&sb)),
            ]
        })),
        a.requires_grad() || b.requires_grad(),
    )
}

/// Element-wise `a * b` (broadcasting).
pub fn mul(a: &Var, b: &Var) -> Var {
    let _p = crate::profile::fwd("mul");
    let tape = same_tape(a, b);
    let (av, bv) = (a.value(), b.value());
    let out = t::mul(&av, &bv);
    let (sa, sb) = (av.shape().to_vec(), bv.shape().to_vec());
    tape.push(
        out,
        vec![a.id, b.id],
        Some(Box::new(move |g, needs| {
            vec![
                needs[0].then(|| t::mul_reduce_to(g, &bv, &sa)),
                needs[1].then(|| t::mul_reduce_to(g, &av, &sb)),
            ]
        })),
        a.requires_grad() || b.requires_grad(),
    )
}

/// Element-wise `a / b` (broadcasting).
pub fn div(a: &Var, b: &Var) -> Var {
    let _p = crate::profile::fwd("div");
    let tape = same_tape(a, b);
    let (av, bv) = (a.value(), b.value());
    let out = t::div(&av, &bv);
    let (sa, sb) = (av.shape().to_vec(), bv.shape().to_vec());
    tape.push(
        out,
        vec![a.id, b.id],
        Some(Box::new(move |g, needs| {
            let ga = needs[0].then(|| t::div(g, &bv).reduce_to(&sa));
            let gb = needs[1].then(|| {
                let val = t::div(&t::mul(g, &av), &t::mul(&bv, &bv));
                t::neg(&val).reduce_to(&sb)
            });
            vec![ga, gb]
        })),
        a.requires_grad() || b.requires_grad(),
    )
}

/// `-a`.
pub fn neg(a: &Var) -> Var {
    let _p = crate::profile::fwd("neg");
    let out = t::neg(&a.value());
    a.tape.push(
        out,
        vec![a.id],
        Some(Box::new(|g, _| vec![Some(t::neg(g))])),
        a.requires_grad(),
    )
}

/// `a + s` for scalar `s`.
pub fn add_scalar(a: &Var, s: f32) -> Var {
    let _p = crate::profile::fwd("add_scalar");
    let out = t::add_scalar(&a.value(), s);
    a.tape.push(
        out,
        vec![a.id],
        Some(Box::new(|g, _| vec![Some(g.clone())])),
        a.requires_grad(),
    )
}

/// `a * s` for scalar `s`.
pub fn scale(a: &Var, s: f32) -> Var {
    let _p = crate::profile::fwd("scale");
    let out = t::scale(&a.value(), s);
    a.tape.push(
        out,
        vec![a.id],
        Some(Box::new(move |g, _| vec![Some(t::scale(g, s))])),
        a.requires_grad(),
    )
}

/// 2-D matrix product `a[m×k] · b[k×n]`. The backward reads the
/// transposed operands in place: `g · bᵀ` and `aᵀ · g`.
pub fn matmul(a: &Var, b: &Var) -> Var {
    let _p = crate::profile::fwd("matmul");
    let tape = same_tape(a, b);
    let (av, bv) = (a.value(), b.value());
    let out = mm::matmul(&av, &bv);
    tape.push(
        out,
        vec![a.id, b.id],
        Some(Box::new(move |g, needs| {
            vec![
                needs[0].then(|| mm::matmul_nt(g, &bv)),
                needs[1].then(|| mm::matmul_tn(&av, g)),
            ]
        })),
        a.requires_grad() || b.requires_grad(),
    )
}

/// `a[m×k] · b[n×k]ᵀ`, `bᵀ` read in place — the scoring of every row of
/// `a` against a table of rows `b`. Bitwise equal to a [`matmul`] of `a`
/// with the transposed table, forward and backward; profiled as a
/// `matmul`. `b`'s gradient is `aᵀ · g`, transposed.
pub fn matmul_nt(a: &Var, b: &Var) -> Var {
    let _p = crate::profile::fwd("matmul");
    let tape = same_tape(a, b);
    let (av, bv) = (a.value(), b.value());
    let out = mm::matmul_nt(&av, &bv);
    tape.push(
        out,
        vec![a.id, b.id],
        Some(Box::new(move |g, needs| {
            vec![
                needs[0].then(|| mm::matmul(g, &bv)),
                needs[1].then(|| mm::matmul_tn(&av, g).t()),
            ]
        })),
        a.requires_grad() || b.requires_grad(),
    )
}

/// Batched matrix product `a[B×m×k] · b[B×k×n]`. The backward reads the
/// transposed operands in place, as [`matmul`]'s does.
pub fn bmm(a: &Var, b: &Var) -> Var {
    let _p = crate::profile::fwd("bmm");
    let tape = same_tape(a, b);
    let (av, bv) = (a.value(), b.value());
    let out = mm::bmm(&av, &bv);
    tape.push(
        out,
        vec![a.id, b.id],
        Some(Box::new(move |g, needs| {
            vec![
                needs[0].then(|| mm::bmm_nt(g, &bv)),
                needs[1].then(|| mm::bmm_tn(&av, g)),
            ]
        })),
        a.requires_grad() || b.requires_grad(),
    )
}

/// Batched `a[B×m×k] · b[B×n×k]ᵀ`, each `bᵀ` read in place — attention's
/// `q · kᵀ`. Bitwise equal to a [`bmm`] with `b`'s last two axes
/// transposed, forward and backward; profiled as a `bmm`.
pub fn bmm_nt(a: &Var, b: &Var) -> Var {
    let _p = crate::profile::fwd("bmm");
    let tape = same_tape(a, b);
    let (av, bv) = (a.value(), b.value());
    let out = mm::bmm_nt(&av, &bv);
    tape.push(
        out,
        vec![a.id, b.id],
        Some(Box::new(move |g, needs| {
            vec![
                needs[0].then(|| mm::bmm(g, &bv)),
                needs[1].then(|| mm::bmm_tn(&av, g).transpose_last2()),
            ]
        })),
        a.requires_grad() || b.requires_grad(),
    )
}

/// Graph propagation in the features' own layout:
/// `out[r, i, :] = Σ_j adj[i, j] · h[r, j, :]` for `adj: [M, K]` and
/// `h: [R, K, d]` → `[R, M, d]` ([`Adjacency`], which documents the
/// bits). The backward applies `adjᵀ` to the gradient the same way and,
/// when `adj` requires it, returns `adj`'s gradient
/// ([`mm::propagate_adj_grad`]). Prepares `adj` on every call; an
/// adjacency propagated through several times is prepared once for
/// [`propagate_with`].
pub fn propagate(adj: &Var, h: &Var) -> Var {
    propagate_with(adj, &Arc::new(Adjacency::new(adj.value())), h)
}

/// [`propagate`] through `prepared`, which holds `adj`'s value with its
/// compressed rows (and, once the backward needs them, those of its
/// transpose) already built.
pub fn propagate_with(adj: &Var, prepared: &Arc<Adjacency>, h: &Var) -> Var {
    let _p = crate::profile::fwd("propagate");
    let tape = same_tape(adj, h);
    debug_assert!(
        std::ptr::eq(adj.value().data(), prepared.dense().data()),
        "adjacency was prepared from another value"
    );
    let hv = h.value();
    let out = prepared.propagate(&hv);
    let prepared = Arc::clone(prepared);
    tape.push(
        out,
        vec![adj.id, h.id],
        Some(Box::new(move |g, needs| {
            vec![
                needs[0].then(|| mm::propagate_adj_grad(g, &hv)),
                needs[1].then(|| prepared.propagate_t(g)),
            ]
        })),
        adj.requires_grad() || h.requires_grad(),
    )
}

/// Reshape (same element count).
pub fn reshape(a: &Var, shape: &[usize]) -> Var {
    let _p = crate::profile::fwd("reshape");
    let orig = a.shape();
    let out = a.value().reshape(shape);
    a.tape.push(
        out,
        vec![a.id],
        Some(Box::new(move |g, _| vec![Some(g.reshape(&orig))])),
        a.requires_grad(),
    )
}

/// Row gather from a 2-D table — the embedding-lookup primitive.
///
/// `out[r, :] = table[indices[r], :]`; backward scatter-adds into the table.
pub fn index_select_rows(table: &Var, indices: &[usize]) -> Var {
    let _p = crate::profile::fwd("index_select_rows");
    let tv = table.value();
    let out = tv.index_select_rows(indices);
    let idx = indices.to_vec();
    let table_shape = tv.shape().to_vec();
    table.tape.push(
        out,
        vec![table.id],
        Some(Box::new(move |g, _| {
            let mut gt = Tensor::zeros(&table_shape);
            gt.scatter_add_rows(&idx, g);
            vec![Some(gt)]
        })),
        table.requires_grad(),
    )
}

/// Bag-of-rows sum: `out[r, :] = Σ_{i ∈ bags[r]} table[i, :]`.
///
/// Used for the concept-embedding sum of Eq. (1): each item contributes the
/// sum of the embeddings of its concepts. Empty bags produce zero rows.
pub fn bag_select_sum(table: &Var, bags: &[Vec<usize>]) -> Var {
    let _p = crate::profile::fwd("bag_select_sum");
    let tv = table.value();
    assert_eq!(tv.rank(), 2);
    let d = tv.shape()[1];
    let mut out = Tensor::zeros(&[bags.len(), d]);
    for (r, bag) in bags.iter().enumerate() {
        let dst_range = r * d..(r + 1) * d;
        for &i in bag {
            let src = &tv.data()[i * d..(i + 1) * d];
            for (o, v) in out.data_mut()[dst_range.clone()].iter_mut().zip(src) {
                *o += v;
            }
        }
    }
    let bags_owned = bags.to_vec();
    let table_shape = tv.shape().to_vec();
    table.tape.push(
        out,
        vec![table.id],
        Some(Box::new(move |g, _| {
            let mut gt = Tensor::zeros(&table_shape);
            for (r, bag) in bags_owned.iter().enumerate() {
                let src = &g.data()[r * d..(r + 1) * d];
                for &i in bag {
                    for (o, v) in gt.data_mut()[i * d..(i + 1) * d].iter_mut().zip(src) {
                        *o += v;
                    }
                }
            }
            vec![Some(gt)]
        })),
        table.requires_grad(),
    )
}

/// Concatenates 2-D vars along axis 0.
pub fn concat_rows(parts: &[Var]) -> Var {
    let _p = crate::profile::fwd("concat_rows");
    assert!(!parts.is_empty());
    let tape = parts[0].tape.clone();
    let values: Vec<Tensor> = parts.iter().map(|p| p.value()).collect();
    let refs: Vec<&Tensor> = values.iter().collect();
    let out = Tensor::concat_rows(&refs);
    let row_counts: Vec<usize> = values.iter().map(|v| v.shape()[0]).collect();
    let requires = parts.iter().any(|p| p.requires_grad());
    tape.push(
        out,
        parts.iter().map(|p| p.id).collect(),
        Some(Box::new(move |g, needs| {
            let mut grads = Vec::with_capacity(row_counts.len());
            let mut row = 0usize;
            for (i, &rows) in row_counts.iter().enumerate() {
                grads.push(needs[i].then(|| g.slice_rows(row, row + rows)));
                row += rows;
            }
            grads
        })),
        requires,
    )
}

/// Slices rows `[start, end)` of a 2-D var; backward zero-pads.
pub fn slice_rows(a: &Var, start: usize, end: usize) -> Var {
    let _p = crate::profile::fwd("slice_rows");
    let av = a.value();
    let out = av.slice_rows(start, end);
    let full_shape = av.shape().to_vec();
    a.tape.push(
        out,
        vec![a.id],
        Some(Box::new(move |g, _| {
            let mut gt = Tensor::zeros(&full_shape);
            let indices: Vec<usize> = (start..end).collect();
            gt.scatter_add_rows(&indices, g);
            vec![Some(gt)]
        })),
        a.requires_grad(),
    )
}

/// Rectified linear unit.
pub fn relu(a: &Var) -> Var {
    let _p = crate::profile::fwd("relu");
    let av = a.value();
    let out = t::relu(&av);
    a.tape.push(
        out,
        vec![a.id],
        Some(Box::new(move |g, _| {
            vec![Some(t::zip_map(
                g,
                &av,
                |gv, xv| if xv > 0.0 { gv } else { 0.0 },
            ))]
        })),
        a.requires_grad(),
    )
}

/// Logistic sigmoid.
pub fn sigmoid(a: &Var) -> Var {
    let _p = crate::profile::fwd("sigmoid");
    let out = t::sigmoid(&a.value());
    let y = out.clone();
    a.tape.push(
        out,
        vec![a.id],
        Some(Box::new(move |g, _| {
            vec![Some(t::zip_map(g, &y, |gv, yv| gv * yv * (1.0 - yv)))]
        })),
        a.requires_grad(),
    )
}

/// Hyperbolic tangent.
pub fn tanh(a: &Var) -> Var {
    let _p = crate::profile::fwd("tanh");
    let out = t::tanh(&a.value());
    let y = out.clone();
    a.tape.push(
        out,
        vec![a.id],
        Some(Box::new(move |g, _| {
            vec![Some(t::zip_map(g, &y, |gv, yv| gv * (1.0 - yv * yv)))]
        })),
        a.requires_grad(),
    )
}

/// Element-wise natural logarithm (inputs must be positive).
pub fn ln(a: &Var) -> Var {
    let _p = crate::profile::fwd("ln");
    let av = a.value();
    let out = t::ln(&av);
    a.tape.push(
        out,
        vec![a.id],
        Some(Box::new(move |g, _| vec![Some(t::div(g, &av))])),
        a.requires_grad(),
    )
}

/// Sum of all elements → scalar.
pub fn sum_all(a: &Var) -> Var {
    let _p = crate::profile::fwd("sum_all");
    let av = a.value();
    let out = Tensor::scalar(ist_tensor::reduce::sum(&av));
    let shape = av.shape().to_vec();
    a.tape.push(
        out,
        vec![a.id],
        Some(Box::new(move |g, _| {
            vec![Some(Tensor::full(&shape, g.item()))]
        })),
        a.requires_grad(),
    )
}

/// Mean of all elements → scalar.
pub fn mean_all(a: &Var) -> Var {
    let _p = crate::profile::fwd("mean_all");
    let n = a.value().len() as f32;
    scale(&sum_all(a), 1.0 / n)
}

/// Sums along the last axis: `[..., n] → [...]`.
pub fn sum_lastdim(a: &Var) -> Var {
    let _p = crate::profile::fwd("sum_lastdim");
    let av = a.value();
    let out = ist_tensor::reduce::sum_lastdim(&av);
    let in_shape = av.shape().to_vec();
    a.tape.push(
        out,
        vec![a.id],
        Some(Box::new(move |g, _| {
            // Broadcast the reduced grad back over the last axis.
            let mut gshape = g.shape().to_vec();
            gshape.push(1);
            vec![Some(g.reshape(&gshape).broadcast_to(&in_shape))]
        })),
        a.requires_grad(),
    )
}

/// Sum of squares of all elements → scalar; the L2 regulariser primitive.
pub fn sum_squares(a: &Var) -> Var {
    let _p = crate::profile::fwd("sum_squares");
    let av = a.value();
    let out = Tensor::scalar(av.data().iter().map(|v| v * v).sum());
    a.tape.push(
        out,
        vec![a.id],
        Some(Box::new(move |g, _| {
            vec![Some(t::scale(&av, 2.0 * g.item()))]
        })),
        a.requires_grad(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_grads;
    use ist_tensor::rng::{uniform, SeedRng, SeedRngExt as _};

    fn rt(seed: u64, shape: &[usize]) -> Tensor {
        let mut rng = SeedRng::seed(seed);
        uniform(shape, -1.0, 1.0, &mut rng)
    }

    #[test]
    fn grad_add_broadcast() {
        check_grads(&[rt(1, &[2, 3]), rt(2, &[3])], |_, xs| {
            let s = add(&xs[0], &xs[1]);
            sum_all(&mul(&s, &s))
        });
    }

    #[test]
    fn grad_sub_div() {
        check_grads(&[rt(3, &[2, 2]), rt(4, &[2, 2])], |_, xs| {
            // keep divisor away from zero
            let b = add_scalar(&xs[1], 3.0);
            sum_all(&div(&sub(&xs[0], &b), &b))
        });
    }

    #[test]
    fn grad_matmul() {
        check_grads(&[rt(5, &[3, 4]), rt(6, &[4, 2])], |_, xs| {
            sum_squares(&matmul(&xs[0], &xs[1]))
        });
    }

    #[test]
    fn grad_bmm_and_transpose() {
        check_grads(&[rt(7, &[2, 3, 4]), rt(8, &[2, 4, 2])], |_, xs| {
            sum_squares(&bmm(&xs[0], &xs[1]))
        });
        check_grads(&[rt(9, &[3, 4]), rt(22, &[5, 4])], |_, xs| {
            sum_squares(&matmul_nt(&xs[0], &xs[1]))
        });
        check_grads(&[rt(10, &[2, 3, 4]), rt(23, &[2, 5, 4])], |_, xs| {
            sum_squares(&bmm_nt(&xs[0], &xs[1]))
        });
    }

    #[test]
    fn grad_reshape_slice_concat() {
        check_grads(&[rt(11, &[2, 6])], |_, xs| {
            sum_squares(&reshape(&xs[0], &[3, 4]))
        });
        check_grads(&[rt(12, &[4, 3])], |_, xs| {
            sum_squares(&slice_rows(&xs[0], 1, 3))
        });
        check_grads(&[rt(13, &[2, 3]), rt(14, &[3, 3])], |_, xs| {
            sum_squares(&concat_rows(&[xs[0].clone(), xs[1].clone()]))
        });
    }

    #[test]
    fn grad_gather_and_bags() {
        check_grads(&[rt(15, &[5, 3])], |_, xs| {
            sum_squares(&index_select_rows(&xs[0], &[0, 2, 2, 4]))
        });
        check_grads(&[rt(16, &[5, 3])], |_, xs| {
            sum_squares(&bag_select_sum(
                &xs[0],
                &[vec![0, 1], vec![], vec![2, 2, 4]],
            ))
        });
    }

    #[test]
    fn grad_nonlinearities() {
        check_grads(&[rt(17, &[3, 3])], |_, xs| sum_squares(&sigmoid(&xs[0])));
        check_grads(&[rt(18, &[3, 3])], |_, xs| sum_squares(&tanh(&xs[0])));
        // relu checked away from the kink
        check_grads(&[t::add_scalar(&rt(19, &[3, 3]), 2.0)], |_, xs| {
            sum_squares(&relu(&xs[0]))
        });
    }

    #[test]
    fn grad_reductions() {
        check_grads(&[rt(20, &[2, 4])], |_, xs| {
            sum_squares(&sum_lastdim(&xs[0]))
        });
        check_grads(&[rt(21, &[2, 4])], |_, xs| {
            let m = mean_all(&xs[0]);
            mul(&m, &m)
        });
    }

    #[test]
    fn forward_values_sane() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]));
        let b = tape.leaf(Tensor::eye(2));
        assert_eq!(matmul(&a, &b).value().data(), a.value().data());
        assert_eq!(sum_all(&a).value().item(), 10.0);
        assert_eq!(mean_all(&a).value().item(), 2.5);
        assert_eq!(sum_squares(&a).value().item(), 30.0);
        assert_eq!(sum_lastdim(&a).value().data(), &[3.0, 7.0]);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::check::check_grads;
    use ist_tensor::rng::{uniform, SeedRng, SeedRngExt as _};

    #[test]
    fn grad_ln() {
        let mut rng = SeedRng::seed(31);
        // ln needs positive inputs.
        let pos = uniform(&[2, 3], 0.5, 3.0, &mut rng);
        check_grads(&[pos], |_, xs| sum_squares(&ln(&xs[0])));
    }

    #[test]
    fn ln_forward_matches_std() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, std::f32::consts::E], &[2]));
        let y = ln(&x).value();
        assert!((y.data()[0]).abs() < 1e-6);
        assert!((y.data()[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn scale_by_zero_blocks_gradient_value() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::scalar(3.0));
        let loss = sum_all(&scale(&x, 0.0));
        let grads = tape.backward(&loss);
        assert_eq!(grads[x.id()].as_ref().unwrap().item(), 0.0);
    }
}
