//! Shape algebra: ranks, element counts, row-major strides and NumPy-style
//! broadcasting rules.

use std::ops::Range;

/// A tensor shape: the extent of each axis, outermost first.
///
/// A rank-0 shape (`[]`) denotes a scalar with exactly one element.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape(pub Vec<usize>);

impl Shape {
    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of all extents; 1 for scalars).
    pub fn num_elements(&self) -> usize {
        self.0.iter().product()
    }

    /// Borrow the extents.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }
}

impl std::fmt::Debug for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }
}

/// Row-major strides for `dims`: the distance (in elements) between
/// consecutive indices along each axis.
///
/// ```
/// assert_eq!(ist_tensor::strides_for(&[2, 3, 4]), vec![12, 4, 1]);
/// ```
pub fn strides_for(dims: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; dims.len()];
    for i in (0..dims.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * dims[i + 1];
    }
    strides
}

/// Number of elements implied by `dims`.
pub fn num_elements(dims: &[usize]) -> usize {
    dims.iter().product()
}

/// Computes the broadcast shape of `a` and `b` under NumPy rules:
/// shapes are right-aligned, and each axis pair must be equal or contain a 1.
///
/// Returns `None` when the shapes are incompatible.
///
/// ```
/// use ist_tensor::broadcast_shapes;
/// assert_eq!(broadcast_shapes(&[4, 1, 3], &[2, 3]), Some(vec![4, 2, 3]));
/// assert_eq!(broadcast_shapes(&[4, 2], &[3]), None);
/// ```
pub fn broadcast_shapes(a: &[usize], b: &[usize]) -> Option<Vec<usize>> {
    let rank = a.len().max(b.len());
    // Right-aligned axis extents; missing axes behave like extent 1.
    let extent = |d: &[usize], i: usize| (i + d.len()).checked_sub(rank).map_or(1, |j| d[j]);
    (0..rank)
        .map(|i| match (extent(a, i), extent(b, i)) {
            // An extent-1 axis takes the other's extent, 0 included.
            (da, db) if db == 1 || da == db => Some(da),
            (1, db) => Some(db),
            _ => None,
        })
        .collect()
}

/// Visits the flat indices `range` of the output shape `out` in ascending
/// order, one run along the innermost axis at a time, for operands of
/// shapes `operands` broadcast to it (right-aligned NumPy rules). For each
/// run `visit` receives the run's output offset, its length, and each
/// operand's `(start, step)`: the flat index of the operand element under
/// the run's first output element, and 1, or 0 when that operand is
/// broadcast along the run. [`broadcast_blocks`] is the same walk, a block
/// of runs at a time.
pub(crate) fn broadcast_walk<const N: usize>(
    out: &[usize],
    operands: [&[usize]; N],
    range: Range<usize>,
    mut visit: impl FnMut(usize, usize, [(usize, usize); N]),
) {
    broadcast_blocks(out, operands, range, |o, n, rows, ops| {
        for r in 0..rows {
            visit(
                o + r * n,
                n,
                ops.map(|(start, step, row)| (start + r * row, step)),
            );
        }
    });
}

/// Walks the flat indices `range` of the output shape `out` in ascending
/// order for operands of shapes `operands` broadcast to it (right-aligned
/// NumPy rules), a block of consecutive runs at a time. A run lies along
/// the innermost axis; axes that every operand crosses contiguously (or
/// not at all) are merged first, so a run may span several of `out`'s
/// inner axes (`[R, K, d] × [R, K, 1]` walks as `[R·K, d]`). For each
/// block `visit` receives the output offset `o`, the run length `n`, the
/// number of runs `rows` (at `o`, `o + n`, …) and each operand's `(start,
/// step, row)`: run `r` of that operand starts at flat index
/// `start + r·row` and advances by `step`, 1, or 0 when the operand is
/// broadcast along the run. A range that starts or ends inside a run
/// visits that run's piece in the range as a block of one run.
///
/// The single broadcast traversal behind `zip_map`, the broadcast
/// arithmetic, `broadcast_to`, `reduce_to` and `mul_reduce_to`: operand
/// strides are computed once per call, never per element, and a range
/// lets a pool task walk its own chunk of the output. A zero-size output
/// or an empty range visits nothing; a rank-0 output is one run of length
/// 1. Panics when an operand does not broadcast to `out`.
pub(crate) fn broadcast_blocks<const N: usize>(
    out: &[usize],
    operands: [&[usize]; N],
    range: Range<usize>,
    mut visit: impl FnMut(usize, usize, usize, [(usize, usize, usize); N]),
) {
    let total = num_elements(out);
    debug_assert!(range.end <= total, "{range:?} outside {out:?}");
    if total == 0 || range.is_empty() {
        return;
    }
    // Each operand's stride along each output axis; 0 where it broadcasts.
    let mut strides = operands.map(|dims| {
        let lead = out.len().checked_sub(dims.len());
        let fits = lead
            .is_some_and(|lead| (dims.iter().zip(&out[lead..])).all(|(&d, &o)| d == 1 || d == o));
        assert!(fits, "cannot broadcast {dims:?} to {out:?}");
        let lead = out.len() - dims.len();
        let mut s = vec![0usize; out.len()];
        let mut own = 1;
        for (i, &d) in dims.iter().enumerate().rev() {
            if d != 1 {
                s[lead + i] = own;
            }
            own *= d;
        }
        s
    });
    // Merge each axis into the one before it wherever every operand is
    // contiguous across the two (or broadcast along both): the flat order
    // and every element's operands stay the same. The merged extents and
    // the odometer share one buffer.
    let mut axes = vec![0usize; 2 * out.len()];
    let (dims, idx) = axes.split_at_mut(out.len());
    let mut rank = 0usize;
    for (axis, &extent) in out.iter().enumerate() {
        match rank.checked_sub(1) {
            Some(last) if strides.iter().all(|s| s[last] == s[axis] * extent) => {
                dims[last] *= extent;
                strides.iter_mut().for_each(|s| s[last] = s[axis]);
            }
            _ => {
                dims[rank] = extent;
                strides.iter_mut().for_each(|s| s[rank] = s[axis]);
                rank += 1;
            }
        }
    }
    let (outer, len) = match dims[..rank].split_last() {
        Some((&len, outer)) => (outer, len),
        None => (&[][..], 1),
    };
    let steps = strides
        .each_ref()
        .map(|s| s[..rank].last().copied().unwrap_or(0));
    // Runs advance along the last outer axis; blocks end where it wraps.
    let last = outer.len().checked_sub(1);
    let rows = strides.each_ref().map(|s| last.map_or(0, |a| s[a]));
    // The odometer position of the run holding `range.start`, and each
    // operand's index at that run's first element.
    let idx = &mut idx[..outer.len()];
    let mut starts = [0usize; N];
    let mut rest = range.start / len;
    for axis in (0..outer.len()).rev() {
        idx[axis] = rest % outer[axis];
        rest /= outer[axis];
        for (start, s) in starts.iter_mut().zip(&strides) {
            *start += idx[axis] * s[axis];
        }
    }
    let (mut o, mut skip) = (range.start, range.start % len);
    while o < range.end {
        let (n, count) = if skip > 0 || range.end - o < len {
            ((len - skip).min(range.end - o), 1)
        } else {
            let left = last.map_or(1, |a| outer[a] - idx[a]);
            (len, left.min((range.end - o) / len))
        };
        visit(
            o,
            n,
            count,
            std::array::from_fn(|k| (starts[k] + skip * steps[k], steps[k], rows[k])),
        );
        (o, skip) = (o + n * count, 0);
        // Odometer step: `count` runs along the last outer axis, then a
        // carry into the axes further out.
        let mut add = count;
        for axis in (0..outer.len()).rev() {
            idx[axis] += add;
            for (start, s) in starts.iter_mut().zip(&strides) {
                *start += add * s[axis];
            }
            if idx[axis] < outer[axis] {
                break;
            }
            idx[axis] = 0;
            for (start, s) in starts.iter_mut().zip(&strides) {
                *start -= s[axis] * outer[axis];
            }
            add = 1;
        }
    }
}

/// Validates that `dims` describes the same number of elements as `len`.
/// Panics otherwise — reshape misuse is a programming error, not a runtime
/// condition.
pub fn check_reshape(len: usize, dims: &[usize]) {
    assert_eq!(
        num_elements(dims),
        len,
        "cannot reshape {} elements into {:?}",
        len,
        dims
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(strides_for(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(strides_for(&[5]), vec![1]);
        assert_eq!(strides_for(&[]), Vec::<usize>::new());
    }

    #[test]
    fn broadcast_basic() {
        assert_eq!(broadcast_shapes(&[2, 3], &[2, 3]), Some(vec![2, 3]));
        assert_eq!(broadcast_shapes(&[2, 1], &[1, 3]), Some(vec![2, 3]));
        assert_eq!(broadcast_shapes(&[3], &[2, 3]), Some(vec![2, 3]));
        assert_eq!(broadcast_shapes(&[], &[2, 3]), Some(vec![2, 3]));
        assert_eq!(broadcast_shapes(&[4, 2], &[3]), None);
        assert_eq!(broadcast_shapes(&[0, 3], &[3]), Some(vec![0, 3]));
        assert_eq!(broadcast_shapes(&[1], &[0]), Some(vec![0]));
    }

    #[test]
    fn walk_runs_in_flat_order() {
        let mut runs = Vec::new();
        broadcast_walk(&[2, 3], [&[2, 1][..], &[3]], 0..6, |o, n, ops| {
            runs.push((o, n, ops))
        });
        assert_eq!(
            runs,
            vec![(0, 3, [(0, 0), (0, 1)]), (3, 3, [(1, 0), (0, 1)])]
        );
        // A range cut inside runs visits the pieces as runs.
        let mut runs = Vec::new();
        broadcast_walk(&[2, 3], [&[2, 1][..], &[3]], 1..5, |o, n, ops| {
            runs.push((o, n, ops))
        });
        assert_eq!(
            runs,
            vec![(1, 2, [(0, 0), (1, 1)]), (3, 2, [(1, 0), (0, 1)])]
        );
        let mut runs = Vec::new();
        broadcast_walk(&[], [&[][..]], 0..1, |o, n, ops| runs.push((o, n, ops)));
        assert_eq!(runs, vec![(0, 1, [(0, 0)])]);
        broadcast_walk(&[2, 0], [&[1][..]], 0..0, |_, _, _| {
            panic!("zero-size output has no runs")
        });
        broadcast_walk(&[2, 3], [&[3][..]], 4..4, |_, _, _| {
            panic!("an empty range has no runs")
        });
    }

    #[test]
    #[should_panic(expected = "cannot broadcast")]
    fn walk_rejects_incompatible_operand() {
        broadcast_walk(&[2, 3], [&[2][..]], 0..6, |_, _, _| {});
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_check_panics() {
        check_reshape(6, &[4, 2]);
    }

    #[test]
    fn shape_struct() {
        let s = Shape::from(&[2usize, 3][..]);
        assert_eq!(s.rank(), 2);
        assert_eq!(s.num_elements(), 6);
        assert_eq!(s.dims(), &[2, 3]);
        assert_eq!(format!("{:?}", s), "[2, 3]");
    }
}
