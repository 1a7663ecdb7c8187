//! Shape algebra: ranks, element counts, row-major strides and NumPy-style
//! broadcasting rules.

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

/// Visits the output shape `out` in ascending flat order, one run along the
/// innermost axis at a time, for operands of shapes `operands` broadcast to
/// it (right-aligned NumPy rules). For each run `visit` receives the run's
/// output offset, its length, and each operand's `(start, step)`: the flat
/// index of the operand element under the run's first output element, and 1,
/// or 0 when that operand is broadcast along the innermost axis.
///
/// The single broadcast traversal behind `zip_map`, `broadcast_to`,
/// `reduce_to` and `mul_reduce_to`: operand strides are computed once per call, never per
/// element. A zero-size output visits nothing; a rank-0 output is one run of
/// length 1. Panics when an operand does not broadcast to `out`.
pub(crate) fn broadcast_walk<const N: usize>(
    out: &[usize],
    operands: [&[usize]; N],
    mut visit: impl FnMut(usize, usize, [(usize, usize); N]),
) {
    let total = num_elements(out);
    if total == 0 {
        return;
    }
    // Each operand's stride along each output axis; 0 where it broadcasts.
    let strides = operands.map(|dims| {
        assert!(
            broadcast_shapes(dims, out).as_deref() == Some(out),
            "cannot broadcast {dims:?} to {out:?}"
        );
        let lead = out.len() - dims.len();
        let own = strides_for(dims);
        (0..out.len())
            .map(|axis| match axis.checked_sub(lead) {
                Some(i) if dims[i] != 1 => own[i],
                _ => 0,
            })
            .collect::<Vec<usize>>()
    });
    let len = out.last().copied().unwrap_or(1);
    let outer = &out[..out.len().saturating_sub(1)];
    let mut idx = vec![0usize; outer.len()];
    let mut starts = [0usize; N];
    for run in (0..total).step_by(len) {
        visit(
            run,
            len,
            std::array::from_fn(|k| (starts[k], strides[k].last().copied().unwrap_or(0))),
        );
        // Odometer step over the outer axes, innermost first.
        for axis in (0..outer.len()).rev() {
            idx[axis] += 1;
            for (start, s) in starts.iter_mut().zip(&strides) {
                *start += s[axis];
            }
            if idx[axis] < outer[axis] {
                break;
            }
            idx[axis] = 0;
            for (start, s) in starts.iter_mut().zip(&strides) {
                *start -= s[axis] * outer[axis];
            }
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
        broadcast_walk(&[2, 3], [&[2, 1][..], &[3]], |o, n, ops| {
            runs.push((o, n, ops))
        });
        assert_eq!(
            runs,
            vec![(0, 3, [(0, 0), (0, 1)]), (3, 3, [(1, 0), (0, 1)])]
        );
        let mut runs = Vec::new();
        broadcast_walk(&[], [&[][..]], |o, n, ops| runs.push((o, n, ops)));
        assert_eq!(runs, vec![(0, 1, [(0, 0)])]);
        broadcast_walk(&[2, 0], [&[1][..]], |_, _, _| {
            panic!("zero-size output has no runs")
        });
    }

    #[test]
    #[should_panic(expected = "cannot broadcast")]
    fn walk_rejects_incompatible_operand() {
        broadcast_walk(&[2, 3], [&[2][..]], |_, _, _| {});
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
