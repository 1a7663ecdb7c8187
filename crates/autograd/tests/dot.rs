//! DOT export of a recorded tape. Kept out of `tests/profile.rs` so its
//! ops never reach that binary's process-global profiler.

use ist_autograd::{ops, Param, Tape};
use ist_tensor::rng::{randn, SeedRng, SeedRngExt};

#[test]
fn dot_export_names_ops_and_params() {
    let tape = Tape::new();
    let mut rng = SeedRng::seed(3);
    let w = Param::new("w.proj", randn(&[4, 4], 1.0, &mut rng));
    let wv = w.leaf(&tape);
    let x = tape.constant(randn(&[2, 4], 1.0, &mut rng));
    let h = ops::matmul(&x, &wv);
    let _loss = ops::sum_all(&ops::relu(&h));

    let dot = tape.to_dot();
    assert!(dot.starts_with("digraph tape {"));
    assert!(dot.contains("param: w.proj"), "dot:\n{dot}");
    assert!(dot.contains("matmul"));
    assert!(dot.contains("relu"));
    assert!(dot.contains("style=dashed"), "constants should be dashed");
    assert!(dot.contains("->"));
    assert!(dot.trim_end().ends_with('}'));

    // Every node referenced by an edge is declared.
    for cap in dot.lines().filter(|l| l.contains("->")) {
        let ids: Vec<&str> = cap
            .trim()
            .trim_end_matches(';')
            .split("->")
            .map(str::trim)
            .collect();
        for id in ids {
            assert!(dot.contains(&format!("{id} [label=")), "undeclared {id}");
        }
    }
}
