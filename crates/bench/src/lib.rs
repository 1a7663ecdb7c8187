//! # ist-bench
//!
//! Experiment binaries, one per paper table/figure (see DESIGN.md §4), and
//! the scaled IntentWorld configurations they share. Throughput is measured
//! end to end by `bench_e2e`, not here.

#![forbid(unsafe_code)]

pub mod worlds;
