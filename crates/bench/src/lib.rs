//! # ist-bench
//!
//! Experiment binaries (one per paper table/figure — see DESIGN.md §4) and
//! the GEMM throughput benchmark and its regression check (`bench_gemm`,
//! `bench_diff`).

#![forbid(unsafe_code)]

pub mod gemm;
pub mod worlds;
