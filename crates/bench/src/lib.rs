//! Benchmark and regeneration harness for the `seta` reproduction.
//!
//! This crate hosts:
//!
//! * the `paper_tables` binary, which regenerates any table or figure of
//!   the paper (`cargo run --release -p seta-bench --bin paper_tables -- all`);
//! * the `trace_tool` binary, which generates, converts, summarizes and
//!   replays trace files;
//! * the `bench_guard` binary, the continuous-benchmarking regression gate
//!   (see [`guard`]): deterministic median-of-k measurements written as
//!   `BENCH_<n>.json`, checked against the committed baseline in CI;
//! * the cross-run history loader and trajectory report (see [`history`]):
//!   every committed `BENCH_<n>.json` rendered as a self-contained HTML
//!   page with regression markers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod guard;
pub mod history;
