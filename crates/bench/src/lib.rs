//! # mmwave-bench
//!
//! Figure regenerators and Criterion benches for every table and figure in
//! the paper's evaluation. The library half hosts shared helpers; the
//! `figures` binary (see `src/bin/figures.rs`) regenerates each figure's
//! data as CSV rows on stdout and under `results/`.

pub mod admin;
pub mod figures;
pub mod fingerprint;
pub mod supervised;

pub use figures::all_figure_ids;
pub use supervised::{supervised_run_many, SharedFactory};
