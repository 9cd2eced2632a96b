//! The repository's benchmark: three closed-loop workloads over the
//! public simulator API, timed from outside the program. See README.md.

pub mod calib;
pub mod report;
pub mod spans;
pub mod workload;
pub mod wrap;
