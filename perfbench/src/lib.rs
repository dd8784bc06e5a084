//! The repository benchmark. One command runs a workload, checks its
//! outputs, and prints every metric by name with its unit; see README.md.

pub mod checks;
pub mod metrics;
pub mod run;
pub mod spec;
pub mod stats;
