//! The four workloads.

pub mod compile_sweep;
pub mod dse_sweep;
pub mod serve_mix;
pub mod sim_long;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 4] = ["compile_sweep", "sim_long", "dse_sweep", "serve_mix"];
