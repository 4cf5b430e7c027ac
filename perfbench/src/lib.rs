//! # dyser-perfbench
//!
//! The repository's benchmark: four workloads that each stress a
//! different part of the SPARC-DySER stack, end-to-end metrics measured
//! with tracing off, and a separate traced run that splits host time by
//! layer. It calls only the public APIs of the measured crates. See
//! `README.md` beside this package for the workloads, metrics and how to
//! compare two commits.

pub mod gen;
pub mod replay;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
