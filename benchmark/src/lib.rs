//! `demonbench` — the repository's benchmark: four workloads, five
//! end-to-end metrics, a per-layer trace. `benchmark/README.md` explains
//! why each workload exists, how the estimator works and how to read a
//! trace; [`spec`] holds every name.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod env;
pub mod gen;
pub mod runner;
pub mod selfcheck;
pub mod spec;
pub mod stages;
pub mod stats;
pub mod trace;
pub mod workloads;
