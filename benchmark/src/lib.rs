//! The benchmark of record for the SPERR reproduction: four workloads,
//! measured end to end and layer by layer. See `README.md`.

pub mod access;
pub mod agree;
pub mod alloc;
pub mod e2e;
pub mod json;
pub mod layers;
pub mod report;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;

/// The contract this benchmark is written to, embedded so that the
/// declared metrics, bounds and run length can never drift from a copy.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
