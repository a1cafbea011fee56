#![forbid(unsafe_code)]
//! Clock-free support code for the `e2e` wall-clock benchmark of the
//! rectpart workspace: order statistics over measured samples
//! ([`stats`]), the paired parent-versus-change rule ([`compare`]) and
//! the `BENCHMARK.json` schema ([`spec`]).
//!
//! Nothing in this library reads a clock: the binaries measure, the
//! library only summarises, so every function here is testable on known
//! vectors.

pub mod compare;
pub mod spec;
pub mod stats;
