//! Fault-tolerant solver driver for the rectpart partitioners.
//!
//! The algorithm crates ([`rectpart_core`], `rectpart-onedim`) follow
//! the paper's contract: given a well-formed instance they always
//! produce a valid partition. This crate wraps that infallible kernel
//! in a boundary suitable for long-running services and batch sweeps,
//! where inputs arrive from files and a wedged or crashed solve is
//! worse than a slightly-worse partition:
//!
//! * **Fallible API** — [`SolverDriver::try_solve`] validates the
//!   instance up front and returns structured [`RectpartError`]s
//!   instead of panicking (degenerate matrices, `m = 0`, `m` larger
//!   than the cell count, Γ overflow, …).
//! * **Budgeted degradation** — the driver runs a *fallback ladder* of
//!   algorithms (optimal → heuristic → closed-form) under a
//!   deterministic work budget measured in [`rectpart_obs::work`]
//!   units, not wall-clock time, so the same budget admits the same
//!   rungs on every machine and at every thread count. The
//!   [`DegradationReport`] records which rung answered and why the
//!   others did not.
//! * **Panic containment** — each rung runs under `catch_unwind`; a
//!   panicking algorithm demotes to the next rung instead of tearing
//!   down the caller. (One layer below, `rectpart-parallel` retries
//!   panicked `map_range` workers sequentially.)
//! * **Deterministic fault injection** — with the default-off
//!   `faultinject` feature, a seeded `FaultPlan` panics chosen
//!   workers and rungs, forces Γ overflow and inflates work charges,
//!   so every degradation path has a reproducible test.
//!
//! ```
//! use rectpart_robust::SolverDriver;
//! use rectpart_core::LoadMatrix;
//!
//! let m = LoadMatrix::from_fn(8, 8, |r, c| (r * c) as u32);
//! let out = SolverDriver::new().with_budget(1_000_000).try_solve(&m, 4).unwrap();
//! assert_eq!(out.report.answered_by.as_deref(), Some("JAG-M-OPT-BEST"));
//! assert!(out.partition.validate(&rectpart_core::PrefixSum2D::try_new(&m).unwrap()).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
#[cfg(feature = "faultinject")]
mod fault;

pub use driver::{
    estimate_work, matrix_fingerprint, CheckpointSink, DegradationReport, DriverFailure, NoopSink,
    RetryPolicy, RungOutcome, RungReport, SolveOutcome, SolveProgress, SolverDriver,
    DEFAULT_LADDER,
};
#[cfg(feature = "faultinject")]
pub use fault::FaultPlan;
pub use rectpart_core::RectpartError;
