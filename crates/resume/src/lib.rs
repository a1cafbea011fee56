//! Crash recovery for the rectpart solver driver.
//!
//! `rectpart-robust` already degrades gracefully *within* one process:
//! panicking rungs demote, budgets bound work, retries back off and
//! circuit breakers give up on rungs that keep failing. This crate
//! extends that story *across* processes:
//!
//! * **Snapshots** — the driver's [`SolveProgress`] checkpoints are
//!   serialized through `rectpart-json` and written atomically with a
//!   length+FNV-1a checksum footer, so a torn or corrupted file is
//!   always detected ([`RectpartError::SnapshotCorrupt`]), never
//!   silently loaded.
//! * **Checkpointing** — [`FileCheckpointer`] persists snapshots at a
//!   configurable work-unit interval (plus every forced cancellation
//!   checkpoint) with no effect on the solve's determinism: snapshots
//!   are derived from the driver's work ledger, not from wall clock.
//! * **Resume** — [`load_snapshot`] +
//!   [`SolverDriver::resume_from`](rectpart_robust::SolverDriver::resume_from)
//!   warm-start an interrupted solve; the combined run's outcome and
//!   [`DegradationReport`](rectpart_robust::DegradationReport) are
//!   bit-identical to an uninterrupted run at any thread count.
//! * **Fault campaign** — with the default-off `faultinject` feature,
//!   the `campaign` module replays a deterministic matrix of
//!   crash/corruption scenarios (crash at checkpoint *k*, torn snapshot,
//!   checksum corruption, stale snapshot, repeated rung panics, mid-rung
//!   cancellation); the `rectpart-soak` binary runs it end to end.
//!
//! ```
//! use rectpart_core::LoadMatrix;
//! use rectpart_resume::{load_snapshot, write_snapshot, MemorySink};
//! use rectpart_robust::SolverDriver;
//!
//! let matrix = LoadMatrix::from_fn(8, 8, |r, c| (r * c) as u32);
//! let driver = SolverDriver::new();
//! let mut sink = MemorySink::new();
//! let clean = driver.try_solve_checkpointed(&matrix, 4, &mut sink).unwrap();
//!
//! // Persist the first rung-boundary checkpoint, reload it, resume.
//! let dir = std::env::temp_dir().join(format!("rectpart-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("doc.snapshot");
//! write_snapshot(&path, &sink.checkpoints[0].0).unwrap();
//! let progress = load_snapshot(&path).unwrap();
//! let resumed = driver.resume_from(&progress, &matrix, 4).unwrap();
//! assert_eq!(resumed, clean);
//! # std::fs::remove_file(&path).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(feature = "faultinject")]
pub mod campaign;
mod snapshot;

pub use snapshot::{
    fnv1a, load_snapshot, progress_from_json, progress_to_json, snapshot_from_str,
    snapshot_to_string, write_snapshot, FileCheckpointer, MemorySink, SNAPSHOT_MAGIC,
};

// Re-export the driver-side half of the protocol so `rectpart::resume`
// is self-contained for callers.
pub use rectpart_core::RectpartError;
pub use rectpart_robust::{CheckpointSink, SolveProgress};
