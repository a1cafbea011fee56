//! Structured errors for the fallible API boundary.
//!
//! [`RectpartError`] is the single error type surfaced by every
//! `try_*` entry point in the workspace — matrix construction, Γ
//! building, JSON loading, and the `rectpart-robust` solver driver. The
//! asserting `LoadMatrix::from_vec` remains for tests and trusted
//! callers; Γ has no panicking constructor.

use std::fmt;

use crate::solution::PartitionError;

/// Everything that can go wrong at the library boundary.
///
/// The variants fall into three groups: *input* errors (hostile or
/// degenerate data that a caller can fix), *resource* errors (the work
/// budget ran out before any solver rung answered), and *internal*
/// errors (a solver panicked or produced an invalid cover — both bugs,
/// but demoted to `Err` so one bad rung cannot take down the process).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RectpartError {
    /// Γ accumulation overflowed `u64` (total load ≥ 2⁶⁴).
    Overflow,
    /// The matrix has zero rows or zero columns — nothing to partition.
    EmptyMatrix {
        /// Supplied row count.
        rows: usize,
        /// Supplied column count.
        cols: usize,
    },
    /// A row of row-major input has the wrong width.
    RaggedRow {
        /// Offending row index.
        row: usize,
        /// Width established by the first row.
        expected: usize,
        /// Width actually found.
        got: usize,
    },
    /// Row-major data length disagrees with the declared dimensions.
    DimMismatch {
        /// Declared row count.
        rows: usize,
        /// Declared column count.
        cols: usize,
        /// Actual data length.
        len: usize,
    },
    /// `m == 0` processors requested.
    ZeroParts,
    /// More processors than cells — some rectangle would be empty by
    /// pigeonhole, and the paper's model has no use for idle-only parts.
    TooManyParts {
        /// Processors requested.
        m: usize,
        /// Cells available.
        cells: usize,
    },
    /// The deterministic work budget ran out before any fallback rung
    /// produced a solution.
    BudgetExhausted {
        /// The budget the driver was given, in abstract work units.
        budget: u64,
        /// Work already spent when the driver gave up.
        spent: u64,
    },
    /// A solver panicked; the panic was contained at the driver boundary.
    WorkerPanic {
        /// Name of the rung (algorithm) that panicked.
        rung: String,
    },
    /// A solver returned rectangles that are not a valid cover.
    InvalidSolution(PartitionError),
    /// An algorithm name (CLI `--algo`, driver ladder) is not registered.
    UnknownAlgorithm(String),
    /// The solve was cancelled cooperatively at a work-meter checkpoint
    /// (armed via `rectpart_obs::cancel`). Partial work is discarded;
    /// the resume protocol restarts from the last good snapshot.
    Cancelled,
    /// A progress snapshot could not be used: torn write, checksum
    /// mismatch, malformed payload, or a payload that does not describe
    /// the instance being resumed. Never silently ignored — the CLI
    /// maps this to its dedicated exit code.
    SnapshotCorrupt {
        /// Human-readable reason the snapshot was rejected.
        reason: String,
    },
    /// A delta update addressed a row outside the matrix.
    RowOutOfRange {
        /// Offending row index.
        row: usize,
        /// Rows actually present.
        rows: usize,
    },
    /// A serving-mode query addressed a region that is empty or reaches
    /// outside the resident matrix.
    RegionOutOfRange {
        /// The requested region.
        region: crate::geometry::Rect,
        /// Rows actually present.
        rows: usize,
        /// Columns actually present.
        cols: usize,
    },
}

impl fmt::Display for RectpartError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RectpartError::Overflow => write!(f, "2D prefix sum overflowed u64"),
            RectpartError::EmptyMatrix { rows, cols } => {
                write!(f, "matrix is degenerate: {rows}x{cols}")
            }
            RectpartError::RaggedRow { row, expected, got } => {
                write!(
                    f,
                    "ragged input: row {row} has {got} cells, expected {expected}"
                )
            }
            RectpartError::DimMismatch { rows, cols, len } => {
                write!(f, "{len} cells do not fill a {rows}x{cols} matrix")
            }
            RectpartError::ZeroParts => write!(f, "cannot partition into 0 parts"),
            RectpartError::TooManyParts { m, cells } => {
                write!(f, "{m} parts requested for only {cells} cells")
            }
            RectpartError::BudgetExhausted { budget, spent } => {
                write!(
                    f,
                    "work budget exhausted: {spent} of {budget} units spent, no rung answered"
                )
            }
            RectpartError::WorkerPanic { rung } => {
                write!(f, "solver rung {rung:?} panicked (contained)")
            }
            RectpartError::InvalidSolution(e) => write!(f, "solver produced invalid cover: {e}"),
            RectpartError::UnknownAlgorithm(name) => write!(f, "unknown algorithm {name:?}"),
            RectpartError::Cancelled => {
                write!(f, "solve cancelled at a work-meter checkpoint")
            }
            RectpartError::SnapshotCorrupt { reason } => {
                write!(f, "snapshot unusable: {reason}")
            }
            RectpartError::RowOutOfRange { row, rows } => {
                write!(f, "delta row {row} outside matrix of {rows} rows")
            }
            RectpartError::RegionOutOfRange { region, rows, cols } => {
                write!(
                    f,
                    "query region rows {}..{} cols {}..{} is empty or outside the {rows}x{cols} matrix",
                    region.r0, region.r1, region.c0, region.c1
                )
            }
        }
    }
}

impl std::error::Error for RectpartError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RectpartError::InvalidSolution(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PartitionError> for RectpartError {
    fn from(e: PartitionError) -> Self {
        RectpartError::InvalidSolution(e)
    }
}

impl RectpartError {
    /// Whether the error is the caller's fault (malformed or degenerate
    /// input) as opposed to a resource or internal condition. The CLI
    /// maps this to its input-error exit code.
    pub fn is_input_error(&self) -> bool {
        matches!(
            self,
            RectpartError::Overflow
                | RectpartError::EmptyMatrix { .. }
                | RectpartError::RaggedRow { .. }
                | RectpartError::DimMismatch { .. }
                | RectpartError::ZeroParts
                | RectpartError::TooManyParts { .. }
                | RectpartError::UnknownAlgorithm(_)
                | RectpartError::RowOutOfRange { .. }
                | RectpartError::RegionOutOfRange { .. }
        )
    }

    /// Validates a `(matrix dims, m)` problem statement — the shared
    /// gate used by [`crate::PrefixSum2D::try_new`] consumers, the JSON
    /// loader, and the solver driver.
    pub fn check_problem(rows: usize, cols: usize, m: usize) -> Result<(), RectpartError> {
        if rows == 0 || cols == 0 {
            return Err(RectpartError::EmptyMatrix { rows, cols });
        }
        if m == 0 {
            return Err(RectpartError::ZeroParts);
        }
        let cells = rows * cols;
        if m > cells {
            return Err(RectpartError::TooManyParts { m, cells });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let cases: Vec<(RectpartError, &str)> = vec![
            (RectpartError::Overflow, "overflow"),
            (RectpartError::EmptyMatrix { rows: 0, cols: 5 }, "0x5"),
            (
                RectpartError::RaggedRow {
                    row: 2,
                    expected: 4,
                    got: 3,
                },
                "row 2",
            ),
            (
                RectpartError::DimMismatch {
                    rows: 2,
                    cols: 2,
                    len: 3,
                },
                "2x2",
            ),
            (RectpartError::ZeroParts, "0 parts"),
            (RectpartError::TooManyParts { m: 9, cells: 4 }, "9 parts"),
            (
                RectpartError::BudgetExhausted {
                    budget: 10,
                    spent: 11,
                },
                "budget",
            ),
            (
                RectpartError::WorkerPanic {
                    rung: "JAG-M-OPT".into(),
                },
                "panicked",
            ),
            (RectpartError::UnknownAlgorithm("NOPE".into()), "NOPE"),
        ];
        for (err, needle) in cases {
            assert!(
                err.to_string().contains(needle),
                "{err} should mention {needle:?}"
            );
        }
        assert!(RectpartError::Cancelled.to_string().contains("cancelled"));
        let snap = RectpartError::SnapshotCorrupt {
            reason: "checksum mismatch".into(),
        };
        assert!(snap.to_string().contains("checksum mismatch"));
    }

    #[test]
    fn input_error_classification() {
        assert!(RectpartError::ZeroParts.is_input_error());
        assert!(RectpartError::Overflow.is_input_error());
        assert!(!RectpartError::BudgetExhausted {
            budget: 1,
            spent: 2
        }
        .is_input_error());
        assert!(!RectpartError::WorkerPanic { rung: "X".into() }.is_input_error());
        // Cancellation and snapshot problems are never the input's fault:
        // one is a caller-armed deadline, the other a damaged artifact.
        assert!(!RectpartError::Cancelled.is_input_error());
        assert!(!RectpartError::SnapshotCorrupt {
            reason: "torn".into()
        }
        .is_input_error());
    }

    #[test]
    fn check_problem_gates() {
        assert!(RectpartError::check_problem(4, 4, 4).is_ok());
        assert_eq!(
            RectpartError::check_problem(0, 4, 1),
            Err(RectpartError::EmptyMatrix { rows: 0, cols: 4 })
        );
        assert_eq!(
            RectpartError::check_problem(4, 4, 0),
            Err(RectpartError::ZeroParts)
        );
        assert_eq!(
            RectpartError::check_problem(2, 2, 5),
            Err(RectpartError::TooManyParts { m: 5, cells: 4 })
        );
    }

    #[test]
    fn partition_error_converts() {
        let pe = PartitionError::Overlap { a: 0, b: 1 };
        let re: RectpartError = pe.clone().into();
        assert_eq!(re, RectpartError::InvalidSolution(pe));
        assert!(std::error::Error::source(&re).is_some());
    }
}
