//! Driver behaviour tests that need no fault injection: ladder
//! demotion on panics and invalid covers, budget admission, and the
//! structured error paths.
//!
//! Budget assertions read the process-global work meter, so every test
//! in this binary serializes on [`lock`]; without it a concurrently
//! running solve would inflate another test's measured spend.

use std::sync::{Mutex, MutexGuard, OnceLock};

use rectpart_core::{LoadMatrix, Partition, Partitioner, PrefixSum2D, Rect, RectpartError};
use rectpart_robust::{RungOutcome, SolverDriver, DEFAULT_LADDER};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn demo_matrix() -> LoadMatrix {
    LoadMatrix::from_fn(8, 8, |r, c| (3 * r + 5 * c + 1) as u32)
}

/// Returns a single 1×1 rectangle regardless of the instance: an
/// incomplete cover that must be rejected by solution validation.
struct BadCover;
impl Partitioner for BadCover {
    fn name(&self) -> String {
        "BAD-COVER".into()
    }
    fn partition(&self, _pfx: &PrefixSum2D, m: usize) -> Partition {
        Partition::with_parts(vec![Rect::new(0, 1, 0, 1)], m)
    }
}

/// Panics unconditionally: the driver must contain it and demote.
struct Panicker;
impl Partitioner for Panicker {
    fn name(&self) -> String {
        "PANICKER".into()
    }
    fn partition(&self, _pfx: &PrefixSum2D, _m: usize) -> Partition {
        panic!("deterministic rung panic");
    }
}

#[test]
fn unbudgeted_solve_answers_with_first_rung() {
    let _g = lock();
    let out = SolverDriver::new().try_solve(&demo_matrix(), 4).unwrap();
    assert_eq!(out.report.answered_by.as_deref(), Some(DEFAULT_LADDER[0]));
    assert_eq!(out.report.rungs.len(), DEFAULT_LADDER.len());
    assert!(matches!(
        out.report.rungs[0].outcome,
        RungOutcome::Answered { .. }
    ));
    for r in &out.report.rungs[1..] {
        assert_eq!(r.outcome, RungOutcome::NotReached);
        assert_eq!(r.work, 0);
    }
    let pfx = PrefixSum2D::try_new(&demo_matrix()).unwrap();
    assert!(out.partition.validate(&pfx).is_ok());
    let RungOutcome::Answered { lmax } = out.report.rungs[0].outcome else {
        unreachable!()
    };
    assert_eq!(lmax, out.partition.lmax(&pfx));
    assert!(out.report.total_work > out.report.rungs[0].work);
}

#[test]
fn tight_budget_skips_the_optimal_and_degrades_to_a_heuristic() {
    let _g = lock();
    // Γ charges 65 units for 8×8; the optimal rung estimates 320 for
    // m=4 and the heuristic 128, so a 250-unit budget must skip the DP
    // and answer with the heuristic.
    let out = SolverDriver::new()
        .with_budget(250)
        .try_solve(&demo_matrix(), 4)
        .unwrap();
    assert!(matches!(
        out.report.rungs[0].outcome,
        RungOutcome::SkippedEstimate { .. }
    ));
    assert_eq!(out.report.answered_by.as_deref(), Some(DEFAULT_LADDER[1]));
    assert_eq!(out.report.budget, Some(250));
}

#[test]
fn exhausted_budget_fails_with_structured_error_and_full_report() {
    let _g = lock();
    // 10 units cannot even cover Γ construction (65 units), so every
    // rung — including the always-admitted last one, which requires a
    // nonzero remainder — is skipped.
    let err = SolverDriver::new()
        .with_budget(10)
        .try_solve(&demo_matrix(), 4)
        .unwrap_err();
    assert!(matches!(
        err.error,
        RectpartError::BudgetExhausted { budget: 10, .. }
    ));
    assert!(!err.error.is_input_error());
    assert_eq!(err.report.rungs.len(), DEFAULT_LADDER.len());
    for r in &err.report.rungs {
        assert!(matches!(r.outcome, RungOutcome::SkippedEstimate { .. }));
    }
    assert!(err.report.total_work >= 65);
}

#[test]
fn generous_budget_admits_the_optimal_rung() {
    let _g = lock();
    let out = SolverDriver::new()
        .with_budget(1_000_000)
        .try_solve(&demo_matrix(), 4)
        .unwrap();
    assert_eq!(out.report.answered_by.as_deref(), Some(DEFAULT_LADDER[0]));
}

#[test]
fn panicking_rung_demotes_to_the_next() {
    let _g = lock();
    let rungs: Vec<(String, Box<dyn Partitioner>)> = vec![
        ("PANICKER".into(), Box::new(Panicker)),
        (
            "RECT-UNIFORM".into(),
            Box::new(rectpart_core::RectUniform::default()),
        ),
    ];
    let out = SolverDriver::new()
        .try_solve_with(rungs, &demo_matrix(), 4)
        .unwrap();
    assert_eq!(
        out.report.rungs[0].outcome,
        RungOutcome::Failed {
            error: RectpartError::WorkerPanic {
                rung: "PANICKER".into()
            }
        }
    );
    assert_eq!(out.report.answered_by.as_deref(), Some("RECT-UNIFORM"));
}

#[test]
fn all_rungs_panicking_surfaces_worker_panic() {
    let _g = lock();
    let rungs: Vec<(String, Box<dyn Partitioner>)> = vec![
        ("P1".into(), Box::new(Panicker)),
        ("P2".into(), Box::new(Panicker)),
    ];
    let err = SolverDriver::new()
        .try_solve_with(rungs, &demo_matrix(), 4)
        .unwrap_err();
    assert_eq!(err.error, RectpartError::WorkerPanic { rung: "P2".into() });
    assert_eq!(err.report.answered_by, None);
}

#[test]
fn invalid_cover_demotes_with_invalid_solution_error() {
    let _g = lock();
    let rungs: Vec<(String, Box<dyn Partitioner>)> = vec![
        ("BAD-COVER".into(), Box::new(BadCover)),
        (
            "RECT-UNIFORM".into(),
            Box::new(rectpart_core::RectUniform::default()),
        ),
    ];
    let out = SolverDriver::new()
        .try_solve_with(rungs, &demo_matrix(), 4)
        .unwrap();
    assert!(matches!(
        out.report.rungs[0].outcome,
        RungOutcome::Failed {
            error: RectpartError::InvalidSolution(_)
        }
    ));
    assert_eq!(out.report.answered_by.as_deref(), Some("RECT-UNIFORM"));
}

#[test]
fn input_errors_are_rejected_before_any_rung_runs() {
    let _g = lock();
    let driver = SolverDriver::new();
    let empty = LoadMatrix::from_fn(0, 5, |_, _| 0);
    let err = driver.try_solve(&empty, 3).unwrap_err();
    assert_eq!(err.error, RectpartError::EmptyMatrix { rows: 0, cols: 5 });
    assert!(err.error.is_input_error());
    assert!(err
        .report
        .rungs
        .iter()
        .all(|r| r.outcome == RungOutcome::NotReached));

    let m2 = LoadMatrix::from_fn(2, 2, |_, _| 1);
    let err = driver.try_solve(&m2, 0).unwrap_err();
    assert_eq!(err.error, RectpartError::ZeroParts);
    let err = driver.try_solve(&m2, 5).unwrap_err();
    assert_eq!(err.error, RectpartError::TooManyParts { m: 5, cells: 4 });
}

#[test]
fn unknown_ladder_name_is_an_input_error() {
    let _g = lock();
    let err = SolverDriver::new()
        .with_ladder(["NO-SUCH-ALGORITHM"])
        .try_solve(&demo_matrix(), 4)
        .unwrap_err();
    assert_eq!(
        err.error,
        RectpartError::UnknownAlgorithm("NO-SUCH-ALGORITHM".into())
    );
    assert!(err.error.is_input_error());
}

#[test]
fn ladder_names_resolve_case_insensitively() {
    let _g = lock();
    let out = SolverDriver::new()
        .with_ladder(["rect-uniform"])
        .try_solve(&demo_matrix(), 4)
        .unwrap();
    assert_eq!(out.report.answered_by.as_deref(), Some("rect-uniform"));
}

#[test]
fn report_display_is_human_readable() {
    let _g = lock();
    let out = SolverDriver::new()
        .with_budget(250)
        .try_solve(&demo_matrix(), 4)
        .unwrap();
    let text = out.report.to_string();
    assert!(text.contains("budget 250 units"), "{text}");
    assert!(text.contains("skipped"), "{text}");
    assert!(text.contains("answered"), "{text}");
}
