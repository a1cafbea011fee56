//! Property tests over the fallible boundary: for arbitrary small
//! instances and every registered algorithm, `try_solve` must either
//! return a validated partition with the correct bottleneck or a
//! structured input error — never panic.
//!
//! These tests deliberately use unbudgeted drivers and make no
//! assertions about work quantities: the work meter is process-global
//! and the cases in this binary run concurrently.

use proptest::prelude::*;
use rectpart_core::{algorithm_names, LoadMatrix, PrefixSum2D};
use rectpart_robust::SolverDriver;

fn arb_instance() -> impl Strategy<Value = (usize, usize, Vec<u32>, usize)> {
    (1usize..7, 1usize..7).prop_flat_map(|(rows, cols)| {
        (
            Just(rows),
            Just(cols),
            vec(0u32..10_000, rows * cols),
            1usize..=12,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_algorithm_answers_or_rejects_structurally(inst in arb_instance()) {
        let (rows, cols, data, m) = inst;
        let matrix = LoadMatrix::from_vec(rows, cols, data);
        for name in algorithm_names() {
            let driver = SolverDriver::new().with_ladder([name.clone()]);
            match driver.try_solve(&matrix, m) {
                Ok(out) => {
                    let pfx = PrefixSum2D::try_new(&matrix).unwrap();
                    prop_assert!(out.partition.validate(&pfx).is_ok(),
                        "{name}: invalid cover on {rows}x{cols} m={m}");
                    prop_assert_eq!(out.report.answered_by.as_deref(), Some(name.as_str()));
                    // The reported bottleneck is the real maximum load.
                    let loads = out.partition.loads(&pfx);
                    let lmax = loads.iter().copied().max().unwrap_or(0);
                    prop_assert_eq!(out.partition.lmax(&pfx), lmax);
                }
                Err(failure) => {
                    // On a well-formed instance the only legitimate
                    // rejection is an input error (here: m > cells).
                    prop_assert!(failure.error.is_input_error(),
                        "{name}: unexpected error {} on {rows}x{cols} m={m}", failure.error);
                    prop_assert!(m > rows * cols,
                        "{name}: input error {} on feasible {rows}x{cols} m={m}", failure.error);
                }
            }
        }
    }

    #[test]
    fn default_ladder_always_answers_feasible_instances(inst in arb_instance()) {
        let (rows, cols, data, m) = inst;
        let matrix = LoadMatrix::from_vec(rows, cols, data);
        if m > rows * cols {
            return;
        }
        let out = SolverDriver::new().try_solve(&matrix, m).unwrap();
        let pfx = PrefixSum2D::try_new(&matrix).unwrap();
        prop_assert!(out.partition.validate(&pfx).is_ok());
        prop_assert_eq!(out.partition.parts(), m);
        prop_assert!(out.report.answered_by.is_some());
    }
}

#[test]
fn degenerate_instances_never_panic() {
    let driver = SolverDriver::new();
    // All-zero load: any m is fine, bottleneck 0.
    let zeros = LoadMatrix::zeros(3, 3);
    let out = driver.try_solve(&zeros, 9).unwrap();
    assert_eq!(
        out.partition.lmax(&PrefixSum2D::try_new(&zeros).unwrap()),
        0
    );
    // Single cell.
    let one = LoadMatrix::from_vec(1, 1, vec![7]);
    let out = driver.try_solve(&one, 1).unwrap();
    assert_eq!(out.partition.lmax(&PrefixSum2D::try_new(&one).unwrap()), 7);
    // Degenerate strips.
    for (rows, cols) in [(1usize, 6usize), (6, 1)] {
        let strip = LoadMatrix::from_fn(rows, cols, |r, c| (r + c) as u32 + 1);
        let out = driver.try_solve(&strip, 3).unwrap();
        assert!(out
            .partition
            .validate(&PrefixSum2D::try_new(&strip).unwrap())
            .is_ok());
    }
}
