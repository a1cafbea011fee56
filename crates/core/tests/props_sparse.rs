//! Property tests for the sparse Γ backend: on arbitrary matrices (any
//! zero density, including all-zero and fully dense), the CSR-like
//! backend (`GammaMode::Sparse`) must answer every rectangle query with
//! exactly the value the dense prefix-sum table produces, and the
//! facade's metadata (total, extrema) must agree, and so must the
//! projections the solvers read instead of per-step queries
//! (`View::stripe_cost`, `PrefixSum2D::project_into`). The overflow path
//! is pinned separately via fault injection: forced Γ overflow must
//! surface as `RectpartError::Overflow` from the sparse build too, never
//! as a wrong answer.

use proptest::collection::vec;
use proptest::prelude::*;
use rectpart_core::{Axis, GammaMode, LoadMatrix, PrefixSum2D, Rect};
use rectpart_onedim::{FnCost, IntervalCost};

/// Matrix dimensions plus a flat cell vector with a tunable zero bias:
/// `density_sel` drives the fraction of nonzero cells from ~2% to ~100%.
fn arb_matrix() -> impl Strategy<Value = (usize, usize, Vec<u32>)> {
    (1usize..24, 1usize..24, 0u32..4).prop_flat_map(|(rows, cols, density_sel)| {
        let nonzero = 2 + density_sel * 33; // ~2%, 35%, 68%, 100% nonzero
        (
            Just(rows),
            Just(cols),
            vec((0u32..100, 1u32..500), rows * cols).prop_map(move |cells| {
                cells
                    .into_iter()
                    .map(|(p, v)| if p < nonzero { v } else { 0 })
                    .collect()
            }),
        )
    })
}

fn matrix_from(rows: usize, cols: usize, cells: &[u32]) -> LoadMatrix {
    LoadMatrix::from_fn(rows, cols, |r, c| cells[r * cols + c])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sparse_sum_matches_dense_on_every_rectangle(
        shape in arb_matrix(),
        corners in vec((0usize..24, 0usize..24, 0usize..24, 0usize..24), 16),
    ) {
        let (rows, cols, cells) = shape;
        let m = matrix_from(rows, cols, &cells);
        let dense = PrefixSum2D::try_new_with(&m, GammaMode::Dense).unwrap();
        let sparse = PrefixSum2D::try_new_with(&m, GammaMode::Sparse).unwrap();
        prop_assert!(sparse.is_sparse());
        prop_assert_eq!(sparse.total(), dense.total());
        prop_assert_eq!(sparse.max_cell(), dense.max_cell());
        prop_assert_eq!(sparse.min_cell(), dense.min_cell());
        for &(a, b, c, d) in &corners {
            let (r0, r1) = ((a % rows).min(b % rows), (a % rows).max(b % rows) + 1);
            let (c0, c1) = ((c % cols).min(d % cols), (c % cols).max(d % cols) + 1);
            prop_assert_eq!(
                sparse.load4(r0, r1, c0, c1),
                dense.load4(r0, r1, c0, c1),
                "{}x{} rect [{},{})x[{},{})", rows, cols, r0, r1, c0, c1
            );
        }
        // Degenerate (empty) rectangles answer 0 on both backends.
        prop_assert_eq!(sparse.load4(0, 0, 0, cols), 0);
        prop_assert_eq!(dense.load4(0, 0, 0, cols), 0);
    }

    #[test]
    fn facade_backends_agree_on_full_row_and_column_bands(
        shape in arb_matrix(),
    ) {
        // Full-width and full-height queries take the O(1) border fast
        // paths in the sparse backend; sweep them all.
        let (rows, cols, cells) = shape;
        let m = matrix_from(rows, cols, &cells);
        let dense = PrefixSum2D::try_new_with(&m, GammaMode::Dense).unwrap();
        let sparse = PrefixSum2D::try_new_with(&m, GammaMode::Sparse).unwrap();
        prop_assert!(sparse.is_sparse());
        for r in 0..rows {
            prop_assert_eq!(sparse.load4(r, rows, 0, cols), dense.load4(r, rows, 0, cols));
            prop_assert_eq!(sparse.load4(0, r + 1, 0, cols), dense.load4(0, r + 1, 0, cols));
        }
        for c in 0..cols {
            prop_assert_eq!(sparse.load4(0, rows, c, cols), dense.load4(0, rows, c, cols));
            prop_assert_eq!(sparse.load4(0, rows, 0, c + 1), dense.load4(0, rows, 0, c + 1));
        }
    }
}

/// Orders two picks into a half-open range `[lo, hi)` of `0..=n`; empty
/// when the picks coincide modulo `n + 1`.
fn range(a: usize, b: usize, n: usize) -> (usize, usize) {
    let (a, b) = (a % (n + 1), b % (n + 1));
    (a.min(b), a.max(b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `View::stripe_cost` is the solvers' 1D oracle for one stripe: on
    /// both backends and both orientations it must answer every
    /// `[a, b)` exactly like `view.load` — empty stripes included — and
    /// report the same `max_unit_cost` and additivity as the
    /// `FnCost::additive` closure over `view.load` it replaces.
    #[test]
    fn stripe_cost_matches_view_load(
        shape in arb_matrix(),
        picks in vec((0usize..25, 0usize..25), 6),
    ) {
        let (rows, cols, cells) = shape;
        let m = matrix_from(rows, cols, &cells);
        for mode in [GammaMode::Dense, GammaMode::Sparse] {
            let pfx = PrefixSum2D::try_new_with(&m, mode).unwrap();
            for axis in [Axis::Rows, Axis::Cols] {
                let view = pfx.view(axis);
                let (n_main, n_aux) = (view.n_main(), view.n_aux());
                let mut stripes: Vec<(usize, usize)> =
                    picks.iter().map(|&(a, b)| range(a, b, n_main)).collect();
                stripes.extend([(0, 0), (n_main, n_main), (0, n_main)]);
                for (s0, s1) in stripes {
                    let reference = FnCost::additive(n_aux, |a, b| view.load(s0, s1, a, b));
                    let cost = view.stripe_cost(s0, s1);
                    prop_assert_eq!(cost.len(), n_aux);
                    prop_assert_eq!(cost.additive(), reference.additive());
                    prop_assert_eq!(cost.max_unit_cost(), reference.max_unit_cost());
                    for a in 0..=n_aux {
                        for b in a..=n_aux {
                            prop_assert_eq!(
                                cost.cost(a, b),
                                view.load(s0, s1, a, b),
                                "{:?} {:?} stripe [{},{}) [{},{})", mode, axis, s0, s1, a, b
                            );
                        }
                    }
                }
            }
        }
    }

    /// The hierarchical solvers' node projection: for a sub-rectangle
    /// and either axis, `project_into` holds `extent + 1` prefix loads
    /// whose differences are exactly `pfx.load` of the sub-ranges.
    #[test]
    fn node_projection_matches_load(
        shape in arb_matrix(),
        rects in vec((0usize..25, 0usize..25, 0usize..25, 0usize..25), 8),
    ) {
        let (rows, cols, cells) = shape;
        let m = matrix_from(rows, cols, &cells);
        for mode in [GammaMode::Dense, GammaMode::Sparse] {
            let pfx = PrefixSum2D::try_new_with(&m, mode).unwrap();
            let mut out = Vec::new();
            for &(a, b, c, d) in &rects {
                let (r0, r1) = range(a, b, rows);
                let (c0, c1) = range(c, d, cols);
                let rect = Rect::new(r0, r1, c0, c1);
                for axis in [Axis::Rows, Axis::Cols] {
                    pfx.project_into(&rect, axis, &mut out);
                    let (lo, hi) = rect.extent(axis);
                    prop_assert_eq!(out.len(), hi - lo + 1);
                    prop_assert_eq!(out[0], 0);
                    for i in lo..=hi {
                        for j in i..=hi {
                            let sub = rect.split(axis, i).1.split(axis, j).0;
                            prop_assert_eq!(
                                out[j - lo] - out[i - lo],
                                pfx.load(&sub),
                                "{:?} {:?} {:?} lines [{},{})", mode, rect, axis, i, j
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Forced Γ overflow must surface as `RectpartError::Overflow` from the
/// sparse build exactly as it does from the dense one — the fallible
/// surface is backend-independent.
#[cfg(feature = "faultinject")]
#[test]
fn sparse_constructor_surfaces_injected_overflow() {
    use rectpart_core::RectpartError;
    use rectpart_obs::fault::{self, FaultConfig};
    let m = LoadMatrix::from_fn(6, 5, |r, c| (r + c) as u32);
    fault::install(FaultConfig {
        force_gamma_overflow: true,
        ..FaultConfig::default()
    });
    let facade = PrefixSum2D::try_new_with(&m, GammaMode::Sparse);
    fault::clear();
    assert!(matches!(facade, Err(RectpartError::Overflow)));
    // With the plan cleared the sparse build succeeds and agrees.
    let ok = PrefixSum2D::try_new_with(&m, GammaMode::Sparse).unwrap();
    assert!(ok.is_sparse());
    assert_eq!(ok.total(), PrefixSum2D::try_new(&m).unwrap().total());
}
