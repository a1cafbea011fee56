//! Rectilinear partitions (§3.1): a P×Q grid of row and column cuts.
//!
//! * [`RectUniform`] — the `MPI_Cart`-style baseline that balances *area*,
//!   not load.
//! * [`RectNicol`] — Nicol's iterative refinement: fixing the cuts of one
//!   dimension, the other dimension is re-partitioned optimally under the
//!   max-over-stripes interval cost, alternating until the grid stops
//!   improving.

use rectpart_onedim::{nicol_in, Cuts, FnCost, IntervalCost, SolveScratch};

use crate::cancel::Checker;
use crate::error::RectpartError;
use crate::geometry::{Axis, Rect};
use crate::prefix::PrefixSum2D;
use crate::solution::Partition;
use crate::traits::{grid_dims, Partitioner};

/// `RECT-UNIFORM`: splits rows into `P` and columns into `Q` intervals of
/// near-equal *size* (the naive distribution used by `MPI_Cart`).
#[derive(Clone, Debug, Default)]
pub struct RectUniform {
    /// Explicit `(P, Q)` grid; `P·Q ≤ m` is required. Defaults to the
    /// near-square factorization of `m`.
    pub grid: Option<(usize, usize)>,
}

impl Partitioner for RectUniform {
    fn name(&self) -> String {
        "RECT-UNIFORM".into()
    }

    fn partition(&self, pfx: &PrefixSum2D, m: usize) -> Partition {
        assert!(m >= 1);
        let (p, q) = self.grid.unwrap_or_else(|| grid_dims(m));
        assert!(p * q <= m, "grid {p}x{q} exceeds {m} processors");
        let rows = Cuts::uniform(pfx.rows(), p);
        let cols = Cuts::uniform(pfx.cols(), q);
        Partition::with_parts(grid_rects(&rows, &cols), m)
    }
}

/// `RECT-NICOL`: iterative refinement of a rectilinear grid (Nicol 1994;
/// Manne & Sørevik 1996). Given the cuts of the *fixed* dimension, the
/// other dimension is partitioned optimally for the 1D problem whose
/// interval load is the **maximum** over the fixed stripes (the grid's
/// bottleneck is then exactly the 1D bottleneck). Dimensions alternate
/// until the bottleneck stops improving or `max_iters` is reached (the
/// paper observes 3–10 iterations in practice).
#[derive(Clone, Debug)]
pub struct RectNicol {
    /// Explicit `(P, Q)` grid; defaults to the near-square factorization.
    pub grid: Option<(usize, usize)>,
    /// Refinement-iteration cap (one iteration = refine both dimensions).
    pub max_iters: usize,
}

impl Default for RectNicol {
    fn default() -> Self {
        Self {
            grid: None,
            max_iters: 10,
        }
    }
}

impl RectNicol {
    /// Like [`Partitioner::partition`] but also reports how many
    /// refinement iterations ran before convergence (the paper observes
    /// 3–10 on a 514² matrix up to 10 000 processors; the `extH`
    /// experiment checks that claim).
    pub fn partition_with_iterations(&self, pfx: &PrefixSum2D, m: usize) -> (Partition, usize) {
        assert!(m >= 1);
        self.refine_with_checker(pfx, m, Checker::OFF)
            .unwrap_or_else(|_| {
                // Unreachable with Checker::OFF; a valid grid regardless.
                let (p, q) = self.grid.unwrap_or_else(|| grid_dims(m));
                let rows = Cuts::uniform(pfx.rows(), p);
                let cols = Cuts::uniform(pfx.cols(), q);
                (Partition::with_parts(grid_rects(&rows, &cols), m), 0)
            })
    }

    /// The refinement loop with a cancellation checkpoint per iteration
    /// (one iteration = one row + one column optimal 1D re-solve, the
    /// algorithm's natural serial quantum).
    fn refine_with_checker(
        &self,
        pfx: &PrefixSum2D,
        m: usize,
        check: Checker,
    ) -> Result<(Partition, usize), RectpartError> {
        let (p, q) = self.grid.unwrap_or_else(|| grid_dims(m));
        assert!(p * q <= m, "grid {p}x{q} exceeds {m} processors");

        // One scratch arena for the whole refinement: every 1D solve in
        // the loop below reuses the same incumbent buffer.
        let mut scratch = SolveScratch::new();
        check.check()?;
        // Start from the optimal 1D partition of the row projection.
        let row_proj = FnCost::additive(pfx.rows(), |a, b| pfx.load4(a, b, 0, pfx.cols()));
        let mut rows = nicol_in(&row_proj, p, &mut scratch).cuts;
        // A refinement's bottleneck is the Lmax of the grid it completes:
        // its cost is the max over the fixed stripes.
        let first = refine(pfx, &rows, Axis::Cols, q, &mut scratch);
        let mut cols = first.cuts;
        let mut best = first.bottleneck;
        let mut iterations = 1; // the initial row+column refinement
        rectpart_obs::incr(rectpart_obs::Counter::RectNicolRefineIters);
        rectpart_obs::trace_point(rectpart_obs::TraceId::RectNicolLmax, 0, 0, best);

        for _ in 0..self.max_iters {
            check.check()?;
            let new_rows = refine(pfx, &cols, Axis::Rows, p, &mut scratch);
            let new_cols = refine(pfx, &new_rows.cuts, Axis::Cols, q, &mut scratch);
            let lmax = new_cols.bottleneck;
            iterations += 1;
            rectpart_obs::incr(rectpart_obs::Counter::RectNicolRefineIters);
            rectpart_obs::trace_point(
                rectpart_obs::TraceId::RectNicolLmax,
                0,
                iterations as u64 - 1,
                lmax,
            );
            if lmax >= best {
                break;
            }
            best = lmax;
            rows = new_rows.cuts;
            cols = new_cols.cuts;
        }
        Ok((
            Partition::with_parts(grid_rects(&rows, &cols), m),
            iterations,
        ))
    }
}

impl Partitioner for RectNicol {
    fn name(&self) -> String {
        "RECT-NICOL".into()
    }

    fn partition(&self, pfx: &PrefixSum2D, m: usize) -> Partition {
        self.partition_with_iterations(pfx, m).0
    }

    fn try_partition(&self, pfx: &PrefixSum2D, m: usize) -> Result<Partition, RectpartError> {
        if m == 0 {
            return Err(RectpartError::ZeroParts);
        }
        self.refine_with_checker(pfx, m, Checker::active())
            .map(|(part, _)| part)
    }
}

/// Optimally partitions `refined` (the dimension given by `refined_axis`)
/// against the fixed stripes of the other dimension, under the
/// max-over-stripes interval cost.
///
/// Every query of that cost reads every stripe, so each fixed stripe is
/// projected onto the refined dimension once, up front
/// ([`View::stripe_cost`](crate::View::stripe_cost); the builds are
/// independent and fan out across worker threads), and a query is a max
/// over plain array differences. They are exactly the `load4` values, so
/// the refined cuts are bit-identical to a direct evaluation on either
/// backend.
fn refine(
    pfx: &PrefixSum2D,
    fixed: &Cuts,
    refined_axis: Axis,
    parts: usize,
    scratch: &mut SolveScratch,
) -> rectpart_onedim::OneDimResult {
    let _span = rectpart_obs::span::enter(rectpart_obs::span::SpanKind::RectNicolRefine);
    let stripes: Vec<(usize, usize)> = fixed.intervals().filter(|(a, b)| a < b).collect();
    let view = pfx.view(refined_axis.flip());
    let stripes = rectpart_parallel::map_slice(&stripes, |&(s0, s1)| view.stripe_cost(s0, s1));
    let cost = FnCost::new(view.n_aux(), move |a, b| {
        stripes.iter().map(|s| s.cost(a, b)).max().unwrap_or(0)
    });
    nicol_in(&cost, parts, scratch)
}

fn grid_rects(rows: &Cuts, cols: &Cuts) -> Vec<Rect> {
    let mut rects = Vec::with_capacity(rows.parts() * cols.parts());
    for (r0, r1) in rows.intervals() {
        for (c0, c1) in cols.intervals() {
            rects.push(Rect::new(r0, r1, c0, c1));
        }
    }
    rects
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::LoadMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_pfx(rows: usize, cols: usize, seed: u64) -> PrefixSum2D {
        let mut rng = StdRng::seed_from_u64(seed);
        PrefixSum2D::try_new(&LoadMatrix::from_fn(rows, cols, |_, _| {
            rng.gen_range(1..100)
        }))
        .unwrap()
    }

    #[test]
    fn uniform_grid_tiles_matrix() {
        let pfx = random_pfx(17, 23, 1);
        for m in [1, 4, 6, 9, 16, 25] {
            let p = RectUniform::default().partition(&pfx, m);
            assert!(p.validate(&pfx).is_ok(), "m={m}");
            assert_eq!(p.parts(), m);
        }
    }

    #[test]
    fn uniform_balances_area_not_load() {
        // All the load in one corner: uniform still cuts mid-matrix.
        let mut mat = LoadMatrix::zeros(8, 8);
        *mat.get_mut(0, 0) = 100;
        let pfx = PrefixSum2D::try_new(&mat).unwrap();
        let p = RectUniform::default().partition(&pfx, 4);
        assert_eq!(p.lmax(&pfx), 100);
        assert_eq!(p.rects()[0], Rect::new(0, 4, 0, 4));
    }

    #[test]
    fn nicol_beats_uniform_in_aggregate() {
        // Per-instance, Nicol refinement converges to a *local* optimum
        // and can occasionally lose to the area-uniform grid on
        // near-uniform random instances; in aggregate it must win.
        let mut nicol_total = 0u64;
        let mut uniform_total = 0u64;
        for seed in 0..5 {
            let pfx = random_pfx(32, 32, seed);
            for m in [4, 9, 16, 25] {
                uniform_total += RectUniform::default().partition(&pfx, m).lmax(&pfx);
                nicol_total += RectNicol::default().partition(&pfx, m).lmax(&pfx);
            }
        }
        assert!(
            nicol_total < uniform_total,
            "nicol {nicol_total} >= uniform {uniform_total}"
        );
    }

    #[test]
    fn nicol_partition_is_valid_grid() {
        let pfx = random_pfx(20, 30, 3);
        let p = RectNicol::default().partition(&pfx, 12);
        assert!(p.validate(&pfx).is_ok());
        assert_eq!(p.parts(), 12);
        assert_eq!(
            p.active_parts(),
            p.rects().iter().filter(|r| !r.is_empty()).count()
        );
    }

    #[test]
    fn nicol_exact_on_uniform_matrix() {
        let mat = LoadMatrix::from_fn(16, 16, |_, _| 1);
        let pfx = PrefixSum2D::try_new(&mat).unwrap();
        let p = RectNicol::default().partition(&pfx, 16);
        assert_eq!(p.lmax(&pfx), 16); // perfect 4x4 grid of 4x4 blocks
    }

    #[test]
    fn explicit_grid_is_respected() {
        let pfx = random_pfx(16, 16, 9);
        let algo = RectUniform { grid: Some((2, 3)) };
        let p = algo.partition(&pfx, 8);
        assert_eq!(p.active_parts(), 6);
        assert!(p.validate(&pfx).is_ok());
    }

    /// Lmax of the grid `rows × cols`, one Γ query per cell.
    fn grid_lmax(pfx: &PrefixSum2D, rows: &Cuts, cols: &Cuts) -> u64 {
        Partition::new(grid_rects(rows, cols)).lmax(pfx)
    }

    #[test]
    fn refine_respects_stripe_maximum() {
        // Two stripes with loads concentrated in different columns: the
        // refined cut must consider the max across stripes.
        let mat = LoadMatrix::from_vec(2, 4, vec![9, 1, 1, 1, 1, 1, 1, 9]);
        let pfx = PrefixSum2D::try_new(&mat).unwrap();
        let rows = Cuts::new(vec![0, 1, 2]);
        let r = refine(&pfx, &rows, Axis::Cols, 2, &mut SolveScratch::new());
        // Any column split leaves a 9 on each side; best bottleneck is
        // max over stripes.
        assert_eq!(r.bottleneck, grid_lmax(&pfx, &rows, &r.cuts));
        assert!(r.bottleneck <= 12);
    }

    /// The refinement loop reads each grid's Lmax off the refine that
    /// completed it; that must be the grid's Lmax, on both backends,
    /// with empty fixed stripes and zero-heavy loads.
    #[test]
    fn refine_bottleneck_is_the_grid_lmax() {
        let mut rng = StdRng::seed_from_u64(5);
        for seed in 0..6u64 {
            let (rows, cols) = (rng.gen_range(1..40), rng.gen_range(1..40));
            let zeros = rng.gen_range(0..100);
            let mat = LoadMatrix::from_fn(rows, cols, |_, _| {
                if rng.gen_range(0..100) < zeros {
                    0
                } else {
                    rng.gen_range(1..50)
                }
            });
            for mode in [crate::GammaMode::Dense, crate::GammaMode::Sparse] {
                let pfx = PrefixSum2D::try_new_with(&mat, mode).unwrap();
                for (p, q) in [(1, 1), (2, 3), (5, 4), (9, 2)] {
                    let fixed = Cuts::uniform(rows, p);
                    let r = refine(&pfx, &fixed, Axis::Cols, q, &mut SolveScratch::new());
                    assert_eq!(
                        r.bottleneck,
                        grid_lmax(&pfx, &fixed, &r.cuts),
                        "seed={seed} {mode:?} {p}x{q}"
                    );
                    let fixed = Cuts::uniform(cols, q);
                    let r = refine(&pfx, &fixed, Axis::Rows, p, &mut SolveScratch::new());
                    assert_eq!(
                        r.bottleneck,
                        grid_lmax(&pfx, &r.cuts, &fixed),
                        "seed={seed} {mode:?} {p}x{q}"
                    );
                }
            }
        }
    }

    #[test]
    fn convergence_is_fast_like_the_paper_says() {
        // Paper §3.1: "in practice the convergence is faster (about 3-10
        // iterations for a 514*514 matrix up to 10,000 processors)".
        let pfx = random_pfx(64, 64, 13);
        for m in [16, 64, 144] {
            let (part, iters) = RectNicol::default().partition_with_iterations(&pfx, m);
            assert!(part.validate(&pfx).is_ok());
            assert!(
                (1..=10).contains(&iters),
                "m={m}: converged in {iters} iterations"
            );
        }
    }

    #[test]
    fn single_processor() {
        let pfx = random_pfx(5, 5, 2);
        for algo in [
            &RectUniform::default() as &dyn Partitioner,
            &RectNicol::default(),
        ] {
            let p = algo.partition(&pfx, 1);
            assert_eq!(p.rects()[0], Rect::new(0, 5, 0, 5));
        }
    }
}
