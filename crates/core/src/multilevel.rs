//! Multilevel partitioning: coarsen → partition → project.
//!
//! For very large matrices the exact prefix-sum queries are cheap but the
//! optimal 1D solves inside the partitioners still walk fine-grained
//! index spaces. A classic engineering response (familiar from graph
//! partitioning) is to partition a block-coarsened matrix and scale the
//! cuts back up. This module implements that wrapper for *any*
//! [`Partitioner`] and the `extG` experiment measures what the shortcut
//! costs in balance — the coarse matrix can hide in-block skew, so the
//! projected partition is generally worse than partitioning at full
//! resolution.

use crate::error::RectpartError;
use crate::geometry::Rect;
use crate::matrix::LoadMatrix;
use crate::prefix::PrefixSum2D;
use crate::solution::Partition;
use crate::traits::Partitioner;

impl LoadMatrix {
    /// Sums `factor × factor` blocks into one coarse cell (edge blocks
    /// may be smaller). The coarse matrix has
    /// `⌈rows/factor⌉ × ⌈cols/factor⌉` cells and the same total load.
    ///
    /// # Panics
    ///
    /// Panics if a block's sum exceeds `u32::MAX`.
    pub fn coarsen(&self, factor: usize) -> LoadMatrix {
        assert!(factor >= 1);
        let rows = self.rows().div_ceil(factor);
        let cols = self.cols().div_ceil(factor);
        LoadMatrix::from_fn(rows, cols, |r, c| {
            let mut sum = 0u64;
            for fr in r * factor..((r + 1) * factor).min(self.rows()) {
                for fc in c * factor..((c + 1) * factor).min(self.cols()) {
                    sum += self.get(fr, fc) as u64;
                }
            }
            // lint:allow(panic) -- overflow guard: a coarse block summing past u32 must abort with an actionable message, not truncate loads
            u32::try_from(sum).expect("coarse block load exceeds u32")
        })
    }
}

/// Wraps a partitioner to run on a block-coarsened copy of the matrix,
/// scaling the resulting rectangles back to full resolution.
///
/// The wrapper needs the *matrix* (to coarsen), so unlike the plain
/// algorithms it is constructed per instance with [`Multilevel::try_new`].
pub struct Multilevel<'a, P> {
    matrix: &'a LoadMatrix,
    inner: P,
    factor: usize,
    coarse_pfx: PrefixSum2D,
}

impl<'a, P: Partitioner> Multilevel<'a, P> {
    /// Coarsens `matrix` by `factor` and prepares the wrapper,
    /// surfacing Γ construction overflow (coarsening preserves the
    /// total load, so this errs exactly when the fine matrix's total
    /// reaches `2^64`).
    pub fn try_new(matrix: &'a LoadMatrix, inner: P, factor: usize) -> Result<Self, RectpartError> {
        assert!(factor >= 1);
        let coarse = matrix.coarsen(factor);
        Ok(Self {
            matrix,
            inner,
            factor,
            coarse_pfx: PrefixSum2D::try_new(&coarse)?,
        })
    }

    /// The coarsening factor.
    pub fn factor(&self) -> usize {
        self.factor
    }
}

impl<P: Partitioner> Partitioner for Multilevel<'_, P> {
    fn name(&self) -> String {
        format!("{}@1/{}", self.inner.name(), self.factor)
    }

    /// Partitions the coarse matrix with the inner algorithm and projects
    /// the rectangles to full resolution (cut positions multiply by the
    /// factor, clamped to the fine dimensions — exact because coarse cell
    /// `(r, c)` covers fine rows `[r·f, (r+1)·f)`).
    fn partition(&self, pfx: &PrefixSum2D, m: usize) -> Partition {
        assert_eq!(
            (pfx.rows(), pfx.cols()),
            (self.matrix.rows(), self.matrix.cols()),
            "prefix sums must describe the constructing matrix"
        );
        let coarse_part = self.inner.partition(&self.coarse_pfx, m);
        let f = self.factor;
        let rects = coarse_part
            .rects()
            .iter()
            .map(|r| {
                if r.is_empty() {
                    Rect::EMPTY
                } else {
                    Rect::new(
                        (r.r0 * f).min(pfx.rows()),
                        (r.r1 * f).min(pfx.rows()),
                        (r.c0 * f).min(pfx.cols()),
                        (r.c1 * f).min(pfx.cols()),
                    )
                }
            })
            .collect();
        Partition::new(rects)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchical::HierRb;
    use crate::jagged::JagMHeur;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> LoadMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        LoadMatrix::from_fn(rows, cols, |_, _| rng.gen_range(1..100))
    }

    #[test]
    fn coarsen_preserves_total_and_shape() {
        let m = random_matrix(17, 23, 1);
        for f in [1, 2, 3, 5, 17, 40] {
            let c = m.coarsen(f);
            assert_eq!(c.total(), m.total(), "factor {f}");
            assert_eq!(c.rows(), 17usize.div_ceil(f));
            assert_eq!(c.cols(), 23usize.div_ceil(f));
        }
        assert_eq!(m.coarsen(1), m);
    }

    #[test]
    fn coarsen_sums_blocks() {
        let m = LoadMatrix::from_vec(2, 4, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        let c = m.coarsen(2);
        assert_eq!(c.data(), &[1 + 2 + 5 + 6, 3 + 4 + 7 + 8]);
    }

    #[test]
    fn multilevel_partitions_are_valid() {
        let m = random_matrix(50, 38, 2);
        let pfx = PrefixSum2D::try_new(&m).unwrap();
        for f in [2, 3, 7] {
            for algo_m in [1, 4, 9, 12] {
                let ml = Multilevel::try_new(&m, JagMHeur::best(), f).unwrap();
                let p = ml.partition(&pfx, algo_m);
                assert!(p.validate(&pfx).is_ok(), "f={f} m={algo_m}");
                assert_eq!(p.parts(), algo_m);
            }
        }
    }

    #[test]
    fn multilevel_no_better_than_full_resolution() {
        let m = random_matrix(64, 64, 3);
        let pfx = PrefixSum2D::try_new(&m).unwrap();
        for f in [2, 4, 8] {
            let full = HierRb::load().partition(&pfx, 16).lmax(&pfx);
            let ml = Multilevel::try_new(&m, HierRb::load(), f)
                .unwrap()
                .partition(&pfx, 16)
                .lmax(&pfx);
            // Coarse cuts are a subset of fine cuts for this class.
            assert!(ml >= full, "f={f}: {ml} < {full}");
        }
    }

    #[test]
    fn factor_one_is_identity() {
        let m = random_matrix(20, 20, 4);
        let pfx = PrefixSum2D::try_new(&m).unwrap();
        let direct = JagMHeur::best().partition(&pfx, 6);
        let ml = Multilevel::try_new(&m, JagMHeur::best(), 1)
            .unwrap()
            .partition(&pfx, 6);
        assert_eq!(direct.rects(), ml.rects());
    }

    #[test]
    fn name_reports_the_factor() {
        let m = random_matrix(8, 8, 5);
        let ml = Multilevel::try_new(&m, HierRb::load(), 4).unwrap();
        assert_eq!(ml.name(), "HIER-RB-LOAD@1/4");
        assert_eq!(ml.factor(), 4);
    }
}
