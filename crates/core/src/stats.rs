//! Descriptive statistics of a partition, for reports and experiment
//! tables beyond the single `Lmax`-based metric the paper optimizes.

use crate::prefix::PrefixSum2D;
use crate::solution::Partition;

/// Load and shape statistics of one partition.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionStats {
    /// Number of processors.
    pub parts: usize,
    /// Non-empty rectangles.
    pub active_parts: usize,
    /// Most loaded processor.
    pub lmax: u64,
    /// Least loaded *active* processor.
    pub lmin: u64,
    /// Mean load over all processors.
    pub mean: f64,
    /// Population standard deviation of the per-processor loads.
    pub stddev: f64,
    /// The paper's metric: `lmax / mean − 1`.
    pub imbalance: f64,
    /// Largest rectangle aspect ratio (long side / short side) among
    /// non-empty rectangles; 1.0 for squares. Squat rectangles
    /// communicate less per unit of area.
    pub max_aspect: f64,
    /// Total perimeter cells of non-empty rectangles (a
    /// machine-independent proxy for halo volume).
    pub total_perimeter: usize,
}

impl PartitionStats {
    /// Computes the statistics of `part` over the load in `pfx`.
    pub fn compute(pfx: &PrefixSum2D, part: &Partition) -> Self {
        let loads = part.loads(pfx);
        let parts = part.parts();
        let active: Vec<usize> = part
            .rects()
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.is_empty())
            .map(|(i, _)| i)
            .collect();
        let lmax = loads.iter().copied().max().unwrap_or(0);
        // lint:allow(panic-reach) -- active holds enumerate() indices of
        // rects(), and loads() has one entry per rect
        let lmin = active.iter().map(|&i| loads[i]).min().unwrap_or(0);
        let mean = loads.iter().sum::<u64>() as f64 / parts as f64;
        let var = loads
            .iter()
            .map(|&l| {
                let d = l as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / parts as f64;
        let max_aspect = active
            .iter()
            .map(|&i| {
                // lint:allow(panic-reach) -- i is an enumerate() index of rects()
                let r = &part.rects()[i];
                let (a, b) = (r.height().max(r.width()), r.height().min(r.width()));
                a as f64 / b as f64
            })
            .fold(1.0f64, f64::max);
        let total_perimeter = active
            .iter()
            .map(|&i| {
                // lint:allow(panic-reach) -- i is an enumerate() index of rects()
                let r = &part.rects()[i];
                2 * (r.height() + r.width())
            })
            .sum();
        Self {
            parts,
            active_parts: active.len(),
            lmax,
            lmin,
            mean,
            stddev: var.sqrt(),
            imbalance: if mean > 0.0 {
                lmax as f64 / mean - 1.0
            } else {
                0.0
            },
            max_aspect,
            total_perimeter,
        }
    }
}

impl std::fmt::Display for PartitionStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "m={} (active {}), loads {}..{} (mean {:.1}, sd {:.1}), \
             imbalance {:.4}, max aspect {:.2}, perimeter {}",
            self.parts,
            self.active_parts,
            self.lmin,
            self.lmax,
            self.mean,
            self.stddev,
            self.imbalance,
            self.max_aspect,
            self.total_perimeter
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Rect;
    use crate::matrix::LoadMatrix;

    #[test]
    fn stats_of_a_perfect_split() {
        let m = LoadMatrix::from_fn(4, 4, |_, _| 2);
        let pfx = PrefixSum2D::try_new(&m).unwrap();
        let part = Partition::new(vec![Rect::new(0, 2, 0, 4), Rect::new(2, 4, 0, 4)]);
        let s = PartitionStats::compute(&pfx, &part);
        assert_eq!(s.parts, 2);
        assert_eq!(s.active_parts, 2);
        assert_eq!((s.lmin, s.lmax), (16, 16));
        assert!(s.stddev.abs() < 1e-12);
        assert!(s.imbalance.abs() < 1e-12);
        assert!((s.max_aspect - 2.0).abs() < 1e-12);
        assert_eq!(s.total_perimeter, 2 * (2 * (2 + 4)));
    }

    #[test]
    fn stats_of_a_skewed_split() {
        let m = LoadMatrix::from_fn(2, 4, |_, c| if c == 0 { 10 } else { 1 });
        let pfx = PrefixSum2D::try_new(&m).unwrap();
        let part = Partition::new(vec![Rect::new(0, 2, 0, 1), Rect::new(0, 2, 1, 4)]);
        let s = PartitionStats::compute(&pfx, &part);
        assert_eq!(s.lmax, 20);
        assert_eq!(s.lmin, 6);
        assert!((s.mean - 13.0).abs() < 1e-12);
        assert!(s.stddev > 0.0);
        assert!((s.imbalance - (20.0 / 13.0 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn empty_rects_counted_as_idle() {
        let m = LoadMatrix::from_fn(2, 2, |_, _| 1);
        let pfx = PrefixSum2D::try_new(&m).unwrap();
        let part = Partition::with_parts(vec![Rect::new(0, 2, 0, 2)], 4);
        let s = PartitionStats::compute(&pfx, &part);
        assert_eq!(s.parts, 4);
        assert_eq!(s.active_parts, 1);
        assert_eq!(s.lmin, 4); // the only active part
        assert!((s.mean - 1.0).abs() < 1e-12);
        assert!((s.imbalance - 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_is_informative() {
        let m = LoadMatrix::from_fn(4, 4, |_, _| 1);
        let pfx = PrefixSum2D::try_new(&m).unwrap();
        let part = Partition::new(vec![Rect::new(0, 4, 0, 4)]);
        let text = PartitionStats::compute(&pfx, &part).to_string();
        assert!(text.contains("imbalance"));
        assert!(text.contains("m=1"));
    }
}
