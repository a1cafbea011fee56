//! The per-iteration cost model and migration accounting.

use rectpart_core::{Partition, PrefixSum2D};

/// Cost coefficients of one BSP iteration.
///
/// With a 5-point (4-neighbourhood) stencil, a processor owning rectangle
/// `r` must receive one ghost cell per boundary cell shared with each
/// edge-adjacent neighbour. Rectangles make this exactly
/// [`rectpart_core::Rect::shared_boundary`] — the implicit
/// communication-minimizing property the paper's introduction credits
/// rectangles with.
#[derive(Clone, Copy, Debug)]
pub struct CommModel {
    /// Time per unit of computational load.
    pub alpha: f64,
    /// Time per halo cell sent/received.
    pub beta: f64,
    /// Fixed per-neighbour message latency.
    pub latency: f64,
}

impl Default for CommModel {
    fn default() -> Self {
        // β/α = 20: one ghost-cell exchange costs ~20 cell updates, a
        // typical stencil-code ratio; latency worth ~200 updates.
        Self {
            alpha: 1.0,
            beta: 20.0,
            latency: 200.0,
        }
    }
}

/// Outcome of evaluating one partition under a [`CommModel`].
#[derive(Clone, Debug)]
pub struct ExecutionReport {
    /// Wall time of one BSP iteration (slowest processor).
    pub makespan: f64,
    /// Compute part of the makespan (α · Lmax).
    pub compute_time: f64,
    /// Total halo cells exchanged per iteration, counted once per
    /// directed send.
    pub comm_volume_total: u64,
    /// Largest per-processor halo volume.
    pub comm_volume_max: u64,
    /// Largest per-processor neighbour count.
    pub max_neighbors: usize,
    /// Serial time / makespan.
    pub speedup: f64,
    /// Speedup / processor count.
    pub efficiency: f64,
}

/// Evaluates partitions under a fixed cost model, optionally with
/// heterogeneous processor speeds (the constant-performance-model setting
/// of Lastovetsky & Dongarra that the paper's related work discusses:
/// with heterogeneous processors, compute time is load divided by the
/// owner's speed).
///
/// ```
/// use rectpart_core::{HierRb, LoadMatrix, Partitioner, PrefixSum2D};
/// use rectpart_simexec::{CommModel, Simulator};
///
/// let pfx = PrefixSum2D::try_new(&LoadMatrix::from_fn(32, 32, |_, _| 5)).unwrap();
/// let part = HierRb::load().partition(&pfx, 16);
/// let report = Simulator::new(CommModel::default()).evaluate(&pfx, &part);
/// assert!(report.speedup > 1.0 && report.speedup <= 16.0);
/// assert!(report.comm_volume_total > 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Simulator {
    model: CommModel,
    speeds: Option<Vec<f64>>,
}

impl Simulator {
    /// Creates a simulator with the given coefficients and homogeneous
    /// (unit-speed) processors.
    pub fn new(model: CommModel) -> Self {
        Self {
            model,
            speeds: None,
        }
    }

    /// Per-processor relative speeds; processor `p`'s compute time is
    /// `α·load_p / speeds[p]`. Lengths must match the evaluated
    /// partitions' processor counts.
    ///
    /// # Panics
    ///
    /// Panics if any speed is not strictly positive.
    pub fn with_speeds(model: CommModel, speeds: Vec<f64>) -> Self {
        assert!(
            speeds.iter().all(|&s| s > 0.0),
            "processor speeds must be positive"
        );
        Self {
            model,
            speeds: Some(speeds),
        }
    }

    /// The cost model in use.
    pub fn model(&self) -> &CommModel {
        &self.model
    }

    /// Simulates one BSP iteration of `part` over the load in `pfx`.
    ///
    /// # Panics
    ///
    /// Panics if heterogeneous speeds were configured with a different
    /// processor count than `part`.
    pub fn evaluate(&self, pfx: &PrefixSum2D, part: &Partition) -> ExecutionReport {
        let rects = part.rects();
        let m = rects.len();
        if let Some(speeds) = &self.speeds {
            assert_eq!(
                speeds.len(),
                m,
                "speed vector length must match processor count"
            );
        }
        // Per-processor halo volume and neighbour count: O(m²) pairwise
        // shared-boundary scan, parallelized over processors.
        let per_proc: Vec<(u64, usize, f64)> = rectpart_parallel::map_range(rects.len(), |i| {
            let r = &rects[i];
            let mut volume = 0u64;
            let mut neighbors = 0usize;
            if !r.is_empty() {
                for (j, other) in rects.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let shared = r.shared_boundary(other) as u64;
                    if shared > 0 {
                        volume += shared;
                        neighbors += 1;
                    }
                }
            }
            let speed = self.speeds.as_ref().map_or(1.0, |s| s[i]);
            let time = self.model.alpha * pfx.load(r) as f64 / speed
                + self.model.beta * volume as f64
                + self.model.latency * neighbors as f64;
            (volume, neighbors, time)
        });
        let comm_volume_total: u64 = per_proc.iter().map(|p| p.0).sum();
        let comm_volume_max = per_proc.iter().map(|p| p.0).max().unwrap_or(0);
        let max_neighbors = per_proc.iter().map(|p| p.1).max().unwrap_or(0);
        let makespan = per_proc.iter().map(|p| p.2).fold(0.0, f64::max);
        let compute_time = self.model.alpha * part.lmax(pfx) as f64;
        // Serial reference: the fastest single processor does all work.
        let best_speed = self
            .speeds
            .as_ref()
            .map_or(1.0, |s| s.iter().cloned().fold(0.0, f64::max));
        let serial = self.model.alpha * pfx.total() as f64 / best_speed;
        let speedup = if makespan > 0.0 {
            serial / makespan
        } else {
            m as f64
        };
        ExecutionReport {
            makespan,
            compute_time,
            comm_volume_total,
            comm_volume_max,
            max_neighbors,
            speedup,
            efficiency: speedup / m as f64,
        }
    }
}

/// Cells and load that change owner between two partitions of the same
/// matrix shape.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MigrationReport {
    /// Number of cells whose owner differs.
    pub cells: u64,
    /// Total load of those cells (under the *new* load matrix).
    pub load: u64,
}

/// Compares two partitions cell by cell (parallel over rows).
pub fn migration(pfx: &PrefixSum2D, prev: &Partition, next: &Partition) -> MigrationReport {
    let rows = pfx.rows();
    let cols = pfx.cols();
    let a = prev.owner_map(rows, cols);
    let b = next.owner_map(rows, cols);
    let (cells, load) = rectpart_parallel::map_range(rows, |r| {
        let mut cells = 0u64;
        let mut load = 0u64;
        for c in 0..cols {
            if a[r * cols + c] != b[r * cols + c] {
                cells += 1;
                load += pfx.load4(r, r + 1, c, c + 1);
            }
        }
        (cells, load)
    })
    .into_iter()
    .fold((0, 0), |x, y| (x.0 + y.0, x.1 + y.1));
    MigrationReport { cells, load }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rectpart_core::{LoadMatrix, Rect};

    fn uniform_pfx(n: usize) -> PrefixSum2D {
        PrefixSum2D::try_new(&LoadMatrix::from_fn(n, n, |_, _| 1)).unwrap()
    }

    #[test]
    fn single_processor_has_no_communication() {
        let pfx = uniform_pfx(8);
        let part = Partition::new(vec![Rect::new(0, 8, 0, 8)]);
        let rep = Simulator::default().evaluate(&pfx, &part);
        assert_eq!(rep.comm_volume_total, 0);
        assert_eq!(rep.max_neighbors, 0);
        assert!((rep.speedup - 1.0).abs() < 1e-12);
        assert!((rep.makespan - 64.0).abs() < 1e-12);
    }

    #[test]
    fn two_halves_exchange_one_row() {
        let pfx = uniform_pfx(8);
        let part = Partition::new(vec![Rect::new(0, 4, 0, 8), Rect::new(4, 8, 0, 8)]);
        let sim = Simulator::new(CommModel {
            alpha: 1.0,
            beta: 2.0,
            latency: 10.0,
        });
        let rep = sim.evaluate(&pfx, &part);
        // Each half sends/receives an 8-cell halo to 1 neighbour.
        assert_eq!(rep.comm_volume_total, 16);
        assert_eq!(rep.comm_volume_max, 8);
        assert_eq!(rep.max_neighbors, 1);
        assert!((rep.makespan - (32.0 + 16.0 + 10.0)).abs() < 1e-12);
        assert!(rep.speedup < 2.0);
        assert!(rep.efficiency < 1.0);
    }

    #[test]
    fn quadrants_have_two_neighbors_each() {
        let pfx = uniform_pfx(4);
        let part = Partition::new(vec![
            Rect::new(0, 2, 0, 2),
            Rect::new(0, 2, 2, 4),
            Rect::new(2, 4, 0, 2),
            Rect::new(2, 4, 2, 4),
        ]);
        let rep = Simulator::default().evaluate(&pfx, &part);
        assert_eq!(rep.max_neighbors, 2);
        assert_eq!(rep.comm_volume_total, 4 * 4); // each quadrant sends 2+2
    }

    #[test]
    fn striped_partitions_communicate_more_than_blocked() {
        let pfx = uniform_pfx(16);
        let stripes = Partition::new((0..16).map(|i| Rect::new(i, i + 1, 0, 16)).collect());
        let blocks = {
            let mut v = Vec::new();
            for r in 0..4 {
                for c in 0..4 {
                    v.push(Rect::new(4 * r, 4 * r + 4, 4 * c, 4 * c + 4));
                }
            }
            Partition::new(v)
        };
        let sim = Simulator::default();
        let s = sim.evaluate(&pfx, &stripes);
        let b = sim.evaluate(&pfx, &blocks);
        assert!(
            s.comm_volume_total > b.comm_volume_total,
            "stripes {} vs blocks {}",
            s.comm_volume_total,
            b.comm_volume_total
        );
    }

    #[test]
    fn migration_zero_for_identical_partitions() {
        let pfx = uniform_pfx(8);
        let p = Partition::new(vec![Rect::new(0, 4, 0, 8), Rect::new(4, 8, 0, 8)]);
        assert_eq!(migration(&pfx, &p, &p), MigrationReport::default());
    }

    #[test]
    fn migration_counts_moved_cells_and_load() {
        let mat = LoadMatrix::from_fn(4, 4, |r, _| (r + 1) as u32);
        let pfx = PrefixSum2D::try_new(&mat).unwrap();
        let a = Partition::new(vec![Rect::new(0, 2, 0, 4), Rect::new(2, 4, 0, 4)]);
        let b = Partition::new(vec![Rect::new(0, 3, 0, 4), Rect::new(3, 4, 0, 4)]);
        let rep = migration(&pfx, &a, &b);
        assert_eq!(rep.cells, 4); // row 2 changes owner
        assert_eq!(rep.load, 4 * 3);
    }

    #[test]
    fn migration_swap_is_symmetric_in_cells() {
        let pfx = uniform_pfx(6);
        let a = Partition::new(vec![Rect::new(0, 3, 0, 6), Rect::new(3, 6, 0, 6)]);
        let b = Partition::new(vec![Rect::new(3, 6, 0, 6), Rect::new(0, 3, 0, 6)]);
        // Same rectangles, swapped owners: every cell "moves".
        assert_eq!(migration(&pfx, &a, &b).cells, 36);
    }
}

#[cfg(test)]
mod hetero_tests {
    use super::*;
    use rectpart_core::{LoadMatrix, Rect};

    #[test]
    fn faster_processors_finish_sooner() {
        let pfx = PrefixSum2D::try_new(&LoadMatrix::from_fn(8, 8, |_, _| 1)).unwrap();
        let part = Partition::new(vec![Rect::new(0, 4, 0, 8), Rect::new(4, 8, 0, 8)]);
        let model = CommModel {
            alpha: 1.0,
            beta: 0.0,
            latency: 0.0,
        };
        let homo = Simulator::new(model).evaluate(&pfx, &part);
        assert!((homo.makespan - 32.0).abs() < 1e-12);
        // Doubling one processor's speed halves its side's time; the
        // other side now dominates.
        let hetero = Simulator::with_speeds(model, vec![2.0, 1.0]).evaluate(&pfx, &part);
        assert!((hetero.makespan - 32.0).abs() < 1e-12);
        // Doubling both halves the makespan but also the serial
        // reference: speedup is unchanged.
        let both = Simulator::with_speeds(model, vec![2.0, 2.0]).evaluate(&pfx, &part);
        assert!((both.makespan - 16.0).abs() < 1e-12);
        assert!((both.speedup - homo.speedup).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn speed_vector_length_is_checked() {
        let pfx = PrefixSum2D::try_new(&LoadMatrix::from_fn(2, 2, |_, _| 1)).unwrap();
        let part = Partition::new(vec![Rect::new(0, 2, 0, 2)]);
        let _ = Simulator::with_speeds(CommModel::default(), vec![1.0, 1.0]).evaluate(&pfx, &part);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_speed_is_rejected() {
        let _ = Simulator::with_speeds(CommModel::default(), vec![1.0, 0.0]);
    }
}
