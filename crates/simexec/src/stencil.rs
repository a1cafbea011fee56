//! A real multi-threaded stencil mini-app driven by a rectangle
//! partition.
//!
//! The cost models in [`crate::Simulator`] *predict* balance; this module
//! *executes*: a Jacobi 5-point relaxation over the matrix's grid, one OS
//! thread per (non-idle) processor, each sweeping exactly its rectangle,
//! with per-cell artificial work proportional to the load matrix — the
//! "spatially located heterogeneous workload" of the paper's abstract,
//! made literal. Per-thread busy times expose the realized balance, so
//! partition quality can be verified against wall-clock behaviour rather
//! than a model.
//!
//! Concurrency layout: two grids (read/write) swapped per iteration and a
//! barrier between iterations. Within an iteration every thread *reads*
//! the shared previous grid freely and *writes* only the cells of its own
//! rectangle — the partition's disjointness (checked up front) is exactly
//! the data-race-freedom argument.

use std::cell::UnsafeCell;
use std::sync::Barrier;
use std::time::Instant;

use rectpart_core::{LoadMatrix, Partition, Rect};

/// Configuration for [`run_stencil`].
#[derive(Clone, Copy, Debug)]
pub struct StencilConfig {
    /// Jacobi iterations to execute.
    pub iterations: usize,
    /// Artificial work units per unit of cell load (inner spin
    /// multiplier); 0 makes every cell equally cheap.
    pub work_scale: u32,
}

impl Default for StencilConfig {
    fn default() -> Self {
        Self {
            iterations: 8,
            work_scale: 1,
        }
    }
}

/// Outcome of a stencil run.
#[derive(Clone, Debug)]
pub struct StencilReport {
    /// End-to-end wall time in seconds.
    pub wall_seconds: f64,
    /// Per-thread busy time (compute only, excluding barrier waits), one
    /// entry per non-idle processor in partition order.
    pub busy_seconds: Vec<f64>,
    /// `mean(busy) / max(busy)` — 1.0 is perfect balance.
    pub balance_efficiency: f64,
    /// Sum of the final grid, for cross-checking against the sequential
    /// reference (Jacobi is order-independent, so this is exact).
    pub checksum: f64,
}

/// Shared grid written by many threads at provably disjoint cells.
struct SharedGrid(UnsafeCell<Vec<f64>>);

// SAFETY: all concurrent mutation goes through `write_cell`, whose
// callers partition the index space by rectangle ownership (validated
// before the threads start); reads of the *other* buffer are separated
// from its writes by the barrier.
unsafe impl Sync for SharedGrid {}

impl SharedGrid {
    fn new(data: Vec<f64>) -> Self {
        Self(UnsafeCell::new(data))
    }

    /// # Safety
    ///
    /// Callers must hold exclusive logical ownership of `idx` (their
    /// rectangle) for the current iteration, and `idx` must be in
    /// bounds. No two threads may pass the same `idx` between two
    /// barrier crossings, and no thread may [`read_cell`] this buffer
    /// half during the same window (the swap discipline in
    /// [`run_stencil`] guarantees both). The aliasing contract is
    /// exercised by `write_cell_disjoint_aliasing_contract` below,
    /// which is written to fail under Miri if a `&mut` is ever formed
    /// or writes overlap.
    ///
    /// [`read_cell`]: SharedGrid::read_cell
    #[inline]
    unsafe fn write_cell(&self, idx: usize, v: f64) {
        // Write through a raw element pointer: no &mut to the Vec is ever
        // formed, so disjoint concurrent writes are sound.
        unsafe {
            let vec = &*self.0.get();
            debug_assert!(idx < vec.len());
            let base = vec.as_ptr() as *mut f64;
            base.add(idx).write(v);
        }
    }

    #[inline]
    fn read_cell(&self, idx: usize) -> f64 {
        // Reads race only with writes to the same buffer half, which the
        // barrier excludes.
        unsafe {
            let vec = &*self.0.get();
            debug_assert!(idx < vec.len());
            vec.as_ptr().add(idx).read()
        }
    }

    fn into_inner(self) -> Vec<f64> {
        self.0.into_inner()
    }
}

/// Runs the partitioned stencil on real threads and reports realized
/// balance.
///
/// # Panics
///
/// Panics if the partition does not tile the matrix.
pub fn run_stencil(
    matrix: &LoadMatrix,
    partition: &Partition,
    cfg: &StencilConfig,
) -> StencilReport {
    partition
        .validate_dims(matrix.rows(), matrix.cols())
        .expect("stencil requires a valid tiling (the data-race-freedom argument)");
    let rows = matrix.rows();
    let cols = matrix.cols();
    let init: Vec<f64> = matrix.data().iter().map(|&v| v as f64).collect();
    let grids = [
        SharedGrid::new(init.clone()),
        SharedGrid::new(vec![0.0; rows * cols]),
    ];
    let rects: Vec<Rect> = partition
        .rects()
        .iter()
        .copied()
        .filter(|r| !r.is_empty())
        .collect();
    let barrier = Barrier::new(rects.len());
    let wall_start = Instant::now();
    // lint:allow(thread) -- the stencil mini-app measures realized balance on real OS threads; it runs only when explicitly invoked, never on a partitioner path
    let busy_seconds: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = rects
            .iter()
            .map(|rect| {
                let grids = &grids;
                let barrier = &barrier;
                let rect = *rect;
                // lint:allow(thread) -- one worker per non-idle processor is the experiment being measured
                scope.spawn(move || {
                    let mut busy = 0.0f64;
                    for it in 0..cfg.iterations {
                        let t0 = Instant::now();
                        let src = &grids[it % 2];
                        let dst = &grids[(it + 1) % 2];
                        for r in rect.r0..rect.r1 {
                            for c in rect.c0..rect.c1 {
                                let idx = r * cols + c;
                                let center = src.read_cell(idx);
                                let up = if r > 0 {
                                    src.read_cell(idx - cols)
                                } else {
                                    center
                                };
                                let down = if r + 1 < rows {
                                    src.read_cell(idx + cols)
                                } else {
                                    center
                                };
                                let left = if c > 0 {
                                    src.read_cell(idx - 1)
                                } else {
                                    center
                                };
                                let right = if c + 1 < cols {
                                    src.read_cell(idx + 1)
                                } else {
                                    center
                                };
                                let mut v = 0.2 * (center + up + down + left + right);
                                // Heterogeneous per-cell work: the load
                                // matrix made literal.
                                for _ in 0..matrix.get(r, c) as u64 * cfg.work_scale as u64 {
                                    v = std::hint::black_box(v * 0.999_999_9 + 1e-9);
                                }
                                // SAFETY: (r, c) lies in this thread's
                                // rectangle; the tiling is disjoint.
                                unsafe { dst.write_cell(idx, v) };
                            }
                        }
                        busy += t0.elapsed().as_secs_f64();
                        barrier.wait();
                    }
                    busy
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall_seconds = wall_start.elapsed().as_secs_f64();
    let [g0, g1] = grids;
    let final_grid = if cfg.iterations.is_multiple_of(2) {
        g0.into_inner()
    } else {
        g1.into_inner()
    };
    let checksum = final_grid.iter().sum();
    let max_busy = busy_seconds.iter().cloned().fold(0.0, f64::max);
    let mean_busy = busy_seconds.iter().sum::<f64>() / busy_seconds.len().max(1) as f64;
    StencilReport {
        wall_seconds,
        busy_seconds,
        balance_efficiency: if max_busy > 0.0 {
            mean_busy / max_busy
        } else {
            1.0
        },
        checksum,
    }
}

/// Sequential reference implementation (same arithmetic, same order
/// independence), for correctness checks.
pub fn run_stencil_sequential(matrix: &LoadMatrix, cfg: &StencilConfig) -> f64 {
    let rows = matrix.rows();
    let cols = matrix.cols();
    let mut prev: Vec<f64> = matrix.data().iter().map(|&v| v as f64).collect();
    let mut next = vec![0.0; rows * cols];
    for _ in 0..cfg.iterations {
        for r in 0..rows {
            for c in 0..cols {
                let idx = r * cols + c;
                let center = prev[idx];
                let up = if r > 0 { prev[idx - cols] } else { center };
                let down = if r + 1 < rows {
                    prev[idx + cols]
                } else {
                    center
                };
                let left = if c > 0 { prev[idx - 1] } else { center };
                let right = if c + 1 < cols { prev[idx + 1] } else { center };
                let mut v = 0.2 * (center + up + down + left + right);
                for _ in 0..matrix.get(r, c) as u64 * cfg.work_scale as u64 {
                    v = std::hint::black_box(v * 0.999_999_9 + 1e-9);
                }
                next[idx] = v;
            }
        }
        std::mem::swap(&mut prev, &mut next);
    }
    prev.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rectpart_core::{HierRb, JagMHeur, Partitioner, PrefixSum2D};

    fn small_matrix() -> LoadMatrix {
        LoadMatrix::from_fn(24, 24, |r, c| 1 + ((r * 7 + c * 3) % 5) as u32)
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let m = small_matrix();
        let pfx = PrefixSum2D::try_new(&m).unwrap();
        let cfg = StencilConfig {
            iterations: 5,
            work_scale: 0,
        };
        let seq = run_stencil_sequential(&m, &cfg);
        for algo in [&HierRb::load() as &dyn Partitioner, &JagMHeur::best()] {
            for procs in [1, 2, 4, 7] {
                let part = algo.partition(&pfx, procs);
                let rep = run_stencil(&m, &part, &cfg);
                assert_eq!(
                    rep.checksum.to_bits(),
                    seq.to_bits(),
                    "{} procs={procs}: Jacobi must be bit-identical",
                    algo.name()
                );
                assert!(rep.balance_efficiency > 0.0 && rep.balance_efficiency <= 1.0);
                assert_eq!(rep.busy_seconds.len(), part.active_parts());
            }
        }
    }

    #[test]
    fn even_iteration_count_also_correct() {
        let m = small_matrix();
        let pfx = PrefixSum2D::try_new(&m).unwrap();
        let cfg = StencilConfig {
            iterations: 4,
            work_scale: 0,
        };
        let seq = run_stencil_sequential(&m, &cfg);
        let part = HierRb::load().partition(&pfx, 4);
        let rep = run_stencil(&m, &part, &cfg);
        assert_eq!(rep.checksum.to_bits(), seq.to_bits());
    }

    #[test]
    fn heterogeneous_work_is_exercised() {
        let m = small_matrix();
        let pfx = PrefixSum2D::try_new(&m).unwrap();
        let part = JagMHeur::best().partition(&pfx, 4);
        let cfg = StencilConfig {
            iterations: 2,
            work_scale: 3,
        };
        let rep = run_stencil(&m, &part, &cfg);
        assert!(rep.wall_seconds > 0.0);
        assert!(rep.busy_seconds.iter().all(|&b| b > 0.0));
        // Same arithmetic as sequential even with the spin work.
        let seq = run_stencil_sequential(&m, &cfg);
        assert_eq!(rep.checksum.to_bits(), seq.to_bits());
    }

    /// Miri-style exercise of the [`SharedGrid::write_cell`] aliasing
    /// contract: several threads concurrently write *interleaved*,
    /// pairwise-disjoint index sets (stride = thread count, the harshest
    /// adjacency pattern) through raw element pointers derived from a
    /// shared `&SharedGrid`. Run under Miri this validates that no
    /// `&mut Vec` is ever formed and that per-element provenance stays
    /// disjoint; run natively it catches lost or torn writes, which
    /// would leave some cell without its expected value.
    #[test]
    fn write_cell_disjoint_aliasing_contract() {
        const N: usize = 1024;
        const THREADS: usize = 4;
        let grid = SharedGrid::new(vec![0.0; N]);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let grid = &grid;
                scope.spawn(move || {
                    for idx in (t..N).step_by(THREADS) {
                        // SAFETY: indices congruent to t mod THREADS are
                        // pairwise disjoint across threads and < N, and
                        // nothing reads this buffer until the scope ends.
                        unsafe { grid.write_cell(idx, (2 * idx + 1) as f64) };
                    }
                });
            }
        });
        let data = grid.into_inner();
        assert_eq!(data.len(), N);
        for (idx, v) in data.iter().enumerate() {
            assert_eq!(*v, (2 * idx + 1) as f64, "cell {idx} lost its write");
        }
    }

    #[test]
    #[should_panic(expected = "valid tiling")]
    fn rejects_invalid_partitions() {
        let m = small_matrix();
        let bad = rectpart_core::Partition::new(vec![Rect::new(0, 10, 0, 24)]);
        let _ = run_stencil(&m, &bad, &StencilConfig::default());
    }
}
