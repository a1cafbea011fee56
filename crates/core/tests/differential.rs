//! Differential tests for the parallel execution layer.
//!
//! Every parallel path in this workspace is required to be **bit-
//! identical** to its serial counterpart — not "statistically similar",
//! not "same bottleneck": the same Γ array, the same rectangles in the
//! same order, at every thread count. These tests pin that contract by
//! running each partitioner family under a forced single-thread budget
//! and under forced multi-thread budgets and comparing full outputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rectpart_core::{
    HierRb, HierRelaxed, JagMHeur, JagMOpt, JagPqHeur, JagPqOpt, LoadMatrix, Partition,
    Partitioner, PrefixSum2D, RectNicol, RectUniform,
};
use rectpart_parallel::with_threads;

fn random_matrix(rows: usize, cols: usize, seed: u64, zeros: bool) -> LoadMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    LoadMatrix::from_fn(rows, cols, |_, _| {
        if zeros && rng.gen_bool(0.15) {
            0
        } else {
            rng.gen_range(1..100)
        }
    })
}

/// Runs `algo` serially and under several thread budgets; asserts the
/// full partitions (rect vectors, hence also Lmax) are identical.
fn assert_thread_invariant(algo: &dyn Partitioner, pfx: &PrefixSum2D, m: usize, label: &str) {
    let serial: Partition = with_threads(1, || algo.partition(pfx, m));
    for threads in [2, 4, 7] {
        let parallel = with_threads(threads, || algo.partition(pfx, m));
        assert_eq!(
            serial.rects(),
            parallel.rects(),
            "{label} m={m} threads={threads}: parallel result diverged from serial"
        );
        assert_eq!(serial.lmax(pfx), parallel.lmax(pfx), "{label} m={m}");
    }
}

#[test]
fn prefix_sum_construction_is_thread_invariant() {
    // Shapes straddling the parallel threshold and the chunk boundaries,
    // plus degenerate ones. Compare the serial and parallel constructions
    // entry by entry via load queries over a grid of rectangles.
    for &(rows, cols) in &[(1usize, 7usize), (2, 2), (37, 53), (64, 1), (300, 300)] {
        let mat = random_matrix(rows, cols, 0xC0FFEE ^ (rows * cols) as u64, true);
        let serial = with_threads(1, || PrefixSum2D::try_new(&mat).unwrap());
        for threads in [2, 3, 8] {
            let parallel = with_threads(threads, || PrefixSum2D::try_new(&mat).unwrap());
            assert_eq!(serial.total(), parallel.total(), "{rows}x{cols}");
            assert_eq!(serial.max_cell(), parallel.max_cell(), "{rows}x{cols}");
            for r0 in (0..rows).step_by(7.min(rows)) {
                for c0 in (0..cols).step_by(5.min(cols)) {
                    assert_eq!(
                        serial.load4(r0, rows, c0, cols),
                        parallel.load4(r0, rows, c0, cols),
                        "{rows}x{cols} t={threads} load4({r0}..{rows}, {c0}..{cols})"
                    );
                }
            }
        }
    }
}

#[test]
fn rect_nicol_is_thread_invariant() {
    for seed in 0..3 {
        let pfx = PrefixSum2D::try_new(&random_matrix(40, 34, seed, seed == 1)).unwrap();
        for m in [4, 9, 25] {
            assert_thread_invariant(&RectNicol::default(), &pfx, m, "RECT-NICOL");
            assert_thread_invariant(&RectUniform::default(), &pfx, m, "RECT-UNIFORM");
        }
    }
}

#[test]
fn jagged_heuristics_are_thread_invariant() {
    for seed in 0..3 {
        let pfx = PrefixSum2D::try_new(&random_matrix(36, 28, 100 + seed, seed == 2)).unwrap();
        for m in [5, 16, 30] {
            assert_thread_invariant(&JagPqHeur::best(), &pfx, m, "JAG-PQ-HEUR-BEST");
            assert_thread_invariant(&JagMHeur::best(), &pfx, m, "JAG-M-HEUR-BEST");
        }
    }
}

#[test]
fn jagged_optimals_are_thread_invariant() {
    // The optimal algorithms are expensive; keep instances small.
    for seed in 0..2 {
        let pfx = PrefixSum2D::try_new(&random_matrix(14, 12, 200 + seed, seed == 0)).unwrap();
        for m in [4, 9] {
            assert_thread_invariant(&JagPqOpt::default(), &pfx, m, "JAG-PQ-OPT-BEST");
            assert_thread_invariant(&JagMOpt::default(), &pfx, m, "JAG-M-OPT-BEST");
        }
    }
}

#[test]
fn hierarchical_heuristics_are_thread_invariant() {
    for seed in 0..2 {
        let pfx = PrefixSum2D::try_new(&random_matrix(48, 40, 300 + seed, false)).unwrap();
        // Above and below PARALLEL_PROCS_MIN so both recursion paths run.
        for m in [8, 33, 64] {
            assert_thread_invariant(&HierRb::load(), &pfx, m, "HIER-RB-LOAD");
            assert_thread_invariant(&HierRelaxed::load(), &pfx, m, "HIER-RELAXED-LOAD");
        }
    }
}

#[test]
fn hier_opt_is_thread_invariant() {
    let pfx = PrefixSum2D::try_new(&random_matrix(7, 8, 42, true)).unwrap();
    for m in [2, 3, 5] {
        let (ps, vs) = with_threads(1, || rectpart_core::hier_opt(&pfx, m));
        for threads in [2, 5] {
            let (pp, vp) = with_threads(threads, || rectpart_core::hier_opt(&pfx, m));
            assert_eq!(vs, vp, "m={m} threads={threads}");
            assert_eq!(ps.rects(), pp.rects(), "m={m} threads={threads}");
        }
    }
}

#[test]
fn degenerate_shapes_are_thread_invariant() {
    // 0-row, 0-col and single-cell matrices must behave identically (and
    // not panic) at any thread budget.
    for &(rows, cols) in &[(0usize, 5usize), (5, 0), (0, 0), (1, 1)] {
        let mat = LoadMatrix::from_fn(rows, cols, |_, _| 3);
        let serial = with_threads(1, || PrefixSum2D::try_new(&mat).unwrap());
        for threads in [2, 4] {
            let parallel = with_threads(threads, || PrefixSum2D::try_new(&mat).unwrap());
            assert_eq!(serial.total(), parallel.total(), "{rows}x{cols}");
            assert_eq!(serial.rows(), parallel.rows());
            assert_eq!(serial.cols(), parallel.cols());
        }
        if rows > 0 && cols > 0 {
            for m in [1, 3] {
                assert_thread_invariant(&JagMHeur::best(), &serial, m, "single-cell");
                assert_thread_invariant(&HierRb::load(), &serial, m, "single-cell");
            }
        }
    }
}

/// With a fault plan injecting worker panics, partitioner output must
/// still be bit-identical at every thread count: a panicked `map_range`
/// worker is retried sequentially before any of its units ran, so the
/// recovery reproduces the exact blocks (and work charges) the worker
/// would have produced. Serial runs never consult the plan at all —
/// which is the point: faults only perturb scheduling, never results.
#[cfg(feature = "faultinject")]
#[test]
fn injected_worker_panics_are_output_invariant() {
    use rectpart_obs::fault::{self, FaultConfig};
    let pfx = PrefixSum2D::try_new(&random_matrix(36, 28, 77, true)).unwrap();
    let algo = JagMHeur::best();
    let clean: Partition = with_threads(4, || algo.partition(&pfx, 16));
    fault::install(FaultConfig {
        seed: 7,
        panic_workers: vec![0, 2, 3],
        ..FaultConfig::default()
    });
    let serial = with_threads(1, || algo.partition(&pfx, 16));
    let faulted = with_threads(4, || algo.partition(&pfx, 16));
    fault::clear();
    assert_eq!(clean.rects(), faulted.rects());
    assert_eq!(serial.rects(), faulted.rects());
}

/// Inputs of the backend differential: random fills at 92% and 77%
/// zeros (both above the Auto threshold) and the degenerate shapes on
/// which the sparse projections have edge cases — a single row or
/// column, an all-zero row and column, one hot cell, no load at all.
fn backend_instances() -> Vec<(String, LoadMatrix)> {
    let mut out = Vec::new();
    for (seed, zero_p) in [(0u64, 0.92), (1, 0.92), (2, 0.77)] {
        let mut rng = StdRng::seed_from_u64(0x5AA5 + seed);
        let mat = LoadMatrix::from_fn(41, 37, |_, _| {
            if rng.gen_bool(zero_p) {
                0
            } else {
                rng.gen_range(1..50)
            }
        });
        out.push((format!("random {zero_p} zeros, seed {seed}"), mat));
    }
    let line = |i: usize| ((i * 7) % 5) as u32 * 3;
    out.push(("1x40".into(), LoadMatrix::from_fn(1, 40, |_, c| line(c))));
    out.push(("40x1".into(), LoadMatrix::from_fn(40, 1, |r, _| line(r))));
    out.push((
        "zero row and column".into(),
        LoadMatrix::from_fn(20, 18, |r, c| {
            if r == 7 || c == 5 {
                0
            } else {
                ((r * 31 + c * 17) % 11) as u32
            }
        }),
    ));
    let mut hot = LoadMatrix::zeros(24, 19);
    *hot.get_mut(13, 4) = 1000;
    out.push(("single hot cell".into(), hot));
    out.push(("all zero".into(), LoadMatrix::zeros(16, 12)));
    out
}

/// The Γ backend is a pure representation choice: every partitioner
/// must produce the same rectangles whether queries are answered from
/// the dense table or the CSR-like sparse structure (whose stripe and
/// hierarchical solves run on projections), through `partition` and
/// through the `try_partition` path the CLI, driver and engine call, at
/// one thread and at many. This is the contract that lets `--gamma
/// auto` flip the backend on sparse instances without changing any
/// answer.
#[test]
fn sparse_backend_solutions_are_bit_identical_to_dense() {
    use rectpart_core::{GammaMode, HierVariant};
    let mut algos: Vec<Box<dyn Partitioner>> = vec![
        Box::new(RectUniform::default()),
        Box::new(RectNicol::default()),
        Box::new(JagMHeur::best()),
        Box::new(JagPqHeur::best()),
        Box::new(JagMOpt::default()),
        Box::new(JagPqOpt::default()),
    ];
    for variant in [
        HierVariant::Load,
        HierVariant::Dist,
        HierVariant::Hor,
        HierVariant::Ver,
    ] {
        algos.push(Box::new(HierRb { variant }));
        algos.push(Box::new(HierRelaxed {
            variant,
            ..HierRelaxed::default()
        }));
    }
    for (name, mat) in backend_instances() {
        let dense = PrefixSum2D::try_new_with(&mat, GammaMode::Dense).unwrap();
        let sparse = PrefixSum2D::try_new_with(&mat, GammaMode::Sparse).unwrap();
        assert!(!dense.is_sparse());
        assert!(
            sparse.is_sparse(),
            "sparse mode must engage the CSR backend"
        );
        assert_eq!(dense.total(), sparse.total());
        assert_eq!(dense.max_cell(), sparse.max_cell());
        assert_eq!(dense.min_cell(), sparse.min_cell());
        for algo in &algos {
            for m in [4, 9, 16, 64] {
                for threads in [1, 4] {
                    let label = format!("{} on {name} m={m} threads={threads}", algo.name());
                    let d: Partition = with_threads(threads, || algo.partition(&dense, m));
                    let s: Partition = with_threads(threads, || algo.partition(&sparse, m));
                    assert_eq!(
                        d.rects(),
                        s.rects(),
                        "{label}: sparse backend diverged from dense"
                    );
                    let d = with_threads(threads, || algo.try_partition(&dense, m)).unwrap();
                    let s = with_threads(threads, || algo.try_partition(&sparse, m)).unwrap();
                    assert_eq!(
                        d.rects(),
                        s.rects(),
                        "{label}: sparse try_partition diverged from dense"
                    );
                }
            }
        }
    }
}

#[test]
fn parallelism_config_matches_with_threads() {
    use rectpart_core::ParallelismConfig;
    let mat = random_matrix(300, 257, 9, false);
    let build = || PrefixSum2D::try_new(&mat).unwrap();
    let a = ParallelismConfig::serial().run(build);
    let b = ParallelismConfig::threads(4).run(build);
    assert_eq!(a.total(), b.total());
    for r in [0, 17, 299] {
        assert_eq!(a.load4(0, r + 1, 0, 257), b.load4(0, r + 1, 0, 257));
    }
}

/// `PrefixSum2D::try_new` takes its backend from `RECTPART_GAMMA`, dense
/// when unset. CI runs this suite twice, once with the variable unset
/// and once with `RECTPART_GAMMA=sparse`, so each run checks one branch
/// of the override the sparse run relies on.
#[test]
fn try_new_honours_the_gamma_environment_override() {
    use rectpart_core::GammaMode;
    let mode = match std::env::var_os("RECTPART_GAMMA") {
        None => GammaMode::Dense,
        Some(v) => v
            .to_str()
            .and_then(GammaMode::parse)
            .unwrap_or_else(|| panic!("RECTPART_GAMMA={v:?} does not parse")),
    };
    // 90% zeros: above the Auto threshold, so `auto` picks sparse too.
    let mat = LoadMatrix::from_fn(20, 20, |r, c| if (r * 20 + c) % 10 == 0 { 7 } else { 0 });
    let expected = match mode {
        GammaMode::Dense => GammaMode::Dense,
        GammaMode::Sparse | GammaMode::Auto => GammaMode::Sparse,
    };
    let pfx = PrefixSum2D::try_new(&mat).unwrap();
    assert_eq!(
        pfx.backend(),
        expected,
        "RECTPART_GAMMA resolves to {mode:?}"
    );
}
