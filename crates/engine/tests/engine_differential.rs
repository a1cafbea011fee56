//! Differential test for the resident engine's bit-identity contract:
//! a warm engine — one resident Γ patched by every delta, small or
//! rewriting every row — must return **exactly** the partitions a cold
//! solve produces on the patched matrix, for both Γ backends and at any
//! thread count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rectpart_core::{
    algorithm_by_name, GammaMode, LoadMatrix, Partition, Partitioner, PrefixSum2D, RowUpdate,
};
use rectpart_engine::{Engine, EngineConfig, Query, RebalancePolicy};
use rectpart_parallel::with_threads;

const ALGOS: [&str; 4] = [
    "JAG-M-OPT-BEST",
    "JAG-PQ-OPT-BEST",
    "JAG-M-HEUR-BEST",
    "HIER-RB-LOAD",
];
const M: usize = 7;
const ROWS: usize = 22;
const COLS: usize = 26;

/// Base matrix plus a short drift series (three steps that rewrite a few
/// rows, then one that rewrites every row), with enough zeros that the
/// sparse backend engages its run encoding.
fn scenario(seed: u64) -> (LoadMatrix, Vec<Vec<RowUpdate>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = LoadMatrix::from_fn(ROWS, COLS, |_, _| cell(&mut rng));
    let mut deltas: Vec<Vec<RowUpdate>> = (0..3)
        .map(|_| {
            (0..3)
                .map(|_| RowUpdate {
                    row: rng.gen_range(0..ROWS),
                    cells: (0..COLS).map(|_| cell(&mut rng)).collect(),
                })
                .collect()
        })
        .collect();
    deltas.push(
        (0..ROWS)
            .map(|row| RowUpdate {
                row,
                cells: (0..COLS).map(|_| cell(&mut rng)).collect(),
            })
            .collect(),
    );
    (base, deltas)
}

/// One cell of the scenario: 40% zeros, the rest in `1..60`.
fn cell(rng: &mut StdRng) -> u32 {
    if rng.gen_bool(0.4) {
        0
    } else {
        rng.gen_range(1..60)
    }
}

/// The warm path: one resident engine across the whole series.
fn run_warm(mode: GammaMode, threads: usize) -> Vec<Partition> {
    let (base, deltas) = scenario(42);
    with_threads(threads, || {
        let cfg = EngineConfig {
            gamma_mode: mode,
            rebalance: RebalancePolicy::EverySnapshot,
            budget: None,
        };
        let mut engine = Engine::with_config(base, cfg).expect("engine build");
        let mut out = Vec::new();
        for algo in ALGOS {
            out.push(engine.solve(&Query::new(algo, M)).expect(algo).partition);
        }
        for delta in &deltas {
            engine.apply_delta(delta).expect("delta");
            for algo in ALGOS {
                let got = engine.solve(&Query::new(algo, M)).expect(algo);
                assert!(!got.warm_hit, "{algo} must re-solve after a delta");
                out.push(got.partition);
            }
        }
        out
    })
}

/// The cold oracle: fresh Γ and fresh solver state at every step.
fn run_cold(mode: GammaMode, threads: usize) -> Vec<Partition> {
    let (base, deltas) = scenario(42);
    with_threads(threads, || {
        let mut matrix = base;
        let mut out = Vec::new();
        let solve_all = |matrix: &LoadMatrix, out: &mut Vec<Partition>| {
            let pfx = PrefixSum2D::try_new_with(matrix, mode).expect("gamma");
            for algo in ALGOS {
                let solver = algorithm_by_name(algo).expect(algo);
                out.push(solver.partition(&pfx, M));
            }
        };
        solve_all(&matrix, &mut out);
        for delta in &deltas {
            for u in delta {
                matrix.data_mut()[u.row * COLS..(u.row + 1) * COLS].copy_from_slice(&u.cells);
            }
            solve_all(&matrix, &mut out);
        }
        out
    })
}

#[test]
fn warm_engine_is_bit_identical_to_cold_solves_at_any_thread_count() {
    let reference = run_cold(GammaMode::Dense, 1);
    for mode in [GammaMode::Dense, GammaMode::Sparse] {
        for threads in [1, 2, 4, 7] {
            let cold = run_cold(mode, threads);
            assert_eq!(
                cold, reference,
                "cold solves must not depend on backend or threads ({mode:?}, {threads} threads)"
            );
            let warm = run_warm(mode, threads);
            assert_eq!(
                warm, reference,
                "warm engine diverged from cold oracle ({mode:?}, {threads} threads)"
            );
        }
    }
}
