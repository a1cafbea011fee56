//! Substrate benchmark: the dense Γ build's overflow checks, dense vs
//! CSR-like sparse Γ memory, and scratch-arena reuse in the DP hot
//! loops, with a machine-readable export.
//!
//! Three questions, answered with deterministic obs counters (not wall
//! clock, so the numbers are comparable across machines):
//!
//! 1. How many checked-add operations does the blocked Γ build spend on
//!    a 4096×4096 instance? (The tiling hoists overflow checks to tile
//!    boundaries: one per tile and one per row boundary, where a
//!    per-cell-checked build spends two per cell.)
//! 2. How much Γ memory does the sparse backend save on a ≥90%-zero
//!    instance? (`gamma_bytes` dense vs sparse; target ≥5×.)
//! 3. How many buffer allocations do the solver hot loops perform per
//!    solve, and how many are avoided by scratch reuse? (ScratchAllocs
//!    vs ScratchReuses for JAG-M-HEUR, JAG-M-OPT-BEST and RECT-NICOL
//!    on a dense and a sparse instance.)
//!
//! Results land in `BENCH_substrate.json` at the workspace root, which
//! CI gates with `benchdiff`; counter fields require `--features obs`
//! (the uninstrumented run still writes the memory figures, with
//! `"instrumented": false`). Wall-clock time is measured by `e2ebench/`.

use std::hint::black_box;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rectpart_core::{
    GammaMode, JagMHeur, JagMOpt, LoadMatrix, Partitioner, PrefixSum2D, RectNicol,
};
use rectpart_json::{Json, ToJson};
use rectpart_parallel::with_threads;
use rectpart_workloads::uniform;

/// Dense acceptance instance from the issue: 4096×4096, every cell set.
const DENSE_N: usize = 4096;
/// Sparse acceptance instance: same shape, ~92% zero cells.
const SPARSE_ZERO_PERCENT: u32 = 92;

fn dense_matrix(n: usize) -> LoadMatrix {
    uniform(n, n, 11).delta(1.2).build()
}

fn sparse_matrix(n: usize) -> LoadMatrix {
    let mut rng = StdRng::seed_from_u64(23);
    LoadMatrix::from_fn(n, n, |_, _| {
        if rng.gen_range(0u32..100) < SPARSE_ZERO_PERCENT {
            0
        } else {
            rng.gen_range(1..100)
        }
    })
}

/// Runs `f` once under a single-thread budget against a freshly reset
/// recorder and returns the counters named in `keys` (0 when absent or
/// uninstrumented). Single-threaded so the thread-budget-dependent
/// `core.gamma.checked_ops` exec stat is reproducible.
fn counted(keys: &[&str], f: &dyn Fn()) -> Vec<u64> {
    let rec = rectpart_obs::Recorder::global();
    rec.reset();
    with_threads(1, f);
    let report = rec.snapshot();
    keys.iter().map(|k| report.get(k).unwrap_or(0)).collect()
}

fn ratio(before: u64, after: u64) -> Json {
    if after == 0 {
        Json::Null
    } else {
        (before as f64 / after as f64).to_json()
    }
}

/// Γ build op counts of the blocked dense build.
fn gamma_ops(matrix: &LoadMatrix, label: &str) -> Json {
    const OPS: &str = "core.gamma.checked_ops";
    const SWEEPS: &str = "core.gamma.tile_sweeps";
    let blocked = counted(&[OPS, SWEEPS], &|| {
        drop(PrefixSum2D::try_new_with(black_box(matrix), GammaMode::Dense).unwrap())
    });
    Json::obj(vec![
        ("case", label.to_json()),
        ("cells", (matrix.rows() * matrix.cols()).to_json()),
        ("blocked_checked_ops", blocked[0].to_json()),
        ("blocked_tile_sweeps", blocked[1].to_json()),
    ])
}

/// Γ memory: dense table bytes vs CSR-like sparse bytes on one matrix.
fn gamma_memory(matrix: &LoadMatrix, label: &str) -> Json {
    const RUNS: &str = "core.gamma.sparse_runs";
    let dense = PrefixSum2D::try_new_with(matrix, GammaMode::Dense).unwrap();
    let runs = counted(&[RUNS], &|| {
        drop(PrefixSum2D::try_new_with(black_box(matrix), GammaMode::Sparse).unwrap())
    })[0];
    let sparse = PrefixSum2D::try_new_with(matrix, GammaMode::Sparse).unwrap();
    let auto = PrefixSum2D::try_new_with(matrix, GammaMode::Auto).unwrap();
    Json::obj(vec![
        ("case", label.to_json()),
        ("dense_gamma_bytes", dense.gamma_bytes().to_json()),
        ("sparse_gamma_bytes", sparse.gamma_bytes().to_json()),
        (
            "memory_reduction",
            ratio(dense.gamma_bytes() as u64, sparse.gamma_bytes() as u64),
        ),
        ("sparse_runs", runs.to_json()),
        ("auto_picked_sparse", auto.is_sparse().to_json()),
    ])
}

/// Scratch-arena accounting for one solver on one instance: allocations
/// and reuses per solve, plus total work-loop charges for context.
fn solver_allocs(algo: &dyn Partitioner, pfx: &PrefixSum2D, m: usize, label: &str) -> Json {
    const KEYS: &[&str] = &[
        "onedim.scratch.allocs",
        "onedim.scratch.reuses",
        "onedim.nicol_calls",
    ];
    let vals = counted(KEYS, &|| drop(algo.partition(black_box(pfx), m)));
    let (allocs, reuses, nicol_calls) = (vals[0], vals[1], vals[2]);
    Json::obj(vec![
        ("case", label.to_json()),
        ("algorithm", algo.name().to_json()),
        ("m", m.to_json()),
        ("scratch_allocs", allocs.to_json()),
        ("scratch_reuses", reuses.to_json()),
        ("nicol_calls", nicol_calls.to_json()),
        (
            "reuse_fraction",
            if allocs + reuses == 0 {
                Json::Null
            } else {
                (reuses as f64 / (allocs + reuses) as f64).to_json()
            },
        ),
    ])
}

fn num_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() {
    let dense = dense_matrix(DENSE_N);
    let sparse = sparse_matrix(DENSE_N);

    // The dense build's checked ops and tile sweeps depend on the shape
    // alone, so one entry covers it; `gamma_memory` covers the sparse build.
    let gamma_ops_entries = vec![gamma_ops(&dense, &format!("dense/{DENSE_N}x{DENSE_N}"))];
    let gamma_memory_entries = vec![
        gamma_memory(&sparse, &format!("sparse/{DENSE_N}x{DENSE_N}-92pct-zero")),
        gamma_memory(&dense, &format!("dense/{DENSE_N}x{DENSE_N}")),
    ];

    // Solver instances are smaller: the point is allocations per solve,
    // not instance scaling, and JAG-M-OPT is exponential-ish in size.
    let solver_dense = PrefixSum2D::try_new(&dense_matrix(256)).unwrap();
    let solver_sparse = PrefixSum2D::try_new_with(&sparse_matrix(256), GammaMode::Sparse).unwrap();
    let algos: Vec<Box<dyn Partitioner>> = vec![
        Box::new(JagMHeur::best()),
        Box::new(JagMOpt::default()),
        Box::new(RectNicol::default()),
    ];
    let mut solver_entries = Vec::new();
    for algo in &algos {
        solver_entries.push(solver_allocs(
            algo.as_ref(),
            &solver_dense,
            64,
            "dense/256x256",
        ));
        solver_entries.push(solver_allocs(
            algo.as_ref(),
            &solver_sparse,
            64,
            "sparse/256x256-92pct-zero",
        ));
    }

    let instrumented = rectpart_obs::Recorder::global().enabled();
    let doc = Json::obj(vec![
        ("benchmark", "substrate-speed".to_json()),
        ("host_cores", num_cores().to_json()),
        ("instrumented", instrumented.to_json()),
        (
            "note",
            "op counts and allocation tallies are deterministic obs counters \
             measured under a single-thread budget (identical on every host). \
             Counter fields are zero unless built with --features obs."
                .to_json(),
        ),
        ("gamma_build_ops", Json::Arr(gamma_ops_entries)),
        ("gamma_memory", Json::Arr(gamma_memory_entries)),
        ("solver_allocations_per_solve", Json::Arr(solver_entries)),
    ]);
    let path = format!("{}/../../BENCH_substrate.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, rectpart_json::to_string_pretty(&doc)).expect("write bench export");
    eprintln!("wrote {path}");
}
