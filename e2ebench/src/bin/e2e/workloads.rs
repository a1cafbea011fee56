//! The four workloads: fixed instances, and the case list each one
//! runs, in an order drawn from the seed.
//!
//! The instances do not depend on the seed. Where the load sits decides
//! how long the solvers take and how well they balance, so a seed that
//! redrew the matrices would add instance-to-instance spread to the
//! run-to-run spread the bounds have to cover, and would make the
//! deterministic `imbalance_mean` vary between runs of the same code.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rectpart_core::{algorithm_by_name, standard_heuristics, LoadMatrix, Partitioner, RowUpdate};
use rectpart_engine::Query;
use rectpart_workloads::{
    diagonal, multi_peak, peak, pic_trace, uniform, MeshConfig, MeshKind, PicConfig,
};

/// Workload names, as passed to `--workload`.
pub const NAMES: [&str; 4] = [
    "dense-heuristics",
    "dense-optimal",
    "sparse-auto",
    "pic-serve",
];

/// Generator seed of every instance (peak positions, uniform draws,
/// particle paths).
const INSTANCE_SEED: u64 = 2011;
/// Side of the §4.1 matrices of `dense-heuristics`. The dense Γ is
/// 8.4 MB, twice a 4 MB L2 cache, so Γ build and the matrix copy stream
/// from memory as at production sizes, and a pass still takes under
/// 2 s, which leaves five passes in a 10 s run.
const HEUR_SIDE: usize = 1024;
/// Parts per solve in `dense-heuristics`; m = 4096 makes `validate`
/// and the heuristics' per-part work visible next to Γ.
const HEUR_PARTS: [usize; 3] = [256, 1024, 4096];
/// Side of the synthetic matrices of `dense-optimal`: small enough
/// that Γ is under 1% of a request, so the solvers dominate.
const OPT_SIDE: usize = 384;
/// (algorithm, m) pairs of `dense-optimal`.
const OPT_SOLVES: [(&str, usize); 5] = [
    ("JAG-PQ-OPT-BEST", 32),
    ("JAG-PQ-OPT-BEST", 64),
    ("JAG-PQ-OPT-BEST", 128),
    ("JAG-M-OPT-BEST", 32),
    ("JAG-M-OPT-BEST", 64),
];
/// Heuristics of `sparse-auto`. The OPT families are left out: on the
/// sparse Γ they take seconds to minutes per solve.
const SPARSE_ALGOS: [&str; 5] = [
    "RECT-NICOL",
    "JAG-M-HEUR-BEST",
    "JAG-PQ-HEUR-BEST",
    "HIER-RB-LOAD",
    "HIER-RELAXED-LOAD",
];
const SPARSE_PARTS: [usize; 2] = [64, 256];
/// Snapshots of the `pic-serve` drift series. A pass walks it there
/// and back: 62 steps.
const SERVE_SNAPSHOTS: usize = 32;

/// One input matrix of a one-shot workload.
pub struct Instance {
    /// Short description, e.g. `uniform-2048`.
    pub label: String,
    /// The caller's buffer; each request copies it.
    pub matrix: LoadMatrix,
}

/// One (instance, algorithm, m) solve.
pub struct Case {
    /// Index into [`OneShot::instances`].
    pub instance: usize,
    /// Registry name of the algorithm.
    pub algorithm: String,
    /// The algorithm, resolved once.
    pub algo: Box<dyn Partitioner>,
    /// Number of parts.
    pub m: usize,
}

/// A workload whose every request loads a matrix, builds Γ, solves and
/// validates from scratch.
pub struct OneShot {
    /// Input matrices.
    pub instances: Vec<Instance>,
    /// Cases in the order every pass runs them.
    pub cases: Vec<Case>,
    /// `(JAG-M-OPT case, JAG-PQ-OPT case)` index pairs on the same
    /// instance and m: the m-way jagged class contains the P×Q jagged
    /// class, so the first Lmax may never exceed the second.
    pub inclusion: Vec<(usize, usize)>,
}

/// A workload served by one resident engine over a drift series.
pub struct Serve {
    /// The series; the engine walks it there and back.
    pub snapshots: Vec<LoadMatrix>,
    /// Snapshot the engine is built on and the walk starts from.
    pub start: usize,
    /// `forward[i]` turns snapshot i into snapshot i + 1.
    pub forward: Vec<Vec<RowUpdate>>,
    /// `backward[i]` turns snapshot i + 1 into snapshot i.
    pub backward: Vec<Vec<RowUpdate>>,
    /// Queries of one step, in order. The last repeats the first, so it
    /// is a solution-cache hit.
    pub queries: Vec<Query>,
}

/// A workload's inputs.
pub enum Workload {
    /// Load → Γ → solve → validate per request.
    OneShot(OneShot),
    /// Delta plus queries per request against a resident engine.
    Serve(Serve),
}

/// Builds the named workload; the seed orders its cases (and picks the
/// snapshot `pic-serve` starts from). `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let s = INSTANCE_SEED;
    Some(match name {
        "dense-heuristics" => {
            let n = HEUR_SIDE;
            let instances = vec![
                instance("uniform", n, uniform(n, n, s).delta(1.2).build()),
                instance("diagonal", n, diagonal(n, n, s).build()),
                instance("peak", n, peak(n, n, s).build()),
                instance("multi-peak", n, multi_peak(n, n, s).build()),
            ];
            let mut solves = Vec::new();
            for algo in standard_heuristics() {
                for m in HEUR_PARTS {
                    solves.push((algo.name(), m));
                }
            }
            one_shot(instances, &solves, seed)
        }
        "dense-optimal" => {
            let n = OPT_SIDE;
            let instances = vec![
                instance("uniform", n, uniform(n, n, s).delta(1.2).build()),
                instance("diagonal", n, diagonal(n, n, s).build()),
                instance("multi-peak", n, multi_peak(n, n, s).build()),
                instance("pic-mag", n, pic_last(n, 200_000, 2000)),
            ];
            let solves: Vec<(String, usize)> = OPT_SOLVES
                .iter()
                .map(|&(a, m)| (a.to_string(), m))
                .collect();
            one_shot(instances, &solves, seed)
        }
        "sparse-auto" => {
            let instances = vec![
                instance("cavity-mesh", 768, cavity()),
                instance("pic-mag-sparse", 512, pic_last(512, 3000, 0)),
            ];
            let mut solves = Vec::new();
            for a in SPARSE_ALGOS {
                for m in SPARSE_PARTS {
                    solves.push((a.to_string(), m));
                }
            }
            one_shot(instances, &solves, seed)
        }
        "pic-serve" => serve(seed),
        _ => return None,
    })
}

fn instance(class: &str, side: usize, matrix: LoadMatrix) -> Instance {
    Instance {
        label: format!("{class}-{side}"),
        matrix,
    }
}

/// Every instance × every solve, shuffled by `seed`.
fn one_shot(instances: Vec<Instance>, solves: &[(String, usize)], seed: u64) -> Workload {
    let mut cases = Vec::new();
    for instance in 0..instances.len() {
        for (name, m) in solves {
            cases.push(Case {
                instance,
                algorithm: name.clone(),
                algo: algorithm_by_name(name).expect("workload names a registered algorithm"),
                m: *m,
            });
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..cases.len()).rev() {
        cases.swap(i, rng.gen_range(0..=i));
    }
    let find = |instance: usize, algorithm: &str, m: usize| {
        cases
            .iter()
            .position(|c| c.instance == instance && c.algorithm == algorithm && c.m == m)
    };
    let mut inclusion = Vec::new();
    for (i, c) in cases.iter().enumerate() {
        if c.algorithm == "JAG-M-OPT-BEST" {
            if let Some(j) = find(c.instance, "JAG-PQ-OPT-BEST", c.m) {
                inclusion.push((i, j));
            }
        }
    }
    Workload::OneShot(OneShot {
        instances,
        cases,
        inclusion,
    })
}

/// Last snapshot of a short PIC-MAG run on a `side`² grid.
fn pic_last(side: usize, particles: usize, base_load: u32) -> LoadMatrix {
    let cfg = PicConfig {
        rows: side,
        cols: side,
        particles,
        snapshots: 8,
        substeps_per_snapshot: 10,
        base_load,
        seed: INSTANCE_SEED,
        ..PicConfig::default()
    };
    pic_trace(&cfg)
        .pop()
        .expect("a PIC run yields its snapshots")
        .matrix
}

/// SLAC-like cavity mesh projected to 768² from 768×384 samples:
/// 77.3% zero cells, just above the 75% threshold at which
/// `GammaMode::Auto` picks the sparse Γ.
fn cavity() -> LoadMatrix {
    MeshConfig {
        grid_rows: 768,
        grid_cols: 768,
        u_samples: 768,
        v_samples: 384,
        kind: MeshKind::Cavity { cells: 9 },
    }
    .generate()
}

/// The `pic-serve` drift series: 256², 200 particles, base load 4,
/// weight 9, one physics step between snapshots. Consecutive snapshots
/// differ in under half of the rows, so every delta takes the engine's
/// row-patch path.
fn serve(seed: u64) -> Workload {
    let cfg = PicConfig {
        rows: 256,
        cols: 256,
        particles: 200,
        snapshots: SERVE_SNAPSHOTS,
        substeps_per_snapshot: 1,
        base_load: 4,
        particle_weight: 9,
        seed: INSTANCE_SEED,
        ..PicConfig::default()
    };
    let snapshots: Vec<LoadMatrix> = pic_trace(&cfg).into_iter().map(|s| s.matrix).collect();
    let forward = snapshots
        .windows(2)
        .map(|w| row_delta(&w[0], &w[1]))
        .collect();
    let backward = snapshots
        .windows(2)
        .map(|w| row_delta(&w[1], &w[0]))
        .collect();
    let queries = vec![
        Query::new("JAG-M-OPT-BEST", 64),
        Query::new("JAG-PQ-OPT-BEST", 64),
        Query::new("HIER-RB-LOAD", 256),
        Query::new("JAG-M-OPT-BEST", 64),
    ];
    Workload::Serve(Serve {
        start: (seed % SERVE_SNAPSHOTS as u64) as usize,
        snapshots,
        forward,
        backward,
        queries,
    })
}

/// The rows of `to` that differ from `from`.
fn row_delta(from: &LoadMatrix, to: &LoadMatrix) -> Vec<RowUpdate> {
    (0..from.rows())
        .filter(|&r| from.row(r) != to.row(r))
        .map(|r| RowUpdate {
            row: r,
            cells: to.row(r).to_vec(),
        })
        .collect()
}
