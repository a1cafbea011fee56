//! Cross-crate validity: every algorithm must produce a valid tiling
//! that respects the global lower bounds, on every workload class the
//! paper evaluates.

use rectpart::core::{standard_heuristics, GammaMode, JagMOpt, JagPqOpt, Partitioner, PrefixSum2D};
use rectpart::prelude::*;
use rectpart::workloads::{AmrConfig, MeshConfig, MeshKind};

fn workload_zoo() -> Vec<(String, rectpart::core::LoadMatrix)> {
    let mut zoo = vec![
        ("uniform".to_string(), uniform(40, 40, 1).delta(1.5).build()),
        ("diagonal".to_string(), diagonal(40, 40, 2).build()),
        ("peak".to_string(), peak(40, 40, 3).build()),
        ("multi-peak".to_string(), multi_peak(40, 40, 4).build()),
        ("rectangular".to_string(), diagonal(24, 56, 5).build()),
        (
            "amr".to_string(),
            AmrConfig {
                rows: 40,
                cols: 40,
                seed: 6,
                ..AmrConfig::default()
            }
            .generate(),
        ),
        (
            "render".to_string(),
            rectpart::workloads::RenderConfig {
                rows: 40,
                cols: 40,
                ..rectpart::workloads::RenderConfig::default()
            }
            .generate(),
        ),
    ];
    let mesh = MeshConfig {
        grid_rows: 40,
        grid_cols: 40,
        u_samples: 128,
        v_samples: 64,
        kind: MeshKind::Cavity { cells: 4 },
    }
    .generate();
    zoo.push(("mesh".into(), mesh));
    let pic = PicConfig {
        rows: 40,
        cols: 40,
        particles: 4000,
        snapshots: 3,
        ..PicConfig::default()
    };
    let trace = rectpart::workloads::pic_trace(&pic);
    zoo.push(("pic".into(), trace.last().unwrap().matrix.clone()));
    zoo
}

/// The Γ backend is a representation choice, never an answer: on every
/// zoo instance — the zero-heavy `mesh` and `pic` ones included — each
/// heuristic returns the same rectangles from the sparse Γ, where the
/// stripe and hierarchical solves run on projections, as from the
/// dense one.
#[test]
fn every_heuristic_answers_identically_on_both_gamma_backends() {
    for (name, matrix) in workload_zoo() {
        let dense = PrefixSum2D::try_new_with(&matrix, GammaMode::Dense).unwrap();
        let sparse = PrefixSum2D::try_new_with(&matrix, GammaMode::Sparse).unwrap();
        assert!(sparse.is_sparse(), "{name}: sparse mode must engage");
        for algo in standard_heuristics() {
            for m in [1, 2, 7, 16, 25, 60] {
                let d = algo.try_partition(&dense, m).unwrap();
                let s = algo.try_partition(&sparse, m).unwrap();
                assert_eq!(d.rects(), s.rects(), "{} on {name} m={m}", algo.name());
            }
        }
    }
}

#[test]
fn every_heuristic_tiles_every_workload() {
    for (name, matrix) in workload_zoo() {
        let pfx = PrefixSum2D::try_new(&matrix).unwrap();
        for algo in standard_heuristics() {
            for m in [1, 2, 7, 16, 25, 60] {
                let p = algo.partition(&pfx, m);
                assert!(
                    p.validate(&pfx).is_ok(),
                    "{} on {name} m={m}: {:?}",
                    algo.name(),
                    p.validate(&pfx)
                );
                assert_eq!(p.parts(), m, "{} on {name} m={m}", algo.name());
                assert!(
                    p.lmax(&pfx) >= pfx.lower_bound(m),
                    "{} on {name} m={m} beats the lower bound",
                    algo.name()
                );
            }
        }
    }
}

#[test]
fn optimal_algorithms_tile_every_workload() {
    for (name, matrix) in workload_zoo() {
        let pfx = PrefixSum2D::try_new(&matrix).unwrap();
        for m in [1, 4, 9] {
            for algo in [
                &JagPqOpt::default() as &dyn Partitioner,
                &JagMOpt::default(),
            ] {
                let p = algo.partition(&pfx, m);
                assert!(p.validate(&pfx).is_ok(), "{} on {name} m={m}", algo.name());
                assert!(p.lmax(&pfx) >= pfx.lower_bound(m));
            }
        }
    }
}

#[test]
fn per_processor_loads_sum_to_total() {
    let matrix = multi_peak(48, 48, 9).build();
    let pfx = PrefixSum2D::try_new(&matrix).unwrap();
    for algo in standard_heuristics() {
        let p = algo.partition(&pfx, 13);
        let loads = p.loads(&pfx);
        assert_eq!(loads.len(), 13);
        assert_eq!(
            loads.iter().sum::<u64>(),
            pfx.total(),
            "{} loses load",
            algo.name()
        );
    }
}

#[test]
fn imbalance_is_consistent_with_lmax() {
    let matrix = peak(32, 32, 5).build();
    let pfx = PrefixSum2D::try_new(&matrix).unwrap();
    for algo in standard_heuristics() {
        for m in [4, 9] {
            let p = algo.partition(&pfx, m);
            let expected = p.lmax(&pfx) as f64 / pfx.average_load(m) - 1.0;
            assert!((p.load_imbalance(&pfx) - expected).abs() < 1e-12);
        }
    }
}

#[test]
fn extreme_processor_counts() {
    // m = 1 and m >= cells must both work for every algorithm.
    let matrix = uniform(6, 6, 8).delta(2.0).build();
    let pfx = PrefixSum2D::try_new(&matrix).unwrap();
    for algo in standard_heuristics() {
        let one = algo.partition(&pfx, 1);
        assert_eq!(one.lmax(&pfx), pfx.total(), "{}", algo.name());
        let many = algo.partition(&pfx, 50);
        assert!(many.validate(&pfx).is_ok(), "{}", algo.name());
        assert!(many.lmax(&pfx) >= pfx.max_cell() as u64);
    }
}
