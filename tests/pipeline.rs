//! End-to-end pipeline tests: workload generation → partitioning →
//! execution simulation → persistence, spanning every crate.

use rectpart::prelude::*;
use rectpart::simexec::{dynamic_run, migration, RebalancePolicy};
use rectpart::workloads::io::{read_csv, write_csv};

#[test]
fn pic_to_partition_to_simulation() {
    let cfg = PicConfig {
        rows: 48,
        cols: 48,
        particles: 6000,
        snapshots: 5,
        // Particle-dominated load so the drifting wind visibly moves the
        // partition between snapshots.
        base_load: 10,
        substeps_per_snapshot: 40,
        ..PicConfig::default()
    };
    let trace: Vec<_> = rectpart::workloads::pic_trace(&cfg)
        .into_iter()
        .map(|s| s.matrix)
        .collect();
    let stats = dynamic_run(
        &trace,
        &JagMHeur::best(),
        9,
        &CommModel::default(),
        RebalancePolicy::EverySnapshot,
    );
    assert_eq!(stats.len(), 5);
    for s in &stats {
        assert!(s.imbalance >= 0.0);
        assert!(s.speedup > 0.0 && s.speedup <= 9.0 + 1e-9);
        assert!(s.makespan > 0.0);
    }
    // The wind drifts particles, so at least one later snapshot must move
    // cells between owners.
    assert!(stats[1..].iter().any(|s| s.migration_cells > 0));
}

#[test]
fn migration_is_bounded_by_cell_count() {
    let a = peak(32, 32, 1).build();
    let b = peak(32, 32, 2).build(); // different peak location
    let pfx_b = PrefixSum2D::try_new(&b).unwrap();
    let pa = HierRb::load().partition(&PrefixSum2D::try_new(&a).unwrap(), 8);
    let pb = HierRb::load().partition(&pfx_b, 8);
    let rep = migration(&pfx_b, &pa, &pb);
    assert!(rep.cells <= 32 * 32);
    assert!(rep.load <= pfx_b.total());
}

#[test]
fn simulator_speedup_is_capped_by_processor_count() {
    let matrix = uniform(64, 64, 3).delta(1.2).build();
    let pfx = PrefixSum2D::try_new(&matrix).unwrap();
    let sim = Simulator::default();
    for m in [2, 8, 32] {
        let p = JagMHeur::best().partition(&pfx, m);
        let rep = sim.evaluate(&pfx, &p);
        assert!(rep.speedup <= m as f64 + 1e-9, "m={m}");
        assert!(rep.efficiency <= 1.0 + 1e-9);
        assert!(rep.compute_time <= rep.makespan + 1e-9);
    }
}

#[test]
fn matrices_survive_csv_roundtrip_and_partition_identically() {
    let matrix = multi_peak(24, 24, 6).build();
    let path = std::env::temp_dir().join(format!("rectpart-pipeline-{}.csv", std::process::id()));
    write_csv(&matrix, &path).unwrap();
    let back = read_csv(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(matrix, back);
    let a = JagMHeur::best().partition(&PrefixSum2D::try_new(&matrix).unwrap(), 7);
    let b = JagMHeur::best().partition(&PrefixSum2D::try_new(&back).unwrap(), 7);
    assert_eq!(a.rects(), b.rects(), "partitioning must be deterministic");
}

#[test]
fn mesh_instances_favor_space_adaptive_methods() {
    // The figure-14 phenomenon at test scale: on the sparse mesh the
    // area-based grid is far worse than the load-adaptive methods.
    let mesh = MeshConfig {
        grid_rows: 96,
        grid_cols: 96,
        u_samples: 512,
        v_samples: 256,
        ..MeshConfig::default()
    }
    .generate();
    let pfx = PrefixSum2D::try_new(&mesh).unwrap();
    let m = 36;
    let grid = RectUniform::default()
        .partition(&pfx, m)
        .load_imbalance(&pfx);
    let jag = JagMHeur::best().partition(&pfx, m).load_imbalance(&pfx);
    let hier = HierRelaxed::load().partition(&pfx, m).load_imbalance(&pfx);
    assert!(
        grid > 2.0 * jag.min(hier),
        "uniform grid ({grid}) should be far worse than adaptive methods ({jag}, {hier})"
    );
}
