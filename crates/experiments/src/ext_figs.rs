//! Extension experiments A–D: the paper's §5 future-work directions,
//! made measurable by the execution simulator.

use std::path::Path;

use rectpart_core::{standard_heuristics, JagMHeur, JaggedVariant, PrefixSum2D, StripeCount};
use rectpart_simexec::{dynamic_run, CommModel, RebalancePolicy, Simulator};
use rectpart_workloads::uniform;

use crate::common::{Scale, Table};
use crate::instances::{aggregate_imbalance, Instances};

/// Ext-A: halo-exchange communication volume of each heuristic on the
/// PIC-MAG snapshot as `m` grows. Expected shape: all rectangle classes
/// stay within a small factor of each other (the "implicit communication
/// minimization" the paper credits rectangles with); RECT-UNIFORM is the
/// baseline grid.
pub fn ext_a(instances: &Instances, out: &Path) {
    let snap = instances.pic_at(20_000);
    let pfx = crate::common::gamma(&snap.matrix);
    let algos = standard_heuristics();
    let sim = Simulator::default();
    let ms = instances.scale.square_ms(2_500);
    let columns = algos.iter().map(|a| a.name()).collect();
    let mut table = Table::new(
        "extA",
        "Total halo volume (cells) on PIC-MAG iter~20,000",
        "m",
        "halo cells per iteration",
        columns,
    );
    let cells: Vec<Vec<Option<f64>>> = rectpart_parallel::map_slice(&ms, |&m| {
        algos
            .iter()
            .map(|a| {
                let p = a.partition(&pfx, m);
                Some(sim.evaluate(&pfx, &p).comm_volume_total as f64)
            })
            .collect()
    });
    for (&m, values) in ms.iter().zip(cells) {
        table.push(m as f64, values);
    }
    table.print();
    table.save(out).unwrap();
}

/// Ext-B: migration cost across the PIC-MAG trace under different
/// rebalancing policies (repartition always vs. imbalance-threshold).
pub fn ext_b(instances: &Instances, out: &Path) {
    let m = instances.scale.pick(400, 1_024);
    let trace: Vec<_> = instances.pic().iter().map(|s| s.matrix.clone()).collect();
    let algo = JagMHeur::best();
    let model = CommModel::default();
    let policies = [
        ("every-snapshot", RebalancePolicy::EverySnapshot),
        ("threshold-10%", RebalancePolicy::Threshold(0.10)),
        ("threshold-25%", RebalancePolicy::Threshold(0.25)),
    ];
    let runs: Vec<_> = policies
        .iter()
        .map(|(_, pol)| dynamic_run(&trace, &algo, m, &model, *pol))
        .collect();
    let mut columns = Vec::new();
    for (name, _) in &policies {
        columns.push(format!("{name} imbalance"));
        columns.push(format!("{name} migrated cells"));
    }
    let mut table = Table::new(
        "extB",
        format!("Dynamic rebalancing of PIC-MAG with JAG-M-HEUR, m = {m}"),
        "step",
        "imbalance / migrated cells",
        columns,
    );
    for step in 0..trace.len() {
        let mut values = Vec::new();
        for run in &runs {
            values.push(Some(run[step].imbalance));
            values.push(Some(run[step].migration_cells as f64));
        }
        table.push(step as f64, values);
    }
    table.print();
    for ((name, _), run) in policies.iter().zip(&runs) {
        let reparts = run.iter().filter(|s| s.repartitioned).count();
        let moved: u64 = run.iter().map(|s| s.migration_cells).sum();
        let avg_imb: f64 = run.iter().map(|s| s.imbalance).sum::<f64>() / run.len() as f64;
        println!(
            "    {name}: {reparts}/{} repartitions, {moved} cells moved, mean imbalance {avg_imb:.4}",
            run.len()
        );
    }
    table.save(out).unwrap();
}

/// Ext-C: end-to-end simulated speedup (compute + halo exchange) of each
/// heuristic on the PIC-MAG snapshot.
pub fn ext_c(instances: &Instances, out: &Path) {
    let snap = instances.pic_at(20_000);
    let pfx = crate::common::gamma(&snap.matrix);
    let algos = standard_heuristics();
    let sim = Simulator::default();
    let ms = instances.scale.square_ms(2_500);
    let columns = algos.iter().map(|a| a.name()).collect();
    let mut table = Table::new(
        "extC",
        "Simulated BSP speedup on PIC-MAG iter~20,000",
        "m",
        "speedup",
        columns,
    );
    let cells: Vec<Vec<Option<f64>>> = rectpart_parallel::map_slice(&ms, |&m| {
        algos
            .iter()
            .map(|a| {
                let p = a.partition(&pfx, m);
                Some(sim.evaluate(&pfx, &p).speedup)
            })
            .collect()
    });
    for (&m, values) in ms.iter().zip(cells) {
        table.push(m as f64, values);
    }
    table.print();
    table.save(out).unwrap();
}

/// Ext-D: stripe-count policy ablation for `JAG-M-HEUR` — `⌊√m⌋` vs the
/// Theorem 4 closed form — across matrix heterogeneity Δ.
pub fn ext_d(scale: Scale, out: &Path) {
    let n = scale.pick(256, 514);
    let m = scale.pick(900, 6_400);
    let count = scale.pick(3, 10);
    let deltas = [1.2, 2.0, 5.0, 10.0, 50.0];
    let policies = [
        ("JAG-M-HEUR sqrt(m)", StripeCount::SqrtM),
        ("JAG-M-HEUR Theorem-4 P", StripeCount::TheoremFour),
    ];
    let columns = policies.iter().map(|(n, _)| n.to_string()).collect();
    let mut table = Table::new(
        "extD",
        format!("Stripe-count ablation on {n}x{n} Uniform, m = {m} ({count} instances)"),
        "delta",
        "load imbalance",
        columns,
    );
    for &delta in &deltas {
        let instances: Vec<PrefixSum2D> = rectpart_parallel::map_range(count, |seed| {
            crate::common::gamma(&uniform(n, n, seed as u64).delta(delta).build())
        });
        let values = policies
            .iter()
            .map(|(_, stripes)| {
                let algo = JagMHeur {
                    variant: JaggedVariant::Best,
                    stripes: *stripes,
                };
                Some(aggregate_imbalance(&instances, &algo, m))
            })
            .collect();
        table.push(delta, values);
    }
    table.print();
    table.save(out).unwrap();
}

/// Ext-E: the §3.4 spiral class against the hierarchical and jagged
/// classes on the structured instances, showing where the extra pattern
/// freedom does (not) pay.
pub fn ext_e(instances: &Instances, out: &Path) {
    use rectpart_core::{HierRelaxed, JagMHeur, Partitioner, SpiralRelaxed};
    let snap = instances.pic_at(20_000);
    let pfx = crate::common::gamma(&snap.matrix);
    let algos: Vec<Box<dyn Partitioner>> = vec![
        Box::new(SpiralRelaxed::default()),
        Box::new(HierRelaxed::load()),
        Box::new(JagMHeur::best()),
    ];
    let ms = instances.scale.square_ms(2_500);
    let table = crate::common::imbalance_sweep(
        "extE",
        "Spiral vs hierarchical vs m-way jagged on PIC-MAG iter~20,000",
        &pfx,
        &algos,
        &ms,
    );
    table.print();
    table.save(out).unwrap();
}

/// Ext-F: 3D partitioning of the PIC-MAG volume against the paper's
/// accumulate-to-2D pipeline, over m.
pub fn ext_f(instances: &Instances, out: &Path) {
    use rectpart_core::{JagMHeur, Partitioner};
    use rectpart_volume::{Axis3, HierRb3, HierRelaxed3, JagMHeur3, Partitioner3, PrefixSum3D};
    use rectpart_workloads::{Pic3Config, Pic3Simulation};

    let scale = instances.scale;
    let planar = instances.pic_config();
    let cfg = Pic3Config {
        planar: rectpart_workloads::PicConfig {
            snapshots: 4,
            ..planar
        },
        depth: scale.pick(24, 64),
        vz_thermal: 0.3,
    };
    eprintln!(
        "  [pic3] simulating {}x{}x{} volume…",
        cfg.planar.rows, cfg.planar.cols, cfg.depth
    );
    let mut sim = Pic3Simulation::new(cfg.clone());
    let mut volume = None;
    for _ in 0..cfg.planar.snapshots {
        volume = Some(sim.next_snapshot().volume);
    }
    let volume = volume.unwrap();
    let pfx3 = PrefixSum3D::new(&volume);
    let flat = volume.flatten(Axis3::Z);
    let pfx2 = crate::common::gamma(&flat);

    let ms = scale.square_ms(1_600);
    let mut table = Table::new(
        "extF",
        "3D partitioning vs the paper's accumulate-to-2D pipeline (PIC-MAG volume)",
        "m",
        "load imbalance",
        vec![
            "flatten + JAG-M-HEUR (paper pipeline)".into(),
            "JAG-M-HEUR-3D".into(),
            "HIER-RB-3D-LOAD".into(),
            "HIER-RELAXED-3D-LOAD".into(),
        ],
    );
    for &m in &ms {
        let flat_imb = JagMHeur::best().partition(&pfx2, m).load_imbalance(&pfx2);
        let jag3 = JagMHeur3::new(&volume, Axis3::X)
            .partition(&pfx3, m)
            .load_imbalance(&pfx3);
        let hier3 = HierRb3.partition(&pfx3, m).load_imbalance(&pfx3);
        let relaxed3 = HierRelaxed3::default()
            .partition(&pfx3, m)
            .load_imbalance(&pfx3);
        table.push(
            m as f64,
            vec![Some(flat_imb), Some(jag3), Some(hier3), Some(relaxed3)],
        );
    }
    table.print();
    table.save(out).unwrap();
}

/// Ext-G: multilevel ablation — quality and runtime of partitioning a
/// block-coarsened matrix vs full resolution, over coarsening factors.
pub fn ext_g(instances: &Instances, out: &Path) {
    use rectpart_core::{JagMHeur, Multilevel, Partitioner};
    use std::time::Instant;

    let snap = instances.pic_at(20_000);
    let matrix = &snap.matrix;
    let pfx = crate::common::gamma(matrix);
    let m = instances.scale.pick(900, 9_216);
    let mut table = Table::new(
        "extG",
        format!("Multilevel coarsening ablation (JAG-M-HEUR, PIC-MAG, m = {m})"),
        "coarsening factor",
        "imbalance / runtime ms",
        vec!["imbalance".into(), "runtime ms".into()],
    );
    for factor in [1usize, 2, 4, 8, 16] {
        let ml = Multilevel::try_new(matrix, JagMHeur::best(), factor)
            .expect("experiment instance overflows u64 total load");
        let t0 = Instant::now();
        let part = ml.partition(&pfx, m);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        debug_assert!(part.validate(&pfx).is_ok());
        table.push(
            factor as f64,
            vec![Some(part.load_imbalance(&pfx)), Some(ms)],
        );
    }
    table.print();
    table.save(out).unwrap();
}

/// Ext-H: RECT-NICOL convergence — the paper's §3.1 claim that the
/// iterative refinement converges in "about 3-10 iterations for a
/// 514x514 matrix up to 10,000 processors" despite the O(n1·n2)
/// worst-case bound.
pub fn ext_h(instances: &Instances, out: &Path) {
    use rectpart_core::RectNicol;
    let scale = instances.scale;
    let uniform_pfx = crate::common::gamma(&uniform(514, 514, 31).delta(1.2).build());
    let pic_pfx = crate::common::gamma(&instances.pic_at(20_000).matrix);
    let ms = scale.square_ms(2_500);
    let mut table = Table::new(
        "extH",
        "RECT-NICOL refinement iterations until convergence",
        "m",
        "iterations",
        vec!["514x514 uniform".into(), "PIC-MAG".into()],
    );
    let cells: Vec<(usize, usize)> = rectpart_parallel::map_slice(&ms, |&m| {
        let (_, a) = RectNicol::default().partition_with_iterations(&uniform_pfx, m);
        let (_, b) = RectNicol::default().partition_with_iterations(&pic_pfx, m);
        (a, b)
    });
    let mut max_iters = 0;
    for (&m, (a, b)) in ms.iter().zip(cells) {
        max_iters = max_iters.max(a).max(b);
        table.push(m as f64, vec![Some(a as f64), Some(b as f64)]);
    }
    table.print();
    println!("    worst observed: {max_iters} iterations (paper: 3-10)");
    table.save(out).unwrap();
}
