//! Sort-first parallel rendering — the paper's image-rendering
//! motivation (§1): partition the screen so every processor renders an
//! equally expensive set of pixels, here on a fractal render-cost field
//! with heterogeneous processors thrown in (related-work extension).
//!
//! ```text
//! cargo run --release --example render_partition
//! ```

use rectpart::core::standard_heuristics;
use rectpart::prelude::*;
use rectpart::workloads::RenderConfig;

fn main() {
    let cfg = RenderConfig {
        rows: 384,
        cols: 512,
        ..RenderConfig::default()
    };
    let cost = cfg.generate();
    println!(
        "render-cost field {}x{}: total {}, per-pixel cost 1..{} (delta {:.0})",
        cost.rows(),
        cost.cols(),
        cost.total(),
        cost.max_cell(),
        cost.delta().unwrap()
    );
    println!(
        "\ncost field (darker = cheaper):\n{}",
        cost.ascii_art(18, 48)
    );

    let pfx = PrefixSum2D::try_new(&cost).expect("total load overflows u64");
    let m = 64;
    println!("{:<22} {:>12} {:>12}", "algorithm", "Lmax", "imbalance");
    for algo in standard_heuristics() {
        let part = algo.partition(&pfx, m);
        part.validate(&pfx).expect("valid tiling");
        println!(
            "{:<22} {:>12} {:>11.2}%",
            algo.name(),
            part.lmax(&pfx),
            100.0 * part.load_imbalance(&pfx)
        );
    }

    // Heterogeneous cluster: half the processors are twice as fast. The
    // BSP simulator prices the same partition on both machines.
    let part = JagMHeur::best().partition(&pfx, m);
    let homo = Simulator::new(CommModel::default()).evaluate(&pfx, &part);
    let speeds: Vec<f64> = (0..m).map(|p| if p % 2 == 0 { 2.0 } else { 1.0 }).collect();
    let hetero = Simulator::with_speeds(CommModel::default(), speeds).evaluate(&pfx, &part);
    println!(
        "\nJAG-M-HEUR frame time: homogeneous {:.0}, heterogeneous {:.0} \
         (same partition; a load-balanced tiling is speed-oblivious, so\n\
         fast processors idle — the heterogeneity-aware partitioning the\n\
         paper's related work discusses would shift load toward them)",
        homo.makespan, hetero.makespan
    );
}
