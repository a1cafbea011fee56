//! End-to-end BSP execution simulation: what a partition's quality means
//! for wall-clock speedup once halo communication is priced in (the
//! communication-cost study the paper's §5 proposes).
//!
//! ```text
//! cargo run --release --example execution_simulation
//! ```

use rectpart::core::standard_heuristics;
use rectpart::prelude::*;

fn main() {
    let matrix = diagonal(256, 256, 11).build();
    let pfx = PrefixSum2D::try_new(&matrix).expect("total load overflows u64");
    let m = 256;
    println!(
        "instance: 256x256 Diagonal, m = {m}, serial work = {}",
        pfx.total()
    );

    // A stencil-ish cost model: one halo cell costs 20 cell updates, a
    // message costs 200 (the crate defaults).
    let sim = Simulator::default();
    println!(
        "cost model: alpha = {}, beta = {}, latency = {}",
        sim.model().alpha,
        sim.model().beta,
        sim.model().latency
    );

    println!(
        "\n{:<22} {:>10} {:>12} {:>10} {:>9} {:>9}",
        "algorithm", "imbalance", "halo cells", "neighbors", "speedup", "effic."
    );
    for algo in standard_heuristics() {
        let part = algo.partition(&pfx, m);
        let report: ExecutionReport = sim.evaluate(&pfx, &part);
        println!(
            "{:<22} {:>9.2}% {:>12} {:>10} {:>9.1} {:>8.1}%",
            algo.name(),
            100.0 * part.load_imbalance(&pfx),
            report.comm_volume_total,
            report.max_neighbors,
            report.speedup,
            100.0 * report.efficiency
        );
    }
    println!(
        "\nNote how the imbalance ranking carries over to speedup, while the\n\
         halo volumes of all rectangle classes stay within a small factor —\n\
         the \"implicit communication minimization\" the paper credits\n\
         rectangles with (§1)."
    );
}
