//! Algorithm tour: every solution class of the paper on one instance,
//! heuristics and (where tractable) exact optima side by side.
//!
//! ```text
//! cargo run --release --example algorithm_tour
//! ```

use rectpart::core::{
    exhaustive_opt, hier_opt, jag_m_opt_dp, standard_heuristics, Axis, JagMOpt, JagPqOpt,
    LoadMatrix,
};
use rectpart::prelude::*;

fn main() {
    // A multi-peak instance, small enough that even the exact dynamic
    // programs answer quickly.
    let n = 48;
    let m = 12;
    let matrix = multi_peak(n, n, 7).build();
    let pfx = PrefixSum2D::try_new(&matrix).expect("total load overflows u64");
    println!(
        "instance: {n}x{n} Multi-peak, total {}, m = {m}, lower bound = {}",
        pfx.total(),
        pfx.lower_bound(m)
    );

    println!("\n{:<22} {:>12} {:>12}", "algorithm", "Lmax", "imbalance");
    let report = |name: &str, part: &rectpart::core::Partition| {
        part.validate(&pfx).expect(name);
        println!(
            "{name:<22} {:>12} {:>11.2}%",
            part.lmax(&pfx),
            100.0 * part.load_imbalance(&pfx)
        );
    };

    for algo in standard_heuristics() {
        report(&algo.name(), &algo.partition(&pfx, m));
    }
    report("JAG-PQ-OPT-BEST", &JagPqOpt::default().partition(&pfx, m));
    report("JAG-M-OPT-BEST", &JagMOpt::default().partition(&pfx, m));
    let (hier, hier_value) = hier_opt(&pfx, m);
    report("HIER-OPT", &hier);
    assert_eq!(hier.lmax(&pfx), hier_value);

    // The paper's literal JAG-M-OPT dynamic program agrees with the
    // parametric solver (per orientation).
    let dp = jag_m_opt_dp(&pfx, Axis::Rows, m);
    println!("\nJAG-M-OPT DP cross-check (rows orientation): Lmax = {dp}");

    // On a tiny instance, compare every class against the NP-hard
    // arbitrary-rectangle optimum.
    let tiny = LoadMatrix::from_fn(6, 6, |r, c| 1 + ((r * 31 + c * 17) % 13) as u32);
    let tiny_pfx = PrefixSum2D::try_new(&tiny).expect("total load overflows u64");
    let (arb, arb_value) = exhaustive_opt(&tiny_pfx, 4);
    println!(
        "\n6x6 oracle, m = 4: arbitrary optimum Lmax = {arb_value}, \
         m-way jagged = {}, hierarchical = {}",
        JagMOpt::default().partition(&tiny_pfx, 4).lmax(&tiny_pfx),
        hier_opt(&tiny_pfx, 4).1,
    );
    println!("arbitrary-optimal tiling:\n{}", arb.ascii_art(6, 6));
}
