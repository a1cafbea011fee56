//! Golden regression tests: every generator and algorithm in this
//! workspace is deterministic, so exact bottleneck values for fixed
//! seeds are stable across releases. A failure here means an algorithm's
//! *behaviour* changed — intentionally or not — and EXPERIMENTS.md should
//! be regenerated alongside the fix.

use rectpart::core::{
    standard_heuristics, JagMOpt, JagPqOpt, LoadMatrix, Partitioner, PrefixSum2D, SpiralRelaxed,
};
use rectpart::prelude::*;

/// (workload, algorithm, m, expected Lmax) for 48x48 seed-7 instances.
/// Values regenerated when the workspace moved to the in-tree xoshiro
/// RNG (the instances changed; the algorithms did not).
const GOLDEN: &[(&str, &str, usize, u64)] = &[
    ("uniform", "RECT-UNIFORM", 9, 325490),
    ("uniform", "RECT-UNIFORM", 16, 183600),
    ("uniform", "RECT-NICOL", 9, 325490),
    ("uniform", "RECT-NICOL", 16, 183600),
    ("uniform", "JAG-PQ-HEUR-BEST", 9, 325490),
    ("uniform", "JAG-PQ-HEUR-BEST", 16, 183600),
    ("uniform", "JAG-M-HEUR-BEST", 9, 325490),
    ("uniform", "JAG-M-HEUR-BEST", 16, 183600),
    ("uniform", "HIER-RB-LOAD", 9, 331548),
    ("uniform", "HIER-RB-LOAD", 16, 182530),
    ("uniform", "HIER-RELAXED-LOAD", 9, 325806),
    ("uniform", "HIER-RELAXED-LOAD", 16, 182670),
    ("uniform", "JAG-PQ-OPT-BEST", 9, 325490),
    ("uniform", "JAG-M-OPT-BEST", 9, 325490),
    ("uniform", "SPIRAL-RELAXED", 9, 326286),
    ("diagonal", "RECT-UNIFORM", 9, 309101),
    ("diagonal", "RECT-UNIFORM", 16, 238757),
    ("diagonal", "RECT-NICOL", 9, 245148),
    ("diagonal", "RECT-NICOL", 16, 151574),
    ("diagonal", "JAG-PQ-HEUR-BEST", 9, 131151),
    ("diagonal", "JAG-PQ-HEUR-BEST", 16, 79448),
    ("diagonal", "JAG-M-HEUR-BEST", 9, 131151),
    ("diagonal", "JAG-M-HEUR-BEST", 16, 79448),
    ("diagonal", "HIER-RB-LOAD", 9, 125039),
    ("diagonal", "HIER-RB-LOAD", 16, 73241),
    ("diagonal", "HIER-RELAXED-LOAD", 9, 125866),
    ("diagonal", "HIER-RELAXED-LOAD", 16, 74515),
    ("diagonal", "JAG-PQ-OPT-BEST", 9, 126476),
    ("diagonal", "JAG-M-OPT-BEST", 9, 122525),
    ("diagonal", "SPIRAL-RELAXED", 9, 132366),
    ("multi-peak", "RECT-UNIFORM", 9, 87263),
    ("multi-peak", "RECT-UNIFORM", 16, 72982),
    ("multi-peak", "RECT-NICOL", 9, 49071),
    ("multi-peak", "RECT-NICOL", 16, 33764),
    ("multi-peak", "JAG-PQ-HEUR-BEST", 9, 33113),
    ("multi-peak", "JAG-PQ-HEUR-BEST", 16, 23488),
    ("multi-peak", "JAG-M-HEUR-BEST", 9, 33113),
    ("multi-peak", "JAG-M-HEUR-BEST", 16, 23488),
    ("multi-peak", "HIER-RB-LOAD", 9, 41199),
    ("multi-peak", "HIER-RB-LOAD", 16, 28423),
    ("multi-peak", "HIER-RELAXED-LOAD", 9, 41499),
    ("multi-peak", "HIER-RELAXED-LOAD", 16, 23749),
    ("multi-peak", "JAG-PQ-OPT-BEST", 9, 33113),
    ("multi-peak", "JAG-M-OPT-BEST", 9, 32580),
    ("multi-peak", "SPIRAL-RELAXED", 9, 37747),
];

fn workload(name: &str) -> LoadMatrix {
    match name {
        "uniform" => uniform(48, 48, 7).delta(1.5).build(),
        "diagonal" => diagonal(48, 48, 7).build(),
        "multi-peak" => multi_peak(48, 48, 7).build(),
        other => panic!("unknown golden workload {other}"),
    }
}

fn algorithm(name: &str) -> Box<dyn Partitioner> {
    match name {
        "JAG-PQ-OPT-BEST" => Box::new(JagPqOpt::default()),
        "JAG-M-OPT-BEST" => Box::new(JagMOpt::default()),
        "SPIRAL-RELAXED" => Box::new(SpiralRelaxed::default()),
        other => standard_heuristics()
            .into_iter()
            .find(|a| a.name() == other)
            .unwrap_or_else(|| panic!("unknown golden algorithm {other}")),
    }
}

#[test]
fn golden_bottlenecks_are_stable() {
    let mut cache: std::collections::HashMap<&str, PrefixSum2D> = Default::default();
    for &(wl, algo, m, expected) in GOLDEN {
        let pfx = cache
            .entry(wl)
            .or_insert_with(|| PrefixSum2D::try_new(&workload(wl)).unwrap());
        let got = algorithm(algo).partition(pfx, m).lmax(pfx);
        assert_eq!(
            got, expected,
            "{algo} on {wl} m={m}: behaviour changed (got {got}, golden {expected})"
        );
    }
}
