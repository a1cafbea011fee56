//! Cross-algorithm optimality chains (paper §3): each class's optimum
//! bounds its heuristics, richer classes bound poorer ones, and the
//! arbitrary-rectangle oracle bounds everything.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rectpart::core::{
    exhaustive_opt, hier_opt_value, jag_m_opt_dp, Axis, HierRb, HierRelaxed, JagMHeur, JagMOpt,
    JagPqHeur, JagPqOpt, JaggedVariant, LoadMatrix, Partitioner, PrefixSum2D,
};

fn random_pfx(rows: usize, cols: usize, seed: u64, zero_prob: f64) -> PrefixSum2D {
    let mut rng = StdRng::seed_from_u64(seed);
    PrefixSum2D::try_new(&LoadMatrix::from_fn(rows, cols, |_, _| {
        if rng.gen_bool(zero_prob) {
            0
        } else {
            rng.gen_range(1..60)
        }
    }))
    .unwrap()
}

#[test]
fn jagged_class_chain() {
    // JAG-M-OPT <= JAG-PQ-OPT <= JAG-PQ-HEUR and JAG-M-OPT <= JAG-M-HEUR,
    // per-orientation so the class inclusions hold exactly.
    for seed in 0..6 {
        let pfx = random_pfx(14, 12, seed, if seed % 2 == 0 { 0.0 } else { 0.2 });
        for m in [4, 9] {
            for variant in [JaggedVariant::Hor, JaggedVariant::Ver] {
                let m_opt = JagMOpt { variant }.partition(&pfx, m).lmax(&pfx);
                let pq_opt = JagPqOpt {
                    variant,
                    grid: None,
                }
                .partition(&pfx, m)
                .lmax(&pfx);
                let pq_heur = JagPqHeur {
                    variant,
                    grid: None,
                }
                .partition(&pfx, m)
                .lmax(&pfx);
                let m_heur = JagMHeur {
                    variant,
                    ..JagMHeur::default()
                }
                .partition(&pfx, m)
                .lmax(&pfx);
                assert!(m_opt <= pq_opt, "seed={seed} m={m} {variant:?}");
                assert!(pq_opt <= pq_heur, "seed={seed} m={m} {variant:?}");
                assert!(m_opt <= m_heur, "seed={seed} m={m} {variant:?}");
            }
        }
    }
}

#[test]
fn parametric_m_opt_agrees_with_paper_dp() {
    for seed in 0..5 {
        let pfx = random_pfx(6, 7, 100 + seed, 0.1);
        for m in [2, 3, 5] {
            for axis in [Axis::Rows, Axis::Cols] {
                let dp = jag_m_opt_dp(&pfx, axis, m);
                let variant = match axis {
                    Axis::Rows => JaggedVariant::Hor,
                    Axis::Cols => JaggedVariant::Ver,
                };
                let par = JagMOpt { variant }.partition(&pfx, m).lmax(&pfx);
                assert_eq!(par, dp, "seed={seed} m={m} {axis:?}");
            }
        }
    }
}

#[test]
fn hierarchical_optimum_bounds_hierarchical_heuristics() {
    for seed in 0..4 {
        let pfx = random_pfx(8, 8, 200 + seed, 0.15);
        for m in [3, 5] {
            let opt = hier_opt_value(&pfx, m);
            assert!(HierRb::load().partition(&pfx, m).lmax(&pfx) >= opt);
            assert!(HierRelaxed::load().partition(&pfx, m).lmax(&pfx) >= opt);
        }
    }
}

#[test]
fn arbitrary_oracle_bounds_every_class() {
    for seed in 0..3 {
        let pfx = random_pfx(4, 5, 300 + seed, 0.2);
        for m in [2, 3, 5] {
            let (_, arb) = exhaustive_opt(&pfx, m);
            assert!(arb >= pfx.lower_bound(m).min(arb));
            for value in [
                JagMOpt::default().partition(&pfx, m).lmax(&pfx),
                hier_opt_value(&pfx, m),
                JagPqOpt::default().partition(&pfx, m).lmax(&pfx),
            ] {
                assert!(value >= arb, "seed={seed} m={m}: {value} < {arb}");
            }
        }
    }
}

#[test]
fn optimal_lmax_is_monotone_in_m() {
    let pfx = random_pfx(10, 10, 77, 0.0);
    let mut prev = u64::MAX;
    for m in 1..=8 {
        let v = JagMOpt::default().partition(&pfx, m).lmax(&pfx);
        assert!(v <= prev, "m={m}: optimal got worse with more processors");
        prev = v;
    }
}

#[test]
fn best_variant_never_loses_to_fixed_orientations() {
    for seed in 0..4 {
        let pfx = random_pfx(12, 20, 400 + seed, 0.0);
        for m in [6, 9] {
            let hor = JagMHeur {
                variant: JaggedVariant::Hor,
                ..JagMHeur::default()
            }
            .partition(&pfx, m)
            .lmax(&pfx);
            let ver = JagMHeur {
                variant: JaggedVariant::Ver,
                ..JagMHeur::default()
            }
            .partition(&pfx, m)
            .lmax(&pfx);
            let best = JagMHeur::best().partition(&pfx, m).lmax(&pfx);
            assert_eq!(best, hor.min(ver), "seed={seed} m={m}");
        }
    }
}
