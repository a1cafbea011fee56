//! Property-based tests (proptest) over the core invariants: prefix-sum
//! correctness, 1D optimality agreement, probe monotonicity, and tiling
//! validity of every partitioner on arbitrary matrices.

use proptest::collection::vec;
use proptest::prelude::*;
use rectpart::core::{standard_heuristics, JagMOpt, LoadMatrix, Partitioner, PrefixSum2D, Rect};
use rectpart::onedim::{
    direct_cut, dp_optimal, nicol, probe_feasible, recursive_bisection, IntervalCost, PrefixCosts,
};

fn arb_matrix() -> impl Strategy<Value = LoadMatrix> {
    (1usize..14, 1usize..14).prop_flat_map(|(r, c)| {
        vec(0u32..200, r * c).prop_map(move |data| LoadMatrix::from_vec(r, c, data))
    })
}

fn arb_loads() -> impl Strategy<Value = Vec<u64>> {
    vec(0u64..500, 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prefix_sums_match_naive(matrix in arb_matrix()) {
        let pfx = PrefixSum2D::try_new(&matrix).unwrap();
        prop_assert_eq!(pfx.total(), matrix.total());
        let rows = matrix.rows();
        let cols = matrix.cols();
        for (r0, r1, c0, c1) in [
            (0, rows, 0, cols),
            (0, rows / 2, 0, cols),
            (rows / 3, rows, cols / 3, cols),
            (rows / 2, rows / 2, 0, cols),
        ] {
            let rect = Rect::new(r0, r1, c0, c1);
            prop_assert_eq!(pfx.load(&rect), matrix.load_naive(&rect));
        }
    }

    #[test]
    fn nicol_matches_dp(loads in arb_loads(), m in 1usize..8) {
        let c = PrefixCosts::from_loads(&loads);
        prop_assert_eq!(nicol(&c, m).bottleneck, dp_optimal(&c, m).bottleneck);
    }

    #[test]
    fn heuristics_bounded_below_by_optimal(loads in arb_loads(), m in 1usize..8) {
        let c = PrefixCosts::from_loads(&loads);
        let opt = nicol(&c, m).bottleneck;
        prop_assert!(direct_cut(&c, m).bottleneck(&c) >= opt);
        prop_assert!(recursive_bisection(&c, m).bottleneck(&c) >= opt);
        prop_assert!(opt >= c.total() / m as u64);
        prop_assert!(opt >= c.max_unit_cost());
    }

    #[test]
    fn probe_is_monotone_and_tight(loads in arb_loads(), m in 1usize..6) {
        let c = PrefixCosts::from_loads(&loads);
        let opt = nicol(&c, m).bottleneck;
        prop_assert!(probe_feasible(&c, m, opt));
        if opt > 0 {
            prop_assert!(!probe_feasible(&c, m, opt - 1));
        }
        prop_assert!(probe_feasible(&c, m, opt.saturating_add(1000)));
    }

    #[test]
    fn all_heuristics_tile_random_matrices(matrix in arb_matrix(), m in 1usize..12) {
        let pfx = PrefixSum2D::try_new(&matrix).unwrap();
        for algo in standard_heuristics() {
            let p = algo.partition(&pfx, m);
            prop_assert!(p.validate(&pfx).is_ok(), "{} failed: {:?}", algo.name(), p.validate(&pfx));
            prop_assert!(p.lmax(&pfx) >= pfx.lower_bound(m));
            prop_assert_eq!(p.loads(&pfx).iter().sum::<u64>(), pfx.total());
        }
    }

    #[test]
    fn m_opt_never_beaten_by_jagged_heuristics(matrix in arb_matrix(), m in 1usize..7) {
        let pfx = PrefixSum2D::try_new(&matrix).unwrap();
        let opt = JagMOpt::default().partition(&pfx, m);
        prop_assert!(opt.validate(&pfx).is_ok());
        let heur = rectpart::core::JagMHeur::best().partition(&pfx, m);
        prop_assert!(opt.lmax(&pfx) <= heur.lmax(&pfx));
        prop_assert!(opt.lmax(&pfx) >= pfx.lower_bound(m));
    }

    #[test]
    fn owner_map_partitions_cells(matrix in arb_matrix(), m in 1usize..9) {
        let pfx = PrefixSum2D::try_new(&matrix).unwrap();
        let p = rectpart::core::HierRb::load().partition(&pfx, m);
        let owners = p.owner_map(matrix.rows(), matrix.cols());
        prop_assert!(owners.iter().all(|&o| o != u32::MAX && (o as usize) < m));
    }

    #[test]
    fn uniform_cuts_are_fair(n in 1usize..200, m in 1usize..20) {
        let cuts = rectpart::onedim::Cuts::uniform(n, m);
        prop_assert!(cuts.validate(n, m).is_ok());
        let sizes: Vec<usize> = cuts.intervals().map(|(a, b)| b - a).collect();
        let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(mx - mn <= 1, "uniform interval sizes must differ by at most 1");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn spiral_tiles_random_matrices(matrix in arb_matrix(), m in 1usize..12) {
        let pfx = PrefixSum2D::try_new(&matrix).unwrap();
        let p = rectpart::core::SpiralRelaxed::default().partition(&pfx, m);
        prop_assert!(p.validate(&pfx).is_ok());
        prop_assert!(p.lmax(&pfx) >= pfx.lower_bound(m));
    }

    #[test]
    fn tree_index_agrees_with_linear_scan(matrix in arb_matrix(), m in 1usize..10) {
        let pfx = PrefixSum2D::try_new(&matrix).unwrap();
        let part = rectpart::core::HierRelaxed::load().partition(&pfx, m);
        let idx = rectpart::core::RectTreeIndex::new(&part);
        for r in 0..matrix.rows() {
            for c in 0..matrix.cols() {
                prop_assert_eq!(idx.owner_of(r, c), part.owner_of(r, c));
            }
        }
    }

    #[test]
    fn jagged_index_agrees_on_jagged_output(matrix in arb_matrix(), m in 1usize..10) {
        let pfx = PrefixSum2D::try_new(&matrix).unwrap();
        let part = rectpart::core::JagMHeur::best().partition(&pfx, m);
        if let Some(idx) = rectpart::core::JaggedIndex::detect(&part) {
            for r in 0..matrix.rows() {
                for c in 0..matrix.cols() {
                    prop_assert_eq!(idx.owner_of(r, c), part.owner_of(r, c));
                }
            }
        }
    }

    #[test]
    fn coarsen_preserves_total(matrix in arb_matrix(), factor in 1usize..6) {
        let coarse = matrix.coarsen(factor);
        prop_assert_eq!(coarse.total(), matrix.total());
        prop_assert_eq!(coarse.rows(), matrix.rows().div_ceil(factor));
        prop_assert_eq!(coarse.cols(), matrix.cols().div_ceil(factor));
    }

    #[test]
    fn multilevel_tiles_random_matrices(matrix in arb_matrix(), m in 1usize..8, factor in 1usize..4) {
        let pfx = PrefixSum2D::try_new(&matrix).unwrap();
        let ml = rectpart::core::Multilevel::try_new(&matrix, rectpart::core::JagMHeur::best(), factor).unwrap();
        let p = ml.partition(&pfx, m);
        prop_assert!(p.validate(&pfx).is_ok());
    }

    #[test]
    fn partition_stats_are_consistent(matrix in arb_matrix(), m in 1usize..9) {
        let pfx = PrefixSum2D::try_new(&matrix).unwrap();
        let part = rectpart::core::HierRb::load().partition(&pfx, m);
        let s = rectpart::core::PartitionStats::compute(&pfx, &part);
        prop_assert_eq!(s.lmax, part.lmax(&pfx));
        prop_assert!(s.lmin <= s.lmax || s.active_parts == 0);
        prop_assert!((s.imbalance - part.load_imbalance(&pfx)).abs() < 1e-12);
        prop_assert!(s.max_aspect >= 1.0);
    }
}
