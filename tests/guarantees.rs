//! The paper's worst-case guarantees (Lemma 1, Theorems 1 and 3) hold on
//! strictly positive matrices for the implemented heuristics.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rectpart::core::bounds::{jag_m_heur_ratio, jag_pq_heur_ratio, lemma1_factor};
use rectpart::core::{JagMHeur, JagPqHeur, LoadMatrix, Partitioner, PrefixSum2D};
use rectpart::onedim::{direct_cut, recursive_bisection, IntervalCost, PrefixCosts};

fn positive_matrix(n: usize, delta_max: u32, seed: u64) -> LoadMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    LoadMatrix::from_fn(n, n, |_, _| rng.gen_range(100..=100 * delta_max))
}

#[test]
fn lemma1_bounds_direct_cut_on_positive_arrays() {
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..20 {
        let n = rng.gen_range(20..200);
        let loads: Vec<u64> = (0..n).map(|_| rng.gen_range(50..250)).collect();
        let c = PrefixCosts::from_loads(&loads);
        let delta = *loads.iter().max().unwrap() as f64 / *loads.iter().min().unwrap() as f64;
        for m in [2usize, 5, 10] {
            if m >= n {
                continue;
            }
            let bottleneck = direct_cut(&c, m).bottleneck(&c) as f64;
            let avg = c.total() as f64 / m as f64;
            let bound = avg * lemma1_factor(delta, m, n) + 1.0;
            assert!(bottleneck <= bound, "n={n} m={m}: {bottleneck} > {bound}");
            // RB enjoys the same total/m + max guarantee.
            let rb = recursive_bisection(&c, m).bottleneck(&c) as f64;
            assert!(rb <= avg + c.max_unit_cost() as f64 + 1.0);
        }
    }
}

#[test]
fn theorem1_bounds_jag_pq_heur() {
    for seed in 0..6 {
        let matrix = positive_matrix(48, 3, seed);
        let pfx = PrefixSum2D::try_new(&matrix).unwrap();
        let delta = pfx.delta().unwrap();
        for m in [9usize, 16, 25] {
            let p = (m as f64).sqrt() as usize;
            let part = JagPqHeur::best().partition(&pfx, m);
            let ratio = part.lmax(&pfx) as f64 / pfx.average_load(m);
            let bound = jag_pq_heur_ratio(delta, p, p, 48, 48);
            assert!(
                ratio <= bound + 1e-9,
                "seed={seed} m={m}: {ratio} > {bound}"
            );
        }
    }
}

#[test]
fn theorem3_bounds_jag_m_heur() {
    for seed in 0..6 {
        let matrix = positive_matrix(48, 3, 100 + seed);
        let pfx = PrefixSum2D::try_new(&matrix).unwrap();
        let delta = pfx.delta().unwrap();
        for m in [16usize, 25, 49] {
            let p = (m as f64).sqrt() as usize;
            if p >= m {
                continue;
            }
            let part = JagMHeur::best().partition(&pfx, m);
            let ratio = part.lmax(&pfx) as f64 / pfx.average_load(m);
            let bound = jag_m_heur_ratio(delta, p, m, 48, 48);
            assert!(
                ratio <= bound + 1e-9,
                "seed={seed} m={m}: {ratio} > {bound}"
            );
        }
    }
}

#[test]
fn guarantees_tighten_as_delta_shrinks() {
    // A structural property the figure-9 experiment relies on: lower
    // heterogeneity means tighter worst cases for both theorems.
    for &(m, n) in &[(100usize, 512usize), (400, 512)] {
        let p = (m as f64).sqrt() as usize;
        let mut prev = f64::INFINITY;
        for delta in [4.0, 2.0, 1.5, 1.1, 1.0] {
            let t1 = jag_pq_heur_ratio(delta, p, p, n, n);
            let t3 = jag_m_heur_ratio(delta, p, m, n, n);
            assert!(t1 <= prev + 1e-12);
            assert!(t3.is_finite() && t3 >= 1.0);
            prev = t1;
        }
    }
}

#[test]
fn two_approximation_of_heuristics_without_positivity() {
    // Even with zeros, DC and RB stay within total/m + max element.
    let loads = [0u64, 40, 0, 0, 13, 7, 0, 22, 0, 5];
    let c = PrefixCosts::from_loads(&loads);
    for m in 2..=6 {
        let bound = c.total() / m as u64 + c.max_unit_cost() + 1;
        assert!(direct_cut(&c, m).bottleneck(&c) <= bound);
        assert!(recursive_bisection(&c, m).bottleneck(&c) <= bound);
    }
}
