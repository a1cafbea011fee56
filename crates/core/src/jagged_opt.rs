//! Optimal jagged partitioners (§3.2.1–3.2.2): `JAG-PQ-OPT` and
//! `JAG-M-OPT`.
//!
//! * `JAG-PQ-OPT` observes (with the paper) that an optimal P×Q-way jagged
//!   partition is an optimal 1D partition of the main dimension whose
//!   interval "load" is the *optimal 1D bottleneck of the stripe* along
//!   the auxiliary dimension. That stripe cost is monotone, so Nicol's
//!   algorithm applies directly; stripe solutions are memoized in a
//!   shared, thread-safe [`StripeCache`] that serves both orientations of
//!   a `-BEST` run (which execute concurrently) and the final parallel
//!   per-stripe reconstruction.
//! * `JAG-M-OPT` solves the paper's dynamic program. The production
//!   implementation is a parametric search: binary search on the answer
//!   `B` with an exact feasibility test (`min #processors to realise a
//!   jagged partition with bottleneck ≤ B`, computed by a 1D DP over
//!   stripe boundaries with greedy per-stripe probe counting). This
//!   realizes the paper's §3.2.2 speed-ups (lazy evaluation, bound
//!   pruning, branch-and-bound seeded by the `JAG-M-HEUR` incumbent) in a
//!   provably exact form. The literal DP formulation of the paper is also
//!   provided ([`jag_m_opt_dp`]) and the test-suite checks both agree.

use std::cell::RefCell;
use std::collections::HashMap;
use std::convert::Infallible;

use rectpart_onedim::{nicol, nicol_bottleneck, FnCost, IntervalCost, SolveScratch};

use crate::cache::StripeCache;
use crate::cancel::Checker;
use crate::error::RectpartError;
use crate::geometry::Rect;
use crate::jagged::{one_part_partition, try_jag_m_heur_view, JaggedVariant};
use crate::prefix::{PrefixSum2D, View};
use crate::solution::Partition;
use crate::traits::{grid_dims, isqrt, Partitioner};

/// `JAG-PQ-OPT` — optimal P×Q-way jagged partition (Manne–Sørevik /
/// Pınar–Aykanat). Exponentially slower than the heuristic but still
/// polynomial; the paper measures ~27 s at `m = 10 000` on a 512² matrix.
#[derive(Clone, Debug, Default)]
pub struct JagPqOpt {
    /// Orientation policy.
    pub variant: JaggedVariant,
    /// Explicit `(P, Q)`; defaults to the near-square factorization of `m`.
    pub grid: Option<(usize, usize)>,
}

impl Partitioner for JagPqOpt {
    fn name(&self) -> String {
        format!("JAG-PQ-OPT-{}", self.variant.suffix())
    }

    fn partition(&self, pfx: &PrefixSum2D, m: usize) -> Partition {
        assert!(m >= 1);
        let (p, q) = self.grid.unwrap_or_else(|| grid_dims(m));
        assert!(p * q <= m, "grid {p}x{q} exceeds {m} processors");
        // One cache for the whole call: the `-BEST` orientation pair runs
        // concurrently against it (entries are axis-keyed) and every
        // stripe solution survives across all of Nicol's probes.
        let cache = StripeCache::new();
        let Ok((rects, _)) = self.variant.pick(
            pfx,
            |view| Ok::<_, Infallible>(jag_pq_opt_view(&view, p, q, &cache)),
            |s| s.1,
        );
        Partition::with_parts(rects, m)
    }
}

/// One-orientation `JAG-PQ-OPT`: the rectangles and their `Lmax`. The
/// `Lmax` is the main-dimension Nicol bottleneck, which is the largest
/// of the per-stripe optima the reconstruction below re-solves.
fn jag_pq_opt_view(view: &View<'_>, p: usize, q: usize, cache: &StripeCache) -> (Vec<Rect>, u64) {
    let n_main = view.n_main();
    let n_aux = view.n_aux();
    let axis = view.axis();
    // Memoized optimal stripe bottleneck S(a, b) = opt 1D split of rows
    // [a, b) into q parts along the auxiliary dimension. The closure
    // chain under `nicol` below is single-threaded per orientation, so
    // one scratch arena serves every cache miss without reallocating
    // (a Mutex only because `FnCost` closures must be `Sync`; it is
    // never contended).
    let scratch = std::sync::Mutex::new(SolveScratch::new());
    let stripe_cost = FnCost::new(n_main, |a, b| {
        if a == b {
            return 0;
        }
        cache.bottleneck(axis, a, b, q, || {
            let aux = FnCost::additive(n_aux, |c, d| view.load(a, b, c, d));
            let mut scratch = scratch
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            nicol_bottleneck(&aux, q, &mut scratch)
        })
    });
    let main = nicol(&stripe_cost, p);
    // The chosen stripes are independent 1D problems: fan out, keeping
    // the in-order collect so the rectangle order matches the serial
    // loop exactly.
    let stripes: Vec<(usize, usize)> = main.cuts.intervals().filter(|(a, b)| a < b).collect();
    let rects = rectpart_parallel::flat_map_slice(&stripes, |&(s0, s1)| {
        let aux = FnCost::additive(n_aux, |c, d| view.load(s0, s1, c, d));
        nicol(&aux, q)
            .cuts
            .intervals()
            .filter(|(a0, a1)| a0 < a1)
            .map(|(a0, a1)| view.rect(s0, s1, a0, a1))
            .collect::<Vec<_>>()
    });
    (rects, main.bottleneck)
}

/// `JAG-M-OPT` — optimal m-way jagged partition (the paper's new class,
/// §3.2.2), exact via parametric search. Runtime grows quickly with `m`
/// (the paper reports 15 minutes at `m = 961`); our parametric variant is
/// much faster but still the most expensive algorithm in the suite.
#[derive(Clone, Debug, Default)]
pub struct JagMOpt {
    /// Orientation policy.
    pub variant: JaggedVariant,
}

impl Partitioner for JagMOpt {
    fn name(&self) -> String {
        format!("JAG-M-OPT-{}", self.variant.suffix())
    }

    fn partition(&self, pfx: &PrefixSum2D, m: usize) -> Partition {
        assert!(m >= 1);
        self.variant
            .pick(
                pfx,
                |view| try_jag_m_opt_view(&view, m, Checker::OFF),
                |s| s.1,
            )
            .map_or_else(
                |_| one_part_partition(pfx, m),
                |(rects, _)| Partition::with_parts(rects, m),
            )
    }

    fn try_partition(&self, pfx: &PrefixSum2D, m: usize) -> Result<Partition, RectpartError> {
        if m == 0 {
            return Err(RectpartError::ZeroParts);
        }
        // `-BEST` keeps the orientation whose search ended at the lower
        // bottleneck.
        let check = Checker::active();
        self.variant
            .pick(pfx, |view| try_jag_m_opt_view(&view, m, check), |s| s.1)
            .map(|(rects, _)| Partition::with_parts(rects, m))
    }
}

/// One-orientation exact m-way jagged optimum via parametric search:
/// the rectangles and their `Lmax`. The deadline is polled once per
/// parametric probe (each probe is one serial feasibility DP, the
/// algorithm's natural work quantum).
///
/// The `Lmax` returned is the `ub` the search ends at. That is the
/// reconstructed partition's `Lmax`: `ub` is the least feasible
/// bottleneck, so no rectangle exceeds it and a partition whose largest
/// load were below it would make a smaller bottleneck feasible. On the
/// heuristic fallback it is the heuristic's `Lmax`.
fn try_jag_m_opt_view(
    view: &View<'_>,
    m: usize,
    check: Checker,
) -> Result<(Vec<Rect>, u64), RectpartError> {
    let n = view.n_main();
    let n_aux = view.n_aux();
    if n == 0 || n_aux == 0 {
        return Ok((Vec::new(), 0));
    }
    let pfx = view.prefix();
    let mut lb = pfx.lower_bound(m);
    // Incumbent: JAG-M-HEUR on the same orientation.
    let heur = try_jag_m_heur_view(view, m, isqrt(m).max(1).min(m), check)?;
    let heur_lmax = heur
        .iter()
        .map(|r| pfx.load(r))
        .max()
        .unwrap_or(pfx.total());
    let mut ub = heur_lmax;
    if ub < lb {
        // Cannot happen for correct bounds; defensive.
        lb = ub;
    }
    // Binary search the smallest feasible bottleneck. One scratch arena
    // backs every feasibility DP of the search: after the first check
    // the inner loop never touches the allocator.
    let mut scratch = SolveScratch::new();
    let mut probe_idx = 0u64;
    while lb < ub {
        check.check()?;
        // lint:allow(checked-arith) -- lb <= ub in the loop, so
        // lb + (ub-lb)/2 <= ub: no overflow possible
        let mid = lb + (ub - lb) / 2;
        rectpart_obs::trace_point(
            rectpart_obs::TraceId::JagMOptBudget,
            view.axis() as u64,
            probe_idx,
            mid,
        );
        probe_idx += 1;
        if feasible(view, m, mid, &mut scratch) {
            ub = mid;
        } else {
            lb = mid + 1;
        }
    }
    check.check()?;
    if feasible(view, m, ub, &mut scratch) {
        Ok((reconstruct(view, ub, scratch.jag_choice()), ub))
    } else {
        // The incumbent's own bottleneck is always feasible; if the DP
        // cannot see it (it can), fall back to the heuristic rectangles.
        Ok((heur, heur_lmax))
    }
}

/// Exact feasibility: can the matrix be partitioned m-way jagged with
/// bottleneck ≤ `budget`? Computes `f[k]` = minimal processor count for
/// the suffix of stripes starting at main index `k` in `scratch`'s DP
/// buffers; on success the chosen next stripe boundary per position is
/// left in `scratch.jag_choice()` for [`reconstruct`].
///
/// Deliberately serial: `f[k]` reads every `f[i > k]`, and the inner
/// loop's pruning (`break`/`continue` against the running `best`) is what
/// makes the search fast — the parallelism lives in [`reconstruct`] and
/// in the `-BEST` orientation pair running two `feasible` searches
/// concurrently (each with its own scratch).
// The `i` loop breaks early on a monotone bound and indexes `f` at two
// offsets; an enumerate-based rewrite obscures that.
#[allow(clippy::needless_range_loop)]
fn feasible(view: &View<'_>, m: usize, budget: u64, scratch: &mut SolveScratch) -> bool {
    let _span = rectpart_obs::span::enter(rectpart_obs::span::SpanKind::JagMFeasibility);
    rectpart_obs::incr(rectpart_obs::Counter::JagMFeasibilityChecks);
    rectpart_obs::work::charge(view.n_main() as u64 + 1);
    let n = view.n_main();
    let n_aux = view.n_aux();
    const INF: usize = usize::MAX;
    let (f, choice) = scratch.jag_buffers(n + 1);
    f.resize(n + 1, INF);
    choice.resize(n + 1, 0);
    f[n] = 0;
    for k in (0..n).rev() {
        let mut best = INF;
        let mut best_i = k + 1;
        for i in k + 1..=n {
            if f[i] == INF {
                continue;
            }
            let stripe_load = view.load(k, i, 0, n_aux);
            // Cheap lower bound on the stripe's processor need.
            let cheap = if budget == 0 {
                if stripe_load > 0 {
                    INF
                } else {
                    1
                }
            } else {
                (stripe_load.div_ceil(budget)).max(1) as usize
            };
            if cheap >= best {
                // `cheap` is non-decreasing in i: nothing further helps.
                // Candidates i..=n are all avoided.
                rectpart_obs::add(rectpart_obs::Counter::JagMLazySkips, (n - i + 1) as u64);
                break;
            }
            if cheap.saturating_add(f[i]) >= best {
                rectpart_obs::incr(rectpart_obs::Counter::JagMLazySkips);
                continue;
            }
            rectpart_obs::incr(rectpart_obs::Counter::JagMLazyEvals);
            if let Some(pn) = stripe_parts(view, k, i, budget, best - f[i]) {
                if pn + f[i] < best {
                    best = pn + f[i];
                    best_i = i;
                }
            }
        }
        f[k] = best;
        choice[k] = best_i;
    }
    f[0] <= m
}

/// Minimal number of auxiliary intervals covering stripe `[k, i)` with
/// every interval ≤ `budget` (greedy maximal intervals — optimal for the
/// counting problem), or `None` if impossible or the count reaches `cap`.
fn stripe_parts(view: &View<'_>, k: usize, i: usize, budget: u64, cap: usize) -> Option<usize> {
    let n_aux = view.n_aux();
    let cost = FnCost::additive(n_aux, |a, b| view.load(k, i, a, b));
    let mut lo = 0usize;
    let mut parts = 0usize;
    while lo < n_aux {
        if cost.cost(lo, lo + 1) > budget {
            return None;
        }
        lo = cost.upper_bisect(lo, lo + 1, n_aux, budget);
        parts += 1;
        if parts >= cap {
            return None;
        }
    }
    Some(parts)
}

/// Builds the rectangles of the optimal solution from the feasibility
/// DP's stripe choices at the optimal budget. The chosen cut vector's
/// stripes are independent, so each stripe's greedy auxiliary split runs
/// on its own task; the in-order collect reproduces the serial rectangle
/// order exactly.
fn reconstruct(view: &View<'_>, budget: u64, choice: &[usize]) -> Vec<Rect> {
    let n = view.n_main();
    let n_aux = view.n_aux();
    let mut stripes = Vec::new();
    let mut k = 0usize;
    while k < n {
        let i = choice[k];
        debug_assert!(i > k);
        stripes.push((k, i));
        k = i;
    }
    rectpart_parallel::flat_map_slice(&stripes, |&(k, i)| {
        let cost = FnCost::additive(n_aux, |a, b| view.load(k, i, a, b));
        let mut rects = Vec::new();
        let mut lo = 0usize;
        while lo < n_aux {
            let hi = cost.upper_bisect(lo, lo + 1, n_aux, budget);
            rects.push(view.rect(k, i, lo, hi));
            lo = hi;
        }
        rects
    })
}

/// The paper's literal dynamic-programming formulation of `JAG-M-OPT`
/// (§3.2.2):
///
/// ```text
/// Lmax(n1, m) = min_{1≤k≤n1, 1≤x≤m} max( Lmax(k−1, m−x), 1D(k, n1, x) )
/// ```
///
/// Exact and unpruned — exponential care is *not* taken, so use it only
/// on test-sized instances to validate the parametric solver. Returns the
/// optimal bottleneck for the given orientation.
pub fn jag_m_opt_dp(pfx: &PrefixSum2D, axis: crate::geometry::Axis, m: usize) -> u64 {
    let view = pfx.view(axis);
    let n = view.n_main();
    let n_aux = view.n_aux();
    let mut memo: HashMap<(usize, usize), u64> = HashMap::new();
    // The same stripe solution `nicol([k, i), x)` recurs across many
    // `(i, q)` DP states; memoize it in the shared stripe cache. The
    // recursion is serial, so one scratch arena serves every miss.
    let stripes = StripeCache::new();
    let scratch = RefCell::new(SolveScratch::new());
    fn lmax(
        view: &View<'_>,
        n_aux: usize,
        i: usize,
        q: usize,
        memo: &mut HashMap<(usize, usize), u64>,
        stripes: &StripeCache,
        scratch: &RefCell<SolveScratch>,
    ) -> u64 {
        if i == 0 {
            return 0;
        }
        if q == 0 {
            return u64::MAX;
        }
        if let Some(&v) = memo.get(&(i, q)) {
            return v;
        }
        let mut best = u64::MAX;
        for k in 0..i {
            for x in 1..=q {
                let stripe = stripes.bottleneck(view.axis(), k, i, x, || {
                    let aux = FnCost::additive(n_aux, |a, b| view.load(k, i, a, b));
                    nicol_bottleneck(&aux, x, &mut scratch.borrow_mut())
                });
                let rest = lmax(view, n_aux, k, q - x, memo, stripes, scratch);
                if rest == u64::MAX {
                    continue;
                }
                best = best.min(stripe.max(rest));
            }
        }
        memo.insert((i, q), best);
        best
    }
    lmax(&view, n_aux, n, m, &mut memo, &stripes, &scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Axis;
    use crate::jagged::{JagMHeur, JagPqHeur};
    use crate::matrix::LoadMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_pfx(rows: usize, cols: usize, seed: u64, zeros: bool) -> PrefixSum2D {
        let mut rng = StdRng::seed_from_u64(seed);
        PrefixSum2D::try_new(&LoadMatrix::from_fn(rows, cols, |_, _| {
            if zeros && rng.gen_bool(0.2) {
                0
            } else {
                rng.gen_range(1..50)
            }
        }))
        .unwrap()
    }

    #[test]
    fn pq_opt_is_valid_and_beats_heuristic() {
        for seed in 0..4 {
            let pfx = random_pfx(16, 16, seed, seed % 2 == 0);
            for m in [4, 9, 16] {
                let opt = JagPqOpt::default().partition(&pfx, m);
                assert!(opt.validate(&pfx).is_ok(), "seed={seed} m={m}");
                let heur = JagPqHeur::best().partition(&pfx, m);
                assert!(
                    opt.lmax(&pfx) <= heur.lmax(&pfx),
                    "seed={seed} m={m}: opt {} > heur {}",
                    opt.lmax(&pfx),
                    heur.lmax(&pfx)
                );
            }
        }
    }

    #[test]
    fn m_opt_is_valid_and_dominates_everything_jagged() {
        for seed in 0..4 {
            let pfx = random_pfx(12, 14, seed, seed % 2 == 1);
            for m in [2, 4, 6, 9] {
                let mo = JagMOpt::default().partition(&pfx, m);
                assert!(mo.validate(&pfx).is_ok(), "seed={seed} m={m}");
                let heur = JagMHeur::best().partition(&pfx, m);
                let pq = JagPqOpt::default().partition(&pfx, m);
                assert!(
                    mo.lmax(&pfx) <= heur.lmax(&pfx),
                    "vs heur seed={seed} m={m}"
                );
                assert!(
                    mo.lmax(&pfx) <= pq.lmax(&pfx),
                    "vs pq-opt seed={seed} m={m}"
                );
                assert!(mo.lmax(&pfx) >= pfx.lower_bound(m));
            }
        }
    }

    #[test]
    fn parametric_matches_literal_dp() {
        for seed in 0..6 {
            let pfx = random_pfx(7, 6, seed, seed % 3 == 0);
            for m in [1, 2, 3, 5] {
                for axis in [Axis::Rows, Axis::Cols] {
                    let dp = jag_m_opt_dp(&pfx, axis, m);
                    let view = pfx.view(axis);
                    let (rects, _) = try_jag_m_opt_view(&view, m, Checker::OFF).unwrap();
                    let par = rects.iter().map(|r| pfx.load(r)).max().unwrap_or(0);
                    assert_eq!(par, dp, "seed={seed} m={m} axis={axis:?}");
                }
            }
        }
    }

    #[test]
    fn m_opt_equals_lower_bound_on_uniform_powers() {
        let mat = LoadMatrix::from_fn(8, 8, |_, _| 1);
        let pfx = PrefixSum2D::try_new(&mat).unwrap();
        let p = JagMOpt::default().partition(&pfx, 16);
        assert_eq!(p.lmax(&pfx), 4); // 64 cells / 16 procs
    }

    #[test]
    fn m_opt_single_processor() {
        let pfx = random_pfx(5, 5, 3, false);
        let p = JagMOpt::default().partition(&pfx, 1);
        assert_eq!(p.lmax(&pfx), pfx.total());
        assert!(p.validate(&pfx).is_ok());
    }

    #[test]
    fn m_opt_many_processors() {
        let pfx = random_pfx(4, 4, 5, false);
        let p = JagMOpt::default().partition(&pfx, 40);
        assert!(p.validate(&pfx).is_ok());
        assert_eq!(p.lmax(&pfx), pfx.max_cell() as u64);
    }

    #[test]
    fn stripe_parts_counts_greedily() {
        let mat = LoadMatrix::from_vec(1, 6, vec![3, 3, 3, 3, 3, 3]);
        let pfx = PrefixSum2D::try_new(&mat).unwrap();
        let view = pfx.view(Axis::Rows);
        assert_eq!(stripe_parts(&view, 0, 1, 6, 100), Some(3));
        assert_eq!(stripe_parts(&view, 0, 1, 18, 100), Some(1));
        assert_eq!(stripe_parts(&view, 0, 1, 2, 100), None); // cell 3 > 2
        assert_eq!(stripe_parts(&view, 0, 1, 6, 3), None); // cap reached
    }

    #[test]
    fn stripe_cache_is_shared_across_best_orientations() {
        let pfx = random_pfx(10, 12, 2, false);
        let cache = StripeCache::new();
        jag_pq_opt_view(&pfx.view(Axis::Rows), 2, 2, &cache);
        let rows_entries = cache.len();
        assert!(rows_entries > 0);
        jag_pq_opt_view(&pfx.view(Axis::Cols), 2, 2, &cache);
        assert!(
            cache.len() > rows_entries,
            "Cols run must add axis-keyed entries"
        );
        // A repeated orientation is answered from the cache alone.
        let before = cache.len();
        jag_pq_opt_view(&pfx.view(Axis::Rows), 2, 2, &cache);
        assert_eq!(cache.len(), before);
    }

    #[test]
    fn orientation_scores_equal_partition_lmax() {
        // `-BEST` compares these scores, so each must be its answer's
        // Lmax: on zero rows, an all-zero matrix, m = 1 and m above the
        // cell count too.
        let mut instances =
            vec![PrefixSum2D::try_new(&LoadMatrix::from_fn(4, 5, |_, _| 0)).unwrap()];
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(200 + seed);
            let (rows, cols) = (rng.gen_range(1..10), rng.gen_range(1..10));
            let zero_row = rng.gen_range(0..rows);
            let mat = LoadMatrix::from_fn(rows, cols, |r, _| {
                if r == zero_row || rng.gen_bool(0.2) {
                    0
                } else {
                    rng.gen_range(1..50)
                }
            });
            instances.push(PrefixSum2D::try_new(&mat).unwrap());
        }
        for (i, pfx) in instances.iter().enumerate() {
            for m in [1, 2, 4, 9, pfx.rows() * pfx.cols() + 3] {
                let (p, q) = grid_dims(m);
                for axis in [Axis::Rows, Axis::Cols] {
                    let view = pfx.view(axis);
                    let (rects, score) = try_jag_m_opt_view(&view, m, Checker::OFF).unwrap();
                    let lmax = Partition::with_parts(rects, m).lmax(pfx);
                    assert_eq!(score, lmax, "JAG-M-OPT instance={i} m={m} {axis:?}");
                    let (rects, score) = jag_pq_opt_view(&view, p, q, &StripeCache::new());
                    let lmax = Partition::with_parts(rects, m).lmax(pfx);
                    assert_eq!(score, lmax, "JAG-PQ-OPT instance={i} m={m} {axis:?}");
                }
            }
        }
    }

    #[test]
    fn pq_opt_explicit_grid() {
        let pfx = random_pfx(10, 10, 9, false);
        let algo = JagPqOpt {
            variant: JaggedVariant::Hor,
            grid: Some((2, 3)),
        };
        let p = algo.partition(&pfx, 6);
        assert!(p.validate(&pfx).is_ok());
        assert!(p.active_parts() <= 6);
    }
}
