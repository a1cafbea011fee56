//! Nicol's optimal 1D partitioning algorithm (Nicol 1994) with
//! Pınar–Aykanat style search-range bounding ("NicolPlus", paper §2.2).
//!
//! The algorithm walks the parts left to right. For part `j` starting at
//! `low` with `r = m − j` parts remaining, it binary-searches the smallest
//! end `e` such that `Probe` can cover the rest `[e, n)` with `r − 1`
//! intervals under budget `cost(low, e)`. That load is a *candidate*
//! bottleneck (optimal if the bottleneck part of an optimal solution is
//! part `j`); the largest `e` with an infeasible probe is safely allocated
//! to part `j`. The optimum is the minimum over all candidates, and a
//! final `Probe` reconstructs the cuts.
//!
//! Bounding: candidates below the suffix lower bound
//! `⌈cost(low, n) / r⌉` are provably infeasible, so the binary search is
//! clipped to start where the budget first reaches it; a recursive-
//! bisection incumbent allows an early exit when the global lower bound is
//! already attained.

use crate::cost::IntervalCost;
use crate::cuts::Cuts;
use crate::heuristics::{recursive_bisection, recursive_bisection_into};
use crate::probe::{probe, probe_feasible, probe_suffix_feasible};
use crate::scratch::SolveScratch;

/// Result of an (optimal or heuristic) 1D partitioning run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OneDimResult {
    /// The partition.
    pub cuts: Cuts,
    /// Load of the most loaded interval.
    pub bottleneck: u64,
}

/// Marker error returned by the cancellation-aware solver entry points
/// ([`try_nicol_in`]) when the armed work-unit deadline
/// ([`rectpart_obs::cancel`]) fires at a candidate checkpoint. Carries
/// no payload: the caller maps it into its own error taxonomy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "1D solve cancelled at a work-meter checkpoint")
    }
}

impl std::error::Error for Cancelled {}

/// Optimal 1D partitioning of the whole sequence into `m` intervals.
///
/// `O((m log n)²)` cost queries in the worst case, far fewer with the
/// bound clipping. Works for any monotone [`IntervalCost`].
///
/// ```
/// use rectpart_onedim::{nicol, PrefixCosts};
///
/// let cost = PrefixCosts::from_loads(&[3u64, 1, 4, 1, 5, 9, 2, 6]);
/// let opt = nicol(&cost, 3);
/// assert_eq!(opt.bottleneck, 14); // e.g. [3,1,4,1] [5,9] [2,6] -> max 14
/// assert_eq!(opt.cuts.parts(), 3);
/// ```
pub fn nicol<C: IntervalCost>(c: &C, m: usize) -> OneDimResult {
    nicol_in(c, m, &mut SolveScratch::new())
}

/// [`nicol`] with caller-owned scratch: the recursive-bisection
/// incumbent is built inside `scratch`, so a loop that solves many 1D
/// problems (per-stripe solves, refinement sweeps) reuses one buffer
/// instead of allocating per call. Only the returned [`Cuts`] allocate.
pub fn nicol_in<C: IntervalCost>(c: &C, m: usize, scratch: &mut SolveScratch) -> OneDimResult {
    match try_nicol_in_polling(c, m, scratch, false) {
        Ok(r) => r,
        // With polling off the search never cancels; a valid one-part
        // fallback discharges the arm without a panic path.
        Err(Cancelled) => one_part_fallback(c, m),
    }
}

/// Cancellation-aware [`nicol_in`]: polls the armed work-unit deadline
/// ([`rectpart_obs::cancel`]) once per candidate part — the existing
/// serial work-meter checkpoint of the candidate walk — and returns
/// `Err(Cancelled)` instead of completing the solve. Identical to
/// [`nicol_in`] (bit-for-bit) whenever it returns `Ok`.
pub fn try_nicol_in<C: IntervalCost>(
    c: &C,
    m: usize,
    scratch: &mut SolveScratch,
) -> Result<OneDimResult, Cancelled> {
    try_nicol_in_polling(c, m, scratch, true)
}

/// All rectangles to the first part: the panic-free discharge of the
/// unreachable `Err` arm of the non-polling search.
fn one_part_fallback<C: IntervalCost>(c: &C, m: usize) -> OneDimResult {
    let n = c.len();
    let mut points = vec![n; m + 1];
    if let Some(first) = points.first_mut() {
        *first = 0;
    }
    OneDimResult {
        bottleneck: c.cost(0, n),
        cuts: Cuts::new(points),
    }
}

fn try_nicol_in_polling<C: IntervalCost>(
    c: &C,
    m: usize,
    scratch: &mut SolveScratch,
    poll: bool,
) -> Result<OneDimResult, Cancelled> {
    assert!(m >= 1);
    rectpart_obs::incr(rectpart_obs::Counter::NicolCalls);
    let _span = rectpart_obs::span::enter(rectpart_obs::span::SpanKind::NicolSolve);
    let n = c.len();
    if n == 0 {
        return Ok(OneDimResult {
            cuts: Cuts::new(vec![0; m + 1]),
            bottleneck: 0,
        });
    }
    // Incumbent from the RB heuristic; enables the lb_global early exit.
    let incumbent = {
        let _s = rectpart_obs::span::enter(rectpart_obs::span::SpanKind::NicolIncumbent);
        rb_incumbent(c, m, scratch)
    };
    let best = {
        let _s = rectpart_obs::span::enter(rectpart_obs::span::SpanKind::NicolBisect);
        nicol_search_polling(c, m, incumbent, poll)?
    };
    let _s = rectpart_obs::span::enter(rectpart_obs::span::SpanKind::NicolReconstruct);
    // lint:allow(panic) -- invariant: `best` was returned feasible by the search above; re-probing at it cannot fail
    let cuts = probe(c, m, best).expect("invariant: Nicol bottleneck must be feasible");
    debug_assert_eq!(cuts.bottleneck(c), best, "probe must attain the optimum");
    Ok(OneDimResult {
        cuts,
        bottleneck: best,
    })
}

/// Bottleneck-only variant of [`nicol`] for the stripe-cost hot loops:
/// skips the final reconstruction probe and builds its recursive-
/// bisection incumbent inside `scratch` instead of allocating, so a
/// warmed-up solve touches the heap only when a buffer must grow.
/// Returns exactly `nicol(c, m).bottleneck`.
pub fn nicol_bottleneck<C: IntervalCost>(c: &C, m: usize, scratch: &mut SolveScratch) -> u64 {
    assert!(m >= 1);
    rectpart_obs::incr(rectpart_obs::Counter::NicolCalls);
    let _span = rectpart_obs::span::enter(rectpart_obs::span::SpanKind::NicolSolve);
    let n = c.len();
    if n == 0 {
        return 0;
    }
    let incumbent = {
        let _s = rectpart_obs::span::enter(rectpart_obs::span::SpanKind::NicolIncumbent);
        rb_incumbent(c, m, scratch)
    };
    let _s = rectpart_obs::span::enter(rectpart_obs::span::SpanKind::NicolBisect);
    // Never cancels with polling off; the incumbent is a feasible value.
    nicol_search_polling(c, m, incumbent, false).unwrap_or(incumbent)
}

/// Recursive-bisection incumbent bottleneck, built in `scratch`.
fn rb_incumbent<C: IntervalCost>(c: &C, m: usize, scratch: &mut SolveScratch) -> u64 {
    let points = scratch.points(m + 1);
    recursive_bisection_into(c, m, points);
    points
        .windows(2)
        .map(|w| c.cost(w[0], w[1]))
        .max()
        .unwrap_or(0)
}

/// The candidate walk shared by [`nicol`] and [`nicol_bottleneck`]:
/// returns the optimal bottleneck given a feasible `incumbent` value.
/// With `poll` set, the armed work-unit deadline is checked once per
/// candidate part (the same granularity the meter is charged at); with
/// it clear, the walk never returns `Err`.
fn nicol_search_polling<C: IntervalCost>(
    c: &C,
    m: usize,
    incumbent: u64,
    poll: bool,
) -> Result<u64, Cancelled> {
    let n = c.len();
    let lb_global = c.partition_lower_bound(0, m).max(c.max_unit_cost());
    let mut best = incumbent;
    // Accumulated locally; charged to the work meter once on return.
    let mut steps = 0u64;
    let mut low = 0usize;
    for j in 0..m {
        if poll && rectpart_obs::cancel::requested() {
            // Charge the steps taken so far: a cancelled solve's charges
            // are discarded wholesale by the resume protocol, but the
            // meter must never under-report inside this process.
            rectpart_obs::work::charge(steps + 1);
            return Err(Cancelled);
        }
        if best == lb_global || low == n {
            break;
        }
        let r = m - j;
        if r == 1 {
            best = best.min(c.cost(low, n));
            break;
        }
        // Budgets below the suffix lower bound cannot cover the suffix
        // with r parts (sound only for additive costs, where the bound is
        // the suffix average; 0 otherwise), so the probe predicate is
        // provably false there: clip the search.
        let lb_suffix = c.partition_lower_bound(low, r);
        let elo = c.lower_bisect(low, low, n, lb_suffix);
        // Smallest e with Probe(cost(low, e)) feasible on [e, n) in r-1 parts.
        let (mut a, mut b) = (elo, n);
        while a < b {
            rectpart_obs::incr(rectpart_obs::Counter::NicolSearchSteps);
            steps += 1;
            let mid = a + (b - a) / 2;
            if probe_suffix_feasible(c, mid, r - 1, c.cost(low, mid)) {
                b = mid;
            } else {
                a = mid + 1;
            }
        }
        let candidate = c.cost(low, a);
        best = best.min(candidate);
        // Largest infeasible end is a-1: allocate it to part j.
        low = if a > low { a - 1 } else { low };
    }
    rectpart_obs::work::charge(steps + 1);
    Ok(best)
}

/// Branch-and-bound variant: returns `None` without computing the exact
/// optimum when it provably exceeds `cutoff` (a single probe decides), and
/// the exact [`nicol`] result otherwise. Used by the `JAG-M-OPT` dynamic
/// program, which can discard stripe subproblems whose bottleneck already
/// exceeds the incumbent solution.
pub fn nicol_bounded<C: IntervalCost>(c: &C, m: usize, cutoff: u64) -> Option<OneDimResult> {
    if !probe_feasible(c, m, cutoff) {
        return None;
    }
    Some(nicol(c, m))
}

/// The folklore *parametric bisection* optimal algorithm: binary search
/// the bottleneck value over `[lower bound, RB incumbent]` with one
/// [`probe`] per step. `O(m log n · log(total))` cost queries — usually
/// slower than [`nicol`] (whose candidate values are interval loads, not
/// all integers) but trivially correct, so the test-suite uses it as a
/// third independent optimal solver. Exact for any monotone cost.
pub fn parametric_optimal<C: IntervalCost>(c: &C, m: usize) -> OneDimResult {
    assert!(m >= 1);
    let _span = rectpart_obs::span::enter(rectpart_obs::span::SpanKind::ParametricSolve);
    let n = c.len();
    if n == 0 {
        return OneDimResult {
            cuts: Cuts::new(vec![0; m + 1]),
            bottleneck: 0,
        };
    }
    let mut lo = c.partition_lower_bound(0, m).max(c.max_unit_cost());
    let mut hi = recursive_bisection(c, m).bottleneck(c);
    // Accumulated locally; charged to the work meter once after the loop.
    let mut steps = 0u64;
    while lo < hi {
        rectpart_obs::incr(rectpart_obs::Counter::ParametricSteps);
        steps += 1;
        // lint:allow(checked-arith) -- lo <= hi in the loop, so
        // lo + (hi-lo)/2 <= hi: no overflow possible
        let mid = lo + (hi - lo) / 2;
        if probe_feasible(c, m, mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    rectpart_obs::work::charge(steps + 1);
    // lint:allow(panic) -- invariant: bisection keeps `hi` feasible at every step, starting from a constructed feasible bound
    let cuts = probe(c, m, hi).expect("invariant: bisection result must be feasible");
    OneDimResult {
        cuts,
        bottleneck: hi,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{FnCost, PrefixCosts};
    use crate::dp::dp_optimal;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn matches_dp_on_fixed_cases() {
        let cases: &[&[u64]] = &[
            &[3, 1, 4, 1, 5, 9, 2, 6],
            &[10, 1, 1, 1, 1, 1, 1, 10],
            &[0, 0, 7, 0, 0],
            &[1],
            &[5, 5, 5, 5],
            &[100, 1, 100],
            &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        ];
        for loads in cases {
            let c = PrefixCosts::from_loads(loads);
            for m in 1..=loads.len() + 2 {
                let a = nicol(&c, m);
                let b = dp_optimal(&c, m.min(loads.len().max(1)));
                if m <= loads.len() {
                    assert_eq!(a.bottleneck, b.bottleneck, "loads={loads:?} m={m}");
                }
                assert!(a.cuts.validate(loads.len(), m).is_ok());
                assert_eq!(a.cuts.bottleneck(&c), a.bottleneck);
            }
        }
    }

    #[test]
    fn matches_dp_on_random_arrays() {
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..60 {
            let n = rng.gen_range(1..40);
            let loads: Vec<u64> = (0..n)
                .map(|_| {
                    if rng.gen_bool(0.15) {
                        0
                    } else {
                        rng.gen_range(1..100)
                    }
                })
                .collect();
            let c = PrefixCosts::from_loads(&loads);
            for m in [1, 2, 3, 5, 8] {
                let a = nicol(&c, m).bottleneck;
                let b = dp_optimal(&c, m).bottleneck;
                assert_eq!(a, b, "trial={trial} loads={loads:?} m={m}");
            }
        }
    }

    #[test]
    fn works_on_non_additive_monotone_cost() {
        // max-over-two-stripes cost, as used by RECT-NICOL refinement.
        let s1 = [4u64, 1, 1, 8, 2, 2];
        let s2 = [1u64, 9, 1, 1, 1, 5];
        let p1 = PrefixCosts::from_loads(&s1);
        let p2 = PrefixCosts::from_loads(&s2);
        let c = FnCost::new(6, move |lo, hi| p1.cost(lo, hi).max(p2.cost(lo, hi)));
        for m in 1..=6 {
            let r = nicol(&c, m);
            assert!(r.cuts.validate(6, m).is_ok());
            // brute force over all cut placements
            let brute = brute_monotone(&c, m);
            assert_eq!(r.bottleneck, brute, "m={m}");
        }
    }

    fn brute_monotone<C: IntervalCost>(c: &C, m: usize) -> u64 {
        fn rec<C: IntervalCost>(c: &C, lo: usize, m: usize) -> u64 {
            let n = c.len();
            if m == 1 {
                return c.cost(lo, n);
            }
            (lo..=n)
                .map(|k| c.cost(lo, k).max(rec(c, k, m - 1)))
                .min()
                .unwrap()
        }
        rec(c, 0, m)
    }

    #[test]
    fn empty_sequence() {
        let c = PrefixCosts::from_loads::<u64>(&[]);
        let r = nicol(&c, 3);
        assert_eq!(r.bottleneck, 0);
        assert_eq!(r.cuts.parts(), 3);
    }

    #[test]
    fn bottleneck_variant_matches_full_solver() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut scratch = crate::scratch::SolveScratch::new();
        for _ in 0..40 {
            let n = rng.gen_range(0..50);
            let loads: Vec<u64> = (0..n).map(|_| rng.gen_range(0..90)).collect();
            let c = PrefixCosts::from_loads(&loads);
            for m in [1, 2, 3, 7, 12] {
                assert_eq!(
                    nicol_bottleneck(&c, m, &mut scratch),
                    nicol(&c, m).bottleneck,
                    "loads={loads:?} m={m}"
                );
            }
        }
        // And over a non-additive monotone oracle.
        let p1 = PrefixCosts::from_loads(&[4u64, 1, 9, 2, 2, 7]);
        let p2 = PrefixCosts::from_loads(&[1u64, 8, 1, 3, 5, 1]);
        let c = FnCost::new(6, move |lo, hi| p1.cost(lo, hi).max(p2.cost(lo, hi)));
        for m in 1..=6 {
            assert_eq!(
                nicol_bottleneck(&c, m, &mut scratch),
                nicol(&c, m).bottleneck
            );
        }
    }

    #[test]
    fn bounded_rejects_when_cutoff_below_optimum() {
        let c = PrefixCosts::from_loads(&[5u64, 5, 5, 5]);
        let opt = nicol(&c, 2).bottleneck;
        assert_eq!(opt, 10);
        assert!(nicol_bounded(&c, 2, 9).is_none());
        assert_eq!(nicol_bounded(&c, 2, 10).unwrap().bottleneck, 10);
        assert_eq!(nicol_bounded(&c, 2, 100).unwrap().bottleneck, 10);
    }

    #[test]
    fn parametric_bisection_matches_nicol() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..40 {
            let n = rng.gen_range(1..60);
            let loads: Vec<u64> = (0..n).map(|_| rng.gen_range(0..80)).collect();
            let c = PrefixCosts::from_loads(&loads);
            for m in [1, 2, 4, 9] {
                assert_eq!(
                    parametric_optimal(&c, m).bottleneck,
                    nicol(&c, m).bottleneck,
                    "loads={loads:?} m={m}"
                );
            }
        }
        // And over a non-additive monotone oracle.
        let p1 = PrefixCosts::from_loads(&[4u64, 1, 9, 2, 2, 7]);
        let p2 = PrefixCosts::from_loads(&[1u64, 8, 1, 3, 5, 1]);
        let c = FnCost::new(6, move |lo, hi| p1.cost(lo, hi).max(p2.cost(lo, hi)));
        for m in 1..=6 {
            assert_eq!(
                parametric_optimal(&c, m).bottleneck,
                nicol(&c, m).bottleneck
            );
        }
    }

    #[test]
    fn single_part() {
        let c = PrefixCosts::from_loads(&[2u64, 3, 4]);
        let r = nicol(&c, 1);
        assert_eq!(r.bottleneck, 9);
        assert_eq!(r.cuts.points(), &[0, 3]);
    }

    #[test]
    fn all_zero_loads() {
        let c = PrefixCosts::from_loads(&[0u64; 10]);
        let r = nicol(&c, 4);
        assert_eq!(r.bottleneck, 0);
        assert!(r.cuts.validate(10, 4).is_ok());
    }
}
