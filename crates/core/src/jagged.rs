//! Jagged partition heuristics (§3.2): `JAG-PQ-HEUR` and the paper's new
//! `JAG-M-HEUR`.
//!
//! A jagged partition splits the *main* dimension into `P` stripes with an
//! optimal 1D algorithm; each stripe is then partitioned independently
//! along the auxiliary dimension. `P×Q`-way partitions give every stripe
//! the same `Q` processors; *m-way* partitions (the paper's contribution)
//! distribute the `m` processors across stripes proportionally to the
//! stripe loads, which Theorem 3 shows improves the worst case and §4
//! shows dominates in practice.

use rectpart_onedim::{nicol, Cuts, FnCost, SolveScratch};

use crate::cancel::Checker;
use crate::error::RectpartError;
use crate::geometry::{Axis, Rect};
use crate::prefix::{PrefixSum2D, View};
use crate::solution::Partition;
use crate::traits::{grid_dims, isqrt, Partitioner};

/// Orientation policy for jagged partitioners (paper §4.1): which
/// dimension is the main (striped) one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum JaggedVariant {
    /// Stripes along rows (`-HOR`).
    Hor,
    /// Stripes along columns (`-VER`).
    Ver,
    /// Try both orientations, keep the better (`-BEST`). The paper's
    /// default for the jagged heuristics, since they are cheap enough to
    /// run twice.
    #[default]
    Best,
}

impl JaggedVariant {
    pub(crate) fn suffix(self) -> &'static str {
        match self {
            JaggedVariant::Hor => "HOR",
            JaggedVariant::Ver => "VER",
            JaggedVariant::Best => "BEST",
        }
    }

    /// Runs `f` for the orientation(s) selected; under `-BEST` keeps the
    /// answer with the lower `lmax` (the first on a tie). Every jagged
    /// family scores its answers with the bottleneck its solve already
    /// holds, where [`Partition::lmax`] would query Γ once per rectangle
    /// (on sparse Γ, a scan of its rows).
    ///
    /// Both orientations of `-BEST` run on separate tasks; if either
    /// observes the cancellation deadline the whole solve reports
    /// `Cancelled` — partial work is discarded wholesale, so the
    /// nondeterministic interleaving of the two tasks never leaks into a
    /// completed result.
    pub(crate) fn pick<T: Send, E: Send>(
        self,
        pfx: &PrefixSum2D,
        f: impl Fn(View<'_>) -> Result<T, E> + Sync,
        lmax: impl Fn(&T) -> u64,
    ) -> Result<T, E> {
        match self {
            JaggedVariant::Hor => f(pfx.view(Axis::Rows)),
            JaggedVariant::Ver => f(pfx.view(Axis::Cols)),
            JaggedVariant::Best => {
                // The two orientations are independent: evaluate them on
                // separate tasks (deterministic — both are pure).
                let (a, b) =
                    rectpart_parallel::join(|| f(pfx.view(Axis::Rows)), || f(pfx.view(Axis::Cols)));
                let (a, b) = (a?, b?);
                Ok(if lmax(&a) <= lmax(&b) { a } else { b })
            }
        }
    }
}

/// `JAG-PQ-HEUR` (§3.2.1): optimal 1D split of the main-dimension
/// projection into `P` stripes, then an optimal 1D split of each stripe
/// into `Q` rectangles. A `(1 + ΔP/n1)(1 + ΔQ/n2)`-approximation on
/// positive matrices (Theorem 1).
#[derive(Clone, Debug, Default)]
pub struct JagPqHeur {
    /// Orientation policy.
    pub variant: JaggedVariant,
    /// Explicit `(P, Q)`; defaults to the near-square factorization of `m`.
    pub grid: Option<(usize, usize)>,
}

impl JagPqHeur {
    /// The paper's default configuration (`-BEST`).
    pub fn best() -> Self {
        Self::default()
    }
}

impl Partitioner for JagPqHeur {
    fn name(&self) -> String {
        format!("JAG-PQ-HEUR-{}", self.variant.suffix())
    }

    fn partition(&self, pfx: &PrefixSum2D, m: usize) -> Partition {
        assert!(m >= 1);
        let (p, q) = self.grid.unwrap_or_else(|| grid_dims(m));
        assert!(p * q <= m, "grid {p}x{q} exceeds {m} processors");
        self.variant
            .pick(
                pfx,
                |view| pq_heur_view(&view, m, p, q, Checker::OFF),
                |s| s.1,
            )
            .map_or_else(|_| one_part_partition(pfx, m), |(part, _)| part)
    }

    fn try_partition(&self, pfx: &PrefixSum2D, m: usize) -> Result<Partition, RectpartError> {
        if m == 0 {
            return Err(RectpartError::ZeroParts);
        }
        let (p, q) = self.grid.unwrap_or_else(|| grid_dims(m));
        assert!(p * q <= m, "grid {p}x{q} exceeds {m} processors");
        let check = Checker::active();
        self.variant
            .pick(pfx, |view| pq_heur_view(&view, m, p, q, check), |s| s.1)
            .map(|(part, _)| part)
    }
}

/// The `JAG-PQ-HEUR` core on a fixed orientation, with the partition's
/// `Lmax`. The main-dimension cut is the serial cancellation checkpoint;
/// the per-stripe solves are independent parallel quanta and run to
/// completion once launched.
fn pq_heur_view(
    view: &View<'_>,
    m: usize,
    p: usize,
    q: usize,
    check: Checker,
) -> Result<(Partition, u64), RectpartError> {
    let main = main_cuts(view, p, check)?;
    check.check()?;
    let tasks: Vec<((usize, usize), usize)> = main
        .intervals()
        .filter(|(a, b)| a < b)
        .map(|stripe| (stripe, q))
        .collect();
    let (rects, lmax) = solve_stripes(view, &tasks);
    Ok((Partition::with_parts(rects, m), lmax))
}

/// Discharges the unreachable `Err` arm of the infallible entry points:
/// with [`Checker::OFF`] the checked cores can never cancel, but the
/// fallback must still be a valid partition rather than a panic.
pub(crate) fn one_part_partition(pfx: &PrefixSum2D, m: usize) -> Partition {
    Partition::with_parts(vec![Rect::new(0, pfx.rows(), 0, pfx.cols())], m)
}

/// Stripe-count policy for [`JagMHeur`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum StripeCount {
    /// `P = ⌊√m⌋` — the paper's practical choice (§3.2.2: the Theorem 4
    /// optimum depends on Δ, which extremal cells make unreliable).
    #[default]
    SqrtM,
    /// Fixed stripe count (used by the figure-9 sensitivity sweep).
    Fixed(usize),
    /// The Theorem 4 continuous optimum
    /// `P = m(√(Δ(Δ+n2)) − Δ)/n2`, rounded and clamped; falls back to
    /// `⌊√m⌋` when Δ is undefined (matrix contains zeros).
    TheoremFour,
}

/// `JAG-M-HEUR` (§3.2.2, new in the paper): optimal 1D split of the main
/// projection into `P` stripes, then each stripe `S` receives
/// `QS = ⌈(m−P)·L(S)/L⌉` processors (plus a greedy distribution of the
/// remainder to the stripes maximizing load-per-processor) and is split
/// optimally into `QS` rectangles.
#[derive(Clone, Debug, Default)]
pub struct JagMHeur {
    /// Orientation policy.
    pub variant: JaggedVariant,
    /// Stripe-count policy.
    pub stripes: StripeCount,
}

impl JagMHeur {
    /// The paper's default configuration (`-BEST`, `P = ⌊√m⌋`).
    pub fn best() -> Self {
        Self::default()
    }

    /// Fixed stripe count, `-BEST` orientation.
    pub fn with_stripes(p: usize) -> Self {
        Self {
            variant: JaggedVariant::Best,
            stripes: StripeCount::Fixed(p),
        }
    }

    fn resolve_p(&self, pfx: &PrefixSum2D, view: &View<'_>, m: usize) -> usize {
        let p = match self.stripes {
            StripeCount::SqrtM => isqrt(m).max(1),
            StripeCount::Fixed(p) => p,
            StripeCount::TheoremFour => match pfx.delta() {
                Some(delta) => {
                    crate::bounds::jag_m_heur_best_p(delta, m, view.n_aux()).round() as usize
                }
                None => isqrt(m).max(1),
            },
        };
        p.clamp(1, m.min(view.n_main().max(1)))
    }

    fn solve(
        &self,
        pfx: &PrefixSum2D,
        m: usize,
        check: Checker,
    ) -> Result<Partition, RectpartError> {
        let solve = |view: View<'_>| {
            let p = self.resolve_p(pfx, &view, m);
            let (rects, lmax) = m_heur_stripes(&view, m, p, check)?;
            Ok((Partition::with_parts(rects, m), lmax))
        };
        self.variant.pick(pfx, solve, |s| s.1).map(|(part, _)| part)
    }
}

impl Partitioner for JagMHeur {
    fn name(&self) -> String {
        let stripes = match self.stripes {
            StripeCount::SqrtM => String::new(),
            StripeCount::Fixed(p) => format!("-P{p}"),
            StripeCount::TheoremFour => "-THM4".into(),
        };
        format!("JAG-M-HEUR-{}{stripes}", self.variant.suffix())
    }

    fn partition(&self, pfx: &PrefixSum2D, m: usize) -> Partition {
        assert!(m >= 1);
        self.solve(pfx, m, Checker::OFF)
            .unwrap_or_else(|_| one_part_partition(pfx, m))
    }

    fn try_partition(&self, pfx: &PrefixSum2D, m: usize) -> Result<Partition, RectpartError> {
        if m == 0 {
            return Err(RectpartError::ZeroParts);
        }
        self.solve(pfx, m, Checker::active())
    }
}

/// Cancellation-aware `JAG-M-HEUR` core on a fixed orientation,
/// returning the raw rectangles; also used by `JAG-M-OPT` to seed its
/// upper bound. The main-dimension cut and the inter-phase boundary poll
/// the deadline; the per-stripe solves are uninterruptible parallel
/// quanta.
pub(crate) fn try_jag_m_heur_view(
    view: &View<'_>,
    m: usize,
    p: usize,
    check: Checker,
) -> Result<Vec<Rect>, RectpartError> {
    m_heur_stripes(view, m, p, check).map(|(rects, _)| rects)
}

/// [`try_jag_m_heur_view`] with the rectangles' `Lmax`.
fn m_heur_stripes(
    view: &View<'_>,
    m: usize,
    p: usize,
    check: Checker,
) -> Result<(Vec<Rect>, u64), RectpartError> {
    let main = main_cuts(view, p, check)?;
    check.check()?;
    let stripes: Vec<(usize, usize)> = main.intervals().filter(|(a, b)| a < b).collect();
    let loads: Vec<u64> = stripes
        .iter()
        .map(|&(s0, s1)| view.load(s0, s1, 0, view.n_aux()))
        .collect();
    let procs = allocate_processors(&loads, m, p.min(m));
    let tasks: Vec<((usize, usize), usize)> = stripes.into_iter().zip(procs).collect();
    Ok(solve_stripes(view, &tasks))
}

/// Optimal 1D cuts of the main-dimension projection (no materialized
/// projection: interval loads come straight from Γ, §3.2.1). Polls the
/// cancellation deadline once per candidate part when `check` is live.
fn main_cuts(view: &View<'_>, p: usize, check: Checker) -> Result<Cuts, RectpartError> {
    let n_aux = view.n_aux();
    let cost = FnCost::additive(view.n_main(), |a, b| view.load(a, b, 0, n_aux));
    let mut scratch = SolveScratch::new();
    Ok(check.nicol_in(&cost, p, &mut scratch)?.cuts)
}

/// Cuts every stripe `[s0, s1)` of `tasks` optimally into its `q`
/// rectangles along the auxiliary dimension. Returns the rectangles in
/// stripe order and the largest load among them.
fn solve_stripes(view: &View<'_>, tasks: &[((usize, usize), usize)]) -> (Vec<Rect>, u64) {
    // Stripes are independent 1D problems (paper §3.2.1): fan out; the
    // in-order collect keeps the processor numbering deterministic.
    let solved = rectpart_parallel::map_slice(tasks, |&((s0, s1), q)| {
        let stripe = nicol(&view.stripe_cost(s0, s1), q);
        let rects: Vec<Rect> = stripe
            .cuts
            .intervals()
            .filter(|(a0, a1)| a0 < a1)
            .map(|(a0, a1)| view.rect(s0, s1, a0, a1))
            .collect();
        (rects, stripe.bottleneck)
    });
    let lmax = solved.iter().map(|&(_, b)| b).max().unwrap_or(0);
    (
        solved.into_iter().flat_map(|(rects, _)| rects).collect(),
        lmax,
    )
}

/// Distributes `m` processors over stripes proportionally to their loads
/// (paper §3.2.2): `QS = max(1, ⌈(m−P)·loadS/total⌉)`, then adjusts to
/// sum exactly to `m` by greedily adding to (or removing from) the
/// stripe with the highest (lowest) load per processor. `p` is the
/// stripe count whose worth of processors is held back before the
/// proportional rounding (the paper's `m − P` trick that makes the
/// ceilings safe).
///
/// Exposed for reuse by higher-dimensional jagged partitioners.
pub fn allocate_processors(loads: &[u64], m: usize, p: usize) -> Vec<usize> {
    let stripes = loads.len();
    assert!(stripes <= m, "more stripes than processors");
    if stripes == 0 {
        return Vec::new();
    }
    let total: u64 = loads.iter().sum();
    let spare = (m - p.min(m)) as u128;
    let mut procs: Vec<usize> = loads
        .iter()
        .map(|&l| {
            if total == 0 {
                1
            } else {
                let q = (spare * l as u128).div_ceil(total as u128) as usize;
                q.max(1)
            }
        })
        .collect();
    let mut sum: usize = procs.iter().sum();
    // Trim (only possible when zero-load stripes were forced to 1 or the
    // ceilings collided): remove from the stripe with the lowest
    // load-per-processor after removal.
    while sum > m {
        let victim = loads
            .iter()
            .zip(&procs)
            .enumerate()
            .filter(|&(_, (_, &q))| q > 1)
            .min_by(|&(_, (&la, &qa)), &(_, (&lb, &qb))| {
                let ka = la as u128 * (qb - 1) as u128;
                let kb = lb as u128 * (qa - 1) as u128;
                ka.cmp(&kb)
            })
            .map(|(s, _)| s)
            // lint:allow(panic) -- invariant: sum > m >= stripes, so some stripe still holds at least two processors
            .expect("invariant: sum > m leaves a stripe with procs > 1");
        if let Some(q) = procs.get_mut(victim) {
            *q -= 1;
        }
        sum -= 1;
    }
    // Distribute the leftovers to the stripe with the highest load per
    // currently assigned processor (paper §3.2.2).
    while sum < m {
        let target = loads
            .iter()
            .zip(&procs)
            .enumerate()
            .max_by(|&(_, (&la, &qa)), &(_, (&lb, &qb))| {
                let ka = la as u128 * qb as u128;
                let kb = lb as u128 * qa as u128;
                ka.cmp(&kb)
            })
            .map(|(s, _)| s)
            // lint:allow(panic) -- invariant: stripes >= 1, so the max over stripe indices exists
            .expect("invariant: at least one stripe to receive leftovers");
        if let Some(q) = procs.get_mut(target) {
            *q += 1;
        }
        sum += 1;
    }
    procs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::LoadMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_pfx(rows: usize, cols: usize, seed: u64) -> PrefixSum2D {
        let mut rng = StdRng::seed_from_u64(seed);
        PrefixSum2D::try_new(&LoadMatrix::from_fn(rows, cols, |_, _| {
            rng.gen_range(1..100)
        }))
        .unwrap()
    }

    #[test]
    fn pq_heur_produces_valid_partitions() {
        let pfx = random_pfx(24, 18, 1);
        for m in [1, 2, 4, 9, 12, 16, 25] {
            for variant in [JaggedVariant::Hor, JaggedVariant::Ver, JaggedVariant::Best] {
                let algo = JagPqHeur {
                    variant,
                    grid: None,
                };
                let part = algo.partition(&pfx, m);
                assert!(part.validate(&pfx).is_ok(), "m={m} {variant:?}");
                assert_eq!(part.parts(), m);
            }
        }
    }

    #[test]
    fn m_heur_produces_valid_partitions() {
        let pfx = random_pfx(24, 18, 2);
        for m in [1, 2, 5, 9, 13, 16, 30] {
            for variant in [JaggedVariant::Hor, JaggedVariant::Ver, JaggedVariant::Best] {
                let algo = JagMHeur {
                    variant,
                    stripes: StripeCount::SqrtM,
                };
                let part = algo.partition(&pfx, m);
                assert!(part.validate(&pfx).is_ok(), "m={m} {variant:?}");
            }
        }
    }

    #[test]
    fn best_variant_picks_minimum() {
        let pfx = random_pfx(16, 48, 3);
        let hor = JagPqHeur {
            variant: JaggedVariant::Hor,
            grid: None,
        }
        .partition(&pfx, 8)
        .lmax(&pfx);
        let ver = JagPqHeur {
            variant: JaggedVariant::Ver,
            grid: None,
        }
        .partition(&pfx, 8)
        .lmax(&pfx);
        let best = JagPqHeur::best().partition(&pfx, 8).lmax(&pfx);
        assert_eq!(best, hor.min(ver));
    }

    #[test]
    fn m_heur_beats_or_matches_pq_heur_on_skewed_instances() {
        // Strong diagonal concentration rewards uneven per-stripe counts.
        let mat = LoadMatrix::from_fn(32, 32, |r, c| {
            let d = (r as i64 - c as i64).unsigned_abs() as u32;
            1 + 1000 / (1 + d)
        });
        let pfx = PrefixSum2D::try_new(&mat).unwrap();
        let mut wins = 0;
        let mut ties = 0;
        for m in [16, 25, 36, 49, 64] {
            let pq = JagPqHeur::best().partition(&pfx, m).lmax(&pfx);
            let mw = JagMHeur::best().partition(&pfx, m).lmax(&pfx);
            if mw < pq {
                wins += 1;
            } else if mw == pq {
                ties += 1;
            }
        }
        assert!(
            wins + ties >= 4,
            "m-way should rarely lose to PxQ (wins={wins}, ties={ties})"
        );
    }

    #[test]
    fn allocate_processors_proportional() {
        let procs = allocate_processors(&[100, 100, 200], 8, 3);
        assert_eq!(procs.iter().sum::<usize>(), 8);
        assert!(procs[2] >= procs[0]);
        assert!(procs.iter().all(|&q| q >= 1));
    }

    #[test]
    fn allocate_processors_zero_load_stripes() {
        let procs = allocate_processors(&[0, 50, 0], 5, 3);
        assert_eq!(procs.iter().sum::<usize>(), 5);
        assert!(procs.iter().all(|&q| q >= 1));
        assert_eq!(procs[1], 3);
    }

    #[test]
    fn allocate_processors_all_zero() {
        let procs = allocate_processors(&[0, 0], 4, 2);
        assert_eq!(procs.iter().sum::<usize>(), 4);
    }

    #[test]
    fn allocate_processors_exact_fit() {
        let procs = allocate_processors(&[10, 10, 10, 10], 4, 4);
        assert_eq!(procs, vec![1, 1, 1, 1]);
    }

    #[test]
    fn theorem_guarantee_holds_on_positive_matrices() {
        use crate::bounds::{jag_m_heur_ratio, jag_pq_heur_ratio};
        let pfx = random_pfx(40, 40, 7);
        let delta = pfx.delta().unwrap();
        for m in [9, 16, 25] {
            let (p, q) = grid_dims(m);
            let pq = JagPqHeur::best().partition(&pfx, m);
            let ratio = pq.lmax(&pfx) as f64 / pfx.average_load(m);
            let bound = jag_pq_heur_ratio(delta, p, q, 40, 40);
            assert!(ratio <= bound + 1e-9, "PQ m={m}: {ratio} > {bound}");

            let p = isqrt(m);
            if p < m {
                let mw = JagMHeur::best().partition(&pfx, m);
                let ratio = mw.lmax(&pfx) as f64 / pfx.average_load(m);
                let bound = jag_m_heur_ratio(delta, p, m, 40, 40);
                assert!(ratio <= bound + 1e-9, "M m={m}: {ratio} > {bound}");
            }
        }
    }

    #[test]
    fn stripe_count_policies() {
        let pfx = random_pfx(30, 30, 11);
        for stripes in [
            StripeCount::SqrtM,
            StripeCount::Fixed(3),
            StripeCount::Fixed(12),
            StripeCount::TheoremFour,
        ] {
            let algo = JagMHeur {
                variant: JaggedVariant::Best,
                stripes,
            };
            let part = algo.partition(&pfx, 12);
            assert!(part.validate(&pfx).is_ok(), "{stripes:?}");
        }
    }

    #[test]
    fn names_follow_paper_convention() {
        assert_eq!(JagPqHeur::best().name(), "JAG-PQ-HEUR-BEST");
        assert_eq!(JagMHeur::best().name(), "JAG-M-HEUR-BEST");
        assert_eq!(JagMHeur::with_stripes(7).name(), "JAG-M-HEUR-BEST-P7");
    }
}
