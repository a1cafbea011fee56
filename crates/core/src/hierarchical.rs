//! Hierarchical bipartition heuristics (§3.3): `HIER-RB` and
//! `HIER-RELAXED`.
//!
//! A hierarchical partition recursively splits a rectangle into two along
//! one dimension, dividing the processors between the halves.
//! `HIER-RB` (Berger–Bokhari recursive bisection) always splits the
//! processors `⌊m/2⌋ / ⌈m/2⌉`; `HIER-RELAXED` — derived by the paper from
//! its optimal hierarchical dynamic program — also optimizes *how many*
//! processors go to each side, evaluating subproblems with the
//! average-load relaxation `L(sub)/j` instead of a recursive solve.

use crate::cancel::Checker;
use crate::error::RectpartError;
use crate::geometry::{Axis, Rect};
use crate::prefix::PrefixSum2D;
use crate::solution::Partition;
use crate::traits::Partitioner;

/// Minimum processors in a node before its two recursive halves are
/// forked onto separate tasks. Below this the subtrees are too small to
/// amortize a thread spawn; recursion inside a forked half keeps forking
/// while its share stays above the threshold, so the fork depth tracks
/// the thread budget (`join` halves it per level).
const PARALLEL_PROCS_MIN: usize = 32;

/// Recurse into the two halves of a bipartition node, forking onto
/// separate tasks when `m` is large enough and threads are available.
/// The first half's rectangles are always appended before the second
/// half's, so the output order is bit-identical to serial recursion.
/// Cancellation in either half cancels the node wholesale — partial
/// subtrees are discarded, never merged into a completed result.
fn recurse_halves(
    out: &mut Vec<Rect>,
    m: usize,
    first: impl FnOnce(&mut Vec<Rect>) -> Result<(), RectpartError> + Send,
    second: impl FnOnce(&mut Vec<Rect>) -> Result<(), RectpartError> + Send,
) -> Result<(), RectpartError> {
    // One bipartition node regardless of whether its halves fork.
    rectpart_obs::incr(rectpart_obs::Counter::HierBisections);
    if m >= PARALLEL_PROCS_MIN && rectpart_parallel::current_threads() >= 2 {
        let (a, b) = rectpart_parallel::join(
            || {
                let mut v = Vec::new();
                first(&mut v).map(|()| v)
            },
            || {
                let mut v = Vec::new();
                second(&mut v).map(|()| v)
            },
        );
        out.extend(a?);
        out.extend(b?);
        Ok(())
    } else {
        first(out)?;
        second(out)
    }
}

/// Dimension-selection policy for the hierarchical algorithms (§4.1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum HierVariant {
    /// Try both dimensions, keep the split with the best expected load
    /// balance (`-LOAD`, the best performer in the paper's figures 3–4).
    #[default]
    Load,
    /// Split the longer dimension (`-DIST`).
    Dist,
    /// Alternate dimensions by recursion depth, starting with rows
    /// (`-HOR`).
    Hor,
    /// Alternate dimensions by recursion depth, starting with columns
    /// (`-VER`).
    Ver,
}

impl HierVariant {
    pub(crate) fn suffix(self) -> &'static str {
        match self {
            HierVariant::Load => "LOAD",
            HierVariant::Dist => "DIST",
            HierVariant::Hor => "HOR",
            HierVariant::Ver => "VER",
        }
    }

    /// Candidate split axes for a node, most preferred first. Axes along
    /// which the rectangle cannot be split (extent < 2) are filtered, so
    /// the list may be empty (single-cell rectangle).
    fn candidates(self, rect: &Rect, depth: usize) -> Vec<Axis> {
        let axes: Vec<Axis> = match self {
            HierVariant::Load => vec![Axis::Rows, Axis::Cols],
            HierVariant::Dist => {
                if rect.height() >= rect.width() {
                    vec![Axis::Rows, Axis::Cols]
                } else {
                    vec![Axis::Cols, Axis::Rows]
                }
            }
            HierVariant::Hor | HierVariant::Ver => {
                let first = if depth.is_multiple_of(2) == (self == HierVariant::Hor) {
                    Axis::Rows
                } else {
                    Axis::Cols
                };
                vec![first, first.flip()]
            }
        };
        let splittable: Vec<Axis> = axes
            .iter()
            .copied()
            .filter(|&a| {
                let (lo, hi) = rect.extent(a);
                hi - lo >= 2
            })
            .collect();
        match self {
            // LOAD genuinely considers both; the others take the first
            // splittable axis of their preference order.
            HierVariant::Load => splittable,
            _ => splittable.into_iter().take(1).collect(),
        }
    }
}

/// `HIER-RB` — recursive bisection: split the rectangle into two parts of
/// approximately equal per-processor load, give `⌊m/2⌋` processors to one
/// side and `⌈m/2⌉` to the other (both assignments of the odd processor
/// are tried, per the paper), recurse. `O(m log max(n1, n2))`.
#[derive(Clone, Debug, Default)]
pub struct HierRb {
    /// Dimension-selection policy.
    pub variant: HierVariant,
}

impl HierRb {
    /// The paper's preferred configuration (`-LOAD`).
    pub fn load() -> Self {
        Self::default()
    }

    fn solve(
        &self,
        pfx: &PrefixSum2D,
        m: usize,
        check: Checker,
    ) -> Result<Vec<Rect>, RectpartError> {
        let mut rects = Vec::with_capacity(m);
        if pfx.is_sparse() {
            rb_recurse(Projected::root(pfx), self.variant, m, 0, &mut rects, check)?;
        } else {
            rb_recurse(Direct::root(pfx), self.variant, m, 0, &mut rects, check)?;
        }
        Ok(rects)
    }
}

impl Partitioner for HierRb {
    fn name(&self) -> String {
        format!("HIER-RB-{}", self.variant.suffix())
    }

    fn partition(&self, pfx: &PrefixSum2D, m: usize) -> Partition {
        assert!(m >= 1);
        let rects = self
            .solve(pfx, m, Checker::OFF)
            .unwrap_or_else(|_| one_part_rects(pfx, m));
        debug_assert_eq!(rects.len(), m);
        Partition::new(rects)
    }

    fn try_partition(&self, pfx: &PrefixSum2D, m: usize) -> Result<Partition, RectpartError> {
        if m == 0 {
            return Err(RectpartError::ZeroParts);
        }
        Ok(Partition::new(self.solve(pfx, m, Checker::active())?))
    }
}

/// Discharges the unreachable `Err` arm of the infallible entry points:
/// the whole matrix on one processor, the rest idle.
fn one_part_rects(pfx: &PrefixSum2D, m: usize) -> Vec<Rect> {
    let mut rects = vec![Rect::new(0, pfx.rows(), 0, pfx.cols())];
    rects.extend(std::iter::repeat_n(Rect::EMPTY, m - 1));
    rects
}

/// Where a node's split search reads the loads of its two halves.
///
/// Dense Γ answers each query in O(1) ([`Direct`]). A sparse Γ query
/// scans every row in range, so there a node reads its projections
/// onto the two axes instead ([`Projected`]), and passes its children
/// theirs: along the cut, the two halves of its own; across it, one
/// child's projection and, for the other, the difference to its own.
/// The backend is checked once per solve, at the root.
trait NodeLoads: Sized + Send {
    /// The node's rectangle.
    fn rect(&self) -> Rect;

    /// `halves(at)`: the loads of the node's two parts when it is cut
    /// along `axis` at `at`.
    fn halves(&mut self, axis: Axis) -> impl Fn(usize) -> (u64, u64) + Copy + '_;

    /// The node's two parts when cut along `axis` at `at`, to be split
    /// among `ma` and `mb` processors.
    fn split(self, axis: Axis, at: usize, ma: usize, mb: usize) -> (Self, Self);
}

/// A node on dense Γ: each half's load is one Γ query.
struct Direct<'a> {
    pfx: &'a PrefixSum2D,
    rect: Rect,
}

impl<'a> Direct<'a> {
    fn root(pfx: &'a PrefixSum2D) -> Self {
        Self {
            pfx,
            rect: Rect::new(0, pfx.rows(), 0, pfx.cols()),
        }
    }
}

impl NodeLoads for Direct<'_> {
    fn rect(&self) -> Rect {
        self.rect
    }

    fn halves(&mut self, axis: Axis) -> impl Fn(usize) -> (u64, u64) + Copy + '_ {
        let (pfx, rect) = (self.pfx, self.rect);
        move |at| {
            let (a, b) = rect.split(axis, at);
            (pfx.load(&a), pfx.load(&b))
        }
    }

    fn split(self, axis: Axis, at: usize, _: usize, _: usize) -> (Self, Self) {
        let (a, b) = self.rect.split(axis, at);
        let pfx = self.pfx;
        (Self { pfx, rect: a }, Self { pfx, rect: b })
    }
}

/// A node on sparse Γ with its projections onto rows and columns
/// ([`PrefixSum2D::project_into`]): `extent + 1` prefix loads each,
/// empty until the node projects or its parent passes one down.
struct Projected<'a> {
    pfx: &'a PrefixSum2D,
    rect: Rect,
    rows: Vec<u64>,
    cols: Vec<u64>,
}

impl<'a> Projected<'a> {
    fn root(pfx: &'a PrefixSum2D) -> Self {
        Self::new(pfx, Rect::new(0, pfx.rows(), 0, pfx.cols()))
    }

    fn new(pfx: &'a PrefixSum2D, rect: Rect) -> Self {
        Self {
            pfx,
            rect,
            rows: Vec::new(),
            cols: Vec::new(),
        }
    }

    fn onto(&mut self, axis: Axis) -> &mut Vec<u64> {
        match axis {
            Axis::Rows => &mut self.rows,
            Axis::Cols => &mut self.cols,
        }
    }
}

impl NodeLoads for Projected<'_> {
    fn rect(&self) -> Rect {
        self.rect
    }

    fn halves(&mut self, axis: Axis) -> impl Fn(usize) -> (u64, u64) + Copy + '_ {
        let (pfx, rect) = (self.pfx, self.rect);
        let proj = self.onto(axis);
        if proj.is_empty() {
            pfx.project_into(&rect, axis, proj);
        }
        let proj: &[u64] = proj;
        let lo = rect.extent(axis).0;
        let total = proj.last().copied().unwrap_or(0);
        move |at| {
            let first = proj.get(at - lo).copied().unwrap_or(0);
            (first, total - first)
        }
    }

    fn split(mut self, axis: Axis, at: usize, ma: usize, mb: usize) -> (Self, Self) {
        let (ra, rb) = self.rect.split(axis, at);
        let (mut a, mut b) = (Self::new(self.pfx, ra), Self::new(self.pfx, rb));
        // A part with one processor reads no loads.
        let (need_a, need_b) = (ma > 1, mb > 1);
        let cut = std::mem::take(self.onto(axis));
        let k = at - self.rect.extent(axis).0;
        if let (Some(head), Some(tail)) = (cut.get(..=k), cut.get(k..)) {
            if need_a {
                *a.onto(axis) = head.to_vec();
            }
            if need_b {
                let base = tail.first().copied().unwrap_or(0);
                *b.onto(axis) = tail.iter().map(|&v| v - base).collect();
            }
        }
        let other = axis.flip();
        let across = std::mem::take(self.onto(other));
        if need_a && need_b && !across.is_empty() {
            // Project the part with fewer lines along the cut; the other
            // part's loads are the rest of this node's.
            let lines = |r: Rect| r.extent(axis).1 - r.extent(axis).0;
            let (small, large) = if lines(ra) <= lines(rb) {
                (&mut a, &mut b)
            } else {
                (&mut b, &mut a)
            };
            let small_rect = small.rect;
            let projected = small.onto(other);
            self.pfx.project_into(&small_rect, other, projected);
            *large.onto(other) = across
                .iter()
                .zip(projected.iter())
                .map(|(&t, &s)| t - s)
                .collect();
        }
        (a, b)
    }
}

fn rb_recurse(
    mut node: impl NodeLoads,
    variant: HierVariant,
    m: usize,
    depth: usize,
    out: &mut Vec<Rect>,
    check: Checker,
) -> Result<(), RectpartError> {
    let rect = node.rect();
    if m == 1 {
        out.push(rect);
        return Ok(());
    }
    // One poll per bipartition node: each node's split search is the
    // recursion's serial work quantum.
    check.check()?;
    // Span depth mirrors the bipartition tree depth: each level nests one
    // `core.hier.level#d` inside its parent's (forked halves re-root under
    // the captured parent path, so the tree is thread-count independent).
    let _span =
        rectpart_obs::span::enter_arg(rectpart_obs::span::SpanKind::HierLevel, depth as u32);
    let candidates = variant.candidates(&rect, depth);
    if candidates.is_empty() {
        // Unsplittable (≤ 1 cell): one processor takes it, the rest idle.
        out.push(rect);
        out.extend(std::iter::repeat_n(Rect::EMPTY, m - 1));
        return Ok(());
    }
    let mut best: Option<(u128, Axis, usize, usize)> = None;
    for &axis in &candidates {
        rb_scan(node.halves(axis), &rect, axis, m, &mut best);
    }
    // lint:allow(panic) -- invariant: `candidates` is non-empty (checked above) and every candidate yields a keyed split
    let (_, axis, at, ma) = best.expect("invariant: non-empty candidates produce a best split");
    let (a, b) = node.split(axis, at, ma, m - ma);
    recurse_halves(
        out,
        m,
        |v| rb_recurse(a, variant, ma, depth + 1, v, check),
        |v| rb_recurse(b, variant, m - ma, depth + 1, v, check),
    )
}

/// HIER-RB's candidates along one axis: both ways to hand
/// `⌊m/2⌋ + ⌈m/2⌉` processors to the halves, each at its best split;
/// keeps the lowest key in `best`.
fn rb_scan(
    halves: impl Fn(usize) -> (u64, u64) + Copy,
    rect: &Rect,
    axis: Axis,
    m: usize,
    best: &mut Option<(u128, Axis, usize, usize)>,
) {
    let m1 = m / 2;
    let m2 = m - m1;
    let second = if m1 == m2 { None } else { Some((m2, m1)) };
    for (ma, mb) in std::iter::once((m1, m2)).chain(second) {
        let (at, key) = best_balanced_split(halves, rect.extent(axis), ma, mb);
        if best.is_none_or(|(bk, ..)| key < bk) {
            *best = Some((key, axis, at, ma));
        }
    }
}

/// Best split position in `[lo, hi]` when the first part gets `ma`
/// processors and the second `mb`, with `halves(at)` the two parts'
/// loads: minimizes `max(L(first)/ma, L(second)/mb)`, located by binary
/// search on the crossing of the two monotone per-processor loads.
/// Returns `(split position, max(L1·mb, L2·ma))` — the comparable
/// cross-product key (denominator `ma·mb` is constant across candidates
/// of one node).
fn best_balanced_split(
    halves: impl Fn(usize) -> (u64, u64) + Copy,
    (lo, hi): (usize, usize),
    ma: usize,
    mb: usize,
) -> (usize, u128) {
    let side = |at: usize| -> (u128, u128) {
        let (l1, l2) = halves(at);
        (l1 as u128, l2 as u128)
    };
    // Smallest split with L1·mb >= L2·ma.
    let (mut a, mut b) = (lo, hi);
    while a < b {
        let mid = a + (b - a) / 2;
        let (l1, l2) = side(mid);
        if l1 * mb as u128 >= l2 * ma as u128 {
            b = mid;
        } else {
            a = mid + 1;
        }
    }
    let key = |at: usize| {
        let (l1, l2) = side(at);
        (l1 * mb as u128).max(l2 * ma as u128)
    };
    let mut best = (a, key(a));
    if a > lo {
        let k = key(a - 1);
        if k < best.1 {
            best = (a - 1, k);
        }
    }
    best
}

/// `HIER-RELAXED` — the heuristic the paper extracts from its optimal
/// hierarchical dynamic program: at every node choose the dimension, the
/// cut position *and* the processor split `j / (m−j)` minimizing the
/// relaxed objective `max(L(first)/j, L(second)/(m−j))`, then recurse on
/// both halves. `O(m² log max(n1, n2))`.
///
/// One engineering stabilization on top of the paper's description:
/// candidate splits are visited from the balanced `j = m/2` outward, and
/// a less balanced split must beat the incumbent by a relative margin
/// ([`HierRelaxed::balance_bias`], default 0.1%). On noisy near-uniform
/// loads *every* proportional split scores within noise of `Lavg`, and
/// chasing that noise picks processor counts whose integer cell geometry
/// cannot tile evenly many levels later — the erratic behaviour the
/// paper itself reports for this algorithm (its figure 11). The margin
/// resolves meaningless ties toward the balanced split without
/// suppressing real structural gains.
#[derive(Clone, Debug)]
pub struct HierRelaxed {
    /// Dimension-selection policy.
    pub variant: HierVariant,
    /// Relative improvement a less balanced processor split must show
    /// over a more balanced one (0 reproduces the paper's literal greedy
    /// argmin).
    pub balance_bias: f64,
}

impl Default for HierRelaxed {
    fn default() -> Self {
        Self {
            variant: HierVariant::default(),
            balance_bias: 1e-3,
        }
    }
}

impl HierRelaxed {
    /// The paper's preferred configuration (`-LOAD`).
    pub fn load() -> Self {
        Self::default()
    }

    fn solve(
        &self,
        pfx: &PrefixSum2D,
        m: usize,
        check: Checker,
    ) -> Result<Vec<Rect>, RectpartError> {
        let (variant, bias) = (self.variant, self.balance_bias);
        let mut rects = Vec::with_capacity(m);
        if pfx.is_sparse() {
            relaxed_recurse(Projected::root(pfx), variant, bias, m, 0, &mut rects, check)?;
        } else {
            relaxed_recurse(Direct::root(pfx), variant, bias, m, 0, &mut rects, check)?;
        }
        Ok(rects)
    }
}

impl Partitioner for HierRelaxed {
    fn name(&self) -> String {
        format!("HIER-RELAXED-{}", self.variant.suffix())
    }

    fn partition(&self, pfx: &PrefixSum2D, m: usize) -> Partition {
        assert!(m >= 1);
        let rects = self
            .solve(pfx, m, Checker::OFF)
            .unwrap_or_else(|_| one_part_rects(pfx, m));
        debug_assert_eq!(rects.len(), m);
        Partition::new(rects)
    }

    fn try_partition(&self, pfx: &PrefixSum2D, m: usize) -> Result<Partition, RectpartError> {
        if m == 0 {
            return Err(RectpartError::ZeroParts);
        }
        Ok(Partition::new(self.solve(pfx, m, Checker::active())?))
    }
}

fn relaxed_recurse(
    mut node: impl NodeLoads,
    variant: HierVariant,
    bias: f64,
    m: usize,
    depth: usize,
    out: &mut Vec<Rect>,
    check: Checker,
) -> Result<(), RectpartError> {
    let rect = node.rect();
    if m == 1 {
        out.push(rect);
        return Ok(());
    }
    // One poll per bipartition node, mirroring `rb_recurse`.
    check.check()?;
    let _span =
        rectpart_obs::span::enter_arg(rectpart_obs::span::SpanKind::HierLevel, depth as u32);
    let candidates = variant.candidates(&rect, depth);
    if candidates.is_empty() {
        out.push(rect);
        out.extend(std::iter::repeat_n(Rect::EMPTY, m - 1));
        return Ok(());
    }
    // Relaxed keys compare across different processor splits, so the
    // cross-product trick no longer has a common denominator; loads are
    // < 2^53 in every supported instance, so f64 comparison is exact
    // enough. Splits are visited from the balanced one (j = m/2) outward;
    // a later (less balanced) candidate must improve by the relative
    // `bias` margin (see the type-level docs for why).
    let mut best: Option<(f64, Axis, usize, usize)> = None;
    for &axis in &candidates {
        relaxed_scan(node.halves(axis), &rect, axis, m, bias, &mut best);
    }
    // lint:allow(panic) -- invariant: m >= 2 makes j = m/2 a valid first candidate, so the scan always keys at least one split
    let (_, axis, at, j) = best.expect("invariant: the relaxed scan keys at least one split");
    let (a, b) = node.split(axis, at, j, m - j);
    recurse_halves(
        out,
        m,
        |v| relaxed_recurse(a, variant, bias, j, depth + 1, v, check),
        |v| relaxed_recurse(b, variant, bias, m - j, depth + 1, v, check),
    )
}

/// HIER-RELAXED's candidates along one axis: every processor split
/// `j / (m−j)`, visited from the balanced one outward, each at its best
/// cut; keeps in `best` the lowest relaxed key that beats the incumbent
/// by the `bias` margin.
fn relaxed_scan(
    halves: impl Fn(usize) -> (u64, u64) + Copy,
    rect: &Rect,
    axis: Axis,
    m: usize,
    bias: f64,
    best: &mut Option<(f64, Axis, usize, usize)>,
) {
    for step in 0..m - 1 {
        let half = m / 2;
        let j = if step % 2 == 0 {
            half - step / 2
        } else {
            half + step.div_ceil(2)
        };
        if j == 0 || j >= m {
            continue;
        }
        let (at, _) = best_balanced_split(halves, rect.extent(axis), j, m - j);
        let (l1, l2) = halves(at);
        let key = (l1 as f64 / j as f64).max(l2 as f64 / (m - j) as f64);
        if best.is_none_or(|(bk, ..)| key < bk * (1.0 - bias)) {
            *best = Some((key, axis, at, j));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::LoadMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const VARIANTS: [HierVariant; 4] = [
        HierVariant::Load,
        HierVariant::Dist,
        HierVariant::Hor,
        HierVariant::Ver,
    ];

    fn random_pfx(rows: usize, cols: usize, seed: u64) -> PrefixSum2D {
        let mut rng = StdRng::seed_from_u64(seed);
        PrefixSum2D::try_new(&LoadMatrix::from_fn(rows, cols, |_, _| {
            rng.gen_range(1..100)
        }))
        .unwrap()
    }

    #[test]
    fn rb_valid_for_all_variants_and_m() {
        let pfx = random_pfx(20, 26, 1);
        for variant in VARIANTS {
            for m in [1, 2, 3, 5, 7, 8, 16, 31] {
                let p = HierRb { variant }.partition(&pfx, m);
                assert!(p.validate(&pfx).is_ok(), "{variant:?} m={m}");
                assert_eq!(p.parts(), m);
            }
        }
    }

    #[test]
    fn relaxed_valid_for_all_variants_and_m() {
        let pfx = random_pfx(20, 26, 2);
        for variant in VARIANTS {
            for m in [1, 2, 3, 5, 7, 8, 16, 31] {
                let p = HierRelaxed {
                    variant,
                    ..HierRelaxed::default()
                }
                .partition(&pfx, m);
                assert!(p.validate(&pfx).is_ok(), "{variant:?} m={m}");
            }
        }
    }

    #[test]
    fn rb_power_of_two_on_uniform_is_perfect() {
        let mat = LoadMatrix::from_fn(16, 16, |_, _| 2);
        let pfx = PrefixSum2D::try_new(&mat).unwrap();
        for m in [2, 4, 8, 16, 32] {
            let p = HierRb::load().partition(&pfx, m);
            assert_eq!(p.lmax(&pfx), pfx.total() / m as u64, "m={m}");
        }
    }

    #[test]
    fn relaxed_not_worse_than_rb_on_average() {
        // The paper's headline hierarchical result (figures 10, 12, 14):
        // HIER-RELAXED usually improves on HIER-RB. Check aggregate, not
        // per-instance (RELAXED can lose on individual runs, cf. fig 11).
        let mut rb_total = 0.0;
        let mut rel_total = 0.0;
        for seed in 0..6 {
            let mat = {
                let mut rng = StdRng::seed_from_u64(seed);
                LoadMatrix::from_fn(32, 32, |r, c| {
                    let d = ((r as f64 - 16.0).powi(2) + (c as f64 - 16.0).powi(2)).sqrt();
                    (1000.0 / (d + 0.5)) as u32 + rng.gen_range(1u32..10)
                })
            };
            let pfx = PrefixSum2D::try_new(&mat).unwrap();
            for m in [5, 9, 13] {
                rb_total += HierRb::load().partition(&pfx, m).load_imbalance(&pfx);
                rel_total += HierRelaxed::load().partition(&pfx, m).load_imbalance(&pfx);
            }
        }
        assert!(
            rel_total <= rb_total,
            "relaxed {rel_total} should beat rb {rb_total} in aggregate"
        );
    }

    #[test]
    fn unsplittable_cell_idles_processors() {
        let mat = LoadMatrix::from_vec(1, 1, vec![5]);
        let pfx = PrefixSum2D::try_new(&mat).unwrap();
        for m in [1, 2, 4] {
            let p = HierRb::load().partition(&pfx, m);
            assert!(p.validate(&pfx).is_ok());
            assert_eq!(p.active_parts(), 1);
            let q = HierRelaxed::load().partition(&pfx, m);
            assert!(q.validate(&pfx).is_ok());
        }
    }

    #[test]
    fn thin_matrices_fall_back_to_the_splittable_axis() {
        let mat = LoadMatrix::from_fn(1, 64, |_, c| (c + 1) as u32);
        let pfx = PrefixSum2D::try_new(&mat).unwrap();
        for variant in VARIANTS {
            let p = HierRb { variant }.partition(&pfx, 8);
            assert!(p.validate(&pfx).is_ok(), "{variant:?}");
            assert!(p.active_parts() > 1, "{variant:?} must actually split");
        }
    }

    #[test]
    fn hor_and_ver_start_on_different_axes() {
        let pfx = random_pfx(16, 16, 5);
        let hor = HierRb {
            variant: HierVariant::Hor,
        }
        .partition(&pfx, 2);
        let ver = HierRb {
            variant: HierVariant::Ver,
        }
        .partition(&pfx, 2);
        // First split of HOR is a row split: both rects span all columns.
        assert!(hor.rects().iter().all(|r| r.c0 == 0 && r.c1 == 16));
        assert!(ver.rects().iter().all(|r| r.r0 == 0 && r.r1 == 16));
    }

    #[test]
    fn names_follow_paper_convention() {
        assert_eq!(HierRb::load().name(), "HIER-RB-LOAD");
        assert_eq!(
            HierRelaxed {
                variant: HierVariant::Dist,
                ..HierRelaxed::default()
            }
            .name(),
            "HIER-RELAXED-DIST"
        );
    }

    #[test]
    fn lower_bound_respected() {
        let pfx = random_pfx(24, 24, 8);
        for m in [2, 5, 9, 17] {
            assert!(HierRb::load().partition(&pfx, m).lmax(&pfx) >= pfx.lower_bound(m));
            assert!(HierRelaxed::load().partition(&pfx, m).lmax(&pfx) >= pfx.lower_bound(m));
        }
    }

    /// A sparse node hands its children projections (slices along the
    /// cut, a projection plus a difference across it): each one must be
    /// exactly what the child would project itself, and a child with one
    /// processor gets none.
    #[test]
    fn passed_down_projections_match_fresh_ones() {
        let mut rng = StdRng::seed_from_u64(9);
        let mat = LoadMatrix::from_fn(23, 31, |_, _| {
            if rng.gen_range(0..4) == 0 {
                rng.gen_range(1..60)
            } else {
                0
            }
        });
        let pfx = PrefixSum2D::try_new_with(&mat, crate::GammaMode::Sparse).unwrap();
        let fresh = |rect: &Rect, axis| {
            let mut out = Vec::new();
            pfx.project_into(rect, axis, &mut out);
            out
        };
        for _ in 0..200 {
            let (r0, c0) = (rng.gen_range(0..23), rng.gen_range(0..31));
            let rect = Rect::new(r0, rng.gen_range(r0..=23), c0, rng.gen_range(c0..=31));
            let axis = if rng.gen_range(0..2) == 0 {
                Axis::Rows
            } else {
                Axis::Cols
            };
            let (lo, hi) = rect.extent(axis);
            let at = rng.gen_range(lo..=hi);
            let (ma, mb) = (rng.gen_range(1..4), rng.gen_range(1..4));
            let mut node = Projected::new(&pfx, rect);
            let _ = node.halves(axis);
            if rng.gen_range(0..2) == 0 {
                let _ = node.halves(axis.flip());
            }
            let (a, b) = node.split(axis, at, ma, mb);
            for (mut child, m) in [(a, ma), (b, mb)] {
                for (got, onto) in [(&child.rows, Axis::Rows), (&child.cols, Axis::Cols)] {
                    if m == 1 {
                        assert!(got.is_empty(), "{rect:?} {axis:?}@{at}");
                    } else if !got.is_empty() {
                        assert_eq!(got, &fresh(&child.rect, onto), "{rect:?} {axis:?}@{at}");
                    }
                }
                if m > 1 {
                    assert!(!child.onto(axis).is_empty(), "{rect:?} {axis:?}@{at}");
                }
            }
        }
    }
}
