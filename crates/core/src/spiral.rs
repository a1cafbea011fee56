//! Spiral partitions (§3.4, figure 1(e)).
//!
//! The paper observes that *any* recursively defined pattern with
//! polynomially many choices per level admits an optimal
//! dynamic-programming algorithm of the same flavour as the hierarchical
//! one, and that each such DP induces an average-load-relaxed heuristic
//! à la `HIER-RELAXED`. This module instantiates that observation for
//! the spiral pattern: at every level a full-width stripe is peeled off
//! one side of the remaining rectangle — sides rotating top → right →
//! bottom → left — given `j` processors, and split optimally along its
//! length; the remainder recurses with the next side.
//!
//! * [`SpiralRelaxed`] — the induced heuristic (`SPIRAL-RELAXED`),
//!   `O(m² log max(n1, n2))` like `HIER-RELAXED`;
//! * [`spiral_opt_value`] — the exact DP, memoized over
//!   `(rectangle, m, side)`; a small-instance oracle exactly like
//!   [`crate::hier_opt`].

use std::collections::HashMap;

use rectpart_onedim::{nicol, FnCost};

use crate::geometry::Rect;
use crate::prefix::PrefixSum2D;
use crate::solution::Partition;
use crate::traits::Partitioner;

/// The side the next stripe is peeled from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Side {
    /// Peel rows from the top.
    Top,
    /// Peel columns from the right.
    Right,
    /// Peel rows from the bottom.
    Bottom,
    /// Peel columns from the left.
    Left,
}

impl Side {
    /// Spiral rotation order.
    pub fn next(self) -> Side {
        match self {
            Side::Top => Side::Right,
            Side::Right => Side::Bottom,
            Side::Bottom => Side::Left,
            Side::Left => Side::Top,
        }
    }

    /// Splits `rect` by peeling `depth` cells from this side; returns
    /// `(stripe, rest)`. `depth` must not exceed the side's extent.
    fn peel(self, rect: &Rect, depth: usize) -> (Rect, Rect) {
        match self {
            Side::Top => (
                Rect::new(rect.r0, rect.r0 + depth, rect.c0, rect.c1),
                Rect::new(rect.r0 + depth, rect.r1, rect.c0, rect.c1),
            ),
            Side::Bottom => (
                Rect::new(rect.r1 - depth, rect.r1, rect.c0, rect.c1),
                Rect::new(rect.r0, rect.r1 - depth, rect.c0, rect.c1),
            ),
            Side::Left => (
                Rect::new(rect.r0, rect.r1, rect.c0, rect.c0 + depth),
                Rect::new(rect.r0, rect.r1, rect.c0 + depth, rect.c1),
            ),
            Side::Right => (
                Rect::new(rect.r0, rect.r1, rect.c1 - depth, rect.c1),
                Rect::new(rect.r0, rect.r1, rect.c0, rect.c1 - depth),
            ),
        }
    }

    /// Extent available for peeling from this side.
    fn max_depth(self, rect: &Rect) -> usize {
        match self {
            Side::Top | Side::Bottom => rect.height(),
            Side::Left | Side::Right => rect.width(),
        }
    }
}

/// `SPIRAL-RELAXED` — the average-load-relaxed spiral heuristic. At each
/// node the peel depth `t` and the stripe's processor share `j` minimize
/// `max(L(stripe)/j, L(rest)/(m−j))`; the stripe is then split optimally
/// into `j` rectangles along its length (a 1D problem), and the rest
/// recurses with the rotated side.
#[derive(Clone, Debug)]
pub struct SpiralRelaxed {
    /// First side to peel (the figure's spirals start at the top).
    pub start: Side,
    /// Same near-tie stabilization as
    /// [`crate::HierRelaxed::balance_bias`].
    pub balance_bias: f64,
}

impl Default for SpiralRelaxed {
    fn default() -> Self {
        Self {
            start: Side::Top,
            balance_bias: 1e-3,
        }
    }
}

impl Partitioner for SpiralRelaxed {
    fn name(&self) -> String {
        "SPIRAL-RELAXED".into()
    }

    fn partition(&self, pfx: &PrefixSum2D, m: usize) -> Partition {
        assert!(m >= 1);
        let mut rects = Vec::with_capacity(m);
        let full = Rect::new(0, pfx.rows(), 0, pfx.cols());
        self.recurse(pfx, full, m, self.start, &mut rects);
        debug_assert_eq!(rects.len(), m);
        Partition::new(rects)
    }
}

impl SpiralRelaxed {
    fn recurse(&self, pfx: &PrefixSum2D, rect: Rect, m: usize, side: Side, out: &mut Vec<Rect>) {
        if m == 1 || rect.area() <= 1 {
            out.push(rect);
            out.extend(std::iter::repeat_n(Rect::EMPTY, m - 1));
            return;
        }
        let mut side = side;
        if side.max_depth(&rect) < 2 {
            // This side cannot be peeled without consuming the whole
            // rectangle; rotate once (the perpendicular extent is ≥ 2
            // because the area is ≥ 2).
            side = side.next();
        }
        let depth_max = side.max_depth(&rect);
        // A peeled stripe is subdivided 1D along its length, so it can
        // keep at most that many processors busy; offering it more only
        // idles them (and at large m would starve the spiral's interior).
        let stripe_len = match side {
            Side::Top | Side::Bottom => rect.width(),
            Side::Left | Side::Right => rect.height(),
        };
        let j_cap = stripe_len.min(m - 1);
        let mut best: Option<(f64, usize, usize)> = None;
        for step in 0..m - 1 {
            // Balanced-outward processor shares, as in HIER-RELAXED.
            let half = m / 2;
            let j = if step % 2 == 0 {
                half - step / 2
            } else {
                half + step.div_ceil(2)
            };
            if j == 0 || j >= m || j > j_cap {
                continue;
            }
            // Peel depth balancing L(stripe)/j against L(rest)/(m-j):
            // stripe load grows with depth, rest load shrinks — bisect the
            // crossing.
            let (mut a, mut b) = (1usize, depth_max - 1);
            while a < b {
                let mid = a + (b - a) / 2;
                let (stripe, rest) = side.peel(&rect, mid);
                if pfx.load(&stripe) as u128 * (m - j) as u128
                    >= pfx.load(&rest) as u128 * j as u128
                {
                    b = mid;
                } else {
                    a = mid + 1;
                }
            }
            for t in [a, (a - 1).max(1)] {
                let (stripe, rest) = side.peel(&rect, t);
                // Granularity-aware stripe estimate: a length-L stripe
                // split into j intervals has some interval of at least
                // ⌈L/j⌉ cells, so the average-per-processor relaxation is
                // sharpened by the ⌈L/j⌉-cells-at-mean-density floor —
                // without it, thin stripes with j ≈ L look perfect while
                // their realizable 1D bottleneck is ~2× the average.
                let stripe_load = pfx.load(&stripe) as f64;
                let granularity = stripe_load / stripe_len as f64 * stripe_len.div_ceil(j) as f64;
                let key = (stripe_load / j as f64)
                    .max(granularity)
                    .max(pfx.load(&rest) as f64 / (m - j) as f64);
                if best.is_none_or(|(bk, ..)| key < bk * (1.0 - self.balance_bias)) {
                    best = Some((key, t, j));
                }
            }
        }
        // lint:allow(panic) -- invariant: recurse is only entered with area >= 2, and any such rect admits a 1-deep peel
        let (_, t, j) = best.expect("invariant: area >= 2 always admits a peel");
        let (stripe, rest) = side.peel(&rect, t);
        split_stripe(pfx, &stripe, side, j, out);
        self.recurse(pfx, rest, m - j, side.next(), out);
    }
}

/// Optimally splits a peeled stripe into `j` rectangles along its length
/// with the exact 1D solver.
fn split_stripe(pfx: &PrefixSum2D, stripe: &Rect, side: Side, j: usize, out: &mut Vec<Rect>) {
    let along_cols = matches!(side, Side::Top | Side::Bottom);
    let n = if along_cols {
        stripe.width()
    } else {
        stripe.height()
    };
    let cost = FnCost::additive(n, |a, b| {
        if along_cols {
            pfx.load4(stripe.r0, stripe.r1, stripe.c0 + a, stripe.c0 + b)
        } else {
            pfx.load4(stripe.r0 + a, stripe.r0 + b, stripe.c0, stripe.c1)
        }
    });
    let cuts = nicol(&cost, j).cuts;
    let mut emitted = 0;
    for (a, b) in cuts.intervals() {
        let rect = if along_cols {
            Rect::new(stripe.r0, stripe.r1, stripe.c0 + a, stripe.c0 + b)
        } else {
            Rect::new(stripe.r0 + a, stripe.r0 + b, stripe.c0, stripe.c1)
        };
        out.push(rect);
        emitted += 1;
    }
    debug_assert_eq!(emitted, j);
}

type SpiralKey = (usize, usize, usize, usize, usize, Side);

/// Exact optimal spiral-partition bottleneck (small-instance oracle;
/// memoized over `(rectangle, m, side)` states).
pub fn spiral_opt_value(pfx: &PrefixSum2D, m: usize, start: Side) -> u64 {
    assert!(m >= 1);
    let full = Rect::new(0, pfx.rows(), 0, pfx.cols());
    let mut memo = HashMap::new();
    solve(pfx, &full, m, start, &mut memo)
}

fn solve(
    pfx: &PrefixSum2D,
    rect: &Rect,
    m: usize,
    side: Side,
    memo: &mut HashMap<SpiralKey, u64>,
) -> u64 {
    if m == 1 || rect.area() <= 1 {
        return pfx.load(rect);
    }
    let mut side = side;
    if side.max_depth(rect) < 2 {
        side = side.next();
    }
    let key = (rect.r0, rect.r1, rect.c0, rect.c1, m, side);
    if let Some(&v) = memo.get(&key) {
        return v;
    }
    let mut best = u64::MAX;
    for t in 1..side.max_depth(rect) {
        let (stripe, rest) = side.peel(rect, t);
        for j in 1..m {
            let stripe_opt = stripe_opt_value(pfx, &stripe, side, j);
            if stripe_opt >= best {
                // Larger j only helps the stripe; deeper t only grows it.
                continue;
            }
            let rest_opt = solve(pfx, &rest, m - j, side.next(), memo);
            best = best.min(stripe_opt.max(rest_opt));
        }
    }
    memo.insert(key, best);
    best
}

/// Optimal 1D bottleneck of a stripe split along its length.
fn stripe_opt_value(pfx: &PrefixSum2D, stripe: &Rect, side: Side, j: usize) -> u64 {
    let along_cols = matches!(side, Side::Top | Side::Bottom);
    let n = if along_cols {
        stripe.width()
    } else {
        stripe.height()
    };
    let cost = FnCost::additive(n, |a, b| {
        if along_cols {
            pfx.load4(stripe.r0, stripe.r1, stripe.c0 + a, stripe.c0 + b)
        } else {
            pfx.load4(stripe.r0 + a, stripe.r0 + b, stripe.c0, stripe.c1)
        }
    });
    nicol(&cost, j).bottleneck
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
            rng.gen_range(0..40)
        }))
        .unwrap()
    }

    #[test]
    fn produces_valid_partitions() {
        for seed in 0..5 {
            let pfx = random_pfx(20, 26, seed);
            for m in [1, 2, 3, 5, 8, 16, 31] {
                let p = SpiralRelaxed::default().partition(&pfx, m);
                assert!(p.validate(&pfx).is_ok(), "seed={seed} m={m}");
                assert_eq!(p.parts(), m);
                assert!(p.lmax(&pfx) >= pfx.lower_bound(m));
            }
        }
    }

    #[test]
    fn oracle_bounds_heuristic() {
        for seed in 0..4 {
            let pfx = random_pfx(7, 7, 100 + seed);
            for m in [2, 3, 4] {
                let opt = spiral_opt_value(&pfx, m, Side::Top);
                let heur = SpiralRelaxed::default().partition(&pfx, m).lmax(&pfx);
                assert!(heur >= opt, "seed={seed} m={m}: {heur} < {opt}");
                assert!(opt >= pfx.lower_bound(m));
            }
        }
    }

    #[test]
    fn spiral_shape_rotates_sides() {
        // On a uniform matrix with m = 4 and generous geometry, the four
        // rectangles must touch the four different sides in spiral order.
        let pfx = PrefixSum2D::try_new(&LoadMatrix::from_fn(16, 16, |_, _| 1)).unwrap();
        let p = SpiralRelaxed::default().partition(&pfx, 4);
        assert!(p.validate(&pfx).is_ok());
        let rects = p.rects();
        assert_eq!(rects[0].r0, 0, "first stripe peels from the top");
        assert_eq!(rects[1].c1, 16, "second stripe peels from the right");
    }

    #[test]
    fn thin_rectangles_rotate_to_a_peelable_side() {
        let pfx = PrefixSum2D::try_new(&LoadMatrix::from_fn(1, 32, |_, c| (c + 1) as u32)).unwrap();
        for m in [2, 4, 7] {
            let p = SpiralRelaxed::default().partition(&pfx, m);
            assert!(p.validate(&pfx).is_ok(), "m={m}");
            assert!(p.active_parts() > 1);
        }
    }

    #[test]
    fn single_cell_many_processors() {
        let pfx = PrefixSum2D::try_new(&LoadMatrix::from_vec(1, 1, vec![9])).unwrap();
        let p = SpiralRelaxed::default().partition(&pfx, 3);
        assert!(p.validate(&pfx).is_ok());
        assert_eq!(p.lmax(&pfx), 9);
    }

    #[test]
    fn side_rotation_cycle() {
        assert_eq!(Side::Top.next(), Side::Right);
        assert_eq!(Side::Right.next(), Side::Bottom);
        assert_eq!(Side::Bottom.next(), Side::Left);
        assert_eq!(Side::Left.next(), Side::Top);
    }

    #[test]
    fn peel_geometry() {
        let r = Rect::new(2, 10, 3, 9);
        let (s, rest) = Side::Top.peel(&r, 2);
        assert_eq!(s, Rect::new(2, 4, 3, 9));
        assert_eq!(rest, Rect::new(4, 10, 3, 9));
        let (s, rest) = Side::Right.peel(&r, 3);
        assert_eq!(s, Rect::new(2, 10, 6, 9));
        assert_eq!(rest, Rect::new(2, 10, 3, 6));
        let (s, _) = Side::Bottom.peel(&r, 1);
        assert_eq!(s, Rect::new(9, 10, 3, 9));
        let (s, _) = Side::Left.peel(&r, 2);
        assert_eq!(s, Rect::new(2, 10, 3, 5));
    }
}
