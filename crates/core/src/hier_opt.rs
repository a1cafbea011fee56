//! Optimal hierarchical bipartitioning (§3.3, equations 1–5).
//!
//! The paper gives a polynomial dynamic program over
//! `(x1, x2, y1, y2, m)` sub-rectangle states — and notes its complexity
//! is too high for real systems ("we expect it to run in hours even on
//! small instances"), extracting `HIER-RELAXED` from it instead. We
//! implement the DP faithfully (with the paper's binary-search refinement
//! of the cut position) as a *test oracle*: on small matrices it bounds
//! every hierarchical heuristic from below and validates `HIER-RELAXED`'s
//! derivation.

use crate::cache::ShardedMemo;
use crate::geometry::{Axis, Rect};
use crate::prefix::PrefixSum2D;
use crate::solution::Partition;

type Key = (usize, usize, usize, usize, usize);

/// Concurrent memo over sub-rectangle × processor-count states. The DP
/// values are pure functions of the state, so sharing one memo across
/// worker tasks is sound (a racing duplicate solve inserts the same
/// value) and lets the root-level candidates below proceed in parallel.
type Memo = ShardedMemo<Key, u64>;

/// Computes an optimal hierarchical bipartition of the whole matrix into
/// `m` rectangles. Memoized over sub-rectangle × processor-count states;
/// use on small instances only (the state space is `O(n1²n2²m)`).
pub fn hier_opt(pfx: &PrefixSum2D, m: usize) -> (Partition, u64) {
    assert!(m >= 1);
    // One span for the whole DP: inner states race on the shared memo, so
    // per-state spans would not be thread-count deterministic.
    let _span = rectpart_obs::span::enter(rectpart_obs::span::SpanKind::HierOptSolve);
    let memo = Memo::new();
    let full = Rect::new(0, pfx.rows(), 0, pfx.cols());
    let value = solve_root(pfx, &full, m, &memo);
    let mut rects = Vec::with_capacity(m);
    rebuild(pfx, &full, m, &memo, &mut rects);
    debug_assert_eq!(rects.len(), m);
    let partition = Partition::new(rects);
    debug_assert_eq!(partition.lmax(pfx), value);
    (partition, value)
}

/// Optimal hierarchical bottleneck value only.
pub fn hier_opt_value(pfx: &PrefixSum2D, m: usize) -> u64 {
    let _span = rectpart_obs::span::enter(rectpart_obs::span::SpanKind::HierOptSolve);
    let memo = Memo::new();
    let full = Rect::new(0, pfx.rows(), 0, pfx.cols());
    solve_root(pfx, &full, m, &memo)
}

fn key(rect: &Rect, m: usize) -> Key {
    (rect.r0, rect.r1, rect.c0, rect.c1, m)
}

/// Root solve: the `(axis, j)` candidates of the top node explore
/// largely disjoint families of subproblems, so they fan out across
/// worker tasks against the shared memo. `min` is order-independent and
/// every DP value is deterministic, so the result is identical to the
/// serial nested loop. Deeper nodes stay serial ([`solve`]): their
/// candidate loops are dominated by memo hits and would not amortize a
/// task spawn.
fn solve_root(pfx: &PrefixSum2D, rect: &Rect, m: usize, memo: &Memo) -> u64 {
    if m == 1 || rect.area() <= 1 {
        return pfx.load(rect);
    }
    let cands: Vec<(Axis, usize)> = [Axis::Rows, Axis::Cols]
        .into_iter()
        .filter(|&axis| {
            let (lo, hi) = rect.extent(axis);
            hi - lo >= 2
        })
        .flat_map(|axis| (1..m).map(move |j| (axis, j)))
        .collect();
    let best =
        rectpart_parallel::map_slice(&cands, |&(axis, j)| candidate(pfx, rect, axis, j, m, memo))
            .into_iter()
            .min()
            .unwrap_or(u64::MAX);
    if memo.insert_if_absent(key(rect, m), best) {
        rectpart_obs::incr(rectpart_obs::Counter::HierOptMemoStates);
    }
    best
}

fn solve(pfx: &PrefixSum2D, rect: &Rect, m: usize, memo: &Memo) -> u64 {
    if m == 1 {
        return pfx.load(rect);
    }
    if rect.area() <= 1 {
        // Unsplittable: the extra processors idle at load 0.
        return pfx.load(rect);
    }
    if let Some(v) = memo.get(&key(rect, m)) {
        return v;
    }
    let mut best = u64::MAX;
    for axis in [Axis::Rows, Axis::Cols] {
        let (lo, hi) = rect.extent(axis);
        if hi - lo < 2 {
            continue;
        }
        for j in 1..m {
            best = best.min(candidate(pfx, rect, axis, j, m, memo));
        }
    }
    // First-insert counting stays deterministic under racing duplicate
    // solves: the set of visited states is thread-independent even though
    // a state may be solved more than once.
    if memo.insert_if_absent(key(rect, m), best) {
        rectpart_obs::incr(rectpart_obs::Counter::HierOptMemoStates);
    }
    best
}

/// Best bottleneck for one `(axis, j)` candidate of a node: for fixed
/// `(axis, j)`, `g(s) = max(solve(first, j), solve(second, m-j))` is
/// bi-monotonic in the cut position `s` (first grows, second shrinks):
/// binary search the crossing, exactly the refinement the paper
/// describes in §3.3.
fn candidate(pfx: &PrefixSum2D, rect: &Rect, axis: Axis, j: usize, m: usize, memo: &Memo) -> u64 {
    let (lo, hi) = rect.extent(axis);
    let (mut a, mut b) = (lo + 1, hi - 1);
    while a < b {
        let mid = a + (b - a) / 2;
        let (r1, r2) = rect.split(axis, mid);
        let v1 = solve(pfx, &r1, j, memo);
        let v2 = solve(pfx, &r2, m - j, memo);
        if v1 >= v2 {
            b = mid;
        } else {
            a = mid + 1;
        }
    }
    let mut best = u64::MAX;
    for s in [a, (a - 1).max(lo + 1)] {
        let (r1, r2) = rect.split(axis, s);
        let v1 = solve(pfx, &r1, j, memo);
        let v2 = solve(pfx, &r2, m - j, memo);
        best = best.min(v1.max(v2));
    }
    best
}

/// Re-derives the optimal choices from the memo table to emit rectangles.
fn rebuild(pfx: &PrefixSum2D, rect: &Rect, m: usize, memo: &Memo, out: &mut Vec<Rect>) {
    if m == 1 {
        out.push(*rect);
        return;
    }
    if rect.area() <= 1 {
        out.push(*rect);
        out.extend(std::iter::repeat_n(Rect::EMPTY, m - 1));
        return;
    }
    // lint:allow(panic) -- invariant: `solve` memoized the root state before `rebuild` runs
    let target = memo
        .get(&key(rect, m))
        .expect("invariant: root state memoized");
    let lookup = |r: &Rect, q: usize| -> u64 {
        if q == 1 || r.area() <= 1 {
            pfx.load(r)
        } else {
            // lint:allow(panic) -- invariant: rebuild replays exactly the states `solve` visited
            memo.get(&key(r, q))
                .expect("invariant: visited state memoized")
        }
    };
    for axis in [Axis::Rows, Axis::Cols] {
        let (lo, hi) = rect.extent(axis);
        if hi - lo < 2 {
            continue;
        }
        for j in 1..m {
            // Memoized values exist for exactly the states `solve`
            // visited; re-run its binary search to land on the same cuts.
            let (mut a, mut b) = (lo + 1, hi - 1);
            while a < b {
                let mid = a + (b - a) / 2;
                let (r1, r2) = rect.split(axis, mid);
                if lookup(&r1, j) >= lookup(&r2, m - j) {
                    b = mid;
                } else {
                    a = mid + 1;
                }
            }
            for s in [a, (a - 1).max(lo + 1)] {
                let (r1, r2) = rect.split(axis, s);
                if lookup(&r1, j).max(lookup(&r2, m - j)) == target {
                    rebuild(pfx, &r1, j, memo, out);
                    rebuild(pfx, &r2, m - j, memo, out);
                    return;
                }
            }
        }
    }
    // lint:allow(panic) -- invariant: the memoized optimum was produced by one of these splits
    unreachable!("invariant: memoized optimum must be reproducible");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchical::{HierRb, HierRelaxed, HierVariant};
    use crate::matrix::LoadMatrix;
    use crate::traits::Partitioner;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_pfx(rows: usize, cols: usize, seed: u64) -> PrefixSum2D {
        let mut rng = StdRng::seed_from_u64(seed);
        PrefixSum2D::try_new(&LoadMatrix::from_fn(rows, cols, |_, _| {
            rng.gen_range(0..30)
        }))
        .unwrap()
    }

    #[test]
    fn optimal_bounds_every_hierarchical_heuristic() {
        for seed in 0..5 {
            let pfx = random_pfx(7, 8, seed);
            for m in [2, 3, 4, 5] {
                let (part, value) = hier_opt(&pfx, m);
                assert!(part.validate(&pfx).is_ok(), "seed={seed} m={m}");
                assert_eq!(part.lmax(&pfx), value);
                assert!(value >= pfx.lower_bound(m).min(value)); // sanity
                for variant in [
                    HierVariant::Load,
                    HierVariant::Dist,
                    HierVariant::Hor,
                    HierVariant::Ver,
                ] {
                    let rb = HierRb { variant }.partition(&pfx, m).lmax(&pfx);
                    let rel = HierRelaxed {
                        variant,
                        ..HierRelaxed::default()
                    }
                    .partition(&pfx, m)
                    .lmax(&pfx);
                    assert!(rb >= value, "RB-{variant:?} {rb} < opt {value}");
                    assert!(rel >= value, "RELAXED-{variant:?} {rel} < opt {value}");
                }
            }
        }
    }

    #[test]
    fn single_processor_and_single_cell() {
        let pfx = random_pfx(4, 4, 9);
        let (p, v) = hier_opt(&pfx, 1);
        assert_eq!(v, pfx.total());
        assert!(p.validate(&pfx).is_ok());

        let one = PrefixSum2D::try_new(&LoadMatrix::from_vec(1, 1, vec![7])).unwrap();
        let (p, v) = hier_opt(&one, 3);
        assert_eq!(v, 7);
        assert!(p.validate(&one).is_ok());
    }

    #[test]
    fn optimal_on_uniform_quadrants() {
        let mat = LoadMatrix::from_fn(4, 4, |_, _| 1);
        let pfx = PrefixSum2D::try_new(&mat).unwrap();
        let (_, v) = hier_opt(&pfx, 4);
        assert_eq!(v, 4);
        let (_, v8) = hier_opt(&pfx, 8);
        assert_eq!(v8, 2);
    }

    #[test]
    fn value_only_matches_full_solve() {
        let pfx = random_pfx(6, 5, 11);
        for m in [2, 4, 6] {
            assert_eq!(hier_opt(&pfx, m).1, hier_opt_value(&pfx, m));
        }
    }

    #[test]
    fn hierarchical_optimum_respects_global_lower_bound() {
        // Hierarchical partitions are a subclass of all rectangle
        // partitions, so their optimum is bounded below by the global
        // lower bounds of §2.1.
        let pfx = random_pfx(6, 6, 3);
        for m in [2, 3, 4] {
            assert!(hier_opt_value(&pfx, m) >= pfx.lower_bound(m));
        }
    }
}
