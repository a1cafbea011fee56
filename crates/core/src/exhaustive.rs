//! Exhaustive search over *arbitrary* rectangle partitions.
//!
//! Computing the optimal arbitrary rectangle partition is NP-hard
//! (§1, §3.4), but on tiny matrices it can be enumerated: in any tiling,
//! the rectangle covering the top-left-most uncovered cell must have that
//! cell as its own top-left corner, so branching over the height and
//! width of that rectangle enumerates every tiling exactly once. This is
//! the ultimate test oracle — every restricted solution class must be
//! bounded below by it.

use crate::geometry::Rect;
use crate::prefix::PrefixSum2D;
use crate::solution::Partition;

/// Optimal bottleneck over **all** rectangle partitions into at most `m`
/// parts, with the witness partition.
///
/// # Panics
///
/// Panics if the matrix has more than 64 cells (the coverage mask is a
/// `u64`); this is a deliberately small-instance oracle.
pub fn exhaustive_opt(pfx: &PrefixSum2D, m: usize) -> (Partition, u64) {
    assert!(m >= 1);
    let rows = pfx.rows();
    let cols = pfx.cols();
    assert!(
        rows * cols <= 64,
        "exhaustive search is limited to 64 cells"
    );
    let full = (rows * cols) as u32;
    let mut best_value = u64::MAX;
    let mut best_rects: Vec<Rect> = Vec::new();
    let mut stack: Vec<Rect> = Vec::new();
    search(
        pfx,
        0,
        full,
        m,
        0,
        &mut stack,
        &mut best_value,
        &mut best_rects,
    );
    (Partition::with_parts(best_rects, m), best_value)
}

#[allow(clippy::too_many_arguments)]
fn search(
    pfx: &PrefixSum2D,
    mask: u64,
    remaining_cells: u32,
    parts_left: usize,
    cur_max: u64,
    stack: &mut Vec<Rect>,
    best_value: &mut u64,
    best_rects: &mut Vec<Rect>,
) {
    if cur_max >= *best_value {
        return; // cannot improve
    }
    if remaining_cells == 0 {
        *best_value = cur_max;
        *best_rects = stack.clone();
        return;
    }
    if parts_left == 0 {
        return;
    }
    let rows = pfx.rows();
    let cols = pfx.cols();
    // Top-left-most uncovered cell; `remaining_cells > 0` guarantees one
    // exists, and an (impossible) full mask simply prunes this branch.
    let Some(idx) = (0..rows * cols).find(|&i| mask & (1u64 << i) == 0) else {
        return;
    };
    // lint:allow(panic-reach) -- this line only runs when the find over
    // 0..rows*cols produced an index, so cols >= 1
    let (r, c) = (idx / cols, idx % cols);
    // Average-based pruning: the remaining load cannot be spread better
    // than evenly over the remaining parts.
    let covered_load: u64 = stack.iter().map(|rr| pfx.load(rr)).sum();
    let remaining_load = pfx.total() - covered_load;
    if remaining_load.div_ceil(parts_left as u64) >= *best_value {
        return;
    }
    let mut max_w = cols - c;
    for h in 1..=rows - r {
        // Shrink the admissible width as soon as a covered cell blocks it.
        let row = r + h - 1;
        let mut w = 0;
        while w < max_w && mask & (1u64 << (row * cols + c + w)) == 0 {
            w += 1;
        }
        max_w = w;
        if max_w == 0 {
            break;
        }
        for w in 1..=max_w {
            let rect = Rect::new(r, r + h, c, c + w);
            let mut rect_mask = 0u64;
            for rr in r..r + h {
                for cc in c..c + w {
                    rect_mask |= 1u64 << (rr * cols + cc);
                }
            }
            let load = pfx.load(&rect);
            stack.push(rect);
            search(
                pfx,
                mask | rect_mask,
                remaining_cells - (h * w) as u32,
                parts_left - 1,
                cur_max.max(load),
                stack,
                best_value,
                best_rects,
            );
            stack.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hier_opt::hier_opt_value;
    use crate::hierarchical::HierRb;
    use crate::jagged::JagMHeur;
    use crate::jagged_opt::JagMOpt;
    use crate::matrix::LoadMatrix;
    use crate::traits::Partitioner;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_pfx(rows: usize, cols: usize, seed: u64) -> PrefixSum2D {
        let mut rng = StdRng::seed_from_u64(seed);
        PrefixSum2D::try_new(&LoadMatrix::from_fn(rows, cols, |_, _| {
            rng.gen_range(0..20)
        }))
        .unwrap()
    }

    #[test]
    fn witness_is_valid_and_attains_value() {
        for seed in 0..4 {
            let pfx = random_pfx(4, 4, seed);
            for m in [1, 2, 3, 4] {
                let (part, value) = exhaustive_opt(&pfx, m);
                assert!(part.validate(&pfx).is_ok(), "seed={seed} m={m}");
                assert_eq!(part.lmax(&pfx), value);
                assert!(value >= pfx.lower_bound(m) || value == pfx.lower_bound(m));
            }
        }
    }

    #[test]
    fn arbitrary_opt_bounds_every_class() {
        for seed in 0..3 {
            let pfx = random_pfx(4, 4, 100 + seed);
            for m in [2, 3, 4] {
                let (_, arb) = exhaustive_opt(&pfx, m);
                assert!(JagMOpt::default().partition(&pfx, m).lmax(&pfx) >= arb);
                assert!(hier_opt_value(&pfx, m) >= arb);
                assert!(HierRb::load().partition(&pfx, m).lmax(&pfx) >= arb);
                assert!(JagMHeur::best().partition(&pfx, m).lmax(&pfx) >= arb);
            }
        }
    }

    #[test]
    fn finds_the_windmill_when_it_wins() {
        // The classic non-guillotine case (paper fig. 1(f)): a pinwheel of
        // four rectangles around a center can beat hierarchical cuts.
        // 3x3 with a heavy center forces Lmax(hier) >= center row/col
        // combinations; the windmill isolates the center.
        let mat = LoadMatrix::from_vec(3, 3, vec![1, 1, 1, 1, 100, 1, 1, 1, 1]);
        let pfx = PrefixSum2D::try_new(&mat).unwrap();
        let (_, arb) = exhaustive_opt(&pfx, 5);
        assert_eq!(arb, 100); // center alone; four windmill arms of 2 cells
        let hier = hier_opt_value(&pfx, 5);
        assert!(hier >= arb);
    }

    #[test]
    fn single_part_takes_whole_matrix() {
        let pfx = random_pfx(3, 3, 7);
        let (part, value) = exhaustive_opt(&pfx, 1);
        assert_eq!(value, pfx.total());
        assert_eq!(part.rects()[0], Rect::new(0, 3, 0, 3));
    }

    #[test]
    #[should_panic(expected = "64 cells")]
    fn rejects_large_matrices() {
        let pfx = random_pfx(9, 9, 1);
        let _ = exhaustive_opt(&pfx, 2);
    }
}
