//! Cell → processor lookup structures.
//!
//! The paper motivates rectangles partly by their *compact
//! representation*: "allows to easily find which processor a given cell
//! is allocated to" (§1), with jagged layouts singled out for cheap
//! indexing (§3.2). This module provides those lookups:
//!
//! * [`JaggedIndex`] — recognizes a jagged structure in a partition and
//!   answers queries with two binary searches (`O(log P + log Q)`); works
//!   for rectilinear and jagged partitions in either orientation;
//! * [`RectTreeIndex`] — a k-d-style interval tree over arbitrary
//!   disjoint rectangles (`O(log m)` expected), covering hierarchical and
//!   any other partition;
//! * [`OwnerGrid`] — the dense O(1) table, for when memory is no object.

use crate::geometry::{Axis, Rect};
use crate::solution::Partition;

/// Jagged lookup: stripes along the main axis, each with its own sorted
/// run of auxiliary intervals.
///
/// ```
/// use rectpart_core::{JagMHeur, JaggedIndex, LoadMatrix, Partitioner, PrefixSum2D};
///
/// let pfx = PrefixSum2D::try_new(&LoadMatrix::from_fn(16, 16, |r, c| (r + c) as u32 + 1)).unwrap();
/// let part = JagMHeur::best().partition(&pfx, 6);
/// let index = JaggedIndex::detect(&part).expect("jagged output indexes");
/// assert_eq!(index.owner_of(3, 11), part.owner_of(3, 11));
/// ```
#[derive(Clone, Debug)]
pub struct JaggedIndex {
    axis: Axis,
    /// Stripe boundaries along the main axis (sorted, deduplicated).
    main_cuts: Vec<usize>,
    /// Per stripe: sorted `(aux_end, processor)` runs.
    stripes: Vec<Vec<(usize, u32)>>,
}

impl JaggedIndex {
    /// Builds the index if the partition is jagged with `axis` as the
    /// main dimension: every non-empty rectangle's main extent must
    /// coincide with one of the stripe intervals, and each stripe's
    /// rectangles must tile its auxiliary range. Returns `None` for
    /// non-jagged partitions (e.g. most hierarchical ones).
    pub fn from_partition(partition: &Partition, axis: Axis) -> Option<Self> {
        let rects: Vec<(usize, &Rect)> = partition
            .rects()
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.is_empty())
            .collect();
        if rects.is_empty() {
            return None;
        }
        let main = |r: &Rect| r.extent(axis);
        let aux = |r: &Rect| r.extent(axis.flip());
        // Collect candidate stripe boundaries from the rectangles.
        let mut cuts: Vec<usize> = rects
            .iter()
            .flat_map(|(_, r)| [main(r).0, main(r).1])
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        // Every rectangle must span exactly one stripe interval.
        let stripe_of = |r: &Rect| -> Option<usize> {
            let (lo, hi) = main(r);
            let i = cuts.binary_search(&lo).ok()?;
            (cuts.get(i + 1) == Some(&hi)).then_some(i)
        };
        let mut stripes: Vec<Vec<(usize, u32)>> = vec![Vec::new(); cuts.len().saturating_sub(1)];
        for (proc, r) in &rects {
            let s = stripe_of(r)?;
            stripes[s].push((aux(r).1, *proc as u32));
        }
        // Each stripe's runs must be contiguous when sorted by end.
        for (s, runs) in stripes.iter_mut().enumerate() {
            if runs.is_empty() {
                // A gap in the main dimension: only permissible when the
                // stripe interval is empty.
                if cuts[s] != cuts[s + 1] {
                    return None;
                }
                continue;
            }
            runs.sort_unstable();
            let Some(mut prev) = runs
                .iter()
                .map(|&(_, p)| aux(&partition.rects()[p as usize]).0)
                .min()
            else {
                // A stripe with no rectangles is not a jagged layout.
                return None;
            };
            for &(end, p) in runs.iter() {
                let r = &partition.rects()[p as usize];
                if aux(r).0 != prev {
                    return None;
                }
                prev = end;
            }
        }
        Some(Self {
            axis,
            main_cuts: cuts,
            stripes,
        })
    }

    /// Tries both orientations.
    pub fn detect(partition: &Partition) -> Option<Self> {
        Self::from_partition(partition, Axis::Rows)
            .or_else(|| Self::from_partition(partition, Axis::Cols))
    }

    /// The main axis of the detected jagged structure.
    pub fn axis(&self) -> Axis {
        self.axis
    }

    /// Number of stripes.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// Owner of cell `(r, c)`, or `None` outside the indexed area.
    pub fn owner_of(&self, r: usize, c: usize) -> Option<usize> {
        let (main, aux) = match self.axis {
            Axis::Rows => (r, c),
            Axis::Cols => (c, r),
        };
        // Stripe: last cut <= main.
        let s = match self.main_cuts.binary_search(&main) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        let runs = self.stripes.get(s)?;
        // First run whose end exceeds aux.
        let i = runs.partition_point(|&(end, _)| end <= aux);
        runs.get(i).map(|&(_, p)| p as usize)
    }
}

/// Interval-tree lookup over arbitrary disjoint rectangles: alternating
/// median splits (k-d tree) with leaf buckets.
#[derive(Clone, Debug)]
pub struct RectTreeIndex {
    nodes: Vec<TreeNode>,
}

#[derive(Clone, Debug)]
enum TreeNode {
    Leaf(Vec<(Rect, u32)>),
    Split {
        axis: Axis,
        at: usize,
        /// Children indices: rectangles entirely below / not below `at`.
        below: usize,
        above: usize,
    },
}

const LEAF_SIZE: usize = 8;

impl RectTreeIndex {
    /// Builds the tree from a partition's non-empty rectangles.
    pub fn new(partition: &Partition) -> Self {
        let rects: Vec<(Rect, u32)> = partition
            .rects()
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.is_empty())
            .map(|(i, r)| (*r, i as u32))
            .collect();
        let mut nodes = Vec::new();
        build(rects, Axis::Rows, &mut nodes);
        Self { nodes }
    }

    /// Owner of cell `(r, c)`, or `None` if no rectangle covers it.
    pub fn owner_of(&self, r: usize, c: usize) -> Option<usize> {
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                TreeNode::Leaf(rects) => {
                    return rects
                        .iter()
                        .find(|(rect, _)| rect.contains(r, c))
                        .map(|&(_, p)| p as usize);
                }
                TreeNode::Split {
                    axis,
                    at,
                    below,
                    above,
                } => {
                    let coord = match axis {
                        Axis::Rows => r,
                        Axis::Cols => c,
                    };
                    node = if coord < *at { *below } else { *above };
                }
            }
        }
    }

    /// Number of tree nodes (for size assertions in tests).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

/// Recursively builds the k-d tree; returns the node index.
fn build(rects: Vec<(Rect, u32)>, axis: Axis, nodes: &mut Vec<TreeNode>) -> usize {
    if rects.len() <= LEAF_SIZE {
        nodes.push(TreeNode::Leaf(rects));
        return nodes.len() - 1;
    }
    // Median split over rectangle starts along the axis; rectangles
    // crossing the split would break the disjoint-descent property, so
    // pick the best axis/coordinate that no rectangle straddles. In a
    // tiling, every rectangle edge is such a coordinate for the rects it
    // bounds, but a global non-straddled coordinate may not exist — fall
    // back to a bigger leaf in that (rare) case.
    for try_axis in [axis, axis.flip()] {
        let mut starts: Vec<usize> = rects.iter().map(|(r, _)| r.extent(try_axis).0).collect();
        starts.sort_unstable();
        let at = starts[starts.len() / 2];
        let straddles = rects.iter().any(|(r, _)| {
            let (lo, hi) = r.extent(try_axis);
            lo < at && at < hi
        });
        if straddles {
            continue;
        }
        let (below, above): (Vec<_>, Vec<_>) =
            rects.iter().partition(|(r, _)| r.extent(try_axis).1 <= at);
        if below.is_empty() || above.is_empty() {
            continue;
        }
        let slot = nodes.len();
        nodes.push(TreeNode::Leaf(Vec::new())); // placeholder
        let b = build(below, try_axis.flip(), nodes);
        let a = build(above, try_axis.flip(), nodes);
        nodes[slot] = TreeNode::Split {
            axis: try_axis,
            at,
            below: b,
            above: a,
        };
        return slot;
    }
    nodes.push(TreeNode::Leaf(rects));
    nodes.len() - 1
}

/// Dense O(1) lookup table.
#[derive(Clone, Debug)]
pub struct OwnerGrid {
    cols: usize,
    owners: Vec<u32>,
}

impl OwnerGrid {
    /// Materializes the owner of every cell.
    pub fn new(partition: &Partition, rows: usize, cols: usize) -> Self {
        Self {
            cols,
            owners: partition.owner_map(rows, cols),
        }
    }

    /// Owner of cell `(r, c)`, or `None` for uncovered cells.
    #[inline]
    pub fn owner_of(&self, r: usize, c: usize) -> Option<usize> {
        match self.owners[r * self.cols + c] {
            u32::MAX => None,
            p => Some(p as usize),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchical::HierRb;
    use crate::jagged::{JagMHeur, JagPqHeur};
    use crate::matrix::LoadMatrix;
    use crate::prefix::PrefixSum2D;
    use crate::rectilinear::RectNicol;
    use crate::spiral::SpiralRelaxed;
    use crate::traits::Partitioner;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_pfx(rows: usize, cols: usize, seed: u64) -> PrefixSum2D {
        let mut rng = StdRng::seed_from_u64(seed);
        PrefixSum2D::try_new(&LoadMatrix::from_fn(rows, cols, |_, _| {
            rng.gen_range(1..50)
        }))
        .unwrap()
    }

    fn assert_index_agrees(
        partition: &Partition,
        rows: usize,
        cols: usize,
        lookup: impl Fn(usize, usize) -> Option<usize>,
    ) {
        for r in 0..rows {
            for c in 0..cols {
                assert_eq!(
                    lookup(r, c),
                    partition.owner_of(r, c),
                    "cell ({r},{c}) disagrees"
                );
            }
        }
    }

    #[test]
    fn jagged_index_on_jagged_partitions() {
        let pfx = random_pfx(18, 15, 1);
        for m in [4, 9, 12] {
            let p = JagMHeur::best().partition(&pfx, m);
            let idx = JaggedIndex::detect(&p).expect("jagged output must index");
            assert_index_agrees(&p, 18, 15, |r, c| idx.owner_of(r, c));
        }
    }

    #[test]
    fn jagged_index_on_rectilinear_partitions() {
        let pfx = random_pfx(16, 16, 2);
        let p = RectNicol::default().partition(&pfx, 9);
        let idx = JaggedIndex::detect(&p).expect("grids are jagged too");
        assert_eq!(idx.stripe_count(), 3);
        assert_index_agrees(&p, 16, 16, |r, c| idx.owner_of(r, c));
    }

    #[test]
    fn jagged_index_respects_orientation() {
        let pfx = random_pfx(20, 10, 3);
        let p = JagPqHeur {
            variant: crate::jagged::JaggedVariant::Ver,
            grid: None,
        }
        .partition(&pfx, 6);
        let idx = JaggedIndex::detect(&p).expect("vertical jagged");
        assert_index_agrees(&p, 20, 10, |r, c| idx.owner_of(r, c));
    }

    #[test]
    fn jagged_index_rejects_pinwheel() {
        // The classic non-jagged tiling: 4 rectangles around a center.
        let p = Partition::new(vec![
            Rect::new(0, 2, 0, 4),
            Rect::new(0, 4, 4, 6),
            Rect::new(2, 6, 0, 2),
            Rect::new(4, 6, 2, 6),
            Rect::new(2, 4, 2, 4),
        ]);
        assert!(p.validate_dims(6, 6).is_ok());
        assert!(JaggedIndex::detect(&p).is_none());
    }

    #[test]
    fn tree_index_on_everything() {
        let pfx = random_pfx(24, 24, 4);
        for m in [3, 8, 17, 40] {
            for algo in [
                &HierRb::load() as &dyn Partitioner,
                &JagMHeur::best(),
                &SpiralRelaxed::default(),
            ] {
                let p = algo.partition(&pfx, m);
                let idx = RectTreeIndex::new(&p);
                assert_index_agrees(&p, 24, 24, |r, c| idx.owner_of(r, c));
            }
        }
    }

    #[test]
    fn tree_index_splits_large_partitions() {
        let pfx = random_pfx(32, 32, 5);
        let p = HierRb::load().partition(&pfx, 64);
        let idx = RectTreeIndex::new(&p);
        assert!(idx.node_count() > 1, "64 rects must not fit in one leaf");
        assert_index_agrees(&p, 32, 32, |r, c| idx.owner_of(r, c));
    }

    #[test]
    fn owner_grid_matches() {
        let pfx = random_pfx(12, 9, 6);
        let p = JagMHeur::best().partition(&pfx, 7);
        let grid = OwnerGrid::new(&p, 12, 9);
        assert_index_agrees(&p, 12, 9, |r, c| grid.owner_of(r, c));
    }

    #[test]
    fn out_of_area_lookups_return_none_gracefully() {
        let p = Partition::new(vec![Rect::new(1, 3, 1, 3)]);
        let idx = JaggedIndex::detect(&p).unwrap();
        assert_eq!(idx.owner_of(0, 0), None);
        assert_eq!(idx.owner_of(1, 1), Some(0));
        let tree = RectTreeIndex::new(&p);
        assert_eq!(tree.owner_of(0, 0), None);
        assert_eq!(tree.owner_of(2, 2), Some(0));
    }
}
