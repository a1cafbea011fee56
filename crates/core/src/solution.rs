//! Partition representation, validation and quality metrics.

use std::fmt;

use crate::geometry::Rect;
use crate::prefix::PrefixSum2D;

/// Why a candidate partition is not a valid solution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionError {
    /// A rectangle sticks out of the matrix.
    OutOfBounds {
        /// Offending processor index.
        index: usize,
        /// The out-of-bounds rectangle.
        rect: Rect,
    },
    /// Two rectangles share at least one cell.
    Overlap {
        /// First offending processor index.
        a: usize,
        /// Second offending processor index.
        b: usize,
    },
    /// The rectangles do not cover every cell (checked as Σ area ≠ total
    /// area, which together with pairwise disjointness is equivalent).
    Uncovered {
        /// Cells covered by the rectangles.
        covered: usize,
        /// Cells of the matrix.
        expected: usize,
    },
    /// More rectangles than processors.
    TooManyParts {
        /// Rectangles supplied.
        parts: usize,
        /// Processor budget.
        m: usize,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::OutOfBounds { index, rect } => {
                write!(f, "rectangle {index} out of bounds: {rect:?}")
            }
            PartitionError::Overlap { a, b } => write!(f, "rectangles {a} and {b} overlap"),
            PartitionError::Uncovered { covered, expected } => {
                write!(f, "only {covered} of {expected} cells covered")
            }
            PartitionError::TooManyParts { parts, m } => {
                write!(f, "{parts} rectangles for {m} processors")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// Headline quality numbers of a partition, as returned by
/// [`Partition::summary`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Load of the most loaded processor.
    pub lmax: u64,
    /// Perfect-balance average load `total / m`.
    pub lavg: f64,
    /// The paper's quality metric `Lmax / Lavg − 1` (0 = perfect).
    pub imbalance: f64,
    /// Number of non-empty rectangles.
    pub rect_count: usize,
}

/// A rectangle-per-processor partition of the load matrix.
///
/// Holds exactly `m` rectangles; idle processors hold [`Rect::EMPTY`].
/// Validity (§2.1 of the paper: `⋂ r = ∅` and `⋃ r = A`) is checked by
/// [`Partition::validate`] with the same O(m²) pairwise test the paper
/// describes, plus the area-sum coverage test.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    rects: Vec<Rect>,
}

impl Partition {
    /// Wraps rectangles into a partition of `m = rects.len()` parts.
    pub fn new(rects: Vec<Rect>) -> Self {
        assert!(!rects.is_empty(), "a partition needs at least one part");
        Self { rects }
    }

    /// Wraps rectangles, padding with [`Rect::EMPTY`] up to `m` parts.
    ///
    /// # Panics
    ///
    /// Panics if there are more rectangles than processors.
    pub fn with_parts(mut rects: Vec<Rect>, m: usize) -> Self {
        assert!(
            rects.len() <= m,
            "{} rectangles exceed {m} processors",
            rects.len()
        );
        rects.resize(m, Rect::EMPTY);
        Self { rects }
    }

    /// Number of processors (rectangles, including empty ones).
    pub fn parts(&self) -> usize {
        self.rects.len()
    }

    /// The rectangles, one per processor.
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// Number of non-empty rectangles.
    pub fn active_parts(&self) -> usize {
        self.rects.iter().filter(|r| !r.is_empty()).count()
    }

    /// Per-processor loads.
    pub fn loads(&self, pfx: &PrefixSum2D) -> Vec<u64> {
        self.rects.iter().map(|r| pfx.load(r)).collect()
    }

    /// Load of the most loaded processor.
    pub fn lmax(&self, pfx: &PrefixSum2D) -> u64 {
        self.rects.iter().map(|r| pfx.load(r)).max().unwrap_or(0)
    }

    /// The paper's quality metric: `Lmax / Lavg − 1` (0 = perfect balance).
    pub fn load_imbalance(&self, pfx: &PrefixSum2D) -> f64 {
        let lavg = pfx.average_load(self.parts());
        if lavg == 0.0 {
            return 0.0;
        }
        self.lmax(pfx) as f64 / lavg - 1.0
    }

    /// The headline quality numbers in one struct — what the CLI prints
    /// and the stats JSON embeds.
    pub fn summary(&self, pfx: &PrefixSum2D) -> Summary {
        Summary {
            lmax: self.lmax(pfx),
            lavg: pfx.average_load(self.parts()),
            imbalance: self.load_imbalance(pfx),
            rect_count: self.active_parts(),
        }
    }

    /// Checks that the rectangles tile the matrix exactly (§2.1).
    pub fn validate(&self, pfx: &PrefixSum2D) -> Result<(), PartitionError> {
        self.validate_dims(pfx.rows(), pfx.cols())
    }

    /// [`Partition::validate`] against explicit matrix dimensions.
    pub fn validate_dims(&self, rows: usize, cols: usize) -> Result<(), PartitionError> {
        let mut covered = 0usize;
        for (i, r) in self.rects.iter().enumerate() {
            if r.is_empty() {
                continue;
            }
            if r.r1 > rows || r.c1 > cols {
                return Err(PartitionError::OutOfBounds { index: i, rect: *r });
            }
            covered += r.area();
        }
        for i in 0..self.rects.len() {
            for j in i + 1..self.rects.len() {
                if self.rects[i].intersects(&self.rects[j]) {
                    return Err(PartitionError::Overlap { a: i, b: j });
                }
            }
        }
        let expected = rows * cols;
        if covered != expected {
            return Err(PartitionError::Uncovered { covered, expected });
        }
        Ok(())
    }

    /// Owner of every cell as a row-major map (`u32::MAX` marks cells not
    /// covered by any rectangle — never present in a valid partition).
    /// Used by the execution simulator for migration accounting.
    pub fn owner_map(&self, rows: usize, cols: usize) -> Vec<u32> {
        let mut owners = vec![u32::MAX; rows * cols];
        for (i, r) in self.rects.iter().enumerate() {
            for row in r.r0..r.r1 {
                let base = row * cols;
                for col in r.c0..r.c1 {
                    owners[base + col] = i as u32;
                }
            }
        }
        owners
    }

    /// Which processor owns cell `(r, c)`; linear scan over rectangles.
    pub fn owner_of(&self, r: usize, c: usize) -> Option<usize> {
        self.rects.iter().position(|rect| rect.contains(r, c))
    }

    /// Renders the partition as ASCII art with one letter per processor
    /// (one character per cell), for the structure-gallery experiment and
    /// the examples.
    pub fn ascii_art(&self, rows: usize, cols: usize) -> String {
        self.ascii_art_scaled(rows, cols, rows, cols)
    }

    /// [`Partition::ascii_art`] downsampled to `out_rows × out_cols`
    /// characters (each character shows the owner of the sampled cell).
    pub fn ascii_art_scaled(
        &self,
        rows: usize,
        cols: usize,
        out_rows: usize,
        out_cols: usize,
    ) -> String {
        let owners = self.owner_map(rows, cols);
        let mut s = String::with_capacity(out_rows * (out_cols + 1));
        for orow in 0..out_rows {
            let r = orow * rows / out_rows;
            for ocol in 0..out_cols {
                let c = ocol * cols / out_cols;
                let o = owners[r * cols + c];
                let ch = if o == u32::MAX {
                    '?'
                } else {
                    char::from(b'A' + (o % 26) as u8)
                };
                s.push(ch);
            }
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::LoadMatrix;

    #[test]
    fn summary_agrees_with_individual_metrics() {
        let m = LoadMatrix::from_fn(4, 4, |r, c| (r * 4 + c) as u32);
        let p = PrefixSum2D::try_new(&m).unwrap();
        let part = Partition::with_parts(vec![Rect::new(0, 2, 0, 4), Rect::new(2, 4, 0, 4)], 3);
        let s = part.summary(&p);
        assert_eq!(s.lmax, part.lmax(&p));
        assert_eq!(s.lavg, p.average_load(3));
        assert_eq!(s.imbalance, part.load_imbalance(&p));
        assert_eq!(s.rect_count, 2);
    }

    fn pfx(rows: usize, cols: usize) -> PrefixSum2D {
        PrefixSum2D::try_new(&LoadMatrix::from_fn(rows, cols, |r, c| (r + c) as u32 + 1)).unwrap()
    }

    #[test]
    fn valid_quadrant_partition() {
        let p = Partition::new(vec![
            Rect::new(0, 2, 0, 2),
            Rect::new(0, 2, 2, 4),
            Rect::new(2, 4, 0, 2),
            Rect::new(2, 4, 2, 4),
        ]);
        let g = pfx(4, 4);
        assert!(p.validate(&g).is_ok());
        assert_eq!(p.parts(), 4);
        assert_eq!(p.active_parts(), 4);
        let loads = p.loads(&g);
        assert_eq!(loads.iter().sum::<u64>(), g.total());
        assert_eq!(p.lmax(&g), *loads.iter().max().unwrap());
    }

    #[test]
    fn detects_overlap() {
        let p = Partition::new(vec![Rect::new(0, 3, 0, 3), Rect::new(2, 4, 2, 4)]);
        assert_eq!(
            p.validate_dims(4, 4),
            Err(PartitionError::Overlap { a: 0, b: 1 })
        );
    }

    #[test]
    fn detects_uncovered() {
        let p = Partition::new(vec![Rect::new(0, 4, 0, 3)]);
        assert_eq!(
            p.validate_dims(4, 4),
            Err(PartitionError::Uncovered {
                covered: 12,
                expected: 16
            })
        );
    }

    #[test]
    fn detects_out_of_bounds() {
        let p = Partition::new(vec![Rect::new(0, 5, 0, 4)]);
        assert!(matches!(
            p.validate_dims(4, 4),
            Err(PartitionError::OutOfBounds { index: 0, .. })
        ));
    }

    #[test]
    fn empty_rects_are_ignored_by_validation() {
        let p = Partition::with_parts(vec![Rect::new(0, 4, 0, 4)], 3);
        assert!(p.validate_dims(4, 4).is_ok());
        assert_eq!(p.parts(), 3);
        assert_eq!(p.active_parts(), 1);
    }

    #[test]
    fn imbalance_of_perfect_split() {
        let m = LoadMatrix::from_vec(2, 2, vec![5, 5, 5, 5]);
        let g = PrefixSum2D::try_new(&m).unwrap();
        let p = Partition::new(vec![Rect::new(0, 1, 0, 2), Rect::new(1, 2, 0, 2)]);
        assert!(p.load_imbalance(&g).abs() < 1e-12);
        let q = Partition::new(vec![Rect::new(0, 2, 0, 1), Rect::new(0, 2, 1, 2)]);
        assert!(q.load_imbalance(&g).abs() < 1e-12);
    }

    #[test]
    fn imbalance_of_skewed_split() {
        let m = LoadMatrix::from_vec(1, 4, vec![9, 1, 1, 1]);
        let g = PrefixSum2D::try_new(&m).unwrap();
        let p = Partition::new(vec![Rect::new(0, 1, 0, 1), Rect::new(0, 1, 1, 4)]);
        // Lmax = 9, Lavg = 6 -> imbalance 0.5
        assert!((p.load_imbalance(&g) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn owner_map_and_lookup() {
        let p = Partition::new(vec![Rect::new(0, 1, 0, 2), Rect::new(1, 2, 0, 2)]);
        let owners = p.owner_map(2, 2);
        assert_eq!(owners, vec![0, 0, 1, 1]);
        assert_eq!(p.owner_of(0, 1), Some(0));
        assert_eq!(p.owner_of(1, 0), Some(1));
    }

    #[test]
    fn ascii_art_labels_processors() {
        let p = Partition::new(vec![Rect::new(0, 1, 0, 2), Rect::new(1, 2, 0, 2)]);
        assert_eq!(p.ascii_art(2, 2), "AA\nBB\n");
    }
}
