//! Sparse (CSR-like) prefix sums for zero-heavy load matrices.
//!
//! Dense Γ spends `8·(rows+1)·(cols+1)` bytes no matter how many cells
//! are zero; the SLAC-style projected meshes of the paper's experiments
//! are mostly zeros (*Rectangle Tiling Binary Arrays*, arXiv 2007.14142).
//! A [`SparsePrefixSum`] stores, per row, only the maximal **runs** of
//! consecutive nonzero cells, each cell carrying its within-row prefix.
//! Full-width and full-height queries are O(1) from dense row/column
//! prefix borders; any other query sums one within-row lookup pair per
//! row in range, O(rows · log runs-per-row). So the stripe and HIER
//! solvers read 1D prefixes ([`project_into`](crate::PrefixSum2D::project_into)),
//! one built per stripe, or handed down a HIER tree from node to node.
//!
//! Queries and projections are **bit-identical** to the dense backend:
//! both add the same non-negative cells exactly in `u64`. Only the
//! [`PrefixSum2D`](crate::PrefixSum2D) facade builds this structure, so
//! its build counter, work charge, span and fault gate cover both
//! backends; construction surfaces overflow as
//! [`RectpartError::Overflow`] under the dense path's condition (the
//! total reaching 2⁶⁴).

use crate::error::RectpartError;
use crate::geometry::{Axis, Rect};
use crate::matrix::LoadMatrix;

/// CSR-like sparse Γ: per-row nonzero prefix runs.
///
/// Storage is ~16 bytes per nonzero cell in the worst case (isolated
/// nonzeros) plus small dense borders, versus 8 bytes per *cell* for the
/// dense array — a ≥5× saving at ≥90% zeros.
#[derive(Clone, Debug)]
pub(crate) struct SparsePrefixSum {
    rows: usize,
    cols: usize,
    /// `rows + 1` run-index bounds: row `r` owns runs
    /// `row_ptr[r]..row_ptr[r+1]`.
    row_ptr: Vec<u32>,
    /// First column of each run.
    run_col0: Vec<u32>,
    /// `runs + 1` offsets into `vals`: run `i` owns
    /// `vals[run_val0[i]..run_val0[i+1]]` (runs are laid out
    /// contiguously, so each run's end is the next run's start).
    run_val0: Vec<u32>,
    /// Within-row *inclusive* prefix sum at each nonzero cell, in row
    /// order (zeros between runs contribute nothing, so one running sum
    /// per row serves every run of that row).
    vals: Vec<u64>,
    /// `rows + 1` prefix of full row totals (`Γ[r][cols]`): O(1)
    /// full-width queries.
    row_pfx: Vec<u64>,
    /// `cols + 1` full-height column prefix (`Γ[rows][c]`): O(1)
    /// full-height queries.
    col_pfx: Vec<u64>,
    total: u64,
    max_cell: u32,
    min_cell: u32,
}

impl SparsePrefixSum {
    /// `true` when the matrix shape fits this backend's `u32` indices.
    pub(crate) fn indexable(rows: usize, cols: usize) -> bool {
        rows < u32::MAX as usize
            && cols < u32::MAX as usize
            && rows.saturating_mul(cols) < u32::MAX as usize
    }

    /// Builds the sparse representation in one serial O(cells) scan
    /// touching O(nnz) memory, so the result is trivially identical at
    /// any thread count. Surfaces accumulation overflow as
    /// [`RectpartError::Overflow`] exactly like the dense path, and also
    /// errs on shapes whose cell count does not fit the `u32` run
    /// indices (≥ 2³² cells — build Γ dense instead). The caller (the
    /// [`PrefixSum2D`](crate::PrefixSum2D) facade) instruments the build
    /// and applies the fault gate.
    pub(crate) fn build(a: &LoadMatrix) -> Result<Self, RectpartError> {
        let rows = a.rows();
        let cols = a.cols();
        if !Self::indexable(rows, cols) {
            return Err(RectpartError::Overflow);
        }
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0u32);
        let mut run_col0: Vec<u32> = Vec::new();
        let mut run_val0: Vec<u32> = Vec::new();
        let mut vals: Vec<u64> = Vec::new();
        let mut row_pfx = Vec::with_capacity(rows + 1);
        row_pfx.push(0u64);
        let mut col_pfx = vec![0u64; cols + 1];
        let mut max_cell = 0u32;
        let mut min_nonzero = u32::MAX;
        let mut running = 0u64;
        for r in 0..rows {
            let src = a.row(r);
            let mut row_sum = 0u64;
            let mut in_run = false;
            for (c, &v) in src.iter().enumerate() {
                if v == 0 {
                    in_run = false;
                    continue;
                }
                max_cell = max_cell.max(v);
                min_nonzero = min_nonzero.min(v);
                if !in_run {
                    run_col0.push(c as u32);
                    run_val0.push(vals.len() as u32);
                    in_run = true;
                }
                row_sum = row_sum
                    .checked_add(v as u64)
                    .ok_or(RectpartError::Overflow)?;
                vals.push(row_sum);
                // Per-column totals feed the full-height border.
                col_pfx[c + 1] = col_pfx[c + 1]
                    .checked_add(v as u64)
                    .ok_or(RectpartError::Overflow)?;
            }
            row_ptr.push(run_col0.len() as u32);
            running = running
                .checked_add(row_sum)
                .ok_or(RectpartError::Overflow)?;
            row_pfx.push(running);
        }
        run_val0.push(vals.len() as u32);
        // Column totals → full-height prefix Γ[rows][c].
        for c in 1..=cols {
            let prev = col_pfx[c - 1];
            col_pfx[c] = prev
                .checked_add(col_pfx[c])
                .ok_or(RectpartError::Overflow)?;
        }
        let cells = rows * cols;
        let nnz = vals.len();
        let min_cell = if cells == 0 || nnz < cells {
            0
        } else {
            min_nonzero
        };
        let max_cell = if cells == 0 { 0 } else { max_cell };
        rectpart_obs::add(
            rectpart_obs::Counter::SparseGammaRuns,
            run_col0.len() as u64,
        );
        Ok(Self {
            rows,
            cols,
            row_ptr,
            run_col0,
            run_val0,
            vals,
            row_pfx,
            col_pfx,
            total: running,
            max_cell,
            min_cell,
        })
    }

    /// Rebuilds the structure around a set of replaced rows: changed
    /// rows are rescanned from `a` (which must already hold the new
    /// contents), unchanged rows' run storage is spliced over verbatim —
    /// within-row prefixes depend on nothing outside their row — and the
    /// dense borders are recomputed in the same accumulation order as
    /// [`build`](Self::build), so the result is bit-identical to a fresh
    /// build of the updated matrix. `changed` must be sorted and
    /// de-duplicated; `max_cell`/`min_cell` are supplied by the caller
    /// (the facade tracks them via `RowExtrema`).
    ///
    /// Charges [`SparseGammaRuns`](rectpart_obs::Counter::SparseGammaRuns)
    /// only for the rescanned rows' runs — spliced runs are reused, not
    /// rebuilt. The caller must have pre-checked that the new grand
    /// total fits `u64`; every internal sum is bounded by it, so the
    /// checked adds below cannot fail after that check.
    pub(crate) fn patched_rows(
        &self,
        a: &LoadMatrix,
        changed: &[usize],
        max_cell: u32,
        min_cell: u32,
    ) -> Result<Self, RectpartError> {
        let rows = self.rows;
        let cols = self.cols;
        debug_assert!(changed.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(a.rows() == rows && a.cols() == cols);
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0u32);
        let mut run_col0: Vec<u32> = Vec::with_capacity(self.run_col0.len());
        let mut run_val0: Vec<u32> = Vec::with_capacity(self.run_val0.len());
        let mut vals: Vec<u64> = Vec::with_capacity(self.vals.len());
        let mut row_pfx = Vec::with_capacity(rows + 1);
        row_pfx.push(0u64);
        let mut col_pfx = vec![0u64; cols + 1];
        let mut running = 0u64;
        let mut next = 0usize;
        let mut new_runs = 0u64;
        for r in 0..rows {
            if next < changed.len() && changed[next] == r {
                next += 1;
                // Rescan the replaced row exactly like `build` does.
                let src = a.row(r);
                let mut row_sum = 0u64;
                let mut in_run = false;
                for (c, &v) in src.iter().enumerate() {
                    if v == 0 {
                        in_run = false;
                        continue;
                    }
                    if !in_run {
                        run_col0.push(c as u32);
                        run_val0.push(vals.len() as u32);
                        in_run = true;
                        new_runs += 1;
                    }
                    row_sum = row_sum
                        .checked_add(v as u64)
                        .ok_or(RectpartError::Overflow)?;
                    vals.push(row_sum);
                    col_pfx[c + 1] = col_pfx[c + 1]
                        .checked_add(v as u64)
                        .ok_or(RectpartError::Overflow)?;
                }
                running = running
                    .checked_add(row_sum)
                    .ok_or(RectpartError::Overflow)?;
            } else {
                // Splice the old row's runs; cell values fall out of
                // within-row prefix differences for the column border.
                let lo = self.row_ptr[r] as usize;
                let hi = self.row_ptr[r + 1] as usize;
                for i in lo..hi {
                    let v0 = self.run_val0[i] as usize;
                    let v1 = self.run_val0[i + 1] as usize;
                    run_col0.push(self.run_col0[i]);
                    run_val0.push(vals.len() as u32);
                    vals.extend_from_slice(&self.vals[v0..v1]);
                    let c0 = self.run_col0[i] as usize;
                    let mut prev = if i > lo { self.vals[v0 - 1] } else { 0 };
                    for (j, &pv) in self.vals[v0..v1].iter().enumerate() {
                        let cell = pv - prev;
                        prev = pv;
                        col_pfx[c0 + j + 1] = col_pfx[c0 + j + 1]
                            .checked_add(cell)
                            .ok_or(RectpartError::Overflow)?;
                    }
                }
                let row_sum = self.row_pfx[r + 1] - self.row_pfx[r];
                running = running
                    .checked_add(row_sum)
                    .ok_or(RectpartError::Overflow)?;
            }
            row_ptr.push(run_col0.len() as u32);
            row_pfx.push(running);
        }
        run_val0.push(vals.len() as u32);
        for c in 1..=cols {
            let prev = col_pfx[c - 1];
            col_pfx[c] = prev
                .checked_add(col_pfx[c])
                .ok_or(RectpartError::Overflow)?;
        }
        rectpart_obs::add(rectpart_obs::Counter::SparseGammaRuns, new_runs);
        Ok(Self {
            rows,
            cols,
            row_ptr,
            run_col0,
            run_val0,
            vals,
            row_pfx,
            col_pfx,
            total: running,
            max_cell,
            min_cell,
        })
    }

    /// The raw CSR arrays, for bit-identity assertions in tests.
    #[cfg(test)]
    #[allow(clippy::type_complexity)]
    pub(crate) fn raw_parts(&self) -> (&[u32], &[u32], &[u32], &[u64], &[u64], &[u64]) {
        (
            &self.row_ptr,
            &self.run_col0,
            &self.run_val0,
            &self.vals,
            &self.row_pfx,
            &self.col_pfx,
        )
    }

    /// Total load of the matrix.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Largest single-cell load.
    pub fn max_cell(&self) -> u32 {
        self.max_cell
    }

    /// Smallest single-cell load (0 when any zero cell exists).
    pub fn min_cell(&self) -> u32 {
        self.min_cell
    }

    /// Row `r`'s load in columns `[c0, c1)`: two within-row prefix
    /// lookups, O(log runs-in-row) by binary search on run starts.
    #[inline]
    fn row_load(&self, r: usize, c0: usize, c1: usize) -> u64 {
        let (starts, bounds) = self.row_runs(r);
        if starts.is_empty() {
            return 0;
        }
        self.locate(starts, bounds, c1).1 - self.locate(starts, bounds, c0).1
    }

    /// Finds column `c` among one row's runs (as [`row_runs`](Self::row_runs)
    /// returns them): the number of runs starting before `c`, and the
    /// row's prefix left of `c`.
    #[inline]
    fn locate(&self, starts: &[u32], bounds: &[u32], c: usize) -> (usize, u64) {
        if c == 0 {
            return (0, 0);
        }
        let k = starts.partition_point(|&c0| (c0 as usize) < c);
        // The last run starting before c, if any, holds the prefix.
        let Some(i) = k.checked_sub(1) else {
            return (0, 0);
        };
        let (Some(&start), Some(&[v0, v1])) = (starts.get(i), bounds.get(i..i + 2)) else {
            return (k, 0);
        };
        // The run's cells left of c: all of them, or the first c − start
        // when the run straddles c (c > start because run starts are < c).
        let left = (c - start as usize).min((v1 - v0) as usize);
        (
            k,
            self.vals.get(v0 as usize + left - 1).copied().unwrap_or(0),
        )
    }

    /// Load of rows `[r0, r1)` × cols `[c0, c1)`.
    ///
    /// O(1) for full-width and full-height queries (the border arrays),
    /// O((r1−r0)·log runs-per-row) otherwise. Values are bit-identical
    /// to the dense backend's `load4`.
    #[inline]
    pub fn sum4(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> u64 {
        debug_assert!(r0 <= r1 && r1 <= self.rows && c0 <= c1 && c1 <= self.cols);
        let border = |pfx: &[u64], lo: usize, hi: usize| match (pfx.get(lo), pfx.get(hi)) {
            (Some(&l), Some(&h)) => h - l,
            _ => 0,
        };
        if c0 == 0 && c1 == self.cols {
            return border(&self.row_pfx, r0, r1);
        }
        if r0 == 0 && r1 == self.rows {
            return border(&self.col_pfx, c0, c1);
        }
        self.scan_rows(r0, r1, c0, c1)
    }

    /// The rows scan of [`sum4`](Self::sum4), kept out of line: inlined,
    /// it bloats every `PrefixSum2D::load4` call site, and the dense
    /// query loops paid for it (dense HIER and JAG-PQ-OPT solves ran
    /// 12–22% slower than with this call in alternating runs).
    #[inline(never)]
    fn scan_rows(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> u64 {
        (r0..r1).map(|r| self.row_load(r, c0, c1)).sum()
    }

    /// Heap bytes held by the sparse representation (the Γ memory the
    /// substrate benchmark compares against the dense array).
    pub fn gamma_bytes(&self) -> usize {
        self.row_ptr.len() * 4
            + self.run_col0.len() * 4
            + self.run_val0.len() * 4
            + self.vals.len() * 8
            + self.row_pfx.len() * 8
            + self.col_pfx.len() * 8
    }

    /// Row `r`'s runs: their first columns, and the `runs + 1` offsets
    /// into `vals` that bound them. Both empty when `r` is out of range.
    fn row_runs(&self, r: usize) -> (&[u32], &[u32]) {
        let (Some(&lo), Some(&hi)) = (self.row_ptr.get(r), self.row_ptr.get(r + 1)) else {
            return (&[], &[]);
        };
        let (lo, hi) = (lo as usize, hi as usize);
        (
            self.run_col0.get(lo..hi).unwrap_or(&[]),
            self.run_val0.get(lo..=hi).unwrap_or(&[]),
        )
    }

    /// Fills `out` with the prefix of `rect`'s per-line loads along
    /// `onto`: `out[i]` is the load of the first `i` rows
    /// ([`Axis::Rows`]) or columns ([`Axis::Cols`]) of `rect`, so one
    /// subtraction answers any query whose other range is `rect`'s.
    ///
    /// * Full-width onto rows, or full-height onto columns: a slice of
    ///   the dense border, O(extent).
    /// * Onto rows: one within-row prefix difference per row,
    ///   O(h · log runs-per-row).
    /// * Onto columns: walks the runs that overlap `rect`, recovering
    ///   cell values from within-row prefix differences as
    ///   [`patched_rows`](Self::patched_rows) does, O(h · log
    ///   runs-per-row + nonzeros in `rect` + w).
    ///
    /// Every entry is an exact sum of the cells [`sum4`](Self::sum4)
    /// would add, bounded by the grand total, so differences are
    /// bit-identical to `sum4` answers.
    pub(crate) fn project(&self, rect: &Rect, onto: Axis, out: &mut Vec<u64>) {
        out.clear();
        let border = match onto {
            Axis::Rows if rect.c0 == 0 && rect.c1 == self.cols => {
                self.row_pfx.get(rect.r0..=rect.r1)
            }
            Axis::Cols if rect.r0 == 0 && rect.r1 == self.rows => {
                self.col_pfx.get(rect.c0..=rect.c1)
            }
            _ => None,
        };
        if let Some(border) = border {
            let base = border.first().copied().unwrap_or(0);
            out.extend(border.iter().map(|&v| v - base));
            return;
        }
        out.push(0);
        match onto {
            Axis::Rows => {
                let mut acc = 0u64;
                for r in rect.r0..rect.r1 {
                    acc += self.row_load(r, rect.c0, rect.c1);
                    out.push(acc);
                }
            }
            Axis::Cols => {
                out.resize(rect.width() + 1, 0);
                if let Some((_, cols)) = out.split_first_mut() {
                    for r in rect.r0..rect.r1 {
                        self.add_row_cells(r, rect.c0, rect.c1, cols);
                    }
                }
                let mut acc = 0u64;
                for v in out.iter_mut() {
                    acc += *v;
                    *v = acc;
                }
            }
        }
    }

    /// Adds row `r`'s cells in columns `[c0, c1)` to `dst`, whose entry
    /// `j` accumulates column `c0 + j`.
    fn add_row_cells(&self, r: usize, c0: usize, c1: usize, dst: &mut [u64]) {
        let (starts, bounds) = self.row_runs(r);
        // `prev` is the within-row prefix left of the next cell to add: a
        // cell's value is its prefix minus it (zeros add nothing). Runs
        // before the last one starting before c0 end before c0.
        let (k, mut prev) = self.locate(starts, bounds, c0);
        let first = k.saturating_sub(1);
        let (Some(starts), Some(bounds)) = (starts.get(first..), bounds.get(first..)) else {
            return;
        };
        for (&s, b) in starts.iter().zip(bounds.windows(2)) {
            let s = s as usize;
            if s >= c1 {
                break;
            }
            // The run's cells in [c0, c1): `skip..take` of its `b[1] − b[0]`.
            let skip = c0.saturating_sub(s);
            let take = ((b[1] - b[0]) as usize).min(c1 - s);
            let v0 = b[0] as usize;
            let (Some(cells), Some(out)) = (
                self.vals.get(v0 + skip..v0 + take),
                dst.get_mut(s + skip - c0..),
            ) else {
                continue; // the run ends before c0
            };
            for (d, &v) in out.iter_mut().zip(cells) {
                *d += v - prev;
                prev = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefix::{GammaMode, PrefixSum2D};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sparse_matrix(rows: usize, cols: usize, seed: u64, zero_p: f64) -> LoadMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        LoadMatrix::from_fn(rows, cols, |_, _| {
            if rng.gen_bool(zero_p) {
                0
            } else {
                rng.gen_range(1..100)
            }
        })
    }

    #[test]
    fn matches_dense_on_random_rects() {
        let mut rng = StdRng::seed_from_u64(31);
        for &(rows, cols, zero_p) in &[
            (1usize, 9usize, 0.5),
            (13, 7, 0.9),
            (40, 33, 0.95),
            (17, 64, 0.0),
            (5, 5, 1.0),
        ] {
            let m = sparse_matrix(rows, cols, 7 * rows as u64 + cols as u64, zero_p);
            let d = PrefixSum2D::try_new(&m).unwrap();
            let s = SparsePrefixSum::build(&m).unwrap();
            assert_eq!(s.total, d.total());
            assert_eq!(s.max_cell, d.max_cell());
            assert_eq!(s.min_cell, d.min_cell());
            for _ in 0..300 {
                let r0 = rng.gen_range(0..=rows);
                let r1 = rng.gen_range(r0..=rows);
                let c0 = rng.gen_range(0..=cols);
                let c1 = rng.gen_range(c0..=cols);
                assert_eq!(
                    s.sum4(r0, r1, c0, c1),
                    d.load4(r0, r1, c0, c1),
                    "{rows}x{cols} zero_p={zero_p} [{r0},{r1})x[{c0},{c1})"
                );
            }
        }
    }

    #[test]
    fn fast_paths_match_generic_path() {
        let m = sparse_matrix(20, 30, 99, 0.8);
        let s = SparsePrefixSum::build(&m).unwrap();
        for r0 in 0..20 {
            for r1 in r0..=20 {
                // full width
                let generic: u64 = (r0..r1).map(|r| s.row_load(r, 0, 30)).sum();
                assert_eq!(s.sum4(r0, r1, 0, 30), generic);
            }
        }
        for c0 in 0..30 {
            for c1 in c0..=30 {
                let generic: u64 = (0..20).map(|r| s.row_load(r, c0, c1)).sum();
                assert_eq!(s.sum4(0, 20, c0, c1), generic);
            }
        }
    }

    #[test]
    fn runs_and_nnz_counts() {
        let m = LoadMatrix::from_vec(2, 6, vec![1, 1, 0, 2, 0, 3, 0, 0, 0, 0, 0, 0]);
        let s = SparsePrefixSum::build(&m).unwrap();
        assert_eq!(s.vals.len(), 4, "nonzero cells");
        assert_eq!(s.run_col0.len(), 3, "runs");
        assert_eq!(s.total, 7);
        assert_eq!(s.min_cell(), 0);
        assert_eq!(s.sum4(0, 1, 3, 6), 5);
        assert_eq!(s.sum4(1, 2, 0, 6), 0);
    }

    #[test]
    fn all_nonzero_min_cell() {
        let m = LoadMatrix::from_vec(2, 2, vec![4, 2, 9, 5]);
        let s = SparsePrefixSum::build(&m).unwrap();
        assert_eq!(s.min_cell(), 2);
        assert_eq!(s.run_col0.len(), 2); // one maximal run per row
    }

    #[test]
    fn empty_matrix() {
        let m = LoadMatrix::zeros(0, 0);
        let s = SparsePrefixSum::build(&m).unwrap();
        assert_eq!(s.total, 0);
        assert_eq!(s.min_cell(), 0);
        assert_eq!(s.max_cell(), 0);
        assert_eq!(s.sum4(0, 0, 0, 0), 0);
    }

    #[test]
    fn memory_beats_dense_on_sparse_instances() {
        let m = sparse_matrix(128, 128, 5, 0.95);
        let d = PrefixSum2D::try_new_with(&m, GammaMode::Dense).unwrap();
        let s = SparsePrefixSum::build(&m).unwrap();
        assert!(
            s.gamma_bytes() * 5 <= d.gamma_bytes(),
            "sparse {} vs dense {}",
            s.gamma_bytes(),
            d.gamma_bytes()
        );
    }
}
