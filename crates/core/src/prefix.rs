//! 2D prefix sums (the paper's Γ array) and axis-oriented views.
//!
//! # Substrate layout (DESIGN.md §13)
//!
//! [`PrefixSum2D`] is one facade over two storage backends:
//!
//! * the **dense** array — `(rows+1)·(cols+1)` `u64`s, O(1) queries,
//!   built by a cache-blocked tiled sweep whose overflow checks are
//!   hoisted to tile boundaries (the per-cell-checked original survives
//!   in this module's tests as the differential oracle);
//! * the **sparse** CSR-like structure — per-row nonzero prefix runs,
//!   for zero-heavy instances.
//!
//! [`PrefixSum2D::try_new_with`] builds Γ under an explicit [`GammaMode`]
//! (dense, sparse, or automatic above a zero-density threshold);
//! [`PrefixSum2D::try_new`] takes the mode from the `RECTPART_GAMMA`
//! environment variable, dense when unset (how CI runs the whole
//! differential suite against the sparse backend). Queries are
//! bit-identical across backends, so solver output never depends on
//! the choice.

use crate::error::RectpartError;
use crate::geometry::{Axis, Rect};
use crate::matrix::LoadMatrix;
use crate::sparse::SparsePrefixSum;

/// Γ backend selection policy (CLI `--gamma dense|sparse|auto`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GammaMode {
    /// The dense prefix array — the paper's Γ, O(1) queries.
    #[default]
    Dense,
    /// The CSR-like sparse structure — compact on zero-heavy input.
    Sparse,
    /// Dense below [`SPARSE_ZERO_FRACTION_PERCENT`] zero density, sparse above.
    Auto,
}

impl GammaMode {
    /// Parses `"dense"`, `"sparse"`, or `"auto"` (ASCII case-insensitive).
    pub fn parse(s: &str) -> Option<GammaMode> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("dense") {
            Some(GammaMode::Dense)
        } else if s.eq_ignore_ascii_case("sparse") {
            Some(GammaMode::Sparse)
        } else if s.eq_ignore_ascii_case("auto") {
            Some(GammaMode::Auto)
        } else {
            None
        }
    }

    /// The process-wide override from the `RECTPART_GAMMA` environment
    /// variable, read once per process. Unset or unparsable → `None`.
    pub fn from_env() -> Option<GammaMode> {
        static MODE: std::sync::OnceLock<Option<GammaMode>> = std::sync::OnceLock::new();
        *MODE.get_or_init(|| {
            std::env::var("RECTPART_GAMMA")
                .ok()
                .and_then(|s| GammaMode::parse(&s))
        })
    }

    /// The lowercase name [`parse`](Self::parse) accepts — the spelling
    /// used in stats JSON and CLI output.
    pub fn as_str(self) -> &'static str {
        match self {
            GammaMode::Dense => "dense",
            GammaMode::Sparse => "sparse",
            GammaMode::Auto => "auto",
        }
    }
}

/// Zero-cell fraction from which [`GammaMode::Auto`] picks the sparse Γ: its runs take
/// under half the dense bytes. It answers full-width/-height queries in O(1) and scans rows for the
/// rest, so the stripe and HIER solves read 1D projections instead (DESIGN.md §13).
pub const SPARSE_ZERO_FRACTION_PERCENT: u32 = 75;

/// The two storage backends behind the facade.
#[derive(Clone, Debug)]
enum Repr {
    /// `(rows+1) × (cols+1)`, row-major, first row/col all zero.
    Dense(Vec<u64>),
    Sparse(SparsePrefixSum),
}

/// The 2D prefix-sum array Γ of a load matrix:
/// `Γ[r][c] = Σ_{r'<r, c'<c} A[r'][c']` with a zero border, so any
/// rectangle load is four lookups (paper §2.1).
///
/// Construction also records the matrix totals and extrema used by the
/// lower bounds and the Δ-based guarantee formulas.
///
/// ```
/// use rectpart_core::{LoadMatrix, PrefixSum2D, Rect};
///
/// let m = LoadMatrix::from_fn(4, 4, |r, c| (r * 4 + c) as u32);
/// let pfx = PrefixSum2D::try_new(&m).unwrap();
/// assert_eq!(pfx.load(&Rect::new(1, 3, 1, 3)), 5 + 6 + 9 + 10);
/// assert_eq!(pfx.total(), m.total());
/// assert!(pfx.lower_bound(4) >= pfx.total() / 4);
/// ```
#[derive(Clone, Debug)]
pub struct PrefixSum2D {
    rows: usize,
    cols: usize,
    repr: Repr,
    total: u64,
    max_cell: u32,
    min_cell: u32,
}

/// Below this many cells the serial single-pass construction wins over
/// the two-pass parallel scan (thread spawn + extra memory sweep).
const PARALLEL_CELLS_MIN: usize = 1 << 16;

/// Column-tile width of the blocked construction: `512 · 8 B = 4 KiB`
/// per Γ row segment, so a tile's current row, previous row, and source
/// cells sit in L1 together while the three inner loops stay
/// branch-light and autovectorizable.
const TILE: usize = 512;

/// Row-prefix carry bound under which a whole tile of `u32` additions
/// provably cannot overflow `u64` — the guard that hoists the per-cell
/// checked adds to one check per tile.
const TILE_CARRY_GUARD: u64 = u64::MAX - (TILE as u64) * (u32::MAX as u64);

impl PrefixSum2D {
    /// Builds Γ, surfacing overflow as [`RectpartError::Overflow`]
    /// instead of aborting. Uses the dense backend unless the
    /// `RECTPART_GAMMA` environment variable overrides the choice (a set
    /// value [`GammaMode::parse`] rejects counts as unset; the `rectpart`
    /// CLI rejects it instead). For explicit control use [`Self::try_new_with`].
    ///
    /// The dense build uses a two-pass parallel scan when more than one
    /// thread is available and the matrix is large enough; exact integer
    /// addition makes it bit-identical to the serial pass at any thread
    /// count, and both paths report overflow under exactly the same
    /// condition (any Γ entry, equivalently the grand total, reaching 2⁶⁴).
    pub fn try_new(a: &LoadMatrix) -> Result<Self, RectpartError> {
        Self::try_new_with(a, GammaMode::from_env().unwrap_or(GammaMode::Dense))
    }

    /// Builds Γ with an explicit backend policy. `Sparse` falls back to
    /// the dense array when the matrix shape exceeds the sparse
    /// backend's `u32` indices (≥ 2³² cells).
    pub fn try_new_with(a: &LoadMatrix, mode: GammaMode) -> Result<Self, RectpartError> {
        rectpart_obs::incr(rectpart_obs::Counter::GammaBuilds);
        let _timer = rectpart_obs::phase(rectpart_obs::Phase::Gamma);
        let rows = a.rows();
        let cols = a.cols();
        let sparse = match mode {
            GammaMode::Dense => false,
            GammaMode::Sparse => SparsePrefixSum::indexable(rows, cols),
            GammaMode::Auto => Self::auto_picks_sparse(a),
        };
        let _span = rectpart_obs::span::enter(if sparse {
            rectpart_obs::span::SpanKind::GammaSparse
        } else {
            rectpart_obs::span::SpanKind::GammaDense
        });
        rectpart_obs::work::charge((rows * cols) as u64 + 1);
        #[cfg(feature = "faultinject")]
        if rectpart_obs::fault::gamma_should_overflow() {
            return Err(RectpartError::Overflow);
        }
        if sparse {
            let s = SparsePrefixSum::build(a)?;
            return Ok(Self {
                rows,
                cols,
                total: s.total(),
                max_cell: s.max_cell(),
                min_cell: s.min_cell(),
                repr: Repr::Sparse(s),
            });
        }
        if rectpart_parallel::current_threads() >= 2
            && rows >= 2
            && rows * cols >= PARALLEL_CELLS_MIN
        {
            return Self::try_new_parallel(a);
        }
        Self::try_new_serial(a)
    }

    /// `true` when [`GammaMode::Auto`] selects the sparse backend: the
    /// zero-cell fraction reaches [`SPARSE_ZERO_FRACTION_PERCENT`] and
    /// the shape fits the sparse indices. One O(cells) scan — noise next
    /// to the build it steers.
    fn auto_picks_sparse(a: &LoadMatrix) -> bool {
        let cells = a.rows() * a.cols();
        if cells == 0 || !SparsePrefixSum::indexable(a.rows(), a.cols()) {
            return false;
        }
        let zeros = a.data().iter().filter(|&&v| v == 0).count();
        (zeros as u128) * 100 >= (cells as u128) * SPARSE_ZERO_FRACTION_PERCENT as u128
    }

    fn from_dense(
        rows: usize,
        cols: usize,
        g: Vec<u64>,
        total: u64,
        max_cell: u32,
        min_cell: u32,
    ) -> Self {
        Self {
            rows,
            cols,
            repr: Repr::Dense(g),
            total,
            max_cell,
            min_cell,
        }
    }

    /// Blocked single-thread construction. Each row is swept in
    /// [`TILE`]-column tiles with three branch-light inner loops —
    /// extrema, row-prefix scan, column add — and the overflow checks
    /// hoisted to tile boundaries:
    ///
    /// * the row-prefix scan runs unchecked whenever the incoming carry
    ///   is below [`TILE_CARRY_GUARD`] (a whole tile of `u32` additions
    ///   then provably cannot wrap), falling back to per-cell checked
    ///   adds only in the astronomically rare tail;
    /// * the column add exploits that exact Γ entries are monotone in
    ///   `c` within a row: a single `checked_add` on the tile's **last**
    ///   lane overflows exactly when any lane of the tile would, so the
    ///   other lanes use plain wrapping adds (wrapped intermediates are
    ///   never kept — the boundary check errs out first).
    ///
    /// Both arguments of every boundary check are exact by induction
    /// (previous rows and the current row-prefix passed their checks),
    /// so this errs **iff** the per-cell-checked reference build (this
    /// module's test oracle) errs — iff the grand total reaches 2⁶⁴ —
    /// and is bit-identical on success.
    fn try_new_serial(a: &LoadMatrix) -> Result<Self, RectpartError> {
        let rows = a.rows();
        let cols = a.cols();
        let w = cols + 1;
        let mut g = vec![0u64; (rows + 1) * w];
        let mut max_cell = 0u32;
        let mut min_cell = u32::MAX;
        let mut checked_ops = 0u64;
        for r in 0..rows {
            let src = a.row(r);
            // lint:allow(panic-reach) -- g.len() = (rows+1)*w and r < rows,
            // so the midpoint (r+1)*w <= rows*w is always in bounds
            let (head, tail) = g.split_at_mut((r + 1) * w);
            // lint:allow(panic-reach) -- head.len() = (r+1)*w > r*w
            let prev = &head[r * w..];
            // lint:allow(panic-reach) -- tail.len() = (rows-r)*w >= w
            let cur = &mut tail[..w];
            let mut carry = 0u64;
            let mut t0 = 0usize;
            while t0 < cols {
                let t1 = (t0 + TILE).min(cols);
                for &v in &src[t0..t1] {
                    max_cell = max_cell.max(v);
                    min_cell = min_cell.min(v);
                }
                if carry <= TILE_CARRY_GUARD {
                    // One guard check covers the whole tile.
                    checked_ops += 1;
                    let mut rs = carry;
                    for c in t0..t1 {
                        rs += src[c] as u64;
                        cur[c + 1] = rs;
                    }
                    carry = rs;
                } else {
                    for c in t0..t1 {
                        carry = carry
                            .checked_add(src[c] as u64)
                            .ok_or(RectpartError::Overflow)?;
                        cur[c + 1] = carry;
                    }
                    checked_ops += (t1 - t0) as u64;
                }
                for c in t0 + 1..t1 {
                    cur[c] = cur[c].wrapping_add(prev[c]);
                }
                cur[t1] = cur[t1]
                    .checked_add(prev[t1])
                    .ok_or(RectpartError::Overflow)?;
                checked_ops += 1;
                t0 = t1;
            }
        }
        rectpart_obs::add(
            rectpart_obs::Counter::GammaTileSweeps,
            (rows * cols.div_ceil(TILE)) as u64,
        );
        rectpart_obs::exec_add(rectpart_obs::ExecStat::GammaCheckedOps, checked_ops);
        if rows == 0 || cols == 0 {
            min_cell = 0;
        }
        let total = g[(rows + 1) * w - 1];
        Ok(Self::from_dense(rows, cols, g, total, max_cell, min_cell))
    }

    /// Two-pass blocked scan.
    ///
    /// 1. Every row `r` gets its 1D prefix sums written into Γ row `r+1`
    ///    (parallel over rows; also collects per-row extrema). Rows are
    ///    swept in the same [`TILE`]-column tiles as the serial path,
    ///    with the same hoisted carry guard.
    /// 2. Rows are grouped into contiguous blocks. Each block accumulates
    ///    its rows top-to-bottom (parallel over blocks); the running
    ///    block offsets — the true Γ values of each block's last row —
    ///    are then folded serially and added back to every row of the
    ///    later blocks (parallel over blocks again). Every row of these
    ///    passes is monotone in `c`, so a single `checked_add` on the
    ///    last column stands in for per-cell checks (see
    ///    [`Self::try_new_serial`] for the argument).
    ///
    /// All sums are exact `u64` additions of non-negative values, so the
    /// intermediate values never exceed the final Γ entries and the
    /// boundary checks report overflow exactly when the serial pass
    /// would. Workers never panic on overflow — each closure returns a
    /// success marker and the forking thread surfaces the `Err`.
    fn try_new_parallel(a: &LoadMatrix) -> Result<Self, RectpartError> {
        let rows = a.rows();
        let cols = a.cols();
        let w = cols + 1;
        let mut g = vec![0u64; (rows + 1) * w];
        let mut checked_ops = 0u64;

        // Pass 1: per-row prefix sums + extrema. Γ row r+1 is the chunk
        // of length w starting at (r+1)*w; chunking g[w..] by w visits
        // exactly the non-border rows. `None` marks an overflowing row.
        let extrema: Vec<Option<(u32, u32, u64)>> =
            rectpart_parallel::map_chunks_mut(&mut g[w..], w, |r, grow| {
                let src = a.row(r);
                let mut mx = 0u32;
                let mut mn = u32::MAX;
                let mut ops = 0u64;
                let mut carry = 0u64;
                let mut t0 = 0usize;
                while t0 < cols {
                    let t1 = (t0 + TILE).min(cols);
                    for &v in &src[t0..t1] {
                        mx = mx.max(v);
                        mn = mn.min(v);
                    }
                    if carry <= TILE_CARRY_GUARD {
                        ops += 1;
                        let mut rs = carry;
                        for c in t0..t1 {
                            rs += src[c] as u64;
                            grow[c + 1] = rs;
                        }
                        carry = rs;
                    } else {
                        for c in t0..t1 {
                            carry = carry.checked_add(src[c] as u64)?;
                            grow[c + 1] = carry;
                        }
                        ops += (t1 - t0) as u64;
                    }
                    t0 = t1;
                }
                Some((mx, mn, ops))
            });
        let mut max_cell = 0u32;
        let mut min_cell = u32::MAX;
        for row_extrema in extrema {
            let (rmx, rmn, ops) = row_extrema.ok_or(RectpartError::Overflow)?;
            max_cell = max_cell.max(rmx);
            min_cell = min_cell.min(rmn);
            checked_ops += ops;
        }

        // Pass 2a: block-local column accumulation (`None` = overflow).
        // Accumulated rows are monotone in c, so each row needs only one
        // boundary check on its last column.
        let threads = rectpart_parallel::current_threads();
        let block_rows = rows.div_ceil(threads.max(2)).max(1);
        let ok = rectpart_parallel::map_chunks_mut(&mut g[w..], block_rows * w, |_, block| {
            let n_rows = block.len() / w;
            let mut ops = 0u64;
            for r in 1..n_rows {
                let (prev, cur) = block.split_at_mut(r * w);
                let prev = &prev[(r - 1) * w..];
                for c in 1..w - 1 {
                    cur[c] = cur[c].wrapping_add(prev[c]);
                }
                cur[w - 1] = cur[w - 1].checked_add(prev[w - 1])?;
                ops += 1;
            }
            Some(ops)
        });
        for block_ops in ok {
            checked_ops += block_ops.ok_or(RectpartError::Overflow)?;
        }

        // Pass 2b: serial fold of block offsets. After 2a, each block's
        // last row holds the block-local column sums, so the running
        // prefix over those is the true Γ row at each block boundary —
        // the offset the next block needs. O(threads · cols) work; the
        // running row is monotone in c, so one boundary check per block.
        let n_blocks = rows.div_ceil(block_rows);
        let mut offsets: Vec<Vec<u64>> = Vec::with_capacity(n_blocks.saturating_sub(1));
        let mut running = vec![0u64; w];
        for b in 0..n_blocks.saturating_sub(1) {
            let last_row = (b + 1) * block_rows; // 1-based Γ row; never the final block
            for c in 0..w - 1 {
                running[c] = running[c].wrapping_add(g[last_row * w + c]);
            }
            running[w - 1] = running[w - 1]
                .checked_add(g[last_row * w + w - 1])
                .ok_or(RectpartError::Overflow)?;
            checked_ops += 1;
            offsets.push(running.clone());
        }

        // Pass 2c: add each block's offset to all of its rows. Offset
        // and row are both monotone in c: one boundary check per row.
        let offsets = &offsets;
        let ok = rectpart_parallel::map_chunks_mut(&mut g[w..], block_rows * w, |b, block| {
            if b == 0 {
                return Some(0u64);
            }
            let off = &offsets[b - 1];
            let n_rows = block.len() / w;
            let mut ops = 0u64;
            for r in 0..n_rows {
                let row = &mut block[r * w..(r + 1) * w];
                for c in 1..w - 1 {
                    row[c] = row[c].wrapping_add(off[c]);
                }
                row[w - 1] = row[w - 1].checked_add(off[w - 1])?;
                ops += 1;
            }
            Some(ops)
        });
        for block_ops in ok {
            checked_ops += block_ops.ok_or(RectpartError::Overflow)?;
        }

        rectpart_obs::add(
            rectpart_obs::Counter::GammaTileSweeps,
            (rows * cols.div_ceil(TILE)) as u64,
        );
        rectpart_obs::exec_add(rectpart_obs::ExecStat::GammaCheckedOps, checked_ops);
        if rows == 0 || cols == 0 {
            min_cell = 0;
            max_cell = 0;
        }
        let total = g[(rows + 1) * w - 1];
        Ok(Self::from_dense(rows, cols, g, total, max_cell, min_cell))
    }

    /// Number of rows of the underlying matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the underlying matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total load of the matrix.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Largest single-cell load (a lower bound on any `Lmax`).
    pub fn max_cell(&self) -> u32 {
        self.max_cell
    }

    /// Smallest single-cell load.
    pub fn min_cell(&self) -> u32 {
        self.min_cell
    }

    /// Δ = max/min cell load; `None` when a zero cell exists.
    pub fn delta(&self) -> Option<f64> {
        if self.min_cell == 0 {
            None
        } else {
            Some(self.max_cell as f64 / self.min_cell as f64)
        }
    }

    /// `true` when this instance holds the sparse backend.
    pub fn is_sparse(&self) -> bool {
        matches!(self.repr, Repr::Sparse(_))
    }

    /// The backend actually selected ([`GammaMode::Dense`] or
    /// [`GammaMode::Sparse`], never `Auto`).
    pub fn backend(&self) -> GammaMode {
        match self.repr {
            Repr::Dense(_) => GammaMode::Dense,
            Repr::Sparse(_) => GammaMode::Sparse,
        }
    }

    /// Heap bytes held by the Γ representation.
    pub fn gamma_bytes(&self) -> usize {
        match &self.repr {
            Repr::Dense(g) => g.len() * std::mem::size_of::<u64>(),
            Repr::Sparse(s) => s.gamma_bytes(),
        }
    }

    /// The dense Γ entries, when the dense backend is active (tests
    /// compare constructions entry by entry).
    #[cfg(test)]
    pub(crate) fn dense_entries(&self) -> Option<&[u64]> {
        match &self.repr {
            Repr::Dense(g) => Some(g),
            Repr::Sparse(_) => None,
        }
    }

    /// Load of rows `[r0, r1)` × cols `[c0, c1)`. O(1) on the dense
    /// backend; on the sparse backend O(1) for full-width and
    /// full-height queries and one within-row lookup pair per row in
    /// range otherwise.
    #[inline]
    pub fn load4(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> u64 {
        debug_assert!(r0 <= r1 && r1 <= self.rows && c0 <= c1 && c1 <= self.cols);
        match &self.repr {
            Repr::Dense(g) => {
                let w = self.cols + 1;
                // lint:allow(panic-reach) -- API contract (debug_assert
                // above): r* <= rows, c* <= cols, and g.len() = (rows+1)*w,
                // so every corner index r*w + c <= rows*w + cols < g.len()
                g[r1 * w + c1] + g[r0 * w + c0] - g[r0 * w + c1] - g[r1 * w + c0]
            }
            Repr::Sparse(s) => s.sum4(r0, r1, c0, c1),
        }
    }

    /// Load of a rectangle (O(1) on the dense backend).
    #[inline]
    pub fn load(&self, r: &Rect) -> u64 {
        self.load4(r.r0, r.r1, r.c0, r.c1)
    }

    /// The two classical lower bounds on the optimal maximum load
    /// (paper §2.1): `⌈total/m⌉` and the largest cell.
    pub fn lower_bound(&self, m: usize) -> u64 {
        assert!(m >= 1);
        let avg = self.total.div_ceil(m as u64);
        avg.max(self.max_cell as u64)
    }

    /// Average per-processor load `total / m` as a float (denominator of
    /// the load-imbalance metric).
    pub fn average_load(&self, m: usize) -> f64 {
        self.total as f64 / m as f64
    }

    /// An axis-oriented view with `axis` as the main dimension.
    pub fn view(&self, axis: Axis) -> View<'_> {
        View { pfx: self, axis }
    }

    /// Applies row-granular delta updates to `a` **and** patches this Γ
    /// in place, keeping the two consistent — the resident engine's
    /// alternative to a full rebuild when only a few rows moved.
    ///
    /// Each [`RowUpdate`] replaces one whole matrix row. Updates are
    /// applied in order (a later update to the same row wins). The
    /// patched Γ is **bit-identical** to a fresh build from the updated
    /// matrix on either backend:
    ///
    /// * **dense** — a changed row `r` shifts every Γ row `> r` by that
    ///   row's column-prefix delta. The deltas are folded into one
    ///   cumulative per-column correction and swept down the table once,
    ///   in two's-complement (`wrapping`) arithmetic: the true new
    ///   entries are exact sums below 2⁶⁴ (pre-checked), so arithmetic
    ///   mod 2⁶⁴ reproduces them exactly. O(changed·n + span·n) where
    ///   `span` is the distance from the first changed row to the
    ///   bottom, versus O(rows·n) for a rebuild — and no Γ allocation.
    /// * **sparse** — changed rows are rescanned, unchanged rows' run
    ///   storage is spliced over verbatim (within-row prefixes do not
    ///   depend on other rows), and the dense borders are recomputed in
    ///   the same accumulation order as a fresh sparse build, so every
    ///   array matches it bit-for-bit.
    ///
    /// Overflow (new grand total ≥ 2⁶⁴) and validation errors are
    /// detected **before** anything is mutated: on `Err`, matrix, Γ, and
    /// `extrema` are all unchanged.
    ///
    /// `extrema` must describe `a` (build it once per resident matrix
    /// with [`RowExtrema::new`]); it is patched along with Γ so the
    /// facade's [`max_cell`](Self::max_cell)/[`min_cell`](Self::min_cell)
    /// stay exact in O(rows) instead of O(cells) per delta.
    ///
    /// Charges [`DeltaRowsPatched`](rectpart_obs::Counter::DeltaRowsPatched)
    /// and `changed·(cols+1) + 1` work units (the row-repair work proxy;
    /// a rebuild charges `rows·cols + 1`). Returns the number of rows
    /// patched (after de-duplication).
    pub fn apply_row_updates(
        &mut self,
        a: &mut LoadMatrix,
        updates: &[RowUpdate],
        extrema: &mut RowExtrema,
    ) -> Result<u64, RectpartError> {
        let rows = self.rows;
        let cols = self.cols;
        if a.rows() != rows || a.cols() != cols || extrema.max.len() != rows {
            return Err(RectpartError::DimMismatch {
                rows,
                cols,
                len: a.data().len(),
            });
        }
        // Validate, then de-duplicate keeping the last update per row.
        let mut slot: Vec<Option<&[u32]>> = vec![None; rows];
        for u in updates {
            if u.row >= rows {
                return Err(RectpartError::RowOutOfRange { row: u.row, rows });
            }
            if u.cells.len() != cols {
                return Err(RectpartError::RaggedRow {
                    row: u.row,
                    expected: cols,
                    got: u.cells.len(),
                });
            }
            // lint:allow(panic-reach) -- u.row < rows = slot.len() just checked
            slot[u.row] = Some(&u.cells);
        }
        let deduped: Vec<(usize, &[u32])> = slot
            .iter()
            .enumerate()
            .filter_map(|(r, c)| c.map(|cells| (r, cells)))
            .collect();
        if deduped.is_empty() {
            return Ok(0);
        }
        // Pre-check the new grand total so the patch cannot overflow
        // mid-sweep — the same error condition as a cold build (total
        // reaching 2⁶⁴), detected before any state changes.
        let mut new_total = self.total as i128;
        for &(r, cells) in &deduped {
            let old: i128 = a.row(r).iter().map(|&v| v as i128).sum();
            let new: i128 = cells.iter().map(|&v| v as i128).sum();
            new_total += new - old;
        }
        if new_total >= (1i128 << 64) {
            return Err(RectpartError::Overflow);
        }
        let k = deduped.len() as u64;
        let _timer = rectpart_obs::phase(rectpart_obs::Phase::Gamma);
        rectpart_obs::add(rectpart_obs::Counter::DeltaRowsPatched, k);
        rectpart_obs::work::charge(k * (cols as u64 + 1) + 1);

        if let Repr::Dense(g) = &mut self.repr {
            // Sweep once from the first changed row to the bottom,
            // folding each changed row's column-prefix delta into a
            // cumulative per-column correction as it is passed.
            let w = cols + 1;
            let mut cum = vec![0u64; w];
            let first = deduped[0].0;
            let mut next = 0usize;
            for i in (first + 1)..=rows {
                let r = i - 1;
                if next < deduped.len() && deduped[next].0 == r {
                    let cells = deduped[next].1;
                    next += 1;
                    let src = a.row(r);
                    let mut old_p = 0u64;
                    let mut new_p = 0u64;
                    for c in 0..cols {
                        old_p = old_p.wrapping_add(src[c] as u64);
                        new_p = new_p.wrapping_add(cells[c] as u64);
                        // lint:allow(panic-reach) -- c < cols < w = cum.len()
                        cum[c + 1] = cum[c + 1].wrapping_add(new_p.wrapping_sub(old_p));
                    }
                }
                // lint:allow(panic-reach) -- g.len() = (rows+1)*w and i <= rows
                let grow = &mut g[i * w..(i + 1) * w];
                for c in 1..w {
                    grow[c] = grow[c].wrapping_add(cum[c]);
                }
            }
        }
        // Commit the rows to the matrix and the extrema scratch.
        for &(r, cells) in &deduped {
            // lint:allow(panic-reach) -- r < rows, cells.len() == cols
            a.data_mut()[r * cols..(r + 1) * cols].copy_from_slice(cells);
            extrema.set_row(r, cells);
        }
        let (max_cell, min_cell) = extrema.fold(rows * cols);
        // Sparse backend: splice a fresh structure around the changed
        // rows (cannot fail past the total pre-check above).
        let patched = match &self.repr {
            Repr::Sparse(s) => {
                let changed: Vec<usize> = deduped.iter().map(|&(r, _)| r).collect();
                Some(s.patched_rows(a, &changed, max_cell, min_cell)?)
            }
            Repr::Dense(_) => None,
        };
        if let Some(s) = patched {
            self.repr = Repr::Sparse(s);
        }
        self.total = new_total as u64;
        self.max_cell = max_cell;
        self.min_cell = min_cell;
        Ok(k)
    }
}

/// One replaced row of a delta update (see
/// [`PrefixSum2D::apply_row_updates`]): the full new contents of
/// matrix row `row`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowUpdate {
    /// Row index to replace.
    pub row: usize,
    /// New cell loads; must be exactly `cols` long.
    pub cells: Vec<u32>,
}

/// Per-row cell extrema of a resident matrix — the O(rows) scratch that
/// lets [`PrefixSum2D::apply_row_updates`] keep the global
/// `max_cell`/`min_cell` exact without rescanning the whole matrix
/// (the previous maximum may have lived in a row the delta shrank).
#[derive(Clone, Debug)]
pub struct RowExtrema {
    max: Vec<u32>,
    min: Vec<u32>,
}

impl RowExtrema {
    /// Scans `a` once and records each row's max and min cell.
    pub fn new(a: &LoadMatrix) -> Self {
        let rows = a.rows();
        let mut max = Vec::with_capacity(rows);
        let mut min = Vec::with_capacity(rows);
        for r in 0..rows {
            let (mut mx, mut mn) = (0u32, u32::MAX);
            for &v in a.row(r) {
                mx = mx.max(v);
                mn = mn.min(v);
            }
            max.push(mx);
            min.push(mn);
        }
        Self { max, min }
    }

    /// Re-records row `r` from its new contents.
    fn set_row(&mut self, r: usize, cells: &[u32]) {
        let (mut mx, mut mn) = (0u32, u32::MAX);
        for &v in cells {
            mx = mx.max(v);
            mn = mn.min(v);
        }
        // lint:allow(panic-reach) -- callers validate r against the row count
        self.max[r] = mx;
        self.min[r] = mn;
    }

    /// Global `(max_cell, min_cell)` under the build conventions:
    /// `(0, 0)` for a degenerate matrix.
    fn fold(&self, cells: usize) -> (u32, u32) {
        if cells == 0 {
            return (0, 0);
        }
        let mut mx = 0u32;
        let mut mn = u32::MAX;
        for i in 0..self.max.len() {
            mx = mx.max(self.max[i]);
            mn = mn.min(self.min[i]);
        }
        (mx, mn)
    }
}

impl PrefixSum2D {
    /// Projects `rect` onto `axis`: fills `out` with `extent + 1`
    /// prefix loads, `out[i]` being the load of `rect`'s first `i` rows
    /// ([`Axis::Rows`]) or columns ([`Axis::Cols`]). A query that keeps
    /// `rect`'s range on the other axis is then one subtraction:
    /// `out[j] − out[i]` equals the [`load`](Self::load) of lines
    /// `[lo + i, lo + j)`, bit for bit.
    ///
    /// This is how the solvers avoid the sparse backend's per-row scans
    /// (see [`load4`](Self::load4) for its costs). On the dense backend
    /// it is `extent + 1` four-lookup queries.
    ///
    /// ```
    /// use rectpart_core::{Axis, GammaMode, LoadMatrix, PrefixSum2D, Rect};
    ///
    /// let m = LoadMatrix::from_fn(6, 6, |r, c| if (r + c) % 3 == 0 { (r + 1) as u32 } else { 0 });
    /// let pfx = PrefixSum2D::try_new_with(&m, GammaMode::Sparse).unwrap();
    /// let rect = Rect::new(1, 5, 2, 6);
    /// let mut cols = Vec::new();
    /// pfx.project_into(&rect, Axis::Cols, &mut cols);
    /// assert_eq!(cols.len(), rect.width() + 1);
    /// assert_eq!(cols[3] - cols[1], pfx.load(&Rect::new(1, 5, 3, 5)));
    /// ```
    pub fn project_into(&self, rect: &Rect, axis: Axis, out: &mut Vec<u64>) {
        match &self.repr {
            Repr::Sparse(s) => s.project(rect, axis, out),
            Repr::Dense(_) => {
                let Rect { r0, r1, c0, c1 } = *rect;
                out.clear();
                match axis {
                    Axis::Rows => out.extend((r0..=r1).map(|r| self.load4(r0, r, c0, c1))),
                    Axis::Cols => out.extend((c0..=c1).map(|c| self.load4(r0, r1, c0, c))),
                }
            }
        }
    }
}

/// A zero-cost re-orientation of a [`PrefixSum2D`]: algorithms written for
/// "main × auxiliary" coordinates work on either orientation (the paper's
/// `-HOR`/`-VER` variants) through this adapter.
#[derive(Clone, Copy)]
pub struct View<'a> {
    pfx: &'a PrefixSum2D,
    axis: Axis,
}

impl<'a> View<'a> {
    /// Length of the main dimension.
    pub fn n_main(&self) -> usize {
        match self.axis {
            Axis::Rows => self.pfx.rows(),
            Axis::Cols => self.pfx.cols(),
        }
    }

    /// Length of the auxiliary dimension.
    pub fn n_aux(&self) -> usize {
        match self.axis {
            Axis::Rows => self.pfx.cols(),
            Axis::Cols => self.pfx.rows(),
        }
    }

    /// The main axis of this view.
    pub fn axis(&self) -> Axis {
        self.axis
    }

    /// The underlying prefix sums.
    pub fn prefix(&self) -> &'a PrefixSum2D {
        self.pfx
    }

    /// Load of main `[m0, m1)` × aux `[a0, a1)`.
    #[inline]
    pub fn load(&self, m0: usize, m1: usize, a0: usize, a1: usize) -> u64 {
        match self.axis {
            Axis::Rows => self.pfx.load4(m0, m1, a0, a1),
            Axis::Cols => self.pfx.load4(a0, a1, m0, m1),
        }
    }

    /// Maps view coordinates back to a matrix-space rectangle.
    pub fn rect(&self, m0: usize, m1: usize, a0: usize, a1: usize) -> Rect {
        match self.axis {
            Axis::Rows => Rect::new(m0, m1, a0, a1),
            Axis::Cols => Rect::new(a0, a1, m0, m1),
        }
    }

    /// The additive cost oracle of main stripe `[s0, s1)` over the
    /// auxiliary dimension — `cost(a, b) == self.load(s0, s1, a, b)` —
    /// for the 1D solves that cut stripes.
    ///
    /// The stripe is projected once ([`PrefixSum2D::project_into`]) and
    /// each query is one subtraction. A 1D solve asks `n_aux` unit
    /// queries for its lower bound alone, so on dense Γ the projection's
    /// `n_aux + 1` four-lookup queries cost no more than querying Γ, and
    /// on sparse Γ, where a query scans every row in range, it is the
    /// difference between one pass over the stripe and one per query.
    ///
    /// ```
    /// use rectpart_core::{Axis, GammaMode, LoadMatrix, PrefixSum2D};
    /// use rectpart_onedim::IntervalCost;
    ///
    /// let m = LoadMatrix::from_fn(5, 7, |r, c| if c % 2 == 0 { (r + c) as u32 } else { 0 });
    /// let pfx = PrefixSum2D::try_new_with(&m, GammaMode::Sparse).unwrap();
    /// let view = pfx.view(Axis::Cols);
    /// let cost = view.stripe_cost(2, 5);
    /// assert_eq!(cost.len(), view.n_aux());
    /// assert_eq!(cost.cost(1, 4), view.load(2, 5, 1, 4));
    /// ```
    pub fn stripe_cost(&self, s0: usize, s1: usize) -> StripeCost {
        let mut prefix = Vec::new();
        let stripe = self.rect(s0, s1, 0, self.n_aux());
        self.pfx
            .project_into(&stripe, self.axis.flip(), &mut prefix);
        StripeCost { prefix }
    }
}

/// The interval cost of one stripe over the auxiliary dimension, made
/// by [`View::stripe_cost`]: the stripe's `len + 1` prefix loads.
#[derive(Clone, Debug)]
pub struct StripeCost {
    prefix: Vec<u64>,
}

impl rectpart_onedim::IntervalCost for StripeCost {
    fn len(&self) -> usize {
        self.prefix.len().saturating_sub(1)
    }

    #[inline]
    fn cost(&self, lo: usize, hi: usize) -> u64 {
        debug_assert!(lo <= hi && hi < self.prefix.len());
        // lint:allow(panic-reach) -- API contract (debug_assert
        // above): lo <= hi <= len, and prefix holds len + 1 entries
        self.prefix[hi] - self.prefix[lo]
    }

    fn additive(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    impl PrefixSum2D {
        /// The original one-pass construction with **two checked additions
        /// per cell**, kept verbatim as the differential oracle for the
        /// blocked builds. Produces bit-identical results to
        /// [`PrefixSum2D::try_new`] under the dense backend and errs under
        /// the identical condition.
        fn try_new_reference(a: &LoadMatrix) -> Result<Self, RectpartError> {
            rectpart_obs::incr(rectpart_obs::Counter::GammaBuilds);
            let rows = a.rows();
            let cols = a.cols();
            let w = cols + 1;
            let mut g = vec![0u64; (rows + 1) * w];
            let mut max_cell = 0u32;
            let mut min_cell = u32::MAX;
            for r in 0..rows {
                let mut row_sum = 0u64;
                let src = a.row(r);
                for c in 0..cols {
                    let v = src[c];
                    max_cell = max_cell.max(v);
                    min_cell = min_cell.min(v);
                    row_sum = row_sum
                        .checked_add(v as u64)
                        .ok_or(RectpartError::Overflow)?;
                    let above = g[r * w + (c + 1)];
                    g[(r + 1) * w + (c + 1)] =
                        above.checked_add(row_sum).ok_or(RectpartError::Overflow)?;
                }
            }
            rectpart_obs::exec_add(
                rectpart_obs::ExecStat::GammaCheckedOps,
                2 * (rows * cols) as u64,
            );
            if rows == 0 || cols == 0 {
                min_cell = 0;
            }
            let total = g[(rows + 1) * w - 1];
            Ok(Self::from_dense(rows, cols, g, total, max_cell, min_cell))
        }
    }

    #[test]
    fn prefix_matches_naive_on_random_matrix() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = LoadMatrix::from_fn(13, 9, |_, _| rng.gen_range(0..50));
        let p = PrefixSum2D::try_new(&m).unwrap();
        assert_eq!(p.total(), m.total());
        for _ in 0..200 {
            let r0 = rng.gen_range(0..=13);
            let r1 = rng.gen_range(r0..=13);
            let c0 = rng.gen_range(0..=9);
            let c1 = rng.gen_range(c0..=9);
            let rect = Rect::new(r0, r1, c0, c1);
            assert_eq!(p.load(&rect), m.load_naive(&rect), "{rect:?}");
        }
    }

    #[test]
    fn extrema_and_delta() {
        let m = LoadMatrix::from_vec(2, 2, vec![2, 8, 4, 6]);
        let p = PrefixSum2D::try_new(&m).unwrap();
        assert_eq!(p.max_cell(), 8);
        assert_eq!(p.min_cell(), 2);
        assert_eq!(p.delta(), Some(4.0));
        assert_eq!(p.total(), 20);
    }

    #[test]
    fn lower_bound_combines_average_and_max_cell() {
        let m = LoadMatrix::from_vec(1, 4, vec![10, 1, 1, 1]);
        let p = PrefixSum2D::try_new(&m).unwrap();
        assert_eq!(p.lower_bound(2), 10); // max cell dominates
        assert_eq!(p.lower_bound(1), 13);
        let u = LoadMatrix::from_vec(1, 4, vec![3, 3, 3, 3]);
        let pu = PrefixSum2D::try_new(&u).unwrap();
        assert_eq!(pu.lower_bound(2), 6); // average dominates
        assert_eq!(pu.lower_bound(3), 4); // ceil(12/3)=4 > 3
    }

    #[test]
    fn view_reorients_coordinates() {
        let m = LoadMatrix::from_fn(3, 5, |r, c| (r * 5 + c) as u32);
        let p = PrefixSum2D::try_new(&m).unwrap();
        let vr = p.view(Axis::Rows);
        let vc = p.view(Axis::Cols);
        assert_eq!(vr.n_main(), 3);
        assert_eq!(vr.n_aux(), 5);
        assert_eq!(vc.n_main(), 5);
        assert_eq!(vc.n_aux(), 3);
        // Same region through both views.
        let direct = p.load4(1, 3, 2, 4);
        assert_eq!(vr.load(1, 3, 2, 4), direct);
        assert_eq!(vc.load(2, 4, 1, 3), direct);
        assert_eq!(vr.rect(1, 3, 2, 4), Rect::new(1, 3, 2, 4));
        assert_eq!(vc.rect(2, 4, 1, 3), Rect::new(1, 3, 2, 4));
    }

    #[test]
    fn blocked_serial_is_bit_identical_to_reference() {
        let mut rng = StdRng::seed_from_u64(23);
        // Shapes around the tile boundary, plus degenerate ones.
        for (rows, cols) in [
            (1, 7),
            (3, TILE - 1),
            (3, TILE),
            (3, TILE + 1),
            (2, 2 * TILE + 5),
            (64, 1),
            (9, 300),
        ] {
            let m = LoadMatrix::from_fn(rows, cols, |_, _| rng.gen_range(0..1000));
            let reference = PrefixSum2D::try_new_reference(&m).unwrap();
            let blocked = PrefixSum2D::try_new_serial(&m).unwrap();
            assert_eq!(
                blocked.dense_entries(),
                reference.dense_entries(),
                "{rows}x{cols}"
            );
            assert_eq!(blocked.max_cell, reference.max_cell);
            assert_eq!(blocked.min_cell, reference.min_cell);
            assert_eq!(blocked.total, reference.total);
        }
    }

    #[test]
    fn parallel_scan_is_bit_identical_to_serial() {
        let mut rng = StdRng::seed_from_u64(11);
        for (rows, cols) in [(1, 7), (2, 2), (37, 53), (64, 1), (100, 257), (4, 1100)] {
            let m = LoadMatrix::from_fn(rows, cols, |_, _| rng.gen_range(0..1000));
            let serial = PrefixSum2D::try_new_serial(&m).unwrap();
            for t in [1, 2, 3, 8] {
                let par = rectpart_parallel::with_threads(t, || {
                    PrefixSum2D::try_new_parallel(&m).unwrap()
                });
                assert_eq!(
                    par.dense_entries(),
                    serial.dense_entries(),
                    "{rows}x{cols} threads={t}"
                );
                assert_eq!(par.max_cell, serial.max_cell);
                assert_eq!(par.min_cell, serial.min_cell);
                assert_eq!(par.total, serial.total);
            }
        }
    }

    #[test]
    fn sparse_backend_answers_identically_through_the_facade() {
        let mut rng = StdRng::seed_from_u64(44);
        let m = LoadMatrix::from_fn(31, 57, |_, _| {
            if rng.gen_bool(0.9) {
                0
            } else {
                rng.gen_range(1..100)
            }
        });
        let dense = PrefixSum2D::try_new_with(&m, GammaMode::Dense).unwrap();
        let sparse = PrefixSum2D::try_new_with(&m, GammaMode::Sparse).unwrap();
        assert!(!dense.is_sparse());
        assert!(sparse.is_sparse());
        assert_eq!(sparse.backend(), GammaMode::Sparse);
        assert_eq!(dense.total(), sparse.total());
        assert_eq!(dense.max_cell(), sparse.max_cell());
        assert_eq!(dense.min_cell(), sparse.min_cell());
        assert!(sparse.gamma_bytes() < dense.gamma_bytes());
        for _ in 0..300 {
            let r0 = rng.gen_range(0..=31);
            let r1 = rng.gen_range(r0..=31);
            let c0 = rng.gen_range(0..=57);
            let c1 = rng.gen_range(c0..=57);
            assert_eq!(
                dense.load4(r0, r1, c0, c1),
                sparse.load4(r0, r1, c0, c1),
                "[{r0},{r1})x[{c0},{c1})"
            );
        }
    }

    #[test]
    fn auto_mode_obeys_the_zero_density_threshold() {
        let dense_m = LoadMatrix::from_fn(16, 16, |_, _| 1);
        let p = PrefixSum2D::try_new_with(&dense_m, GammaMode::Auto).unwrap();
        assert!(!p.is_sparse(), "no zeros must stay dense");
        let sparse_m =
            LoadMatrix::from_fn(16, 16, |r, c| if (r * 16 + c) % 10 == 0 { 5 } else { 0 });
        let p = PrefixSum2D::try_new_with(&sparse_m, GammaMode::Auto).unwrap();
        assert!(p.is_sparse(), "90% zeros must go sparse");
    }

    #[test]
    fn gamma_mode_parses() {
        assert_eq!(GammaMode::parse("dense"), Some(GammaMode::Dense));
        assert_eq!(GammaMode::parse(" SPARSE "), Some(GammaMode::Sparse));
        assert_eq!(GammaMode::parse("Auto"), Some(GammaMode::Auto));
        assert_eq!(GammaMode::parse("fast"), None);
    }

    #[test]
    fn empty_matrix() {
        let m = LoadMatrix::zeros(0, 0);
        let p = PrefixSum2D::try_new(&m).unwrap();
        assert_eq!(p.total(), 0);
        assert_eq!(p.delta(), None);
        assert_eq!(p.min_cell(), 0);
    }

    fn random_updates(
        rng: &mut StdRng,
        rows: usize,
        cols: usize,
        k: usize,
        hi: u32,
    ) -> Vec<RowUpdate> {
        (0..k)
            .map(|_| RowUpdate {
                row: rng.gen_range(0..rows),
                cells: (0..cols).map(|_| rng.gen_range(0..hi)).collect(),
            })
            .collect()
    }

    #[test]
    fn dense_patch_is_bit_identical_to_rebuild() {
        let mut rng = StdRng::seed_from_u64(91);
        for (rows, cols, k) in [(1, 6, 1), (9, 13, 3), (40, 17, 8), (7, 7, 12)] {
            let mut m = LoadMatrix::from_fn(rows, cols, |_, _| rng.gen_range(0..500));
            let mut p = PrefixSum2D::try_new_with(&m, GammaMode::Dense).unwrap();
            let mut ex = RowExtrema::new(&m);
            let updates = random_updates(&mut rng, rows, cols, k, 500);
            p.apply_row_updates(&mut m, &updates, &mut ex).unwrap();
            let fresh = PrefixSum2D::try_new_with(&m, GammaMode::Dense).unwrap();
            assert_eq!(p.dense_entries(), fresh.dense_entries(), "{rows}x{cols}");
            assert_eq!(p.total(), fresh.total());
            assert_eq!(p.max_cell(), fresh.max_cell());
            assert_eq!(p.min_cell(), fresh.min_cell());
        }
    }

    #[test]
    fn sparse_patch_is_bit_identical_to_rebuild() {
        let mut rng = StdRng::seed_from_u64(92);
        for (rows, cols, k) in [(1, 6, 1), (11, 19, 4), (33, 24, 9)] {
            let mut m = LoadMatrix::from_fn(rows, cols, |_, _| {
                if rng.gen_bool(0.8) {
                    0
                } else {
                    rng.gen_range(1..100)
                }
            });
            let mut p = PrefixSum2D::try_new_with(&m, GammaMode::Sparse).unwrap();
            let mut ex = RowExtrema::new(&m);
            let mut updates = random_updates(&mut rng, rows, cols, k, 4);
            // Bias updates toward zeros so run structure genuinely changes.
            for u in &mut updates {
                for c in &mut u.cells {
                    if *c == 1 {
                        *c = 0;
                    }
                }
            }
            p.apply_row_updates(&mut m, &updates, &mut ex).unwrap();
            let fresh = PrefixSum2D::try_new_with(&m, GammaMode::Sparse).unwrap();
            let (Repr::Sparse(ps), Repr::Sparse(fs)) = (&p.repr, &fresh.repr) else {
                panic!("sparse backend expected");
            };
            assert_eq!(ps.raw_parts(), fs.raw_parts(), "{rows}x{cols}");
            assert_eq!(p.total(), fresh.total());
            assert_eq!(p.max_cell(), fresh.max_cell());
            assert_eq!(p.min_cell(), fresh.min_cell());
        }
    }

    #[test]
    fn patch_dedups_later_update_wins_and_shrinks_extrema() {
        let mut m = LoadMatrix::from_vec(3, 2, vec![9, 1, 2, 3, 4, 5]);
        let mut p = PrefixSum2D::try_new(&m).unwrap();
        let mut ex = RowExtrema::new(&m);
        assert_eq!(p.max_cell(), 9);
        let updates = vec![
            RowUpdate {
                row: 0,
                cells: vec![7, 7],
            },
            RowUpdate {
                row: 0,
                cells: vec![2, 2],
            },
        ];
        let n = p.apply_row_updates(&mut m, &updates, &mut ex).unwrap();
        assert_eq!(n, 1, "duplicates collapse to one patched row");
        assert_eq!(m.get(0, 0), 2);
        assert_eq!(p.max_cell(), 5, "old max row was overwritten");
        assert_eq!(p.total(), 2 + 2 + 2 + 3 + 4 + 5);
    }

    #[test]
    fn patch_validation_errors_leave_state_unchanged() {
        let mut m = LoadMatrix::from_vec(2, 2, vec![1, 2, 3, 4]);
        let mut p = PrefixSum2D::try_new(&m).unwrap();
        let mut ex = RowExtrema::new(&m);
        let bad_row = vec![RowUpdate {
            row: 5,
            cells: vec![0, 0],
        }];
        assert!(matches!(
            p.apply_row_updates(&mut m, &bad_row, &mut ex),
            Err(RectpartError::RowOutOfRange { row: 5, rows: 2 })
        ));
        let ragged = vec![RowUpdate {
            row: 0,
            cells: vec![0, 0, 0],
        }];
        assert!(matches!(
            p.apply_row_updates(&mut m, &ragged, &mut ex),
            Err(RectpartError::RaggedRow { .. })
        ));
        assert_eq!(m.data(), &[1, 2, 3, 4]);
        assert_eq!(p.total(), 10);
        assert_eq!(
            p.apply_row_updates(&mut m, &[], &mut ex).unwrap(),
            0,
            "empty delta is a no-op"
        );
    }

    #[test]
    fn try_new_surfaces_overflow_on_both_paths() {
        // A row of u32::MAX cells long enough to overflow u64 would need
        // ~2^32 cells; instead overflow the *column* accumulation across
        // rows cannot be forced cheaply either — u64 genuinely needs
        // ≥ 2^32 max-load cells. So this test only pins the Ok side and
        // the charge; the Err side is exercised by fault injection.
        let m = LoadMatrix::from_vec(2, 2, vec![u32::MAX; 4]);
        rectpart_obs::work::reset();
        let p = PrefixSum2D::try_new(&m).unwrap();
        assert_eq!(p.total(), 4 * u32::MAX as u64);
        assert!(rectpart_obs::work::spent() >= 5);
        let r = PrefixSum2D::try_new_reference(&m).unwrap();
        assert_eq!(r.total(), p.total());
    }
}
