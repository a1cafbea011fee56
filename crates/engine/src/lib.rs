#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Resident partitioning engine for `rectpart`.
//!
//! The batch entry points of the workspace (`Partitioner::partition`,
//! `SolverDriver::try_solve`) rebuild the Γ prefix-sum array and start
//! every solve from scratch. For the dynamic workloads of §6 of the
//! IPDPS 2011 paper — a particle-in-cell load that drifts a little at
//! every snapshot — that throws away almost everything the previous
//! iteration computed. [`Engine`] is the long-lived alternative:
//!
//! * the load matrix is loaded **once** and Γ is built **once** under
//!   the configured [`GammaMode`];
//! * [`Engine::apply_delta`] patches the resident Γ row-incrementally
//!   with [`PrefixSum2D::apply_row_updates`] (`O(changed_rows × n)` for
//!   the column pass instead of a full rebuild), bit-identical to a cold
//!   rebuild on both the dense and the sparse backend;
//! * repeated queries are answered from a solution cache
//!   ([`Counter::EngineWarmHits`]);
//! * every other query runs the registry algorithm on the resident Γ,
//!   so its answer is bit-identical to a cold solve on the patched
//!   matrix;
//! * the [`RebalancePolicy`] of `rectpart-simexec`'s dynamic runner
//!   decides when drift is small enough to keep serving the stale
//!   partition without any solve at all.
//!
//! # Example
//!
//! ```
//! use rectpart_core::{LoadMatrix, RowUpdate};
//! use rectpart_engine::{Engine, Query};
//!
//! let matrix = LoadMatrix::from_fn(32, 32, |r, c| ((r * 7 + c) % 13) as u32);
//! let mut engine = Engine::new(matrix).unwrap();
//! let q = Query::new("JAG-M-OPT-BEST", 8);
//! let cold = engine.solve(&q).unwrap();
//! let warm = engine.solve(&q).unwrap();            // served from cache
//! assert!(warm.warm_hit && !cold.warm_hit);
//! assert_eq!(cold.partition, warm.partition);
//!
//! engine
//!     .apply_delta(&[RowUpdate { row: 3, cells: vec![9; 32] }])
//!     .unwrap();
//! let resolved = engine.solve(&q).unwrap();        // re-solved on the patched Γ
//! assert!(!resolved.warm_hit);
//! ```

use std::collections::HashMap;

use rectpart_core::{
    algorithm_by_name, GammaMode, LoadMatrix, Partition, PrefixSum2D, Rect, RectpartError,
    RowExtrema, RowUpdate,
};
use rectpart_obs::Counter;
use rectpart_robust::SolverDriver;
pub use rectpart_simexec::RebalancePolicy;

/// Configuration of a resident [`Engine`].
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Γ backend selection for the resident prefix sum and for every
    /// per-region prefix sum the engine builds.
    pub gamma_mode: GammaMode,
    /// When a cached solution is *stale* (the matrix changed since it
    /// was computed), this policy decides whether it may still be
    /// served: [`RebalancePolicy::EverySnapshot`] always re-solves
    /// (the bit-identity default), while
    /// [`RebalancePolicy::Threshold`]`(t)` keeps serving the stale
    /// partition while its load imbalance on the *current* matrix stays
    /// at or below `t` — the same trigger `rectpart_simexec::dynamic_run`
    /// uses.
    pub rebalance: RebalancePolicy,
    /// Default per-query work budget, in deterministic
    /// `rectpart_obs::work` units. A query's own budget overrides this.
    /// Any budget routes the query through the fault-tolerant
    /// [`SolverDriver`] instead of the direct path.
    pub budget: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            gamma_mode: GammaMode::Auto,
            rebalance: RebalancePolicy::EverySnapshot,
            budget: None,
        }
    }
}

/// Engine-local tallies, mirroring the process-wide
/// [`Counter`] values the engine charges but scoped to one engine so a
/// serving process can report per-engine statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Solve queries served (cache hits included).
    pub queries: u64,
    /// Queries answered from the solution cache without running any
    /// solver (same-epoch hits plus threshold-policy stale reuse).
    pub warm_hits: u64,
    /// Distinct matrix rows rewritten by [`Engine::apply_delta`].
    pub delta_rows_patched: u64,
    /// Always 0: the engine does not warm-start its solves. Kept only
    /// because e2ebench's `engine.warm_start_probes_skipped_per_step`
    /// metric reads it.
    pub warm_start_probes_skipped: u64,
}

/// One partition request against the resident matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Query {
    /// Registry name of the algorithm (case-insensitive), e.g.
    /// `JAG-M-OPT-BEST`.
    pub algorithm: String,
    /// Number of processors.
    pub m: usize,
    /// Partition only this sub-rectangle of the resident matrix; the
    /// returned rectangles are in full-matrix coordinates. `None`
    /// partitions the whole matrix.
    pub region: Option<Rect>,
    /// Work budget for this query, overriding
    /// [`EngineConfig::budget`]. Routes the query through the
    /// [`SolverDriver`].
    pub budget: Option<u64>,
    /// Fallback ladder tried (in order) after `algorithm` fails or
    /// exceeds the budget. Non-empty ladders route the query through
    /// the [`SolverDriver`].
    pub fallback: Vec<String>,
}

impl Query {
    /// A plain whole-matrix query with no budget and no fallback.
    pub fn new(algorithm: impl Into<String>, m: usize) -> Query {
        Query {
            algorithm: algorithm.into(),
            m,
            region: None,
            budget: None,
            fallback: Vec::new(),
        }
    }
}

/// The engine's answer to one [`Query`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryOutcome {
    /// The partition, in full-matrix coordinates (region queries are
    /// translated back).
    pub partition: Partition,
    /// Whether the answer came from the solution cache (no solver ran).
    pub warm_hit: bool,
    /// Name of the algorithm that produced the partition — for
    /// budget/fallback queries this is the ladder rung that answered.
    pub answered_by: String,
}

/// One step of a serving batch: either a solve or a matrix delta.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Answer a partition query.
    Solve(Query),
    /// Patch matrix rows, then invalidate what the patch made stale.
    Delta(Vec<RowUpdate>),
}

/// The engine's answer to one [`Request`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Answer to a [`Request::Solve`].
    Solved(QueryOutcome),
    /// Answer to a [`Request::Delta`]: distinct rows rewritten.
    Patched(u64),
}

/// Key of one cached solution. Budget and fallback participate so a
/// budgeted query never serves an unbudgeted one's answer.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct QueryKey {
    algorithm: String,
    m: usize,
    region: Option<Rect>,
    budget: Option<u64>,
    fallback: Vec<String>,
}

/// A cached solution. `partition` is in region-local coordinates for
/// region queries, so the drift check prices it on the region's Γ
/// directly; translation to full-matrix coordinates happens at response
/// time.
#[derive(Clone, Debug)]
struct CacheEntry {
    epoch: u64,
    partition: Partition,
    answered_by: String,
}

/// A long-lived partitioning engine: resident matrix, resident Γ and a
/// solution cache.
///
/// See the [crate docs](crate) for the serving model and the
/// bit-identity contract.
#[derive(Debug)]
pub struct Engine {
    matrix: LoadMatrix,
    pfx: PrefixSum2D,
    extrema: RowExtrema,
    solutions: HashMap<QueryKey, CacheEntry>,
    epoch: u64,
    config: EngineConfig,
    stats: EngineStats,
}

impl Engine {
    /// Builds an engine with the default [`EngineConfig`], constructing
    /// Γ once.
    pub fn new(matrix: LoadMatrix) -> Result<Engine, RectpartError> {
        Engine::with_config(matrix, EngineConfig::default())
    }

    /// Builds an engine with an explicit configuration, constructing Γ
    /// once with the configured backend.
    pub fn with_config(matrix: LoadMatrix, config: EngineConfig) -> Result<Engine, RectpartError> {
        let pfx = PrefixSum2D::try_new_with(&matrix, config.gamma_mode)?;
        let extrema = RowExtrema::new(&matrix);
        Ok(Engine {
            matrix,
            pfx,
            extrema,
            solutions: HashMap::new(),
            epoch: 0,
            config,
            stats: EngineStats::default(),
        })
    }

    /// The resident load matrix (current contents, deltas applied).
    pub fn matrix(&self) -> &LoadMatrix {
        &self.matrix
    }

    /// The resident Γ prefix sum.
    pub fn prefix(&self) -> &PrefixSum2D {
        &self.pfx
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Engine-local statistics since construction.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The matrix epoch: bumped by every successful
    /// [`apply_delta`](Engine::apply_delta). Cached solutions from
    /// older epochs are *stale*.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of cached solutions (any epoch).
    pub fn cached_solutions(&self) -> usize {
        self.solutions.len()
    }

    /// Answers one query.
    ///
    /// Resolution order:
    /// 1. a cached solution from the current epoch is returned as-is
    ///    ([`Counter::EngineWarmHits`]);
    /// 2. a stale cached solution is still served if the
    ///    [`RebalancePolicy::Threshold`] drift check passes;
    /// 3. queries with a budget or a fallback ladder run through the
    ///    fault-tolerant [`SolverDriver`];
    /// 4. everything else runs the named registry algorithm on the
    ///    target Γ — bit-identical to a cold solve on the current matrix.
    pub fn solve(&mut self, q: &Query) -> Result<QueryOutcome, RectpartError> {
        rectpart_obs::incr(Counter::EngineQueries);
        self.stats.queries += 1;
        let name = q.algorithm.to_ascii_uppercase();
        if let Some(r) = q.region {
            self.check_region(r)?;
        }
        let budget = q.budget.or(self.config.budget);
        let key = QueryKey {
            algorithm: name.clone(),
            m: q.m,
            region: q.region,
            budget,
            fallback: q.fallback.iter().map(|s| s.to_ascii_uppercase()).collect(),
        };

        // 1. Same-epoch cache hit: no solver work at all.
        if let Some(entry) = self.solutions.get(&key) {
            if entry.epoch == self.epoch {
                rectpart_obs::incr(Counter::EngineWarmHits);
                self.stats.warm_hits += 1;
                return Ok(QueryOutcome {
                    partition: globalize(q.region, &entry.partition),
                    warm_hit: true,
                    answered_by: entry.answered_by.clone(),
                });
            }
        }

        // Miss or stale: materialize the target instance (the resident
        // Γ for whole-matrix queries, a one-off sub-matrix Γ otherwise).
        let sub = match q.region {
            Some(r) => Some(self.region_instance(r)?),
            None => None,
        };
        let pfx = match &sub {
            Some((_, p)) => p,
            None => &self.pfx,
        };

        // 2. Stale reuse under a drift threshold — the same trigger as
        // `rectpart_simexec::dynamic_run`. The entry's epoch is left
        // stale on purpose: every later query re-checks drift against
        // the then-current load.
        if let (Some(prev), RebalancePolicy::Threshold(t)) =
            (self.solutions.get(&key), self.config.rebalance)
        {
            if prev.partition.load_imbalance(pfx) <= t {
                rectpart_obs::incr(Counter::EngineWarmHits);
                self.stats.warm_hits += 1;
                return Ok(QueryOutcome {
                    partition: globalize(q.region, &prev.partition),
                    warm_hit: true,
                    answered_by: name,
                });
            }
        }

        RectpartError::check_problem(pfx.rows(), pfx.cols(), q.m)?;

        let (partition, answered_by) = if budget.is_some() || !key.fallback.is_empty() {
            // 3. Budget / fallback: the fault-tolerant driver owns the
            // admission decision and the ladder walk.
            let mut ladder = Vec::with_capacity(1 + key.fallback.len());
            ladder.push(name.clone());
            ladder.extend(key.fallback.iter().cloned());
            let mut driver = SolverDriver::new().with_ladder(ladder);
            if let Some(b) = budget {
                driver = driver.with_budget(b);
            }
            let matrix = match &sub {
                Some((m, _)) => m,
                None => &self.matrix,
            };
            let outcome = driver.try_solve(matrix, q.m).map_err(|f| f.error)?;
            let by = outcome.report.answered_by.unwrap_or_else(|| name.clone());
            (outcome.partition, by)
        } else {
            // 4. Direct path: the registry algorithm on the target Γ.
            let algo = algorithm_by_name(&name)
                .ok_or_else(|| RectpartError::UnknownAlgorithm(name.clone()))?;
            (algo.try_partition(pfx, q.m)?, name.clone())
        };

        let response = globalize(q.region, &partition);
        self.solutions.insert(
            key,
            CacheEntry {
                epoch: self.epoch,
                partition,
                answered_by: answered_by.clone(),
            },
        );
        Ok(QueryOutcome {
            partition: response,
            warm_hit: false,
            answered_by,
        })
    }

    /// Rewrites whole matrix rows and patches the resident Γ in place
    /// with [`PrefixSum2D::apply_row_updates`].
    ///
    /// Returns the number of *distinct* rows rewritten (later updates to
    /// the same row win), which the patch charges to
    /// [`Counter::DeltaRowsPatched`]. An empty delta returns `Ok(0)` and
    /// leaves the epoch alone. On any error (a row out of range, a
    /// ragged row, Γ overflow) matrix, Γ and row extrema are unchanged.
    /// A successful delta bumps the [`epoch`](Engine::epoch): cached
    /// solutions become stale.
    pub fn apply_delta(&mut self, updates: &[RowUpdate]) -> Result<u64, RectpartError> {
        if updates.is_empty() {
            return Ok(0);
        }
        let k = self
            .pfx
            .apply_row_updates(&mut self.matrix, updates, &mut self.extrema)?;
        self.stats.delta_rows_patched += k;
        self.epoch += 1;
        Ok(k)
    }

    /// Serves a batch of requests in order, stopping at the first error.
    pub fn run(&mut self, requests: &[Request]) -> Result<Vec<Response>, RectpartError> {
        let mut out = Vec::with_capacity(requests.len());
        for req in requests {
            out.push(match req {
                Request::Solve(q) => Response::Solved(self.solve(q)?),
                Request::Delta(rows) => Response::Patched(self.apply_delta(rows)?),
            });
        }
        Ok(out)
    }

    /// Rejects empty or out-of-bounds regions.
    fn check_region(&self, r: Rect) -> Result<(), RectpartError> {
        let (rows, cols) = (self.matrix.rows(), self.matrix.cols());
        if r.r0 >= r.r1 || r.c0 >= r.c1 || r.r1 > rows || r.c1 > cols {
            return Err(RectpartError::RegionOutOfRange {
                region: r,
                rows,
                cols,
            });
        }
        Ok(())
    }

    /// Copies a region out of the resident matrix and builds its Γ with
    /// the configured backend.
    fn region_instance(&self, r: Rect) -> Result<(LoadMatrix, PrefixSum2D), RectpartError> {
        let sub = LoadMatrix::from_fn(r.r1 - r.r0, r.c1 - r.c0, |rr, cc| {
            self.matrix.get(r.r0 + rr, r.c0 + cc)
        });
        let pfx = PrefixSum2D::try_new_with(&sub, self.config.gamma_mode)?;
        Ok((sub, pfx))
    }
}

/// Translates a region-local partition back to full-matrix coordinates.
fn globalize(region: Option<Rect>, local: &Partition) -> Partition {
    match region {
        None => local.clone(),
        Some(reg) => {
            let rects = local
                .rects()
                .iter()
                .map(|t| Rect {
                    r0: t.r0 + reg.r0,
                    r1: t.r1 + reg.r0,
                    c0: t.c0 + reg.c0,
                    c1: t.c1 + reg.c0,
                })
                .collect();
            Partition::with_parts(rects, local.parts())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use rectpart_core::{JagMOpt, Partitioner};

    fn test_matrix(rows: usize, cols: usize, seed: u64) -> LoadMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        LoadMatrix::from_fn(rows, cols, |_, _| rng.gen_range(0..100))
    }

    fn updates(rows: usize, cols: usize, k: usize, seed: u64) -> Vec<RowUpdate> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..k)
            .map(|_| RowUpdate {
                row: rng.gen_range(0..rows),
                cells: (0..cols).map(|_| rng.gen_range(0..100)).collect(),
            })
            .collect()
    }

    #[test]
    fn repeat_query_is_a_warm_hit() {
        let mut engine = Engine::new(test_matrix(24, 24, 1)).unwrap();
        let q = Query::new("jag-m-opt-best", 6);
        let cold = engine.solve(&q).unwrap();
        let warm = engine.solve(&q).unwrap();
        assert!(!cold.warm_hit);
        assert!(warm.warm_hit);
        assert_eq!(cold.partition, warm.partition);
        assert_eq!(cold.answered_by, "JAG-M-OPT-BEST");
        let s = engine.stats();
        assert_eq!((s.queries, s.warm_hits), (2, 1));
    }

    #[test]
    fn delta_then_resolve_is_bit_identical_to_cold() {
        for mode in [GammaMode::Dense, GammaMode::Sparse] {
            let matrix = test_matrix(20, 28, 2);
            let cfg = EngineConfig {
                gamma_mode: mode,
                ..EngineConfig::default()
            };
            let mut engine = Engine::with_config(matrix.clone(), cfg).unwrap();
            for algo in ["JAG-M-OPT-BEST", "JAG-PQ-OPT-BEST", "HIER-RB-LOAD"] {
                engine.solve(&Query::new(algo, 7)).unwrap();
            }
            let delta = updates(20, 28, 4, 3);
            engine.apply_delta(&delta).unwrap();

            // A cold engine over the already-patched matrix is the oracle.
            let mut patched = matrix;
            for u in &delta {
                patched.data_mut()[u.row * 28..(u.row + 1) * 28].copy_from_slice(&u.cells);
            }
            let cfg = EngineConfig {
                gamma_mode: mode,
                ..EngineConfig::default()
            };
            let mut cold = Engine::with_config(patched, cfg).unwrap();
            for algo in ["JAG-M-OPT-BEST", "JAG-PQ-OPT-BEST", "HIER-RB-LOAD"] {
                let q = Query::new(algo, 7);
                let warm = engine.solve(&q).unwrap();
                assert!(!warm.warm_hit, "{algo} must re-solve after the delta");
                assert_eq!(
                    warm.partition,
                    cold.solve(&q).unwrap().partition,
                    "{algo} warm re-solve diverged from cold ({mode:?})"
                );
            }
        }
    }

    #[test]
    fn small_and_large_deltas_patch_gamma_bit_identically() {
        // 30% zeros, so the sparse backend stores real runs.
        let mut rng = StdRng::seed_from_u64(4);
        let matrix = LoadMatrix::from_fn(20, 16, |_, _| {
            if rng.gen_bool(0.3) {
                0
            } else {
                rng.gen_range(1..100)
            }
        });
        for mode in [GammaMode::Dense, GammaMode::Sparse] {
            for k in [2, 18] {
                let cfg = EngineConfig {
                    gamma_mode: mode,
                    ..EngineConfig::default()
                };
                let mut engine = Engine::with_config(matrix.clone(), cfg).unwrap();
                let delta = updates(20, 16, k, 5 + k as u64);
                engine.apply_delta(&delta).unwrap();

                let mut patched = matrix.clone();
                for u in &delta {
                    patched.data_mut()[u.row * 16..(u.row + 1) * 16].copy_from_slice(&u.cells);
                }
                let fresh = PrefixSum2D::try_new_with(&patched, mode).unwrap();
                let label = format!("{mode:?}, {k} updates");
                assert_eq!(engine.prefix().is_sparse(), mode == GammaMode::Sparse);
                // `Debug` prints every backing array of either backend, so
                // equal output means a bit-identical Γ.
                assert_eq!(
                    format!("{:?}", engine.prefix()),
                    format!("{fresh:?}"),
                    "{label}"
                );
                assert_eq!(engine.prefix().max_cell(), fresh.max_cell(), "{label}");
                assert_eq!(engine.prefix().min_cell(), fresh.min_cell(), "{label}");
                assert_eq!(engine.matrix().data(), patched.data(), "{label}");
                assert_eq!(engine.epoch(), 1);
            }
        }
    }

    #[test]
    fn delta_validation_is_atomic() {
        let matrix = test_matrix(10, 10, 6);
        let mut engine = Engine::new(matrix.clone()).unwrap();
        let bad = vec![
            RowUpdate {
                row: 0,
                cells: vec![1; 10],
            },
            RowUpdate {
                row: 10,
                cells: vec![1; 10],
            },
        ];
        assert_eq!(
            engine.apply_delta(&bad),
            Err(RectpartError::RowOutOfRange { row: 10, rows: 10 })
        );
        let ragged = vec![RowUpdate {
            row: 0,
            cells: vec![1; 9],
        }];
        assert!(matches!(
            engine.apply_delta(&ragged),
            Err(RectpartError::RaggedRow { row: 0, .. })
        ));
        // An empty delta is a no-op: `Ok(0)`, no epoch bump.
        assert_eq!(engine.apply_delta(&[]), Ok(0));
        assert_eq!(engine.matrix().data(), matrix.data());
        assert_eq!(engine.epoch(), 0);
        assert_eq!(engine.stats().delta_rows_patched, 0);
    }

    #[test]
    fn region_query_matches_cold_submatrix_solve() {
        let matrix = test_matrix(30, 26, 7);
        let mut engine = Engine::new(matrix.clone()).unwrap();
        let region = Rect::new(4, 20, 3, 23);
        let q = Query {
            region: Some(region),
            ..Query::new("JAG-M-OPT-BEST", 5)
        };
        let got = engine.solve(&q).unwrap();
        let sub = LoadMatrix::from_fn(16, 20, |r, c| matrix.get(4 + r, 3 + c));
        let pfx = PrefixSum2D::try_new(&sub).unwrap();
        let oracle = JagMOpt::default().partition(&pfx, 5);
        for (g, o) in got.partition.rects().iter().zip(oracle.rects()) {
            assert_eq!(
                (g.r0, g.r1, g.c0, g.c1),
                (o.r0 + 4, o.r1 + 4, o.c0 + 3, o.c1 + 3)
            );
        }
        // Repeat is a warm hit with identical coordinates.
        let again = engine.solve(&q).unwrap();
        assert!(again.warm_hit);
        assert_eq!(again.partition, got.partition);
    }

    #[test]
    fn bad_regions_are_rejected() {
        let mut engine = Engine::new(test_matrix(8, 8, 8)).unwrap();
        for bad in [
            Rect::new(2, 2, 0, 4), // empty rows
            Rect::new(0, 4, 3, 3), // empty cols
            Rect::new(0, 9, 0, 4), // rows out of range
            Rect::new(0, 4, 0, 9), // cols out of range
        ] {
            let q = Query {
                region: Some(bad),
                ..Query::new("RECT-UNIFORM", 2)
            };
            assert!(matches!(
                engine.solve(&q),
                Err(RectpartError::RegionOutOfRange { .. })
            ));
        }
    }

    #[test]
    fn threshold_policy_serves_stale_partitions() {
        let matrix = test_matrix(16, 16, 9);
        let lazy_cfg = EngineConfig {
            rebalance: RebalancePolicy::Threshold(f64::INFINITY),
            ..EngineConfig::default()
        };
        let mut lazy = Engine::with_config(matrix.clone(), lazy_cfg).unwrap();
        let mut eager = Engine::new(matrix).unwrap();
        let q = Query::new("JAG-M-HEUR-BEST", 4);
        let before = lazy.solve(&q).unwrap();
        eager.solve(&q).unwrap();
        let delta = updates(16, 16, 2, 10);
        lazy.apply_delta(&delta).unwrap();
        eager.apply_delta(&delta).unwrap();

        let stale = lazy.solve(&q).unwrap();
        assert!(
            stale.warm_hit,
            "infinite threshold must reuse the stale cut"
        );
        assert_eq!(stale.partition, before.partition);

        let fresh = eager.solve(&q).unwrap();
        assert!(!fresh.warm_hit, "EverySnapshot must re-solve after a delta");
    }

    #[test]
    fn budget_queries_run_through_the_driver() {
        let mut engine = Engine::new(test_matrix(12, 12, 11)).unwrap();
        let q = Query {
            budget: Some(2),
            fallback: vec!["RECT-UNIFORM".into()],
            ..Query::new("JAG-M-OPT-BEST", 4)
        };
        // A 2-unit budget cannot even admit Γ construction for the
        // optimal rung; the driver reports whichever rung answered.
        match engine.solve(&q) {
            Ok(out) => assert!(!out.answered_by.is_empty()),
            Err(e) => assert!(matches!(e, RectpartError::BudgetExhausted { .. })),
        }
        // An unbudgeted ladder answers with the head rung.
        let q = Query {
            fallback: vec!["RECT-UNIFORM".into()],
            ..Query::new("JAG-M-HEUR-BEST", 4)
        };
        let out = engine.solve(&q).unwrap();
        assert_eq!(out.answered_by, "JAG-M-HEUR-BEST");
        // And is cached like any other query.
        assert!(engine.solve(&q).unwrap().warm_hit);
    }

    #[test]
    fn unknown_algorithms_and_zero_parts_error() {
        let mut engine = Engine::new(test_matrix(6, 6, 12)).unwrap();
        assert!(matches!(
            engine.solve(&Query::new("NOPE", 2)),
            Err(RectpartError::UnknownAlgorithm(_))
        ));
        assert_eq!(
            engine.solve(&Query::new("RECT-UNIFORM", 0)),
            Err(RectpartError::ZeroParts)
        );
        assert!(matches!(
            engine.solve(&Query::new("RECT-UNIFORM", 37)),
            Err(RectpartError::TooManyParts { .. })
        ));
    }

    #[test]
    fn batch_run_interleaves_solves_and_deltas() {
        let mut engine = Engine::new(test_matrix(14, 14, 13)).unwrap();
        let q = Query::new("JAG-PQ-OPT-BEST", 4);
        let batch = vec![
            Request::Solve(q.clone()),
            Request::Solve(q.clone()),
            Request::Delta(updates(14, 14, 3, 14)),
            Request::Solve(q.clone()),
        ];
        let responses = engine.run(&batch).unwrap();
        assert_eq!(responses.len(), 4);
        match (&responses[1], &responses[2]) {
            (Response::Solved(out), Response::Patched(k)) => {
                assert!(out.warm_hit);
                assert!(*k >= 1);
            }
            other => panic!("unexpected responses: {other:?}"),
        }
        let s = engine.stats();
        assert_eq!(s.queries, 3);
        assert_eq!(s.warm_hits, 1);
        assert!(s.delta_rows_patched >= 1);
    }
}
