#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! One-dimensional partitioning substrate for `rectpart`.
//!
//! The 2D rectangle-partitioning algorithms of the IPDPS 2011 paper
//! *Partitioning Spatially Located Computations using Rectangles*
//! (Saule, Baş, Çatalyürek) are all built on one-dimensional chains-on-chains
//! partitioning: split an array of `n` non-negative loads into `m`
//! consecutive intervals minimizing the load of the most loaded interval
//! (the *bottleneck*).
//!
//! This crate provides the four 1D algorithms the paper relies on
//! (§2.2 of the paper):
//!
//! * [`direct_cut`] — the `DC` heuristic ("Heuristic 1" of Miguet &
//!   Pierson), a 2-approximation with the stronger guarantee
//!   `Lmax ≤ total/m + max_i A[i]`,
//! * [`recursive_bisection`] — the classic `RB` heuristic (also a
//!   2-approximation with the same refined bound),
//! * [`dp_optimal`] — the Manne–Olstad dynamic program, an easy-to-audit
//!   optimal algorithm used as a test oracle,
//! * [`nicol`] — Nicol's optimal parametric-search algorithm with the
//!   Han–Narahari–Choi [`probe`] subroutine and the Pınar–Aykanat style
//!   search-range bounding ("NicolPlus"); this is the production optimal
//!   solver used by every 2D algorithm.
//!
//! # Interval-cost oracles
//!
//! Everything is generic over [`IntervalCost`], a *monotone* interval-cost
//! oracle: `cost(lo, hi)` must be non-decreasing when the interval grows.
//! Two families of oracles appear in the 2D code:
//!
//! * additive costs backed by prefix sums (O(1) per query) — projections of
//!   the 2D load matrix onto one dimension read straight from the 2D prefix
//!   sum array, no materialization needed;
//! * the *max-over-stripes* cost used by the `RECT-NICOL` iterative
//!   refinement, which is monotone but not additive.
//!
//! Nicol's algorithm, `probe`, `RB` and `DC` only require monotonicity, so a
//! single implementation serves both. (For non-additive oracles `DC`'s and
//! `RB`'s approximation guarantees no longer apply; they remain valid
//! heuristics.)
//!
//! # Example
//!
//! ```
//! use rectpart_onedim::{PrefixCosts, nicol, dp_optimal, IntervalCost};
//!
//! let loads = [3u64, 1, 4, 1, 5, 9, 2, 6];
//! let cost = PrefixCosts::from_loads(&loads);
//! let opt = nicol(&cost, 3);
//! assert_eq!(opt.bottleneck, dp_optimal(&cost, 3).bottleneck);
//! assert_eq!(opt.cuts.parts(), 3);
//! assert!(opt.bottleneck >= cost.total() / 3);
//! ```

mod cost;
mod cuts;
mod dp;
mod hetero;
mod heuristics;
mod nicol;
mod probe;
mod refined;
mod scratch;

pub use cost::{FnCost, IntervalCost, PrefixCosts};
pub use cuts::Cuts;
pub use dp::dp_optimal;
pub use hetero::{hetero_optimal, hetero_probe, HeteroResult};
pub use heuristics::{direct_cut, recursive_bisection, recursive_bisection_into};
pub use nicol::{
    nicol, nicol_bottleneck, nicol_bounded, nicol_in, parametric_optimal, try_nicol_in, Cancelled,
    OneDimResult,
};
pub use probe::{probe, probe_feasible, probe_suffix_feasible};
pub use refined::{direct_cut_refined, probe_feasible_sliced};
pub use scratch::SolveScratch;
