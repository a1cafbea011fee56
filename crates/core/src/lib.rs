#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! 2D rectangle partitioning of spatially located computations.
//!
//! Core algorithms of the IPDPS 2011 paper *Partitioning Spatially
//! Located Computations using Rectangles* (Saule, Baş, Çatalyürek): given
//! an `n1 × n2` load matrix and `m` processors, produce `m` axis-aligned
//! rectangles tiling the matrix while minimizing the load of the most
//! loaded rectangle.
//!
//! # Solution classes (paper §3, figure 1)
//!
//! | Class | Heuristic | Optimal |
//! |-------|-----------|---------|
//! | rectilinear (P×Q grid) | [`RectUniform`], [`RectNicol`] | NP-hard |
//! | P×Q-way jagged | [`JagPqHeur`] | [`JagPqOpt`] |
//! | m-way jagged *(new)* | [`JagMHeur`] | [`JagMOpt`] |
//! | hierarchical | [`HierRb`], [`HierRelaxed`] | [`hier_opt`] |
//! | arbitrary | — | [`exhaustive_opt`] (tiny oracles only) |
//!
//! Every algorithm implements [`Partitioner`] and works on a
//! [`PrefixSum2D`] (the paper's Γ array), which answers rectangle-load
//! queries in O(1).
//!
//! ```
//! use rectpart_core::{JagMHeur, LoadMatrix, Partitioner, PrefixSum2D};
//!
//! let matrix = LoadMatrix::from_fn(64, 64, |r, c| 1 + ((r + c) % 7) as u32);
//! let pfx = PrefixSum2D::try_new(&matrix).unwrap();
//! let part = JagMHeur::best().partition(&pfx, 25);
//! assert!(part.validate(&pfx).is_ok());
//! assert!(part.lmax(&pfx) >= pfx.lower_bound(25));
//! ```

pub mod bounds;
mod cache;
mod cancel;
mod error;
mod exhaustive;
mod geometry;
mod hier_opt;
mod hierarchical;
mod index;
mod jagged;
mod jagged_opt;
#[cfg(feature = "json")]
mod json_io;
mod matrix;
mod multilevel;
mod prefix;
mod rectilinear;
mod registry;
mod solution;
mod sparse;
mod spiral;
mod stats;
mod traits;

pub use cancel::Checker;
pub use error::RectpartError;
pub use exhaustive::exhaustive_opt;
pub use geometry::{Axis, Rect};
pub use hier_opt::{hier_opt, hier_opt_value};
pub use hierarchical::{HierRb, HierRelaxed, HierVariant};
pub use index::{JaggedIndex, OwnerGrid, RectTreeIndex};
pub use jagged::{allocate_processors, JagMHeur, JagPqHeur, JaggedVariant, StripeCount};
pub use jagged_opt::{jag_m_opt_dp, JagMOpt, JagPqOpt};
pub use matrix::LoadMatrix;
pub use multilevel::Multilevel;
pub use prefix::{
    GammaMode, PrefixSum2D, RowExtrema, RowUpdate, StripeCost, View, SPARSE_ZERO_FRACTION_PERCENT,
};
pub use rectilinear::{RectNicol, RectUniform};
/// Thread-budget configuration for the parallel execution layer,
/// re-exported so downstream users need not depend on
/// `rectpart-parallel` directly.
pub use rectpart_parallel::ParallelismConfig;
pub use registry::{algorithm_by_name, algorithm_names};
pub use solution::{Partition, PartitionError, Summary};
pub use spiral::{spiral_opt_value, Side, SpiralRelaxed};
pub use stats::PartitionStats;
pub use traits::Partitioner;

/// All heuristic algorithms compared in the paper's figures 12–14, in the
/// paper's order, with the configurations §4 selects (the `-LOAD`
/// hierarchical variants and `-BEST` jagged variants).
pub fn standard_heuristics() -> Vec<Box<dyn Partitioner>> {
    vec![
        Box::new(RectUniform::default()),
        Box::new(RectNicol::default()),
        Box::new(JagPqHeur::best()),
        Box::new(JagMHeur::best()),
        Box::new(HierRb::load()),
        Box::new(HierRelaxed::load()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_heuristics_roster() {
        let names: Vec<String> = standard_heuristics().iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            vec![
                "RECT-UNIFORM",
                "RECT-NICOL",
                "JAG-PQ-HEUR-BEST",
                "JAG-M-HEUR-BEST",
                "HIER-RB-LOAD",
                "HIER-RELAXED-LOAD",
            ]
        );
    }

    #[test]
    fn all_standard_heuristics_partition_validly() {
        let matrix = LoadMatrix::from_fn(30, 40, |r, c| ((r * c) % 17) as u32 + 1);
        let pfx = PrefixSum2D::try_new(&matrix).unwrap();
        for algo in standard_heuristics() {
            for m in [1, 4, 9, 10, 25] {
                let p = algo.partition(&pfx, m);
                assert!(p.validate(&pfx).is_ok(), "{} m={m}", algo.name());
                assert!(p.lmax(&pfx) >= pfx.lower_bound(m), "{} m={m}", algo.name());
            }
        }
    }
}
