#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # rectpart — rectangle partitioning of spatially located computations
//!
//! A faithful, production-quality reproduction of
//! *Partitioning Spatially Located Computations using Rectangles*
//! (Saule, Baş, Çatalyürek — IPDPS 2011, DOI 10.1109/IPDPS.2011.72).
//!
//! Given a 2D matrix of positive integers describing spatially located
//! load, the library partitions it into `m` axis-aligned rectangles — one
//! per processor — minimizing the load of the most loaded rectangle. All
//! solution classes of the paper are implemented, each with the paper's
//! heuristics and optimal algorithms:
//!
//! * **rectilinear** (`RECT-UNIFORM`, `RECT-NICOL`),
//! * **P×Q-way jagged** (`JAG-PQ-HEUR`, `JAG-PQ-OPT`),
//! * **m-way jagged** — the paper's new class (`JAG-M-HEUR`, `JAG-M-OPT`),
//! * **hierarchical bipartitions** (`HIER-RB`, `HIER-RELAXED`,
//!   `HIER-OPT`).
//!
//! The workspace also ships the substrates the paper's evaluation depends
//! on: a generic 1D partitioning library ([`onedim`]), synthetic and
//! simulated workload generators ([`workloads`], including a
//! particle-in-cell magnetosphere simulator and a projected 3D mesh), and
//! a BSP execution/communication simulator ([`simexec`]).
//!
//! ## Quickstart
//!
//! ```
//! use rectpart::prelude::*;
//!
//! // A 128x128 synthetic instance with a load peak (paper §4.1).
//! let matrix = peak(128, 128, 7).build();
//! let pfx = PrefixSum2D::try_new(&matrix).unwrap();
//!
//! // Partition for 100 processors with the paper's best heuristic.
//! let partition = JagMHeur::best().partition(&pfx, 100);
//! assert!(partition.validate(&pfx).is_ok());
//!
//! // The bottleneck sits between the trivial lower bound (the heaviest
//! // cell or the perfect average, whichever is larger) and 2x it.
//! let lmax = partition.lmax(&pfx);
//! assert!(lmax >= pfx.lower_bound(100));
//! assert!(lmax < 2 * pfx.lower_bound(100));
//! ```

pub use rectpart_core as core;
pub use rectpart_engine as engine;
pub use rectpart_obs as obs;
pub use rectpart_onedim as onedim;
#[cfg(feature = "resume")]
pub use rectpart_resume as resume;
pub use rectpart_robust as robust;
pub use rectpart_simexec as simexec;
pub use rectpart_volume as volume;
pub use rectpart_workloads as workloads;

/// Convenient re-exports of the most used items across the workspace.
pub mod prelude {
    pub use rectpart_core::{
        hier_opt, Axis, HierRb, HierRelaxed, HierVariant, JagMHeur, JagMOpt, JagPqHeur, JagPqOpt,
        JaggedVariant, LoadMatrix, Multilevel, Partition, PartitionStats, Partitioner, PrefixSum2D,
        Rect, RectNicol, RectUniform, RectpartError, SpiralRelaxed,
    };
    pub use rectpart_engine::{Engine, EngineConfig, Query};
    pub use rectpart_onedim::{nicol, IntervalCost, PrefixCosts};
    pub use rectpart_robust::{DegradationReport, SolveOutcome, SolverDriver};
    pub use rectpart_simexec::{CommModel, ExecutionReport, Simulator};
    pub use rectpart_workloads::{
        diagonal, multi_peak, peak, uniform, MeshConfig, PicConfig, PicSimulation,
    };
}
