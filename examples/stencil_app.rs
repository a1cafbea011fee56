//! Real threads, real balance: a partitioned Jacobi stencil mini-app.
//!
//! Everything else in this repository *models* a parallel machine; this
//! example runs one. A heat-diffusion stencil with per-cell heterogeneous
//! work (the load matrix made literal) executes on one OS thread per
//! processor, and the per-thread busy times show how the paper's
//! imbalance metric translates into actual idle cores.
//!
//! ```text
//! cargo run --release --example stencil_app
//! ```

use rectpart::prelude::*;
use rectpart::simexec::{run_stencil, run_stencil_sequential, StencilConfig};

fn main() {
    // Use a handful of threads even on small machines: with timesharing
    // the per-thread busy totals still expose the work distribution.
    let threads = std::thread::available_parallelism()
        .map(|n| n.get().clamp(4, 8))
        .unwrap_or(4);
    let matrix = peak(192, 192, 17).build();
    // Compress the peak's dynamic range so a single cell cannot dominate
    // a whole thread (work per cell = sqrt of the instance load).
    let work = LoadMatrixExt::sqrt_loads(&matrix);
    let pfx = PrefixSum2D::try_new(&work).expect("total load overflows u64");
    let cfg = StencilConfig {
        iterations: 6,
        work_scale: 8,
    };
    println!(
        "Jacobi stencil on {}x{} Peak-derived work field, {} threads, {} iterations",
        work.rows(),
        work.cols(),
        threads,
        cfg.iterations
    );
    let reference = run_stencil_sequential(&work, &cfg);

    println!(
        "\n{:<22} {:>10} {:>12} {:>12} {:>10}",
        "partitioner", "imbalance", "wall (s)", "busy max(s)", "balance"
    );
    for algo in [
        &RectUniform::default() as &dyn Partitioner,
        &JagMHeur::best(),
        &HierRelaxed::load(),
    ] {
        let part = algo.partition(&pfx, threads);
        let rep = run_stencil(&work, &part, &cfg);
        assert_eq!(
            rep.checksum.to_bits(),
            reference.to_bits(),
            "parallel run must be bit-identical to the sequential reference"
        );
        let busy_max = rep.busy_seconds.iter().cloned().fold(0.0, f64::max);
        println!(
            "{:<22} {:>9.2}% {:>12.3} {:>12.3} {:>9.1}%",
            algo.name(),
            100.0 * part.load_imbalance(&pfx),
            rep.wall_seconds,
            busy_max,
            100.0 * rep.balance_efficiency
        );
    }
    println!(
        "\n(balance = mean busy / max busy across threads; the predicted\n\
         imbalance ordering shows up as real idle time)"
    );
}

/// Local helper: per-cell square root of the loads (clamped to ≥ 1).
struct LoadMatrixExt;

impl LoadMatrixExt {
    fn sqrt_loads(m: &rectpart::core::LoadMatrix) -> rectpart::core::LoadMatrix {
        rectpart::core::LoadMatrix::from_fn(m.rows(), m.cols(), |r, c| {
            (m.get(r, c) as f64).sqrt().max(1.0) as u32
        })
    }
}
