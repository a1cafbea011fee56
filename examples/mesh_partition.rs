//! Partitioning a projected 3D mesh — the paper's SLAC scenario
//! (figure 14): a sparse matrix where most cells are empty and the load
//! hugs curved silhouette bands. Sparsity is what separates the
//! hierarchical methods from everything else.
//!
//! ```text
//! cargo run --release --example mesh_partition
//! ```

use rectpart::core::standard_heuristics;
use rectpart::prelude::*;
use rectpart::workloads::MeshKind;

fn main() {
    let cfg = MeshConfig {
        grid_rows: 256,
        grid_cols: 256,
        u_samples: 1024,
        v_samples: 512,
        kind: MeshKind::Cavity { cells: 9 },
    };
    let matrix = cfg.generate();
    let zeros = matrix.data().iter().filter(|&&v| v == 0).count();
    println!(
        "cavity mesh projected to {}x{}: {} vertices, {:.1}% empty cells",
        matrix.rows(),
        matrix.cols(),
        matrix.total(),
        100.0 * zeros as f64 / (matrix.rows() * matrix.cols()) as f64
    );
    println!("\nsilhouette:\n{}", matrix.ascii_art(20, 56));

    let pfx = PrefixSum2D::try_new(&matrix).expect("total load overflows u64");
    let m = 144;
    println!("{:<22} {:>12} {:>12}", "algorithm", "Lmax", "imbalance");
    for algo in standard_heuristics() {
        let part = algo.partition(&pfx, m);
        part.validate(&pfx).expect("valid tiling");
        println!(
            "{:<22} {:>12} {:>11.2}%",
            algo.name(),
            part.lmax(&pfx),
            100.0 * part.load_imbalance(&pfx)
        );
    }

    let hier = HierRelaxed::load().partition(&pfx, m);
    println!(
        "\nHIER-RELAXED tiling (note how rectangles shrink on the dense bands):\n{}",
        hier.ascii_art_scaled(256, 256, 20, 56)
    );
}
