//! Quickstart: generate a spatial load, partition it for 100 processors
//! with the paper's best heuristic, inspect the result.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rectpart::prelude::*;

fn main() {
    // A 256x256 synthetic instance with a single load peak (paper §4.1).
    let matrix = peak(256, 256, 42).build();
    println!("instance: 256x256 Peak, total load {}", matrix.total());

    // The 2D prefix-sum array Γ answers rectangle loads in O(1).
    let pfx = PrefixSum2D::try_new(&matrix).expect("total load overflows u64");

    // m-way jagged heuristic — the paper's overall winner (JAG-M-HEUR).
    let m = 100;
    let partition = JagMHeur::best().partition(&pfx, m);
    partition
        .validate(&pfx)
        .expect("partitions always tile the matrix");

    println!(
        "JAG-M-HEUR, m={m}: Lmax = {}, lower bound = {}, imbalance = {:.2}%",
        partition.lmax(&pfx),
        pfx.lower_bound(m),
        100.0 * partition.load_imbalance(&pfx)
    );

    // Where did the rectangles land? (letters cycle across processors)
    println!("\nload (darker = heavier):\n{}", matrix.ascii_art(24, 48));
    println!(
        "partition:\n{}",
        partition.ascii_art_scaled(256, 256, 24, 48)
    );

    // Compare against the naive MPI_Cart-style grid.
    let naive = RectUniform::default().partition(&pfx, m);
    println!(
        "RECT-UNIFORM imbalance for comparison: {:.2}%",
        100.0 * naive.load_imbalance(&pfx)
    );
}
