//! A 2D particle-in-cell magnetosphere simulator — the PIC-MAG substrate.
//!
//! The paper's PIC-MAG instances are particle-count histograms extracted
//! every 500 iterations from a proprietary global hybrid simulation of
//! the solar wind hitting the Earth's magnetosphere (Karimabadi et al.).
//! Those traces are not available, so this module *simulates the
//! substrate*: charged particles stream in from the left against a
//! magnetic dipole; a Boris-style rotation deflects them around the
//! strong-field region, producing the same qualitative load fields the
//! partitioning figures consume — dense, smooth, slowly drifting
//! matrices with a bow-shock-like pile-up and a low-density cavity, with
//! Δ in the paper's reported 1.2–1.5 band under the default weights.
//!
//! The partitioning experiments only read the per-snapshot
//! [`LoadMatrix`]; any plasma-physics fidelity beyond that shape is
//! intentionally out of scope (see DESIGN.md §8).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rectpart_core::LoadMatrix;

/// Configuration of a PIC-MAG run.
#[derive(Clone, Debug)]
pub struct PicConfig {
    /// Grid rows (the paper accumulates its 3D data to 2D; we simulate
    /// 2D directly).
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Number of simulated particles (kept constant by re-injection).
    pub particles: usize,
    /// Number of load snapshots to extract (the paper takes 68: every
    /// 500 iterations of the first 33 500).
    pub snapshots: usize,
    /// Physics steps integrated between two snapshots.
    pub substeps_per_snapshot: usize,
    /// Nominal solver iterations between snapshots — only used to label
    /// snapshots like the paper ("iter=20,000").
    pub iterations_per_snapshot: u32,
    /// Time step of one physics step (domain is the unit square, solar
    /// wind speed 1).
    pub dt: f64,
    /// Per-cell background load (field solve); keeps every cell > 0.
    pub base_load: u32,
    /// Load contributed by each particle in a cell.
    pub particle_weight: u32,
    /// RNG seed; runs are bit-for-bit reproducible.
    pub seed: u64,
}

impl Default for PicConfig {
    fn default() -> Self {
        Self {
            rows: 512,
            cols: 512,
            particles: 1_000_000,
            snapshots: 68,
            substeps_per_snapshot: 10,
            iterations_per_snapshot: 500,
            dt: 0.002,
            base_load: 2000,
            particle_weight: 25,
            seed: 42,
        }
    }
}

impl PicConfig {
    /// A laptop-scale configuration (128² grid, 65 536 particles) used by
    /// tests and the default experiment scale.
    pub fn small(seed: u64) -> Self {
        Self {
            rows: 128,
            cols: 128,
            particles: 1 << 16,
            snapshots: 16,
            ..Self {
                seed,
                ..Self::default()
            }
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Particle {
    x: f64,
    y: f64,
    vx: f64,
    vy: f64,
    /// Times this slot was re-injected; part of its private RNG stream so
    /// the simulation is deterministic under any thread schedule.
    reinjections: u32,
}

/// One extracted load matrix with its nominal iteration label.
#[derive(Clone, Debug)]
pub struct PicSnapshot {
    /// Nominal solver iteration (multiples of
    /// [`PicConfig::iterations_per_snapshot`], starting at 0).
    pub iteration: u32,
    /// The spatial load at that time.
    pub matrix: LoadMatrix,
}

/// The running simulation.
pub struct PicSimulation {
    cfg: PicConfig,
    particles: Vec<Particle>,
    snapshots_taken: u32,
    /// Dipole position in the unit square.
    dipole: (f64, f64),
}

/// Magnetic-field strength scale of the dipole.
const B_SCALE: f64 = 0.2;
/// Softening added to d³ so the field stays finite at the dipole.
const B_SOFTEN: f64 = 1e-4;
/// Mean inflow (solar wind) speed, in domain units per time unit.
const V_WIND: f64 = 1.0;
/// Thermal velocity spread relative to the wind speed.
const V_THERMAL: f64 = 0.2;

impl PicSimulation {
    /// Initializes the particle population (uniform over the domain,
    /// streaming in the +x direction with thermal spread).
    pub fn new(cfg: PicConfig) -> Self {
        assert!(cfg.rows > 0 && cfg.cols > 0 && cfg.particles > 0);
        let seed = cfg.seed;
        let particles = rectpart_parallel::map_range(cfg.particles, |i| {
            let mut rng = particle_rng(seed, i as u64, 0);
            Particle {
                x: rng.gen::<f64>(),
                y: rng.gen::<f64>(),
                vx: V_WIND + V_THERMAL * (rng.gen::<f64>() - 0.5),
                vy: V_THERMAL * (rng.gen::<f64>() - 0.5),
                reinjections: 0,
            }
        });
        Self {
            cfg,
            particles,
            snapshots_taken: 0,
            dipole: (0.45, 0.5),
        }
    }

    /// The configuration this run was started with.
    pub fn config(&self) -> &PicConfig {
        &self.cfg
    }

    /// Advances one physics step: Boris-style rotation in the dipole
    /// field, drift, and re-injection of escaped particles at the inflow
    /// boundary.
    pub fn step(&mut self) {
        let dt = self.cfg.dt;
        let (dx, dy) = self.dipole;
        let seed = self.cfg.seed;
        rectpart_parallel::for_each_indexed_mut(&mut self.particles, |i, p| {
            // Out-of-plane dipole field: |B| ~ 1/d³, softened.
            let rx = p.x - dx;
            let ry = p.y - dy;
            let d3 = (rx * rx + ry * ry).powf(1.5);
            let b = B_SCALE / (d3 + B_SOFTEN);
            // Exact rotation by θ = B·dt (Boris push for pure Bz).
            let theta = b * dt;
            let (sin, cos) = theta.sin_cos();
            let (vx, vy) = (p.vx, p.vy);
            p.vx = cos * vx - sin * vy;
            p.vy = sin * vx + cos * vy;
            p.x += p.vx * dt;
            p.y += p.vy * dt;
            if p.x < 0.0 || p.x >= 1.0 || p.y < 0.0 || p.y >= 1.0 {
                p.reinjections += 1;
                let mut rng = particle_rng(seed, i as u64, p.reinjections);
                p.x = 0.0;
                p.y = rng.gen::<f64>();
                p.vx = V_WIND + V_THERMAL * (rng.gen::<f64>() - 0.5);
                p.vy = V_THERMAL * (rng.gen::<f64>() - 0.5);
            }
        });
    }

    /// Deposits the particles onto the grid and returns the load matrix
    /// `base_load + particle_weight · count` (deterministic reduction).
    pub fn deposit(&self) -> LoadMatrix {
        let rows = self.cfg.rows;
        let cols = self.cfg.cols;
        let counts = rectpart_parallel::chunked_reduce(
            &self.particles,
            8192,
            |_, chunk| {
                let mut local = vec![0u32; rows * cols];
                for p in chunk {
                    let r = ((p.y * rows as f64) as usize).min(rows - 1);
                    let c = ((p.x * cols as f64) as usize).min(cols - 1);
                    local[r * cols + c] += 1;
                }
                local
            },
            vec![0u32; rows * cols],
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            },
        );
        let base = self.cfg.base_load;
        let w = self.cfg.particle_weight;
        LoadMatrix::from_fn(rows, cols, |r, c| base + w * counts[r * cols + c])
    }

    /// Current particle positions `(x, y)` in the unit square; consumed
    /// by the 3D deposition of [`crate::pic3d`].
    pub fn positions(&self) -> Vec<(f64, f64)> {
        self.particles.iter().map(|p| (p.x, p.y)).collect()
    }

    /// Advances to the next snapshot boundary and extracts it.
    pub fn next_snapshot(&mut self) -> PicSnapshot {
        if self.snapshots_taken > 0 {
            for _ in 0..self.cfg.substeps_per_snapshot {
                self.step();
            }
        }
        let snap = PicSnapshot {
            iteration: self.snapshots_taken * self.cfg.iterations_per_snapshot,
            matrix: self.deposit(),
        };
        self.snapshots_taken += 1;
        snap
    }
}

/// Runs the full simulation and returns all snapshots (the paper's
/// 68-matrix PIC-MAG trace under the default configuration).
pub fn pic_trace(cfg: &PicConfig) -> Vec<PicSnapshot> {
    let mut sim = PicSimulation::new(cfg.clone());
    (0..cfg.snapshots).map(|_| sim.next_snapshot()).collect()
}

/// Private, schedule-independent RNG stream per (particle, lifetime).
fn particle_rng(seed: u64, index: u64, generation: u32) -> StdRng {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15u64;
    for v in [index, generation as u64] {
        h ^= v.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h = h.rotate_left(31).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    }
    StdRng::seed_from_u64(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rectpart_core::PrefixSum2D;

    fn tiny() -> PicConfig {
        PicConfig {
            rows: 32,
            cols: 32,
            particles: 4096,
            snapshots: 4,
            substeps_per_snapshot: 5,
            ..PicConfig::default()
        }
    }

    #[test]
    fn deterministic_trace() {
        let a = pic_trace(&tiny());
        let b = pic_trace(&tiny());
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.iteration, y.iteration);
            assert_eq!(x.matrix, y.matrix);
        }
    }

    #[test]
    fn particle_count_is_conserved() {
        let cfg = tiny();
        let trace = pic_trace(&cfg);
        for snap in &trace {
            let extra: u64 =
                snap.matrix.total() - (cfg.base_load as u64) * (cfg.rows * cfg.cols) as u64;
            assert_eq!(
                extra,
                cfg.particle_weight as u64 * cfg.particles as u64,
                "iter={}",
                snap.iteration
            );
        }
    }

    #[test]
    fn snapshots_are_labeled_like_the_paper() {
        let trace = pic_trace(&tiny());
        let iters: Vec<u32> = trace.iter().map(|s| s.iteration).collect();
        assert_eq!(iters, vec![0, 500, 1000, 1500]);
    }

    #[test]
    fn field_evolves_over_time() {
        let trace = pic_trace(&tiny());
        assert_ne!(trace[0].matrix, trace[3].matrix);
    }

    #[test]
    fn all_cells_strictly_positive_and_delta_moderate() {
        let cfg = PicConfig::small(7);
        let mut sim = PicSimulation::new(cfg);
        let mut last = None;
        for _ in 0..6 {
            last = Some(sim.next_snapshot());
        }
        let m = last.unwrap().matrix;
        assert!(m.min_cell() > 0);
        let delta = m.delta().unwrap();
        assert!(
            (1.05..4.0).contains(&delta),
            "delta {delta} out of the plausible PIC-MAG band"
        );
        let pfx = PrefixSum2D::try_new(&m).unwrap();
        assert_eq!(pfx.total(), m.total());
    }

    #[test]
    fn deposit_respects_grid_bounds() {
        let cfg = PicConfig {
            rows: 8,
            cols: 16,
            particles: 1000,
            ..PicConfig::default()
        };
        let sim = PicSimulation::new(cfg);
        let m = sim.deposit();
        assert_eq!(m.rows(), 8);
        assert_eq!(m.cols(), 16);
    }
}
