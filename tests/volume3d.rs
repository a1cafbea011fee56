//! Cross-crate 3D tests: volume partitioning, the accumulate-to-2D
//! equivalence, and property-based box/prefix invariants.

use proptest::collection::vec;
use proptest::prelude::*;
use rectpart::core::{JagMHeur, Partitioner, PrefixSum2D};
use rectpart::volume::{
    peak3, uniform3, Axis3, Box3, HierRb3, JagMHeur3, LoadVolume, Partition3, Partitioner3,
    PrefixSum3D, RectUniform3,
};
use rectpart::workloads::{pic3_trace, Pic3Config, PicConfig};

#[test]
fn all_3d_algorithms_tile_pic_volumes() {
    let cfg = Pic3Config {
        planar: PicConfig {
            rows: 24,
            cols: 24,
            particles: 3000,
            snapshots: 2,
            ..PicConfig::default()
        },
        depth: 8,
        vz_thermal: 0.3,
    };
    let volume = pic3_trace(&cfg).pop().unwrap().volume;
    let pfx = PrefixSum3D::new(&volume);
    for m in [1, 5, 8, 27] {
        let grid = RectUniform3::default().partition(&pfx, m);
        assert!(grid.validate(&pfx).is_ok(), "grid m={m}");
        let hier = HierRb3.partition(&pfx, m);
        assert!(hier.validate(&pfx).is_ok(), "hier m={m}");
        for axis in Axis3::ALL {
            let jag = JagMHeur3::new(&volume, axis).partition(&pfx, m);
            assert!(jag.validate(&pfx).is_ok(), "jag {axis:?} m={m}");
            assert!(jag.lmax(&pfx) >= pfx.lower_bound(m));
        }
    }
}

#[test]
fn extruded_2d_partition_matches_flattened_imbalance() {
    // The paper's preprocessing is lossless for extruded (column-shaped)
    // partitions: accumulation preserves column loads exactly.
    let volume = peak3(16, 16, 12, 5);
    let pfx3 = PrefixSum3D::new(&volume);
    let flat = volume.flatten(Axis3::Z);
    let pfx2 = PrefixSum2D::try_new(&flat).unwrap();
    let m = 9;
    let part2 = JagMHeur::best().partition(&pfx2, m);
    let extruded = Partition3::new(
        part2
            .rects()
            .iter()
            .map(|r| {
                if r.is_empty() {
                    Box3::EMPTY
                } else {
                    Box3::new(r.r0, r.r1, r.c0, r.c1, 0, 12)
                }
            })
            .collect(),
    );
    assert!(extruded.validate(&pfx3).is_ok());
    assert_eq!(extruded.lmax(&pfx3), part2.lmax(&pfx2));
    assert!((extruded.load_imbalance(&pfx3) - part2.load_imbalance(&pfx2)).abs() < 1e-12);
}

#[test]
fn native_3d_beats_or_matches_extrusion_on_uniform_volumes() {
    let volume = uniform3(12, 12, 12, 1.2, 3);
    let pfx3 = PrefixSum3D::new(&volume);
    let flat = volume.flatten(Axis3::Z);
    let pfx2 = PrefixSum2D::try_new(&flat).unwrap();
    let m = 8;
    let flat_imb = JagMHeur::best().partition(&pfx2, m).load_imbalance(&pfx2);
    let hier3 = HierRb3.partition(&pfx3, m).load_imbalance(&pfx3);
    // 2^3 processors on a cube: bisection can cut every axis once.
    assert!(hier3 <= flat_imb + 1e-9);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn prefix3_matches_naive(
        dims in (1usize..6, 1usize..6, 1usize..6),
        seed in 0u64..1000,
    ) {
        let (nx, ny, nz) = dims;
        let data: Vec<u32> = {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            (0..nx * ny * nz).map(|_| rng.gen_range(0..100)).collect()
        };
        let v = LoadVolume::from_vec(nx, ny, nz, data);
        let p = PrefixSum3D::new(&v);
        prop_assert_eq!(p.total(), v.total());
        for x0 in 0..=nx {
            for y0 in 0..=ny {
                let b = Box3::new(x0, nx, y0, ny, 0, nz);
                prop_assert_eq!(p.load(&b), v.load_naive(&b));
            }
        }
    }

    #[test]
    fn hier3_tiles_arbitrary_volumes(
        dims in (1usize..8, 1usize..8, 1usize..8),
        loads in vec(0u32..50, 1..512),
        m in 1usize..10,
    ) {
        let (nx, ny, nz) = dims;
        let cells = nx * ny * nz;
        let data: Vec<u32> = (0..cells).map(|i| loads[i % loads.len()]).collect();
        let v = LoadVolume::from_vec(nx, ny, nz, data);
        let p = PrefixSum3D::new(&v);
        let part = HierRb3.partition(&p, m);
        prop_assert!(part.validate(&p).is_ok());
        prop_assert!(part.lmax(&p) >= p.lower_bound(m) || p.total() == 0);
        prop_assert_eq!(part.loads(&p).iter().sum::<u64>(), p.total());
    }

    #[test]
    fn flatten_preserves_totals(
        dims in (1usize..6, 1usize..6, 1usize..6),
        seed in 0u64..1000,
    ) {
        let (nx, ny, nz) = dims;
        let v = uniform3(nx, ny, nz, 1.7, seed);
        for axis in Axis3::ALL {
            prop_assert_eq!(v.flatten(axis).total(), v.total());
        }
    }
}
