//! Seeded input generation. The seed is the only source of variation:
//! the same seed gives the same inputs, and the program under test
//! receives only these generated inputs.
//!
//! [`PAPER_SEED`] reproduces the paper's six-target scene and its
//! 0.4-pixel autofocus path error exactly, so a `table1` run on it can
//! also be checked against the checked-in golden records.

use desim::SmallRng;
use sar_core::autofocus::{AutofocusConfig, Block6};
use sar_core::ffbp::FfbpConfig;
use sar_core::geometry::SarGeometry;
use sar_core::rda::RdaConfig;
use sar_core::scene::{simulate_compressed_data, simulate_raw_echoes, Scene};
use sar_core::signal::ChirpParams;
use sim_harness::{AutofocusWorkload, FfbpWorkload, RdaWorkload};

/// The seed that gives the paper's inputs.
pub const PAPER_SEED: u64 = 0;

/// Point targets in a seeded scene (the paper's scene has six).
const TARGETS: usize = 6;

/// Noise stream seed of the paper workloads (`FfbpWorkload::paper`).
const PAPER_NOISE_SEED: u64 = 7;

fn geometry(small: bool) -> SarGeometry {
    if small {
        SarGeometry::test_size()
    } else {
        SarGeometry::paper_size()
    }
}

fn scene(seed: u64, small: bool) -> Scene {
    let geom = geometry(small);
    if seed == PAPER_SEED {
        Scene::six_targets(geom)
    } else {
        Scene::random_targets(geom, TARGETS, seed)
    }
}

/// Pulse-compressed FFBP input: 1024 x 1001 (paper) or 64 x 129
/// (small), noise-free like the paper workload.
pub fn ffbp(seed: u64, small: bool) -> FfbpWorkload {
    let scene = scene(seed, small);
    FfbpWorkload {
        geom: scene.geometry,
        data: simulate_compressed_data(&scene, 0.0, PAPER_NOISE_SEED),
        config: FfbpConfig::default(),
    }
}

/// Raw RDA echoes of the seeded scene, with the chirp of the
/// repository's RDA workloads (128 samples paper, 64 small).
pub fn rda(seed: u64, small: bool) -> RdaWorkload {
    let scene = scene(seed, small);
    let config = RdaConfig {
        chirp: ChirpParams {
            samples: if small { 64 } else { 128 },
            fractional_bandwidth: 0.9,
        },
        rcmc: true,
    };
    RdaWorkload {
        geom: scene.geometry,
        raw: simulate_raw_echoes(&scene, config.chirp),
        config,
    }
}

/// The autofocus block pair, displaced by a seeded sub-pixel path
/// error (0.4 px on the paper seed), searched over 24 compensations
/// (paper) or 5 (small).
pub fn autofocus(seed: u64, small: bool) -> AutofocusWorkload {
    let truth = if seed == PAPER_SEED {
        0.4
    } else {
        SmallRng::seed_from_u64(seed).gen_range(-0.8..0.8)
    };
    AutofocusWorkload {
        f_minus: Block6::gaussian_blob(0.0, truth / 2.0),
        f_plus: Block6::gaussian_blob(0.0, -truth / 2.0),
        config: AutofocusConfig::default(),
        hypotheses: if small { 5 } else { 24 },
        max_shift: 1.0,
        true_shift: truth,
    }
}

/// The fault seeds a sweep grid runs every pair at.
pub fn grid_seeds(seed: u64, n: u64) -> Vec<u64> {
    (0..n)
        .map(|i| seed.wrapping_mul(1000).wrapping_add(i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_paper_seed_gives_the_paper_workloads() {
        let ours = ffbp(PAPER_SEED, true);
        let paper = FfbpWorkload::small();
        assert_eq!(ours.data.as_slice(), paper.data.as_slice());
        let ours = rda(PAPER_SEED, true);
        let paper = RdaWorkload::small();
        assert_eq!(ours.raw.as_slice(), paper.raw.as_slice());
        for (ours, paper) in [
            (autofocus(PAPER_SEED, false), AutofocusWorkload::paper()),
            (autofocus(PAPER_SEED, true), AutofocusWorkload::small()),
        ] {
            assert_eq!(ours.true_shift, paper.true_shift);
            assert_eq!(ours.hypotheses, paper.hypotheses);
        }
    }

    #[test]
    fn seeds_change_the_inputs_and_repeat_exactly() {
        assert_eq!(ffbp(5, true).data.as_slice(), ffbp(5, true).data.as_slice());
        assert_ne!(ffbp(5, true).data.as_slice(), ffbp(6, true).data.as_slice());
        assert_ne!(
            autofocus(5, false).true_shift,
            autofocus(6, false).true_shift
        );
        assert!(autofocus(5, false).true_shift.abs() < 0.8);
    }
}
