//! Integration tests for the Figure-4 pipeline extensions: non-linear
//! tracks, motion compensation, per-merge autofocus, and the
//! process-network implementation of the criterion.

use sar_repro::sar_core::autofocus::integrated::{ffbp_with_autofocus, IntegratedConfig};
use sar_repro::sar_core::ffbp::{ffbp, FfbpConfig};
use sar_repro::sar_core::geometry::SarGeometry;
use sar_repro::sar_core::quality::{normalized_rmse, response_width, Axis};
use sar_repro::sar_core::scene::{simulate_compressed_data, simulate_with_track, Scene};
use sar_repro::sar_core::track::FlightTrack;
use sar_repro::sar_epiphany::mapping_named;
use sar_repro::sar_epiphany::workloads::AutofocusWorkload;
use sar_repro::sim_harness::{run, EpiphanyPlatform, Workload};

#[test]
fn track_errors_defocus_and_autofocus_recovers() {
    let geom = SarGeometry::test_size();
    let scene = Scene::single_target(geom);
    let clean = simulate_compressed_data(&scene, 0.0, 0);
    let track = FlightTrack::step(geom.num_pulses, 1.5);
    let perturbed = simulate_with_track(&scene, &track, 0.0, 0);

    let ideal = ffbp(&clean, &geom, &FfbpConfig::default());
    let plain = ffbp(&perturbed, &geom, &FfbpConfig::default());
    let recovered = ffbp_with_autofocus(&perturbed, &geom, &IntegratedConfig::default());

    let (p_ideal, _, _) = ideal.image.peak();
    let (p_plain, _, _) = plain.image.peak();
    let (p_auto, _, _) = recovered.image.peak();

    assert!(p_plain < p_ideal, "a step track must cost focus");
    assert!(p_auto > p_plain, "autofocus must recover focus");
    assert!(
        normalized_rmse(&recovered.image, &ideal.image)
            <= normalized_rmse(&plain.image, &ideal.image) + 1e-6,
        "the recovered image should be no farther from the ideal"
    );
}

#[test]
fn straight_track_simulation_matches_legacy_entry_point() {
    let geom = SarGeometry::test_size();
    let scene = Scene::six_targets(geom);
    let a = simulate_compressed_data(&scene, 0.0, 3);
    let b = simulate_with_track(&scene, &FlightTrack::straight(geom.num_pulses), 0.0, 3);
    assert_eq!(a.as_slice(), b.as_slice());
}

#[test]
fn perturbed_track_broadens_the_response() {
    let geom = SarGeometry {
        num_pulses: 256,
        num_bins: 257,
        ..SarGeometry::paper_size()
    };
    let scene = Scene::single_target(geom);
    let clean = simulate_compressed_data(&scene, 0.0, 0);
    let wobble = FlightTrack::sinusoidal(geom.num_pulses, 1.5, 96.0);
    let perturbed = simulate_with_track(&scene, &wobble, 0.0, 0);
    let ideal = ffbp(&clean, &geom, &FfbpConfig::default());
    let blurred = ffbp(&perturbed, &geom, &FfbpConfig::default());
    // The track error redistributes energy out of the mainlobe: the
    // peak drops even when the half-width stays quantised.
    let (p_ideal, _, _) = ideal.image.peak();
    let (p_blur, _, _) = blurred.image.peak();
    assert!(
        p_blur < 0.9 * p_ideal,
        "1.5 m wobble should cost >10% of the peak: {p_blur} vs {p_ideal}"
    );
    // Width metric stays finite and sane on both.
    for img in [&ideal.image, &blurred.image] {
        let w = response_width(img, Axis::Range, 0.5);
        assert!(w > 0.5 && w < 50.0, "width {w}");
    }
}

#[test]
fn process_network_agrees_with_hand_written_mapping_end_to_end() {
    let w = Workload::Autofocus(AutofocusWorkload::paper());
    let pair = |name: &str| {
        let mapping = mapping_named(name).expect("registered");
        run(mapping.as_ref(), &w, &EpiphanyPlatform::default()).expect("supported pair")
    };
    let seq = pair("autofocus_seq");
    let net = pair("autofocus_net");
    // Numerics match the sequential reference...
    let (seq_sweep, net_sweep) = (seq.sweep.unwrap(), net.sweep.unwrap());
    for ((s1, v1), (s2, v2)) in seq_sweep.iter().zip(&net_sweep) {
        assert_eq!(s1, s2);
        assert!((v1 - v2).abs() <= 1e-3 * v1.abs().max(1.0));
    }
    // ...and the pipeline is still a large speedup over one core, so
    // the abstraction did not cost the performance benefit the paper
    // worries about.
    let speedup = seq.record.elapsed.seconds() / net.record.elapsed.seconds();
    assert!(speedup > 4.0, "network pipeline speedup {speedup:.2}");
}
