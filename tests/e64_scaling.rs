//! E64 scale-out regression: pinning the 16-core FFBP slice
//! assignment onto the e64's 4x4 corner subgrid reproduces the golden
//! baseline configuration — the image bit for bit against both the
//! plain algorithm and the dedicated e16 run, and the e16 run itself
//! anchored to the checked-in `results/table1_baseline.json` timing.

use sar_repro::desim::Json;
use sar_repro::sar_core::ffbp::ffbp;
use sar_repro::sar_core::image::ComplexImage;
use sar_repro::sar_epiphany::ffbp_spmd::SpmdOptions;
use sar_repro::sar_epiphany::harness_impls::FfbpSpmdMapping;
use sar_repro::sar_epiphany::workloads::FfbpWorkload;
use sar_repro::sim_harness::{run, EpiphanyPlatform, MappingRun, Workload};

/// `ffbp_spmd` with `opts` on `platform`, through the harness.
fn spmd(w: &Workload, platform: &EpiphanyPlatform, opts: SpmdOptions) -> MappingRun {
    run(&FfbpSpmdMapping { opts }, w, platform).expect("ffbp_spmd runs on the Epiphany family")
}

fn image(r: &MappingRun) -> &ComplexImage {
    r.image.as_ref().expect("FFBP forms an image")
}

#[test]
fn e64_sixteen_core_subgrid_reproduces_the_golden_image() {
    let ffbp_w = FfbpWorkload::small();
    let plain = ffbp(&ffbp_w.data, &ffbp_w.geom, &ffbp_w.config).image;
    let w = Workload::Ffbp(ffbp_w);
    let e16 = spmd(&w, &EpiphanyPlatform::default(), SpmdOptions::default());
    let sub = spmd(
        &w,
        &EpiphanyPlatform::e64(),
        SpmdOptions {
            cores: Some(16),
            ..SpmdOptions::default()
        },
    );
    // The subgrid run carries the e64 identity but the e16 slice
    // assignment...
    assert!(
        sub.record.label.contains("16 cores"),
        "{}",
        sub.record.label
    );
    // ...and forms the identical image: same slices, same merge tree,
    // same f32 arithmetic — core placement must not leak into pixels.
    assert_eq!(image(&sub).as_slice(), image(&e16).as_slice());
    assert_eq!(image(&sub).as_slice(), plain.as_slice());

    // Anchor to the golden document: the baseline's 16-core FFBP row
    // is exactly the configuration the subgrid reproduces, so a fresh
    // e16 run must still match its recorded time (±1e-9 relative, as
    // in tests/table1_golden.rs).
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/table1_baseline.json"
    ))
    .expect("baseline file must be checked in");
    let doc = Json::parse(&text).expect("baseline parses");
    let golden_ms = doc
        .get("table")
        .and_then(|t| t.get("ffbp"))
        .and_then(Json::as_array)
        .and_then(|rows| {
            rows.iter()
                .find(|r| r.get("cores").and_then(Json::as_u64) == Some(16))
        })
        .and_then(|r| r.get("time_ms"))
        .and_then(Json::as_f64)
        .expect("baseline carries the 16-core FFBP row");
    let fresh_ms = e16.record.millis();
    assert!(
        (fresh_ms - golden_ms).abs() <= 1e-9 * golden_ms.abs(),
        "16-core FFBP drifted from the golden baseline: {fresh_ms} vs {golden_ms}"
    );
}

#[test]
fn the_full_e64_beats_the_e16_on_the_same_image() {
    let w = Workload::Ffbp(FfbpWorkload::small());
    let e16 = spmd(&w, &EpiphanyPlatform::default(), SpmdOptions::default());
    let e64 = spmd(&w, &EpiphanyPlatform::e64(), SpmdOptions::default());
    assert_eq!(image(&e64).as_slice(), image(&e16).as_slice());
    assert!(
        e64.record.elapsed.cycles < e16.record.elapsed.cycles,
        "64 cores must outrun 16 on the same workload"
    );
}
