//! Run the SPMD FFBP mapping on the simulated 16-core Epiphany and
//! print the machine report: simulated time, energy breakdown, eLink
//! pressure, and the prefetch hit rate that drives the paper's story.
//!
//! Run with: `cargo run --example epiphany_ffbp --release`

use sar_repro::sar_epiphany::{mapping_named, workloads::FfbpWorkload};
use sar_repro::sim_harness::{platform_named, run, Workload};

fn main() {
    // A reduced workload keeps the example quick; the full Table I run
    // lives in `cargo run -p bench --bin table1 --release`.
    let geom = sar_repro::sar_core::geometry::SarGeometry {
        num_pulses: 256,
        ..sar_repro::sar_core::geometry::SarGeometry::paper_size()
    };
    let scene = sar_repro::sar_core::scene::Scene::six_targets(geom);
    let w = Workload::Ffbp(FfbpWorkload {
        geom,
        data: sar_repro::sar_core::scene::simulate_compressed_data(&scene, 0.0, 7),
        config: Default::default(),
    });

    // Both configurations are registered pairs: the same harness path
    // the `run` binary and Table I use.
    let epiphany = platform_named("epiphany").expect("registered platform");
    let pair = |name: &str| {
        let mapping = mapping_named(name).expect("registered mapping");
        run(mapping.as_ref(), &w, epiphany.as_ref()).expect("supported pair")
    };
    let seq = pair("ffbp_seq");
    let par = pair("ffbp_spmd");

    println!("{}", seq.record);
    println!();
    println!("{}", par.record);
    println!();
    let hits = par.record.metric("local_hits").expect("read split");
    let misses = par.record.metric("external_misses").expect("read split");
    println!(
        "prefetch coverage: {hits} local / {misses} external ({:.1}% hit rate)",
        100.0 * hits / (hits + misses)
    );
    println!(
        "16-core speedup over one Epiphany core: {:.2}x (paper, full size: 11.7x)",
        seq.record.elapsed.seconds() / par.record.elapsed.seconds()
    );
    assert_eq!(
        seq.image.expect("FFBP forms an image").as_slice(),
        par.image.expect("FFBP forms an image").as_slice(),
        "both mappings must form the same image"
    );
}
