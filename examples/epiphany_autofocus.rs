//! Run the autofocus criterion as the paper's 13-core MPMD streaming
//! pipeline on the simulated Epiphany and compare against the
//! single-core version.
//!
//! Run with: `cargo run --example epiphany_autofocus --release`

use sar_repro::sar_epiphany::mapping_named;
use sar_repro::sar_epiphany::workloads::AutofocusWorkload;
use sar_repro::sim_harness::{platform_named, run, Workload};

fn main() {
    let af = AutofocusWorkload::paper();
    let (px, true_shift) = (af.pixels() as f64, af.true_shift);
    let w = Workload::Autofocus(af);

    // Both configurations are registered pairs: the registry applies
    // the kernel's pairing specialisation on top of the platform.
    let epiphany = platform_named("epiphany").expect("registered platform");
    let pair = |name: &str| {
        let mapping = mapping_named(name).expect("registered mapping");
        run(mapping.as_ref(), &w, epiphany.as_ref()).expect("supported pair")
    };
    let seq = pair("autofocus_seq");
    let mpmd = pair("autofocus_mpmd");

    println!("{}", seq.record);
    println!();
    println!("{}", mpmd.record);
    println!();

    println!(
        "throughput: sequential {:>10.0} px/s | pipeline {:>10.0} px/s | {:.2}x",
        px / seq.record.elapsed.seconds(),
        px / mpmd.record.elapsed.seconds(),
        seq.record.elapsed.seconds() / mpmd.record.elapsed.seconds()
    );
    let best = mpmd.best.expect("autofocus reports its best hypothesis");
    println!(
        "recovered path compensation: {:+.2} px (injected {true_shift:+.2})",
        best.0
    );
    assert_eq!(seq.sweep.map(|s| s.len()), mpmd.sweep.map(|s| s.len()));
    println!("pipeline and sequential criteria agree — example OK");
}
