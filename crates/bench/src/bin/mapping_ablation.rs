//! E5 — the Figure 9 placement study: the paper's custom MPMD mapping
//! keeps every producer-consumer pair within a couple of mesh hops and
//! "avoids transactions with distant cores". Compare it against a
//! deliberately scattered placement.
//!
//! Usage: `cargo run -p bench --bin mapping_ablation --release [-- --json]`

use sar_epiphany::mapping_named_placed;
use sar_epiphany::workloads::AutofocusWorkload;
use sim_harness::{run, BenchHarness, EpiphanyPlatform, Placement, Workload};

fn main() {
    let mut h = BenchHarness::new("mapping_ablation");
    let af = AutofocusWorkload::paper();
    let hypotheses = af.hypotheses;
    let w = Workload::Autofocus(af);
    h.say(format_args!(
        "Autofocus MPMD placement ablation ({hypotheses} hypotheses)"
    ));
    h.say(format_args!(
        "{:>12} {:>12} {:>16} {:>14} {:>16}",
        "placement", "time (ms)", "px/s", "mesh energy", "busiest link"
    ));
    for (name, place) in [
        ("neighbor", Placement::neighbor()),
        ("scattered", Placement::scattered()),
    ] {
        let mapping = mapping_named_placed("autofocus_mpmd", place).expect("registered");
        let mut r =
            run(mapping.as_ref(), &w, &EpiphanyPlatform::default()).expect("supported pair");
        h.say(format_args!(
            "{:>12} {:>12.3} {:>16.0} {:>11.3e} J {:>13} cyc",
            name,
            r.record.millis(),
            w.pixels() as f64 / r.record.elapsed.seconds(),
            r.record.energy.mesh_j,
            r.record.busiest_link_cycles.raw()
        ));
        r.record.label = format!("{} ({name} placement)", r.record.label);
        h.record(r.record);
    }
    h.say("\nThroughput barely moves (posted writes pipeline across the mesh),");
    h.say("but the scattered mapping multiplies byte-hops: more fabric energy");
    h.say("and hotter links — why the paper bothers with a custom mapping on a");
    h.say("power-constrained part.");
    h.finish();
}
