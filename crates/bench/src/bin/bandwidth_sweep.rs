//! A4 — off-chip bandwidth sensitivity. The paper's argument: the
//! on-chip fabric has 64x the off-chip bandwidth, so the streaming
//! autofocus pipeline is immune to the eLink while FFBP lives and dies
//! by it. Sweep the eLink width and watch who cares.
//!
//! Usage: `cargo run -p bench --bin bandwidth_sweep --release [-- --json]`

use epiphany::EpiphanyParams;
use sar_epiphany::harness_impls::{AutofocusMpmdMapping, FfbpSpmdMapping};
use sar_epiphany::workloads::AutofocusWorkload;
use sim_harness::{run, BenchHarness, EpiphanyPlatform, Workload};

fn main() {
    let mut h = BenchHarness::new("bandwidth_sweep");
    let fw = Workload::Ffbp(bench::reduced_ffbp(256, 1001));
    let aw = Workload::Autofocus(AutofocusWorkload::paper());
    h.say("Off-chip bandwidth sweep (eLink bytes/cycle; datasheet = 8)");
    h.say(format_args!(
        "{:>10} {:>16} {:>18} {:>12}",
        "B/cycle", "FFBP-16 (ms)", "autofocus (px/s)", "eLink util"
    ));
    for bpc in [1u64, 2, 4, 8, 16, 32] {
        let mut p = EpiphanyParams::default();
        p.emesh.elink_bytes_per_cycle = bpc;
        let platform = EpiphanyPlatform::with_params(p);
        let mut f = run(&FfbpSpmdMapping::default(), &fw, &platform).expect("supported pair");
        let mut a = run(&AutofocusMpmdMapping::default(), &aw, &platform).expect("supported pair");
        h.say(format_args!(
            "{:>10} {:>16.2} {:>18.0} {:>11.1}%",
            bpc,
            f.record.millis(),
            aw.pixels() as f64 / a.record.elapsed.seconds(),
            100.0 * f.record.elink_utilization()
        ));
        f.record.set_metric("elink_bytes_per_cycle", bpc as f64);
        a.record.set_metric("elink_bytes_per_cycle", bpc as f64);
        a.record.set_metric(
            "throughput_px_s",
            aw.pixels() as f64 / a.record.elapsed.seconds(),
        );
        h.record(f.record);
        h.record(a.record);
    }
    h.say("\nFFBP time falls with bandwidth until compute-bound; the streaming");
    h.say("autofocus pipeline barely moves — the paper's 64x-ratio argument.");
    h.finish();
}
