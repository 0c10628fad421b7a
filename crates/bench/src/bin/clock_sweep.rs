//! A5 — clock scaling: the evaluation board runs the E16G3 at
//! 400 MHz; the paper reports results scaled to the 1 GHz spec point.
//! Verify the scaling assumption holds in the model (compute scales
//! with clock; SDRAM latency is clock-domain-relative in the model, as
//! it is for cycle counts measured on the board).
//!
//! Usage: `cargo run -p bench --bin clock_sweep --release [-- --json]`

use desim::Frequency;
use epiphany::EpiphanyParams;
use sar_epiphany::harness_impls::{AutofocusSeqMapping, FfbpSpmdMapping};
use sar_epiphany::workloads::AutofocusWorkload;
use sim_harness::{run, BenchHarness, EpiphanyPlatform, Workload};

fn main() {
    let mut h = BenchHarness::new("clock_sweep");
    let fw = Workload::Ffbp(bench::reduced_ffbp(256, 1001));
    let aw = Workload::Autofocus(AutofocusWorkload::paper());
    h.say("Epiphany clock sweep");
    h.say(format_args!(
        "{:>10} {:>16} {:>20} {:>14}",
        "clock", "FFBP-16 (ms)", "autofocus (px/s)", "AF energy (J)"
    ));
    for mhz in [400.0f64, 600.0, 800.0, 1000.0] {
        let platform = EpiphanyPlatform::with_params(EpiphanyParams {
            clock: Frequency::mhz(mhz),
            ..EpiphanyParams::default()
        });
        let mut f = run(&FfbpSpmdMapping::default(), &fw, &platform).expect("supported pair");
        let mut a = run(&AutofocusSeqMapping, &aw, &platform).expect("supported pair");
        h.say(format_args!(
            "{:>7} MHz {:>16.2} {:>20.0} {:>14.6}",
            mhz,
            f.record.millis(),
            aw.pixels() as f64 / a.record.elapsed.seconds(),
            a.record.energy_j()
        ));
        f.record.set_metric("clock_mhz", mhz);
        a.record.set_metric("clock_mhz", mhz);
        h.record(f.record);
        h.record(a.record);
    }
    h.say("\nCycle counts are clock-invariant in the model, so wall time scales");
    h.say("inversely with frequency — the scaling the paper applies to its");
    h.say("400 MHz board measurements.");
    h.finish();
}
