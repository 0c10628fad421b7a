//! A3 — attribute the SPMD FFBP performance to its two memory tricks:
//! DMA prefetch into the upper local banks, and non-stalling posted
//! writes. The paper credits both (§VI); this bench isolates each.
//!
//! Usage: `cargo run -p bench --bin prefetch_ablation --release [-- --json]`

use refcpu::RefCpuParams;
use sar_epiphany::ffbp_spmd::SpmdOptions;
use sar_epiphany::harness_impls::{FfbpRefMapping, FfbpSeqMapping, FfbpSpmdMapping};
use sim_harness::{run, BenchHarness, EpiphanyPlatform, RefCpuPlatform, RunRecord, Workload};

/// A read-split metric the SPMD driver sets on every record.
fn count(r: &RunRecord, key: &str) -> u64 {
    r.metric(key).expect("ffbp_spmd records its read split") as u64
}

fn main() {
    let mut h = BenchHarness::new("prefetch_ablation");
    let w = bench::reduced_ffbp(256, 1001);
    h.say(format_args!(
        "FFBP memory-system ablation ({} pulses x {} bins)",
        w.geom.num_pulses, w.geom.num_bins
    ));
    let w = Workload::Ffbp(w);
    let epiphany = EpiphanyPlatform::default();

    let with = run(&FfbpSpmdMapping::default(), &w, &epiphany).expect("supported pair");
    let without = FfbpSpmdMapping {
        opts: SpmdOptions {
            prefetch: false,
            ..SpmdOptions::default()
        },
    };
    let without = run(&without, &w, &epiphany).expect("supported pair");
    h.say("\nEpiphany SPMD (16 cores):");
    for (label, r) in [("ON ", &with.record), ("OFF", &without.record)] {
        h.say(format_args!(
            "  prefetch {label}: {:>10.2} ms   local {} / external {}",
            r.millis(),
            count(r, "local_hits"),
            count(r, "external_misses")
        ));
    }
    h.say(format_args!(
        "  prefetch speedup: {}",
        bench::fmt_x(without.record.elapsed.seconds() / with.record.elapsed.seconds())
    ));
    let mut r_with = with.record;
    r_with.label = format!("{} — prefetch ON", r_with.label);
    let mut r_without = without.record;
    r_without.label = format!("{} — prefetch OFF", r_without.label);
    r_without.set_metric("slowdown_vs_prefetch", {
        r_without.elapsed.seconds() / r_with.elapsed.seconds()
    });
    h.record(r_with);
    h.record(r_without);

    // Sequential side: Epiphany's naive port vs the i7 with and
    // without *its* prefetcher — the other half of the paper's
    // memory-system argument.
    let seq = run(&FfbpSeqMapping, &w, &epiphany).expect("supported pair");
    let i7 = run(&FfbpRefMapping, &w, &RefCpuPlatform::default()).expect("supported pair");
    let i7_nopf = RefCpuPlatform {
        params: RefCpuParams::without_prefetch(),
    };
    let i7_nopf = run(&FfbpRefMapping, &w, &i7_nopf).expect("supported pair");
    h.say("\nSequential configurations:");
    h.say(format_args!(
        "  Epiphany 1 core (no cache)     : {:>10.2} ms",
        seq.record.millis()
    ));
    h.say(format_args!(
        "  i7 model (caches + prefetcher) : {:>10.2} ms",
        i7.record.millis()
    ));
    h.say(format_args!(
        "  i7 model (prefetcher disabled) : {:>10.2} ms",
        i7_nopf.record.millis()
    ));
    h.say(format_args!(
        "  i7 prefetcher contribution     : {}",
        bench::fmt_x(i7_nopf.record.elapsed.seconds() / i7.record.elapsed.seconds())
    ));
    h.record(seq.record);
    h.record(i7.record);
    let mut r_nopf = i7_nopf.record;
    r_nopf.label = format!("{} — prefetcher disabled", r_nopf.label);
    h.record(r_nopf);
    h.finish();
}
