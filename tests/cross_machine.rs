//! Cross-machine integration: the functional results must be identical
//! on every modelled machine (the paper's Fig. 7c = 7d observation),
//! while the *timing* must respond to architecture knobs in the
//! physically sensible direction.

use sar_repro::desim::Frequency;
use sar_repro::epiphany::EpiphanyParams;
use sar_repro::refcpu::RefCpuParams;
use sar_repro::sar_core::image::ComplexImage;
use sar_repro::sar_epiphany::harness_impls::{
    AutofocusMpmdMapping, AutofocusRefMapping, AutofocusSeqMapping, FfbpRefMapping, FfbpSeqMapping,
    FfbpSpmdMapping, RdaSeqMapping, RdaSpmdMapping,
};
use sar_repro::sar_epiphany::workloads::{AutofocusWorkload, FfbpWorkload, RdaWorkload};
use sar_repro::sim_harness::{
    run, EpiphanyPlatform, Mapping, MappingRun, Platform, RefCpuPlatform, Workload,
};

/// One registered pair through the harness — the only way a pair runs.
fn pair(mapping: &dyn Mapping, w: &Workload, platform: &dyn Platform) -> MappingRun {
    run(mapping, w, platform).unwrap_or_else(|e| panic!("{}: {e}", mapping.name()))
}

fn image(r: MappingRun) -> ComplexImage {
    r.image.expect("image-forming pair")
}

fn sweep(r: MappingRun) -> Vec<(f32, f32)> {
    r.sweep.expect("autofocus pair")
}

#[test]
fn all_machines_form_the_same_ffbp_image() {
    let w = Workload::Ffbp(FfbpWorkload::small());
    let e16 = EpiphanyPlatform::default();
    let a = image(pair(&FfbpRefMapping, &w, &RefCpuPlatform::default()));
    let b = image(pair(&FfbpSeqMapping, &w, &e16));
    let c = image(pair(&FfbpSpmdMapping::default(), &w, &e16));
    assert_eq!(a.as_slice(), b.as_slice());
    assert_eq!(b.as_slice(), c.as_slice());
}

#[test]
fn all_machines_form_the_same_rda_image() {
    let rda = RdaWorkload::small();
    let plain = sar_repro::sar_core::rda::rda(&rda.raw, &rda.geom, &rda.config).image;
    let w = Workload::Rda(rda);
    let e16 = EpiphanyPlatform::default();
    let a = image(pair(&RdaSeqMapping, &w, &e16));
    let b = image(pair(&RdaSpmdMapping::default(), &w, &e16));
    assert_eq!(plain.as_slice(), a.as_slice());
    assert_eq!(a.as_slice(), b.as_slice());
}

#[test]
fn all_machines_compute_the_same_criterion_sweep() {
    let w = Workload::Autofocus(AutofocusWorkload::small());
    let e16 = EpiphanyPlatform::default();
    let a = sweep(pair(&AutofocusRefMapping, &w, &RefCpuPlatform::default()));
    let b = sweep(pair(&AutofocusSeqMapping, &w, &e16));
    let c = sweep(pair(&AutofocusMpmdMapping::default(), &w, &e16));
    assert_eq!(a, b);
    for ((s1, v1), (s2, v2)) in b.iter().zip(&c) {
        assert_eq!(s1, s2);
        assert!((v1 - v2).abs() <= 1e-3 * v1.abs().max(1.0));
    }
}

#[test]
fn simulated_runs_are_deterministic() {
    let w = Workload::Ffbp(FfbpWorkload::small());
    let e16 = EpiphanyPlatform::default();
    let a = pair(&FfbpSpmdMapping::default(), &w, &e16);
    let b = pair(&FfbpSpmdMapping::default(), &w, &e16);
    assert_eq!(a.record.elapsed.cycles, b.record.elapsed.cycles);
    assert_eq!(
        a.record.metric("external_misses"),
        b.record.metric("external_misses")
    );
}

#[test]
fn faster_clock_means_less_wall_time_same_cycles() {
    let w = Workload::Autofocus(AutofocusWorkload::small());
    let slow = pair(
        &AutofocusSeqMapping,
        &w,
        &EpiphanyPlatform::with_params(EpiphanyParams {
            clock: Frequency::mhz(400.0),
            ..EpiphanyParams::default()
        }),
    );
    let fast = pair(
        &AutofocusSeqMapping,
        &w,
        &EpiphanyPlatform::with_params(EpiphanyParams {
            clock: Frequency::ghz(1.0),
            ..EpiphanyParams::default()
        }),
    );
    assert_eq!(slow.record.elapsed.cycles, fast.record.elapsed.cycles);
    let ratio = slow.record.elapsed.seconds() / fast.record.elapsed.seconds();
    assert!(
        (ratio - 2.5).abs() < 1e-6,
        "1 GHz / 400 MHz = 2.5x, got {ratio}"
    );
}

#[test]
fn wider_elink_speeds_up_ffbp() {
    let w = Workload::Ffbp(FfbpWorkload::small());
    let mut narrow_params = EpiphanyParams::default();
    narrow_params.emesh.elink_bytes_per_cycle = 1;
    let narrow = pair(
        &FfbpSpmdMapping::default(),
        &w,
        &EpiphanyPlatform::with_params(narrow_params),
    );
    let nominal = pair(
        &FfbpSpmdMapping::default(),
        &w,
        &EpiphanyPlatform::default(),
    );
    assert!(
        narrow.record.elapsed.seconds() > nominal.record.elapsed.seconds(),
        "an 8x narrower eLink must hurt FFBP"
    );
}

#[test]
fn slower_sdram_hurts_the_sequential_port_most() {
    let w = Workload::Ffbp(FfbpWorkload::small());
    let mut slow_mem = EpiphanyParams::default();
    slow_mem.sdram.row_hit_cycles *= 4;
    slow_mem.sdram.row_miss_cycles *= 4;
    let seq_nominal = pair(&FfbpSeqMapping, &w, &EpiphanyPlatform::default());
    let seq_slow = pair(
        &FfbpSeqMapping,
        &w,
        &EpiphanyPlatform::with_params(slow_mem),
    );
    let penalty = seq_slow.record.elapsed.seconds() / seq_nominal.record.elapsed.seconds();
    assert!(
        penalty > 1.5,
        "per-element blocking reads must feel 4x SDRAM latency, got {penalty:.2}x"
    );
}

#[test]
fn prefetchless_i7_approaches_epiphany_seq_behaviour() {
    // With its prefetcher off, the i7 model keeps its caches but pays
    // cold-miss latency whenever the stage working set exceeds them —
    // which needs a workload bigger than the tiny test image (whose
    // stages fit in L2 and hide the prefetcher entirely).
    let geom = sar_repro::sar_core::geometry::SarGeometry {
        num_pulses: 128,
        ..sar_repro::sar_core::geometry::SarGeometry::paper_size()
    };
    let scene = sar_repro::sar_core::scene::Scene::six_targets(geom);
    let w = Workload::Ffbp(FfbpWorkload {
        geom,
        data: sar_repro::sar_core::scene::simulate_compressed_data(&scene, 0.0, 7),
        config: Default::default(),
    });
    let on = pair(&FfbpRefMapping, &w, &RefCpuPlatform::default());
    let no_prefetch = RefCpuPlatform {
        params: RefCpuParams::without_prefetch(),
    };
    let off = pair(&FfbpRefMapping, &w, &no_prefetch);
    // The prefetcher can only help, and the cache hierarchy (with or
    // without it) keeps the i7 model essentially compute-bound on this
    // streaming kernel — the paper's "prefetching mechanisms combined
    // with three levels of caches" argument. The dramatic contrast is
    // with the cacheless Epiphany port, which stalls on most cycles.
    assert!(off.record.elapsed.seconds() >= on.record.elapsed.seconds());
    let stalls = on.record.metric("mem_stall_fraction").unwrap();
    assert!(
        stalls < 0.10,
        "cached i7 should be compute-bound, stalls {stalls:.2}"
    );
    let epi = pair(&FfbpSeqMapping, &w, &EpiphanyPlatform::default());
    let busy_fraction = {
        // All stall time on the Epiphany port is eLink/SDRAM latency.
        let total = epi.record.elapsed.seconds();
        let i7_equiv = on.record.elapsed.seconds();
        total / i7_equiv
    };
    assert!(
        busy_fraction > 1.5,
        "the cacheless port should be far slower: {busy_fraction:.2}x"
    );
}

/// The kernel specialisation (the autofocus pairing and IPC figures) is
/// applied by the registry, once, on top of whatever the platform
/// supplies: a caller that rebuilds the default chip from its
/// parameters gets the very same record as the registered platform.
#[test]
fn an_equivalent_platform_prices_every_epiphany_pair_identically() {
    use sar_repro::sar_epiphany::all_mappings;
    use sar_repro::sim_harness::{platform_named, PlatformKind};

    let named = platform_named("epiphany").expect("registered platform");
    let rebuilt = EpiphanyPlatform::with_params(EpiphanyParams::default());
    let mut checked = 0;
    for m in all_mappings() {
        if !m.supports(PlatformKind::Epiphany) {
            continue;
        }
        let w = Workload::named(m.kernel(), true).expect("registered kernel");
        let a = pair(m.as_ref(), &w, named.as_ref()).record.to_json();
        let b = pair(m.as_ref(), &w, &rebuilt).record.to_json();
        assert_eq!(
            a.to_string_pretty(),
            b.to_string_pretty(),
            "{}: the record depends on how the platform was built",
            m.name()
        );
        checked += 1;
    }
    assert_eq!(checked, 7, "every registered Epiphany mapping");
}

/// The A4 bandwidth ablation varies the eLink through the platform:
/// the width moves the time and never the pixels.
#[test]
fn elink_width_moves_ffbp_time_not_its_image() {
    let w = Workload::Ffbp(FfbpWorkload::small());
    let at_width = |bytes_per_cycle: u64| {
        let mut params = EpiphanyParams::default();
        params.emesh.elink_bytes_per_cycle = bytes_per_cycle;
        let platform = EpiphanyPlatform::with_params(params);
        pair(&FfbpSpmdMapping::default(), &w, &platform)
    };
    let (narrow, nominal) = (at_width(2), at_width(8));
    assert_ne!(narrow.record.elapsed.cycles, nominal.record.elapsed.cycles);
    assert_eq!(image(narrow).as_slice(), image(nominal).as_slice());
}

/// Satellite of the harness refactor: *every* registered mapping on
/// *every* platform it supports must reproduce the plain `sar-core`
/// algorithm's functional output — the paper's machine-independence
/// claim, now enforced across the full registry instead of a
/// hand-picked trio.
#[test]
fn every_mapping_on_every_platform_matches_the_plain_algorithms() {
    use sar_repro::desim::OpCounts;
    use sar_repro::sar_core::autofocus::sweep_criterion;
    use sar_repro::sar_core::ffbp::ffbp;
    use sar_repro::sar_epiphany::all_mappings;
    use sar_repro::sim_harness::all_platforms;

    let ffbp_w = FfbpWorkload::small();
    let af_w = AutofocusWorkload::small();
    let rda_w = RdaWorkload::small();
    let plain_image = ffbp(&ffbp_w.data, &ffbp_w.geom, &ffbp_w.config).image;
    let plain_rda = sar_repro::sar_core::rda::rda(&rda_w.raw, &rda_w.geom, &rda_w.config).image;
    let plain_sweep = sweep_criterion(
        &af_w.f_minus,
        &af_w.f_plus,
        af_w.max_shift,
        af_w.hypotheses,
        &af_w.config,
        &mut OpCounts::default(),
    );

    let mut checked = 0usize;
    for m in all_mappings() {
        let w = match m.kernel() {
            "ffbp" => Workload::Ffbp(ffbp_w.clone()),
            "rda" => Workload::Rda(rda_w.clone()),
            _ => Workload::Autofocus(af_w.clone()),
        };
        for p in all_platforms() {
            if !m.supports(p.kind()) {
                continue;
            }
            let out = run(m.as_ref(), &w, p.as_ref())
                .unwrap_or_else(|e| panic!("{} on {}: {e}", m.name(), p.label()));
            if m.kernel() == "ffbp" {
                let image = out.image.expect("ffbp mappings return the image");
                assert_eq!(
                    image.as_slice(),
                    plain_image.as_slice(),
                    "{} on {} diverged from plain FFBP",
                    m.name(),
                    p.label()
                );
            } else if m.kernel() == "rda" {
                let image = out.image.expect("rda mappings return the image");
                assert_eq!(
                    image.as_slice(),
                    plain_rda.as_slice(),
                    "{} on {} diverged from plain RDA",
                    m.name(),
                    p.label()
                );
            } else {
                let sweep = out.sweep.expect("autofocus mappings return the sweep");
                assert_eq!(sweep.len(), plain_sweep.len());
                for (&(s1, v1), &(s2, v2)) in sweep.iter().zip(&plain_sweep) {
                    assert_eq!(s1, s2, "{} on {}: shift grid", m.name(), p.label());
                    assert!(
                        (v1 - v2).abs() <= 1e-3 * v2.abs().max(1.0),
                        "{} on {}: criterion at {s1}: {v1} vs {v2}",
                        m.name(),
                        p.label()
                    );
                }
            }
            checked += 1;
        }
    }
    // Every mapping runs once per platform it supports: the three
    // host-kind mappings on the host, the seven Epiphany-kind mappings
    // on both the e16 and the e64.
    let expected: usize = all_mappings()
        .iter()
        .map(|m| {
            all_platforms()
                .iter()
                .filter(|p| m.supports(p.kind()))
                .count()
        })
        .sum();
    assert!(
        expected >= 8,
        "registry shrank below the original trio-era floor"
    );
    assert_eq!(
        checked, expected,
        "expected every supported (mapping, platform) pair to run once"
    );
}
