//! `sarlint` — the static mapping analyzer (DESIGN.md §3 S14).
//!
//! A mapping exports a declarative [`ProgramModel`] (its buffers,
//! channels, flags and barriers); this crate checks the model against
//! the platform's memory geometry and the mesh *without executing the
//! simulation*:
//!
//! | check | codes | catches |
//! |---|---|---|
//! | [`capacity`] | `SL001`, `SL002` | bank overflow, buffer overlap |
//! | [`deadlock`] | `SL003`, `SL004` | channel-graph cycles, starved credits |
//! | [`placement`] | `SL005` | scattered stages (> [`HOP_BUDGET`] hops) |
//! | [`races`] | `SL006`–`SL008` | unmatched flags, barrier mismatch |
//! | [`recovery`] | `SL011`, `SL012` | channels/flags with no fault-recovery story |
//!
//! [`dynamic::cross_check`] closes the loop: one traced run, every
//! observed remote landing checked against the declared buffers
//! (`SL009`/`SL010`). Mappings without a model (host threads, the
//! reference CPU) report an `SL000` note — nothing claimed, nothing
//! checked.
//!
//! Findings are [`sim_harness::Diagnostic`]s in a [`Report`]; a *hard*
//! diagnostic means the pair must not be simulated (the `run` binary's
//! `--analyze` gate refuses), a *warning* is a cost smell, a *note* is
//! informational.

#![forbid(unsafe_code)]

pub mod capacity;
pub mod cost;
pub mod deadlock;
pub mod dynamic;
pub mod placement;
pub mod races;
pub mod recovery;

use memsim::SramParams;
use sim_harness::{Mapping, Platform, ProgramModel, Report, Workload};

pub use placement::HOP_BUDGET;
pub use sim_harness::{Diagnostic, Severity};

/// Run all five static checks on a model against `sram` geometry.
pub fn analyze_model(model: &ProgramModel, sram: &SramParams) -> Report {
    let mut report = Report::new();
    capacity::check(model, sram, &mut report);
    deadlock::check(model, &mut report);
    placement::check(model, &mut report);
    races::check(model, &mut report);
    recovery::check(model, &mut report);
    report
}

/// Analyze one registered Mapping × Platform pair: resolve the model,
/// pick the platform's SRAM geometry (default geometry for machines
/// without banked local stores) and run the static checks. Unsupported
/// pairs and model-less mappings report an `SL000` note.
pub fn analyze_pair(mapping: &dyn Mapping, workload: &Workload, platform: &dyn Platform) -> Report {
    let mut report = Report::new();
    if !mapping.supports(platform.kind()) {
        report.push(Diagnostic::note(
            "SL000",
            format!("{} x {}", mapping.name(), platform.label()),
            "pair is not supported; nothing to analyze".to_string(),
        ));
        return report;
    }
    let Some(model) = mapping.program_model(workload, platform) else {
        report.push(Diagnostic::note(
            "SL000",
            format!("{} x {}", mapping.name(), platform.label()),
            "mapping exports no program model; nothing claimed, nothing checked".to_string(),
        ));
        return report;
    };
    let sram = platform
        .epiphany_params()
        .map_or_else(SramParams::default, |p| p.sram);
    report.merge(analyze_model(&model, &sram));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use sar_epiphany::autofocus_mpmd::Placement;
    use sar_epiphany::{mapping_named, mapping_named_placed};
    use sim_harness::{platform_named, Severity};

    fn pair(mapping: &str, platform: &str) -> Report {
        let m = mapping_named(mapping).expect("mapping resolves");
        let p = platform_named(platform).expect("platform resolves");
        let w = Workload::named(m.kernel(), true).expect("kernel resolves");
        analyze_pair(m.as_ref(), &w, p.as_ref())
    }

    #[test]
    fn registered_epiphany_mappings_are_clean() {
        for name in ["ffbp_seq", "ffbp_spmd", "autofocus_seq", "autofocus_mpmd"] {
            let r = pair(name, "epiphany");
            assert!(r.is_clean(), "{name}: {:?}", r.diagnostics);
        }
    }

    #[test]
    fn modelless_mappings_note_sl000() {
        let r = pair("ffbp_host", "host");
        assert!(r.is_clean());
        assert!(r.has_code("SL000"));
        assert_eq!(r.diagnostics[0].severity, Severity::Note);
    }

    #[test]
    fn reference_cpu_mappings_now_carry_models() {
        for name in ["ffbp_ref", "autofocus_ref"] {
            let r = pair(name, "refcpu");
            assert!(r.is_clean(), "{name}: {:?}", r.diagnostics);
            assert!(!r.has_code("SL000"), "{name} declares a workload model");
        }
    }

    #[test]
    fn unsupported_pairs_note_sl000() {
        let r = pair("ffbp_seq", "host");
        assert!(r.is_clean());
        assert!(r.has_code("SL000"));
    }

    #[test]
    fn undeclared_recovery_warns_on_the_streams_net_only() {
        // The hand-written MPMD driver declares its recovery story
        // (retry + drain-and-restart); the declarative streams network
        // runs the same channel graph with none.
        let covered = pair("autofocus_mpmd", "epiphany");
        assert!(!covered.has_code("SL011"), "{:?}", covered.diagnostics);
        assert!(!covered.has_code("SL012"), "{:?}", covered.diagnostics);
        let bare = pair("autofocus_net", "epiphany");
        assert!(bare.has_code("SL011"));
        assert!(bare.has_code("SL012"));
        assert!(bare.is_clean(), "recovery findings must stay warnings");
    }

    #[test]
    fn scattered_placement_fails_the_hop_budget() {
        // The one placement override reaches both halves of a pipeline
        // pair: the analyzer (the model declares the scattered cores and
        // SL005 fires) and the simulator (longer routes, more byte-hops).
        let p = platform_named("epiphany").unwrap();
        let w = Workload::named("autofocus", true).unwrap();
        let byte_hops = |m: &dyn sim_harness::Mapping| {
            let out = sim_harness::run(m, &w, p.as_ref()).expect("pipeline pair simulates");
            out.record.counters.get("mesh_byte_hops")
        };
        let scattered = Placement::scattered();
        for name in ["autofocus_mpmd", "autofocus_net"] {
            let far = mapping_named_placed(name, scattered).unwrap();
            let model = far
                .program_model(&w, p.as_ref())
                .expect("pipelines export a model");
            let mut declared: Vec<usize> =
                model.channels.iter().flat_map(|c| [c.from, c.to]).collect();
            declared.sort_unstable();
            declared.dedup();
            let mut placed = scattered.cores();
            placed.sort_unstable();
            assert_eq!(declared, placed, "{name}: model ignores the placement");

            let r = analyze_pair(far.as_ref(), &w, p.as_ref());
            assert!(
                !r.is_clean() && r.has_code("SL005"),
                "{name}: {:?}",
                r.diagnostics
            );

            let near = mapping_named_placed(name, Placement::neighbor()).unwrap();
            let (far_hops, near_hops) = (byte_hops(far.as_ref()), byte_hops(near.as_ref()));
            assert!(
                far_hops > near_hops,
                "{name}: scattered {far_hops} byte-hops vs neighbour {near_hops}"
            );
        }
    }
}
