//! [`sim_harness::Mapping`] implementations for every driver in this
//! crate (plus the host-parallel FFBP from `sar-core`), and the
//! registry the unified runner resolves `--mapping` names against.
//!
//! Kernel-specialised parameter overrides (the autofocus IPC and
//! pairing figures) are applied here and nowhere else, on top of
//! whatever parameters the platform supplies — callers vary a machine
//! through its platform (`EpiphanyPlatform::with_params`,
//! `RefCpuPlatform { params }`) and the registry specialises it.

use sim_harness::{
    HarnessError, Mapping, MappingRun, Platform, PlatformKind, ProgramModel, RunContext, Workload,
};

use crate::autofocus_mpmd::Placement;
use crate::autofocus_ref::AUTOFOCUS_SUSTAINED_IPC;
use crate::autofocus_seq::AUTOFOCUS_PAIRING;
use crate::{
    autofocus_mpmd, autofocus_ref, autofocus_seq, ffbp_ref, ffbp_seq, ffbp_spmd, rda_seq, rda_spmd,
};

fn kernel_mismatch(mapping: &dyn Mapping, workload: &Workload) -> HarnessError {
    HarnessError::KernelMismatch {
        mapping: mapping.name().to_string(),
        workload: workload.kernel().to_string(),
    }
}

fn unsupported(mapping: &dyn Mapping, platform: &dyn Platform) -> HarnessError {
    HarnessError::UnsupportedPlatform {
        mapping: mapping.name().to_string(),
        platform: platform.label().to_string(),
    }
}

/// The mesh a program model should declare for `platform`: the chip's
/// real geometry for the Epiphany family, the canonical 4x4 otherwise
/// (non-Epiphany platforms never reach an Epiphany model's analyzer
/// checks — `supports` gates them first).
fn platform_mesh(platform: &dyn Platform) -> (u16, u16) {
    platform
        .epiphany_params()
        .map_or((4, 4), |p| (p.mesh_cols, p.mesh_rows))
}

/// FFBP on one reference-CPU core (Table I row 1).
pub struct FfbpRefMapping;

impl Mapping for FfbpRefMapping {
    fn name(&self) -> &'static str {
        "ffbp_ref"
    }
    fn kernel(&self) -> &'static str {
        "ffbp"
    }
    fn supports(&self, kind: PlatformKind) -> bool {
        kind == PlatformKind::RefCpu
    }
    fn execute(
        &self,
        workload: &Workload,
        platform: &dyn Platform,
        ctx: &RunContext,
    ) -> Result<MappingRun, HarnessError> {
        let w = workload
            .ffbp()
            .ok_or_else(|| kernel_mismatch(self, workload))?;
        let params = platform
            .refcpu_params()
            .ok_or_else(|| unsupported(self, platform))?;
        Ok(ffbp_ref::run(w, params, ctx))
    }
    fn program_model(&self, workload: &Workload, _platform: &dyn Platform) -> Option<ProgramModel> {
        workload.ffbp().map(crate::program_model::ffbp_ref_model)
    }
}

/// FFBP on one Epiphany core (Table I row 2).
pub struct FfbpSeqMapping;

impl Mapping for FfbpSeqMapping {
    fn name(&self) -> &'static str {
        "ffbp_seq"
    }
    fn kernel(&self) -> &'static str {
        "ffbp"
    }
    fn supports(&self, kind: PlatformKind) -> bool {
        kind == PlatformKind::Epiphany
    }
    fn execute(
        &self,
        workload: &Workload,
        platform: &dyn Platform,
        ctx: &RunContext,
    ) -> Result<MappingRun, HarnessError> {
        let w = workload
            .ffbp()
            .ok_or_else(|| kernel_mismatch(self, workload))?;
        let params = platform
            .epiphany_params()
            .ok_or_else(|| unsupported(self, platform))?;
        Ok(ffbp_seq::run(w, params, ctx))
    }
    fn program_model(&self, workload: &Workload, platform: &dyn Platform) -> Option<ProgramModel> {
        workload
            .ffbp()
            .map(|w| crate::program_model::ffbp_seq_model(w, platform_mesh(platform)))
    }
}

/// FFBP on 16 Epiphany cores, SPMD (Table I row 3).
#[derive(Default)]
pub struct FfbpSpmdMapping {
    /// Driver knobs (cores, prefetch). Default: the paper's 16 cores.
    pub opts: ffbp_spmd::SpmdOptions,
}

impl Mapping for FfbpSpmdMapping {
    fn name(&self) -> &'static str {
        "ffbp_spmd"
    }
    fn kernel(&self) -> &'static str {
        "ffbp"
    }
    fn supports(&self, kind: PlatformKind) -> bool {
        kind == PlatformKind::Epiphany
    }
    fn execute(
        &self,
        workload: &Workload,
        platform: &dyn Platform,
        ctx: &RunContext,
    ) -> Result<MappingRun, HarnessError> {
        let w = workload
            .ffbp()
            .ok_or_else(|| kernel_mismatch(self, workload))?;
        let params = platform
            .epiphany_params()
            .ok_or_else(|| unsupported(self, platform))?;
        Ok(ffbp_spmd::run(w, params, self.opts, ctx))
    }
    fn program_model(&self, workload: &Workload, platform: &dyn Platform) -> Option<ProgramModel> {
        workload
            .ffbp()
            .map(|w| crate::program_model::ffbp_spmd_model(w, &self.opts, platform_mesh(platform)))
    }
}

/// FFBP on the host's own threads, wall-clock timed.
pub struct FfbpHostMapping;

impl Mapping for FfbpHostMapping {
    fn name(&self) -> &'static str {
        "ffbp_host"
    }
    fn kernel(&self) -> &'static str {
        "ffbp"
    }
    fn supports(&self, kind: PlatformKind) -> bool {
        kind == PlatformKind::Host
    }
    fn execute(
        &self,
        workload: &Workload,
        platform: &dyn Platform,
        _ctx: &RunContext,
    ) -> Result<MappingRun, HarnessError> {
        let w = workload
            .ffbp()
            .ok_or_else(|| kernel_mismatch(self, workload))?;
        let threads = platform
            .host_threads()
            .ok_or_else(|| unsupported(self, platform))?;
        let label = format!("FFBP / host, {threads} threads (std::thread)");
        let (mut record, r) = sim_harness::BenchHarness::host_record(&label, || {
            sar_core::parallel::ffbp_parallel(&w.data, &w.geom, &w.config, threads)
        });
        record.set_metric("threads", threads as f64);
        record.set_metric("merge_iterations", f64::from(r.iterations));
        Ok(MappingRun {
            record,
            image: Some(r.image),
            sweep: None,
            best: None,
        })
    }
}

/// Autofocus on one reference-CPU core (Table I row 4).
pub struct AutofocusRefMapping;

impl Mapping for AutofocusRefMapping {
    fn name(&self) -> &'static str {
        "autofocus_ref"
    }
    fn kernel(&self) -> &'static str {
        "autofocus"
    }
    fn supports(&self, kind: PlatformKind) -> bool {
        kind == PlatformKind::RefCpu
    }
    fn execute(
        &self,
        workload: &Workload,
        platform: &dyn Platform,
        ctx: &RunContext,
    ) -> Result<MappingRun, HarnessError> {
        let w = workload
            .autofocus()
            .ok_or_else(|| kernel_mismatch(self, workload))?;
        let mut params = platform
            .refcpu_params()
            .ok_or_else(|| unsupported(self, platform))?;
        params.sustained_ipc = AUTOFOCUS_SUSTAINED_IPC;
        Ok(autofocus_ref::run(w, params, ctx))
    }
    fn program_model(&self, workload: &Workload, _platform: &dyn Platform) -> Option<ProgramModel> {
        workload
            .autofocus()
            .map(crate::program_model::autofocus_ref_model)
    }
}

/// Autofocus on one Epiphany core (Table I row 5).
pub struct AutofocusSeqMapping;

impl Mapping for AutofocusSeqMapping {
    fn name(&self) -> &'static str {
        "autofocus_seq"
    }
    fn kernel(&self) -> &'static str {
        "autofocus"
    }
    fn supports(&self, kind: PlatformKind) -> bool {
        kind == PlatformKind::Epiphany
    }
    fn execute(
        &self,
        workload: &Workload,
        platform: &dyn Platform,
        ctx: &RunContext,
    ) -> Result<MappingRun, HarnessError> {
        let w = workload
            .autofocus()
            .ok_or_else(|| kernel_mismatch(self, workload))?;
        let mut params = platform
            .epiphany_params()
            .ok_or_else(|| unsupported(self, platform))?;
        params.pairing_efficiency = AUTOFOCUS_PAIRING;
        Ok(autofocus_seq::run(w, params, ctx))
    }
    fn program_model(&self, workload: &Workload, platform: &dyn Platform) -> Option<ProgramModel> {
        workload
            .autofocus()
            .map(|w| crate::program_model::autofocus_seq_model(w, platform_mesh(platform)))
    }
}

/// Autofocus as the 13-core MPMD pipeline (Table I row 6).
pub struct AutofocusMpmdMapping {
    /// Stage-to-core placement. Default: the paper's neighbour mapping.
    pub place: Placement,
    /// Registry name: `autofocus_mpmd`, or its alias `autofocus_net`.
    name: &'static str,
}

impl Default for AutofocusMpmdMapping {
    fn default() -> Self {
        AutofocusMpmdMapping {
            place: Placement::neighbor(),
            name: "autofocus_mpmd",
        }
    }
}

impl Mapping for AutofocusMpmdMapping {
    fn name(&self) -> &'static str {
        self.name
    }
    fn kernel(&self) -> &'static str {
        "autofocus"
    }
    fn supports(&self, kind: PlatformKind) -> bool {
        kind == PlatformKind::Epiphany
    }
    fn execute(
        &self,
        workload: &Workload,
        platform: &dyn Platform,
        ctx: &RunContext,
    ) -> Result<MappingRun, HarnessError> {
        let w = workload
            .autofocus()
            .ok_or_else(|| kernel_mismatch(self, workload))?;
        let mut params = platform
            .epiphany_params()
            .ok_or_else(|| unsupported(self, platform))?;
        params.pairing_efficiency = AUTOFOCUS_PAIRING;
        Ok(autofocus_mpmd::run(w, params, self.place, ctx))
    }
    fn program_model(&self, workload: &Workload, platform: &dyn Platform) -> Option<ProgramModel> {
        workload.autofocus().map(|w| {
            crate::program_model::autofocus_mpmd_model(w, &self.place, platform_mesh(platform))
        })
    }
}

/// RDA on one Epiphany core (the sequential reference port).
pub struct RdaSeqMapping;

impl Mapping for RdaSeqMapping {
    fn name(&self) -> &'static str {
        "rda_seq"
    }
    fn kernel(&self) -> &'static str {
        "rda"
    }
    fn supports(&self, kind: PlatformKind) -> bool {
        kind == PlatformKind::Epiphany
    }
    fn execute(
        &self,
        workload: &Workload,
        platform: &dyn Platform,
        ctx: &RunContext,
    ) -> Result<MappingRun, HarnessError> {
        let w = workload
            .rda()
            .ok_or_else(|| kernel_mismatch(self, workload))?;
        let params = platform
            .epiphany_params()
            .ok_or_else(|| unsupported(self, platform))?;
        Ok(rda_seq::run(w, params, ctx))
    }
    fn program_model(&self, workload: &Workload, platform: &dyn Platform) -> Option<ProgramModel> {
        workload
            .rda()
            .map(|w| crate::program_model::rda_seq_model(w, platform_mesh(platform)))
    }
}

/// RDA SPMD over the full mesh, with the tiled corner-turn phase.
#[derive(Default)]
pub struct RdaSpmdMapping {
    /// Driver knobs (core pin). Default: every core the mesh provides.
    pub opts: rda_spmd::RdaSpmdOptions,
}

impl Mapping for RdaSpmdMapping {
    fn name(&self) -> &'static str {
        "rda_spmd"
    }
    fn kernel(&self) -> &'static str {
        "rda"
    }
    fn supports(&self, kind: PlatformKind) -> bool {
        kind == PlatformKind::Epiphany
    }
    fn execute(
        &self,
        workload: &Workload,
        platform: &dyn Platform,
        ctx: &RunContext,
    ) -> Result<MappingRun, HarnessError> {
        let w = workload
            .rda()
            .ok_or_else(|| kernel_mismatch(self, workload))?;
        let params = platform
            .epiphany_params()
            .ok_or_else(|| unsupported(self, platform))?;
        Ok(rda_spmd::run(w, params, self.opts, ctx))
    }
    fn program_model(&self, workload: &Workload, platform: &dyn Platform) -> Option<ProgramModel> {
        workload
            .rda()
            .map(|w| crate::program_model::rda_spmd_model(w, &self.opts, platform_mesh(platform)))
    }
}

/// Every mapping, for exhaustive cross-machine sweeps.
pub fn all_mappings() -> Vec<Box<dyn Mapping>> {
    vec![
        Box::new(FfbpRefMapping),
        Box::new(FfbpSeqMapping),
        Box::new(FfbpSpmdMapping::default()),
        Box::new(FfbpHostMapping),
        Box::new(AutofocusRefMapping),
        Box::new(AutofocusSeqMapping),
        Box::new(AutofocusMpmdMapping::default()),
        // Second name for the same pipeline; perfbench's pair lists use it.
        Box::new(AutofocusMpmdMapping {
            name: "autofocus_net",
            ..AutofocusMpmdMapping::default()
        }),
        Box::new(RdaSeqMapping),
        Box::new(RdaSpmdMapping::default()),
    ]
}

/// Look a mapping up by its record name (the `--mapping` flag of the
/// unified runner).
pub fn mapping_named(name: &str) -> Option<Box<dyn Mapping>> {
    all_mappings().into_iter().find(|m| m.name() == name)
}

/// [`mapping_named`] with a stage-to-core placement override — only
/// the pipeline mapping is placeable; other names return their
/// registry default.
pub fn mapping_named_placed(name: &str, place: Placement) -> Option<Box<dyn Mapping>> {
    match name {
        "autofocus_mpmd" | "autofocus_net" => {
            let name = mapping_named(name)?.name();
            Some(Box::new(AutofocusMpmdMapping { place, name }))
        }
        _ => mapping_named(name),
    }
}

/// Run a registered pair by name through the harness — the test
/// suites' shorthand for "this pair, priced as the runner prices it".
#[cfg(test)]
pub(crate) fn run_registered(mapping: &str, platform: &str, workload: Workload) -> MappingRun {
    let m = mapping_named(mapping).expect("registered mapping");
    let p = sim_harness::platform_named(platform).expect("registered platform");
    sim_harness::run(m.as_ref(), &workload, p.as_ref()).expect("supported pair")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_harness::{all_platforms, platform_named, run};

    #[test]
    fn names_round_trip_through_the_registry() {
        for m in all_mappings() {
            let named = mapping_named(m.name()).expect("name must resolve");
            assert_eq!(named.kernel(), m.kernel());
        }
        assert!(mapping_named("ffbp_gpu").is_none());
    }

    #[test]
    fn every_mapping_supports_exactly_one_platform_family() {
        use sim_harness::PlatformKind::*;
        for m in all_mappings() {
            let supported = [Epiphany, RefCpu, Host]
                .into_iter()
                .filter(|&k| m.supports(k))
                .count();
            assert_eq!(
                supported,
                1,
                "mapping {} supports {supported} families",
                m.name()
            );
        }
    }

    #[test]
    fn supported_pairs_run_and_stamp_identity() {
        for m in all_mappings() {
            let w = Workload::named(m.kernel(), true).expect("kernel resolves");
            for p in all_platforms() {
                let result = run(m.as_ref(), &w, p.as_ref());
                if m.supports(p.kind()) {
                    let out = result.expect("supported pair must run");
                    assert_eq!(out.record.mapping, m.name());
                    assert_eq!(out.record.platform, p.label());
                    assert_eq!(out.record.kernel, m.kernel());
                    assert!(out.record.elapsed.seconds() > 0.0);
                } else {
                    assert!(
                        result.is_err(),
                        "{} on {} must be rejected",
                        m.name(),
                        p.label()
                    );
                }
            }
        }
    }

    #[test]
    fn the_registry_applies_the_kernel_specialisation() {
        // The driver prices `params` as given; the registered pair adds
        // the autofocus pairing override on top of the platform's.
        use epiphany::EpiphanyParams;
        use sim_harness::RunContext;
        let w = crate::workloads::AutofocusWorkload::small();
        let via = run_registered("autofocus_seq", "epiphany", Workload::Autofocus(w.clone()));
        let specialised = EpiphanyParams {
            pairing_efficiency: AUTOFOCUS_PAIRING,
            ..EpiphanyParams::default()
        };
        let ctx = RunContext::plain();
        let direct = crate::autofocus_seq::run(&w, specialised, &ctx);
        let bare = crate::autofocus_seq::run(&w, EpiphanyParams::default(), &ctx);
        assert_eq!(via.record.elapsed.cycles, direct.record.elapsed.cycles);
        assert_ne!(via.record.elapsed.cycles, bare.record.elapsed.cycles);
    }

    #[test]
    fn faults_flow_through_the_harness_context() {
        use faultsim::{FaultEvent, FaultPlan, FaultState};
        use sim_harness::{run_ctx, RunContext};
        let w = crate::workloads::AutofocusWorkload::small();
        let platform = platform_named("epiphany").unwrap();
        let plan = FaultPlan::from_events(
            17,
            vec![FaultEvent::FlagDrop {
                at: desim::Cycle(1_000),
            }],
        );
        let ctx = RunContext::plain().with_faults(FaultState::from_plan(&plan));
        let via = run_ctx(
            &AutofocusMpmdMapping::default(),
            &Workload::Autofocus(w),
            platform.as_ref(),
            &ctx,
        )
        .unwrap();
        assert_eq!(via.record.faults.faults_injected, 1);
        assert!(via.record.faults.retries >= 1);
        assert_eq!(via.record.counters.get("fault_seed"), 17);
    }
}
