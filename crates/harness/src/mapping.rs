//! The kernel side of the harness: one object-safe trait every driver
//! (SPMD, MPMD, sequential, reference, host-parallel) implements.

use std::fmt;

use desim::trace::{Tracer, Track};
use desim::{
    EnergyRecord, MeshUtilization, PhaseAttribution, PhasePower, PhaseRecord, PowerEpoch,
    PowerRecord, PowerTimeline, RunRecord,
};
use faultsim::FaultState;
use sar_core::image::ComplexImage;

use crate::model::ProgramModel;
use crate::platform::{Platform, PlatformKind};
use crate::workload::Workload;

/// Everything a driver may consult while executing: the run's event
/// timeline and its fault schedule. [`run_ctx`] passes it through to
/// [`Mapping::execute`]; [`run_traced`] wraps a bare tracer in a
/// fault-free context, so the two entry points price identically when
/// no faults are armed. Placement is a property of the mapping
/// (`mapping_named_placed` in `sar-epiphany`), not of the run, so the
/// simulator and the static analyzer always see the same one.
#[derive(Clone)]
pub struct RunContext {
    /// Event timeline (disabled unless the caller requested a trace).
    pub tracer: Tracer,
    /// Fault schedule (disabled unless the caller armed one).
    pub faults: FaultState,
}

impl Default for RunContext {
    fn default() -> RunContext {
        RunContext {
            tracer: Tracer::disabled(),
            faults: FaultState::disabled(),
        }
    }
}

impl RunContext {
    /// Neither tracing nor faults — the plain [`run`] path.
    pub fn plain() -> RunContext {
        RunContext::default()
    }

    /// Tracing only.
    pub fn traced(tracer: Tracer) -> RunContext {
        RunContext {
            tracer,
            ..RunContext::default()
        }
    }

    /// Replace the fault schedule.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultState) -> RunContext {
        self.faults = faults;
        self
    }
}

/// What a mapping returns: the machine record plus whichever functional
/// outputs the kernel produces (used by the cross-machine identity
/// tests — the paper's "results are identical on every machine").
pub struct MappingRun {
    /// The priced run.
    pub record: RunRecord,
    /// The formed image (FFBP mappings).
    pub image: Option<ComplexImage>,
    /// `(shift, criterion)` per hypothesis (autofocus mappings).
    pub sweep: Option<Vec<(f32, f32)>>,
    /// The winning compensation (autofocus mappings).
    pub best: Option<(f32, f32)>,
}

impl MappingRun {
    /// A run carrying only a record (ablation-style outputs).
    pub fn record_only(record: RunRecord) -> MappingRun {
        MappingRun {
            record,
            image: None,
            sweep: None,
            best: None,
        }
    }
}

/// Why a `run()` request was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HarnessError {
    /// The workload variant does not match the mapping's kernel.
    KernelMismatch {
        /// The mapping's kernel.
        mapping: String,
        /// The workload's kernel.
        workload: String,
    },
    /// The mapping cannot run on the requested machine family.
    UnsupportedPlatform {
        /// The mapping's name.
        mapping: String,
        /// The rejected platform label.
        platform: String,
    },
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::KernelMismatch { mapping, workload } => {
                write!(f, "mapping '{mapping}' cannot run a '{workload}' workload")
            }
            HarnessError::UnsupportedPlatform { mapping, platform } => {
                write!(
                    f,
                    "mapping '{mapping}' does not support platform '{platform}'"
                )
            }
        }
    }
}

impl std::error::Error for HarnessError {}

/// One way of running a kernel on a machine family. Implementations
/// live next to their drivers (in `sar-epiphany`); the harness only
/// needs the trait.
pub trait Mapping {
    /// Identity stamped into [`RunRecord::mapping`] and resolved by the
    /// `--mapping` flag (e.g. `"ffbp_spmd"`).
    fn name(&self) -> &'static str;
    /// The kernel this runs: `"ffbp"`, `"autofocus"` or `"rda"`.
    fn kernel(&self) -> &'static str;
    /// Whether the mapping can execute on `kind`.
    fn supports(&self, kind: PlatformKind) -> bool;
    /// Run the workload. Called through [`run_ctx`], which validates
    /// kernel/platform compatibility first and stamps record identity
    /// after. `ctx.tracer` is the run's event timeline — disabled
    /// unless the caller requested a trace; drivers with machine
    /// models hand it to the chip, others may ignore it (the harness
    /// synthesises phase spans from the record). `ctx.faults` is the
    /// fault schedule: only mappings with a recovery story consult it,
    /// and with it disabled they price exactly as the fault-free path.
    fn execute(
        &self,
        workload: &Workload,
        platform: &dyn Platform,
        ctx: &RunContext,
    ) -> Result<MappingRun, HarnessError>;
    /// What the mapping declares about its memory, channels and
    /// synchronisation — the input to the `sarlint` static checks
    /// (DESIGN.md §3 S14). `None` means the mapping makes no checkable
    /// claims (host threads, the reference CPU).
    fn program_model(&self, workload: &Workload, platform: &dyn Platform) -> Option<ProgramModel> {
        let _ = (workload, platform);
        None
    }
}

/// [`run_ctx`] with neither tracing nor faults: validate the kernel ×
/// machine pair, execute, and stamp the record with its full identity.
/// Use [`run_traced`] to capture an event timeline.
pub fn run(
    mapping: &dyn Mapping,
    workload: &Workload,
    platform: &dyn Platform,
) -> Result<MappingRun, HarnessError> {
    run_traced(mapping, workload, platform, &Tracer::disabled())
}

/// [`run`] with an event timeline: every span/instant the machine
/// models emit lands in `tracer`. For mappings whose driver has no
/// tracer-aware machine model (reference CPU, host threads), the
/// closed record's phases are replayed as [`Track::Run`] spans so a
/// trace of *any* registered pair has at least its phase timeline.
pub fn run_traced(
    mapping: &dyn Mapping,
    workload: &Workload,
    platform: &dyn Platform,
    tracer: &Tracer,
) -> Result<MappingRun, HarnessError> {
    run_ctx(
        mapping,
        workload,
        platform,
        &RunContext::traced(tracer.clone()),
    )
}

/// The one run path every registered pair goes through ([`run`] and
/// [`run_traced`] are its shorthands): validate the pair, call
/// [`Mapping::execute`] with `ctx`, stamp the record's identity and
/// platform power, and close its energy books. When faults are armed
/// the seed is stamped into the record's counters (`fault_seed`), so a
/// record alone is enough to reproduce its run.
pub fn run_ctx(
    mapping: &dyn Mapping,
    workload: &Workload,
    platform: &dyn Platform,
    ctx: &RunContext,
) -> Result<MappingRun, HarnessError> {
    if workload.kernel() != mapping.kernel() {
        return Err(HarnessError::KernelMismatch {
            mapping: mapping.name().to_string(),
            workload: workload.kernel().to_string(),
        });
    }
    if !mapping.supports(platform.kind()) {
        return Err(HarnessError::UnsupportedPlatform {
            mapping: mapping.name().to_string(),
            platform: platform.label().to_string(),
        });
    }
    let mut out = mapping.execute(workload, platform, ctx)?;
    out.record.kernel = mapping.kernel().to_string();
    out.record.mapping = mapping.name().to_string();
    out.record.platform = platform.label().to_string();
    out.record.power_w = platform.datasheet_power_w();
    if let Some(seed) = ctx.faults.seed() {
        out.record.counters.add("fault_seed", seed);
    }
    if ctx.tracer.is_enabled() && !ctx.tracer.has_span_on(Track::Run) {
        replay_phases(&out.record, &ctx.tracer);
    }
    finalize_power(&mut out.record);
    Ok(out)
}

/// Close the record's energy books so every registered pair satisfies
/// the powertrace invariants, whatever its driver provided:
///
/// 1. Phases on datasheet-priced platforms (no activity-based energy
///    model) get `power_w × time` energy instead of `0.0`.
/// 2. Energy the phases don't cover (warm-up, gaps, drain — or drivers
///    that report no phases at all) lands in a synthetic
///    `"unattributed"` phase, so `Σ phases.energy_j == energy_j()`.
/// 3. Records without a power block (every platform but the Epiphany
///    chip model) get one synthesised from their phase timings: one
///    epoch per phase, energy on the `static` channel (datasheet power
///    is leakage-shaped — no activity decomposition exists), stall
///    fraction lifted from the driver's `mem_stall_cycles` metric when
///    present.
///
/// Runs after [`replay_phases`] so the synthetic phase is never
/// replayed as a trace span.
fn finalize_power(record: &mut RunRecord) {
    // 1. Datasheet pricing for drivers without an energy model.
    if !record.energy.is_modelled() && record.power_w > 0.0 {
        for p in &mut record.phases {
            if p.energy_j == 0.0 {
                p.energy_j = record.power_w * p.time_ms * 1e-3;
            }
        }
    }

    // 2. Attribute the residual. Phase deltas are non-negative and the
    // phases are disjoint, so the residual is non-negative up to
    // rounding; a sub-epsilon residual is rounding, not a gap.
    let total_j = record.energy_j();
    let covered_j: f64 = record.phases.iter().map(|p| p.energy_j).sum();
    let covered_ms: f64 = record.phases.iter().map(|p| p.time_ms).sum();
    let residual = total_j - covered_j;
    if residual > 1e-12 * total_j.abs().max(1.0) {
        let last_end = record
            .phases
            .iter()
            .map(|p| p.start_ms + p.time_ms)
            .fold(0.0, f64::max);
        record.phases.push(PhaseRecord {
            name: "unattributed".into(),
            index: 0,
            start_ms: last_end,
            time_ms: (record.elapsed.millis() - covered_ms).max(0.0),
            energy_j: residual,
            elink_utilization: 0.0,
            mesh: MeshUtilization::default(),
            metrics: Default::default(),
        });
        if let Some(power) = &mut record.power {
            let covered = power
                .phases
                .iter()
                .fold(EnergyRecord::default(), |acc, p| acc.plus(&p.energy));
            let energy = record.energy.delta_since(&covered);
            power.phases.push(PhasePower {
                name: "unattributed".into(),
                index: 0,
                energy,
                attribution: PhaseAttribution::attribute(&energy, 0.0, 0.0, 0.0),
            });
        }
    }

    // 3. Synthesise a power block from phase timings.
    if record.power.is_none() {
        let clock = record.elapsed.clock;
        let mut timeline = PowerTimeline::new();
        let mut phases = Vec::with_capacity(record.phases.len());
        for p in &record.phases {
            let start = clock.cycles_in(p.start_ms / 1e3);
            let end = clock.cycles_in((p.start_ms + p.time_ms) / 1e3);
            let energy = EnergyRecord {
                static_j: p.energy_j,
                ..EnergyRecord::default()
            };
            timeline.push(PowerEpoch { start, end, energy });
            let span_cycles = end.saturating_sub(start).raw() as f64;
            let stall_fraction = if span_cycles > 0.0 {
                p.metrics
                    .get("mem_stall_cycles")
                    .map_or(0.0, |s| (s / span_cycles).min(1.0))
            } else {
                0.0
            };
            let compute_fraction = if span_cycles > 0.0 {
                1.0 - stall_fraction
            } else {
                0.0
            };
            phases.push(PhasePower {
                name: p.name.clone(),
                index: p.index,
                energy,
                attribution: PhaseAttribution::attribute(
                    &energy,
                    0.0,
                    compute_fraction,
                    stall_fraction,
                ),
            });
        }
        if timeline.epochs.is_empty() {
            timeline.push(PowerEpoch {
                start: desim::Cycle::ZERO,
                end: record.elapsed.cycles,
                energy: EnergyRecord {
                    static_j: total_j,
                    ..EnergyRecord::default()
                },
            });
        }
        record.power = Some(PowerRecord { timeline, phases });
    }
}

/// Synthesise [`Track::Run`] phase spans from a closed record, for
/// drivers that never saw the tracer (their timing lives only in
/// `PhaseRecord`s). Millisecond offsets are mapped back to cycles at
/// the record's clock.
fn replay_phases(record: &RunRecord, tracer: &Tracer) {
    let clock = record.elapsed.clock;
    let to_cycles = |ms: f64| clock.cycles_in(ms / 1e3);
    for p in &record.phases {
        tracer.span(
            Track::Run,
            format!("{}[{}]", p.name, p.index),
            to_cycles(p.start_ms),
            to_cycles(p.start_ms + p.time_ms),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{EpiphanyPlatform, RefCpuPlatform};
    use desim::{Cycle, Frequency, TimeSpan};

    struct NullFfbp;
    impl Mapping for NullFfbp {
        fn name(&self) -> &'static str {
            "ffbp_null"
        }
        fn kernel(&self) -> &'static str {
            "ffbp"
        }
        fn supports(&self, kind: PlatformKind) -> bool {
            kind == PlatformKind::Epiphany
        }
        fn execute(
            &self,
            _w: &Workload,
            _p: &dyn Platform,
            _ctx: &RunContext,
        ) -> Result<MappingRun, HarnessError> {
            let span = TimeSpan::new(Cycle(1000), Frequency::ghz(1.0));
            let mut record = RunRecord::new("null", span);
            record.phases.push(desim::PhaseRecord {
                name: "stage".into(),
                index: 0,
                start_ms: 0.0,
                time_ms: 1e-3,
                energy_j: 0.0,
                elink_utilization: 0.0,
                mesh: desim::MeshUtilization::default(),
                metrics: Default::default(),
            });
            Ok(MappingRun::record_only(record))
        }
    }

    #[test]
    fn run_stamps_full_identity() {
        let w = Workload::named("ffbp", true).unwrap();
        let out = run(&NullFfbp, &w, &EpiphanyPlatform::default()).unwrap();
        assert_eq!(out.record.kernel, "ffbp");
        assert_eq!(out.record.mapping, "ffbp_null");
        assert_eq!(out.record.platform, "epiphany");
        assert_eq!(out.record.power_w, crate::platform::EPIPHANY_POWER_W);
    }

    #[test]
    fn run_rejects_kernel_and_platform_mismatches() {
        let af = Workload::named("autofocus", true).unwrap();
        let err = run(&NullFfbp, &af, &EpiphanyPlatform::default())
            .err()
            .unwrap();
        assert!(matches!(err, HarnessError::KernelMismatch { .. }));
        let ffbp = Workload::named("ffbp", true).unwrap();
        let err = run(&NullFfbp, &ffbp, &RefCpuPlatform::default())
            .err()
            .unwrap();
        assert!(matches!(err, HarnessError::UnsupportedPlatform { .. }));
        assert!(format!("{err}").contains("refcpu"));
    }

    #[test]
    fn run_ctx_stamps_the_fault_seed_only_when_armed() {
        use faultsim::FaultPlan;
        let w = Workload::named("ffbp", true).unwrap();
        let plain = run(&NullFfbp, &w, &EpiphanyPlatform::default()).unwrap();
        assert!(
            !plain.record.counters.contains("fault_seed"),
            "fault-free records must not grow a seed counter"
        );
        let ctx = RunContext::plain().with_faults(FaultState::from_plan(&FaultPlan::empty(42)));
        let armed = run_ctx(&NullFfbp, &w, &EpiphanyPlatform::default(), &ctx).unwrap();
        assert_eq!(armed.record.counters.get("fault_seed"), 42);
        // Identity stamping is shared with the traced path.
        assert_eq!(armed.record.mapping, "ffbp_null");
    }

    #[test]
    fn run_traced_replays_phases_for_tracer_blind_drivers() {
        let w = Workload::named("ffbp", true).unwrap();
        let t = Tracer::enabled();
        let out = run_traced(&NullFfbp, &w, &EpiphanyPlatform::default(), &t).unwrap();
        assert_eq!(out.record.phases.len(), 1);
        assert!(
            t.has_span_on(Track::Run),
            "phases must be replayed as Run-track spans"
        );
    }
}
