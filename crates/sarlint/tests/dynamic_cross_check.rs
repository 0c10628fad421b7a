//! The dynamic cross-check end to end: a truthful mapping passes, a
//! mapping whose model under-declares its landing sites is caught
//! (`SL009`), one that over-declares a buffer is flagged (`SL010`
//! warning), one whose workload declarations disagree with the run's
//! counters drifts (`SL016`), and a landing-free run reports the
//! vacuous note.

use sar_epiphany::mapping_named;
use sarlint::dynamic::cross_check;
use sim_harness::{
    platform_named, Bound, HarnessError, Mapping, MappingRun, Platform, PlatformKind, ProgramModel,
    RunContext, Severity, Workload,
};

/// Delegates execution to a real mapping but exports a model with
/// every inbox shrunk to a single word — the run's observed landings
/// can no longer be covered by the declarations.
struct UnderDeclared(Box<dyn Mapping>);

impl Mapping for UnderDeclared {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn kernel(&self) -> &'static str {
        self.0.kernel()
    }
    fn supports(&self, kind: PlatformKind) -> bool {
        self.0.supports(kind)
    }
    fn execute(
        &self,
        workload: &Workload,
        platform: &dyn Platform,
        ctx: &RunContext,
    ) -> Result<MappingRun, HarnessError> {
        self.0.execute(workload, platform, ctx)
    }
    fn program_model(&self, workload: &Workload, platform: &dyn Platform) -> Option<ProgramModel> {
        let mut m = self.0.program_model(workload, platform)?;
        for b in &mut m.buffers {
            b.bytes = 8;
        }
        Some(m)
    }
}

/// Delegates execution to a real mapping but declares one extra inbox
/// on a core the driver never writes to — over-declared communication.
struct OverDeclared(Box<dyn Mapping>);

impl Mapping for OverDeclared {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn kernel(&self) -> &'static str {
        self.0.kernel()
    }
    fn supports(&self, kind: PlatformKind) -> bool {
        self.0.supports(kind)
    }
    fn execute(
        &self,
        workload: &Workload,
        platform: &dyn Platform,
        ctx: &RunContext,
    ) -> Result<MappingRun, HarnessError> {
        self.0.execute(workload, platform, ctx)
    }
    fn program_model(&self, workload: &Workload, platform: &dyn Platform) -> Option<ProgramModel> {
        let mut m = self.0.program_model(workload, platform)?;
        // Bank 3 of core 0 receives nothing in the pipeline drivers.
        m.buffer("phantom_inbox", 0, 3, 0, 64);
        Some(m)
    }
}

/// Delegates execution to a real mapping but inflates every declared
/// flag-wait count far beyond what the driver performs.
struct Drifted(Box<dyn Mapping>);

impl Mapping for Drifted {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn kernel(&self) -> &'static str {
        self.0.kernel()
    }
    fn supports(&self, kind: PlatformKind) -> bool {
        self.0.supports(kind)
    }
    fn execute(
        &self,
        workload: &Workload,
        platform: &dyn Platform,
        ctx: &RunContext,
    ) -> Result<MappingRun, HarnessError> {
        self.0.execute(workload, platform, ctx)
    }
    fn program_model(&self, workload: &Workload, platform: &dyn Platform) -> Option<ProgramModel> {
        let mut m = self.0.program_model(workload, platform)?;
        for ph in &mut m.workload {
            for w in &mut ph.work {
                w.flag_waits = Bound::exact(1e6);
            }
        }
        Some(m)
    }
}

#[test]
fn truthful_pipeline_mapping_passes_the_cross_check() {
    let m = mapping_named("autofocus_mpmd").expect("registered");
    let w = Workload::named("autofocus", true).expect("registered");
    let p = platform_named("epiphany").expect("registered");
    let r = cross_check(m.as_ref(), &w, p.as_ref());
    assert!(r.is_clean(), "{:?}", r.diagnostics);
    // The check must not be vacuous: the run emitted landings, so no
    // SL000 note either.
    assert!(!r.has_code("SL000"), "{:?}", r.diagnostics);
}

#[test]
fn truthful_spmd_mapping_passes_the_cross_check() {
    let m = mapping_named("ffbp_spmd").expect("registered");
    let w = Workload::named("ffbp", true).expect("registered");
    let p = platform_named("epiphany").expect("registered");
    let r = cross_check(m.as_ref(), &w, p.as_ref());
    assert!(r.is_clean(), "{:?}", r.diagnostics);
    assert!(!r.has_code("SL000"), "{:?}", r.diagnostics);
}

#[test]
fn under_declared_model_is_caught_as_sl009() {
    let m = UnderDeclared(mapping_named("autofocus_mpmd").expect("registered"));
    let w = Workload::named("autofocus", true).expect("registered");
    let p = platform_named("epiphany").expect("registered");
    let r = cross_check(&m, &w, p.as_ref());
    assert!(!r.is_clean());
    assert!(r.has_code("SL009"), "{:?}", r.diagnostics);
}

#[test]
fn over_declared_buffer_warns_as_sl010() {
    let m = OverDeclared(mapping_named("autofocus_mpmd").expect("registered"));
    let w = Workload::named("autofocus", true).expect("registered");
    let p = platform_named("epiphany").expect("registered");
    let r = cross_check(&m, &w, p.as_ref());
    // Over-declaration is a smell, not a gate: the report stays clean.
    assert!(r.is_clean(), "{:?}", r.diagnostics);
    let d = r
        .diagnostics
        .iter()
        .find(|d| d.code == "SL010")
        .expect("phantom inbox flagged");
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.subject, "phantom_inbox");
    assert!(
        d.message.contains("never received a landing"),
        "{}",
        d.message
    );
}

#[test]
fn counter_drift_warns_as_sl016() {
    let m = Drifted(mapping_named("autofocus_mpmd").expect("registered"));
    let w = Workload::named("autofocus", true).expect("registered");
    let p = platform_named("epiphany").expect("registered");
    let r = cross_check(&m, &w, p.as_ref());
    assert!(r.is_clean(), "{:?}", r.diagnostics);
    let d = r
        .diagnostics
        .iter()
        .find(|d| d.code == "SL016")
        .expect("inflated flag waits drift");
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.subject, "flag_wait");
    assert!(d.message.contains("model drift"), "{}", d.message);
}

#[test]
fn landing_free_run_reports_the_vacuous_note() {
    // The reference-CPU mapping now carries a workload model, but its
    // run performs no remote landings — the landing check is vacuous
    // and says so, while the counter drift check still runs silently.
    let m = mapping_named("ffbp_ref").expect("registered");
    let w = Workload::named("ffbp", true).expect("registered");
    let p = platform_named("refcpu").expect("registered");
    let r = cross_check(m.as_ref(), &w, p.as_ref());
    assert!(r.is_clean());
    assert!(r.has_code("SL000"));
    assert!(!r.has_code("SL016"), "{:?}", r.diagnostics);
}
