//! Autofocus criterion on a single Epiphany core (Table I row 5).
//!
//! The whole working set fits the core's local store, so — unlike FFBP
//! — memory latency never shows: the kernel runs at FPU speed, and the
//! FMA-friendly Neville chains execute in roughly half the instructions
//! the reference CPU needs. The paper measures 0.8x the i7 throughput
//! at 1/2.67 the clock.

use desim::OpCounts;
use epiphany::{Chip, EpiphanyParams};
use memsim::GlobalAddr;
use sar_core::autofocus::{best_shift, focus_criterion};
use sim_harness::{MappingRun, RunContext};

use crate::layout::BANK_CHILD_A;
use crate::workloads::AutofocusWorkload;

/// Dual-issue pairing efficiency for this kernel: the hand-scheduled
/// interpolation loop pairs FPU ops with its loads/stores well. The
/// registry's three autofocus Epiphany mappings apply it on top of the
/// platform's parameters.
pub const AUTOFOCUS_PAIRING: f64 = 0.9;

/// Execute the autofocus workload on one core of the Epiphany model:
/// one phase per hypothesis, the `(shift, criterion)` sweep and the
/// winning compensation. `params` is used as given — the kernel's
/// pairing specialisation is the registry's job. The chip emits its
/// spans into `ctx.tracer`; the single-core port has no recovery
/// story, so `ctx.faults` is ignored.
pub fn run(w: &AutofocusWorkload, params: EpiphanyParams, ctx: &RunContext) -> MappingRun {
    let mut chip = Chip::from_params(params);
    chip.set_tracer(ctx.tracer.clone());
    let core = 0usize;
    let mut counts = OpCounts::default();
    let mut charged = OpCounts::default();

    // DMA the two blocks from SDRAM into a local bank once.
    let d1 = chip.dma_start(
        core,
        epiphany::dma::DmaDirection::ExternalToLocal,
        GlobalAddr::external(0),
        BANK_CHILD_A,
        2 * 288,
    );
    chip.dma_wait(core, d1);

    let mut sweep = Vec::with_capacity(w.hypotheses);
    for h in 0..w.hypotheses {
        chip.phase_begin("hypothesis");
        let shift = w.shift(h);
        let v = focus_criterion(&w.f_minus, &w.f_plus, shift, &w.config, &mut counts);
        let delta = counts.since(&charged);
        charged = counts;
        chip.compute(core, &delta);
        chip.write_external(core, GlobalAddr::external(0x10000 + 8 * h as u32), 8);
        chip.phase_end();
        sweep.push((shift, v));
    }

    let best = best_shift(&sweep);
    MappingRun {
        record: chip.report("Autofocus / Epiphany, 1 core @ 1 GHz (sequential)", 1),
        image: None,
        sweep: Some(sweep),
        best: Some(best),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness_impls::run_registered;
    use sim_harness::Workload;

    #[test]
    fn same_criterion_values_as_the_reference_machine() {
        let w = AutofocusWorkload::small();
        let a = run_registered("autofocus_seq", "epiphany", Workload::Autofocus(w.clone()));
        let b = run_registered("autofocus_ref", "refcpu", Workload::Autofocus(w));
        assert_eq!(a.sweep, b.sweep, "machines must compute identical numerics");
        assert_eq!(a.best, b.best);
    }

    #[test]
    fn throughput_is_near_the_reference_cpu() {
        // Table I: Epiphany sequential reaches 0.8x the i7 throughput.
        // Accept a generous band around that shape.
        let w = AutofocusWorkload::paper();
        let seq = run_registered("autofocus_seq", "epiphany", Workload::Autofocus(w.clone()));
        let reference = run_registered("autofocus_ref", "refcpu", Workload::Autofocus(w));
        let ratio = reference.record.elapsed.seconds() / seq.record.elapsed.seconds();
        assert!(
            (0.4..1.2).contains(&ratio),
            "Epiphany-seq/i7 throughput ratio {ratio:.2} far from the paper's 0.8"
        );
    }

    #[test]
    fn no_external_reads_after_the_initial_dma() {
        let w = AutofocusWorkload::paper();
        let r = run(&w, EpiphanyParams::default(), &RunContext::plain());
        assert_eq!(
            r.record.counters.get("ext_read"),
            0,
            "the kernel fits on chip; only the initial DMA touches SDRAM"
        );
        assert_eq!(r.record.counters.get("dma_bytes"), 576);
    }
}
