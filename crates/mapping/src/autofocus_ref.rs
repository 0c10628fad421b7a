//! Autofocus criterion on the reference CPU model (Table I row 4).
//!
//! The working set (two 6x6 blocks plus small intermediates) fits in
//! the L1 cache, so this configuration is purely compute-bound — the
//! paper notes its throughput is comparable to a single Epiphany core
//! because the i7's clock advantage is offset by executing almost twice
//! the instructions (no FMA) on a latency-bound dependence chain.

use desim::OpCounts;
use refcpu::{RefCpu, RefCpuParams};
use sar_core::autofocus::{best_shift, focus_criterion};
use sim_harness::{MappingRun, RunContext};

use crate::workloads::AutofocusWorkload;

/// Sustained IPC for the Neville dependence chains of this kernel:
/// each interpolation level waits on the previous one, so the
/// out-of-order window cannot fill its issue slots (the FFBP geometry
/// kernel, by contrast, has two independent chains and sustains the
/// [`RefCpuParams::default`] IPC). The registry's `autofocus_ref`
/// mapping applies it on top of the platform's parameters.
pub const AUTOFOCUS_SUSTAINED_IPC: f64 = 0.8;

/// Execute the autofocus workload on the reference CPU model: one
/// phase per hypothesis, the `(shift, criterion)` sweep and the winning
/// compensation. `params` is used as given — the kernel's IPC
/// specialisation is the registry's job. The model has no tracer and
/// no recovery story, so `_ctx` is unused.
pub fn run(w: &AutofocusWorkload, params: RefCpuParams, _ctx: &RunContext) -> MappingRun {
    let mut cpu = RefCpu::new(params);
    let mut counts = OpCounts::default();
    let mut charged = OpCounts::default();

    // The two blocks stream in once (cold reads), then live in L1.
    cpu.mem_read(0x1000, 288);
    cpu.mem_read(0x2000, 288);

    let mut sweep = Vec::with_capacity(w.hypotheses);
    for h in 0..w.hypotheses {
        cpu.phase_begin("hypothesis");
        let shift = w.shift(h);
        let v = focus_criterion(&w.f_minus, &w.f_plus, shift, &w.config, &mut counts);
        let delta = counts.since(&charged);
        charged = counts;
        cpu.compute(&delta);
        // Criterion result written out.
        cpu.mem_write(0x3000 + 8 * h as u64, 8);
        cpu.phase_end();
        sweep.push((shift, v));
    }

    let best = best_shift(&sweep);
    MappingRun {
        record: cpu.report("Autofocus / Intel i7 model, 1 core @ 2.67 GHz"),
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

    fn paper() -> MappingRun {
        run_registered(
            "autofocus_ref",
            "refcpu",
            Workload::Autofocus(AutofocusWorkload::paper()),
        )
    }

    #[test]
    fn recovers_the_injected_path_error() {
        let w = AutofocusWorkload::paper();
        let best = paper().best.unwrap();
        assert!(
            (best.0 - w.true_shift).abs() <= 0.15,
            "found {} expected {}",
            best.0,
            w.true_shift
        );
    }

    #[test]
    fn compute_bound_not_memory_bound() {
        let r = paper();
        let stalls = r.record.metric("mem_stall_fraction").unwrap();
        assert!(
            stalls < 0.05,
            "autofocus must be compute bound, stalls {stalls}"
        );
    }

    #[test]
    fn throughput_in_table_one_ballpark() {
        // Table I: 21,600 criterion pixels/second on the i7. The model
        // should land within ~2x of that — it is an architecture model,
        // not a fit.
        let w = AutofocusWorkload::paper();
        let r = paper();
        let px_per_s = w.pixels() as f64 / r.record.elapsed.seconds();
        assert!(
            (8_000.0..80_000.0).contains(&px_per_s),
            "throughput {px_per_s:.0} px/s implausibly far from Table I"
        );
    }

    #[test]
    fn sweep_length_matches_hypotheses() {
        let w = AutofocusWorkload::small();
        let r = run(&w, RefCpuParams::default(), &RunContext::plain());
        assert_eq!(r.sweep.unwrap().len(), w.hypotheses);
    }
}
