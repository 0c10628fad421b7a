//! Autofocus criterion as a 13-core MPMD streaming pipeline
//! (Table I row 6, mapping of Figure 9).
//!
//! Per contributing image block: three *range interpolator* cores (one
//! per 4-column window) and three *beam interpolator* cores (one per
//! 4-row window); a single *correlation + summation* core serves both
//! blocks — 2 x (3 + 3) + 1 = 13 cores, with three spare for the rest
//! of the chain. Intermediate results stream between neighbouring
//! cores as posted cMesh writes with flag synchronisation; nothing but
//! the initial block load and the final criterion touches off-chip
//! memory. The custom placement keeps every producer-consumer pair
//! within a couple of hops — the paper credits this (plus the 64x
//! on-chip/off-chip bandwidth ratio) for the pipeline not bottlenecking
//! at the correlator.

use desim::{Cycle, OpCounts};
use epiphany::dma::DmaDirection;
use epiphany::{Chip, EpiphanyParams};
use memsim::GlobalAddr;
use sar_core::autofocus::criterion::{BeamStageOut, RangeStageOut};
use sar_core::autofocus::{beam_stage, best_shift, correlate_partial, range_stage};
use sim_harness::{MappingRun, RunContext};

use crate::layout::BANK_CHILD_A;
use crate::workloads::AutofocusWorkload;

// The placement type lives in the harness (so `autotune` can search
// over it without depending on the drivers); re-exported here, next
// to the drivers that consume it. A placed mapping comes from
// `mapping_named_placed`, which hands the same placement to this
// driver and to the mapping's program model.
pub use sim_harness::Placement;

/// Execute the autofocus workload on the 13-core pipeline placed by
/// `place`: one phase per hypothesis (with per-stage occupancy and
/// correlator wait/queue-depth metrics), the `(shift, criterion)`
/// sweep and the winning compensation. `params` is used as given — the
/// kernel's pairing specialisation is the registry's job. The chip
/// emits its spans into `ctx.tracer`.
///
/// Under `ctx.faults` two recovery policies compose: every
/// inter-stage flag message goes through [`Chip::send_reliable`]
/// (producer-side watchdog, so a dropped flag costs a timeout and a
/// re-send instead of a hang), and a core that halts permanently is
/// handled by *drain-and-restart* — the current hypothesis's in-flight
/// results are discarded, the dead core's stage is remapped onto one
/// of the three spare cores ([`Placement::remap`], re-staging the
/// block data if it was a range core), and the hypothesis is re-run on
/// the repaired pipeline. The sweep is bit-identical to the fault-free
/// run because a restarted hypothesis recomputes exactly the same
/// values.
pub fn run(
    w: &AutofocusWorkload,
    params: EpiphanyParams,
    mut place: Placement,
    ctx: &RunContext,
) -> MappingRun {
    let faults = &ctx.faults;
    assert_eq!(
        place.cores().len(),
        13,
        "the mapping must use 13 distinct cores"
    );
    let mut chip = Chip::from_params(params);
    chip.set_tracer(ctx.tracer.clone());
    chip.set_faults(faults.clone());
    // Placements are written in E16G3 (4-column) ids; renumber onto
    // the chip's actual mesh, preserving coordinates and hop counts.
    place = place.rebased(chip.mesh_dims().0, chip.mesh_dims().1);

    // The three cores the 13-core mapping leaves idle: the spare pool
    // for remapping around permanent halts.
    let mut spares: Vec<usize> = (0..chip.cores())
        .filter(|c| !place.cores().contains(c))
        .collect();

    // Initial load: each range core DMAs its block from SDRAM.
    for (blk, range_cores) in place.range.iter().enumerate() {
        for &rc in range_cores {
            let d = chip.dma_start(
                rc,
                DmaDirection::ExternalToLocal,
                GlobalAddr::external(blk as u32 * 288),
                BANK_CHILD_A,
                288,
            );
            chip.dma_wait(rc, d);
        }
    }

    let per_it = w.config.samples_per_iteration() as u64;
    let range_msg_bytes = 6 * per_it * 8; // six rows of complex samples
    let beam_msg_bytes = 3 * per_it * 8; // three windows of complex samples

    let mut counts = [OpCounts::default(); 13];
    let mut charged = [OpCounts::default(); 13];

    // Stage occupancy: share of the phase's span each stage's cores
    // spent busy. All snapshots are pure reads of the chip's cursors —
    // the instrumentation never advances time.
    let stage_busy = |chip: &Chip, stage_cores: &[usize]| -> u64 {
        stage_cores.iter().map(|&c| chip.busy(c).0).sum()
    };

    let mut sweep = Vec::with_capacity(w.hypotheses);
    for h in 0..w.hypotheses {
        // One attempt per pass; a permanent halt discards the attempt
        // (drain-and-restart) and re-runs it on the repaired pipeline.
        'attempt: loop {
            // The placement can change between attempts, so the slot
            // map and stage groupings are derived fresh each time.
            let cores = place.cores();
            let core_slot =
                |core: usize| cores.iter().position(|&c| c == core).expect("mapped core");
            let range_cores: Vec<usize> = place.range.iter().flatten().copied().collect();
            let beam_cores: Vec<usize> = place.beam.iter().flatten().copied().collect();

            let attempt_e0 = if faults.is_enabled() {
                chip.energy().total_j()
            } else {
                0.0
            };
            chip.phase_begin("hypothesis");
            let t0 = chip.elapsed();
            let range_busy0 = stage_busy(&chip, &range_cores);
            let beam_busy0 = stage_busy(&chip, &beam_cores);
            let corr_busy0 = chip.busy(place.corr).0;
            let mut corr_wait_cycles = 0u64;
            let mut corr_queue_peak = 0u64;
            let shift = w.shift(h);
            let mut criterion = 0.0f32;
            for it in 0..3 {
                let mut beam_out: [[Option<BeamStageOut>; 3]; 2] = Default::default();
                let mut corr_ready = Cycle::ZERO;
                let mut corr_arrivals: Vec<Cycle> = Vec::with_capacity(6);
                #[allow(clippy::needless_range_loop)] // blk selects block-specific tables
                for blk in 0..2 {
                    let (block, s) = if blk == 0 {
                        (&w.f_minus, -0.5 * shift)
                    } else {
                        (&w.f_plus, 0.5 * shift)
                    };
                    // Range stage: three cores, one window each; each core
                    // streams its output to all three beam cores.
                    let mut range_out: [Option<RangeStageOut>; 3] = Default::default();
                    let mut deliveries = [[Cycle::ZERO; 3]; 3]; // [beam][range]
                    for wi in 0..3 {
                        let rc = place.range[blk][wi];
                        let slot = core_slot(rc);
                        let out = range_stage(block, wi, s, it, &w.config, &mut counts[slot]);
                        let delta = counts[slot].since(&charged[slot]);
                        charged[slot] = counts[slot];
                        chip.compute(rc, &delta);
                        for (bi, row) in deliveries.iter_mut().enumerate() {
                            let bc = place.beam[blk][bi];
                            row[wi] = chip.send_reliable(rc, bc, range_msg_bytes);
                        }
                        range_out[wi] = Some(out);
                    }
                    let range_out: [RangeStageOut; 3] = range_out.map(|o| o.expect("range output"));

                    // Beam stage: each core waits for its three inputs.
                    for bi in 0..3 {
                        let bc = place.beam[blk][bi];
                        let slot = core_slot(bc);
                        let ready = deliveries[bi].iter().copied().max().unwrap_or(Cycle::ZERO);
                        chip.wait_flag(bc, ready);
                        let out = beam_stage(&range_out, bi, s, it, &w.config, &mut counts[slot]);
                        let delta = counts[slot].since(&charged[slot]);
                        charged[slot] = counts[slot];
                        chip.compute(bc, &delta);
                        let arr = chip.send_reliable(bc, place.corr, beam_msg_bytes);
                        corr_ready = corr_ready.max(arr);
                        corr_arrivals.push(arr);
                        beam_out[blk][bi] = Some(out);
                    }
                }

                // Correlation + summation once both halves have streamed in.
                let minus: [BeamStageOut; 3] =
                    std::array::from_fn(|i| beam_out[0][i].take().expect("beam output"));
                let plus: [BeamStageOut; 3] =
                    std::array::from_fn(|i| beam_out[1][i].take().expect("beam output"));
                let slot = core_slot(place.corr);
                // Queue depth seen by the correlator: messages already
                // delivered when it reaches the wait (backlog), and how
                // long it idles for the last one.
                let consume_at = chip.now(place.corr);
                let backlog = corr_arrivals.iter().filter(|&&a| a <= consume_at).count() as u64;
                corr_queue_peak = corr_queue_peak.max(backlog);
                corr_wait_cycles += corr_ready.saturating_sub(consume_at).0;
                chip.wait_flag(place.corr, corr_ready);
                criterion += correlate_partial(&minus, &plus, &mut counts[slot]);
                let delta = counts[slot].since(&charged[slot]);
                charged[slot] = counts[slot];
                chip.compute(place.corr, &delta);
            }
            chip.write_external(place.corr, GlobalAddr::external(0x10000 + 8 * h as u32), 8);
            let span = (chip.elapsed() - t0).0.max(1);
            let occupancy =
                |busy0: u64, busy1: u64, n: u64| (busy1 - busy0) as f64 / (n * span) as f64;
            chip.phase_metric(
                "range_occupancy",
                occupancy(range_busy0, stage_busy(&chip, &range_cores), 6),
            );
            chip.phase_metric(
                "beam_occupancy",
                occupancy(beam_busy0, stage_busy(&chip, &beam_cores), 6),
            );
            chip.phase_metric(
                "corr_occupancy",
                occupancy(corr_busy0, chip.busy(place.corr).0, 1),
            );
            chip.phase_metric("corr_wait_cycles", corr_wait_cycles as f64);
            chip.phase_metric("corr_queue_peak", corr_queue_peak as f64);

            // Health check at the hypothesis boundary: any core that
            // halted during this attempt invalidates its in-flight
            // results.
            let halted = faults.newly_halted(chip.elapsed());
            let dead: Vec<usize> = halted
                .iter()
                .map(|&c| c as usize)
                .filter(|c| cores.contains(c))
                .collect();
            // A spare that dies before it is ever drafted just leaves the
            // pool.
            spares.retain(|s| !halted.contains(&(*s as u32)));
            if dead.is_empty() {
                chip.phase_end();
                sweep.push((shift, criterion));
                break 'attempt;
            }
            chip.phase_metric("halted_cores", dead.len() as f64);
            chip.phase_end();
            for d in dead {
                let spare = spares.pop().expect("no spare core left to remap onto");
                place = place.remap(d, spare);
                faults.add_degraded_cores(1);
                // A replacement range core needs its image block re-staged
                // from SDRAM; beam and correlator stages carry no state
                // across hypotheses.
                for (blk, rcs) in place.range.iter().enumerate() {
                    if rcs.contains(&spare) {
                        let dma = chip.dma_start(
                            spare,
                            DmaDirection::ExternalToLocal,
                            GlobalAddr::external(blk as u32 * 288),
                            BANK_CHILD_A,
                            288,
                        );
                        chip.dma_wait(spare, dma);
                    }
                }
            }
            faults.add_recovery_cycles(chip.elapsed().saturating_sub(t0).raw());
            faults.add_recovery_energy((chip.energy().total_j() - attempt_e0).max(0.0));
        }
    }

    let best = best_shift(&sweep);
    MappingRun {
        record: chip.report("Autofocus / Epiphany, 13 cores @ 1 GHz (MPMD pipeline)", 13),
        image: None,
        sweep: Some(sweep),
        best: Some(best),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness_impls::run_registered;
    use crate::mapping_named_placed;
    use faultsim::FaultState;
    use sim_harness::{EpiphanyPlatform, Workload};

    fn plain(w: &AutofocusWorkload, place: Placement) -> MappingRun {
        run(w, EpiphanyParams::default(), place, &RunContext::plain())
    }

    fn faulted(w: &AutofocusWorkload, faults: FaultState) -> MappingRun {
        let ctx = RunContext::plain().with_faults(faults);
        run(w, EpiphanyParams::default(), Placement::neighbor(), &ctx)
    }

    /// The registered pair with `place`, priced as Table I prices it.
    fn placed(w: &AutofocusWorkload, place: Placement) -> MappingRun {
        let m = mapping_named_placed("autofocus_mpmd", place).unwrap();
        let w = Workload::Autofocus(w.clone());
        sim_harness::run(m.as_ref(), &w, &EpiphanyPlatform::default()).unwrap()
    }

    #[test]
    fn pipeline_computes_the_same_criterion_as_sequential() {
        let w = Workload::Autofocus(AutofocusWorkload::small());
        let mpmd = run_registered("autofocus_mpmd", "epiphany", w.clone());
        let seq = run_registered("autofocus_seq", "epiphany", w);
        let (mpmd, seq) = (mpmd.sweep.unwrap(), seq.sweep.unwrap());
        assert_eq!(mpmd.len(), seq.len());
        for ((s1, v1), (s2, v2)) in mpmd.iter().zip(&seq) {
            assert_eq!(s1, s2);
            assert!(
                (v1 - v2).abs() <= 1e-3 * v2.abs().max(1.0),
                "criterion mismatch at shift {s1}: {v1} vs {v2}"
            );
        }
    }

    #[test]
    fn thirteen_cores_pipeline_much_faster_than_one() {
        let w = Workload::Autofocus(AutofocusWorkload::paper());
        let mpmd = run_registered("autofocus_mpmd", "epiphany", w.clone());
        let seq = run_registered("autofocus_seq", "epiphany", w);
        let speedup = seq.record.elapsed.seconds() / mpmd.record.elapsed.seconds();
        assert!(
            speedup > 4.0,
            "pipeline should give a large speedup, got {speedup:.2}x"
        );
        assert!(
            speedup < 13.0,
            "speedup {speedup:.2}x cannot exceed core count"
        );
    }

    #[test]
    fn neighbor_mapping_beats_scattered_mapping_on_noc_traffic() {
        // Throughput is compute-bound (posted writes hide mesh latency
        // behind the pipeline), so the custom placement shows up in the
        // fabric, not the makespan: scattered producers push every
        // message across more hops — more byte-hop energy, and at most
        // noise-level time difference.
        let w = AutofocusWorkload::paper();
        let near = placed(&w, Placement::neighbor());
        let far = placed(&w, Placement::scattered());
        assert!(
            far.record.energy.mesh_j > 1.2 * near.record.energy.mesh_j,
            "scattered placement should burn more mesh energy: {:.3e} vs {:.3e} J",
            far.record.energy.mesh_j,
            near.record.energy.mesh_j
        );
        assert!(
            far.record.elapsed.seconds() >= 0.99 * near.record.elapsed.seconds(),
            "scattered placement should not be faster: {} vs {} ms",
            far.record.millis(),
            near.record.millis()
        );
    }

    #[test]
    fn placements_use_thirteen_distinct_cores() {
        assert_eq!(Placement::neighbor().cores().len(), 13);
        assert_eq!(Placement::scattered().cores().len(), 13);
    }

    #[test]
    fn streaming_avoids_offchip_traffic() {
        let w = AutofocusWorkload::paper();
        let r = plain(&w, Placement::neighbor());
        // Off-chip: initial DMA + one criterion write per hypothesis.
        assert_eq!(r.record.counters.get("ext_read"), 0);
        assert_eq!(r.record.counters.get("ext_write"), w.hypotheses as u64);
        // On-chip streaming is heavy.
        assert!(r.record.counters.get("remote_write") > 100);
    }

    #[test]
    fn a_halted_pipeline_core_is_remapped_onto_a_spare() {
        use faultsim::{FaultEvent, FaultPlan};
        let w = AutofocusWorkload::small();
        let clean = plain(&w, Placement::neighbor());
        // Core 4 is a block-0 range core in the neighbor placement, so
        // the remap must also re-stage its image block.
        let plan = FaultPlan::from_events(
            3,
            vec![FaultEvent::CoreHalt {
                core: 4,
                at: Cycle(2_000),
            }],
        );
        let faults = FaultState::from_plan(&plan);
        let r = faulted(&w, faults.clone());
        assert_eq!(
            r.sweep, clean.sweep,
            "drain-and-restart must reproduce the fault-free sweep exactly"
        );
        assert_eq!(r.best, clean.best);
        let t = faults.totals();
        assert_eq!(t.degraded_cores, 1);
        assert_eq!(t.faults_injected, 1);
        assert!(t.recovery_cycles > 0, "the discarded attempt is paid for");
        assert_eq!(r.record.faults, t);
        assert!(r.record.elapsed.cycles.raw() > clean.record.elapsed.cycles.raw());
    }

    #[test]
    fn dropped_flags_are_retried_without_changing_the_sweep() {
        use faultsim::{FaultEvent, FaultPlan};
        let w = AutofocusWorkload::small();
        let clean = plain(&w, Placement::neighbor());
        let plan = FaultPlan::from_events(
            9,
            vec![
                FaultEvent::FlagDrop { at: Cycle(1_000) },
                FaultEvent::FlagDrop { at: Cycle(5_000) },
            ],
        );
        let faults = FaultState::from_plan(&plan);
        let r = faulted(&w, faults.clone());
        assert_eq!(r.sweep, clean.sweep);
        let t = faults.totals();
        assert_eq!(t.faults_injected, 2);
        assert!(
            t.retries >= 2,
            "each dropped flag costs at least one re-send"
        );
        assert!(t.recovery_cycles > 0);
        assert_eq!(t.degraded_cores, 0);
    }

    #[test]
    fn fault_recovery_is_deterministic() {
        use faultsim::{FaultEvent, FaultPlan};
        let w = AutofocusWorkload::small();
        let plan = FaultPlan::from_events(
            21,
            vec![
                FaultEvent::FlagDrop { at: Cycle(5_000) },
                FaultEvent::CoreHalt {
                    core: 9,
                    at: Cycle(40_000),
                },
            ],
        );
        let go = || faulted(&w, FaultState::from_plan(&plan));
        let (a, b) = (go(), go());
        assert_eq!(a.record.elapsed.cycles, b.record.elapsed.cycles);
        assert_eq!(a.record.faults, b.record.faults);
        assert_eq!(a.sweep, b.sweep);
    }

    #[test]
    fn remap_replaces_every_occurrence_and_keeps_thirteen_cores() {
        let p = Placement::neighbor().remap(4, 12);
        assert!(!p.cores().contains(&4));
        assert!(p.cores().contains(&12));
        assert_eq!(p.cores().len(), 13);
        assert_eq!(
            p.range[0][1], 12,
            "core 4 was the block-0 window-1 range core"
        );
    }

    #[test]
    fn recovers_the_injected_path_error() {
        let w = AutofocusWorkload::paper();
        let best = plain(&w, Placement::neighbor()).best.unwrap();
        assert!(
            (best.0 - w.true_shift).abs() <= 0.15,
            "found {} expected {}",
            best.0,
            w.true_shift
        );
    }
}
