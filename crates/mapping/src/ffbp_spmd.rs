//! FFBP on 16 Epiphany cores, SPMD (Table I row 3).
//!
//! The paper's mapping: the *output* image of every merge is divided
//! into independent slices (here: output beams, dealt round-robin so
//! the load balances); each core DMA-prefetches the contributing
//! subaperture data its slice maps to — one child beam per upper local
//! bank, the "two pulses, 16,016 bytes" of the paper — and computes
//! the slice from local memory. During the first merge iteration the
//! prefetched data covers everything; in later iterations the child
//! observation angles spread across range, so a growing fraction of
//! contributing elements misses the prefetched window and falls back
//! to blocking external reads, all sixteen cores contending for the
//! one eLink. Results are posted back to SDRAM with non-stalling
//! writes. This is exactly the behaviour the paper describes — and the
//! reason the 16-core speedup saturates at ~12x over one core.

use desim::{Cycle, OpCounts};
use epiphany::dma::DmaDirection;
use epiphany::{Chip, EpiphanyParams};
use sar_core::ffbp::grid::Subaperture;
use sar_core::ffbp::interp::nearest_indices;
use sar_core::ffbp::merge::combine_sample_with_lookup;
use sar_core::ffbp::pipeline::stage0;
use sar_core::geometry::merge_geometry;
use sim_harness::{MappingRun, RunContext};

use crate::layout::{ExternalLayout, BANK_CHILD_A, BANK_CHILD_B};
use crate::workloads::FfbpWorkload;

/// Knobs for the ablation benches.
#[derive(Debug, Clone, Copy)]
pub struct SpmdOptions {
    /// Cores to use. `None` (the default) means every core the
    /// platform's mesh provides — 16 on the E16G3, 64 on the E64.
    /// `Some(n)` pins the count for ablations; when `n` is smaller
    /// than the chip, the work runs on a compact
    /// [`Chip::subgrid_cores`] subgrid so hop counts match a dedicated
    /// `n`-core chip.
    pub cores: Option<usize>,
    /// DMA-prefetch the mapped child beams (ablation: off = every
    /// contributing element is a blocking external read).
    pub prefetch: bool,
}

impl Default for SpmdOptions {
    fn default() -> Self {
        SpmdOptions {
            cores: None,
            prefetch: true,
        }
    }
}

/// Execute the FFBP workload on the Epiphany model with `opts`: one
/// phase per merge iteration (carrying that iteration's time, energy,
/// eLink utilisation and hit/miss split), the formed image, and the
/// run-level `local_hits` / `external_misses` metrics (contributing
/// reads served from the prefetched banks vs from external memory).
/// The chip emits its spans into `ctx.tracer`.
///
/// Under `ctx.faults` the recovery story is checkpoint/restart at
/// merge-iteration granularity: every iteration's inputs live in SDRAM
/// (the previous stage's output), so a core that halts mid-iteration
/// is detected at the end-of-merge health check, dropped from the
/// active set, and the whole iteration is redone on the survivors —
/// the paper's 16-core mapping degrades to a 15-core one instead of
/// hanging. The redone work is accounted as recovery cycles/energy in
/// the fault record; the formed image is bit-identical to the
/// fault-free run because the restart recomputes the same output
/// slice values.
pub fn run(
    w: &FfbpWorkload,
    params: EpiphanyParams,
    opts: SpmdOptions,
    ctx: &RunContext,
) -> MappingRun {
    let faults = &ctx.faults;
    let geom = &w.geom;
    let n_cores = opts.cores.unwrap_or_else(|| params.cores());
    // The platform's declared mesh, unless the ablation asks for more
    // cores than it has — then the minimal covering mesh.
    let mut chip = if n_cores <= params.cores() {
        Chip::from_params(params)
    } else {
        Chip::with_cores(params, n_cores)
    };
    chip.set_tracer(ctx.tracer.clone());
    chip.set_faults(faults.clone());
    assert!(
        n_cores <= chip.cores(),
        "requested more cores than the chip has"
    );
    // Cores still participating; halted cores drop out at the
    // end-of-iteration health check. A partial set occupies a compact
    // subgrid so its communication pattern matches a dedicated chip.
    let mut active: Vec<usize> = chip.subgrid_cores(n_cores);

    let layout = ExternalLayout::new(geom.num_pulses as u32, geom.num_bins as u32);
    let mut counts = OpCounts::default();
    let mut charged = OpCounts::default();
    let mut local_hits = 0u64;
    let mut external_misses = 0u64;
    let r_mid = geom.bin_range(geom.num_bins / 2);

    let mut stage: Vec<Subaperture> = stage0(&w.data, geom);
    let mut stage_idx = 0u32;

    while stage.len() > 1 {
        // One checkpointed attempt per pass: if a core halts during
        // the iteration, drop it from the active set and redo the
        // whole iteration — the inputs (previous stage) are still in
        // SDRAM, and the output region is simply rewritten.
        let next = loop {
            let attempt_t0 = chip.elapsed();
            let attempt_e0 = if faults.is_enabled() {
                chip.energy().total_j()
            } else {
                0.0
            };
            chip.phase_begin("merge");
            let (hits0, misses0) = (local_hits, external_misses);
            let child_beams = stage[0].grid.n_beams as u32;
            let out_grid = stage[0].grid.refined();
            let mut next: Vec<Subaperture> = stage
                .chunks(2)
                .map(|p| {
                    Subaperture::zeros(
                        (p[0].center_y + p[1].center_y) / 2.0,
                        p[0].length + p[1].length,
                        out_grid,
                        geom.num_bins,
                    )
                })
                .collect();

            // Work units: one output beam each, dealt round-robin
            // over the surviving cores. Indexed by chip core id —
            // subgrid ids are sparse, so size for the whole chip.
            let mut last_write: Vec<Cycle> = vec![Cycle::ZERO; chip.cores()];
            let mut task = 0usize;
            // Blocking miss fetches issue back to back with no other
            // chip calls between them (the interleaved merge
            // arithmetic is host-side) — buffered per row so the chip
            // can absorb each span in closed form.
            let mut row_misses = Vec::new();
            for (pair_idx, pair) in stage.chunks(2).enumerate() {
                let (a, b) = (&pair[0], &pair[1]);
                let l = b.center_y - a.center_y;
                let beam_base_a = 2 * pair_idx as u32 * child_beams;
                let beam_base_b = beam_base_a + child_beams;
                let out_beam_base = pair_idx as u32 * out_grid.n_beams as u32;

                for j in 0..out_grid.n_beams {
                    let core = active[task % active.len()];
                    task += 1;
                    let theta = out_grid.beam_theta(j);
                    row_misses.clear();

                    // Which child beams does this output beam map to at mid
                    // range? Prefetch those two (one per upper bank).
                    let mut pf_counts = OpCounts::default();
                    let mid = merge_geometry(r_mid, theta, l, &mut pf_counts);
                    let pf_a = nearest_indices(a, geom, mid.r1, mid.theta1).map(|(_, beam)| beam);
                    let pf_b = nearest_indices(b, geom, mid.r2, mid.theta2).map(|(_, beam)| beam);
                    if opts.prefetch {
                        chip.compute(core, &pf_counts);
                        let mut done = Cycle::ZERO;
                        if let Some(beam) = pf_a {
                            let addr = layout.addr(stage_idx, beam_base_a + beam as u32, 0);
                            done = done.max(chip.dma_start(
                                core,
                                DmaDirection::ExternalToLocal,
                                addr,
                                BANK_CHILD_A,
                                layout.beam_bytes(),
                            ));
                        }
                        if let Some(beam) = pf_b {
                            let addr = layout.addr(stage_idx, beam_base_b + beam as u32, 0);
                            done = done.max(chip.dma_start(
                                core,
                                DmaDirection::ExternalToLocal,
                                addr,
                                BANK_CHILD_B,
                                layout.beam_bytes(),
                            ));
                        }
                        chip.dma_wait(core, done);
                    }

                    for i in 0..geom.num_bins {
                        let r = geom.bin_range(i);
                        let (v, look) = combine_sample_with_lookup(
                            a,
                            b,
                            geom,
                            r,
                            theta,
                            l,
                            w.config.interp,
                            w.config.phase_correct,
                            &mut counts,
                        );
                        // Classify each contributing element: prefetched
                        // bank (local load, already in the op counts) or
                        // blocking external read.
                        for (child, base, pf) in [
                            (
                                nearest_indices(a, geom, look.r1, look.theta1),
                                beam_base_a,
                                pf_a,
                            ),
                            (
                                nearest_indices(b, geom, look.r2, look.theta2),
                                beam_base_b,
                                pf_b,
                            ),
                        ] {
                            if let Some((bin, beam)) = child {
                                if opts.prefetch && pf == Some(beam) {
                                    local_hits += 1;
                                } else {
                                    external_misses += 1;
                                    row_misses.push(layout.addr(
                                        stage_idx,
                                        base + beam as u32,
                                        bin as u32,
                                    ));
                                }
                            }
                        }
                        *next[pair_idx].data.at_mut(j, i) = v;
                    }
                    chip.read_external_run(core, &row_misses, 8);
                    let delta = counts.since(&charged);
                    charged = counts;
                    chip.compute(core, &delta);
                    let row_addr = layout.addr(stage_idx + 1, out_beam_base + j as u32, 0);
                    let arrival = chip.write_external(core, row_addr, layout.beam_bytes());
                    last_write[core] = last_write[core].max(arrival);
                }
            }

            // End of iteration: drain posted writes (the next stage
            // reads this one's output), then barrier.
            for &core in &active {
                chip.wait_flag(core, last_write[core]);
            }
            chip.barrier(&active);
            chip.phase_metric("local_hits", (local_hits - hits0) as f64);
            chip.phase_metric("external_misses", (external_misses - misses0) as f64);

            // Health check at the checkpoint: cores that halted during
            // this iteration may have dropped their output slices, so
            // the iteration cannot be trusted and is redone without
            // them.
            let dead: Vec<usize> = faults
                .newly_halted(chip.elapsed())
                .into_iter()
                .map(|c| c as usize)
                .filter(|c| active.contains(c))
                .collect();
            if dead.is_empty() {
                chip.phase_end();
                break next;
            }
            chip.phase_metric("halted_cores", dead.len() as f64);
            chip.phase_end();
            active.retain(|c| !dead.contains(c));
            assert!(
                !active.is_empty(),
                "every core halted; the SPMD mapping cannot recover"
            );
            faults.add_degraded_cores(dead.len() as u64);
            faults.add_recovery_cycles(chip.elapsed().saturating_sub(attempt_t0).raw());
            faults.add_recovery_energy((chip.energy().total_j() - attempt_e0).max(0.0));
        };
        stage = next;
        stage_idx += 1;
    }

    let full = stage.into_iter().next().expect("non-empty stage");
    let mut record = chip.report(
        &format!("FFBP / Epiphany, {n_cores} cores @ 1 GHz (SPMD)"),
        n_cores,
    );
    record.set_metric("local_hits", local_hits as f64);
    record.set_metric("external_misses", external_misses as f64);
    MappingRun {
        record,
        image: Some(full.data),
        sweep: None,
        best: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ffbp_seq;
    use faultsim::FaultState;
    use sar_core::ffbp::ffbp;

    fn plain(w: &FfbpWorkload, params: EpiphanyParams, opts: SpmdOptions) -> MappingRun {
        run(w, params, opts, &RunContext::plain())
    }

    fn metric(r: &MappingRun, key: &str) -> f64 {
        r.record
            .metric(key)
            .expect("the driver sets its read split")
    }

    #[test]
    fn image_matches_the_plain_algorithm() {
        let w = FfbpWorkload::small();
        let machine = plain(&w, EpiphanyParams::default(), SpmdOptions::default());
        let reference = ffbp(&w.data, &w.geom, &w.config);
        assert_eq!(
            machine.image.unwrap().as_slice(),
            reference.image.as_slice()
        );
    }

    #[test]
    fn parallel_beats_sequential_substantially() {
        // Note the comparison is against the *naive* sequential port
        // (per-element blocking SDRAM reads, as in the paper), so the
        // ratio can exceed the core count when prefetch removes those
        // stalls entirely — on the small workload every access is
        // covered. The paper-scale run lands at ~12x (Table I: 11.7x)
        // because later iterations spill to external memory.
        let w = FfbpWorkload::small();
        let par = plain(&w, EpiphanyParams::default(), SpmdOptions::default());
        let seq = ffbp_seq::run(&w, EpiphanyParams::default(), &RunContext::plain());
        let speedup = seq.record.elapsed.seconds() / par.record.elapsed.seconds();
        assert!(
            speedup > 4.0,
            "16-core SPMD should be far faster than 1 core, got {speedup:.2}x"
        );
        // Sanity ceiling: cores x worst-case blocking-read amplification.
        assert!(speedup < 100.0, "speedup {speedup:.2}x is absurd");
    }

    #[test]
    fn first_iteration_is_fully_local() {
        // Run a single-merge workload: 2 pulses -> 1 merge. All
        // contributing data is covered by the prefetched beams.
        let mut w = FfbpWorkload::small();
        let geom = sar_core::geometry::SarGeometry {
            num_pulses: 2,
            ..w.geom
        };
        let scene = sar_core::scene::Scene::single_target(geom);
        w.geom = geom;
        w.data = sar_core::scene::simulate_compressed_data(&scene, 0.0, 1);
        let r = plain(&w, EpiphanyParams::default(), SpmdOptions::default());
        assert_eq!(
            metric(&r, "external_misses"),
            0.0,
            "single-pulse children have one beam: prefetch must cover everything"
        );
        assert!(metric(&r, "local_hits") > 0.0);
    }

    #[test]
    fn later_iterations_miss_the_prefetched_window() {
        // Spill outside the prefetched beams needs a deep aperture at
        // close range: the child observation angle then sweeps across
        // many child beams over the swath. (The small test geometry is
        // shallow enough that prefetch covers everything — precisely
        // the "first iterations are local" half of the paper's story.)
        let geom = sar_core::geometry::SarGeometry {
            num_pulses: 256,
            r0: 300.0,
            ..sar_core::geometry::SarGeometry::test_size()
        };
        let scene = sar_core::scene::Scene::single_target(geom);
        let w = FfbpWorkload {
            geom,
            data: sar_core::scene::simulate_compressed_data(&scene, 0.0, 3),
            config: Default::default(),
        };
        let r = plain(&w, EpiphanyParams::default(), SpmdOptions::default());
        let (hits, misses) = (metric(&r, "local_hits"), metric(&r, "external_misses"));
        assert!(
            misses > 0.0,
            "deep merges must spill outside the two prefetched beams"
        );
        // But prefetch still covers the majority overall.
        let total = hits + misses;
        assert!(
            hits * 2.0 > total,
            "prefetch should cover most accesses: {hits} of {total}"
        );
    }

    #[test]
    fn disabling_prefetch_hurts() {
        let w = FfbpWorkload::small();
        let with = plain(&w, EpiphanyParams::default(), SpmdOptions::default());
        let without = plain(
            &w,
            EpiphanyParams::default(),
            SpmdOptions {
                prefetch: false,
                ..SpmdOptions::default()
            },
        );
        assert!(without.record.elapsed.seconds() > with.record.elapsed.seconds());
        assert_eq!(metric(&without, "local_hits"), 0.0);
    }

    #[test]
    fn core_halt_degrades_to_fifteen_cores_with_an_identical_image() {
        use faultsim::{FaultEvent, FaultPlan};
        let w = FfbpWorkload::small();
        let clean = plain(&w, EpiphanyParams::default(), SpmdOptions::default());
        let plan = FaultPlan::from_events(
            11,
            vec![FaultEvent::CoreHalt {
                core: 5,
                at: Cycle(1_000),
            }],
        );
        let faults = FaultState::from_plan(&plan);
        let r = run(
            &w,
            EpiphanyParams::default(),
            SpmdOptions::default(),
            &RunContext::plain().with_faults(faults.clone()),
        );
        assert_eq!(
            r.image.as_ref().unwrap().as_slice(),
            clean.image.as_ref().unwrap().as_slice(),
            "checkpoint/restart must reproduce the fault-free image bit-for-bit"
        );
        let totals = faults.totals();
        assert_eq!(totals.degraded_cores, 1);
        assert_eq!(totals.faults_injected, 1);
        assert!(
            totals.recovery_cycles > 0,
            "the redone iteration is paid for"
        );
        assert!(totals.recovery_energy_j > 0.0);
        assert_eq!(r.record.faults, totals, "report() stamps the fault totals");
        assert!(
            r.record.elapsed.cycles.raw() > clean.record.elapsed.cycles.raw(),
            "recovery cannot be free"
        );
    }

    #[test]
    fn core_halt_recovery_is_deterministic() {
        use faultsim::{FaultEvent, FaultPlan};
        let w = FfbpWorkload::small();
        let plan = FaultPlan::from_events(
            7,
            vec![FaultEvent::CoreHalt {
                core: 3,
                at: Cycle(5_000),
            }],
        );
        let go = || {
            run(
                &w,
                EpiphanyParams::default(),
                SpmdOptions::default(),
                &RunContext::plain().with_faults(FaultState::from_plan(&plan)),
            )
        };
        let (a, b) = (go(), go());
        assert_eq!(a.record.elapsed.cycles, b.record.elapsed.cycles);
        assert_eq!(a.record.faults, b.record.faults);
        assert_eq!(a.image.unwrap().as_slice(), b.image.unwrap().as_slice());
    }

    #[test]
    fn e64_forms_the_same_image_and_runs_no_slower() {
        let w = FfbpWorkload::small();
        let e16 = plain(&w, EpiphanyParams::default(), SpmdOptions::default());
        let e64 = plain(&w, EpiphanyParams::e64(), SpmdOptions::default());
        assert!(
            e64.record.label.contains("64 cores"),
            "{}",
            e64.record.label
        );
        assert_eq!(
            e64.image.unwrap().as_slice(),
            e16.image.unwrap().as_slice(),
            "the formed image is independent of the mesh"
        );
        assert!(e64.record.elapsed.seconds() <= e16.record.elapsed.seconds());
    }

    #[test]
    fn a_16_core_subgrid_of_the_e64_matches_the_e16_image() {
        // The scale-out acceptance check at driver level: pinning the
        // paper's 16-core slice assignment onto the E64's 4x4 corner
        // subgrid reproduces the E16G3 image bit for bit.
        let w = FfbpWorkload::small();
        let e16 = plain(&w, EpiphanyParams::default(), SpmdOptions::default());
        let sub = plain(
            &w,
            EpiphanyParams::e64(),
            SpmdOptions {
                cores: Some(16),
                ..SpmdOptions::default()
            },
        );
        assert!(sub.record.label.contains("16 cores"));
        assert_eq!(sub.image.unwrap().as_slice(), e16.image.unwrap().as_slice());
    }

    #[test]
    fn fewer_cores_run_longer() {
        let w = FfbpWorkload::small();
        let four = plain(
            &w,
            EpiphanyParams::default(),
            SpmdOptions {
                cores: Some(4),
                ..SpmdOptions::default()
            },
        );
        let sixteen = plain(&w, EpiphanyParams::default(), SpmdOptions::default());
        assert!(four.record.elapsed.seconds() > sixteen.record.elapsed.seconds());
    }
}
