//! The autofocus pipeline expressed as a `streams` process network —
//! the paper's occam-pi "raise the abstraction level" direction made
//! concrete. Compare with [`crate::autofocus_mpmd`]: that driver
//! hand-manages every flag wait and remote write (the paper's
//! "increases the burden on the programmer"); this one declares
//! thirteen actors and their channels and lets the network do the
//! synchronisation. Both compute identical criteria on the same
//! machine model.

use std::cell::RefCell;
use std::rc::Rc;

use desim::OpCounts;
use epiphany::dma::DmaDirection;
use epiphany::{Chip, EpiphanyParams};
use memsim::GlobalAddr;
use sar_core::autofocus::criterion::{
    beam_stage, correlate_partial, range_stage, AutofocusConfig, BeamStageOut, RangeStageOut,
};
use sar_core::autofocus::{best_shift, Block6};
use sim_harness::{MappingRun, RunContext};
use streams::{Actor, FireCtx, Network};

use crate::autofocus_mpmd::Placement;
use crate::layout::BANK_CHILD_A;
use crate::workloads::AutofocusWorkload;

/// Tokens flowing through the pipeline.
pub enum AfToken {
    /// Work order for a range actor: resample its block at `shift`
    /// for sweep iteration `iteration`.
    Cmd {
        /// Per-block resampling shift (already halved and signed).
        shift: f32,
        /// Criterion iteration, 0..3.
        iteration: usize,
    },
    /// A range actor's window output.
    Range {
        /// Interpolated rows.
        out: Box<RangeStageOut>,
        /// Propagated shift.
        shift: f32,
        /// Propagated iteration.
        iteration: usize,
    },
    /// A beam actor's window output.
    Beam {
        /// Interpolated windows.
        out: Box<BeamStageOut>,
        /// The hypothesis shift (for result bookkeeping; the trailing
        /// block's sign is normalised back by the correlator's caller).
        shift: f32,
    },
}

struct RangeActor {
    block: Block6,
    window: usize,
    cfg: AutofocusConfig,
}

impl Actor<AfToken> for RangeActor {
    fn fire(&mut self, mut inputs: Vec<AfToken>, ctx: &mut FireCtx<'_, AfToken>) {
        let AfToken::Cmd { shift, iteration } = inputs.remove(0) else {
            panic!("range actor expects Cmd tokens");
        };
        let mut counts = OpCounts::default();
        let out = range_stage(
            &self.block,
            self.window,
            shift,
            iteration,
            &self.cfg,
            &mut counts,
        );
        ctx.charge(&counts);
        let bytes = 6 * self.cfg.samples_per_iteration() as u64 * 8;
        for port in 0..3 {
            ctx.send(
                port,
                AfToken::Range {
                    out: Box::new(out.clone()),
                    shift,
                    iteration,
                },
                bytes,
            );
        }
    }
}

struct BeamActor {
    window: usize,
    cfg: AutofocusConfig,
}

impl Actor<AfToken> for BeamActor {
    fn fire(&mut self, inputs: Vec<AfToken>, ctx: &mut FireCtx<'_, AfToken>) {
        let mut range_out: [Option<RangeStageOut>; 3] = Default::default();
        let mut shift = 0.0f32;
        let mut iteration = 0usize;
        for (slot, tok) in inputs.into_iter().enumerate() {
            let AfToken::Range {
                out,
                shift: s,
                iteration: it,
            } = tok
            else {
                panic!("beam actor expects Range tokens");
            };
            range_out[slot] = Some(*out);
            shift = s;
            iteration = it;
        }
        let range_out = range_out.map(|o| o.expect("three range inputs"));
        let mut counts = OpCounts::default();
        let out = beam_stage(
            &range_out,
            self.window,
            shift,
            iteration,
            &self.cfg,
            &mut counts,
        );
        ctx.charge(&counts);
        let bytes = 3 * self.cfg.samples_per_iteration() as u64 * 8;
        ctx.send(
            0,
            AfToken::Beam {
                out: Box::new(out),
                shift,
            },
            bytes,
        );
    }
}

struct CorrActor {
    /// `(hypothesis shift of the leading block, accumulated criterion)`
    /// per hypothesis, three iterations accumulated in place.
    results: Rc<RefCell<Vec<(f32, f32)>>>,
}

impl Actor<AfToken> for CorrActor {
    fn fire(&mut self, inputs: Vec<AfToken>, _ctx: &mut FireCtx<'_, AfToken>) {
        assert_eq!(inputs.len(), 6, "correlator joins six beam streams");
        let mut minus: [Option<BeamStageOut>; 3] = Default::default();
        let mut plus: [Option<BeamStageOut>; 3] = Default::default();
        let mut hyp_shift = 0.0f32;
        for (slot, tok) in inputs.into_iter().enumerate() {
            let AfToken::Beam { out, shift } = tok else {
                panic!("correlator expects Beam tokens");
            };
            if slot < 3 {
                minus[slot] = Some(*out);
            } else {
                plus[slot - 3] = Some(*out);
                hyp_shift = 2.0 * shift; // leading block carries +shift/2
            }
        }
        let minus = minus.map(|o| o.expect("three minus inputs"));
        let plus = plus.map(|o| o.expect("three plus inputs"));
        let mut counts = OpCounts::default();
        let partial = correlate_partial(&minus, &plus, &mut counts);
        _ctx.charge(&counts);
        let mut results = self.results.borrow_mut();
        match results.last_mut() {
            Some((s, acc)) if *s == hyp_shift => *acc += partial,
            _ => results.push((hyp_shift, partial)),
        }
    }
}

/// Run the workload on the declarative pipeline with `place`: one
/// phase per hypothesis (with the channels' high-water queue depth as
/// a per-phase metric), the run-level `firings` metric (total actor
/// firings), the `(shift, criterion)` sweep and the winning
/// compensation. `params` is used as given — the kernel's pairing
/// specialisation is the registry's job. The chip emits its spans into
/// `ctx.tracer`; the network has no recovery story, so `ctx.faults` is
/// ignored.
pub fn run(
    w: &AutofocusWorkload,
    params: EpiphanyParams,
    place: Placement,
    ctx: &RunContext,
) -> MappingRun {
    let mut chip = Chip::from_params(params);
    chip.set_tracer(ctx.tracer.clone());
    // Placements use canonical E16G3 (4-column) ids; renumber onto
    // the chip's actual mesh, preserving coordinates and hop counts.
    let place = place.rebased(chip.mesh_dims().0, chip.mesh_dims().1);
    let mut net: Network<AfToken> = Network::new(chip);
    let results = Rc::new(RefCell::new(Vec::new()));

    // Initial block loads, as in the hand-written mapping.
    for (blk, cores) in place.range.iter().enumerate() {
        for &rc in cores {
            let d = net.chip_mut().dma_start(
                rc,
                DmaDirection::ExternalToLocal,
                GlobalAddr::external(blk as u32 * 288),
                BANK_CHILD_A,
                288,
            );
            net.chip_mut().dma_wait(rc, d);
        }
    }

    // Thirteen actors.
    let corr = net.add_actor(
        "corr",
        place.corr,
        Box::new(CorrActor {
            results: results.clone(),
        }),
    );
    let mut range_ids = [[None; 3], [None; 3]];
    let mut beam_ids = [[None; 3], [None; 3]];
    // Index-style loops below mirror the placement tables; the indices
    // *are* the dataflow coordinates (block, window), so keep them.
    #[allow(clippy::needless_range_loop)]
    for blk in 0..2 {
        let block = if blk == 0 { w.f_minus } else { w.f_plus };
        for win in 0..3 {
            range_ids[blk][win] = Some(net.add_actor(
                &format!("range{blk}{win}"),
                place.range[blk][win],
                Box::new(RangeActor {
                    block,
                    window: win,
                    cfg: w.config,
                }),
            ));
        }
        for win in 0..3 {
            beam_ids[blk][win] = Some(net.add_actor(
                &format!("beam{blk}{win}"),
                place.beam[blk][win],
                Box::new(BeamActor {
                    window: win,
                    cfg: w.config,
                }),
            ));
        }
    }
    // Channels: each range actor feeds all three beam actors of its
    // block (the beam actor's input port = the range window index)...
    #[allow(clippy::needless_range_loop)]
    for blk in 0..2 {
        for win in 0..3 {
            for b in 0..3 {
                net.connect(range_ids[blk][win].unwrap(), beam_ids[blk][b].unwrap());
            }
        }
    }
    // Wait: port order on the beam actor must be range windows 0,1,2 —
    // connections above iterate (win, b), giving beam b inputs in
    // window order 0,1,2 as required. The correlator's six ports are
    // block 0 beams 0-2 then block 1 beams 0-2:
    #[allow(clippy::needless_range_loop)]
    for blk in 0..2 {
        for b in 0..3 {
            net.connect(beam_ids[blk][b].unwrap(), corr);
        }
    }

    // Drive the sweep one hypothesis at a time: feed that hypothesis'
    // command tokens, let the network drain, write the criterion back —
    // one observable phase per hypothesis.
    let mut firings = 0u64;
    for h in 0..w.hypotheses {
        net.chip_mut().phase_begin("hypothesis");
        let shift = -w.max_shift + 2.0 * w.max_shift * h as f32 / (w.hypotheses - 1) as f32;
        for it in 0..3 {
            for (blk, sign) in [(0usize, -0.5f32), (1, 0.5)] {
                #[allow(clippy::needless_range_loop)]
                for win in 0..3 {
                    net.feed(
                        range_ids[blk][win].unwrap(),
                        AfToken::Cmd {
                            shift: sign * shift,
                            iteration: it,
                        },
                        16,
                    );
                }
            }
        }
        firings += net.run();
        net.chip_mut()
            .write_external(place.corr, GlobalAddr::external(0x10000 + 8 * h as u32), 8);
        let peak = net.take_queue_peak();
        net.chip_mut().phase_metric("queue_peak", peak as f64);
        net.chip_mut().phase_end();
    }

    let mut record = net
        .chip()
        .report("Autofocus / Epiphany, 13 cores (streams network)", 13);
    record.set_metric("firings", firings as f64);
    let sweep = results.borrow().clone();
    let best = best_shift(&sweep);
    MappingRun {
        record,
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
    fn network_matches_the_hand_written_mapping_numerically() {
        let w = Workload::Autofocus(AutofocusWorkload::small());
        let net = run_registered("autofocus_net", "epiphany", w.clone());
        let hand = run_registered("autofocus_mpmd", "epiphany", w);
        let (net_sweep, hand_sweep) = (net.sweep.unwrap(), hand.sweep.unwrap());
        assert_eq!(net_sweep.len(), hand_sweep.len());
        for ((s1, v1), (s2, v2)) in net_sweep.iter().zip(&hand_sweep) {
            assert!((s1 - s2).abs() < 1e-6, "shift grid mismatch: {s1} vs {s2}");
            assert!(
                (v1 - v2).abs() <= 1e-3 * v2.abs().max(1.0),
                "criterion mismatch at {s1}: {v1} vs {v2}"
            );
        }
        assert_eq!(net.best.unwrap().0, hand.best.unwrap().0);
    }

    #[test]
    fn network_timing_is_close_to_the_hand_written_mapping() {
        // The declarative version pays nothing material for its
        // abstraction: same compute, same placement, same message
        // sizes; scheduling differences stay within a small band.
        let w = Workload::Autofocus(AutofocusWorkload::paper());
        let net = run_registered("autofocus_net", "epiphany", w.clone());
        let hand = run_registered("autofocus_mpmd", "epiphany", w);
        let ratio = net.record.elapsed.seconds() / hand.record.elapsed.seconds();
        assert!(
            (0.7..1.4).contains(&ratio),
            "streams/hand-written time ratio {ratio:.2} out of band ({} vs {} ms)",
            net.record.millis(),
            hand.record.millis()
        );
    }

    #[test]
    fn firing_count_matches_the_dataflow() {
        let w = AutofocusWorkload::small();
        let net = run(
            &w,
            EpiphanyParams::default(),
            Placement::neighbor(),
            &RunContext::plain(),
        );
        // Per (hypothesis, iteration): 6 range + 6 beam + 1 corr = 13.
        let rounds = w.hypotheses as u64 * 3;
        assert_eq!(net.record.metric("firings"), Some((13 * rounds) as f64));
    }

    #[test]
    fn recovers_the_injected_error() {
        let w = AutofocusWorkload::paper();
        let net = run(
            &w,
            EpiphanyParams::default(),
            Placement::neighbor(),
            &RunContext::plain(),
        );
        let best = net.best.unwrap();
        assert!(
            (best.0 - w.true_shift).abs() <= 0.15,
            "found {} expected {}",
            best.0,
            w.true_shift
        );
    }
}
