//! `table1`: the six Table I pairs at paper scale through
//! `sim_harness::run`, single-threaded and fault-free. The only
//! workload where `refcpu`/`memsim` do the work.

use std::path::PathBuf;

use desim::Json;
use sar_core::image::ComplexImage;
use sim_harness::{run, HarnessError, MappingRun, Workload as Input};

use crate::arms::{self, Arm};
use crate::checks::{golden_table1, Checks};
use crate::inputs::{self, PAPER_SEED};
use crate::metrics::{ratio, Metrics};
use crate::spans::SpanLog;
use crate::{autofocus_floor, ffbp_floor, report_pairs, share, warm_up, Env, Pair, Workload};

/// The Table I pairs, in the paper's row order.
const PAIRS: [(&str, &str); 6] = [
    ("ffbp_ref", "refcpu"),
    ("ffbp_seq", "epiphany"),
    ("ffbp_spmd", "epiphany"),
    ("autofocus_ref", "refcpu"),
    ("autofocus_seq", "epiphany"),
    ("autofocus_mpmd", "epiphany"),
];

/// Counts read from one pass's records.
struct PassCounts {
    dram_accesses: u64,
    mesh_transfers: u64,
}

pub struct Table1 {
    seed: u64,
    golden: PathBuf,
    ffbp: Input,
    autofocus: Input,
    pairs: Vec<Pair>,
    reference: Option<ComplexImage>,
    best: (f32, f32),
    outputs: Vec<Result<MappingRun, HarnessError>>,
    first_records: Vec<Option<String>>,
    counts: Vec<PassCounts>,
    memsim: Option<Arm>,
    mesh: Option<(Arm, Arm)>,
}

impl Workload for Table1 {
    fn setup(env: &Env, log: &SpanLog) -> Table1 {
        let pairs: Vec<Pair> = PAIRS.iter().map(|&(m, p)| Pair::named(m, p)).collect();
        warm_up(log, &pairs, env.seed);
        Table1 {
            seed: env.seed,
            golden: env.root.join("results/table1_baseline.json"),
            ffbp: Input::Ffbp(inputs::ffbp(env.seed, false)),
            autofocus: Input::Autofocus(inputs::autofocus(env.seed, false)),
            pairs,
            reference: None,
            best: (0.0, 0.0),
            outputs: Vec::new(),
            first_records: vec![None; PAIRS.len()],
            counts: Vec::new(),
            memsim: None,
            mesh: None,
        }
    }

    fn prepare(&mut self, log: &SpanLog) {
        self.reference = Some(ffbp_floor(log, &self.ffbp));
        self.best = autofocus_floor(log, &self.autofocus);
    }

    fn pass(&mut self, log: &SpanLog) {
        self.outputs = self
            .pairs
            .iter()
            .map(|pair| {
                let input = if pair.mapping.kernel() == "ffbp" {
                    &self.ffbp
                } else {
                    &self.autofocus
                };
                log.span(pair.span(), || {
                    run(pair.mapping.as_ref(), input, pair.platform.as_ref())
                })
            })
            .collect();
    }

    fn check(&mut self, checks: &mut Checks) {
        let reference = self.reference.as_ref().expect("prepared");
        let mut counts = PassCounts {
            dram_accesses: 0,
            mesh_transfers: 0,
        };
        // Taken, so one pass's images are freed before the next begins.
        let outputs = std::mem::take(&mut self.outputs);
        for (i, (pair, out)) in self.pairs.iter().zip(&outputs).enumerate() {
            let out = match out {
                Ok(out) => out,
                Err(e) => {
                    checks.check(false, || format!("{}: {e}", pair.key));
                    continue;
                }
            };
            if pair.mapping.kernel() == "ffbp" {
                checks.same_image(&pair.key, out.image.as_ref(), reference);
            } else {
                checks.same_best(&pair.key, out.best, self.best);
            }
            let text = out.record.to_json().to_string_pretty();
            match &self.first_records[i] {
                None => self.first_records[i] = Some(text),
                Some(first) => {
                    checks.same_bytes(&format!("{} record vs first pass", pair.key), &text, first)
                }
            }
            counts.dram_accesses += out.record.counters.get("dram_access");
            counts.mesh_transfers += out.record.counters.get("mesh_transfers");
        }
        self.counts.push(counts);
    }

    fn finish(&mut self, log: &SpanLog, checks: &mut Checks) {
        if self.seed == PAPER_SEED {
            let fresh = sar_epiphany::table1(
                &inputs::ffbp(PAPER_SEED, true),
                &inputs::autofocus(PAPER_SEED, true),
            );
            match std::fs::read_to_string(&self.golden)
                .map_err(|e| e.to_string())
                .and_then(|t| Json::parse(&t).map_err(|e| e.to_string()))
            {
                Ok(golden) => golden_table1(checks, &fresh, &golden),
                Err(e) => checks.check(false, || format!("golden {}: {e}", self.golden.display())),
            }
        }
        if log.is_on() {
            let w = self.ffbp.ffbp().expect("ffbp input");
            self.memsim = Some(log.span("memsim.access_arm", || arms::memsim_ffbp_ref(w)));
            self.mesh = Some(log.span("emesh.write_onchip_arm", arms::emesh_e16_e64));
        }
    }

    fn layers(&self, log: &SpanLog, passes: &[u32], m: &mut Metrics) {
        let floor_ffbp = log.total("core.ffbp", 0);
        m.set("core.ffbp_s", floor_ffbp);
        m.set("core.autofocus_s", log.total("core.autofocus", 0));
        let pair_s = report_pairs(log, &self.pairs, passes, m);
        let refcpu_self = pair_s[0] - floor_ffbp;
        m.set("refcpu.self_s", refcpu_self);
        let ffbp_ref = self.pairs[0].span();
        m.set(
            "share.refcpu_self",
            share(log, passes, |p| log.total(&ffbp_ref, p) - floor_ffbp),
        );
        m.set("epiphany.spmd_over_seq", ratio(pair_s[2], pair_s[1]));
        let last = self.counts.last().expect("at least one pass");
        m.set("memsim.dram_accesses", last.dram_accesses as f64);
        m.set("emesh.transfers", last.mesh_transfers as f64);
        if let Some(arm) = self.memsim {
            m.set("memsim.ns_per_access", arm.ns_per_op());
            m.set("memsim.accesses", arm.ops as f64);
        }
        if let Some(mesh) = self.mesh {
            arms::report_mesh(m, mesh);
        }
    }
}
