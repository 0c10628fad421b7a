//! `explore`: the design-space job. A paper-scale, fault-free sweep
//! grid, its results document, the static cost bracket of every pair
//! and one greedy placement search. Bypasses `refcpu`/`memsim` and
//! JSON parsing.

use std::collections::BTreeMap;

use autotune::{Strategy, TuneConfig, Tuning};
use desim::Json;
use sar_core::rda::rda;
use sarlint::cost::{cost_pair, CostReport};
use sim_harness::{Diagnostic, Workload as Input};
use sweep::{CellCache, GridSpec, SweepOutcome};

use crate::arms::{self, Arm};
use crate::checks::Checks;
use crate::inputs;
use crate::metrics::{ratio, Metrics};
use crate::spans::SpanLog;
use crate::{autofocus_floor, ffbp_floor, per_pass, warm_up, Env, Pair, Workload};

/// The grid: SPMD and MPMD paths, RDA's FFT and corner turn, on the
/// 16-core chip and the 64-core one.
const PAIRS: [(&str, &str); 10] = [
    ("ffbp_spmd", "epiphany"),
    ("ffbp_spmd", "e64"),
    ("rda_seq", "epiphany"),
    ("rda_seq", "e64"),
    ("rda_spmd", "epiphany"),
    ("rda_spmd", "e64"),
    ("autofocus_mpmd", "epiphany"),
    ("autofocus_mpmd", "e64"),
    ("autofocus_net", "epiphany"),
    ("autofocus_net", "e64"),
];

/// Fault seeds per pair (fault-free: one simulated, the rest derived).
const GRID_SEEDS: u64 = 2;

/// What one pass measured besides time.
struct PassStats {
    /// Simulation seconds per pair, from the sweep's own cell timer.
    cell_secs: BTreeMap<String, f64>,
    cells: [usize; 4],
    doc_bytes: usize,
    mesh_transfers: u64,
    evals: usize,
}

/// Outputs of the pass just run.
struct PassOut {
    outcome: Result<SweepOutcome, Diagnostic>,
    document: String,
    costs: Vec<CostReport>,
    tuning: Result<Tuning, String>,
}

pub struct Explore {
    threads: usize,
    spec: GridSpec,
    ffbp: Input,
    rda: Input,
    autofocus: Input,
    pairs: Vec<Pair>,
    tune: TuneConfig,
    out: Option<PassOut>,
    first_document: Option<String>,
    first_tuning: Option<String>,
    stats: Vec<PassStats>,
    fft: Option<Arm>,
    mesh: Option<(Arm, Arm)>,
}

/// The grid spec for `seed`, as a user would write it.
fn grid_text(seed: u64) -> String {
    let pairs: Vec<String> = PAIRS
        .iter()
        .map(|(m, p)| format!("    {{\"mapping\": \"{m}\", \"platform\": \"{p}\"}}"))
        .collect();
    let seeds: Vec<String> = inputs::grid_seeds(seed, GRID_SEEDS)
        .iter()
        .map(u64::to_string)
        .collect();
    format!(
        "{{\n  \"version\": 1,\n  \"name\": \"explore\",\n  \"small\": false,\n  \"pairs\": [\n{}\n  ],\n  \"seeds\": [{}]\n}}\n",
        pairs.join(",\n"),
        seeds.join(", ")
    )
}

impl Explore {
    fn input(&self, kernel: &str) -> &Input {
        match kernel {
            "ffbp" => &self.ffbp,
            "rda" => &self.rda,
            _ => &self.autofocus,
        }
    }
}

impl Workload for Explore {
    fn setup(env: &Env, log: &SpanLog) -> Explore {
        let mut tune = TuneConfig::new("autofocus_mpmd:epiphany");
        tune.strategy = Strategy::Greedy;
        tune.seed = env.seed;
        let pairs: Vec<Pair> = PAIRS.iter().map(|&(m, p)| Pair::named(m, p)).collect();
        warm_up(log, &pairs, env.seed);
        Explore {
            threads: env.threads,
            spec: GridSpec::parse(&grid_text(env.seed)).expect("the explore grid is valid"),
            ffbp: Input::Ffbp(inputs::ffbp(env.seed, false)),
            rda: Input::Rda(inputs::rda(env.seed, false)),
            autofocus: Input::Autofocus(inputs::autofocus(env.seed, false)),
            pairs,
            tune,
            out: None,
            first_document: None,
            first_tuning: None,
            stats: Vec::new(),
            fft: None,
            mesh: None,
        }
    }

    fn prepare(&mut self, _log: &SpanLog) {}

    fn pass(&mut self, log: &SpanLog) {
        let outcome = log.span("sweep.run_grid", || {
            sweep::run_grid(&self.spec, self.threads, &CellCache::empty())
        });
        let document = match &outcome {
            Ok(o) => log.span("desim.json_emit", || o.document.to_string_pretty()),
            Err(_) => String::new(),
        };
        let costs = self
            .pairs
            .iter()
            .map(|pair| {
                let input = self.input(pair.mapping.kernel());
                log.span(format!("sarlint.cost/{}", pair.key), || {
                    cost_pair(pair.mapping.as_ref(), input, pair.platform.as_ref()).0
                })
            })
            .collect();
        let tuning = log.span("autotune.tune", || autotune::tune(&self.tune));
        self.out = Some(PassOut {
            outcome,
            document,
            costs,
            tuning,
        });
    }

    fn check(&mut self, checks: &mut Checks) {
        let out = self.out.take().expect("a pass ran");
        let mut stats = PassStats {
            cell_secs: BTreeMap::new(),
            cells: [0; 4],
            doc_bytes: out.document.len(),
            mesh_transfers: 0,
            evals: 0,
        };
        match &out.outcome {
            Err(d) => checks.check(false, || format!("explore grid: {d}")),
            Ok(outcome) => {
                match &self.first_document {
                    None => self.first_document = Some(out.document.clone()),
                    Some(first) => {
                        checks.same_bytes("explore document vs first pass", &out.document, first);
                    }
                }
                let cells = outcome
                    .document
                    .get("cells")
                    .and_then(Json::as_array)
                    .unwrap_or(&[]);
                for (i, (pair, cost)) in self.pairs.iter().zip(&out.costs).enumerate() {
                    let record = cells
                        .get(i * GRID_SEEDS as usize)
                        .and_then(|c| c.get("record"));
                    let cycles = record.and_then(|r| r.get("cycles")).and_then(Json::as_f64);
                    if let Some(transfers) = record
                        .and_then(|r| r.get("counters"))
                        .and_then(|c| c.get("mesh_transfers"))
                        .and_then(Json::as_u64)
                    {
                        stats.mesh_transfers += transfers;
                    }
                    match cycles {
                        None => {
                            checks.check(false, || format!("{}: no simulated cycles", pair.key))
                        }
                        Some(sim) if cost.bounded => checks.within(
                            &format!("{} sarlint bracket", pair.key),
                            cost.cycles.lo,
                            sim,
                            cost.cycles.hi,
                        ),
                        Some(_) => {}
                    }
                }
                for (label, secs) in &outcome.profile.cells {
                    // "<mapping> x <platform> seed <n>"
                    let pair = label.split(" seed ").next().unwrap_or(label);
                    *stats.cell_secs.entry(pair.replace(" x ", ".")).or_default() +=
                        secs.as_secs_f64();
                }
                stats.cells = [
                    outcome.cells_total,
                    outcome.cells_run,
                    outcome.cells_derived,
                    outcome.cells_cached,
                ];
            }
        }
        match &out.tuning {
            Err(e) => checks.check(false, || format!("autotune: {e}")),
            Ok(t) => {
                checks.check(t.best_score <= t.initial_score, || {
                    format!(
                        "autotune: best {} worse than start {}",
                        t.best_score, t.initial_score
                    )
                });
                let text = t.to_json().to_string_pretty();
                match &self.first_tuning {
                    None => self.first_tuning = Some(text),
                    Some(first) => checks.same_bytes("autotune report vs first pass", &text, first),
                }
                stats.evals = t.searches.iter().map(|s| s.evals).sum();
            }
        }
        self.stats.push(stats);
    }

    fn finish(&mut self, log: &SpanLog, _checks: &mut Checks) {
        if !log.is_on() {
            return;
        }
        ffbp_floor(log, &self.ffbp);
        let r = self.rda.rda().expect("rda input");
        log.span("core.rda", || rda(&r.raw, &r.geom, &r.config));
        autofocus_floor(log, &self.autofocus);
        self.fft = Some(log.span("core.fft_arm", || arms::fft_rda(r)));
        self.mesh = Some(log.span("emesh.write_onchip_arm", arms::emesh_e16_e64));
    }

    fn layers(&self, log: &SpanLog, passes: &[u32], m: &mut Metrics) {
        let stats = |p: u32| &self.stats[p as usize - 1];
        m.set("core.ffbp_s", log.total("core.ffbp", 0));
        m.set("core.rda_s", log.total("core.rda", 0));
        m.set("core.autofocus_s", log.total("core.autofocus", 0));
        for pair in &self.pairs {
            let secs = per_pass(passes, |p| {
                stats(p).cell_secs.get(&pair.key).copied().unwrap_or(0.0)
            });
            pair.report(log, m, secs);
        }
        let last = self.stats.last().expect("at least one pass");
        let [total, run, derived, cached] = last.cells;
        m.set(
            "sweep.cells_per_s",
            per_pass(passes, |p| {
                ratio(stats(p).cells[0] as f64, log.total("sweep.run_grid", p))
            }),
        );
        m.set("sweep.cells_simulated", run as f64);
        m.set("sweep.cells_derived", derived as f64);
        m.set("sweep.cells_cached", cached as f64);
        m.set("sweep.cache_hit_ratio", ratio(cached as f64, total as f64));
        m.set("desim.json_emit_mb", last.doc_bytes as f64 / 1e6);
        m.set(
            "desim.json_emit_mb_per_s",
            per_pass(passes, |p| {
                ratio(
                    stats(p).doc_bytes as f64 / 1e6,
                    log.total("desim.json_emit", p),
                )
            }),
        );
        m.set(
            "sarlint.cost_s",
            per_pass(passes, |p| log.total_prefixed("sarlint.cost/", p)),
        );
        m.set("sarlint.pairs", self.pairs.len() as f64);
        m.set("autotune.evals", last.evals as f64);
        m.set(
            "autotune.evals_per_s",
            per_pass(passes, |p| {
                ratio(stats(p).evals as f64, log.total("autotune.tune", p))
            }),
        );
        m.set("emesh.transfers", last.mesh_transfers as f64);
        if let Some(fft) = self.fft {
            m.set("core.fft_ns_per_point", fft.ns_per_op());
            m.set("core.fft_points", fft.ops as f64);
        }
        if let Some(mesh) = self.mesh {
            arms::report_mesh(m, mesh);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_grid_text_parses_with_every_pair() {
        let spec = GridSpec::parse(&grid_text(42)).expect("valid grid");
        assert_eq!(spec.pairs.len(), PAIRS.len());
        assert_eq!(spec.seeds, vec![42_000, 42_001]);
        assert!(!spec.small);
    }
}
