//! `trace-io`: small-scale simulations with tracing on, so the pass is
//! almost all JSON and trace I/O — Chrome trace export and parse, a
//! sweep document written, reloaded as a cache and resumed.

use std::path::PathBuf;

use desim::trace::Tracer;
use desim::Json;
use sar_core::image::ComplexImage;
use sim_harness::{run_traced, Diagnostic, HarnessError, MappingRun, Workload as Input};
use sweep::{CellCache, GridSpec, SweepOutcome};

use crate::checks::Checks;
use crate::inputs;
use crate::metrics::{ratio, Metrics};
use crate::spans::SpanLog;
use crate::{
    autofocus_floor, ffbp_floor, per_pass, report_pairs, share, warm_up, Env, Pair, Workload,
};

/// The traced pairs.
const TRACED: [(&str, &str); 2] = [("ffbp_spmd", "epiphany"), ("autofocus_mpmd", "epiphany")];

/// Events each traced run keeps (the tracer drops the rest and counts
/// them in the document). The full small-scale `ffbp_spmd` trace holds
/// about 10,000 events (1.56 MB); parsing it with the quadratic parser
/// takes 10 to 20 s on a shared 2-vCPU Xeon VM, too few passes per run
/// for a steady median. At 3,000 events (about 0.5 MB) a pass takes
/// about 2 s there and the parse is still most of it.
const TRACE_EVENT_CAP: usize = 3_000;

/// The small-scale grid written and resumed (the repository's
/// `specs/sweep_smoke.json` pairs).
const GRID_PAIRS: [(&str, &str); 3] = [
    ("ffbp_spmd", "e64"),
    ("autofocus_mpmd", "epiphany"),
    ("rda_spmd", "e64"),
];

/// Fault seeds per grid pair.
const GRID_SEEDS: u64 = 2;

/// One traced run: its output, the exported trace and its parse.
struct TracedRun {
    out: Result<MappingRun, HarnessError>,
    events: usize,
    text: String,
    parsed: Result<Json, String>,
}

/// Outputs of the pass just run.
struct PassOut {
    traced: Vec<TracedRun>,
    cold: Result<SweepOutcome, Diagnostic>,
    cold_text: String,
    cache_cells: usize,
    resumed: Result<SweepOutcome, Diagnostic>,
    resumed_text: String,
}

/// What one pass measured besides time.
#[derive(Default)]
struct PassStats {
    parsed_bytes: usize,
    emitted_bytes: usize,
    events: usize,
    mesh_transfers: u64,
    /// Cells of both grids: total, simulated, derived, cached.
    cells: [usize; 4],
    resumed_hit_ratio: f64,
}

pub struct TraceIo {
    threads: usize,
    ffbp: Input,
    autofocus: Input,
    pairs: Vec<Pair>,
    spec: GridSpec,
    document: PathBuf,
    reference: Option<ComplexImage>,
    best: (f32, f32),
    out: Option<PassOut>,
    first_records: Vec<Option<String>>,
    stats: Vec<PassStats>,
}

fn grid_text(seed: u64) -> String {
    let pairs: Vec<String> = GRID_PAIRS
        .iter()
        .map(|(m, p)| format!("{{\"mapping\": \"{m}\", \"platform\": \"{p}\"}}"))
        .collect();
    let seeds: Vec<String> = inputs::grid_seeds(seed, GRID_SEEDS)
        .iter()
        .map(u64::to_string)
        .collect();
    format!(
        "{{\"version\": 1, \"name\": \"trace_io\", \"small\": true, \"pairs\": [{}], \"seeds\": [{}]}}\n",
        pairs.join(", "),
        seeds.join(", ")
    )
}

impl Workload for TraceIo {
    fn setup(env: &Env, log: &SpanLog) -> TraceIo {
        let pairs: Vec<Pair> = TRACED.iter().map(|&(m, p)| Pair::named(m, p)).collect();
        warm_up(log, &pairs, env.seed);
        TraceIo {
            threads: env.threads,
            ffbp: Input::Ffbp(inputs::ffbp(env.seed, true)),
            autofocus: Input::Autofocus(inputs::autofocus(env.seed, true)),
            pairs,
            spec: GridSpec::parse(&grid_text(env.seed)).expect("the trace-io grid is valid"),
            document: env
                .scratch
                .join(format!("sweep-trace-io-{}.json", env.seed)),
            reference: None,
            best: (0.0, 0.0),
            out: None,
            first_records: vec![None; TRACED.len()],
            stats: Vec::new(),
        }
    }

    fn prepare(&mut self, log: &SpanLog) {
        self.reference = Some(ffbp_floor(log, &self.ffbp));
        self.best = autofocus_floor(log, &self.autofocus);
    }

    fn pass(&mut self, log: &SpanLog) {
        let traced = self
            .pairs
            .iter()
            .map(|pair| {
                let input = if pair.mapping.kernel() == "ffbp" {
                    &self.ffbp
                } else {
                    &self.autofocus
                };
                let tracer = Tracer::with_event_cap(TRACE_EVENT_CAP);
                let out = log.span(pair.span(), || {
                    run_traced(
                        pair.mapping.as_ref(),
                        input,
                        pair.platform.as_ref(),
                        &tracer,
                    )
                });
                let clock = out
                    .as_ref()
                    .map_or(desim::Frequency::ghz(1.0), |o| o.record.elapsed.clock);
                let doc = log.span("desim.trace_export", || tracer.to_chrome_json(clock));
                let text = log.span("desim.json_emit", || doc.to_string_pretty());
                let parsed = log.span("desim.json_parse", || {
                    Json::parse(&text).map_err(|e| e.to_string())
                });
                TracedRun {
                    out,
                    events: tracer.event_count(),
                    text,
                    parsed,
                }
            })
            .collect();

        let cold = log.span("sweep.run_grid", || {
            sweep::run_grid(&self.spec, self.threads, &CellCache::empty())
        });
        let cold_text = match &cold {
            Ok(o) => log.span("desim.json_emit", || o.document.to_string_pretty()),
            Err(_) => String::new(),
        };
        let written = log.span("io.write", || std::fs::write(&self.document, &cold_text));
        let cache = if written.is_ok() {
            log.span("sweep.cache_load", || CellCache::load(&self.document))
        } else {
            CellCache::empty()
        };
        let resumed = log.span("sweep.run_grid", || {
            sweep::run_grid(&self.spec, self.threads, &cache)
        });
        let resumed_text = match &resumed {
            Ok(o) => log.span("desim.json_emit", || o.document.to_string_pretty()),
            Err(_) => String::new(),
        };
        self.out = Some(PassOut {
            traced,
            cold,
            cold_text,
            cache_cells: cache.len(),
            resumed,
            resumed_text,
        });
    }

    fn check(&mut self, checks: &mut Checks) {
        let out = self.out.take().expect("a pass ran");
        let reference = self.reference.as_ref().expect("prepared");
        let mut stats = PassStats::default();
        for (i, (pair, run)) in self.pairs.iter().zip(&out.traced).enumerate() {
            stats.events += run.events;
            stats.emitted_bytes += run.text.len();
            stats.parsed_bytes += run.text.len();
            match &run.parsed {
                Ok(doc) => checks.same_bytes(
                    &format!("{} trace re-emitted vs exported", pair.key),
                    &doc.to_string_pretty(),
                    &run.text,
                ),
                Err(e) => checks.check(false, || format!("{} trace parse: {e}", pair.key)),
            }
            let out = match &run.out {
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
            stats.mesh_transfers += out.record.counters.get("mesh_transfers");
            let text = out.record.to_json().to_string_pretty();
            match &self.first_records[i] {
                None => self.first_records[i] = Some(text),
                Some(first) => {
                    checks.same_bytes(&format!("{} record vs first pass", pair.key), &text, first)
                }
            }
        }
        match (&out.cold, &out.resumed) {
            (Ok(cold), Ok(resumed)) => {
                stats.emitted_bytes += out.cold_text.len() + out.resumed_text.len();
                checks.check(out.cache_cells == cold.cells_total, || {
                    format!(
                        "cache reload holds {} of {} cells",
                        out.cache_cells, cold.cells_total
                    )
                });
                checks.check(resumed.cells_run == 0, || {
                    format!("resumed grid simulated {} cells", resumed.cells_run)
                });
                checks.same_bytes(
                    "resumed document vs cold document",
                    &out.resumed_text,
                    &out.cold_text,
                );
                for o in [cold, resumed] {
                    stats.cells[0] += o.cells_total;
                    stats.cells[1] += o.cells_run;
                    stats.cells[2] += o.cells_derived;
                    stats.cells[3] += o.cells_cached;
                }
                stats.resumed_hit_ratio =
                    ratio(resumed.cells_cached as f64, resumed.cells_total as f64);
            }
            (cold, resumed) => {
                for (what, r) in [("cold", cold), ("resumed", resumed)] {
                    if let Err(d) = r {
                        checks.check(false, || format!("{what} grid: {d}"));
                    }
                }
            }
        }
        self.stats.push(stats);
    }

    fn finish(&mut self, _log: &SpanLog, _checks: &mut Checks) {
        // The document is scratch output; a failed removal is harmless.
        let _ = std::fs::remove_file(&self.document);
    }

    fn layers(&self, log: &SpanLog, passes: &[u32], m: &mut Metrics) {
        let stats = |p: u32| &self.stats[p as usize - 1];
        m.set("core.ffbp_s", log.total("core.ffbp", 0));
        m.set("core.autofocus_s", log.total("core.autofocus", 0));
        report_pairs(log, &self.pairs, passes, m);
        let last = self.stats.last().expect("at least one pass");
        m.set("desim.json_parse_mb", last.parsed_bytes as f64 / 1e6);
        m.set(
            "desim.json_parse_mb_per_s",
            per_pass(passes, |p| {
                ratio(
                    stats(p).parsed_bytes as f64 / 1e6,
                    log.total("desim.json_parse", p),
                )
            }),
        );
        m.set("desim.json_emit_mb", last.emitted_bytes as f64 / 1e6);
        m.set(
            "desim.json_emit_mb_per_s",
            per_pass(passes, |p| {
                ratio(
                    stats(p).emitted_bytes as f64 / 1e6,
                    log.total("desim.json_emit", p),
                )
            }),
        );
        m.set(
            "desim.trace_export_s",
            per_pass(passes, |p| log.total("desim.trace_export", p)),
        );
        m.set("desim.trace_events", last.events as f64);
        m.set("emesh.transfers", last.mesh_transfers as f64);
        let [_, run, derived, cached] = last.cells;
        m.set(
            "sweep.cells_per_s",
            per_pass(passes, |p| {
                ratio(stats(p).cells[0] as f64, log.total("sweep.run_grid", p))
            }),
        );
        m.set("sweep.cells_simulated", run as f64);
        m.set("sweep.cells_derived", derived as f64);
        m.set("sweep.cells_cached", cached as f64);
        m.set("sweep.cache_hit_ratio", last.resumed_hit_ratio);
        m.set(
            "sweep.cache_load_s",
            per_pass(passes, |p| log.total("sweep.cache_load", p)),
        );
        // The cache load is a JSON parse plus record decoding.
        m.set(
            "share.json_parse",
            share(log, passes, |p| {
                log.total("desim.json_parse", p) + log.total("sweep.cache_load", p)
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_grid_text_parses_with_every_pair() {
        let spec = GridSpec::parse(&grid_text(3)).expect("valid grid");
        assert_eq!(spec.pairs.len(), GRID_PAIRS.len());
        assert_eq!(spec.seeds.len(), GRID_SEEDS as usize);
        assert!(spec.small);
    }
}
