//! `autotune` — search for a placement that beats the hand mapping,
//! then prove it in the simulator.
//!
//! ```text
//! cargo run -p autotune --release -- [--pair M:P] \
//!     [--objective makespan|energy|mesh] [--seed N] [--iters N] \
//!     [--strategy greedy|anneal|both] [--small] [--json] \
//!     [--out report.json] [--placement-out placement.json] [--force]
//! ```
//!
//! Defaults: `--pair autofocus_mpmd:epiphany --objective energy
//! --seed 0 --iters 800 --strategy both`, report to
//! `results/autotune_report.json`. The search prices candidates
//! through the `sarlint` static cost model only; the binary then
//! simulates the initial and tuned placements for real and appends a
//! `simulated` section. Exit status: `0` when the functional outputs
//! are bit-identical and both simulated runs land inside their static
//! bounds, `1` when a gate fails, `2` on a bad command line. The
//! report is byte-identical across runs of the same configuration —
//! pipe it through `cmp` to audit determinism.
//!
//! `--placement-out P` additionally writes the winning placement as a
//! placement JSON file loadable by `run --placement @P`.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use autotune::{tune, Objective, Strategy, TuneConfig, Tuning};
use desim::Json;
use sar_epiphany::mapping_named_placed;
use sim_harness::{
    check_overwrite, platform_named, run, BenchHarness, Diagnostic, MappingRun, Workload,
    RESULTS_DIR,
};

fn main() -> ExitCode {
    let h = BenchHarness::with_args("autotune", std::env::args().skip(1).collect());
    match drive(&h) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(d) => {
            eprintln!("{d}");
            ExitCode::from(2)
        }
    }
}

/// Parse an unsigned-integer operand, `CLI004` on anything else.
fn uint_operand(h: &BenchHarness, name: &str, default: u64) -> Result<u64, Diagnostic> {
    match h.operand(name)? {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| {
            Diagnostic::hard(
                "CLI004",
                format!("--{name} {s}"),
                format!("malformed --{name}; expected an unsigned integer"),
            )
        }),
    }
}

fn config(h: &BenchHarness) -> Result<TuneConfig, Diagnostic> {
    let mut cfg = TuneConfig::new(h.operand("pair")?.unwrap_or("autofocus_mpmd:epiphany"));
    if let Some(name) = h.operand("objective")? {
        cfg.objective = Objective::parse(name).ok_or_else(|| {
            Diagnostic::hard(
                "CLI001",
                format!("--objective {name}"),
                "unknown objective; expected 'makespan', 'energy' or 'mesh'",
            )
        })?;
    }
    if let Some(name) = h.operand("strategy")? {
        cfg.strategy = Strategy::parse(name).ok_or_else(|| {
            Diagnostic::hard(
                "CLI001",
                format!("--strategy {name}"),
                "unknown strategy; expected 'greedy', 'anneal' or 'both'",
            )
        })?;
    }
    cfg.seed = uint_operand(h, "seed", 0)?;
    cfg.iters = usize::try_from(uint_operand(h, "iters", 800)?).expect("iters fits usize");
    cfg.small = h.small();
    Ok(cfg)
}

/// Bit patterns of an `(f32, f32)` pair, for exact comparison.
type BitPair = (u32, u32);

/// The functional outputs, bit-exact: the criterion sweep and the best
/// `(shift, criterion)` the autofocus pipeline reports.
fn functional_bits(r: &MappingRun) -> (Vec<BitPair>, Option<BitPair>) {
    let sweep = r
        .sweep
        .iter()
        .flatten()
        .map(|&(a, b)| (a.to_bits(), b.to_bits()))
        .collect();
    (sweep, r.best.map(|(a, b)| (a.to_bits(), b.to_bits())))
}

/// Simulate one placement through the ordinary harness, on the same
/// placed mapping the static search priced.
fn simulate(t: &Tuning, place: sim_harness::Placement) -> Result<MappingRun, Diagnostic> {
    let m = mapping_named_placed(&t.mapping, place).expect("tuned mapping is registered");
    let p = platform_named(&t.platform).expect("tuned platform is registered");
    let w = Workload::named("autofocus", t.config.small).expect("autofocus is registered");
    run(m.as_ref(), &w, p.as_ref())
        .map_err(|e| Diagnostic::hard("CLI001", t.config.pair.clone(), e.to_string()))
}

/// One simulated run's corner of the report.
fn simulated_side(r: &MappingRun, cost: &sarlint::cost::CostReport) -> (Json, bool) {
    let cycles = r.record.elapsed.cycles.raw() as f64;
    let energy = r.record.energy.total_j();
    let within = cost.cycles.contains(cycles) && cost.total_j.contains(energy);
    let json = Json::obj()
        .with("cycles", cycles)
        .with("seconds", r.record.elapsed.seconds())
        .with("energy_j", energy)
        .with("mesh_j", r.record.energy.mesh_j)
        .with("within_bounds", within);
    (json, within)
}

fn drive(h: &BenchHarness) -> Result<bool, Diagnostic> {
    let cfg = config(h)?;
    let tuning =
        tune(&cfg).map_err(|e| Diagnostic::hard("CLI001", format!("--pair {}", cfg.pair), e))?;

    h.say(format_args!(
        "autotune — {} on {}, objective {} ({} workload)",
        tuning.mapping,
        tuning.platform,
        cfg.objective.label(),
        if cfg.small { "small" } else { "paper" }
    ));
    for s in &tuning.searches {
        h.say(format_args!(
            "  {:<7} {} evals, {} accepted, {} rejected, best {:.6e}",
            s.strategy, s.evals, s.accepted, s.rejected, s.best_score
        ));
    }
    h.say(format_args!(
        "  static {}: initial {:.6e} -> best {:.6e} ({:+.2}% via {})",
        cfg.objective.label(),
        tuning.initial_score,
        tuning.best_score,
        -tuning.improvement_pct(),
        tuning.best_strategy
    ));

    // The static model proposed; the simulator disposes. Both runs go
    // through the identical harness path, differing only in the
    // placement override.
    let base = simulate(&tuning, tuning.initial)?;
    let tuned = simulate(&tuning, tuning.best)?;
    let identical = functional_bits(&base) == functional_bits(&tuned);
    let (base_json, base_within) = simulated_side(&base, &tuning.initial_cost);
    let (tuned_json, tuned_within) = simulated_side(&tuned, &tuning.best_cost);
    let base_energy = base.record.energy.total_j();
    let tuned_energy = tuned.record.energy.total_j();
    let energy_delta_pct = if base_energy > 0.0 {
        (tuned_energy - base_energy) / base_energy * 100.0
    } else {
        0.0
    };
    let simulated = Json::obj()
        .with("initial", base_json)
        .with("tuned", tuned_json)
        .with("sweep_identical", identical)
        .with("energy_delta_pct", energy_delta_pct)
        .with(
            "improved",
            Json::obj()
                .with(
                    "makespan",
                    tuned.record.elapsed.cycles.raw() < base.record.elapsed.cycles.raw(),
                )
                .with("energy", tuned_energy < base_energy)
                .with(
                    "mesh",
                    tuned.record.energy.mesh_j < base.record.energy.mesh_j,
                ),
        );
    h.say(format_args!(
        "  simulated: {:.6} J -> {:.6} J ({energy_delta_pct:+.2}%), outputs {}",
        base_energy,
        tuned_energy,
        if identical {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    ));

    let doc = tuning.to_json().with("simulated", simulated);
    if h.json() {
        print!("{}", doc.to_string_pretty());
    }

    if let Some(path) = h.operand("placement-out")? {
        write_json(h, &PathBuf::from(path), &tuning.best.to_json())?;
    }
    if !h.flag("no-write") {
        let path = h.value("out").map_or_else(
            || PathBuf::from(RESULTS_DIR).join("autotune_report.json"),
            PathBuf::from,
        );
        check_overwrite(&path, h.flag("force"))?;
        write_json(h, &path, &doc)?;
    }

    if !identical {
        eprintln!("gate failed: tuned placement changed the functional outputs");
    }
    if !(base_within && tuned_within) {
        eprintln!("gate failed: a simulated run landed outside its static cost bounds");
    }
    Ok(identical && base_within && tuned_within)
}

fn write_json(h: &BenchHarness, path: &PathBuf, doc: &Json) -> Result<(), Diagnostic> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| {
            Diagnostic::hard(
                "CLI006",
                path.display().to_string(),
                format!("cannot create output directory: {e}"),
            )
        })?;
    }
    std::fs::write(path, doc.to_string_pretty()).map_err(|e| {
        Diagnostic::hard(
            "CLI006",
            path.display().to_string(),
            format!("cannot write output: {e}"),
        )
    })?;
    h.say(format_args!("wrote {}", path.display()));
    Ok(())
}
