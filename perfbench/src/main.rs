//! `perfbench` — host-time benchmark of the SAR reproduction.
//!
//! ```text
//! perfbench --workload <table1|explore|trace-io> --seed <n> --seconds <s>
//!           --trace <0|1> --root <repo> --scratch <dir>
//! ```
//!
//! One run: set up the workload's inputs from the seed several times
//! (the median is `setup_s`), compute the check references, then run
//! timed passes until `--seconds` is spent, checking every pass's
//! outputs. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! alternates untraced and traced passes, records a span around every
//! layer call of the traced ones, runs the layer arms, writes the spans
//! to `<scratch>/spans-<workload>-<seed>.json` and reports the
//! per-layer metrics. The last stdout line is the result object.
//! `perfbench/README.md` explains the workloads and the metrics.

mod arms;
mod checks;
mod explore;
mod host;
mod inputs;
mod metrics;
mod spans;
mod table1;
mod trace_io;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use sar_core::autofocus::{best_shift, sweep_criterion};
use sar_core::image::ComplexImage;
use sar_core::OpCounts;
use sim_harness::{Mapping, Platform, Workload as Input};

use checks::Checks;
use metrics::{median, Metrics};
use spans::SpanLog;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// What every workload gets from the command line.
pub struct Env {
    /// Input seed.
    pub seed: u64,
    /// Worker threads for the sweep grids (at most the host's cores).
    pub threads: usize,
    /// Repository root (holds `results/table1_baseline.json`).
    pub root: PathBuf,
    /// Directory for files the run writes.
    pub scratch: PathBuf,
}

/// One benchmark workload. `setup` builds everything from the seed;
/// `prepare` computes the check references; `pass` is the timed job;
/// `check` inspects the pass just run (untimed); `finish` makes the
/// once-per-run checks and, when `log` records, runs the layer arms;
/// `layers` turns the traced passes into per-layer metrics.
pub trait Workload: Sized {
    /// Generate inputs, parse specs, resolve the registries and warm up.
    fn setup(env: &Env, log: &SpanLog) -> Self;
    /// Compute what the checks compare against.
    fn prepare(&mut self, log: &SpanLog);
    /// One timed pass.
    fn pass(&mut self, log: &SpanLog);
    /// Check the outputs of the pass just run.
    fn check(&mut self, checks: &mut Checks);
    /// Once-per-run checks and layer arms.
    fn finish(&mut self, log: &SpanLog, checks: &mut Checks);
    /// Per-layer metrics over the traced `passes` (1-based pass ids).
    fn layers(&self, log: &SpanLog, passes: &[u32], m: &mut Metrics);
}

/// A resolved Mapping x Platform pair.
pub struct Pair {
    /// Registry mapping.
    pub mapping: Box<dyn Mapping>,
    /// Registry platform.
    pub platform: Box<dyn Platform>,
    /// `<mapping>.<platform>`, the suffix of the pair's metric names.
    pub key: String,
}

impl Pair {
    /// Resolve `mapping` x `platform` from the registries.
    pub fn named(mapping: &str, platform: &str) -> Pair {
        Pair {
            mapping: sar_epiphany::mapping_named(mapping).expect("registered mapping"),
            platform: sim_harness::platform_named(platform).expect("registered platform"),
            key: format!("{mapping}.{platform}"),
        }
    }

    /// Span name of the pair's harness call.
    pub fn span(&self) -> String {
        format!("harness.run/{}", self.key)
    }

    /// Report the pair's host seconds and their ratio to its kernel's
    /// functional floor (the `core.<kernel>` span outside the passes).
    pub fn report(&self, log: &SpanLog, m: &mut Metrics, secs: f64) {
        let floor = log.total(&format!("core.{}", self.mapping.kernel()), 0);
        m.set(format!("pair.{}.s", self.key), secs);
        m.set(
            format!("pair.{}.over_floor", self.key),
            metrics::ratio(secs, floor),
        );
    }
}

/// Report every pair timed by its own span in the traced `passes`;
/// returns the pairs' median seconds in order.
pub fn report_pairs(log: &SpanLog, pairs: &[Pair], passes: &[u32], m: &mut Metrics) -> Vec<f64> {
    pairs
        .iter()
        .map(|pair| {
            let secs = per_pass(passes, |p| log.total(&pair.span(), p));
            pair.report(log, m, secs);
            secs
        })
        .collect()
}

/// FFBP's functional floor, `sar_core::ffbp::ffbp` on `input` in a
/// `core.ffbp` span; its image is what every FFBP pair must reproduce.
pub fn ffbp_floor(log: &SpanLog, input: &Input) -> ComplexImage {
    let w = input.ffbp().expect("an FFBP input");
    log.span("core.ffbp", || {
        sar_core::ffbp::ffbp(&w.data, &w.geom, &w.config).image
    })
}

/// Autofocus's functional floor, the plain criterion sweep on `input`
/// in a `core.autofocus` span; returns its best compensation.
pub fn autofocus_floor(log: &SpanLog, input: &Input) -> (f32, f32) {
    let a = input.autofocus().expect("an autofocus input");
    log.span("core.autofocus", || {
        best_shift(&sweep_criterion(
            &a.f_minus,
            &a.f_plus,
            a.max_shift,
            a.hypotheses,
            &a.config,
            &mut OpCounts::default(),
        ))
    })
}

/// The set-up warm-up: run every pair once on the small-scale inputs
/// of `seed`, so one-time tables and allocator pools are filled before
/// the first timed job.
pub fn warm_up(log: &SpanLog, pairs: &[Pair], seed: u64) {
    let small = [
        Input::Ffbp(inputs::ffbp(seed, true)),
        Input::Rda(inputs::rda(seed, true)),
        Input::Autofocus(inputs::autofocus(seed, true)),
    ];
    for pair in pairs {
        let input = small
            .iter()
            .find(|i| i.kernel() == pair.mapping.kernel())
            .expect("every kernel has a small input");
        log.span(format!("warm_up/{}", pair.key), || {
            sim_harness::run(pair.mapping.as_ref(), input, pair.platform.as_ref())
        })
        .expect("warm-up pairs are supported");
    }
}

/// Median over `passes` of `f(pass)`.
pub fn per_pass(passes: &[u32], f: impl Fn(u32) -> f64) -> f64 {
    median(&passes.iter().map(|&p| f(p)).collect::<Vec<_>>())
}

/// Median over traced `passes` of the share of the pass's wall time
/// that `part(pass)` seconds take.
pub fn share(log: &SpanLog, passes: &[u32], part: impl Fn(u32) -> f64) -> f64 {
    per_pass(passes, |p| metrics::ratio(part(p), log.total("pass", p)))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    root: PathBuf,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be an unsigned integer"))
    };
    let workload = value("--workload")?.to_string();
    if !["table1", "explore", "trace-io"].contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace,
        root: PathBuf::from(value("--root")?),
        scratch: PathBuf::from(value("--scratch")?),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("perfbench: cannot create {}: {e}", args.scratch.display());
        return ExitCode::from(2);
    }
    match args.workload.as_str() {
        "table1" => run::<table1::Table1>(&args),
        "explore" => run::<explore::Explore>(&args),
        _ => run::<trace_io::TraceIo>(&args),
    }
}

fn run<W: Workload>(args: &Args) -> ExitCode {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let env = Env {
        seed: args.seed,
        threads: cores.min(2),
        root: args.root.clone(),
        scratch: args.scratch.clone(),
    };
    println!(
        "perfbench {} seed {} for {} s, trace {}, {cores} core(s), sweep threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env.threads
    );

    let traced_log = SpanLog::new(args.trace);
    let untraced_log = SpanLog::new(false);
    traced_log.set_pass(0);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first so every one starts alike.
        drop(workload.take());
        let t0 = Instant::now();
        workload = Some(traced_log.span("setup", || W::setup(&env, &traced_log)));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("at least one set-up");
    w.prepare(&traced_log);

    let mut checks = Checks::default();
    let (mut walls, mut cpus, mut traced_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced_passes: Vec<u32> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    for pass in 1u32.. {
        let traced = args.trace && pass % 2 == 0;
        let log = if traced { &traced_log } else { &untraced_log };
        log.set_pass(pass);
        let (t0, c0) = (Instant::now(), host::process_cpu());
        log.span("pass", || w.pass(log));
        let wall = t0.elapsed();
        let cpu = host::process_cpu() - c0;
        w.check(&mut checks);
        println!(
            "pass {pass}{}: wall {:.4} s, cpu {:.4} s",
            if traced { " (traced)" } else { "" },
            wall.as_secs_f64(),
            cpu.as_secs_f64()
        );
        if traced {
            traced_walls.push(wall.as_secs_f64());
            traced_passes.push(pass);
        } else {
            walls.push(wall.as_secs_f64());
            cpus.push(cpu.as_secs_f64());
        }
        let enough = !walls.is_empty() && (!args.trace || !traced_passes.is_empty());
        if enough && Instant::now() + wall > deadline {
            break;
        }
    }
    traced_log.set_pass(0);
    w.finish(&traced_log, &mut checks);

    let wall_s = median(&walls);
    let mut m = Metrics::default();
    m.set("wall_s", wall_s);
    m.set("cpu_s", median(&cpus));
    m.set("setup_s", median(&setups));
    m.set("peak_rss_mb", host::peak_rss_mb());
    println!(
        "setup {:?} s; {} untraced pass(es), wall median {wall_s:.4} s",
        setups,
        walls.len()
    );
    for f in &checks.failures {
        println!("CHECK FAILED: {f}");
    }
    println!(
        "checks: {} attempted, {} failed (failed share {})",
        checks.attempted,
        checks.failed,
        checks.failed_share()
    );

    let end_to_end: Vec<(String, &'static str)> = metrics::END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    println!("end to end (untraced passes):");
    for (name, unit) in &end_to_end {
        println!("  {name:<40} {:>16.6} {unit}", m.get(name));
    }
    let catalogue: Vec<(String, &'static str)> = if args.trace {
        w.layers(&traced_log, &traced_passes, &mut m);
        m.set(
            "trace.overhead_share",
            metrics::ratio(median(&traced_walls) - wall_s, wall_s),
        );
        m.set("trace.passes", traced_passes.len() as f64);
        m.set("trace.spans", traced_log.spans().len() as f64);
        m.set("pass.count", (walls.len() + traced_walls.len()) as f64);
        m.set("checks.attempted", checks.attempted as f64);
        m.set("checks.failed_share", checks.failed_share());
        report_self_times(&traced_log, &traced_passes);
        let path = args
            .scratch
            .join(format!("spans-{}-{}.json", args.workload, args.seed));
        match std::fs::write(&path, traced_log.to_json().to_string_pretty()) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
        let per_layer = metrics::per_layer();
        println!("per layer (traced passes and arms):");
        for (name, unit) in &per_layer {
            println!("  {name:<40} {:>16.6} {unit}", m.get(name));
        }
        per_layer
    } else {
        end_to_end
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        m.to_json_object(&catalogue)
    );
    ExitCode::SUCCESS
}

/// Print self time per span name over the traced passes, per pass.
fn report_self_times(log: &SpanLog, passes: &[u32]) {
    let n = passes.len().max(1) as f64;
    println!("self time per traced pass:");
    for (name, secs) in log.self_time_by_name(passes) {
        println!("  {name:<48} {:>10.4} s", secs / n);
    }
    println!("self time outside the passes (set-ups, references, arms):");
    for (name, secs) in log.self_time_by_name(&[0]) {
        println!("  {name:<48} {:>10.4} s", secs);
    }
}
