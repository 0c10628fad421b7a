//! Programmability corollary (paper §VI-B): SPMD ships one program
//! image, MPMD ships a distinct image per core. The loader model makes
//! the startup cost of each style measurable, alongside the paper's
//! qualitative "separate C programs reduce productivity" argument.
//!
//! Usage: `cargo run -p bench --bin loader_cost --release [-- --json]`

use epiphany::loader::{load_programs, load_spmd, ProgramImage};
use epiphany::{Chip, EpiphanyParams};
use sim_harness::BenchHarness;

fn main() {
    let mut h = BenchHarness::new("loader_cost");
    h.say("Program-load cost on the Epiphany model (eLink-bound)");
    h.say(format_args!(
        "\n{:>26} {:>8} {:>12} {:>14}",
        "style", "images", "bytes", "load (us @1GHz)"
    ));

    // SPMD FFBP: one 14 KB image replicated to 16 cores.
    let mut chip = Chip::e16g3(EpiphanyParams::default());
    let cores: Vec<usize> = (0..16).collect();
    let spmd = load_spmd(
        &mut chip,
        &cores,
        &ProgramImage::new("ffbp_spmd", 14 * 1024),
    );
    h.say(format_args!(
        "{:>26} {:>8} {:>12} {:>14.1}",
        "SPMD FFBP (1 image x16)",
        1,
        spmd.bytes,
        spmd.done.raw() as f64 / 1e3
    ));
    let mut r = chip.report("Program load / SPMD FFBP (1 image x16)", 16);
    r.set_metric("images", 1.0);
    r.set_metric("bytes", spmd.bytes as f64);
    h.record(r);

    // MPMD autofocus: 13 distinct images (range/beam/corr variants).
    let mut chip = Chip::e16g3(EpiphanyParams::default());
    let targets: Vec<usize> = (0..13).collect();
    let programs: Vec<ProgramImage> = (0..13)
        .map(|i| {
            let (name, size) = match i {
                0..=5 => ("range", 9 * 1024),
                6..=11 => ("beam", 8 * 1024),
                _ => ("corr", 6 * 1024),
            };
            ProgramImage::new(&format!("{name}{i}"), size)
        })
        .collect();
    let mpmd = load_programs(&mut chip, &targets, &programs);
    h.say(format_args!(
        "{:>26} {:>8} {:>12} {:>14.1}",
        "MPMD autofocus (13 images)",
        13,
        mpmd.bytes,
        mpmd.done.raw() as f64 / 1e3
    ));
    let mut r = chip.report("Program load / MPMD autofocus (13 images)", 13);
    r.set_metric("images", 13.0);
    r.set_metric("bytes", mpmd.bytes as f64);
    h.record(r);

    h.say("\nLoad time is bandwidth-bound either way; the MPMD cost the paper");
    h.say("stresses is the *build and maintenance* of thirteen separate");
    h.say("programs — which the `streams` process-network layer removes:");
    h.say("`sar-epiphany::autofocus_mpmd` declares the pipeline as actors.");
    h.finish();
}
