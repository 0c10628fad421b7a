//! Shared helpers for the benchmark harness and report binaries.
//!
//! Binaries (one per paper artefact or ablation — see DESIGN.md §4):
//!
//! * `run` — the unified runner: any registered Mapping × Platform ×
//!   Workload triple through `sim_harness::run_ctx`,
//! * `table1` — Table I (all six configurations) + derived figures,
//! * `fig7` — Figure 7(a)-(d) as PGM images + quality metrics,
//! * `scaling` — FFBP core-count sweep (A1),
//! * `interp_ablation` — NN vs linear vs cubic (A2),
//! * `prefetch_ablation` — prefetch / write-stall attribution (A3),
//! * `bandwidth_sweep` — off-chip bandwidth sensitivity (A4),
//! * `clock_sweep` — 400 MHz board vs 1 GHz spec (A5),
//! * `merge_base` — merge base 2 vs 4 (A6),
//! * `mapping_ablation` — neighbour vs scattered placement (E5),
//! * `energy_report` — component-level energy breakdowns (E3),
//! * `autofocus_recovery` — the Figure-4 pipeline under non-linear
//!   tracks (A7),
//! * `loader_cost` — SPMD vs MPMD program-load cost (A8),
//! * `vs_multicore` — real host threads vs the simulated Epiphany on
//!   throughput per watt (A9),
//! * `fault_sweep` — recovery overhead vs injected-fault count,
//! * `rda_corner_turn` — the RDA corner-turn pressure study (E6).
//!
//! Every binary sits on [`sim_harness::BenchHarness`]: the shared
//! `--small` / `--json` / `--out P` / `--no-write` flags, and one
//! versioned record document written under `results/`. Every simulated
//! configuration runs as a registered pair through
//! `sim_harness::run_ctx` (or its fault-free shorthand `run`), which stamps the
//! record's identity and closes its energy books; an ablation varies
//! the platform (`EpiphanyPlatform::with_params`, `RefCpuPlatform {
//! params }`), the mapping's options, the workload or the fault
//! context — never a driver call. Only the host-thread timings of plain
//! `sar-core` arithmetic use `BenchHarness::host_record`.

#![forbid(unsafe_code)]

use sar_core::geometry::SarGeometry;
use sar_core::scene::{simulate_compressed_data, Scene};
use sar_epiphany::workloads::FfbpWorkload;

/// An FFBP workload reduced to `pulses x bins` (power-of-two pulses),
/// six-target scene, deterministic seed — the knob the sweeps turn.
pub fn reduced_ffbp(pulses: usize, bins: usize) -> FfbpWorkload {
    assert!(pulses.is_power_of_two(), "merge base 2 needs 2^k pulses");
    let geom = SarGeometry {
        num_pulses: pulses,
        num_bins: bins,
        ..SarGeometry::paper_size()
    };
    let scene = Scene::six_targets(geom);
    FfbpWorkload {
        geom,
        data: simulate_compressed_data(&scene, 0.0, 7),
        config: Default::default(),
    }
}

/// Format a ratio column as `x.xx`.
pub fn fmt_x(v: f64) -> String {
    format!("{v:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_workload_has_requested_shape() {
        let w = reduced_ffbp(128, 257);
        assert_eq!(w.data.rows(), 128);
        assert_eq!(w.data.cols(), 257);
    }

    #[test]
    #[should_panic(expected = "2^k pulses")]
    fn non_pow2_rejected() {
        let _ = reduced_ffbp(100, 100);
    }
}
