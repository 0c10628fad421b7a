//! The autotune acceptance contract, end to end: the search finds a
//! placement that beats the hand `neighbor` mapping on the static
//! objective, the *simulated* run confirms the win, the functional
//! outputs stay bit-identical (placement changes routing, never
//! pixels), the static bounds bracket both simulated runs, and the
//! whole report is byte-deterministic per seed.

use autotune::{tune, Objective, TuneConfig};
use sar_epiphany::mapping_named_placed;
use sim_harness::{platform_named, run, MappingRun, Placement, Workload};

fn simulate(place: Placement) -> MappingRun {
    let m = mapping_named_placed("autofocus_mpmd", place).expect("registered");
    let p = platform_named("epiphany").expect("registered");
    let w = Workload::named("autofocus", true).expect("registered");
    run(m.as_ref(), &w, p.as_ref()).expect("pair simulates")
}

fn small_cfg() -> TuneConfig {
    let mut cfg = TuneConfig::new("autofocus_mpmd:epiphany");
    cfg.small = true;
    cfg.iters = 250;
    cfg
}

#[test]
fn tuned_placement_beats_the_hand_mapping_in_the_simulator() {
    let t = tune(&small_cfg()).expect("pair is tunable");
    assert!(
        t.best_score < t.initial_score,
        "static search found no improvement"
    );

    let base = simulate(Placement::neighbor());
    let tuned = simulate(t.best);

    // The win condition: the tuned placement's simulated run beats the
    // hand mapping on total energy (the pipeline is compute-bound, so
    // placement moves energy, not makespan).
    let (be, te) = (base.record.energy.total_j(), tuned.record.energy.total_j());
    assert!(
        te < be,
        "tuned placement did not beat neighbor: {te} J >= {be} J"
    );
    assert!(
        tuned.record.energy.mesh_j < base.record.energy.mesh_j,
        "the saving must come from mesh traffic"
    );

    // Functional identity, bit for bit: same criterion sweep, same
    // best hypothesis.
    let bits = |r: &MappingRun| {
        (
            r.sweep
                .as_ref()
                .expect("autofocus reports a sweep")
                .iter()
                .map(|&(a, b)| (a.to_bits(), b.to_bits()))
                .collect::<Vec<_>>(),
            r.best.map(|(a, b)| (a.to_bits(), b.to_bits())),
        )
    };
    assert_eq!(bits(&base), bits(&tuned), "placement changed the pixels");

    // The static bounds bracket both simulated runs.
    for (run, cost) in [(&base, &t.initial_cost), (&tuned, &t.best_cost)] {
        let cycles = run.record.elapsed.cycles.raw() as f64;
        let energy = run.record.energy.total_j();
        assert!(
            cost.cycles.contains(cycles),
            "cycles {cycles} outside [{}, {}]",
            cost.cycles.lo,
            cost.cycles.hi
        );
        assert!(
            cost.total_j.contains(energy),
            "energy {energy} outside [{}, {}]",
            cost.total_j.lo,
            cost.total_j.hi
        );
    }
}

#[test]
fn mesh_objective_also_improves_simulated_mesh_energy() {
    let mut cfg = small_cfg();
    cfg.objective = Objective::MeshEnergy;
    let t = tune(&cfg).expect("pair is tunable");
    assert!(t.best_score < t.initial_score);
    let base = simulate(Placement::neighbor());
    let tuned = simulate(t.best);
    assert!(tuned.record.energy.mesh_j < base.record.energy.mesh_j);
}

#[test]
fn reports_are_byte_identical_per_seed_across_processes() {
    // Same config twice: the full serialized report must match byte
    // for byte (BTreeMap iteration inside the cost model, seeded rng
    // streams, no wall-clock anywhere).
    let cfg = small_cfg();
    let a = tune(&cfg).unwrap().to_json().to_string_pretty();
    let b = tune(&cfg).unwrap().to_json().to_string_pretty();
    assert_eq!(a, b);
    // And a different seed is allowed to differ (the annealer's walk
    // depends on it) while the greedy half stays fixed.
    let mut other = small_cfg();
    other.seed = 99;
    let t = tune(&other).unwrap();
    let greedy = t
        .searches
        .iter()
        .find(|s| s.strategy == "greedy")
        .expect("both strategies ran");
    let base_greedy = tune(&cfg).unwrap();
    let base_greedy = base_greedy
        .searches
        .iter()
        .find(|s| s.strategy == "greedy")
        .unwrap();
    assert_eq!(greedy.best_score, base_greedy.best_score);
    assert_eq!(greedy.evals, base_greedy.evals);
}
