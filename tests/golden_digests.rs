//! Golden digests of pipeline RunRecords: every entry of
//! `results/golden_digests.json` names a (mapping, platform, scale,
//! placement, fault spec, seed) configuration, the FNV-1a digest of
//! its record's canonical JSON (`to_json().to_string_pretty()`) and a
//! few headline fields in clear text. A fresh run must reproduce each
//! one exactly. On a mismatch the test prints the whole document as the
//! current code produces it; updating the file is a deliberate model
//! change whose reason goes in CHANGES.md.

use sar_repro::desim::Json;
use sar_repro::sar_epiphany::mapping_named_placed;
use sar_repro::sim_harness::{
    platform_named, run_ctx, FaultPlan, FaultState, Placement, RunContext, Workload,
};

const GOLDEN: &str = include_str!("../results/golden_digests.json");

/// One pinned configuration, as its entry spells it.
struct Config {
    mapping: String,
    platform: String,
    scale: String,
    placement: String,
    faults: String,
    seed: u64,
}

impl Config {
    fn from_json(entry: &Json) -> Config {
        let text = |key: &str| {
            entry
                .get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("golden entry lacks '{key}'"))
                .to_string()
        };
        Config {
            mapping: text("mapping"),
            platform: text("platform"),
            scale: text("scale"),
            placement: text("placement"),
            faults: text("faults"),
            seed: entry.get("seed").and_then(Json::as_u64).expect("seed"),
        }
    }

    /// Run the configuration and describe its record as an entry.
    fn entry(&self) -> Json {
        let place = Placement::named(&self.placement).expect("placement name");
        let mapping = mapping_named_placed(&self.mapping, place).expect("registered mapping");
        let platform = platform_named(&self.platform).expect("registered platform");
        let workload = Workload::named("autofocus", self.scale == "small").expect("kernel");
        let mut ctx = RunContext::plain();
        if self.faults != "none" {
            let path = format!("{}/{}", env!("CARGO_MANIFEST_DIR"), self.faults);
            let spec = std::fs::read_to_string(&path).expect("fault spec readable");
            let plan = FaultPlan::parse(&spec, self.seed).expect("fault spec parses");
            ctx = ctx.with_faults(FaultState::from_plan(&plan));
        }
        let run =
            run_ctx(mapping.as_ref(), &workload, platform.as_ref(), &ctx).expect("supported pair");
        let record = &run.record;
        let digest = sweep::fnv1a(&record.to_json().to_string_pretty());
        Json::obj()
            .with("mapping", self.mapping.as_str())
            .with("platform", self.platform.as_str())
            .with("scale", self.scale.as_str())
            .with("placement", self.placement.as_str())
            .with("faults", self.faults.as_str())
            .with("seed", self.seed)
            .with("digest", format!("{digest:016x}"))
            .with("cycles", record.elapsed.cycles.raw())
            .with("faults_injected", record.faults.faults_injected)
            .with("degraded_cores", record.faults.degraded_cores)
    }
}

#[test]
fn pipeline_records_match_the_golden_digests() {
    let golden = Json::parse(GOLDEN).expect("golden file parses");
    let entries = golden
        .get("entries")
        .and_then(Json::as_array)
        .expect("golden entries");
    assert!(!entries.is_empty(), "the golden file pins nothing");
    let fresh: Vec<Json> = entries
        .iter()
        .map(|e| Config::from_json(e).entry())
        .collect();
    let stale: Vec<String> = entries
        .iter()
        .zip(&fresh)
        .filter(|(old, new)| old != new)
        .map(|(old, _)| {
            let c = Config::from_json(old);
            format!(
                "{} x {} ({}, {}, faults {} seed {})",
                c.mapping, c.platform, c.scale, c.placement, c.faults, c.seed
            )
        })
        .collect();
    if !stale.is_empty() {
        let mut doc = golden.clone();
        doc.set("entries", fresh);
        println!("{}", doc.to_string_pretty());
        panic!(
            "{} golden record(s) changed: {}; the current digests are printed above",
            stale.len(),
            stale.join("; ")
        );
    }
}
