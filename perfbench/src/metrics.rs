//! The metric catalogue (names and units, as `BENCHMARK.json` lists
//! them) and the per-run value store.

use std::collections::BTreeMap;

/// Every Mapping x Platform pair `table1` or `explore` runs; each gets
/// `pair.<mapping>.<platform>.s` and `.over_floor`.
pub const PAIRS: [(&str, &str); 14] = [
    ("ffbp_ref", "refcpu"),
    ("ffbp_seq", "epiphany"),
    ("ffbp_spmd", "epiphany"),
    ("ffbp_spmd", "e64"),
    ("autofocus_ref", "refcpu"),
    ("autofocus_seq", "epiphany"),
    ("autofocus_mpmd", "epiphany"),
    ("autofocus_mpmd", "e64"),
    ("autofocus_net", "epiphany"),
    ("autofocus_net", "e64"),
    ("rda_seq", "epiphany"),
    ("rda_seq", "e64"),
    ("rda_spmd", "epiphany"),
    ("rda_spmd", "e64"),
];

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics other than the per-pair ones, reported by every
/// traced run (0 where the workload does not exercise the layer).
const LAYERS: [(&str, &str); 38] = [
    ("core.ffbp_s", "s"),
    ("core.rda_s", "s"),
    ("core.autofocus_s", "s"),
    ("core.fft_ns_per_point", "ns"),
    ("core.fft_points", "count"),
    ("memsim.ns_per_access", "ns"),
    ("memsim.accesses", "count"),
    ("memsim.dram_accesses", "count"),
    ("refcpu.self_s", "s"),
    ("emesh.ns_per_transfer.e16", "ns"),
    ("emesh.ns_per_transfer.e64", "ns"),
    ("emesh.arm_transfers", "count"),
    ("emesh.transfers", "count"),
    ("epiphany.spmd_over_seq", "ratio"),
    ("desim.json_parse_mb_per_s", "MB/s"),
    ("desim.json_parse_mb", "MB"),
    ("desim.json_emit_mb_per_s", "MB/s"),
    ("desim.json_emit_mb", "MB"),
    ("desim.trace_export_s", "s"),
    ("desim.trace_events", "count"),
    ("sweep.cells_per_s", "1/s"),
    ("sweep.cells_simulated", "count"),
    ("sweep.cells_derived", "count"),
    ("sweep.cells_cached", "count"),
    ("sweep.cache_hit_ratio", "ratio"),
    ("sweep.cache_load_s", "s"),
    ("sarlint.cost_s", "s"),
    ("sarlint.pairs", "count"),
    ("autotune.evals_per_s", "1/s"),
    ("autotune.evals", "count"),
    ("share.refcpu_self", "ratio"),
    ("share.json_parse", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.passes", "count"),
    ("trace.spans", "count"),
    ("pass.count", "count"),
    ("checks.attempted", "count"),
    ("checks.failed_share", "ratio"),
];

/// Every per-layer metric, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for (m, p) in PAIRS {
        out.push((format!("pair.{m}.{p}.s"), "s"));
        out.push((format!("pair.{m}.{p}.over_floor"), "ratio"));
    }
    out
}

/// Values measured by one run, keyed by metric name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    /// Set `name` (must be in the catalogue).
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        debug_assert!(
            END_TO_END.iter().any(|(n, _)| *n == name)
                || per_layer().iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// The value of `name`, 0 when the run did not set it.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The result line's `metrics` object over `catalogue`; metrics the
    /// run did not set report 0, and non-finite values report 0.
    pub fn to_json_object(&self, catalogue: &[(String, &'static str)]) -> String {
        let fields: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let v = self.get(name);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::Json;

    /// The catalogue and `BENCHMARK.json` name the same metrics with
    /// the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect()
        };
        let ours: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), ours);
        let ours: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), ours);
    }

    #[test]
    fn medians_and_ratios() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn unset_and_non_finite_values_report_zero() {
        let mut m = Metrics::default();
        m.set("wall_s", f64::NAN);
        let cat = vec![("wall_s".to_string(), "s"), ("cpu_s".to_string(), "s")];
        let obj = m.to_json_object(&cat);
        assert!(Json::parse(&obj).is_ok(), "{obj}");
        assert!(obj.contains("\"cpu_s\": {\"value\": 0,"));
    }
}
