//! Output checks. Every check is counted as attempted; a failed one is
//! counted and described, never skipped, and feeds the result line's
//! `failed` / `attempted` (the failed share).

use desim::Json;
use sar_core::image::ComplexImage;

/// Running tally of the checks a run made.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one check; record `what` if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Failed checks over attempted ones.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// `got` equals `want` byte for byte.
    pub fn same_bytes(&mut self, what: &str, got: &str, want: &str) {
        self.check(got == want, || {
            let at = got
                .bytes()
                .zip(want.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(got.len().min(want.len()));
            format!(
                "{what}: {} vs {} bytes, first difference at byte {at}",
                got.len(),
                want.len()
            )
        });
    }

    /// `got` is bit-identical to `reference`.
    pub fn same_image(&mut self, what: &str, got: Option<&ComplexImage>, reference: &ComplexImage) {
        let Some(got) = got else {
            self.check(false, || format!("{what}: the run returned no image"));
            return;
        };
        let same_shape = got.rows() == reference.rows() && got.cols() == reference.cols();
        let differing = got
            .as_slice()
            .iter()
            .zip(reference.as_slice())
            .filter(|(a, b)| a.re.to_bits() != b.re.to_bits() || a.im.to_bits() != b.im.to_bits())
            .count();
        self.check(same_shape && differing == 0, || {
            format!(
                "{what}: {differing} pixels differ from sar_core::ffbp (shape equal: {same_shape})"
            )
        });
    }

    /// Every autofocus run picked the same compensation as the plain
    /// criterion sweep.
    pub fn same_best(&mut self, what: &str, got: Option<(f32, f32)>, reference: (f32, f32)) {
        self.check(got.map(|g| g.0) == Some(reference.0), || {
            format!("{what}: best compensation {got:?}, plain sweep {reference:?}")
        });
    }

    /// `lo <= value <= hi`.
    pub fn within(&mut self, what: &str, lo: f64, value: f64, hi: f64) {
        self.check(lo <= value && value <= hi, || {
            format!("{what}: {value} outside [{lo}, {hi}]")
        });
    }

    /// `a` and `b` agree to `rel` relative tolerance.
    pub fn close(&mut self, what: &str, a: f64, b: f64, rel: f64) {
        self.check((a - b).abs() <= rel * b.abs().max(1e-300), || {
            format!("{what}: {a} vs {b}")
        });
    }
}

/// Relative tolerance of the repository's Table I golden test.
pub const GOLDEN_REL_TOL: f64 = 1e-9;

/// Compare a fresh small-scale Table I against the golden document
/// (`results/table1_baseline.json`) the way the golden test does: rows
/// by label and cores, times, speedups, power and throughput within
/// [`GOLDEN_REL_TOL`], plus the four headline ratios.
pub fn golden_table1(checks: &mut Checks, fresh: &sar_epiphany::Table1, golden: &Json) {
    let Some(table) = golden.get("table") else {
        checks.check(false, || "golden: document has no 'table'".to_string());
        return;
    };
    for (kernel, rows) in [("ffbp", &fresh.ffbp), ("autofocus", &fresh.autofocus)] {
        let want = table.get(kernel).and_then(Json::as_array).unwrap_or(&[]);
        checks.check(want.len() == rows.len(), || {
            format!(
                "golden: {kernel} has {} rows, fresh {}",
                want.len(),
                rows.len()
            )
        });
        for (i, (row, base)) in rows.iter().zip(want).enumerate() {
            let ctx = |field: &str| format!("golden {kernel} row {i} {field}");
            let num = |key: &str| base.get(key).and_then(Json::as_f64);
            checks.check(
                base.get("label").and_then(Json::as_str) == Some(row.label.as_str())
                    && base.get("cores").and_then(Json::as_u64) == Some(row.cores as u64),
                || ctx("label/cores"),
            );
            for (field, value) in [
                ("time_ms", Some(row.time_ms)),
                ("speedup", Some(row.speedup)),
                ("power_w", Some(row.power_w)),
                ("throughput_px_s", row.throughput_px_s),
                ("modeled_power_w", row.modeled_power_w),
            ] {
                match (value, num(field)) {
                    (Some(a), Some(b)) => checks.close(&ctx(field), a, b, GOLDEN_REL_TOL),
                    (None, None) => {}
                    (a, b) => checks.check(false, || format!("{}: {a:?} vs {b:?}", ctx(field))),
                }
            }
        }
    }
    for (key, value) in [
        ("ffbp_energy_ratio", fresh.ffbp_energy_ratio),
        ("autofocus_energy_ratio", fresh.autofocus_energy_ratio),
        ("ffbp_parallel_vs_seq", fresh.ffbp_parallel_vs_seq),
        ("autofocus_parallel_vs_seq", fresh.autofocus_parallel_vs_seq),
    ] {
        match table.get(key).and_then(Json::as_f64) {
            Some(want) => checks.close(&format!("golden {key}"), value, want, GOLDEN_REL_TOL),
            None => checks.check(false, || format!("golden: no '{key}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sar_core::c32;

    #[test]
    fn a_flipped_pixel_fails_the_image_check() {
        let reference = ComplexImage::zeros(4, 4);
        let mut broken = reference.clone();
        *broken.at_mut(2, 3) = c32::new(0.0, f32::MIN_POSITIVE);
        let mut checks = Checks::default();
        checks.same_image("identical", Some(&reference.clone()), &reference);
        assert_eq!(checks.failed, 0);
        checks.same_image("broken", Some(&broken), &reference);
        checks.same_image("missing", None, &reference);
        assert_eq!((checks.attempted, checks.failed), (3, 2));
        assert!(checks.failed_share() > 0.0);
    }

    #[test]
    fn one_changed_byte_fails_the_document_check() {
        let mut checks = Checks::default();
        checks.same_bytes("doc", "{\"a\": 1}\n", "{\"a\": 1}\n");
        checks.same_bytes("doc", "{\"a\": 2}\n", "{\"a\": 1}\n");
        assert_eq!((checks.attempted, checks.failed), (2, 1));
        assert!(checks.failures[0].contains("byte 6"));
    }

    #[test]
    fn bounds_bests_and_tolerances_count_failures() {
        let mut checks = Checks::default();
        checks.within("in", 1.0, 2.0, 3.0);
        checks.within("out", 1.0, 4.0, 3.0);
        checks.same_best("agree", Some((0.4, 9.0)), (0.4, 9.0));
        checks.same_best("disagree", Some((0.3, 9.0)), (0.4, 9.0));
        checks.close("tol", 1.0 + 1e-12, 1.0, GOLDEN_REL_TOL);
        checks.close("drift", 1.0 + 1e-6, 1.0, GOLDEN_REL_TOL);
        assert_eq!((checks.attempted, checks.failed), (6, 3));
    }

    #[test]
    fn a_drifted_golden_row_fails() {
        let w = crate::inputs::ffbp(crate::inputs::PAPER_SEED, true);
        let af = crate::inputs::autofocus(crate::inputs::PAPER_SEED, true);
        let fresh = sar_epiphany::table1(&w, &af);
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../results/table1_baseline.json"
        ))
        .expect("the golden file is checked in");
        let golden = Json::parse(&text).unwrap();
        let mut checks = Checks::default();
        golden_table1(&mut checks, &fresh, &golden);
        assert!(checks.attempted > 20);
        assert_eq!(checks.failed, 0, "{:?}", checks.failures);
        let mut drifted = fresh.clone();
        drifted.ffbp[1].time_ms *= 1.0 + 1e-6;
        golden_table1(&mut checks, &drifted, &golden);
        assert_eq!(checks.failed, 1);
    }
}
