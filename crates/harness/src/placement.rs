//! Core placement for the 13-core autofocus pipeline mappings.
//!
//! A [`Placement`] names which core runs which pipeline stage. Ids are
//! written canonically for the 4-column E16G3 mesh (`id = y * 4 + x`);
//! [`Placement::rebased`] renumbers onto wider meshes while preserving
//! every core's `(x, y)` coordinate, so hop counts — and therefore the
//! mesh-energy profile — survive the move. The type lives in the
//! harness (not `sar-epiphany`) so the `autotune` search engine can
//! manipulate placements without depending on the drivers. A placement
//! reaches a run only through the placed mapping
//! (`sar_epiphany::mapping_named_placed`), which hands the same value
//! to its simulator and to its program model.
//!
//! Placements round-trip through JSON (`{"version": 1, "range": ...,
//! "beam": ..., "corr": ...}`): [`Placement::to_json`] /
//! [`Placement::parse`], and [`Placement::resolve`] turns a
//! `--placement` operand — a literal name or `@path/to/file.json` —
//! into a placement or a `CLI003`/`CLI007` diagnostic.

use desim::Json;
use emesh::{Coord, Mesh2D};

use crate::diag::Diagnostic;

/// Columns of the canonical id space: placements are written row-major
/// for the 4-column E16G3 mesh and rebased onto wider meshes.
pub const CANONICAL_COLS: usize = 4;

/// Which core runs which pipeline stage. Indexing: `[block][instance]`
/// with block 0 = `f-`, block 1 = `f+`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Range-interpolator cores.
    pub range: [[usize; 3]; 2],
    /// Beam-interpolator cores.
    pub beam: [[usize; 3]; 2],
    /// Correlation/summation core.
    pub corr: usize,
}

impl Placement {
    /// The paper-style neighbour mapping on the 4x4 mesh: each block's
    /// range column feeds an adjacent beam column, and both beam
    /// columns sit next to the correlator.
    pub fn neighbor() -> Placement {
        // Node ids are row-major on the 4x4 mesh: id = y * 4 + x.
        Placement {
            range: [[0, 4, 8], [3, 7, 11]], // columns x=0 and x=3
            beam: [[1, 5, 9], [2, 6, 10]],  // columns x=1 and x=2
            corr: 13,                       // (x=1, y=3)
        }
    }

    /// A deliberately bad mapping (ablation): producers and consumers
    /// scattered to opposite corners.
    pub fn scattered() -> Placement {
        Placement {
            range: [[0, 10, 5], [15, 1, 12]],
            beam: [[14, 3, 8], [2, 13, 4]],
            corr: 7,
        }
    }

    /// Resolve a `--placement` name: `"neighbor"` or `"scattered"`.
    pub fn named(name: &str) -> Option<Placement> {
        match name {
            "neighbor" => Some(Placement::neighbor()),
            "scattered" => Some(Placement::scattered()),
            _ => None,
        }
    }

    /// Resolve a `--placement` operand: a literal name, or `@path` to
    /// load a placement JSON file. Unknown names are `CLI003`;
    /// unreadable, malformed or invalid files are `CLI007`.
    pub fn resolve(spec: &str) -> Result<Placement, Diagnostic> {
        if let Some(path) = spec.strip_prefix('@') {
            let subject = format!("--placement @{path}");
            let text = std::fs::read_to_string(path).map_err(|e| {
                Diagnostic::hard(
                    "CLI007",
                    subject.clone(),
                    format!("cannot read placement file: {e}"),
                )
            })?;
            Placement::parse(&text).map_err(|e| {
                Diagnostic::hard("CLI007", subject, format!("invalid placement file: {e}"))
            })
        } else {
            Placement::named(spec).ok_or_else(|| {
                Diagnostic::hard(
                    "CLI003",
                    format!("--placement {spec}"),
                    "unknown placement; expected 'neighbor', 'scattered' or '@path/to/placement.json'",
                )
            })
        }
    }

    /// The placement with every occurrence of `dead` replaced by
    /// `spare` — the spare-core remap recovery move. The stage shape
    /// is untouched; only the node id changes.
    #[must_use]
    pub fn remap(&self, dead: usize, spare: usize) -> Placement {
        let sub = |c: usize| if c == dead { spare } else { c };
        Placement {
            range: self.range.map(|col| col.map(sub)),
            beam: self.beam.map(|col| col.map(sub)),
            corr: sub(self.corr),
        }
    }

    /// `(x, y)` of a canonical placement id (4-column row-major).
    fn canonical_xy(c: usize) -> Coord {
        Coord {
            x: (c % CANONICAL_COLS) as u16,
            y: u16::try_from(c / CANONICAL_COLS)
                .expect("placement id fits the u16 coordinate space"),
        }
    }

    /// The placement re-expressed on a `(cols, rows)` mesh. Placement
    /// ids are canonically written row-major for the 4-column E16G3
    /// mesh; rebasing keeps every core's `(x, y)` coordinate — and
    /// therefore every producer-consumer hop count — while renumbering
    /// into the target mesh's row-major id space. Identity on a
    /// 4-column mesh.
    ///
    /// # Panics
    /// If a coordinate falls off the target mesh.
    #[must_use]
    pub fn rebased(&self, cols: u16, rows: u16) -> Placement {
        let mesh = Mesh2D::new(cols, rows);
        let sub = |c: usize| {
            let xy = Placement::canonical_xy(c);
            assert!(
                mesh.contains(xy),
                "placement core {c} at ({},{}) falls off a {cols}x{rows} mesh",
                xy.x,
                xy.y
            );
            mesh.node(xy).raw()
        };
        Placement {
            range: self.range.map(|col| col.map(sub)),
            beam: self.beam.map(|col| col.map(sub)),
            corr: sub(self.corr),
        }
    }

    /// Whether every core's canonical coordinate lies on a
    /// `(cols, rows)` mesh, i.e. [`Placement::rebased`] would succeed.
    pub fn fits(&self, cols: u16, rows: u16) -> bool {
        if cols == 0 || rows == 0 {
            return false;
        }
        let mesh = Mesh2D::new(cols, rows);
        self.cores()
            .iter()
            .all(|&c| mesh.contains(Placement::canonical_xy(c)))
    }

    /// All thirteen distinct cores.
    pub fn cores(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .range
            .iter()
            .chain(self.beam.iter())
            .flatten()
            .copied()
            .collect();
        v.push(self.corr);
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Serialise to the placement-file JSON shape (canonical ids).
    pub fn to_json(&self) -> Json {
        let col = |c: &[usize; 3]| Json::from(c.iter().map(|&v| Json::from(v)).collect::<Vec<_>>());
        let pair = |p: &[[usize; 3]; 2]| Json::from(vec![col(&p[0]), col(&p[1])]);
        Json::obj()
            .with("version", 1u32)
            .with("range", pair(&self.range))
            .with("beam", pair(&self.beam))
            .with("corr", self.corr)
    }

    /// Parse the placement-file JSON shape produced by
    /// [`Placement::to_json`]. Rejects malformed documents, wrong
    /// shapes, and assignments that do not use 13 distinct cores.
    pub fn parse(text: &str) -> Result<Placement, String> {
        let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
        Placement::from_json(&doc)
    }

    /// [`Placement::parse`] for an already-parsed document.
    pub fn from_json(doc: &Json) -> Result<Placement, String> {
        let version = doc
            .get("version")
            .and_then(Json::as_u64)
            .ok_or("missing integer field 'version'")?;
        if version != 1 {
            return Err(format!(
                "unsupported placement version {version} (expected 1)"
            ));
        }
        let id = |v: &Json, what: &str| -> Result<usize, String> {
            let raw = v
                .as_u64()
                .ok_or_else(|| format!("{what} must be a non-negative integer"))?;
            usize::try_from(raw).map_err(|_| format!("{what} does not fit a core id"))
        };
        let stage = |key: &str| -> Result<[[usize; 3]; 2], String> {
            let blocks = doc
                .get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("missing array field '{key}'"))?;
            if blocks.len() != 2 {
                return Err(format!("'{key}' must have 2 blocks, got {}", blocks.len()));
            }
            let mut out = [[0usize; 3]; 2];
            for (bi, block) in blocks.iter().enumerate() {
                let cores = block
                    .as_array()
                    .ok_or_else(|| format!("'{key}[{bi}]' must be an array"))?;
                if cores.len() != 3 {
                    return Err(format!(
                        "'{key}[{bi}]' must have 3 cores, got {}",
                        cores.len()
                    ));
                }
                for (ci, core) in cores.iter().enumerate() {
                    out[bi][ci] = id(core, &format!("'{key}[{bi}][{ci}]'"))?;
                }
            }
            Ok(out)
        };
        let place = Placement {
            range: stage("range")?,
            beam: stage("beam")?,
            corr: id(doc.get("corr").unwrap_or(&Json::Null), "'corr'")?,
        };
        if place.cores().len() != 13 {
            return Err(format!(
                "placement must use 13 distinct cores, got {}",
                place.cores().len()
            ));
        }
        Ok(place)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_resolves_both_hand_placements() {
        assert_eq!(Placement::named("neighbor"), Some(Placement::neighbor()));
        assert_eq!(Placement::named("scattered"), Some(Placement::scattered()));
        assert_eq!(Placement::named("bogus"), None);
    }

    #[test]
    fn json_round_trips_the_hand_placements() {
        for p in [Placement::neighbor(), Placement::scattered()] {
            let text = p.to_json().to_string_pretty();
            assert_eq!(Placement::parse(&text), Ok(p));
        }
    }

    #[test]
    fn parse_rejects_duplicate_cores_and_bad_shapes() {
        let mut dup = Placement::neighbor();
        dup.corr = dup.range[0][0];
        let text = dup.to_json().to_string_pretty();
        assert!(Placement::parse(&text).unwrap_err().contains("13 distinct"));
        assert!(Placement::parse("not json").unwrap_err().contains("JSON"));
        assert!(Placement::parse("{\"version\": 2}")
            .unwrap_err()
            .contains("version"));
        assert!(Placement::parse(
            "{\"version\": 1, \"range\": [[0,1,2]], \"beam\": [[3,4,5],[6,7,8]], \"corr\": 9}"
        )
        .unwrap_err()
        .contains("2 blocks"));
    }

    #[test]
    fn fits_tracks_the_canonical_coordinates() {
        assert!(Placement::neighbor().fits(4, 4));
        assert!(Placement::neighbor().fits(8, 8));
        // Core 15 sits at (3, 3): off a 4x3 mesh.
        assert!(!Placement::scattered().fits(4, 3));
    }

    #[test]
    fn resolve_distinguishes_unknown_names_from_bad_files() {
        assert_eq!(Placement::resolve("neighbor"), Ok(Placement::neighbor()));
        assert_eq!(Placement::resolve("bogus").unwrap_err().code, "CLI003");
        assert_eq!(
            Placement::resolve("@/nonexistent/placement.json")
                .unwrap_err()
                .code,
            "CLI007"
        );
    }
}
