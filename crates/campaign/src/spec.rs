//! The campaign spec: a declarative tuning matrix and its cells.
//!
//! A spec is one JSON object:
//!
//! ```json
//! {
//!   "campaign": "nightly",
//!   "stencils": ["j3d7pt", "cheby"],
//!   "archs": ["a100"],
//!   "tuners": ["cstuner", "random"],
//!   "budgets_s": [30.0],
//!   "seeds": [0, 1, 2],
//!   "quick": false,
//!   "fault": "off"
//! }
//! ```
//!
//! `campaign` and `stencils` are required; the other axes default to the
//! CLI's defaults (`archs` → `["a100"]`, `tuners` → `["cstuner"]`,
//! `budgets_s` → one quick/full default budget). Repeats come from an
//! explicit `seeds` list or `"repeats": N` (seeds `0..N`) — one of the
//! two, never both. `fault` follows the serve protocol grammar: `"off"`
//! pins a fault-free testbed, `"env"` (the default) follows the process
//! environment, `{"seed": N}` forces the hostile profile.
//!
//! Unknown keys are rejected with the CLI's strict-flag style (a `did
//! you mean` hint when the key is a near-miss), and every axis value is
//! validated through [`TuneRequest::build`], so spec errors are exactly
//! the errors `cstuner tune` would print.
//!
//! [`CampaignSpec::cells`] expands the matrix in a fixed order
//! (stencil-major, then arch, tuner, budget, seed). Each [`Cell`]
//! carries an FNV-1a content hash over its fully-resolved request —
//! stencil, arch, tuner, seed, budget bits, quick flag and fault knob —
//! which suffixes the cell's archive name. That makes archive entries
//! self-invalidating: edit any knob and the hash (hence the name)
//! changes, so a resumed run never trusts a summary produced under a
//! different configuration.

use cst_baselines::zoo::nearest;
use cst_serve::proto::parse_fault;
use cst_serve::{FaultSpec, TuneRequest};
use cst_space::hash::fnv1a;
use cst_telemetry::json::{self, Value};
use std::fmt::Write as _;

/// Every key a campaign spec may carry.
pub const SPEC_KEYS: [&str; 10] = [
    "campaign",
    "stencils",
    "archs",
    "tuners",
    "budgets_s",
    "seeds",
    "repeats",
    "quick",
    "fault",
    "warm",
];

/// Version folded into every cell identity hash. Bump when the identity
/// fields or their encoding change, so stale archives re-run instead of
/// being mistaken for current results.
const CELL_IDENT_VERSION: u64 = 1;

/// A declarative tuning matrix. Construction normalizes `repeats` into
/// an explicit seed list, so two specs that expand to the same cells
/// compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (filesystem-safe; names the default store).
    pub name: String,
    /// Stencil axis (validated against the suite).
    pub stencils: Vec<String>,
    /// Architecture axis (`a100|v100|small`).
    pub archs: Vec<String>,
    /// Tuner axis (canonical zoo flag names).
    pub tuners: Vec<String>,
    /// Iso-time budget axis, virtual seconds.
    pub budgets_s: Vec<f64>,
    /// Seed axis — the repeats every (stencil, arch, tuner, budget)
    /// scenario is aggregated over.
    pub seeds: Vec<u64>,
    /// Reduced-scale runs (the CLI's `--quick`).
    pub quick: bool,
    /// Fault knob for every cell; `None` follows the environment.
    pub fault: Option<FaultSpec>,
    /// Warm-start knob for every cell: a journal-store directory whose
    /// `kb.json` seeds each session (see `cst-transfer`). `None` — the
    /// default — runs every cell cold.
    pub warm: Option<String>,
}

/// The non-empty array under `key`, or `None` when the key is absent or
/// null. `read` takes one entry; the type errors say that the entries
/// must be `entries` and the value an array of `array`.
fn list<T>(
    v: &Value,
    key: &str,
    read: impl Fn(&Value) -> Option<T>,
    entries: &str,
    array: &str,
) -> Result<Option<Vec<T>>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Arr(items)) if items.is_empty() => {
            Err(format!("`{key}` must be a non-empty array"))
        }
        Some(Value::Arr(items)) => items
            .iter()
            .map(|x| {
                read(x)
                    .ok_or_else(|| format!("`{key}` entries must be {entries}, got {}", x.kind()))
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Some),
        Some(x) => Err(format!("`{key}` must be an array of {array}, got {}", x.kind())),
    }
}

fn reject_duplicates<T: PartialEq + std::fmt::Display>(key: &str, xs: &[T]) -> Result<(), String> {
    for (i, x) in xs.iter().enumerate() {
        if xs[..i].contains(x) {
            return Err(format!("duplicate `{key}` entry `{x}` would collapse two cells into one"));
        }
    }
    Ok(())
}

impl CampaignSpec {
    /// Parse and validate a spec document. Every error is one line in
    /// the CLI's exit-2 style; unknown keys get a `did you mean` hint.
    pub fn from_json(text: &str) -> Result<CampaignSpec, String> {
        let v = json::parse(text).map_err(|e| format!("malformed campaign spec: {e}"))?;
        let Value::Obj(fields) = &v else {
            return Err(format!("campaign spec must be a JSON object, got {}", v.kind()));
        };
        for (key, _) in fields {
            if SPEC_KEYS.contains(&key.as_str()) {
                continue;
            }
            return Err(match nearest(key, SPEC_KEYS) {
                Some(near) => {
                    format!("unknown key `{key}` in campaign spec; did you mean `{near}`?")
                }
                None => format!(
                    "unknown key `{key}` in campaign spec; supported: {}",
                    SPEC_KEYS.join(", ")
                ),
            });
        }
        let name = v
            .get("campaign")
            .and_then(Value::as_str)
            .ok_or("campaign spec requires a string `campaign` name")?;
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || "-_".contains(c)) {
            return Err(format!(
                "campaign name must be non-empty and filesystem-safe (alphanumeric, `-`, `_`), \
                 got `{name}`"
            ));
        }
        let quick = match v.get("quick") {
            None | Some(Value::Null) => false,
            Some(Value::Bool(b)) => *b,
            Some(x) => return Err(format!("`quick` must be a bool, got {}", x.kind())),
        };
        let strings = |key| list(&v, key, |x| x.as_str().map(str::to_string), "strings", "strings");
        let stencils =
            strings("stencils")?.ok_or("campaign spec requires a non-empty `stencils` array")?;
        let archs = strings("archs")?.unwrap_or_else(|| vec!["a100".to_string()]);
        let tuners = strings("tuners")?.unwrap_or_else(|| vec!["cstuner".to_string()]);
        let budgets_s = list(&v, "budgets_s", Value::as_f64, "numbers", "numbers")?
            .unwrap_or_else(|| vec![if quick { 30.0 } else { 100.0 }]);
        let repeats = match v.get("repeats") {
            None | Some(Value::Null) => None,
            Some(x) => Some(x.as_u64().ok_or_else(|| {
                format!("`repeats` must be a positive integer, got {}", x.kind())
            })?),
        };
        let seeds = list(&v, "seeds", Value::as_u64, "integers from 0 to 2^53 - 1", "integers")?;
        let seeds = match (seeds, repeats) {
            (Some(_), Some(_)) => {
                return Err("give `seeds` or `repeats`, not both".to_string());
            }
            (Some(seeds), None) => seeds,
            (None, Some(0)) => return Err("`repeats` must be at least 1".to_string()),
            (None, Some(n)) => (0..n).collect(),
            (None, None) => vec![0],
        };
        let fault = parse_fault(&v)?;
        let warm = match v.get("warm") {
            None | Some(Value::Null) => None,
            Some(Value::Str(s)) if !s.is_empty() => Some(s.clone()),
            Some(Value::Str(_)) => return Err("`warm` must be a non-empty store path".to_string()),
            Some(x) => return Err(format!("`warm` must be a string store path, got {}", x.kind())),
        };
        reject_duplicates("stencils", &stencils)?;
        reject_duplicates("archs", &archs)?;
        reject_duplicates("tuners", &tuners)?;
        reject_duplicates("budgets_s", &budgets_s)?;
        reject_duplicates("seeds", &seeds)?;
        let spec = CampaignSpec {
            name: name.to_string(),
            stencils,
            archs,
            tuners,
            budgets_s,
            seeds,
            quick,
            fault,
            warm,
        };
        // Expand eagerly: a spec that parses is runnable, and invalid
        // axis values surface here with the CLI's own messages.
        spec.cells()?;
        Ok(spec)
    }

    /// Canonical single-line JSON form (fixed key order, journal float
    /// formatting). `repeats` always normalizes to an explicit `seeds`
    /// list, and the fault knob is always written (`"env"` for `None`),
    /// so `from_json(to_json(s)) == s`.
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(256);
        o.push_str("{\"campaign\":");
        json::write_escaped(&mut o, &self.name);
        for (key, list) in
            [("stencils", &self.stencils), ("archs", &self.archs), ("tuners", &self.tuners)]
        {
            let _ = write!(o, ",\"{key}\":[");
            json::write_joined(&mut o, list, |o, x| json::write_escaped(o, x));
            o.push(']');
        }
        o.push_str(",\"budgets_s\":[");
        json::write_joined(&mut o, &self.budgets_s, |o, &b| json::write_f64(o, b));
        o.push_str("],\"seeds\":[");
        json::write_joined(&mut o, &self.seeds, |o, s| {
            let _ = write!(o, "{s}");
        });
        let _ = write!(o, "],\"quick\":{}", self.quick);
        match self.fault {
            None => o.push_str(",\"fault\":\"env\""),
            Some(FaultSpec::Off) => o.push_str(",\"fault\":\"off\""),
            Some(FaultSpec::Hostile { seed }) => {
                let _ = write!(o, ",\"fault\":{{\"seed\":{seed}}}");
            }
        }
        // Conditional so cold specs keep their legacy canonical bytes.
        if let Some(warm) = &self.warm {
            o.push_str(",\"warm\":");
            json::write_escaped(&mut o, warm);
        }
        o.push('}');
        o
    }

    /// Expand the matrix into its deterministic cell list: stencil-major,
    /// then arch, tuner, budget, seed. Each combination validates through
    /// [`TuneRequest::build`], so the error for a bad axis value is the
    /// CLI's own message.
    pub fn cells(&self) -> Result<Vec<Cell>, String> {
        let mut cells =
            Vec::with_capacity(self.stencils.len() * self.archs.len() * self.tuners.len());
        for stencil in &self.stencils {
            for arch in &self.archs {
                for tuner in &self.tuners {
                    for &budget in &self.budgets_s {
                        for &seed in &self.seeds {
                            let mut request = TuneRequest::build(
                                Some(stencil),
                                Some(arch),
                                Some(tuner),
                                Some(seed),
                                Some(budget),
                                self.quick,
                                self.fault,
                            )?;
                            request.warm = self.warm.clone();
                            cells.push(Cell::new(request));
                        }
                    }
                }
            }
        }
        Ok(cells)
    }
}

/// One expanded matrix cell: a fully-resolved tuning request plus its
/// content-hash identity.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// The validated request this cell runs.
    pub request: TuneRequest,
    /// FNV-1a content hash over every request field (plus the identity
    /// format version). Two cells share an id iff they would run the
    /// exact same session.
    pub id: u64,
}

/// Budget rendered filesystem-safe: the canonical float text with `.`
/// replaced by `p` (`6.0` → `6p0`), so cell names stay one dash-separated
/// token per axis.
fn budget_token(budget_s: f64) -> String {
    let mut s = String::new();
    json::write_f64(&mut s, budget_s);
    s.replace('.', "p")
}

impl Cell {
    /// Wrap a validated request, computing its identity hash.
    pub fn new(request: TuneRequest) -> Cell {
        let mut bytes = CELL_IDENT_VERSION.to_le_bytes().to_vec();
        // Length-prefix the strings so ("ab","c") and ("a","bc") differ.
        for s in [&request.stencil, &request.arch, &request.tuner] {
            bytes.extend((s.len() as u64).to_le_bytes());
            bytes.extend(s.as_bytes());
        }
        bytes.extend(request.seed.to_le_bytes());
        bytes.extend(request.budget_s.to_bits().to_le_bytes());
        bytes.push(request.quick as u8);
        match request.fault {
            None => bytes.push(0),
            Some(FaultSpec::Off) => bytes.push(1),
            Some(FaultSpec::Hostile { seed }) => {
                bytes.push(2);
                bytes.extend(seed.to_le_bytes());
            }
        }
        // Folded only when present, so cold cells keep the ids (hence
        // archive names) they had before the warm knob existed.
        if let Some(warm) = &request.warm {
            bytes.push(3);
            bytes.extend((warm.len() as u64).to_le_bytes());
            bytes.extend(warm.as_bytes());
        }
        Cell { request, id: fnv1a(bytes) }
    }

    /// The cell's archive name:
    /// `<stencil>-<arch>-<tuner>-b<budget>-s<seed>-<id>`. Human-scannable
    /// up front, content-addressed at the end — a summary under this name
    /// is valid for exactly this request.
    pub fn name(&self) -> String {
        format!(
            "{}-{}-{}-b{}-s{}-{:016x}",
            self.request.stencil,
            self.request.arch,
            self.request.tuner,
            budget_token(self.request.budget_s),
            self.request.seed,
            self.id
        )
    }

    /// The scenario this cell repeats for: everything but the seed.
    /// Reporting aggregates cells scenario-by-scenario.
    pub fn scenario(&self) -> String {
        format!(
            "{}-{}-{}-b{}",
            self.request.stencil,
            self.request.arch,
            self.request.tuner,
            budget_token(self.request.budget_s)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_text() -> String {
        r#"{
            "campaign": "smoke",
            "stencils": ["j3d7pt"],
            "archs": ["a100"],
            "tuners": ["cstuner", "random"],
            "budgets_s": [6.0],
            "seeds": [0, 1],
            "quick": true,
            "fault": "off"
        }"#
        .to_string()
    }

    #[test]
    fn parses_the_smoke_spec_and_applies_defaults() {
        let spec = CampaignSpec::from_json(&smoke_text()).unwrap();
        assert_eq!(spec.name, "smoke");
        assert_eq!(spec.tuners, ["cstuner", "random"]);
        assert_eq!(spec.seeds, [0, 1]);
        assert_eq!(spec.fault, Some(FaultSpec::Off));
        // Minimal spec: only name + stencils; everything else defaults.
        let min = CampaignSpec::from_json(r#"{"campaign":"m","stencils":["cheby"]}"#).unwrap();
        assert_eq!(min.archs, ["a100"]);
        assert_eq!(min.tuners, ["cstuner"]);
        assert_eq!(min.budgets_s, [100.0]);
        assert_eq!(min.seeds, [0]);
        assert_eq!(min.fault, None);
        let quick =
            CampaignSpec::from_json(r#"{"campaign":"m","stencils":["cheby"],"quick":true}"#)
                .unwrap();
        assert_eq!(quick.budgets_s, [30.0]);
    }

    #[test]
    fn repeats_normalizes_to_seeds() {
        let spec = CampaignSpec::from_json(r#"{"campaign":"r","stencils":["j3d7pt"],"repeats":3}"#)
            .unwrap();
        assert_eq!(spec.seeds, [0, 1, 2]);
        let err = CampaignSpec::from_json(
            r#"{"campaign":"r","stencils":["j3d7pt"],"repeats":2,"seeds":[5]}"#,
        )
        .unwrap_err();
        assert!(err.contains("not both"), "{err}");
        let err = CampaignSpec::from_json(r#"{"campaign":"r","stencils":["j3d7pt"],"repeats":0}"#)
            .unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn unknown_keys_get_a_did_you_mean_hint() {
        let err = CampaignSpec::from_json(r#"{"campaign":"x","stencil":["j3d7pt"]}"#).unwrap_err();
        assert!(err.contains("unknown key `stencil`"), "{err}");
        assert!(err.contains("did you mean `stencils`?"), "{err}");
        let err = CampaignSpec::from_json(r#"{"campaign":"x","stencils":["j3d7pt"],"zzzzzz":1}"#)
            .unwrap_err();
        assert!(err.contains("supported:"), "{err}");
    }

    #[test]
    fn axis_values_fail_with_the_cli_messages() {
        let err = CampaignSpec::from_json(r#"{"campaign":"x","stencils":["nope"]}"#).unwrap_err();
        assert!(err.contains("unknown stencil `nope`"), "{err}");
        let err =
            CampaignSpec::from_json(r#"{"campaign":"x","stencils":["j3d7pt"],"archs":["h100"]}"#)
                .unwrap_err();
        assert!(err.contains("unknown arch `h100`"), "{err}");
        let err = CampaignSpec::from_json(
            r#"{"campaign":"x","stencils":["j3d7pt"],"tuners":["ytuner"]}"#,
        )
        .unwrap_err();
        assert!(err.contains("unknown tuner `ytuner`"), "{err}");
        let err =
            CampaignSpec::from_json(r#"{"campaign":"x","stencils":["j3d7pt"],"budgets_s":[-1.0]}"#)
                .unwrap_err();
        assert!(err.contains("positive"), "{err}");
    }

    #[test]
    fn list_type_errors_name_the_key_and_the_kind() {
        let err = |rest: &str| {
            CampaignSpec::from_json(&format!(r#"{{"campaign":"x"{rest}}}"#)).unwrap_err()
        };
        assert_eq!(err(r#","stencils":[]"#), "`stencils` must be a non-empty array");
        assert_eq!(
            err(r#","stencils":"j3d7pt""#),
            "`stencils` must be an array of strings, got string"
        );
        assert_eq!(err(r#","stencils":[1]"#), "`stencils` entries must be strings, got number");
        let err = |rest: &str| err(&format!(r#","stencils":["j3d7pt"]{rest}"#));
        assert_eq!(err(r#","archs":{}"#), "`archs` must be an array of strings, got object");
        assert_eq!(err(r#","tuners":[null]"#), "`tuners` entries must be strings, got null");
        assert_eq!(err(r#","budgets_s":[]"#), "`budgets_s` must be a non-empty array");
        assert_eq!(err(r#","budgets_s":6"#), "`budgets_s` must be an array of numbers, got number");
        assert_eq!(err(r#","budgets_s":["6"]"#), "`budgets_s` entries must be numbers, got string");
        assert_eq!(err(r#","seeds":true"#), "`seeds` must be an array of integers, got bool");
        assert_eq!(
            err(r#","seeds":[[0]]"#),
            "`seeds` entries must be integers from 0 to 2^53 - 1, got array"
        );
    }

    #[test]
    fn duplicate_axis_entries_are_rejected() {
        let err = CampaignSpec::from_json(r#"{"campaign":"x","stencils":["j3d7pt","j3d7pt"]}"#)
            .unwrap_err();
        assert!(err.contains("duplicate `stencils` entry"), "{err}");
        let err =
            CampaignSpec::from_json(r#"{"campaign":"x","stencils":["j3d7pt"],"seeds":[1,1]}"#)
                .unwrap_err();
        assert!(err.contains("duplicate `seeds`"), "{err}");
    }

    #[test]
    fn expansion_order_is_deterministic_and_seed_minor() {
        let spec = CampaignSpec::from_json(&smoke_text()).unwrap();
        let cells = spec.cells().unwrap();
        assert_eq!(cells.len(), 4);
        let names: Vec<String> = cells.iter().map(|c| c.name()).collect();
        // Seed is the innermost axis: the two cstuner seeds are adjacent.
        assert!(names[0].starts_with("j3d7pt-a100-cstuner-b6p0-s0-"), "{}", names[0]);
        assert!(names[1].starts_with("j3d7pt-a100-cstuner-b6p0-s1-"), "{}", names[1]);
        assert!(names[2].starts_with("j3d7pt-a100-random-b6p0-s0-"), "{}", names[2]);
        assert_eq!(cells, spec.cells().unwrap());
    }

    #[test]
    fn cell_identity_tracks_every_request_field() {
        let spec = CampaignSpec::from_json(&smoke_text()).unwrap();
        let base = spec.cells().unwrap();
        // Same spec, same ids.
        assert_eq!(
            base.iter().map(|c| c.id).collect::<Vec<_>>(),
            spec.cells().unwrap().iter().map(|c| c.id).collect::<Vec<_>>()
        );
        // Different seeds, budgets, quick and fault all shift the id.
        let mut tweaked = spec.clone();
        tweaked.budgets_s = vec![7.0];
        assert_ne!(base[0].id, tweaked.cells().unwrap()[0].id);
        let mut tweaked = spec.clone();
        tweaked.quick = false;
        assert_ne!(base[0].id, tweaked.cells().unwrap()[0].id);
        let mut tweaked = spec.clone();
        tweaked.fault = Some(FaultSpec::Hostile { seed: 7 });
        assert_ne!(base[0].id, tweaked.cells().unwrap()[0].id);
        let mut tweaked = spec.clone();
        tweaked.fault = None;
        assert_ne!(base[0].id, tweaked.cells().unwrap()[0].id);
        let mut tweaked = spec.clone();
        tweaked.warm = Some("results/obs".to_string());
        assert_ne!(base[0].id, tweaked.cells().unwrap()[0].id);
    }

    #[test]
    fn warm_knob_parses_round_trips_and_reaches_every_cell() {
        // Absent warm: field defaults to None and stays out of the
        // canonical JSON, so pre-warm specs keep their exact bytes.
        let cold = CampaignSpec::from_json(&smoke_text()).unwrap();
        assert_eq!(cold.warm, None);
        assert!(!cold.to_json().contains("warm"));
        let text = r#"{"campaign":"w","stencils":["j3d7pt"],"warm":"results/obs"}"#;
        let spec = CampaignSpec::from_json(text).unwrap();
        assert_eq!(spec.warm.as_deref(), Some("results/obs"));
        let j = spec.to_json();
        assert!(j.contains("\"warm\":\"results/obs\""), "{j}");
        assert_eq!(CampaignSpec::from_json(&j).unwrap(), spec);
        for cell in spec.cells().unwrap() {
            assert_eq!(cell.request.warm.as_deref(), Some("results/obs"));
        }
        let err = CampaignSpec::from_json(r#"{"campaign":"w","stencils":["j3d7pt"],"warm":""}"#)
            .unwrap_err();
        assert!(err.contains("non-empty"), "{err}");
        let err = CampaignSpec::from_json(r#"{"campaign":"w","stencils":["j3d7pt"],"warm":3}"#)
            .unwrap_err();
        assert!(err.contains("must be a string"), "{err}");
    }

    #[test]
    fn scenario_groups_cells_across_seeds() {
        let spec = CampaignSpec::from_json(&smoke_text()).unwrap();
        let cells = spec.cells().unwrap();
        assert_eq!(cells[0].scenario(), cells[1].scenario());
        assert_ne!(cells[0].scenario(), cells[2].scenario());
        assert_eq!(cells[0].scenario(), "j3d7pt-a100-cstuner-b6p0");
    }

    #[test]
    fn json_round_trips_exactly() {
        let spec = CampaignSpec::from_json(&smoke_text()).unwrap();
        let j = spec.to_json();
        let back = CampaignSpec::from_json(&j).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), j);
        // The hostile-fault and env-fault forms round-trip too.
        for fault in [r#""env""#, r#"{"seed":7}"#] {
            let text = format!(r#"{{"campaign":"f","stencils":["j3d7pt"],"fault":{fault}}}"#);
            let spec = CampaignSpec::from_json(&text).unwrap();
            assert_eq!(CampaignSpec::from_json(&spec.to_json()).unwrap(), spec);
        }
    }

    #[test]
    fn bad_documents_are_one_line_errors() {
        assert!(CampaignSpec::from_json("{").is_err());
        let err = CampaignSpec::from_json("[1]").unwrap_err();
        assert!(err.contains("must be a JSON object"), "{err}");
        let err = CampaignSpec::from_json("{\"campaign\":\"x\"}").unwrap_err();
        assert!(err.contains("requires a non-empty `stencils`"), "{err}");
        let err =
            CampaignSpec::from_json(r#"{"campaign":"a b","stencils":["j3d7pt"]}"#).unwrap_err();
        assert!(err.contains("filesystem-safe"), "{err}");
    }
}
