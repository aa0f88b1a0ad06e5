//! JSON (de)serialization for [`FlowConfig`] and its sub-configs, so
//! sweep configurations can be loaded from files.
//!
//! The build container has no crates.io access, so `serde` derives are not
//! available; the [`JsonConfig`] trait plays the same role over the
//! in-tree [`smt_base::json`] reader/writer. Semantics match a
//! `#[serde(default, deny_unknown_fields)]` derive:
//!
//! * every field is optional and falls back to its `Default` value, so a
//!   sweep file only states the knobs it changes;
//! * unknown keys are rejected (typo protection);
//! * time fields are picoseconds, voltage fields are millivolts (suffixed
//!   `_ps` / `_mv` in the JSON).
//!
//! ```
//! use smt_core::engine::{FlowConfig, Technique};
//!
//! let cfg = FlowConfig::from_json(r#"{
//!     // one Table-1 circuit-A operating point
//!     "technique": "improved",
//!     "period_margin": 1.22,
//!     "dualvth": {"max_high_fraction": 0.60},
//!     "cluster": {"bounce_limit_mv": 30.0}
//! }"#).unwrap();
//! assert_eq!(cfg.technique, Technique::ImprovedSmt);
//! assert_eq!(cfg.cluster.bounce_limit.millivolts(), 30.0);
//! ```

use crate::cluster::ClusterConfig;
use crate::dualvth::DualVthConfig;
use crate::engine::{FlowConfig, Technique};
use smt_base::json::{self, Json, JsonError};
use smt_base::units::{Time, Volt};
use smt_cells::corner::{Corner, CornerSet};
use smt_place::PlacerConfig;
use smt_route::{CtsConfig, RouteConfig};
use smt_sta::StaConfig;
use std::collections::BTreeMap;

/// Configuration (de)serialization failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The document is not valid JSON.
    Json(JsonError),
    /// A field has the wrong type, an invalid value, or is unknown.
    Field {
        /// Dotted path to the offending field.
        path: String,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Json(e) => write!(f, "{e}"),
            ConfigError::Field { path, message } => write!(f, "config field `{path}`: {message}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<JsonError> for ConfigError {
    fn from(e: JsonError) -> Self {
        ConfigError::Json(e)
    }
}

/// JSON load/store for a config struct: the serde-replacement surface.
pub trait JsonConfig: Sized + Default {
    /// Encodes the full config as a [`Json`] object.
    fn to_json_value(&self) -> Json;

    /// Decodes from a [`Json`] object; missing fields keep defaults.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Field`] on type mismatches or unknown keys.
    fn from_json_value(value: &Json, path: &str) -> Result<Self, ConfigError>;

    /// Renders the config as a JSON string.
    fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    /// Parses a config from a JSON string.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] on malformed JSON, type mismatches or unknown keys.
    fn from_json(text: &str) -> Result<Self, ConfigError> {
        Self::from_json_value(&json::parse(text)?, "")
    }
}

// ---------------------------------------------------------------------------
// Field-reading helpers
// ---------------------------------------------------------------------------

struct Fields<'a> {
    map: &'a BTreeMap<String, Json>,
    path: &'a str,
    seen: Vec<&'a str>,
}

impl<'a> Fields<'a> {
    fn new(value: &'a Json, path: &'a str) -> Result<Self, ConfigError> {
        let map = value.as_obj().ok_or_else(|| ConfigError::Field {
            path: display_path(path, ""),
            message: "expected a JSON object".to_owned(),
        })?;
        Ok(Fields {
            map,
            path,
            seen: Vec::new(),
        })
    }

    fn take(&mut self, key: &'a str) -> Option<&'a Json> {
        self.seen.push(key);
        self.map.get(key)
    }

    fn field<T>(
        &mut self,
        key: &'a str,
        convert: impl FnOnce(&Json) -> Option<T>,
        expected: &str,
        slot: &mut T,
    ) -> Result<(), ConfigError> {
        if let Some(v) = self.take(key) {
            *slot = convert(v).ok_or_else(|| ConfigError::Field {
                path: display_path(self.path, key),
                message: format!("expected {expected}, got `{}`", v.render()),
            })?;
        }
        Ok(())
    }

    fn f64(&mut self, key: &'a str, slot: &mut f64) -> Result<(), ConfigError> {
        self.field(key, Json::as_f64, "a number", slot)
    }

    fn usize(&mut self, key: &'a str, slot: &mut usize) -> Result<(), ConfigError> {
        self.field(key, Json::as_usize, "a non-negative integer", slot)
    }

    fn u64(&mut self, key: &'a str, slot: &mut u64) -> Result<(), ConfigError> {
        // Accepts the decimal-string spelling `u64_json` emits for values
        // above 2^53 (not exactly representable as JSON numbers).
        self.field(
            key,
            |v| {
                v.as_u64()
                    .or_else(|| v.as_str().and_then(|s| s.parse().ok()))
            },
            "a non-negative integer",
            slot,
        )
    }

    fn bool(&mut self, key: &'a str, slot: &mut bool) -> Result<(), ConfigError> {
        self.field(key, Json::as_bool, "a boolean", slot)
    }

    fn time_ps(&mut self, key: &'a str, slot: &mut Time) -> Result<(), ConfigError> {
        self.field(key, |v| v.as_f64().map(Time::new), "a number (ps)", slot)
    }

    fn sub<T: JsonConfig>(&mut self, key: &'a str, slot: &mut T) -> Result<(), ConfigError> {
        if let Some(v) = self.take(key) {
            let sub_path = display_path(self.path, key);
            *slot = T::from_json_value(v, &sub_path)?;
        }
        Ok(())
    }

    /// Rejects keys that no field consumed.
    fn deny_unknown(self) -> Result<(), ConfigError> {
        for key in self.map.keys() {
            if !self.seen.contains(&key.as_str()) {
                return Err(ConfigError::Field {
                    path: display_path(self.path, key),
                    message: "unknown field".to_owned(),
                });
            }
        }
        Ok(())
    }
}

fn display_path(path: &str, key: &str) -> String {
    match (path.is_empty(), key.is_empty()) {
        (true, true) => "<root>".to_owned(),
        (true, false) => key.to_owned(),
        (false, true) => path.to_owned(),
        (false, false) => format!("{path}.{key}"),
    }
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

/// u64 values above 2^53 lose precision as JSON numbers; emit those as
/// decimal strings (the readers accept both spellings).
fn u64_json(v: u64) -> Json {
    if v <= (1u64 << 53) {
        num(v as f64)
    } else {
        Json::Str(v.to_string())
    }
}

// ---------------------------------------------------------------------------
// Technique
// ---------------------------------------------------------------------------

impl Technique {
    /// Stable JSON spelling (`"dualvth"`, `"conventional"`, `"improved"`).
    pub fn as_json_str(self) -> &'static str {
        match self {
            Technique::DualVth => "dualvth",
            Technique::ConventionalSmt => "conventional",
            Technique::ImprovedSmt => "improved",
        }
    }

    /// Parses the JSON spelling, tolerating the display names too.
    ///
    /// # Errors
    ///
    /// Returns the unrecognised input back.
    pub fn parse_json_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "dualvth" | "dual-vth" | "dual_vth" => Ok(Technique::DualVth),
            "conventional" | "conventional-smt" => Ok(Technique::ConventionalSmt),
            "improved" | "improved-smt" => Ok(Technique::ImprovedSmt),
            other => Err(format!(
                "unknown technique `{other}` (expected dualvth | conventional | improved)"
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// Sub-config impls
// ---------------------------------------------------------------------------

impl JsonConfig for StaConfig {
    fn to_json_value(&self) -> Json {
        Json::Obj(BTreeMap::from([
            ("clock_period_ps".to_owned(), num(self.clock_period.ps())),
            ("input_delay_ps".to_owned(), num(self.input_delay.ps())),
            ("output_margin_ps".to_owned(), num(self.output_margin.ps())),
            ("clock_skew_ps".to_owned(), num(self.clock_skew.ps())),
            ("source_slew_ps".to_owned(), num(self.source_slew.ps())),
        ]))
    }

    fn from_json_value(value: &Json, path: &str) -> Result<Self, ConfigError> {
        let mut cfg = StaConfig::default();
        let mut f = Fields::new(value, path)?;
        f.time_ps("clock_period_ps", &mut cfg.clock_period)?;
        f.time_ps("input_delay_ps", &mut cfg.input_delay)?;
        f.time_ps("output_margin_ps", &mut cfg.output_margin)?;
        f.time_ps("clock_skew_ps", &mut cfg.clock_skew)?;
        f.time_ps("source_slew_ps", &mut cfg.source_slew)?;
        f.deny_unknown()?;
        Ok(cfg)
    }
}

impl JsonConfig for DualVthConfig {
    fn to_json_value(&self) -> Json {
        let mut m = BTreeMap::from([
            ("slack_margin_ps".to_owned(), num(self.slack_margin.ps())),
            ("max_passes".to_owned(), num(self.max_passes as f64)),
            ("include_ffs".to_owned(), Json::Bool(self.include_ffs)),
            ("low_vth_derate".to_owned(), num(self.low_vth_derate)),
        ]);
        if let Some(fr) = self.max_high_fraction {
            m.insert("max_high_fraction".to_owned(), num(fr));
        }
        Json::Obj(m)
    }

    fn from_json_value(value: &Json, path: &str) -> Result<Self, ConfigError> {
        let mut cfg = DualVthConfig::default();
        let mut f = Fields::new(value, path)?;
        f.time_ps("slack_margin_ps", &mut cfg.slack_margin)?;
        f.usize("max_passes", &mut cfg.max_passes)?;
        f.bool("include_ffs", &mut cfg.include_ffs)?;
        f.f64("low_vth_derate", &mut cfg.low_vth_derate)?;
        if let Some(v) = f.take("max_high_fraction") {
            cfg.max_high_fraction = match v {
                Json::Null => None,
                other => Some(other.as_f64().ok_or_else(|| ConfigError::Field {
                    path: display_path(path, "max_high_fraction"),
                    message: "expected a number or null".to_owned(),
                })?),
            };
        }
        f.deny_unknown()?;
        Ok(cfg)
    }
}

impl JsonConfig for ClusterConfig {
    fn to_json_value(&self) -> Json {
        Json::Obj(BTreeMap::from([
            (
                "bounce_limit_mv".to_owned(),
                num(self.bounce_limit.millivolts()),
            ),
            (
                "max_vgnd_length_um".to_owned(),
                num(self.max_vgnd_length_um),
            ),
            (
                "max_cells_per_switch".to_owned(),
                num(self.max_cells_per_switch as f64),
            ),
            ("length_detour".to_owned(), num(self.length_detour)),
        ]))
    }

    fn from_json_value(value: &Json, path: &str) -> Result<Self, ConfigError> {
        let mut cfg = ClusterConfig::default();
        let mut f = Fields::new(value, path)?;
        f.field(
            "bounce_limit_mv",
            |v| v.as_f64().map(Volt::from_millivolts),
            "a number (mV)",
            &mut cfg.bounce_limit,
        )?;
        f.f64("max_vgnd_length_um", &mut cfg.max_vgnd_length_um)?;
        f.usize("max_cells_per_switch", &mut cfg.max_cells_per_switch)?;
        f.f64("length_detour", &mut cfg.length_detour)?;
        f.deny_unknown()?;
        Ok(cfg)
    }
}

impl JsonConfig for PlacerConfig {
    fn to_json_value(&self) -> Json {
        Json::Obj(BTreeMap::from([
            ("utilization".to_owned(), num(self.utilization)),
            ("min_partition".to_owned(), num(self.min_partition as f64)),
            (
                "anneal_moves_per_cell".to_owned(),
                num(self.anneal_moves_per_cell as f64),
            ),
            ("seed".to_owned(), u64_json(self.seed)),
            ("anneal_window".to_owned(), num(self.anneal_window as f64)),
        ]))
    }

    fn from_json_value(value: &Json, path: &str) -> Result<Self, ConfigError> {
        let mut cfg = PlacerConfig::default();
        let mut f = Fields::new(value, path)?;
        f.f64("utilization", &mut cfg.utilization)?;
        f.usize("min_partition", &mut cfg.min_partition)?;
        f.usize("anneal_moves_per_cell", &mut cfg.anneal_moves_per_cell)?;
        f.u64("seed", &mut cfg.seed)?;
        f.usize("anneal_window", &mut cfg.anneal_window)?;
        f.deny_unknown()?;
        Ok(cfg)
    }
}

impl JsonConfig for RouteConfig {
    fn to_json_value(&self) -> Json {
        Json::Obj(BTreeMap::from([
            ("tile_um".to_owned(), num(self.tile_um)),
            ("capacity".to_owned(), num(f64::from(self.capacity))),
            ("rrr_iterations".to_owned(), num(self.rrr_iterations as f64)),
        ]))
    }

    fn from_json_value(value: &Json, path: &str) -> Result<Self, ConfigError> {
        let mut cfg = RouteConfig::default();
        let mut f = Fields::new(value, path)?;
        f.f64("tile_um", &mut cfg.tile_um)?;
        f.field(
            "capacity",
            |v| v.as_u64().and_then(|n| u32::try_from(n).ok()),
            "a non-negative integer",
            &mut cfg.capacity,
        )?;
        f.usize("rrr_iterations", &mut cfg.rrr_iterations)?;
        f.deny_unknown()?;
        Ok(cfg)
    }
}

impl JsonConfig for CtsConfig {
    fn to_json_value(&self) -> Json {
        Json::Obj(BTreeMap::from([
            ("max_fanout".to_owned(), num(self.max_fanout as f64)),
            ("buffer_drive".to_owned(), num(f64::from(self.buffer_drive))),
        ]))
    }

    fn from_json_value(value: &Json, path: &str) -> Result<Self, ConfigError> {
        let mut cfg = CtsConfig::default();
        let mut f = Fields::new(value, path)?;
        f.usize("max_fanout", &mut cfg.max_fanout)?;
        f.field(
            "buffer_drive",
            |v| v.as_u64().and_then(|n| u8::try_from(n).ok()),
            "an integer in 0..=255",
            &mut cfg.buffer_drive,
        )?;
        f.deny_unknown()?;
        Ok(cfg)
    }
}

// ---------------------------------------------------------------------------
// Corners
// ---------------------------------------------------------------------------

/// `Corner` JSON spelling: `{"name": "slow", "vth_shift_mv": 30,
/// "ron_scale": 1.12, "vdd_scale": 0.9, "temp_c": 125,
/// "check_setup": true, "check_hold": false}` — every field optional,
/// defaulting to the identity (`typ`) corner.
impl JsonConfig for Corner {
    fn to_json_value(&self) -> Json {
        Json::Obj(BTreeMap::from([
            ("name".to_owned(), Json::Str(self.name.clone())),
            ("vth_shift_mv".to_owned(), num(self.vth_shift.millivolts())),
            ("ron_scale".to_owned(), num(self.ron_scale)),
            ("vdd_scale".to_owned(), num(self.vdd_scale)),
            ("temp_c".to_owned(), num(self.temp_c)),
            ("check_setup".to_owned(), Json::Bool(self.check_setup)),
            ("check_hold".to_owned(), Json::Bool(self.check_hold)),
        ]))
    }

    fn from_json_value(value: &Json, path: &str) -> Result<Self, ConfigError> {
        let mut cfg = Corner::typical();
        let mut f = Fields::new(value, path)?;
        if let Some(v) = f.take("name") {
            cfg.name = v
                .as_str()
                .ok_or_else(|| ConfigError::Field {
                    path: display_path(path, "name"),
                    message: "expected a string".to_owned(),
                })?
                .to_owned();
        }
        f.field(
            "vth_shift_mv",
            |v| v.as_f64().map(Volt::from_millivolts),
            "a number (mV)",
            &mut cfg.vth_shift,
        )?;
        f.f64("ron_scale", &mut cfg.ron_scale)?;
        f.f64("vdd_scale", &mut cfg.vdd_scale)?;
        f.f64("temp_c", &mut cfg.temp_c)?;
        f.bool("check_setup", &mut cfg.check_setup)?;
        f.bool("check_hold", &mut cfg.check_hold)?;
        f.deny_unknown()?;
        Ok(cfg)
    }
}

/// `CornerSet` JSON spelling: either the preset strings `"typical"` /
/// `"slow-typ-fast"`, or the explicit form
/// `{"corners": [<corner>, ...]}`. The decoded set is validated
/// (non-empty, covers setup and hold, unique names).
impl JsonConfig for CornerSet {
    fn to_json_value(&self) -> Json {
        Json::Obj(BTreeMap::from([(
            "corners".to_owned(),
            Json::Arr(self.corners.iter().map(Corner::to_json_value).collect()),
        )]))
    }

    fn from_json_value(value: &Json, path: &str) -> Result<Self, ConfigError> {
        let set = match value {
            Json::Str(s) => match s.to_ascii_lowercase().as_str() {
                "typical" | "typ" => CornerSet::typical_only(),
                "slow-typ-fast" | "slow_typ_fast" | "pvt" => CornerSet::slow_typ_fast(),
                other => {
                    return Err(ConfigError::Field {
                        path: display_path(path, ""),
                        message: format!(
                            "unknown corner preset `{other}` (expected typical | slow-typ-fast)"
                        ),
                    })
                }
            },
            _ => {
                let mut f = Fields::new(value, path)?;
                match f.take("corners") {
                    Some(v) => {
                        // An explicitly-listed (possibly empty) set: decode
                        // it verbatim and let validation reject empties —
                        // silently substituting the default would make the
                        // user believe multi-corner signoff ran.
                        let arr = v.as_arr().ok_or_else(|| ConfigError::Field {
                            path: display_path(path, "corners"),
                            message: "expected an array of corner objects".to_owned(),
                        })?;
                        let mut corners = Vec::new();
                        for (i, item) in arr.iter().enumerate() {
                            let sub_path = format!("{}[{i}]", display_path(path, "corners"));
                            corners.push(Corner::from_json_value(item, &sub_path)?);
                        }
                        f.deny_unknown()?;
                        CornerSet { corners }
                    }
                    None => {
                        f.deny_unknown()?;
                        CornerSet::typical_only()
                    }
                }
            }
        };
        set.validate().map_err(|message| ConfigError::Field {
            path: display_path(path, ""),
            message,
        })?;
        Ok(set)
    }
}

// ---------------------------------------------------------------------------
// FlowConfig
// ---------------------------------------------------------------------------

impl JsonConfig for FlowConfig {
    fn to_json_value(&self) -> Json {
        let mut m = BTreeMap::from([
            (
                "technique".to_owned(),
                Json::Str(self.technique.as_json_str().to_owned()),
            ),
            ("period_margin".to_owned(), num(self.period_margin)),
            ("sta".to_owned(), self.sta.to_json_value()),
            ("corners".to_owned(), self.corners.to_json_value()),
            ("dualvth".to_owned(), self.dualvth.to_json_value()),
            ("cluster".to_owned(), self.cluster.to_json_value()),
            (
                "recluster_retries".to_owned(),
                num(self.recluster_retries as f64),
            ),
            ("placer".to_owned(), self.placer.to_json_value()),
            ("route".to_owned(), self.route.to_json_value()),
            ("cts".to_owned(), self.cts.to_json_value()),
            ("mte_max_fanout".to_owned(), num(self.mte_max_fanout as f64)),
            ("hold_rounds".to_owned(), num(self.hold_rounds as f64)),
            ("verify_cycles".to_owned(), num(self.verify_cycles as f64)),
            ("seed".to_owned(), u64_json(self.seed)),
        ]);
        if let Some(p) = self.clock_period {
            m.insert("clock_period_ps".to_owned(), num(p.ps()));
        }
        Json::Obj(m)
    }

    fn from_json_value(value: &Json, path: &str) -> Result<Self, ConfigError> {
        let mut cfg = FlowConfig::default();
        let mut f = Fields::new(value, path)?;
        if let Some(v) = f.take("technique") {
            let s = v.as_str().ok_or_else(|| ConfigError::Field {
                path: display_path(path, "technique"),
                message: "expected a string".to_owned(),
            })?;
            cfg.technique = Technique::parse_json_str(s).map_err(|message| ConfigError::Field {
                path: display_path(path, "technique"),
                message,
            })?;
        }
        if let Some(v) = f.take("clock_period_ps") {
            cfg.clock_period = match v {
                Json::Null => None,
                other => Some(Time::new(other.as_f64().ok_or_else(|| {
                    ConfigError::Field {
                        path: display_path(path, "clock_period_ps"),
                        message: "expected a number (ps) or null".to_owned(),
                    }
                })?)),
            };
        }
        f.f64("period_margin", &mut cfg.period_margin)?;
        f.sub("sta", &mut cfg.sta)?;
        f.sub("corners", &mut cfg.corners)?;
        f.sub("dualvth", &mut cfg.dualvth)?;
        f.sub("cluster", &mut cfg.cluster)?;
        f.usize("recluster_retries", &mut cfg.recluster_retries)?;
        f.sub("placer", &mut cfg.placer)?;
        f.sub("route", &mut cfg.route)?;
        f.sub("cts", &mut cfg.cts)?;
        f.usize("mte_max_fanout", &mut cfg.mte_max_fanout)?;
        f.usize("hold_rounds", &mut cfg.hold_rounds)?;
        f.usize("verify_cycles", &mut cfg.verify_cycles)?;
        f.u64("seed", &mut cfg.seed)?;
        f.deny_unknown()?;
        Ok(cfg)
    }
}

impl FlowConfig {
    /// Parses a [`FlowConfig`] from JSON; missing fields keep their
    /// defaults, unknown fields are rejected. See the module docs for the
    /// field names and units.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] on malformed JSON, type mismatches or unknown keys.
    pub fn from_json(text: &str) -> Result<Self, ConfigError> {
        <Self as JsonConfig>::from_json(text)
    }

    /// Renders the full configuration as canonical single-line JSON.
    pub fn to_json(&self) -> String {
        <Self as JsonConfig>::to_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_roundtrips() {
        let cfg = FlowConfig::default();
        let back = FlowConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(back.to_json(), cfg.to_json());
        assert_eq!(back.technique, cfg.technique);
        assert_eq!(back.clock_period, cfg.clock_period);
        assert_eq!(
            back.cluster.max_cells_per_switch,
            cfg.cluster.max_cells_per_switch
        );
        // Session and suite fingerprints hash this JSON, so the route
        // object keeps writing `"rrr_iterations": 0`.
        let doc = json::parse(&cfg.to_json()).unwrap();
        assert_eq!(
            doc.get("route").and_then(|r| r.get("rrr_iterations")),
            Some(&Json::Num(0.0))
        );
    }

    #[test]
    fn partial_config_keeps_defaults() {
        let cfg = FlowConfig::from_json(
            r#"{"technique": "conventional", "cluster": {"bounce_limit_mv": 25}}"#,
        )
        .unwrap();
        assert_eq!(cfg.technique, Technique::ConventionalSmt);
        assert_eq!(cfg.cluster.bounce_limit.millivolts(), 25.0);
        // Untouched knobs match the defaults.
        let d = FlowConfig::default();
        assert_eq!(cfg.hold_rounds, d.hold_rounds);
        assert_eq!(
            cfg.cluster.max_cells_per_switch,
            d.cluster.max_cells_per_switch
        );
    }

    #[test]
    fn pinned_clock_and_null_roundtrip() {
        let cfg =
            FlowConfig::from_json(r#"{"clock_period_ps": 1500, "technique": "dualvth"}"#).unwrap();
        assert_eq!(cfg.clock_period, Some(Time::new(1500.0)));
        let cleared = FlowConfig::from_json(r#"{"clock_period_ps": null}"#).unwrap();
        assert_eq!(cleared.clock_period, None);
        let none_frac =
            FlowConfig::from_json(r#"{"dualvth": {"max_high_fraction": null}}"#).unwrap();
        assert_eq!(none_frac.dualvth.max_high_fraction, None);
    }

    #[test]
    fn large_seeds_roundtrip_exactly() {
        let mut cfg = FlowConfig {
            seed: (1u64 << 53) + 1, // not representable as f64
            ..FlowConfig::default()
        };
        cfg.placer.seed = u64::MAX;
        let back = FlowConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(back.seed, cfg.seed);
        assert_eq!(back.placer.seed, cfg.placer.seed);
    }

    #[test]
    fn unknown_field_is_rejected_with_path() {
        let e = FlowConfig::from_json(r#"{"cluster": {"bounce_mv": 25}}"#).unwrap_err();
        assert!(
            matches!(&e, ConfigError::Field { path, .. } if path == "cluster.bounce_mv"),
            "{e}"
        );
        let e = FlowConfig::from_json(r#"{"techniqe": "improved"}"#).unwrap_err();
        assert!(e.to_string().contains("techniqe"), "{e}");
    }

    #[test]
    fn corner_presets_and_explicit_sets_roundtrip() {
        use smt_cells::corner::CornerSet;
        let cfg = FlowConfig::from_json(r#"{"corners": "slow-typ-fast"}"#).unwrap();
        assert_eq!(cfg.corners, CornerSet::slow_typ_fast());
        let back = FlowConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(back.corners, cfg.corners);

        let cfg = FlowConfig::from_json(
            r#"{"corners": {"corners": [
                {"name": "ss", "vth_shift_mv": 25, "ron_scale": 1.1, "vdd_scale": 0.92},
                {"name": "ff", "vth_shift_mv": -25, "ron_scale": 0.9, "temp_c": -40,
                 "check_setup": false}
            ]}}"#,
        )
        .unwrap();
        assert_eq!(cfg.corners.len(), 2);
        assert_eq!(cfg.corners.corners[0].name, "ss");
        assert_eq!(cfg.corners.corners[0].vth_shift.millivolts(), 25.0);
        assert_eq!(cfg.corners.corners[1].temp_c, -40.0);
        assert!(!cfg.corners.corners[1].check_setup);
        // Default (absent) corners stay the identity set.
        let d = FlowConfig::from_json("{}").unwrap();
        assert_eq!(d.corners, CornerSet::typical_only());
    }

    #[test]
    fn invalid_corner_sets_are_rejected() {
        // A set with no hold corner violates the invariants.
        let e = FlowConfig::from_json(
            r#"{"corners": {"corners": [{"name": "s", "check_hold": false}]}}"#,
        )
        .unwrap_err();
        assert!(e.to_string().contains("hold"), "{e}");
        // Unknown preset string.
        let e = FlowConfig::from_json(r#"{"corners": "wacky"}"#).unwrap_err();
        assert!(e.to_string().contains("preset"), "{e}");
        // An explicitly empty list is rejected, not silently defaulted.
        let e = FlowConfig::from_json(r#"{"corners": {"corners": []}}"#).unwrap_err();
        assert!(e.to_string().contains("empty"), "{e}");
        // Typo in a corner field, with the indexed path.
        let e = FlowConfig::from_json(r#"{"corners": {"corners": [{"nam": "s"}]}}"#).unwrap_err();
        assert!(
            matches!(&e, ConfigError::Field { path, .. } if path.contains("corners[0]")),
            "{e}"
        );
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let e = FlowConfig::from_json(r#"{"hold_rounds": -3}"#).unwrap_err();
        assert!(e.to_string().contains("hold_rounds"), "{e}");
        let e = FlowConfig::from_json(r#"{"technique": "quantum"}"#).unwrap_err();
        assert!(e.to_string().contains("unknown technique"), "{e}");
    }
}
