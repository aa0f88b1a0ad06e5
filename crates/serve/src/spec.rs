//! The wire description of a generated workload-suite run — the exact
//! surface of the `suite` bin's generated path, so a shard executed by
//! a remote `smtd` worker, a spawned `suite --shard K/N` subprocess,
//! and an in-process run all compute identical suite/config
//! fingerprints ([`suite_fingerprint`] is the one formula both sides
//! call) and therefore produce mergeable, digest-identical reports.

use smt_base::json::Json;
use smt_cells::corner::CornerSet;
use smt_cells::library::Library;
use smt_circuits::families::{generate, standard_suite, SuiteScale, Workload};
use smt_core::cache::DesignCache;
use smt_core::engine::{FlowConfig, Technique};
use smt_core::suite::{plan_shards, suite_fingerprint, ShardPlan, ShardStrategy, WorkloadSuite};
use std::collections::BTreeMap;

/// A generated-suite run request: which designs, which flow, how to
/// shard.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteSpec {
    /// Generated-suite size.
    pub scale: SuiteScale,
    /// Flow technique.
    pub technique: Technique,
    /// Sign off at slow/typ/fast PVT instead of typical-only.
    pub corners: bool,
    /// Independent equivalence-check stimulus depth (0 disables).
    pub equiv_cycles: usize,
    /// Shard assignment strategy.
    pub shard_by: ShardStrategy,
    /// Run only the first N workloads (`None` = all). Not expressible
    /// on the `suite` CLI, so specs with `take` set cannot fall back to
    /// spawned subprocess workers.
    pub take: Option<usize>,
}

impl Default for SuiteSpec {
    fn default() -> Self {
        SuiteSpec {
            scale: SuiteScale::Smoke,
            technique: Technique::DualVth,
            corners: false,
            equiv_cycles: 48,
            shard_by: ShardStrategy::ByGates,
            take: None,
        }
    }
}

fn scale_key(scale: SuiteScale) -> &'static str {
    match scale {
        SuiteScale::Smoke => "smoke",
        SuiteScale::Standard => "standard",
        SuiteScale::Large => "large",
    }
}

fn scale_from_key(key: &str) -> Result<SuiteScale, String> {
    match key {
        "smoke" => Ok(SuiteScale::Smoke),
        "standard" => Ok(SuiteScale::Standard),
        "large" => Ok(SuiteScale::Large),
        other => Err(format!("unknown scale `{other}`")),
    }
}

fn shard_by_key(s: ShardStrategy) -> &'static str {
    match s {
        ShardStrategy::ByGates => "gates",
        ShardStrategy::ByIndex => "index",
    }
}

fn shard_by_from_key(key: &str) -> Result<ShardStrategy, String> {
    match key {
        "gates" => Ok(ShardStrategy::ByGates),
        "index" => Ok(ShardStrategy::ByIndex),
        other => Err(format!("unknown shard strategy `{other}`")),
    }
}

impl SuiteSpec {
    /// The wire form (all fields explicit).
    pub fn to_json(&self) -> Json {
        let mut m = BTreeMap::new();
        m.insert(
            "scale".to_owned(),
            Json::Str(scale_key(self.scale).to_owned()),
        );
        m.insert(
            "technique".to_owned(),
            Json::Str(self.technique.as_json_str().to_owned()),
        );
        m.insert("corners".to_owned(), Json::Bool(self.corners));
        m.insert(
            "equiv_cycles".to_owned(),
            Json::Num(self.equiv_cycles as f64),
        );
        m.insert(
            "shard_by".to_owned(),
            Json::Str(shard_by_key(self.shard_by).to_owned()),
        );
        if let Some(take) = self.take {
            m.insert("take".to_owned(), Json::Num(take as f64));
        }
        Json::Obj(m)
    }

    /// Decodes a spec; missing fields default ([`SuiteSpec::default`]).
    ///
    /// # Errors
    ///
    /// A description of the first invalid field.
    pub fn from_json(json: &Json) -> Result<SuiteSpec, String> {
        let mut spec = SuiteSpec::default();
        if let Some(s) = json.get("scale").and_then(Json::as_str) {
            spec.scale = scale_from_key(s)?;
        }
        if let Some(s) = json.get("technique").and_then(Json::as_str) {
            spec.technique = Technique::parse_json_str(s)?;
        }
        if let Some(b) = json.get("corners").and_then(Json::as_bool) {
            spec.corners = b;
        }
        if let Some(n) = json.get("equiv_cycles").and_then(Json::as_usize) {
            spec.equiv_cycles = n;
        }
        if let Some(s) = json.get("shard_by").and_then(Json::as_str) {
            spec.shard_by = shard_by_from_key(s)?;
        }
        if let Some(n) = json.get("take").and_then(Json::as_usize) {
            spec.take = Some(n);
        }
        Ok(spec)
    }

    /// The flow configuration this spec runs (same construction as the
    /// `suite` bin's flag handling).
    pub fn flow_config(&self) -> FlowConfig {
        let mut config = FlowConfig {
            technique: self.technique,
            ..FlowConfig::default()
        };
        if self.corners {
            config.corners = CornerSet::slow_typ_fast();
        }
        config
    }

    /// The deterministic full design list every shard agrees on.
    pub fn workloads(&self) -> Vec<Workload> {
        let mut all = standard_suite(self.scale);
        if let Some(take) = self.take {
            all.truncate(take);
        }
        all
    }

    /// The full-list [`suite_fingerprint`] of `workloads`, as the
    /// `suite` bin computes it, so shard reports from either executor
    /// merge.
    pub fn suite_fingerprint(&self, workloads: &[Workload]) -> u64 {
        suite_fingerprint(
            workloads
                .iter()
                .map(|w| (w.name.as_str(), w.config.family(), w.config.fingerprint())),
        )
    }

    /// Shard assignment over estimated gate weights (designs outside a
    /// shard are never generated).
    pub fn plan(&self, workloads: &[Workload], shards: usize) -> ShardPlan {
        let weights: Vec<f64> = workloads
            .iter()
            .map(|w| w.config.estimated_gates() as f64)
            .collect();
        plan_shards(&weights, shards, self.shard_by)
    }

    /// Builds the suite holding only `indices`, realising each design
    /// through `cache` (canonical SNL form, so every executor runs the
    /// same netlist bytes).
    ///
    /// # Errors
    ///
    /// The first design that fails to generate or cache.
    pub fn build_shard(
        &self,
        lib: &Library,
        cache: &mut DesignCache,
        workloads: &[Workload],
        threads: usize,
        indices: &[usize],
    ) -> Result<WorkloadSuite, String> {
        let mut suite = WorkloadSuite::new(self.flow_config())
            .with_threads(threads)
            .with_equiv_cycles(self.equiv_cycles)
            .with_total_designs(workloads.len())
            .with_suite_fingerprint(self.suite_fingerprint(workloads));
        for &idx in indices {
            let w = &workloads[idx];
            let netlist = cache
                .get_or_insert(
                    &w.name,
                    w.config.family(),
                    w.config.fingerprint(),
                    lib,
                    || generate(lib, &w.config).map_err(|e| e.to_string()),
                )
                .map_err(|e| format!("realising `{}`: {e}", w.name))?;
            suite.push_ordinal(&w.name, idx, netlist);
        }
        Ok(suite)
    }

    /// CLI arguments reproducing this spec as a `suite --shard K/N
    /// --json FILE` subprocess (the coordinator's spawn fallback).
    ///
    /// # Errors
    ///
    /// When the spec uses fields the CLI cannot express (`take`).
    pub fn cli_args(
        &self,
        shard: usize,
        shards: usize,
        json_path: &str,
        cache_dir: &str,
    ) -> Result<Vec<String>, String> {
        if self.take.is_some() {
            return Err("spec uses `take`, which `suite --shard` cannot express".to_owned());
        }
        let technique = match self.technique {
            Technique::DualVth => "dual",
            Technique::ConventionalSmt => "conv",
            Technique::ImprovedSmt => "imp",
        };
        let mut args = vec![
            "--scale".to_owned(),
            scale_key(self.scale).to_owned(),
            "--technique".to_owned(),
            technique.to_owned(),
            "--equiv-cycles".to_owned(),
            self.equiv_cycles.to_string(),
            "--shard-by".to_owned(),
            shard_by_key(self.shard_by).to_owned(),
            "--shard".to_owned(),
            format!("{}/{}", shard + 1, shards),
            "--json".to_owned(),
            json_path.to_owned(),
            "--cache-dir".to_owned(),
            cache_dir.to_owned(),
        ];
        if self.corners {
            args.push("--corners".to_owned());
        }
        Ok(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_and_defaults() {
        let spec = SuiteSpec {
            scale: SuiteScale::Standard,
            technique: Technique::ImprovedSmt,
            corners: true,
            equiv_cycles: 16,
            shard_by: ShardStrategy::ByIndex,
            take: Some(3),
        };
        let back = SuiteSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(
            SuiteSpec::from_json(&Json::Obj(BTreeMap::new())).unwrap(),
            SuiteSpec::default()
        );
        assert!(
            SuiteSpec::from_json(&smt_base::json::parse(r#"{"scale": "galactic"}"#).unwrap())
                .is_err()
        );
    }

    #[test]
    fn fingerprint_tracks_the_design_list() {
        let a = SuiteSpec::default();
        let b = SuiteSpec {
            take: Some(2),
            ..SuiteSpec::default()
        };
        let wa = a.workloads();
        let wb = b.workloads();
        assert_eq!(wa.len(), 5, "smoke suite has five families");
        assert_eq!(wb.len(), 2);
        assert_ne!(a.suite_fingerprint(&wa), b.suite_fingerprint(&wb));
        // Same list → same fingerprint, regardless of flow knobs (those
        // are covered by the report's config fingerprint instead).
        let c = SuiteSpec {
            technique: Technique::ImprovedSmt,
            ..SuiteSpec::default()
        };
        assert_eq!(
            a.suite_fingerprint(&wa),
            c.suite_fingerprint(&c.workloads())
        );
    }

    #[test]
    fn cli_args_cover_every_expressible_field() {
        let spec = SuiteSpec {
            corners: true,
            equiv_cycles: 8,
            ..SuiteSpec::default()
        };
        let args = spec.cli_args(1, 2, "/tmp/r.json", ".suite-cache").unwrap();
        let joined = args.join(" ");
        assert!(joined.contains("--shard 2/2"), "{joined}");
        assert!(joined.contains("--corners"), "{joined}");
        assert!(joined.contains("--equiv-cycles 8"), "{joined}");
        assert!(SuiteSpec {
            take: Some(1),
            ..SuiteSpec::default()
        }
        .cli_args(0, 1, "r.json", "c")
        .is_err());
    }
}
