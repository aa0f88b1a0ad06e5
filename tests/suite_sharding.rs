//! Shard/merge and design-cache contracts of the suite runtime:
//!
//! * merging K shard reports (in any order, through the JSON
//!   round-trip) is bit-identical in all deterministic content to the
//!   unsharded run on the Smoke scale;
//! * a warm design cache serves every design with zero misses and the
//!   re-run's report digests identically to the run that filled it.

use selective_mt::cells::library::Library;
use selective_mt::circuits::families::{generate, standard_suite, SuiteScale};
use selective_mt::core::cache::DesignCache;
use selective_mt::core::flow::{FlowConfig, Technique};
use selective_mt::core::suite::{render_suite, SuiteReport, WorkloadSuite};

fn lib() -> Library {
    Library::industrial_130nm()
}

fn smoke_suite(l: &Library) -> WorkloadSuite {
    let mut suite = WorkloadSuite::new(FlowConfig {
        technique: Technique::DualVth,
        ..FlowConfig::default()
    })
    // Equivalence coverage at full stimulus depth lives in
    // tests/suite_equivalence.rs; a shallower check keeps this file
    // about sharding while still exercising the verdict plumbing.
    .with_equiv_cycles(16);
    for w in standard_suite(SuiteScale::Smoke) {
        let netlist = generate(l, &w.config)
            .unwrap_or_else(|e| panic!("generating workload `{}`: {e}", w.name));
        suite.push(&w.name, netlist);
    }
    suite
}

#[test]
fn sharded_smoke_run_merges_bit_identical_to_unsharded() {
    let l = lib();
    let suite = smoke_suite(&l);
    let unsharded = suite.run(&l);
    assert!(unsharded.all_passed(), "{}", unsharded.render());

    for shards in [2, 3] {
        let plan = suite.plan(shards);
        let reports: Vec<SuiteReport> =
            (0..shards).map(|k| suite.run_shard(&l, &plan, k)).collect();
        assert_eq!(
            reports.iter().map(|r| r.rows.len()).sum::<usize>(),
            unsharded.rows.len(),
            "{shards} shards: plans must partition the suite"
        );

        // Through the JSON round trip (what CI's --shard/--merge does),
        // merged in reverse order to exercise commutativity.
        let reload = |r: &SuiteReport| {
            SuiteReport::from_json(&r.to_json()).expect("shard report JSON round trip")
        };
        let merged = SuiteReport::merge(reports.iter().rev().map(reload)).expect("shards merge");
        assert!(merged.missing_ordinals().is_empty(), "{shards} shards");
        assert_eq!(
            merged.digest(),
            unsharded.digest(),
            "{shards} shards: merged shards differ from the unsharded run:\n{}\nvs\n{}",
            render_suite(&merged),
            render_suite(&unsharded),
        );

        // Spot-check the digest is honest: rows align field by field,
        // and the derived stage profile matches stage for stage.
        for (a, b) in merged.rows.iter().zip(&unsharded.rows) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.ordinal, b.ordinal);
            assert_eq!(a.gates_in, b.gates_in);
            let oa = a
                .outcome
                .as_ref()
                .unwrap_or_else(|e| panic!("workload `{}` failed: {e}", a.name));
            let ob = b
                .outcome
                .as_ref()
                .unwrap_or_else(|e| panic!("workload `{}` failed: {e}", b.name));
            assert_eq!(oa.cells, ob.cells, "{}", a.name);
            assert_eq!(oa.wns, ob.wns, "{}", a.name);
            assert_eq!(oa.standby_leakage, ob.standby_leakage, "{}", a.name);
            assert_eq!(oa.census, ob.census, "{}", a.name);
            assert_eq!(oa.corner_signoff.len(), ob.corner_signoff.len());
        }
        let (pa, pb) = (merged.stage_profile(), unsharded.stage_profile());
        assert_eq!(pa.rows.len(), pb.rows.len());
        for (a, b) in pa.rows.iter().zip(&pb.rows) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.runs, b.runs, "{}", a.id);
            assert_eq!(a.wns_delta, b.wns_delta, "{}", a.id);
            assert_eq!(a.wns_runs, b.wns_runs, "{}", a.id);
        }

        // Merging the same shard twice must be rejected, not silently
        // double-counted.
        assert!(SuiteReport::merge([reload(&reports[0]), reload(&reports[0])]).is_err());
    }
}

#[test]
fn warm_design_cache_reproduces_the_cold_run_bit_identically() {
    let l = lib();
    let dir = std::env::temp_dir().join(format!("smt-suite-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Two passes over the same two-design suite, through the cache. The
    // first fills it (all misses); the second must be served entirely
    // from disk and reproduce the report digest exactly.
    let mut digests = Vec::new();
    for pass in 0..2 {
        let mut cache = DesignCache::open(&dir, &l)
            .unwrap_or_else(|e| panic!("opening design cache at {}: {e}", dir.display()));
        let mut suite = WorkloadSuite::new(FlowConfig {
            technique: Technique::DualVth,
            ..FlowConfig::default()
        })
        .with_equiv_cycles(16);
        for w in standard_suite(SuiteScale::Smoke).into_iter().take(2) {
            let netlist = cache
                .get_or_insert(
                    &w.name,
                    w.config.family(),
                    w.config.fingerprint(),
                    &l,
                    || generate(&l, &w.config).map_err(|e| e.to_string()),
                )
                .unwrap_or_else(|e| panic!("pass {pass}: caching `{}`: {e}", w.name));
            suite.push(&w.name, netlist);
        }
        let stats = cache.stats();
        if pass == 0 {
            assert_eq!((stats.hits, stats.misses), (0, 2), "cold pass fills");
        } else {
            assert_eq!((stats.hits, stats.misses), (2, 0), "warm pass is 100% hits");
        }
        let mut report = suite.run(&l);
        report.cache = Some(stats);
        assert!(report.all_passed(), "pass {pass}: {}", report.render());
        digests.push(report.digest());
    }
    assert_eq!(
        digests[0], digests[1],
        "warm-cache run must be bit-identical to the run that filled the cache"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
