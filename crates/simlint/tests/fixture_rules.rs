//! Fixture-driven proof that every rule (a) fires on a known violation,
//! (b) is silenced by its suppression pragma, and (c) respects the
//! config allowlists — plus a JSON snapshot of the whole fixture sweep
//! (`tests/fixtures/expected.json`) pinning diagnostics, lines, and
//! per-rule counters byte-for-byte.
//!
//! Regenerate the snapshot after an intentional rule change with:
//! `UPDATE_SIMLINT_SNAPSHOT=1 cargo test -p simlint --test fixture_rules`

use std::fs;
use std::path::Path;

use simlint::config::{FileClass, Scope};
use simlint::report::Report;
use simlint::rules::{lint_classified, FileResult, Rule, ALL_RULES};

const SIM: FileClass = FileClass {
    scope: Scope::Sim,
    test_tree: false,
    metric_path: false,
};

const METRIC: FileClass = FileClass {
    scope: Scope::Sim,
    test_tree: false,
    metric_path: true,
};

const BENCH: FileClass = FileClass {
    scope: Scope::Bench,
    test_tree: false,
    metric_path: false,
};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn idx(rule: Rule) -> usize {
    ALL_RULES.iter().position(|&r| r == rule).expect("known")
}

fn counts(res: &FileResult, rule: Rule) -> (u32, u32, u32) {
    let c = res.counts[idx(rule)];
    (c.fired, c.suppressed, c.allowlisted)
}

/// The fixture sweep: each fixture linted as-if at a path/class chosen to
/// exercise one rule. Shared by the targeted asserts and the snapshot.
fn sweep() -> Vec<(&'static str, FileResult)> {
    vec![
        (
            "d_map.rs @ sim",
            lint_classified("fixtures/d_map.rs", &fixture("d_map.rs"), SIM),
        ),
        (
            "d_map.rs @ allowlisted",
            // The same source under a D-MAP-allowlisted real path: every
            // hit becomes `allowlisted`, pragma or not test-gating aside.
            lint_classified("crates/cluster/src/state.rs", &fixture("d_map.rs"), SIM),
        ),
        (
            "d_time.rs @ sim",
            lint_classified("fixtures/d_time.rs", &fixture("d_time.rs"), SIM),
        ),
        (
            "d_time.rs @ bench",
            lint_classified("crates/bench/src/fixture.rs", &fixture("d_time.rs"), BENCH),
        ),
        (
            "d_rand.rs @ sim",
            lint_classified("fixtures/d_rand.rs", &fixture("d_rand.rs"), SIM),
        ),
        (
            "d_cast.rs @ metric",
            lint_classified("fixtures/d_cast.rs", &fixture("d_cast.rs"), METRIC),
        ),
        (
            "d_cast.rs @ non-metric",
            lint_classified("fixtures/d_cast.rs", &fixture("d_cast.rs"), SIM),
        ),
        (
            "d_steal.rs @ executor",
            // At the audited executor path U-FILE stays quiet and D-STEAL
            // judges the SAFETY wording alone.
            lint_classified("crates/cluster/src/shard.rs", &fixture("d_steal.rs"), SIM),
        ),
        (
            "d_steal.rs @ sim",
            // Outside the executor every steal-path site fires regardless
            // of wording (plus U-FILE, which has its own fixture).
            lint_classified("fixtures/d_steal.rs", &fixture("d_steal.rs"), SIM),
        ),
        (
            "u_safety.rs @ unsafe-allowlisted",
            // Linted as-if at the one audited unsafe file so U-FILE stays
            // quiet and U-SAFETY / U-SEND are isolated.
            lint_classified("crates/cluster/src/shard.rs", &fixture("u_safety.rs"), SIM),
        ),
        (
            "u_file.rs @ sim",
            lint_classified("fixtures/u_file.rs", &fixture("u_file.rs"), SIM),
        ),
        (
            "d_env.rs @ sim",
            lint_classified("fixtures/d_env.rs", &fixture("d_env.rs"), SIM),
        ),
        (
            "d_env.rs @ bench",
            lint_classified("crates/bench/src/fixture.rs", &fixture("d_env.rs"), BENCH),
        ),
    ]
}

#[test]
fn d_map_fires_suppresses_and_allowlists() {
    let all = sweep();
    let res = &all[0].1;
    assert_eq!(counts(res, Rule::DMap), (2, 1, 0), "sim scope");
    let lines: Vec<u32> = res.diagnostics.iter().map(|d| d.line).collect();
    assert_eq!(lines, vec![5, 6]);

    let res = &all[1].1;
    assert_eq!(counts(res, Rule::DMap), (0, 0, 3), "allowlisted path");
    assert!(res.diagnostics.is_empty());
}

#[test]
fn d_time_fires_suppresses_and_scopes() {
    let all = sweep();
    let res = &all[2].1;
    assert_eq!(counts(res, Rule::DTime), (1, 1, 0), "sim scope");
    assert_eq!(res.diagnostics[0].line, 5);

    let res = &all[3].1;
    assert_eq!(counts(res, Rule::DTime), (0, 0, 0), "bench scope");
}

#[test]
fn d_env_fires_suppresses_and_scopes() {
    let all = sweep();
    let res = &all[11].1;
    assert_eq!(counts(res, Rule::DEnv), (2, 1, 0), "sim scope");
    let lines: Vec<u32> = res.diagnostics.iter().map(|d| d.line).collect();
    assert_eq!(lines, vec![6, 9], "the test-gated read stays quiet");

    let res = &all[12].1;
    assert_eq!(counts(res, Rule::DEnv), (0, 0, 0), "bench scope");
}

#[test]
fn d_rand_fires_everywhere_even_tests() {
    let all = sweep();
    let res = &all[4].1;
    assert_eq!(counts(res, Rule::DRand), (2, 1, 0));
    let lines: Vec<u32> = res.diagnostics.iter().map(|d| d.line).collect();
    assert_eq!(lines, vec![6, 19], "the test-gated draw still fires");
}

#[test]
fn d_cast_fires_on_metric_paths_only() {
    let all = sweep();
    let res = &all[5].1;
    assert_eq!(counts(res, Rule::DCast), (2, 1, 0), "metric path");
    let lines: Vec<u32> = res.diagnostics.iter().map(|d| d.line).collect();
    assert_eq!(lines, vec![6, 10]);

    let res = &all[6].1;
    assert_eq!(counts(res, Rule::DCast), (0, 0, 0), "non-metric path");
}

#[test]
fn d_steal_judges_wording_inside_the_executor_and_place_outside() {
    let all = sweep();
    let res = &all[7].1;
    // Valid-pointer wording (line 6), a pragma-resistant speculative site
    // (line 18); the ownership-transfer argument (line 12) and the
    // unrelated site (line 23) stay quiet.
    assert_eq!(counts(res, Rule::DSteal), (2, 0, 0), "executor path");
    assert_eq!(counts(res, Rule::LintPragma), (1, 0, 0), "pragma attempt");
    let lines: Vec<u32> = res
        .diagnostics
        .iter()
        .filter(|d| d.rule == Rule::DSteal)
        .map(|d| d.line)
        .collect();
    assert_eq!(lines, vec![6, 18]);

    let res = &all[8].1;
    // Outside the audited executor all three steal-path sites fire, the
    // well-worded one included; the unrelated site still does not.
    assert_eq!(counts(res, Rule::DSteal), (3, 0, 0), "outside the executor");
    let lines: Vec<u32> = res
        .diagnostics
        .iter()
        .filter(|d| d.rule == Rule::DSteal)
        .map(|d| d.line)
        .collect();
    assert_eq!(lines, vec![6, 12, 18]);
}

#[test]
fn u_safety_and_u_send_fire_and_suppress() {
    let all = sweep();
    let res = &all[9].1;
    assert_eq!(counts(res, Rule::USafety), (1, 1, 0));
    assert_eq!(counts(res, Rule::USend), (1, 0, 0));
    assert_eq!(counts(res, Rule::UFile), (0, 0, 0), "allowlisted file");
    let fired: Vec<(&str, u32)> = res
        .diagnostics
        .iter()
        .map(|d| (d.rule.id(), d.line))
        .collect();
    assert_eq!(fired, vec![("U-SAFETY", 7), ("U-SEND", 23)]);
}

#[test]
fn u_file_fires_and_resists_pragmas() {
    let all = sweep();
    let res = &all[10].1;
    assert_eq!(counts(res, Rule::UFile), (2, 0, 0));
    assert_eq!(
        counts(res, Rule::USafety),
        (0, 0, 0),
        "sites are documented"
    );
    assert_eq!(
        counts(res, Rule::LintPragma),
        (1, 0, 0),
        "the allow(U-FILE) attempt is itself diagnosed"
    );
}

/// Byte-exact snapshot of the whole sweep, in the report's JSON shape
/// (wall_clock_ms pinned to 0 — the report itself never reads a clock).
#[test]
fn fixture_sweep_matches_json_snapshot() {
    let mut report = Report::default();
    for (_, res) in sweep() {
        report.absorb(res);
    }
    report.finish();
    let rendered = report.to_json(0);

    let snap_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/expected.json");
    if std::env::var_os("UPDATE_SIMLINT_SNAPSHOT").is_some() {
        fs::write(&snap_path, &rendered).expect("write snapshot");
        return;
    }
    let expected = fs::read_to_string(&snap_path)
        .expect("snapshot exists (regenerate with UPDATE_SIMLINT_SNAPSHOT=1)");
    assert_eq!(
        rendered, expected,
        "fixture sweep diverged from tests/fixtures/expected.json; if the rule \
         change is intentional, regenerate with UPDATE_SIMLINT_SNAPSHOT=1"
    );
}
