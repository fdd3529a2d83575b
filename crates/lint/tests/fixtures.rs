//! Fixture self-test: every rule is proven to fire on its seeded
//! violation file (with exact lines), the lexer edge-case fixture is
//! proven silent, and the suppression fixture exercises the whole
//! allow/bad-suppression/unused-allow surface.
//!
//! Fixtures live under `fixtures/` (excluded from the workspace walk —
//! they contain violations on purpose) and are linted under pseudo
//! workspace paths chosen to put each rule in scope.

use sconna_lint::engine::lint_source;
use sconna_lint::Finding;

/// A pseudo-path where every rule is in scope (library source of a
/// determinism-sensitive crate).
const SCOPED: &str = "crates/accel/src/fixture.rs";

fn lines_of(findings: &[Finding], rule: &str) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn locked_rng_fixture_fires() {
    let findings = lint_source(SCOPED, include_str!("../fixtures/locked_rng.rs"));
    // Field form, RwLock form, return-type form, constructor form.
    assert_eq!(lines_of(&findings, "no-locked-rng"), vec![8, 12, 15, 16]);
    assert_eq!(findings.len(), 4, "no other rule should fire: {findings:?}");
}

#[test]
fn locked_rng_fixture_fires_in_the_self_healing_modules() {
    // The failure-process and supervisor random streams must stay
    // counter-keyed: a locked RNG smuggled into either file would break
    // order/thread independence of the chaos draws, so both new serve
    // files are pinned inside `no-locked-rng` scope.
    for rel in [
        "crates/accel/src/serve/failure.rs",
        "crates/accel/src/serve/supervisor.rs",
    ] {
        let findings = lint_source(rel, include_str!("../fixtures/locked_rng.rs"));
        assert_eq!(
            lines_of(&findings, "no-locked-rng"),
            vec![8, 12, 15, 16],
            "{rel} fell out of the locked-rng scope"
        );
        assert_eq!(findings.len(), 4, "{rel}: {findings:?}");
    }
}

#[test]
fn locked_rng_fixture_fires_in_the_bench_bins() {
    // The bench crate has no carve-out: a locked RNG in any bin, the
    // old legacy-baseline path included, is a finding.
    for rel in [
        "crates/bench/src/bin/inference.rs",
        "crates/bench/src/bin/overload.rs",
    ] {
        let findings = lint_source(rel, include_str!("../fixtures/locked_rng.rs"));
        assert_eq!(
            lines_of(&findings, "no-locked-rng"),
            vec![8, 12, 15, 16],
            "{rel} fell out of the locked-rng scope"
        );
        assert_eq!(findings.len(), 4, "{rel}: {findings:?}");
    }
}

#[test]
fn wallclock_fixture_fires() {
    let findings = lint_source(SCOPED, include_str!("../fixtures/wallclock.rs"));
    // `SystemTime` in the use-decl, `Instant::now`, `SystemTime::now`.
    assert_eq!(lines_of(&findings, "no-wallclock"), vec![4, 7, 8]);
    assert_eq!(findings.len(), 3);
}

#[test]
fn wallclock_fixture_is_exempt_in_bench() {
    let rel = "crates/bench/src/bin/serving.rs";
    let findings = lint_source(rel, include_str!("../fixtures/wallclock.rs"));
    assert!(findings.is_empty(), "{rel} is carved out: {findings:?}");
}

#[test]
fn unordered_fixture_fires() {
    let findings = lint_source(SCOPED, include_str!("../fixtures/unordered.rs"));
    // The use-decl plus both mentions on the declaration line.
    assert_eq!(
        lines_of(&findings, "no-unordered-report-iteration"),
        vec![5, 8, 8]
    );
    assert_eq!(findings.len(), 3);
}

#[test]
fn fleet_unordered_fixture_fires_throughout_the_serve_submodule() {
    // The serve.rs -> serve/{mod,config,fault,fleet,report}.rs split must
    // not carve any fleet file out of `no-unordered-report-iteration`
    // scope: the rule keys on the `crates/accel/src/` prefix, and this
    // pins it against a future exact-path scoping regression.
    for rel in [
        "crates/accel/src/serve/mod.rs",
        "crates/accel/src/serve/config.rs",
        "crates/accel/src/serve/failure.rs",
        "crates/accel/src/serve/fault.rs",
        "crates/accel/src/serve/fleet.rs",
        "crates/accel/src/serve/report.rs",
        "crates/accel/src/serve/supervisor.rs",
        "crates/accel/src/serve/autoscale.rs",
    ] {
        let findings = lint_source(rel, include_str!("../fixtures/fleet_unordered.rs"));
        // The use-decl plus both mentions on the declaration line.
        assert_eq!(
            lines_of(&findings, "no-unordered-report-iteration"),
            vec![6, 13, 13],
            "{rel} fell out of the unordered-iteration scope"
        );
        assert_eq!(findings.len(), 3, "{rel}: {findings:?}");
    }
}

#[test]
fn autoscaler_and_event_core_stay_determinism_scoped() {
    // The event core orders every event in the simulator and
    // the autoscaler's decisions must be pure functions of simulated
    // time — these are exactly the files whose determinism the
    // fleet-scale replay claims rest on. Pin both inside `no-wallclock`
    // and `no-unordered-report-iteration` scope so neither can fall out
    // via a path-scoping regression.
    for rel in [
        "crates/accel/src/serve/autoscale.rs",
        "crates/sim/src/event.rs",
    ] {
        let findings = lint_source(rel, include_str!("../fixtures/wallclock.rs"));
        assert_eq!(
            lines_of(&findings, "no-wallclock"),
            vec![4, 7, 8],
            "{rel} fell out of the wallclock scope"
        );
        let findings = lint_source(rel, include_str!("../fixtures/unordered.rs"));
        assert_eq!(
            lines_of(&findings, "no-unordered-report-iteration"),
            vec![5, 8, 8],
            "{rel} fell out of the unordered-iteration scope"
        );
    }
}

#[test]
fn tenant_unordered_fixture_fires_on_the_per_tenant_report_path() {
    // PR 10 threads per-tenant accounting through config -> fleet ->
    // report: a `HashMap` keyed by tenant anywhere on that path would
    // leak its randomized iteration order into the order of the
    // `TenantUsage` rows. The rule keys on the `crates/accel/src/`
    // prefix; this pins every file that builds or carries per-tenant
    // report state inside that scope.
    for rel in [
        "crates/accel/src/serve/config.rs",
        "crates/accel/src/serve/fleet.rs",
        "crates/accel/src/serve/report.rs",
    ] {
        let findings = lint_source(rel, include_str!("../fixtures/tenant_unordered.rs"));
        // The use-decl plus both mentions on the declaration line.
        assert_eq!(
            lines_of(&findings, "no-unordered-report-iteration"),
            vec![9, 16, 16],
            "{rel} fell out of the unordered-iteration scope"
        );
        assert_eq!(findings.len(), 3, "{rel}: {findings:?}");
    }
}

#[test]
fn tenant_unordered_fixture_is_exempt_in_the_tenant_bench() {
    // The bench bin assembles BENCH_tenants.json rows itself; bins are
    // not report-library code and stay carved out.
    let findings = lint_source(
        "crates/bench/src/bin/tenant_sweep.rs",
        include_str!("../fixtures/tenant_unordered.rs"),
    );
    assert!(
        findings.is_empty(),
        "bench bins are carved out: {findings:?}"
    );
}

#[test]
fn fleet_unordered_fixture_is_exempt_in_the_scenario_harness() {
    // tests/ may use unordered containers — only library report code is
    // determinism-scoped.
    let findings = lint_source(
        "tests/scenarios.rs",
        include_str!("../fixtures/fleet_unordered.rs"),
    );
    assert!(findings.is_empty(), "tests are carved out: {findings:?}");
}

#[test]
fn unordered_fixture_is_exempt_outside_report_crates() {
    let findings = lint_source(
        "crates/tensor/src/fixture.rs",
        include_str!("../fixtures/unordered.rs"),
    );
    assert!(
        findings.is_empty(),
        "tensor is not report-scoped: {findings:?}"
    );
}

#[test]
fn unwrap_fixture_fires() {
    let findings = lint_source(SCOPED, include_str!("../fixtures/unwrap_in_lib.rs"));
    // Bare unwrap + invariant-less expect; the documented expect, the
    // unwrap_or forms and the #[cfg(test)] module stay quiet.
    assert_eq!(lines_of(&findings, "no-unwrap-in-lib"), vec![6, 10]);
    assert_eq!(findings.len(), 2);
}

#[test]
fn unwrap_fixture_is_exempt_in_bins_tests_and_examples() {
    for rel in [
        "crates/bench/src/bin/overload.rs",
        "tests/t.rs",
        "examples/e.rs",
    ] {
        let findings = lint_source(rel, include_str!("../fixtures/unwrap_in_lib.rs"));
        assert!(findings.is_empty(), "{rel} may unwrap: {findings:?}");
    }
}

#[test]
fn unsafe_fixture_fires() {
    let findings = lint_source(SCOPED, include_str!("../fixtures/unsafe_code.rs"));
    assert_eq!(lines_of(&findings, "forbid-unsafe"), vec![7]);
    assert_eq!(findings.len(), 1);
}

#[test]
fn unsafe_fixture_is_exempt_in_compat() {
    let findings = lint_source(
        "crates/compat/crossbeam/src/lib.rs",
        include_str!("../fixtures/unsafe_code.rs"),
    );
    assert!(findings.is_empty(), "compat may use unsafe: {findings:?}");
}

#[test]
fn lexer_edges_fixture_is_silent() {
    // Every rule keyword in this fixture sits inside a string, raw
    // string, char literal, doc comment or nested block comment; a
    // single finding means the lexer leaked text into the token stream.
    let findings = lint_source(SCOPED, include_str!("../fixtures/lexer_edges.rs"));
    assert!(
        findings.is_empty(),
        "lexer leaked text into tokens: {findings:?}"
    );
}

#[test]
fn suppressions_fixture_mixes_allowed_bad_and_stale() {
    let findings = lint_source(SCOPED, include_str!("../fixtures/suppressions.rs"));
    // The two justified allows suppress their findings entirely.
    assert!(lines_of(&findings, "no-wallclock").is_empty());
    // The reason-less marker leaves its violation standing and is
    // itself reported.
    assert_eq!(lines_of(&findings, "no-unwrap-in-lib"), vec![15]);
    assert_eq!(lines_of(&findings, "bad-suppression"), vec![15]);
    // The stale marker is flagged so annotations can't rot.
    assert_eq!(lines_of(&findings, "unused-allow"), vec![18]);
    assert_eq!(findings.len(), 3);
}

#[test]
fn diagnostics_render_sorted_and_stable() {
    let findings = lint_source(SCOPED, include_str!("../fixtures/wallclock.rs"));
    let rendered: Vec<String> = findings.iter().map(Finding::render).collect();
    let mut sorted = rendered.clone();
    sorted.sort();
    assert_eq!(rendered, sorted);
    assert!(rendered[0].starts_with("crates/accel/src/fixture.rs:4:"));
}
