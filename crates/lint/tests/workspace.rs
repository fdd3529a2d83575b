//! Tier-1 wiring: `cargo test` fails if the real workspace regresses a
//! determinism invariant, and the `[workspace.lints]` escalation can't
//! be silently dropped from the manifests.

use std::path::{Path, PathBuf};

use sconna_lint::engine::lint_workspace;

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("invariant: the lint crate lives two levels under the workspace root")
        .to_path_buf()
}

/// The whole workspace must lint clean — zero violations, zero
/// unexplained or stale suppressions. This is the mechanical lock-in of
/// the invariants PRs 3–5 proved dynamically.
#[test]
fn workspace_is_lint_clean() {
    let root = workspace_root();
    let findings = lint_workspace(&root).expect("invariant: workspace sources are readable");
    assert!(
        findings.is_empty(),
        "sconna-lint found {} violation(s) in the workspace:\n{}",
        findings.len(),
        findings
            .iter()
            .map(sconna_lint::Finding::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The walk must actually cover the workspace (a path bug that walked
/// nothing would also report "clean").
#[test]
fn workspace_walk_covers_all_crates() {
    let root = workspace_root();
    let files = sconna_lint::engine::collect_rs_files(&root).expect("invariant: root is readable");
    let rels: Vec<String> = files
        .iter()
        .map(|p| {
            p.strip_prefix(&root)
                .expect("invariant: walked files live under root")
        })
        .map(|p| p.to_string_lossy().replace('\\', "/"))
        .collect();
    for must in [
        "src/lib.rs",
        "crates/sc/src/lib.rs",
        "crates/accel/src/serve/mod.rs",
        "crates/accel/src/serve/fleet.rs",
        "crates/accel/src/serve/autoscale.rs",
        "crates/sim/src/event.rs",
        "crates/sim/src/time.rs",
        "crates/tensor/src/layers.rs",
        "crates/photonics/src/thermal.rs",
        "crates/bench/src/bin/overload.rs",
        "crates/compat/rand/src/lib.rs",
        "crates/lint/src/lexer.rs",
    ] {
        assert!(rels.iter().any(|r| r == must), "walk missed {must}");
    }
    // The seeded-violation fixtures must NOT be walked.
    assert!(
        !rels.iter().any(|r| r.starts_with("crates/lint/fixtures/")),
        "fixtures leaked into the workspace walk"
    );
}

/// Pins the `unsafe_code = "forbid"` workspace lint and the per-crate
/// `[lints] workspace = true` inheritance, so the compiler-side half of
/// `forbid-unsafe` can't be silently dropped.
#[test]
fn workspace_lints_table_is_pinned() {
    let root = workspace_root();
    let root_manifest =
        std::fs::read_to_string(root.join("Cargo.toml")).expect("invariant: root manifest exists");
    assert!(
        root_manifest.contains("[workspace.lints.rust]"),
        "root Cargo.toml lost its [workspace.lints.rust] table"
    );
    assert!(
        root_manifest.contains("unsafe_code = \"forbid\""),
        "workspace lints no longer forbid unsafe_code"
    );
    assert!(
        root_manifest.contains("[workspace.lints.clippy]"),
        "root Cargo.toml lost its [workspace.lints.clippy] table"
    );

    // Every crate manifest must inherit the workspace lints table.
    let manifests = [
        "Cargo.toml", // the root facade package shares the file with [workspace]
        "crates/sc/Cargo.toml",
        "crates/photonics/Cargo.toml",
        "crates/tensor/Cargo.toml",
        "crates/sim/Cargo.toml",
        "crates/accel/Cargo.toml",
        "crates/bench/Cargo.toml",
        "crates/lint/Cargo.toml",
        "crates/compat/rand/Cargo.toml",
        "crates/compat/serde/Cargo.toml",
        "crates/compat/serde_derive/Cargo.toml",
        "crates/compat/crossbeam/Cargo.toml",
        "crates/compat/proptest/Cargo.toml",
    ];
    for rel in manifests {
        let text = std::fs::read_to_string(root.join(rel))
            .unwrap_or_else(|e| panic!("cannot read {rel}: {e}"));
        assert!(
            text.contains("[lints]") && text.contains("workspace = true"),
            "{rel} does not inherit [workspace.lints] (needs `[lints]\\nworkspace = true`)"
        );
    }
}
