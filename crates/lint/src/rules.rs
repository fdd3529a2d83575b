//! The repo-grounded determinism & concurrency rules.
//!
//! Every rule protects an invariant the test suite proves dynamically
//! (bit-identical inference and serving reports across thread counts,
//! batch packings and arrival orderings); the rules make the same
//! invariants fail mechanically at lint time instead of via flaky
//! cross-worker diff tests. See `ARCHITECTURE.md` § "Static analysis &
//! invariants" for the rule ↔ paper/PR mapping.

use crate::lexer::{LexedFile, Token, TokenKind};

/// Identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// A `Mutex`/`RwLock` wrapping an RNG serializes every draw and
    /// makes the stream position depend on thread scheduling — the
    /// exact regression PR 3 removed from `SconnaEngine`.
    NoLockedRng,
    /// `Instant::now` / `SystemTime` in simulator or library code leaks
    /// wall-clock nondeterminism; simulated time must come from
    /// `sim::time`.
    NoWallclock,
    /// `HashMap`/`HashSet` in the report/serve crates: iteration order
    /// is randomized per-process and would leak into report output.
    NoUnorderedReportIteration,
    /// `.unwrap()` / undocumented `.expect(...)` in non-test library
    /// code. `.expect("invariant: ...")` — stating the invariant — is
    /// the sanctioned form.
    NoUnwrapInLib,
    /// `unsafe` outside `crates/compat/`. The workspace is `unsafe`-free
    /// and `[workspace.lints]` forbids it; this pins the same thing for
    /// tools that vendor the code without cargo.
    ForbidUnsafe,
}

/// Every real rule, in diagnostic order.
pub const ALL_RULES: [Rule; 5] = [
    Rule::NoLockedRng,
    Rule::NoWallclock,
    Rule::NoUnorderedReportIteration,
    Rule::NoUnwrapInLib,
    Rule::ForbidUnsafe,
];

impl Rule {
    /// The kebab-case name used in diagnostics and `allow(...)` markers.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoLockedRng => "no-locked-rng",
            Rule::NoWallclock => "no-wallclock",
            Rule::NoUnorderedReportIteration => "no-unordered-report-iteration",
            Rule::NoUnwrapInLib => "no-unwrap-in-lib",
            Rule::ForbidUnsafe => "forbid-unsafe",
        }
    }

    /// Parses a rule name as written in an `allow(...)` marker.
    pub fn from_name(name: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }

    /// Whether this rule applies to the workspace-relative path `rel`
    /// (forward slashes). The carve-outs are part of the rule contract:
    ///
    /// * `no-locked-rng` — everywhere except `crates/compat/`.
    /// * `no-wallclock` — everywhere except `crates/bench/` (real
    ///   measurements need real clocks).
    /// * `no-unordered-report-iteration` — the determinism-sensitive
    ///   crates whose output feeds reports: `accel`, `sim`, `sc`.
    /// * `no-unwrap-in-lib` — library source of the non-bench crates
    ///   (`src/` trees, excluding `src/bin/`) plus the root facade.
    /// * `forbid-unsafe` — everywhere except `crates/compat/`.
    pub fn applies_to(self, rel: &str) -> bool {
        let compat = rel.starts_with("crates/compat/");
        match self {
            Rule::NoLockedRng => !compat,
            Rule::NoWallclock => !rel.starts_with("crates/bench/"),
            Rule::NoUnorderedReportIteration => {
                rel.starts_with("crates/accel/src/")
                    || rel.starts_with("crates/sim/src/")
                    || rel.starts_with("crates/sc/src/")
            }
            Rule::NoUnwrapInLib => {
                if rel.contains("/bin/") {
                    return false;
                }
                const LIB_CRATES: [&str; 6] = ["sc", "accel", "photonics", "sim", "tensor", "lint"];
                LIB_CRATES
                    .iter()
                    .any(|c| rel.starts_with(&format!("crates/{c}/src/")))
                    || (rel.starts_with("src/") && !rel.starts_with("src/bin/"))
            }
            Rule::ForbidUnsafe => !compat,
        }
    }
}

/// One diagnostic: `path:line:col rule message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFinding {
    pub rule_name: &'static str,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

/// Runs every applicable rule over a lexed file. `rel` is the
/// workspace-relative path used for scoping.
pub fn check_file(rel: &str, lexed: &LexedFile) -> Vec<RawFinding> {
    let tokens = &lexed.tokens;
    let mut findings = Vec::new();
    let test_mask = test_region_mask(tokens);
    for rule in ALL_RULES {
        if !rule.applies_to(rel) {
            continue;
        }
        match rule {
            Rule::NoLockedRng => check_locked_rng(tokens, &mut findings),
            Rule::NoWallclock => check_wallclock(tokens, &mut findings),
            Rule::NoUnorderedReportIteration => check_unordered(tokens, &mut findings),
            Rule::NoUnwrapInLib => check_unwrap(tokens, &test_mask, &mut findings),
            Rule::ForbidUnsafe => check_unsafe(tokens, &mut findings),
        }
    }
    findings
}

fn is_punct(t: &Token, ch: char) -> bool {
    t.kind == TokenKind::Punct && t.text.len() == 1 && t.text.as_bytes()[0] == ch as u8
}

fn is_ident(t: &Token, name: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == name
}

/// Marks the token ranges belonging to test code: any item annotated
/// `#[test]` or `#[cfg(test)]` (or any cfg mentioning `test` without a
/// `not`), including the whole body of `#[cfg(test)] mod tests { ... }`.
/// `no-unwrap-in-lib` is scoped out of these regions — tests may
/// unwrap freely.
fn test_region_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if !(is_punct(&tokens[i], '#') && i + 1 < tokens.len() && is_punct(&tokens[i + 1], '[')) {
            i += 1;
            continue;
        }
        // Collect the attribute's tokens up to the matching `]`.
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut saw_test = false;
        let mut saw_not = false;
        while j < tokens.len() && depth > 0 {
            if is_punct(&tokens[j], '[') {
                depth += 1;
            } else if is_punct(&tokens[j], ']') {
                depth -= 1;
            } else if is_ident(&tokens[j], "test") {
                saw_test = true;
            } else if is_ident(&tokens[j], "not") {
                saw_not = true;
            }
            j += 1;
        }
        if !saw_test || saw_not {
            i = j;
            continue;
        }
        // Test attribute: mark through the end of the annotated item —
        // past any further attributes, then either the matching brace of
        // the first `{` or a top-level `;`.
        let start = i;
        let mut k = j;
        let mut brace_depth = 0usize;
        let mut entered = false;
        while k < tokens.len() {
            let t = &tokens[k];
            if is_punct(t, '{') {
                brace_depth += 1;
                entered = true;
            } else if is_punct(t, '}') {
                brace_depth = brace_depth.saturating_sub(1);
                if entered && brace_depth == 0 {
                    k += 1;
                    break;
                }
            } else if is_punct(t, ';') && !entered {
                k += 1;
                break;
            }
            k += 1;
        }
        for m in mask.iter_mut().take(k).skip(start) {
            *m = true;
        }
        i = k;
    }
    mask
}

/// An identifier that names an RNG type: `StdRng`, `SmallRng`,
/// `ThreadRng`, the `Rng`/`RngCore`/`SeedableRng` traits. Lower-case
/// variable names like `rng` deliberately do not match.
fn is_rng_ident(t: &Token) -> bool {
    t.kind == TokenKind::Ident && t.text.contains("Rng")
}

fn check_locked_rng(tokens: &[Token], findings: &mut Vec<RawFinding>) {
    for (i, t) in tokens.iter().enumerate() {
        if !(is_ident(t, "Mutex") || is_ident(t, "RwLock")) {
            continue;
        }
        let lock = &t.text;
        // `Mutex<... Rng ...>` — scan the generic argument list.
        if tokens.get(i + 1).is_some_and(|n| is_punct(n, '<')) {
            let mut depth = 1usize;
            let mut j = i + 2;
            while j < tokens.len() && depth > 0 {
                let u = &tokens[j];
                if is_punct(u, '<') {
                    depth += 1;
                } else if is_punct(u, '>') {
                    depth -= 1;
                } else if depth > 0 && is_rng_ident(u) {
                    findings.push(RawFinding {
                        rule_name: Rule::NoLockedRng.name(),
                        line: t.line,
                        col: t.col,
                        message: format!(
                            "`{lock}<{}>` serializes RNG draws and couples the stream \
                             position to thread scheduling; use a counter-keyed stream \
                             (see `accel::engine` SplitMix64 noise) instead",
                            u.text
                        ),
                    });
                    break;
                }
                j += 1;
            }
        }
        // `Mutex::new(StdRng::...)` — scan the constructor call.
        if tokens.get(i + 1).is_some_and(|n| is_punct(n, ':'))
            && tokens.get(i + 2).is_some_and(|n| is_punct(n, ':'))
            && tokens.get(i + 3).is_some_and(|n| is_ident(n, "new"))
            && tokens.get(i + 4).is_some_and(|n| is_punct(n, '('))
        {
            let mut depth = 1usize;
            let mut j = i + 5;
            while j < tokens.len() && depth > 0 {
                let u = &tokens[j];
                if is_punct(u, '(') {
                    depth += 1;
                } else if is_punct(u, ')') {
                    depth -= 1;
                } else if is_rng_ident(u) {
                    findings.push(RawFinding {
                        rule_name: Rule::NoLockedRng.name(),
                        line: t.line,
                        col: t.col,
                        message: format!(
                            "`{lock}::new({})` locks an RNG; use a counter-keyed \
                             stream instead",
                            u.text
                        ),
                    });
                    break;
                }
                j += 1;
            }
        }
    }
}

fn check_wallclock(tokens: &[Token], findings: &mut Vec<RawFinding>) {
    for (i, t) in tokens.iter().enumerate() {
        if is_ident(t, "Instant")
            && tokens.get(i + 1).is_some_and(|n| is_punct(n, ':'))
            && tokens.get(i + 2).is_some_and(|n| is_punct(n, ':'))
            && tokens.get(i + 3).is_some_and(|n| is_ident(n, "now"))
        {
            findings.push(RawFinding {
                rule_name: Rule::NoWallclock.name(),
                line: t.line,
                col: t.col,
                message: "`Instant::now` reads the wall clock; simulated time must come \
                          from `sim::time::SimTime` so runs replay bit-identically"
                    .to_string(),
            });
        }
        if is_ident(t, "SystemTime") {
            findings.push(RawFinding {
                rule_name: Rule::NoWallclock.name(),
                line: t.line,
                col: t.col,
                message: "`SystemTime` reads the wall clock; simulated time must come \
                          from `sim::time::SimTime` so runs replay bit-identically"
                    .to_string(),
            });
        }
    }
}

fn check_unordered(tokens: &[Token], findings: &mut Vec<RawFinding>) {
    for t in tokens {
        if is_ident(t, "HashMap") || is_ident(t, "HashSet") {
            findings.push(RawFinding {
                rule_name: Rule::NoUnorderedReportIteration.name(),
                line: t.line,
                col: t.col,
                message: format!(
                    "`{}` in a determinism-sensitive crate: iteration order is \
                     randomized per process and leaks into any report built from it; \
                     use `BTreeMap`/`Vec`, or allow with a reason stating why order \
                     is never observed",
                    t.text
                ),
            });
        }
    }
}

fn check_unwrap(tokens: &[Token], test_mask: &[bool], findings: &mut Vec<RawFinding>) {
    for (i, t) in tokens.iter().enumerate() {
        if test_mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        if !is_punct(t, '.') {
            continue;
        }
        let Some(name) = tokens.get(i + 1) else {
            continue;
        };
        if is_ident(name, "unwrap")
            && tokens.get(i + 2).is_some_and(|n| is_punct(n, '('))
            && tokens.get(i + 3).is_some_and(|n| is_punct(n, ')'))
        {
            findings.push(RawFinding {
                rule_name: Rule::NoUnwrapInLib.name(),
                line: name.line,
                col: name.col,
                message: "`.unwrap()` in library code can panic a serving worker; \
                          propagate the error or use `.expect(\"invariant: ...\")` \
                          stating why failure is impossible"
                    .to_string(),
            });
        } else if is_ident(name, "expect") && tokens.get(i + 2).is_some_and(|n| is_punct(n, '(')) {
            let arg = tokens.get(i + 3);
            let documented =
                arg.is_some_and(|a| a.kind == TokenKind::Str && a.text.starts_with("invariant: "));
            if !documented {
                findings.push(RawFinding {
                    rule_name: Rule::NoUnwrapInLib.name(),
                    line: name.line,
                    col: name.col,
                    message: "`.expect(...)` in library code must state the invariant \
                              that makes failure impossible: \
                              `.expect(\"invariant: ...\")`"
                        .to_string(),
                });
            }
        }
    }
}

fn check_unsafe(tokens: &[Token], findings: &mut Vec<RawFinding>) {
    for t in tokens {
        if is_ident(t, "unsafe") {
            findings.push(RawFinding {
                rule_name: Rule::ForbidUnsafe.name(),
                line: t.line,
                col: t.col,
                message: "`unsafe` is forbidden outside `crates/compat/`; the workspace \
                          is unsafe-free and `[workspace.lints]` pins it — keep it \
                          that way"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn rules_fired(rel: &str, src: &str) -> Vec<&'static str> {
        check_file(rel, &lex(src))
            .into_iter()
            .map(|f| f.rule_name)
            .collect()
    }

    const LIB: &str = "crates/accel/src/x.rs";

    #[test]
    fn locked_rng_generic_and_constructor() {
        assert_eq!(
            rules_fired(LIB, "struct S { rng: Mutex<StdRng> }"),
            vec!["no-locked-rng"]
        );
        assert_eq!(
            rules_fired(LIB, "let r = RwLock::new(SmallRng::seed_from_u64(0));"),
            vec!["no-locked-rng"]
        );
        // A mutex over non-RNG state is fine; a bare rng is fine.
        assert!(rules_fired(LIB, "let m = Mutex::new(0u64); let rng = StdRng::x();").is_empty());
    }

    #[test]
    fn locked_rng_fires_in_every_bench_file() {
        let src = "struct Legacy { rng: Mutex<StdRng> }";
        for rel in [
            "crates/bench/src/bin/inference.rs",
            "crates/bench/src/bin/overload.rs",
            "crates/bench/src/lib.rs",
        ] {
            assert_eq!(rules_fired(rel, src), vec!["no-locked-rng"], "{rel}");
        }
    }

    #[test]
    fn wallclock_sites() {
        assert_eq!(
            rules_fired(LIB, "let t = Instant::now();"),
            vec!["no-wallclock"]
        );
        assert_eq!(
            rules_fired(LIB, "use std::time::SystemTime;"),
            vec!["no-wallclock"]
        );
        // Scoped out in bench only.
        assert!(rules_fired("crates/bench/src/lib.rs", "let t = Instant::now();").is_empty());
        assert_eq!(
            rules_fired("crates/compat/rand/src/lib.rs", "let t = Instant::now();"),
            vec!["no-wallclock"]
        );
        // `Instant` alone (e.g. stored as a field type in bench-only
        // structs) is not flagged — only the clock read.
        assert!(rules_fired(LIB, "fn f(t: Instant) {}").is_empty());
    }

    #[test]
    fn unordered_containers_only_in_scoped_crates() {
        let src = "use std::collections::HashMap; let m: HashMap<u32, u32> = HashMap::new();";
        assert_eq!(rules_fired("crates/sim/src/x.rs", src).len(), 3);
        assert_eq!(rules_fired("crates/sc/src/x.rs", src).len(), 3);
        // The serve/ submodule split stays in scope (prefix, not file) —
        // including the PR 8 self-healing modules.
        assert_eq!(rules_fired("crates/accel/src/serve/fleet.rs", src).len(), 3);
        assert_eq!(rules_fired("crates/accel/src/serve/fault.rs", src).len(), 3);
        assert_eq!(
            rules_fired("crates/accel/src/serve/failure.rs", src).len(),
            3
        );
        assert_eq!(
            rules_fired("crates/accel/src/serve/supervisor.rs", src).len(),
            3
        );
        assert!(rules_fired("crates/tensor/src/x.rs", src).is_empty());
        assert_eq!(
            rules_fired(LIB, "let s = HashSet::new();"),
            vec!["no-unordered-report-iteration"]
        );
    }

    #[test]
    fn unwrap_and_undocumented_expect() {
        assert_eq!(
            rules_fired(LIB, "fn f() { x().unwrap(); }"),
            vec!["no-unwrap-in-lib"]
        );
        assert_eq!(
            rules_fired(LIB, "fn f() { x().expect(\"oops\"); }"),
            vec!["no-unwrap-in-lib"]
        );
        assert!(rules_fired(
            LIB,
            "fn f() { x().expect(\"invariant: y checked above\"); }"
        )
        .is_empty());
        // unwrap_or / unwrap_or_else are fine.
        assert!(rules_fired(LIB, "fn f() { x().unwrap_or(0).unwrap_or_else(|| 1); }").is_empty());
        // Out of scope: bins, tests dir, bench, examples.
        assert!(rules_fired(
            "crates/bench/src/bin/serving.rs",
            "fn f() { x().unwrap(); }"
        )
        .is_empty());
        assert!(rules_fired("tests/t.rs", "fn f() { x().unwrap(); }").is_empty());
        assert!(rules_fired("examples/e.rs", "fn f() { x().unwrap(); }").is_empty());
    }

    #[test]
    fn unwrap_skips_test_regions() {
        let src = "#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { x().unwrap(); }\n}\nfn lib() { y().unwrap(); }";
        let findings = check_file(LIB, &lex(src));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 6);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn lib() { y().unwrap(); }";
        assert_eq!(rules_fired(LIB, src), vec!["no-unwrap-in-lib"]);
    }

    #[test]
    fn test_attribute_on_fn_without_module() {
        let src = "#[test]\nfn t() { x().unwrap(); }\nfn lib() { y().unwrap(); }";
        let findings = check_file(LIB, &lex(src));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 3);
    }

    #[test]
    fn unsafe_fires_everywhere_but_compat() {
        assert_eq!(
            rules_fired("tests/t.rs", "unsafe { x() }"),
            vec!["forbid-unsafe"]
        );
        assert!(rules_fired("crates/compat/crossbeam/src/lib.rs", "unsafe { x() }").is_empty());
    }

    #[test]
    fn keywords_inside_text_never_fire() {
        let src = r##"
            fn f() {
                let a = "Mutex<StdRng> Instant::now SystemTime unsafe .unwrap()";
                let b = r#"HashMap HashSet unsafe"#;
                let c = '"'; // and unsafe in a comment: Mutex<StdRng>
                /* SystemTime /* nested unsafe */ still text */
            }
        "##;
        assert!(rules_fired(LIB, src).is_empty());
    }
}
