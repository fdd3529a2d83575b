//! # sconna-bench — experiment binaries
//!
//! The `paper` binary runs every paper table/figure and ablation study
//! (indexed in the crate README), and the overload, chaos, fleet and
//! tenant sweeps write the `BENCH_*.json` artifacts. Host time is measured
//! by the separate `perfbench` package, not here. Shared helpers live in
//! this library: table formatting, the worker-count determinism gate,
//! and the one JSON writer behind every artifact: the [`Json`] value
//! type, the [`obj!`] object builder and [`write_artifact`], which prints
//! a sweep's `BENCH_<bench>.json` with one layout rule (see [`Json`]).

use std::fmt::{self, Debug};

/// Prints a rule line sized to a header.
pub fn rule(width: usize) -> String {
    "-".repeat(width)
}

/// Formats a `(label, value)` listing with aligned columns.
pub fn format_kv(pairs: &[(&str, String)]) -> String {
    let width = pairs.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (k, v) in pairs {
        out.push_str(&format!("{k:<width$}  {v}\n"));
    }
    out
}

/// Standard banner for experiment binaries.
pub fn banner(experiment: &str, paper_ref: &str) -> String {
    format!(
        "=== {experiment} ===\nreproduces: {paper_ref}\n{}\n",
        rule(60)
    )
}

/// One value of a `BENCH_*.json` artifact. `Display` prints it with the
/// artifacts' single layout rule: an array or object whose members are
/// all scalars prints inline on one line; any other prints one member
/// per line, indented two spaces deeper than its brackets.
#[derive(Debug)]
pub enum Json {
    Bool(bool),
    /// An integer, printed exactly.
    Int(u64),
    /// A measurement: four decimals, `null` when not finite.
    Num(f64),
    /// A number token printed as given (`2`, `0.25`, `3.150510`), for
    /// the few fields that do not follow the four-decimal rule.
    Raw(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Builds a [`Json::Obj`] from `key => value` members, in order; each
/// value goes through `Json::from`.
#[macro_export]
macro_rules! obj {
    ($($key:expr => $value:expr),* $(,)?) => {
        $crate::Json::Obj(vec![$((String::from($key), $crate::Json::from($value))),*])
    };
}

macro_rules! json_from {
    ($($t:ty => $variant:ident),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Self {
                Json::$variant(v.into())
            }
        }
    )*};
}
json_from!(bool => Bool, u32 => Int, u64 => Int, f64 => Num, &str => Str, String => Str, Vec<Json> => Arr);

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Int(n as u64)
    }
}

impl Json {
    /// Appends `self`, its brackets at nesting depth `depth`, to `out`.
    fn write(&self, out: &mut String, depth: usize) {
        let members: Vec<(Option<&String>, &Json)> = match self {
            Json::Bool(b) => return out.push_str(&b.to_string()),
            Json::Int(n) => return out.push_str(&n.to_string()),
            Json::Num(v) if v.is_finite() => return out.push_str(&format!("{v:.4}")),
            Json::Num(_) => return out.push_str("null"),
            Json::Raw(token) => return out.push_str(token),
            Json::Str(s) => return write_str(out, s),
            Json::Arr(items) => items.iter().map(|v| (None, v)).collect(),
            Json::Obj(members) => members.iter().map(|(k, v)| (Some(k), v)).collect(),
        };
        let inline = members
            .iter()
            .all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_)));
        let newline = |d: usize| {
            if inline {
                String::new()
            } else {
                format!("\n{:1$}", "", 2 * d)
            }
        };
        let arr = matches!(self, Json::Arr(_));
        out.push(if arr { '[' } else { '{' });
        for (i, (key, value)) in members.into_iter().enumerate() {
            if i > 0 {
                out.push_str(if inline { ", " } else { "," });
            }
            out.push_str(&newline(depth + 1));
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(": ");
            }
            value.write(out, depth + 1);
        }
        out.push_str(&newline(depth));
        out.push(if arr { ']' } else { '}' });
    }
}

/// Appends `s` as a JSON string: quotes, backslashes and control
/// characters escaped.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, 0);
        f.write_str(&out)
    }
}

/// Ends a sweep bin's run: a full run writes `BENCH_<bench>.json`, the
/// `"bench"`/`"mode"` header followed by the members of `body`, an
/// object. A smoke run (a tiny grid, not a baseline) leaves the
/// checked-in full-mode file untouched.
pub fn write_artifact(bench: &str, smoke: bool, body: Json) {
    let path = format!("BENCH_{bench}.json");
    if smoke {
        println!("smoke mode: {path} (full-mode baseline) left untouched");
        return;
    }
    let Json::Obj(mut members) = body else {
        panic!("{path}: an artifact body is an object")
    };
    let header = [
        ("bench".into(), bench.into()),
        ("mode".into(), "full".into()),
    ];
    members.splice(0..0, header);
    let json = Json::Obj(members);
    std::fs::write(&path, format!("{json}\n")).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// The determinism gate of the sweep binaries: reruns `run` at each
/// worker count in `workers` and returns whether every rerun prints
/// (`{:?}`) exactly like `one_worker`, the 1-worker run. Stops at the
/// first mismatch.
pub fn same_at_workers<T: Debug>(
    one_worker: &T,
    workers: &[usize],
    run: impl Fn(usize) -> T,
) -> bool {
    let want = format!("{one_worker:?}");
    workers.iter().all(|&w| format!("{:?}", run(w)) == want)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_contains_experiment_and_reference() {
        let b = banner("Table I", "VDPE size vs precision/data-rate");
        assert!(b.contains("Table I"));
        assert!(b.contains("VDPE size"));
    }

    #[test]
    fn kv_alignment() {
        let s = format_kv(&[("a", "1".into()), ("long-key", "2".into())]);
        assert!(s.contains("a         1"));
        assert!(s.contains("long-key  2"));
    }

    #[test]
    fn num_prints_four_decimals_or_null() {
        let num = |v: f64| Json::Num(v).to_string();
        assert_eq!(num(1.0), "1.0000");
        assert_eq!(num(-2.34567), "-2.3457");
        assert_eq!(num(0.0), "0.0000");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn integers_and_raw_tokens_keep_their_text() {
        let v = obj! {
            "limit" => 5usize,
            "big" => u64::MAX,
            "factor" => Json::Raw(2.0f64.to_string()),
            "energy_j" => Json::Raw(format!("{:.6}", 0.667016)),
        };
        assert_eq!(
            v.to_string(),
            r#"{"limit": 5, "big": 18446744073709551615, "factor": 2, "energy_j": 0.667016}"#
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            Json::from("a\"b\\c\u{1}\n").to_string(),
            r#""a\"b\\c\u0001\u000a""#
        );
        assert_eq!(obj! { "k\"ey" => true }.to_string(), r#"{"k\"ey": true}"#);
    }

    #[test]
    fn scalar_only_containers_print_inline_and_others_as_blocks() {
        let point = |x: f64| obj! { "x" => x, "ok" => true };
        assert_eq!(point(0.5).to_string(), r#"{"x": 0.5000, "ok": true}"#);
        assert_eq!(
            Json::from(vec![point(1.0), point(2.0)]).to_string(),
            "[\n  {\"x\": 1.0000, \"ok\": true},\n  {\"x\": 2.0000, \"ok\": true}\n]"
        );
        let nested = obj! {
            "name" => "a",
            "inner" => obj! { "n" => 1usize },
            "xs" => vec![Json::Int(1), Json::Int(2)],
        };
        assert_eq!(
            nested.to_string(),
            "{\n  \"name\": \"a\",\n  \"inner\": {\"n\": 1},\n  \"xs\": [1, 2]\n}"
        );
        assert_eq!(
            obj! { "outer" => nested }.to_string(),
            "{\n  \"outer\": {\n    \"name\": \"a\",\n    \"inner\": {\"n\": 1},\n    \"xs\": [1, 2]\n  }\n}"
        );
    }

    #[test]
    fn empty_containers_print_inline() {
        assert_eq!(Json::Arr(vec![]).to_string(), "[]");
        assert_eq!(obj! {}.to_string(), "{}");
        assert_eq!(
            obj! { "a" => Json::Arr(vec![]), "o" => obj! {} }.to_string(),
            "{\n  \"a\": [],\n  \"o\": {}\n}"
        );
    }

    #[test]
    fn determinism_gate_rejects_a_worker_dependent_run() {
        let one = vec![1.5, 2.5];
        assert!(same_at_workers(&one, &[2, 8], |_| vec![1.5, 2.5]));
        // Matches at 2 workers, diverges at 8: the gate must check every
        // listed count, not only the first.
        assert!(!same_at_workers(&one, &[2, 8], |w| {
            vec![1.5, if w < 8 { 2.5 } else { 2.0 }]
        }));
        assert!(!same_at_workers(&"w1", &[2], |w| if w == 1 {
            "w1"
        } else {
            "w2"
        }));
    }
}
