//! # sconna-bench — experiment binaries
//!
//! One binary per paper table/figure and ablation study (indexed in the
//! crate README), plus the serving, overload, chaos, fleet and tenant
//! sweeps that write the `BENCH_*.json` artifacts. Host time is measured
//! by the separate `perfbench` package, not here. Shared helpers live in
//! this library: table formatting, the artifacts' JSON number format and
//! the worker-count determinism gate.

use std::fmt::Debug;

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

/// Formats an artifact number with four decimals; `NaN` and `±inf`
/// become JSON `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "null".into()
    }
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
    fn json_num_prints_four_decimals_or_null() {
        assert_eq!(json_num(1.0), "1.0000");
        assert_eq!(json_num(-2.34567), "-2.3457");
        assert_eq!(json_num(0.0), "0.0000");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::INFINITY), "null");
        assert_eq!(json_num(f64::NEG_INFINITY), "null");
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
