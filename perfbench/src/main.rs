//! End-to-end and per-layer host-time benchmark of the SCONNA
//! reproduction. Three workloads each concentrate host time in a
//! different layer of the stack:
//!
//! * `mobilenet224` — the SCONNA VDP kernel (`accel::engine`) on every
//!   multiplying layer of a 224×224 MobileNet_V2 image;
//! * `serve_overload` — a functional serving fleet under overload: the
//!   forward path (`tensor::{layers,network,arena}`) and its fork/join;
//! * `fleet_tenants` — a 1 024-instance analytic multi-tenant fleet: the
//!   scheduler, event wheel and statistics (`accel::serve`, `sim`).
//!
//! Usage:
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//! The last line of standard output is one JSON object with the
//! correctness verdict and the metrics (end-to-end with `--trace 0`,
//! per-layer with `--trace 1`). See `perfbench/README.md`.

mod clock;
mod mobilenet;
mod overload;
mod rng;
mod tenants;
mod timed;
mod trace;

use sconna_accel::perf::LayerPerf;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Worker threads of every parallel section (the benchmark host has 2
/// cores).
pub const WORKERS: usize = 2;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// End-to-end metrics, measured with tracing off: name and unit.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("requests_per_s", "req/s"),
    ("peak_rss_mb", "MB"),
    ("sim_fps", "frame/s"),
    ("sim_p99_us", "us"),
];

/// Per-layer metrics of the traced run: name and unit. `/req` values are
/// totals over the traced phase divided by the requests it finished.
const PER_LAYER: [(&str, &str); 37] = [
    ("accel.engine.busy_s", "s/req"),
    ("accel.engine.calls", "count/req"),
    ("accel.engine.macs", "MAC/req"),
    ("accel.engine.fallback.busy_s", "s/req"),
    ("accel.engine.s_gt44.busy_s", "s/req"),
    ("accel.engine.s_gt44.macs_per_s", "MAC/s"),
    ("accel.engine.s_le44.busy_s", "s/req"),
    ("accel.engine.s_le44.macs_per_s", "MAC/s"),
    ("accel.engine.prepare_s", "s"),
    ("photonics.adc.conversions", "count/req"),
    ("photonics.adc.self_s", "s/req"),
    ("sim.parallel.worker_s", "s/req"),
    ("sim.parallel.idle_frac", "ratio"),
    ("tensor.forward.self_s", "s/req"),
    ("serve.fleet.events", "count/req"),
    ("serve.fleet.step_s", "s/req"),
    ("serve.fleet.ns_per_event", "ns"),
    ("serve.fleet.sched_s", "s/req"),
    ("serve.fleet.setup_s", "s"),
    ("serve.fleet.report_s", "s"),
    ("accel.perf.compute_us", "us"),
    ("accel.perf.psum_us", "us"),
    ("accel.perf.reprogram_us", "us"),
    ("accel.perf.memory_us", "us"),
    ("serve.batches", "count"),
    ("serve.mean_batch_fill", "ratio"),
    ("serve.degraded", "count"),
    ("serve.dropped", "count"),
    ("serve.scale_events", "count"),
    ("serve.model_swaps", "count"),
    ("serve.incidents", "count"),
    ("serve.restarts", "count"),
    ("trace.requests", "count"),
    ("trace.spans", "count"),
    ("trace.requests_per_s", "req/s"),
    ("trace.untraced_requests_per_s", "req/s"),
    ("trace.overhead_frac", "ratio"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name; names come from the tables above.
    pub metrics: BTreeMap<&'static str, f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The simulated-time model's per-layer terms, summed over layers (µs).
pub fn insert_perf_terms(m: &mut BTreeMap<&'static str, f64>, layers: &[LayerPerf]) {
    let sum = |f: fn(&LayerPerf) -> f64| layers.iter().map(f).sum::<f64>();
    m.insert(
        "accel.perf.compute_us",
        sum(|l| l.compute.as_secs_f64() * 1e6),
    );
    m.insert("accel.perf.psum_us", sum(|l| l.psum.as_secs_f64() * 1e6));
    m.insert(
        "accel.perf.reprogram_us",
        sum(|l| l.reprogram.as_secs_f64() * 1e6),
    );
    m.insert(
        "accel.perf.memory_us",
        sum(|l| l.memory.as_secs_f64() * 1e6),
    );
}

/// Prints a sample's size, extremes and median, then returns the median.
pub fn summarize(label: &str, values: &[f64]) -> f64 {
    let m = median(values);
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &v| {
            (a.min(v), b.max(v))
        });
    println!(
        "{label}: n {} | min {lo:.6} | median {m:.6} | max {hi:.6}",
        values.len()
    );
    m
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let mut outcome = match args.workload.as_str() {
        "mobilenet224" => mobilenet::run(&args),
        "serve_overload" => overload::run(&args),
        "fleet_tenants" => tenants::run(&args),
        other => return Err(format!("unknown workload {other}")),
    };
    let table: &[(&str, &str)] = if args.trace {
        &PER_LAYER
    } else {
        outcome.metrics.insert("peak_rss_mb", peak_rss_mb()?);
        &END_TO_END
    };
    for name in outcome.metrics.keys() {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "workload reported metric {name} outside the table"
        );
    }
    let mut correct = outcome.failed == 0 && outcome.attempted > 0;
    let mut fields = Vec::new();
    for &(name, unit) in table {
        // Per-layer metrics a workload does not exercise read 0 (e.g.
        // the engine counters of the analytic fleet); every end-to-end
        // metric must be measured.
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => return Err(format!("workload did not measure {name}")),
        };
        if !value.is_finite() {
            correct = false;
        }
        let shown = if value.is_finite() { value } else { 0.0 };
        println!("  {name:<34} {shown:>22.9} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {shown:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
