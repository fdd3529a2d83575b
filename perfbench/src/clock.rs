//! The benchmark's only wall clock. Every host-time reading in the
//! benchmark goes through [`now_ns`], so the library crates stay free of
//! wall-clock reads and this file is the single place that holds them.

// sconna-lint: allow-file(no-wallclock) -- the benchmark measures host time; the library it calls never reads a clock
use std::sync::OnceLock;
use std::time::Instant;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic host nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    let e = epoch();
    u64::try_from(e.elapsed().as_nanos()).expect("a benchmark run lasts under 584 years")
}

/// Seconds between two [`now_ns`] readings.
pub fn secs(start_ns: u64, end_ns: u64) -> f64 {
    end_ns.saturating_sub(start_ns) as f64 * 1e-9
}

/// Seconds elapsed since the [`now_ns`] reading `start_ns`.
pub fn since(start_ns: u64) -> f64 {
    secs(start_ns, now_ns())
}
