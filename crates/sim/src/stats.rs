//! Run statistics for simulation reports: utilization, latency
//! percentiles, queue depth, goodput and the geometric mean.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Busy-time tracker for one resource: accumulates busy intervals and
/// reports utilization against a makespan.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Utilization {
    busy: SimTime,
}

impl Utilization {
    /// Creates an idle tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a busy interval.
    pub fn add_busy(&mut self, duration: SimTime) {
        self.busy += duration;
    }

    /// Total busy time.
    pub fn busy(&self) -> SimTime {
        self.busy
    }

    /// Utilization in `[0, 1]` against a makespan (capped at 1 for
    /// pipelined resources that overlap work).
    ///
    /// # Panics
    /// Panics if the makespan is zero.
    pub fn ratio(&self, makespan: SimTime) -> f64 {
        assert!(makespan > SimTime::ZERO, "makespan must be positive");
        (self.busy.as_secs_f64() / makespan.as_secs_f64()).min(1.0)
    }
}

/// Collected latency samples with deterministic percentile extraction
/// (nearest-rank on the sorted samples), for serving-simulation reports.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LatencySamples {
    samples: Vec<SimTime>,
}

/// Fixed summary of a latency distribution: the percentiles a serving
/// report quotes plus mean and max.
/// The default is the all-zero summary of an empty sample set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Median latency.
    pub p50: SimTime,
    /// 95th-percentile latency.
    pub p95: SimTime,
    /// 99th-percentile latency.
    pub p99: SimTime,
    /// Mean latency (rounded to the nearest picosecond).
    pub mean: SimTime,
    /// Worst-case latency.
    pub max: SimTime,
}

impl LatencySamples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: SimTime) {
        self.samples.push(latency);
    }

    /// Records every sample of `other`. Summaries are order-free, so a
    /// merged set summarizes exactly as if each sample had been recorded
    /// into it directly.
    pub fn append(&mut self, other: &LatencySamples) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Nearest-rank percentile: the smallest sample such that at least
    /// `p` percent of samples are at or below it. Integer arithmetic on
    /// picoseconds, so bit-identical across platforms and thread counts.
    ///
    /// # Panics
    /// Panics if no samples were recorded or `p` is outside `(0, 100]`.
    pub fn percentile(&self, p: f64) -> SimTime {
        assert!(!self.samples.is_empty(), "percentile of empty sample set");
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        nearest_rank(&sorted, p)
    }

    /// Mean latency, rounded to the nearest picosecond.
    ///
    /// # Panics
    /// Panics if no samples were recorded.
    pub fn mean(&self) -> SimTime {
        assert!(!self.samples.is_empty(), "mean of empty sample set");
        rounded_mean(&self.samples)
    }

    /// Worst-case latency.
    ///
    /// # Panics
    /// Panics if no samples were recorded.
    pub fn max(&self) -> SimTime {
        assert!(!self.samples.is_empty(), "max of empty sample set");
        self.samples
            .iter()
            .copied()
            .max()
            .expect("invariant: non-empty asserted above")
    }

    /// The full report summary (one sort for all percentiles).
    ///
    /// # Panics
    /// Panics if no samples were recorded.
    pub fn summary(&self) -> LatencySummary {
        assert!(!self.samples.is_empty(), "summary of empty sample set");
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        LatencySummary {
            count: sorted.len(),
            p50: nearest_rank(&sorted, 50.0),
            p95: nearest_rank(&sorted, 95.0),
            p99: nearest_rank(&sorted, 99.0),
            mean: rounded_mean(&sorted),
            max: sorted[sorted.len() - 1],
        }
    }
}

/// Queue-depth time series: `(time, depth)` recorded at every queue-length
/// change of a bounded serving queue, for overload analysis. The depth
/// between two samples is a step function — the depth recorded by the
/// earlier sample holds until the later one.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueDepthSamples {
    samples: Vec<(SimTime, usize)>,
}

impl QueueDepthSamples {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the queue depth after a change at `at`. Several changes at
    /// the same instant may all be recorded; the last one is the depth
    /// the queue settles at.
    ///
    /// # Panics
    /// Panics if `at` precedes the previous sample (the series is a
    /// simulation trace, so time never rewinds).
    pub fn record(&mut self, at: SimTime, depth: usize) {
        if let Some(&(last, _)) = self.samples.last() {
            assert!(at >= last, "queue-depth samples must be time-ordered");
        }
        self.samples.push((at, depth));
    }

    /// Drops the growth slack of a finished series, so a report that
    /// keeps it holds only its samples.
    pub fn shrink_to_fit(&mut self) {
        self.samples.shrink_to_fit();
    }

    /// Depth recorded by the most recent sample (`None` before the first).
    pub fn last_depth(&self) -> Option<usize> {
        self.samples.last().map(|&(_, d)| d)
    }

    /// Time of the most recent sample (`None` before the first). Shed
    /// events can outlive the last completion, so a series may extend
    /// past a serving report's makespan — integrate to
    /// `makespan.max(last_time())`.
    pub fn last_time(&self) -> Option<SimTime> {
        self.samples.last().map(|&(t, _)| t)
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The raw `(time, depth)` series.
    pub fn samples(&self) -> &[(SimTime, usize)] {
        &self.samples
    }

    /// Largest depth ever recorded (0 for an empty series).
    pub fn max_depth(&self) -> usize {
        self.samples.iter().map(|&(_, d)| d).max().unwrap_or(0)
    }

    /// Time-weighted mean depth over `[0, end]`: the step function is 0
    /// before the first sample and holds each sample's depth until the
    /// next. Integer picosecond arithmetic, so bit-identical across
    /// platforms.
    ///
    /// # Panics
    /// Panics if `end` is zero or precedes the last sample.
    pub fn mean_depth(&self, end: SimTime) -> f64 {
        assert!(end > SimTime::ZERO, "mean depth over an empty interval");
        if let Some(&(last, _)) = self.samples.last() {
            assert!(end >= last, "end precedes the last sample");
        }
        let mut weighted: u128 = 0;
        for (i, &(at, depth)) in self.samples.iter().enumerate() {
            let until = self.samples.get(i + 1).map_or(end, |&(next, _)| next);
            weighted += depth as u128 * (until - at).as_ps() as u128;
        }
        weighted as f64 / end.as_ps() as f64
    }
}

/// Windowed-goodput time series: responses binned into fixed simulated
/// windows, the availability view of a serving run. Window `i` covers
/// `[i·window, (i+1)·window)`; a fleet collapse shows up as a run of
/// empty windows and a supervised recovery as the bins refilling — the
/// healing transient the scalar goodput figure averages away.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GoodputSamples {
    window: SimTime,
    counts: Vec<u64>,
}

impl GoodputSamples {
    /// Creates an empty series with the given window.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn new(window: SimTime) -> Self {
        assert!(window > SimTime::ZERO, "goodput window must be positive");
        Self {
            window,
            counts: Vec::new(),
        }
    }

    fn bucket(&self, at: SimTime) -> usize {
        (at.as_ps() / self.window.as_ps()) as usize
    }

    /// Records `n` responses at `at`, growing the series with empty
    /// windows as needed.
    pub fn record(&mut self, at: SimTime, n: u64) {
        let idx = self.bucket(at);
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
    }

    /// Extends the series (with empty windows) so it covers `at` without
    /// recording any response — called at fault and supervisor-restart
    /// boundaries so an outage at the tail of a run is visible as
    /// trailing zero windows rather than a truncated series.
    pub fn note(&mut self, at: SimTime) {
        let idx = self.bucket(at);
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0);
        }
    }

    /// The window every bin covers.
    pub fn window(&self) -> SimTime {
        self.window
    }

    /// Responses per window, window order.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of windows the series covers.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True before anything was recorded or noted.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The emptiest window's response rate — the depth of the worst
    /// outage the series saw (0 when some window served nothing).
    pub fn min_rate_fps(&self) -> f64 {
        let secs = self.window.as_secs_f64();
        self.counts
            .iter()
            .map(|&c| c as f64 / secs)
            .fold(f64::INFINITY, f64::min)
    }

    /// Total responses recorded across every window.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Nearest-rank lookup on an already-sorted, non-empty sample slice.
fn nearest_rank(sorted: &[SimTime], p: f64) -> SimTime {
    assert!(
        p > 0.0 && p <= 100.0,
        "percentile must be in (0, 100], got {p}"
    );
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Mean of a non-empty sample slice, rounded to the nearest picosecond.
fn rounded_mean(samples: &[SimTime]) -> SimTime {
    let total: u128 = samples.iter().map(|s| s.as_ps() as u128).sum();
    let n = samples.len() as u128;
    SimTime::from_ps(((total + n / 2) / n) as u64)
}

/// Geometric mean of a slice of positive values — the aggregation the
/// paper uses across CNNs ("on gmean across the CNNs").
///
/// # Panics
/// Panics if the slice is empty or contains a non-positive value.
pub fn gmean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "gmean of empty slice");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "gmean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn utilization_ratio() {
        let mut u = Utilization::new();
        u.add_busy(SimTime::from_ns(30));
        u.add_busy(SimTime::from_ns(20));
        assert!((u.ratio(SimTime::from_ns(100)) - 0.5).abs() < 1e-12);
        // Overlapping (pipelined) busy time caps at 1.
        u.add_busy(SimTime::from_ns(100));
        assert_eq!(u.ratio(SimTime::from_ns(100)), 1.0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut l = LatencySamples::new();
        for ps in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            l.record(SimTime::from_ps(ps));
        }
        assert_eq!(l.percentile(50.0), SimTime::from_ps(50));
        assert_eq!(l.percentile(95.0), SimTime::from_ps(100));
        assert_eq!(l.percentile(99.0), SimTime::from_ps(100));
        assert_eq!(l.percentile(10.0), SimTime::from_ps(10));
        assert_eq!(l.percentile(100.0), SimTime::from_ps(100));
        assert_eq!(l.mean(), SimTime::from_ps(55));
        assert_eq!(l.max(), SimTime::from_ps(100));
    }

    #[test]
    fn percentile_is_insertion_order_invariant() {
        let a: Vec<u64> = (1..=97).collect();
        let mut fwd = LatencySamples::new();
        let mut rev = LatencySamples::new();
        for &ps in &a {
            fwd.record(SimTime::from_ps(ps));
        }
        for &ps in a.iter().rev() {
            rev.record(SimTime::from_ps(ps));
        }
        for p in [1.0, 33.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(fwd.percentile(p), rev.percentile(p), "p{p}");
        }
        assert_eq!(fwd.summary(), rev.summary());
    }

    #[test]
    fn summary_matches_individual_queries() {
        let mut l = LatencySamples::new();
        for k in 0..1000u64 {
            l.record(SimTime::from_ps((k * 7919) % 100_000));
        }
        let s = l.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, l.percentile(50.0));
        assert_eq!(s.p95, l.percentile(95.0));
        assert_eq!(s.p99, l.percentile(99.0));
        assert_eq!(s.mean, l.mean());
        assert_eq!(s.max, l.max());
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
    }

    #[test]
    fn single_sample_summary() {
        let mut l = LatencySamples::new();
        l.record(SimTime::from_ns(3));
        let s = l.summary();
        assert_eq!(s.p50, SimTime::from_ns(3));
        assert_eq!(s.p99, SimTime::from_ns(3));
        assert_eq!(s.mean, SimTime::from_ns(3));
    }

    #[test]
    #[should_panic(expected = "empty sample set")]
    fn percentile_of_empty_panics() {
        let _ = LatencySamples::new().percentile(50.0);
    }

    /// Sort-free reference for the nearest-rank definition: the smallest
    /// sample such that at least `p` percent of samples are at or below
    /// it. Independent of the implementation's ceil-of-rank arithmetic.
    fn reference_percentile(samples: &[SimTime], p: f64) -> SimTime {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let n = samples.len() as f64;
        for &candidate in &sorted {
            let at_or_below = sorted.iter().filter(|&&s| s <= candidate).count() as f64;
            if at_or_below * 100.0 >= p * n {
                return candidate;
            }
        }
        sorted[sorted.len() - 1]
    }

    proptest! {
        /// `percentile` matches the "smallest sample covering p percent"
        /// reference for random sample sets at the report percentiles and
        /// at arbitrary p — including the single-sample case, where every
        /// percentile is that sample.
        #[test]
        fn prop_percentile_matches_sort_based_reference(
            samples_ps in proptest::collection::vec(0u64..1_000_000, 1..64),
            p_extra in 1u64..=1000,
        ) {
            let mut l = LatencySamples::new();
            for &ps in &samples_ps {
                l.record(SimTime::from_ps(ps));
            }
            let times: Vec<SimTime> =
                samples_ps.iter().map(|&ps| SimTime::from_ps(ps)).collect();
            // The percentiles the serving reports quote, plus a random p
            // in (0, 100].
            let ps_to_check = [50.0, 95.0, 99.0, 100.0, p_extra as f64 / 10.0];
            for &p in &ps_to_check {
                prop_assert_eq!(
                    l.percentile(p),
                    reference_percentile(&times, p),
                    "p = {} over {} samples", p, times.len()
                );
            }
            if times.len() == 1 {
                prop_assert_eq!(l.percentile(50.0), times[0]);
                prop_assert_eq!(l.percentile(100.0), times[0]);
            }
            // Summary and individual queries agree.
            let s = l.summary();
            prop_assert_eq!(s.p50, l.percentile(50.0));
            prop_assert_eq!(s.p95, l.percentile(95.0));
            prop_assert_eq!(s.p99, l.percentile(99.0));
            prop_assert_eq!(s.max, l.max());
        }
    }

    #[test]
    #[should_panic(expected = "percentile must be in (0, 100]")]
    fn percentile_zero_panics() {
        // p = 0 has no nearest-rank meaning (rank 0 names no sample); the
        // minimum is percentile(ε) for any ε > 0.
        let mut l = LatencySamples::new();
        l.record(SimTime::from_ps(1));
        let _ = l.percentile(0.0);
    }

    #[test]
    #[should_panic(expected = "percentile must be in (0, 100]")]
    fn percentile_above_hundred_panics() {
        let mut l = LatencySamples::new();
        l.record(SimTime::from_ps(1));
        let _ = l.percentile(100.1);
    }

    #[test]
    fn queue_depth_series_records_steps() {
        let mut q = QueueDepthSamples::new();
        assert!(q.is_empty());
        assert_eq!(q.max_depth(), 0);
        assert_eq!(q.last_depth(), None);
        q.record(SimTime::from_ps(10), 1);
        q.record(SimTime::from_ps(20), 3);
        q.record(SimTime::from_ps(20), 2); // same-instant settle
        q.record(SimTime::from_ps(60), 0);
        assert_eq!(q.len(), 4);
        assert_eq!(q.max_depth(), 3);
        assert_eq!(q.last_depth(), Some(0));
        // Depth 0 for 10 ps, 1 for 10 ps, 2 for 40 ps, 0 for 40 ps:
        // mean over [0, 100] = (1·10 + 2·40) / 100 = 0.9.
        assert!((q.mean_depth(SimTime::from_ps(100)) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn queue_depth_mean_of_empty_series_is_zero() {
        let q = QueueDepthSamples::new();
        assert_eq!(q.mean_depth(SimTime::from_ps(50)), 0.0);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn queue_depth_rejects_time_rewind() {
        let mut q = QueueDepthSamples::new();
        q.record(SimTime::from_ps(10), 1);
        q.record(SimTime::from_ps(5), 2);
    }

    #[test]
    fn goodput_series_bins_by_window() {
        let mut g = GoodputSamples::new(SimTime::from_ns(10));
        assert!(g.is_empty());
        g.record(SimTime::from_ns(1), 2); // window 0
        g.record(SimTime::from_ns(9), 1); // window 0
        g.record(SimTime::from_ns(10), 4); // window 1 (half-open bins)
        g.record(SimTime::from_ns(35), 1); // window 3, windows 2 backfilled empty
        assert_eq!(g.counts(), &[3, 4, 0, 1]);
        assert_eq!(g.len(), 4);
        assert_eq!(g.total(), 8);
        assert_eq!(g.min_rate_fps(), 0.0);
    }

    #[test]
    fn goodput_note_extends_without_recording() {
        let mut g = GoodputSamples::new(SimTime::from_ns(10));
        g.record(SimTime::from_ns(5), 1);
        // An outage at the tail: nothing served, but the series must
        // show the empty windows rather than ending at the last response.
        g.note(SimTime::from_ns(42));
        assert_eq!(g.counts(), &[1, 0, 0, 0, 0]);
        assert_eq!(g.total(), 1);
        // note() never shrinks the series.
        g.note(SimTime::from_ns(3));
        assert_eq!(g.len(), 5);
    }

    #[test]
    fn goodput_order_of_records_is_immaterial() {
        let w = SimTime::from_ns(7);
        let mut fwd = GoodputSamples::new(w);
        let mut rev = GoodputSamples::new(w);
        let events: Vec<(u64, u64)> = (0..50).map(|k| ((k * 977) % 300, k % 3 + 1)).collect();
        for &(ns, n) in &events {
            fwd.record(SimTime::from_ns(ns), n);
        }
        for &(ns, n) in events.iter().rev() {
            rev.record(SimTime::from_ns(ns), n);
        }
        assert_eq!(fwd, rev);
    }

    #[test]
    #[should_panic(expected = "goodput window must be positive")]
    fn goodput_rejects_zero_window() {
        let _ = GoodputSamples::new(SimTime::ZERO);
    }

    #[test]
    fn gmean_matches_hand_calc() {
        assert!((gmean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((gmean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive values")]
    fn gmean_rejects_zero() {
        let _ = gmean(&[1.0, 0.0]);
    }
}
