//! Stochastic failure processes: statistical chaos on top of the
//! scripted [`FaultPlan`] machinery.
//!
//! A [`FailureProcess`] turns "instances fail with MTBF *m*" into a
//! concrete, replayable [`FaultPlan`] of kills: per-instance exponential
//! inter-failure gaps drawn from a **counter-keyed SplitMix64 stream** —
//! the same determinism discipline as the ADC noise
//! ([`KeyedAdcStream`](crate::engine::KeyedAdcStream)). Draw `k` for
//! instance `i` is `mix_key(combine_keys(combine_keys(seed, i), k))`: a
//! pure function of `(seed, instance, counter)`, independent of thread
//! count, call order, and of every *other* instance's stream — growing
//! the fleet never perturbs the fault history of existing instances.
//!
//! The output is an ordinary plan, so everything pinned about scripted
//! chaos holds for statistical chaos too: canonical event ordering,
//! kill-of-dead no-op semantics (a stochastic kill may land on an
//! instance a supervisor already benched — documented no-op), and
//! bit-identical replay across sweep worker counts.

use crate::serve::fault::FaultPlan;
use sconna_sim::time::SimTime;
use sconna_tensor::engine::{combine_keys, mix_key};
use serde::{Deserialize, Serialize};

/// Maps a raw SplitMix64 draw onto the open unit interval `(0, 1)`,
/// never returning 0 or 1 exactly so `ln` stays finite on either
/// orientation of an exponential transform. 52-bit precision: with 53
/// bits, `(2^53 − 1) + 0.5` is not representable and rounds up to
/// `2^53`, making the top draw collapse to exactly 1.0.
pub(crate) fn unit_uniform(draw: u64) -> f64 {
    ((draw >> 12) as f64 + 0.5) / 4_503_599_627_370_496.0
}

/// One exponential draw with the given mean, floored at 1 ps so every
/// event strictly advances time (a zero-length gap would let a single
/// instance fail infinitely often at one instant).
fn exp_draw(draw: u64, mean: SimTime) -> SimTime {
    let dt = -mean.as_secs_f64() * (1.0 - unit_uniform(draw)).ln();
    SimTime::from_secs_f64(dt).max(SimTime::from_ps(1))
}

/// A seeded per-instance stochastic failure model, materialized into a
/// [`FaultPlan`] of kills over a finite horizon.
///
/// Each instance independently draws exponential inter-failure gaps with
/// mean [`mtbf`](Self::mtbf); every failure is a kill. Nothing in the
/// plan heals an instance: that is a [`Supervisor`](super::Supervisor)'s
/// job, so measured recovery times are the supervisor's alone.
///
/// ```
/// use sconna_accel::serve::FailureProcess;
/// use sconna_sim::time::SimTime;
///
/// let fp = FailureProcess::new(42, SimTime::from_ns(400_000));
/// let plan = fp.materialize(2, SimTime::from_ns(4_000_000));
/// // Same seed, same plan — and instance 0's history is unchanged by
/// // growing the fleet.
/// assert_eq!(plan, fp.materialize(2, SimTime::from_ns(4_000_000)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureProcess {
    /// Root of every per-instance draw stream.
    pub seed: u64,
    /// Mean time between failures per instance (exponential gaps).
    pub mtbf: SimTime,
}

impl FailureProcess {
    /// A kill-only process: exponential failures with mean `mtbf`.
    ///
    /// # Panics
    /// Panics if `mtbf` is zero.
    pub fn new(seed: u64, mtbf: SimTime) -> Self {
        assert!(mtbf > SimTime::ZERO, "MTBF must be positive");
        Self { seed, mtbf }
    }

    /// Materializes the process into a concrete [`FaultPlan`] for
    /// `instances` instances over `[0, horizon)`: every kill time falls
    /// inside the horizon. The plan is a pure function of
    /// `(self, instances, horizon)`.
    ///
    /// # Panics
    /// Panics if `instances` is zero or `horizon` is zero.
    pub fn materialize(&self, instances: usize, horizon: SimTime) -> FaultPlan {
        assert!(instances > 0, "fleet must have at least one instance");
        assert!(horizon > SimTime::ZERO, "horizon must be positive");
        // Fields are public; revalidate what the constructor promised.
        assert!(self.mtbf > SimTime::ZERO, "MTBF must be positive");
        let mut plan = FaultPlan::new();
        for inst in 0..instances {
            let key = combine_keys(self.seed, inst as u64);
            let mut counter = 0u64;
            let mut t = SimTime::ZERO;
            loop {
                t += exp_draw(mix_key(combine_keys(key, counter)), self.mtbf);
                if t >= horizon {
                    break;
                }
                plan = plan.kill(t, inst);
                // Counter + 1 was the stall coin: skip it, or every seeded stream moves.
                counter += 2;
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::fault::FaultEvent;

    const US: u64 = 1_000_000; // ps per microsecond

    #[test]
    fn same_seed_same_plan() {
        let fp = FailureProcess::new(7, SimTime::from_ps(50 * US));
        let h = SimTime::from_ps(2_000 * US);
        assert_eq!(fp.materialize(3, h), fp.materialize(3, h));
        // Different seed, different plan.
        let other = FailureProcess { seed: 8, ..fp };
        assert_ne!(fp.materialize(3, h), other.materialize(3, h));
    }

    #[test]
    fn per_instance_streams_are_independent_of_fleet_size() {
        // Growing the fleet must not move a single event of the existing
        // instances' histories: each stream is keyed by (seed, instance)
        // alone.
        let fp = FailureProcess::new(11, SimTime::from_ps(40 * US));
        let h = SimTime::from_ps(1_000 * US);
        let small = fp.materialize(2, h);
        let large = fp.materialize(5, h);
        for inst in 0..2 {
            let pick = |p: &FaultPlan| -> Vec<FaultEvent> {
                p.normalized()
                    .into_iter()
                    .filter(|e| e.instance() == inst)
                    .collect()
            };
            assert_eq!(pick(&small), pick(&large), "instance {inst}");
        }
    }

    #[test]
    fn failure_times_respect_the_horizon() {
        let fp = FailureProcess::new(3, SimTime::from_ps(30 * US));
        let h = SimTime::from_ps(500 * US);
        let plan = fp.materialize(2, h);
        assert!(!plan.is_empty(), "~16 expected failures per instance");
        for e in plan.events() {
            assert!(matches!(e, FaultEvent::Kill { .. }), "{e:?}");
            assert!(e.at() < h, "failure at {} past horizon {h}", e.at());
        }
    }

    #[test]
    fn empirical_failure_rate_tracks_mtbf() {
        // Statistical sanity, not a distribution test: with MTBF m over
        // horizon H, expect about H/m failures per instance. 200
        // expected events keeps ±25% loose enough to never flake.
        let mtbf = SimTime::from_ps(10 * US);
        let h = SimTime::from_ps(2_000 * US);
        let plan = FailureProcess::new(99, mtbf).materialize(10, h);
        let expected = 10.0 * (h.as_secs_f64() / mtbf.as_secs_f64());
        let got = plan.len() as f64;
        assert!(
            (got - expected).abs() < 0.25 * expected,
            "got {got} events, expected ~{expected}"
        );
    }

    #[test]
    fn kill_only_stream_is_pinned() {
        // Every consumer of a seeded failure stream (the `chaos` bench,
        // the perfbench `fleet_tenants` digest) sees exactly these kill
        // times; a change to the per-failure draw sequence moves them.
        let plan = FailureProcess::new(7, SimTime::from_ps(50 * US))
            .materialize(2, SimTime::from_ps(400 * US));
        let kills: Vec<(u64, usize)> = plan
            .normalized()
            .iter()
            .map(|e| {
                assert!(matches!(e, FaultEvent::Kill { .. }), "{e:?}");
                (e.at().as_ps(), e.instance())
            })
            .collect();
        assert_eq!(
            kills,
            [
                (2_314_895, 1),
                (34_970_085, 1),
                (47_002_862, 0),
                (186_017_733, 1),
                (208_324_750, 1),
                (208_743_481, 0),
                (220_829_319, 0),
                (250_382_089, 1),
                (289_343_356, 1),
                (304_519_240, 1),
                (315_874_656, 1),
                (358_494_032, 0),
                (368_230_415, 0),
            ]
        );
    }

    #[test]
    fn unit_uniform_stays_inside_the_open_interval() {
        for draw in [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 63] {
            let u = unit_uniform(draw);
            assert!(u > 0.0 && u < 1.0, "draw {draw} -> {u}");
        }
    }

    #[test]
    #[should_panic(expected = "MTBF must be positive")]
    fn zero_mtbf_panics() {
        let _ = FailureProcess::new(1, SimTime::ZERO);
    }
}
