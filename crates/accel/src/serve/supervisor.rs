//! Supervised restarts: the policy half of the self-healing loop.
//!
//! A [`Supervisor`] is a pure, `Copy` restart policy attached to a
//! [`Fleet`](super::Fleet) via
//! [`ServingConfig::with_supervisor`](super::ServingConfig::with_supervisor).
//! The fleet owns the mutable bookkeeping (per-instance attempt ladders,
//! recent-kill windows); this module owns the schedule arithmetic so it
//! can be unit-pinned in isolation:
//!
//! * **Exponential backoff with deterministic jitter.** Restart attempt
//!   `a` on the current ladder waits
//!   `initial_backoff · backoff_factor^a`, capped at `max_backoff`, then
//!   scaled by a jitter factor in `[1 − jitter, 1 + jitter]` drawn from
//!   a counter-keyed SplitMix64 stream over `(seed, instance, ordinal)`
//!   — order/thread-independent like every other random stream in the
//!   repo, and decorrelated across instances so a correlated fleet-wide
//!   kill does not produce a synchronized thundering-herd reload.
//! * **Ladder reset.** An instance that stays up `reset_after` after a
//!   supervised restart earns its ladder back (attempt count returns to
//!   zero) — transient faults stay cheap, persistent ones escalate.
//! * **Crash-loop detection.** `crash_loop_limit` kills inside a
//!   sliding `crash_loop_window` bench the instance permanently: the
//!   supervisor stops restarting it and the fleet re-estimates its
//!   capacity over the survivors. A scripted
//!   [`FaultEvent::Restart`](super::FaultEvent::Restart) still revives
//!   a benched instance — that is the operator override path.
//!
//! What a restart *costs* is the accelerator's to answer. A supervised
//! restart is warm: operand scratchpads survive the process restart, so
//! it replays only device programming,
//! [`model_warm_reload_time`](crate::perf::model_warm_reload_time) —
//! *zero* for SCONNA (no DKV reprogramming, the paper's claim) and
//! reprogram-bound for the analog baselines. The MTTR gap between them
//! is the paper's reload advantage expressed as availability.

use sconna_sim::time::SimTime;
use sconna_tensor::engine::{combine_keys, mix_key};
use serde::{Deserialize, Serialize};

use super::failure::unit_uniform;

/// A restart policy: exponential backoff + deterministic jitter, ladder
/// reset on sustained uptime and crash-loop benching. Pure data — all
/// mutable supervision state lives in the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Supervisor {
    /// Root of the jitter draw stream.
    pub seed: u64,
    /// Backoff before the first restart on a fresh ladder.
    pub initial_backoff: SimTime,
    /// Multiplier between consecutive attempts on one ladder.
    pub backoff_factor: u32,
    /// Ceiling on the un-jittered backoff.
    pub max_backoff: SimTime,
    /// Jitter half-width as a fraction of the backoff, in `[0, 1)`:
    /// the drawn factor lies in `[1 − jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Uptime after a supervised restart that resets the attempt ladder.
    pub reset_after: SimTime,
    /// Sliding window for crash-loop detection.
    pub crash_loop_window: SimTime,
    /// Kills within the window that bench the instance permanently.
    pub crash_loop_limit: u32,
}

impl Supervisor {
    /// A supervisor with production-shaped defaults: 10 µs initial
    /// backoff doubling to a 1 ms cap with ±20 % jitter, ladder reset
    /// after 1 ms of uptime, benching after 5 kills inside 2 ms. Every
    /// restart it issues pays the warm reload.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            initial_backoff: SimTime::from_ns(10_000),
            backoff_factor: 2,
            max_backoff: SimTime::from_ns(1_000_000),
            jitter: 0.2,
            reset_after: SimTime::from_ns(1_000_000),
            crash_loop_window: SimTime::from_ns(2_000_000),
            crash_loop_limit: 5,
        }
    }

    /// Checks the policy for degenerate values, returning the first
    /// defect's diagnostic. [`ServingConfig::validate`](super::ServingConfig::validate)
    /// surfaces it as
    /// [`ServingConfigError::Supervisor`](super::ServingConfigError::Supervisor).
    pub fn try_validate(&self) -> Result<(), String> {
        if self.initial_backoff == SimTime::ZERO {
            return Err("initial backoff must be positive".into());
        }
        if self.backoff_factor < 1 {
            return Err("backoff factor must be >= 1".into());
        }
        if self.max_backoff < self.initial_backoff {
            return Err("max backoff must be >= initial backoff".into());
        }
        if !(0.0..1.0).contains(&self.jitter) {
            return Err(format!("jitter must be in [0, 1), got {}", self.jitter));
        }
        if self.reset_after == SimTime::ZERO {
            return Err("ladder reset uptime must be positive".into());
        }
        if self.crash_loop_window == SimTime::ZERO {
            return Err("crash-loop window must be positive".into());
        }
        if self.crash_loop_limit < 1 {
            return Err("crash-loop limit must be >= 1 kill".into());
        }
        Ok(())
    }

    /// The delay before restart number `ordinal` of `instance`, which is
    /// attempt `attempt` on the instance's current ladder: exponential in
    /// `attempt`, capped, then jittered by a factor drawn from
    /// `(seed, instance, ordinal)`. Keying the jitter by the *ordinal*
    /// (lifetime restart count) rather than the ladder attempt keeps
    /// every delay distinct even after ladder resets; keying by instance
    /// decorrelates instances killed at the same instant.
    pub fn backoff_for(&self, instance: usize, ordinal: u64, attempt: u32) -> SimTime {
        // u128 intermediate: 2^attempt overflows u64 ps fast, the cap
        // does not.
        let cap = self.max_backoff.as_ps() as u128;
        let mut base = self.initial_backoff.as_ps() as u128;
        for _ in 0..attempt {
            base = (base * self.backoff_factor as u128).min(cap);
            if base == cap {
                break;
            }
        }
        let base = base.min(cap) as u64;
        let draw = mix_key(combine_keys(
            self.seed,
            combine_keys(instance as u64, ordinal),
        ));
        let factor = 1.0 + self.jitter * (2.0 * unit_uniform(draw) - 1.0);
        SimTime::from_secs_f64(SimTime::from_ps(base).as_secs_f64() * factor)
            .max(SimTime::from_ps(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_jitter(seed: u64) -> Supervisor {
        Supervisor {
            jitter: 0.0,
            ..Supervisor::new(seed)
        }
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let sup = no_jitter(1);
        let b: Vec<u64> = (0..12u32)
            .map(|a| sup.backoff_for(0, a as u64, a).as_ps())
            .collect();
        assert_eq!(b[0], 10_000_000); // 10 µs
        assert_eq!(b[1], 20_000_000);
        assert_eq!(b[2], 40_000_000);
        // Caps at max_backoff = 1 ms and stays there.
        assert_eq!(b[7], 1_000_000_000);
        assert_eq!(b[11], 1_000_000_000);
        // Monotone non-decreasing along one ladder without jitter.
        assert!(b.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn huge_attempt_counts_do_not_overflow() {
        let sup = no_jitter(1);
        assert_eq!(sup.backoff_for(3, 500, 500), sup.max_backoff);
    }

    #[test]
    fn jitter_stays_inside_its_band_and_is_deterministic() {
        let sup = Supervisor::new(42);
        for inst in 0..4usize {
            for ordinal in 0..16u64 {
                let d = sup.backoff_for(inst, ordinal, 0);
                let base = sup.initial_backoff.as_secs_f64();
                let f = d.as_secs_f64() / base;
                assert!(
                    (1.0 - sup.jitter - 1e-9..=1.0 + sup.jitter + 1e-9).contains(&f),
                    "jitter factor {f} outside band"
                );
                assert_eq!(d, sup.backoff_for(inst, ordinal, 0), "pure function");
            }
        }
        // Distinct ordinals draw distinct jitter — no synchronized herd.
        let a = sup.backoff_for(0, 0, 0);
        let b = sup.backoff_for(0, 1, 0);
        let c = sup.backoff_for(1, 0, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "initial backoff must be positive")]
    fn zero_backoff_rejected() {
        Supervisor {
            initial_backoff: SimTime::ZERO,
            ..Supervisor::new(0)
        }
        .try_validate()
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "max backoff must be >= initial backoff")]
    fn inverted_cap_rejected() {
        Supervisor {
            max_backoff: SimTime::from_ps(1),
            ..Supervisor::new(0)
        }
        .try_validate()
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "jitter must be in [0, 1)")]
    fn full_jitter_rejected() {
        Supervisor {
            jitter: 1.0,
            ..Supervisor::new(0)
        }
        .try_validate()
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "crash-loop limit must be >= 1")]
    fn zero_crash_loop_limit_rejected() {
        Supervisor {
            crash_loop_limit: 0,
            ..Supervisor::new(0)
        }
        .try_validate()
        .unwrap();
    }
}
