//! Reactive fleet autoscaling: a feedback controller that sizes the
//! active instance pool against observed demand.
//!
//! The fleet is provisioned at [`AutoscalePolicy::max`] instances
//! (`ServingConfig::instances`), but only `active` of them take traffic;
//! the rest sit **standby** — admin-down, holding no weights
//! ([`InstanceHealth::Standby`](super::InstanceHealth::Standby)). Every
//! [`AutoscalePolicy::check_interval`] of simulated time the controller
//! compares the demand observed since the last check — arrivals per
//! second plus the backlog it would take one interval to drain — against
//! the per-instance service capacity derived from
//! [`ServingConfig::estimated_capacity_fps`](super::ServingConfig::estimated_capacity_fps),
//! and retargets the pool:
//!
//! * **Scale-up** activates the lowest-numbered standby instances. A
//!   waking instance pays the accelerator's full weight-reload latency
//!   (`model_reload_time`) through the same epoch-guarded
//!   `ReloadDone` machinery as a fault restart, so it only takes work
//!   once its weights are loaded — and a kill mid-wake cancels the boot
//!   exactly like a kill mid-reload.
//! * **Scale-down** retires the highest-numbered active instances. An
//!   idle instance parks immediately; a busy one **drains** — it finishes
//!   its in-flight batch (requests are never aborted by scaling), then
//!   parks. The boot epoch bumps on park, so stale completions and
//!   supervisor timers of the retired life lapse, exactly as after a
//!   kill.
//!
//! Decisions are pure functions of simulated time and the counters the
//! scheduler already maintains, so autoscaled runs replay bit-identically
//! across processes, worker counts and trace permutations — the same
//! determinism contract as everything else on the event queue
//! (property-tested in `tests/autoscale.rs`).

use sconna_sim::time::SimTime;
use serde::{Deserialize, Serialize};

/// Reactive scaling policy: pool bounds, sampling cadence and the
/// headroom factor that decides how aggressively capacity tracks demand.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoscalePolicy {
    /// Smallest active pool; the controller never parks below this.
    pub min: usize,
    /// Largest active pool. Must equal the fleet's provisioned
    /// `ServingConfig::instances` (the standby instances are the
    /// `max - active` tail).
    pub max: usize,
    /// Active instances at bring-up (clamped into `[min, max]`).
    pub initial: usize,
    /// Simulated time between controller decisions.
    pub check_interval: SimTime,
    /// Minimum simulated time between two scale *actions* — hysteresis
    /// against flapping on bursty arrivals.
    pub cooldown: SimTime,
    /// Capacity over-provisioning factor: the controller targets
    /// `headroom × demand` worth of instances, so `1.25` keeps 25 %
    /// spare for bursts inside a check interval.
    pub headroom: f64,
}

impl AutoscalePolicy {
    /// A policy scaling between `min` and `max` active instances with
    /// the defaults the serving benches use: 1 ms checks, 2 ms cooldown,
    /// 25 % headroom, starting at `min`.
    pub fn new(min: usize, max: usize) -> Self {
        Self {
            min,
            max,
            initial: min,
            check_interval: SimTime::from_ns(1_000_000),
            cooldown: SimTime::from_ns(2_000_000),
            headroom: 1.25,
        }
    }

    /// Replaces the bring-up pool size.
    #[must_use]
    pub fn with_initial(mut self, initial: usize) -> Self {
        self.initial = initial;
        self
    }

    /// Replaces the controller cadence.
    #[must_use]
    pub fn with_check_interval(mut self, interval: SimTime) -> Self {
        self.check_interval = interval;
        self
    }

    /// Replaces the scale-action cooldown.
    #[must_use]
    pub fn with_cooldown(mut self, cooldown: SimTime) -> Self {
        self.cooldown = cooldown;
        self
    }

    /// Replaces the headroom factor.
    #[must_use]
    pub fn with_headroom(mut self, headroom: f64) -> Self {
        self.headroom = headroom;
        self
    }

    /// Checks the policy is well-formed: returns the diagnostic for an
    /// empty pool range, an `initial` outside `[min, max]`, a zero check
    /// interval, or a non-positive/non-finite headroom, which
    /// `ServingConfig::validate` surfaces as a
    /// [`ServingConfigError`](super::ServingConfigError).
    pub fn try_validate(&self) -> Result<(), String> {
        if self.min < 1 {
            return Err("autoscale min must be at least 1".into());
        }
        if self.min > self.max {
            return Err(format!(
                "autoscale min {} exceeds max {}",
                self.min, self.max
            ));
        }
        if !(self.min..=self.max).contains(&self.initial) {
            return Err(format!(
                "autoscale initial {} outside [{}, {}]",
                self.initial, self.min, self.max
            ));
        }
        if self.check_interval <= SimTime::ZERO {
            return Err("autoscale check interval must be positive".into());
        }
        if !(self.headroom.is_finite() && self.headroom > 0.0) {
            return Err("autoscale headroom must be positive and finite".into());
        }
        Ok(())
    }
}

/// One controller action: the pool retargeted from `from` to `to` active
/// instances at simulated time `at`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScaleEvent {
    /// Simulated time of the decision.
    pub at: SimTime,
    /// Active pool before.
    pub from: usize,
    /// Active pool after.
    pub to: usize,
    /// The demand estimate (requests/s, arrivals + backlog drain) the
    /// decision was based on.
    pub demand_fps: f64,
}

/// Run-wide controller state: the policy plus the demand window and the
/// decision trace. The fleet owns one when its config carries an
/// [`AutoscalePolicy`]; the fleet measures demand here, compares the
/// desired pool against the *live* pool it actually has (so capacity
/// lost to kills is replaced from standby, not double-counted), applies
/// the wake/park transitions itself, and commits the achieved action
/// back for cooldown tracking and the decision trace.
pub(crate) struct AutoscaleCtl {
    pub policy: AutoscalePolicy,
    /// Requests/s one active instance sustains at the configured batch
    /// size (`estimated_capacity_fps / instances`).
    pub per_instance_fps: f64,
    /// Last committed scale action, for cooldown.
    last_scale: Option<SimTime>,
    /// `offered` counter at the previous tick (arrival-rate window).
    offered_at_tick: u64,
    /// Previous tick time.
    last_tick: SimTime,
    /// Every scale action taken, decision order.
    pub events: Vec<ScaleEvent>,
}

impl AutoscaleCtl {
    pub fn new(policy: AutoscalePolicy, per_instance_fps: f64) -> Self {
        assert!(
            per_instance_fps.is_finite() && per_instance_fps > 0.0,
            "per-instance capacity must be positive"
        );
        Self {
            policy,
            per_instance_fps,
            last_scale: None,
            offered_at_tick: 0,
            last_tick: SimTime::ZERO,
            events: Vec::new(),
        }
    }

    /// One demand measurement at `now`: slides the arrival window
    /// (`offered` is the fleet's lifetime arrival counter, `queued` the
    /// current backlog) and returns the desired pool size with the
    /// demand estimate it came from — `None` when no time has passed.
    ///
    /// Demand is the arrival rate over the window plus the rate it would
    /// take to drain the current backlog within one window; the desired
    /// pool is `ceil(headroom × demand / per_instance_fps)` clamped into
    /// `[min, max]`.
    pub fn measure(&mut self, now: SimTime, offered: u64, queued: usize) -> Option<(usize, f64)> {
        let window = now.saturating_sub(self.last_tick);
        let arrived = offered - self.offered_at_tick;
        self.offered_at_tick = offered;
        self.last_tick = now;
        if window == SimTime::ZERO {
            return None;
        }
        let secs = window.as_secs_f64();
        let demand_fps = (arrived as usize + queued) as f64 / secs;
        let desired = ((self.policy.headroom * demand_fps / self.per_instance_fps).ceil() as usize)
            .clamp(self.policy.min, self.policy.max);
        Some((desired, demand_fps))
    }

    /// Whether enough time has passed since the last committed action.
    pub fn cooled_down(&self, now: SimTime) -> bool {
        self.last_scale
            .is_none_or(|last| now.saturating_sub(last) >= self.policy.cooldown)
    }

    /// Records an applied scale action (starts the cooldown clock).
    pub fn commit(&mut self, ev: ScaleEvent) {
        self.last_scale = Some(ev.at);
        self.events.push(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl() -> AutoscaleCtl {
        // 1000 fps per instance, 1..=8 pool, 1 ms ticks, 2 ms cooldown.
        AutoscaleCtl::new(AutoscalePolicy::new(1, 8), 1000.0)
    }

    #[test]
    fn policy_defaults_are_valid_and_builders_override() {
        let p = AutoscalePolicy::new(2, 16)
            .with_initial(4)
            .with_check_interval(SimTime::from_ns(500_000))
            .with_cooldown(SimTime::from_ns(1_000_000))
            .with_headroom(1.5);
        assert!(p.try_validate().is_ok());
        assert_eq!(p.initial, 4);
        assert_eq!(p.check_interval, SimTime::from_ns(500_000));
        assert_eq!(p.cooldown, SimTime::from_ns(1_000_000));
        assert_eq!(p.headroom, 1.5);
    }

    #[test]
    fn try_validate_reports_the_first_defect_without_panicking() {
        assert!(AutoscalePolicy::new(1, 8).try_validate().is_ok());
        let err = AutoscalePolicy::new(4, 2).try_validate().unwrap_err();
        assert!(err.contains("min 4 exceeds max 2"), "{err}");
        let err = AutoscalePolicy::new(2, 4)
            .with_headroom(f64::NAN)
            .try_validate()
            .unwrap_err();
        assert!(err.contains("headroom"), "{err}");
    }

    #[test]
    fn inverted_bounds_are_rejected() {
        let err = AutoscalePolicy::new(4, 2).try_validate().unwrap_err();
        assert!(err.contains("min"), "{err}");
    }

    #[test]
    fn out_of_range_initial_is_rejected() {
        let err = AutoscalePolicy::new(2, 4)
            .with_initial(8)
            .try_validate()
            .unwrap_err();
        assert!(err.contains("initial"), "{err}");
    }

    #[test]
    fn high_demand_clamps_desired_pool_at_max() {
        let mut c = ctl();
        // 4000 arrivals in 1 ms = 4 Mfps demand: clamps at max.
        let t = SimTime::from_ns(1_000_000);
        let (desired, demand) = c.measure(t, 4000, 0).unwrap();
        assert_eq!(desired, 8);
        assert_eq!(demand, 4_000_000.0);
    }

    #[test]
    fn backlog_counts_as_demand() {
        let mut c = ctl();
        // No fresh arrivals, but a 3-request backlog at 1000 fps/inst
        // over 1 ms demands 3000 fps: headroom 1.25 → ceil(3.75) = 4.
        let t = SimTime::from_ns(1_000_000);
        assert_eq!(c.measure(t, 0, 3).unwrap().0, 4);
    }

    #[test]
    fn idle_demand_clamps_desired_pool_at_min() {
        let mut c = ctl();
        // A quiet 10 ms window still wants the min pool, never zero.
        assert_eq!(c.measure(SimTime::from_ns(10_000_000), 0, 0).unwrap().0, 1);
    }

    #[test]
    fn cooldown_gates_after_a_commit_then_releases() {
        let mut c = ctl();
        let ms = |n: u64| SimTime::from_ns(n * 1_000_000);
        assert!(c.cooled_down(ms(1)));
        c.commit(ScaleEvent {
            at: ms(1),
            from: 1,
            to: 8,
            demand_fps: 10_000.0,
        });
        // 1 ms later the 2 ms cooldown still holds; at 3 ms it releases.
        assert!(!c.cooled_down(ms(2)));
        assert!(c.cooled_down(ms(3)));
        assert_eq!(c.events.len(), 1);
        assert_eq!((c.events[0].from, c.events[0].to), (1, 8));
    }

    #[test]
    fn measure_windows_are_deltas_not_lifetimes() {
        let mut c = ctl();
        let ms = |n: u64| SimTime::from_ns(n * 1_000_000);
        // 8 arrivals over 10 ms = 800 fps × 1.25 headroom = exactly one
        // instance's capacity.
        assert_eq!(c.measure(ms(10), 8, 0).unwrap().0, 1);
        // Next window sees only the 4 *new* arrivals over the 1 ms since:
        // 4000 fps × 1.25 = 5 instances.
        assert_eq!(c.measure(ms(11), 12, 0).unwrap().0, 5);
    }

    #[test]
    fn zero_width_window_is_a_no_op() {
        let mut c = ctl();
        assert_eq!(c.measure(SimTime::ZERO, 100, 100), None);
        assert!(c.events.is_empty());
    }
}
