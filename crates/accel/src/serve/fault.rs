//! Fault injection for the steppable fleet: a [`FaultPlan`] is a set of
//! timed [`FaultEvent`]s — kill, restart — scheduled on the same
//! deterministic [`EventQueue`](sconna_sim::event::EventQueue) as the
//! traffic, so every chaos run is exactly replayable.
//!
//! Plans are **canonically ordered** before scheduling: events are
//! sorted by `(time, instance, kind)`, so two plans holding the same
//! fault multiset in any construction order simulate bit-identically
//! (property-tested in `tests/scenarios.rs`), and an empty plan
//! schedules nothing at all — bit-identical to running without a plan.

use sconna_sim::time::SimTime;
use serde::{Deserialize, Serialize};

/// One timed fault against one fleet instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// Instance `instance` dies at `at`: its in-flight batch is aborted
    /// (truncated busy time; the dispatch energy is already spent) and
    /// the batch's requests rejoin the **front** of the pending queue in
    /// their original arrival order, then the admission policy settles
    /// any overflow — requests are never silently lost. A kill against
    /// an already-dead instance is a no-op; a kill during a reload
    /// cancels the reload.
    Kill {
        /// Fault time.
        at: SimTime,
        /// Target instance index.
        instance: usize,
    },
    /// Instance `instance` begins rebooting at `at`: it pays the
    /// [`PreparedNetwork`](sconna_tensor::network::PreparedNetwork)
    /// rebuild latency — the DKV/LUT weight reload of
    /// [`model_reload_time`](crate::perf::model_reload_time) — before
    /// taking work again. A restart against a live or already-reloading
    /// instance is a no-op.
    Restart {
        /// Fault time.
        at: SimTime,
        /// Target instance index.
        instance: usize,
    },
}

impl FaultEvent {
    /// Fault time.
    pub fn at(&self) -> SimTime {
        match *self {
            FaultEvent::Kill { at, .. } | FaultEvent::Restart { at, .. } => at,
        }
    }

    /// Target instance index.
    pub fn instance(&self) -> usize {
        match *self {
            FaultEvent::Kill { instance, .. } | FaultEvent::Restart { instance, .. } => instance,
        }
    }

    /// Same-timestamp tie-break rank: kills before restarts. Part of
    /// the canonical order, so it is semantics, not cosmetics: a kill
    /// and a restart of one instance at one instant resolve as
    /// kill-then-restart under every construction order.
    fn kind_rank(&self) -> u8 {
        match self {
            FaultEvent::Kill { .. } => 0,
            FaultEvent::Restart { .. } => 1,
        }
    }
}

/// A replayable chaos schedule: timed faults against fleet instances,
/// applied by [`Fleet::with_faults`](super::Fleet::with_faults).
///
/// ```
/// use sconna_accel::serve::FaultPlan;
/// use sconna_sim::time::SimTime;
///
/// let plan = FaultPlan::new()
///     .kill(SimTime::from_ns(500_000), 0)
///     .restart(SimTime::from_ns(900_000), 0)
///     .kill(SimTime::from_ns(200_000), 1);
/// assert_eq!(plan.len(), 3);
/// // Construction order is irrelevant: plans are canonically sorted.
/// let permuted = FaultPlan::new()
///     .kill(SimTime::from_ns(200_000), 1)
///     .restart(SimTime::from_ns(900_000), 0)
///     .kill(SimTime::from_ns(500_000), 0);
/// assert_eq!(plan.normalized(), permuted.normalized());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan — simulates bit-identically to no plan at all.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a [`FaultEvent::Kill`] of `instance` at `at`.
    #[must_use]
    pub fn kill(mut self, at: SimTime, instance: usize) -> Self {
        self.events.push(FaultEvent::Kill { at, instance });
        self
    }

    /// Adds a [`FaultEvent::Restart`] of `instance` at `at`.
    #[must_use]
    pub fn restart(mut self, at: SimTime, instance: usize) -> Self {
        self.events.push(FaultEvent::Restart { at, instance });
        self
    }

    /// The events as constructed (not yet canonically ordered).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of faults in the plan.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True for the empty plan.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The canonical schedule: events sorted by `(time, instance, kind)`
    /// — the order they are placed on the event queue, making the
    /// simulation a pure function of the fault *multiset* rather than of
    /// construction order.
    pub fn normalized(&self) -> Vec<FaultEvent> {
        let mut events = self.events.clone();
        events.sort_by_key(|e| (e.at(), e.instance(), e.kind_rank()));
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_is_construction_order_invariant() {
        let t = SimTime::from_ns;
        let a = FaultPlan::new()
            .kill(t(5), 1)
            .restart(t(5), 0)
            .restart(t(2), 0)
            .kill(t(5), 0);
        let b = FaultPlan::new()
            .restart(t(2), 0)
            .kill(t(5), 0)
            .kill(t(5), 1)
            .restart(t(5), 0);
        assert_eq!(a.normalized(), b.normalized());
        // Canonical order: time first, then instance, then kill < restart.
        assert_eq!(
            a.normalized(),
            vec![
                FaultEvent::Restart {
                    at: t(2),
                    instance: 0
                },
                FaultEvent::Kill {
                    at: t(5),
                    instance: 0
                },
                FaultEvent::Restart {
                    at: t(5),
                    instance: 0
                },
                FaultEvent::Kill {
                    at: t(5),
                    instance: 1
                },
            ]
        );
    }

    #[test]
    fn empty_plan_reports_empty() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
        assert!(plan.normalized().is_empty());
    }

    #[test]
    fn accessors_cover_every_variant() {
        let t = SimTime::from_ns;
        let restart = FaultEvent::Restart {
            at: t(3),
            instance: 2,
        };
        assert_eq!(restart.at(), t(3));
        assert_eq!(restart.instance(), 2);
        let kill = FaultEvent::Kill {
            at: t(1),
            instance: 0,
        };
        assert_eq!(kill.at(), t(1));
        assert_eq!(kill.instance(), 0);
    }
}
