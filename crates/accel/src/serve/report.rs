//! Report types for the serving simulations: per-request terminal
//! states, shed accounting, the fleet-level [`ServingReport`], the
//! functional extension carrying predictions and accuracy-under-load,
//! and the overload-sweep point.

use sconna_sim::stats::{GoodputSamples, LatencySummary, QueueDepthSamples};
use sconna_sim::time::SimTime;
use serde::{Deserialize, Serialize};

/// The terminal state of one offered request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestOutcome {
    /// Served at full fidelity.
    Served,
    /// Served on the low-precision fallback model
    /// ([`AdmissionPolicy::Degrade`](super::AdmissionPolicy::Degrade)).
    Degraded,
    /// Rejected on arrival at a full queue
    /// ([`AdmissionPolicy::DropNewest`](super::AdmissionPolicy::DropNewest)
    /// or the arrival-side bound of
    /// [`AdmissionPolicy::Deadline`](super::AdmissionPolicy::Deadline)).
    ShedNewest,
    /// Evicted from the queue head by a newer arrival
    /// ([`AdmissionPolicy::DropOldest`](super::AdmissionPolicy::DropOldest)).
    ShedOldest,
    /// Shed at dispatch with its queue wait past the SLO
    /// ([`AdmissionPolicy::Deadline`](super::AdmissionPolicy::Deadline)).
    ShedDeadline,
    /// Still queued when the last instance died with no restart coming:
    /// the fleet could provably never serve it, so it is accounted as a
    /// drop rather than silently lost. Only a [`FaultPlan`](super::FaultPlan)
    /// that kills every instance without restarting any can produce this.
    ShedStranded,
    /// Aborted by a kill and refused re-admission by the
    /// [`RetryPolicy`](super::RetryPolicy): either the request burned
    /// its per-request attempt ceiling or the global retry budget was
    /// exhausted (retry-storm protection). Always 0 with the default
    /// policy, which re-admits unconditionally.
    ShedRetryBudget,
}

/// Per-cause shed counters. `newest + oldest + deadline + stranded +
/// retry` is the dropped total; `degraded` counts requests routed to the
/// fallback model (they are *served*, not dropped).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShedCounts {
    /// Arrivals rejected at a full queue.
    pub newest: u64,
    /// Oldest waiters evicted by newer arrivals.
    pub oldest: u64,
    /// Requests shed at dispatch with their SLO already blown.
    pub deadline: u64,
    /// Requests admitted onto the degraded (fallback-model) tier.
    pub degraded: u64,
    /// Requests stranded in queue when the whole fleet died
    /// ([`RequestOutcome::ShedStranded`]); always 0 without fault
    /// injection.
    pub stranded: u64,
    /// Kill-aborted requests refused re-admission by the retry policy
    /// ([`RequestOutcome::ShedRetryBudget`]); always 0 under the default
    /// [`RetryPolicy`](super::RetryPolicy).
    pub retry: u64,
}

/// Self-healing / availability accounting of one serving run: what the
/// stochastic failures did, what the supervisor and retry layer did
/// about it. For a fault-free run every counter is zero and
/// [`active_instances`](Self::active_instances) equals the fleet size.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AvailabilityStats {
    /// Kills that landed on a live instance (kills of already-dead
    /// instances are no-ops and not counted).
    pub incidents: u64,
    /// Reloads completed — instances that came back up, whether healed
    /// by the supervisor or by a scripted
    /// [`FaultEvent::Restart`](super::FaultEvent::Restart).
    pub recoveries: u64,
    /// Supervised restarts scheduled (each consumes one unit of the
    /// supervisor's restart budget, when it has one).
    pub restarts_issued: u64,
    /// Instances permanently benched by crash-loop detection.
    pub benched: u64,
    /// Instances still serving (up or recovering) at the end of the
    /// run; the fleet's re-estimated capacity is
    /// `estimated_capacity_fps × active_instances / instances`.
    pub active_instances: usize,
    /// Mean measured time-to-recovery over [`Self::recoveries`]
    /// (down-at to back-up, including backoff *and* reload); ZERO when
    /// nothing recovered. This is where SCONNA's near-zero warm reload
    /// shows up against the analog baselines.
    pub mean_mttr: SimTime,
    /// Total downtime per instance, instance order. An instance still
    /// down at the end accrues downtime up to the final event time.
    pub downtime: Vec<SimTime>,
    /// Kill-aborted requests re-admitted to the queue.
    pub retries: u64,
    /// Highest per-request dispatch-attempt count observed.
    pub max_attempts_seen: u32,
}

/// Per-tenant usage record of one serving run — the accounting a
/// multi-tenant operator bills and SLO-audits from. One entry per
/// [`TenantSpec`](super::TenantSpec), roster order (the order is part of
/// the deterministic-replay contract: reports must be bit-identical
/// across worker counts and trace shuffles, so the tenant list is a
/// `Vec`, never a hash map).
///
/// Per-tenant accuracy lives on
/// [`FunctionalServingReport::tenant_accuracy`] — the analytic-only run
/// computes no predictions, and its report must stay bit-identical to
/// the functional run's embedded [`ServingReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantUsage {
    /// Tenant display name from the [`TenantSpec`](super::TenantSpec).
    pub name: String,
    /// Model served for this tenant.
    pub model: String,
    /// Weighted-fair share weight.
    pub weight: f64,
    /// Requests this tenant offered (`= completed + dropped + degraded`).
    pub offered: u64,
    /// Requests served to completion at full fidelity.
    pub completed: u64,
    /// Requests shed with no response.
    pub dropped: u64,
    /// Requests served on the low-precision fallback model.
    pub degraded: u64,
    /// Per-cause shed breakdown for this tenant alone.
    pub shed: ShedCounts,
    /// `dropped / offered`; 0 when the tenant offered nothing.
    pub drop_rate: f64,
    /// End-to-end latency distribution of this tenant's responses.
    pub latency: LatencySummary,
    /// Full-fidelity served throughput over the fleet makespan.
    pub served_fps: f64,
    /// Responses per second (full-fidelity + degraded) over the
    /// makespan; 0 for a zero-length run.
    pub goodput_fps: f64,
    /// Batches dispatched carrying this tenant's requests. Batches are
    /// single-tenant (the scheduler never mixes tenants in one batch,
    /// because a batch runs one resident model), so these sum to the
    /// fleet total.
    pub batches: u64,
    /// Mean requests per dispatched batch for this tenant.
    pub mean_batch_fill: f64,
    /// Times an instance had to swap its resident model *to* this
    /// tenant's model before dispatching for it. This is where the
    /// paper's reprogramming asymmetry lands: near-zero cost per swap
    /// for SCONNA's LUT repointing, cell-programming-dominated for the
    /// analog baselines.
    pub model_swaps: u64,
    /// Total simulated time spent in model swaps charged to this
    /// tenant's dispatches.
    pub swap_time: SimTime,
    /// Dynamic energy attributed to this tenant's batches, joules.
    pub energy_j: f64,
    /// `energy_j` per response; 0 when the tenant got no responses.
    pub energy_per_inference_j: f64,
}

/// Per-tenant functional accuracy, parallel to
/// [`ServingReport::tenants`]. Lives on the functional report only: the
/// analytic run computes no predictions, and the two reports' embedded
/// [`ServingReport`]s must stay bit-identical.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantAccuracy {
    /// Tenant display name.
    pub name: String,
    /// Responses whose prediction matched the sample label.
    pub correct: u64,
    /// `correct / (completed + degraded)`; 0 when nothing was served.
    pub accuracy_under_load: f64,
    /// `correct / offered`; 0 when the tenant offered nothing.
    pub accuracy_offered: f64,
}

/// Fleet-level result of one serving simulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServingReport {
    /// Accelerator display name.
    pub accelerator: &'static str,
    /// Model name.
    pub model: String,
    /// Fleet size.
    pub instances: usize,
    /// Scheduler batch limit.
    pub max_batch: usize,
    /// Requests that entered the system
    /// (`= completed + dropped + degraded`).
    pub offered: u64,
    /// Requests served to completion at full fidelity.
    pub completed: u64,
    /// Requests shed with no response.
    pub dropped: u64,
    /// Requests served on the low-precision fallback model.
    pub degraded: u64,
    /// Per-cause shed breakdown.
    pub shed: ShedCounts,
    /// `dropped / offered`.
    pub drop_rate: f64,
    /// Batches dispatched (both tiers). A batch aborted by a
    /// [`KillInstance`](super::FaultEvent::Kill) fault and re-dispatched
    /// counts once per dispatch.
    pub batches: u64,
    /// Mean requests per dispatched batch (batch-slot fill).
    pub mean_batch_fill: f64,
    /// Time of the last completion.
    pub makespan: SimTime,
    /// Full-fidelity served throughput: completed / makespan.
    pub fps: f64,
    /// Responses per second — full-fidelity *and* degraded
    /// (`(completed + degraded) / makespan`): the availability a client
    /// population observes. Excludes drops; under
    /// [`AdmissionPolicy::Degrade`](super::AdmissionPolicy::Degrade) it
    /// holds past the knee while `fps` (and accuracy) give way.
    pub goodput_fps: f64,
    /// End-to-end latency distribution of the responses (queueing +
    /// service; dropped requests contribute no sample). All-zero when
    /// nothing was served.
    pub latency: LatencySummary,
    /// Pending-queue depth over time, sampled at every change and at
    /// every fault boundary (kill / restart / reload), so
    /// fault-induced discontinuities are visible in the series even when
    /// the depth itself did not move.
    pub queue_depth: QueueDepthSamples,
    /// Per-instance utilization over the makespan, instance order. A
    /// killed instance's truncated batch contributes only the busy time
    /// it actually accrued before the kill.
    pub utilization: Vec<f64>,
    /// Total fleet energy over the makespan, joules. Batches aborted by
    /// a kill still paid their dispatch energy (wasted work is real
    /// work).
    pub energy_j: f64,
    /// Energy per response, joules.
    pub energy_per_inference_j: f64,
    /// Average fleet power, watts.
    pub avg_power_w: f64,
    /// Self-healing accounting: incidents, recoveries, measured MTTR,
    /// per-instance downtime and retry counters. All-default for
    /// a fault-free run.
    pub availability: AvailabilityStats,
    /// Responses binned into fixed windows
    /// ([`ServingConfig::with_goodput_window`](super::ServingConfig::with_goodput_window));
    /// `None` unless the config enables it. Collapse and healing
    /// transients that the scalar `goodput_fps` averages away are
    /// visible here.
    pub goodput_series: Option<GoodputSamples>,
    /// Per-tenant usage records, roster order. A single-tenant run (every
    /// legacy entry point) carries exactly one record whose counters
    /// mirror the fleet totals.
    pub tenants: Vec<TenantUsage>,
}

/// [`ServingReport`] plus the functional outputs: the prediction each
/// response carries. The queueing model times the run; the predictions
/// are projected from its settled outcomes at report time
/// ([`Fleet::into_functional_report`](super::Fleet::into_functional_report)).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FunctionalServingReport {
    /// The queueing/energy report (identical to the analytic-only
    /// simulation of the same config).
    pub serving: ServingReport,
    /// Predicted class per request, indexed by request id; `usize::MAX`
    /// marks a dropped request (it never got a response).
    pub predictions: Vec<usize>,
    /// Terminal state per request, indexed by request id — the **shed
    /// set** of the run.
    pub outcomes: Vec<RequestOutcome>,
    /// Dispatch attempts per request, indexed by request id: 1 for a
    /// request served (or shed) on its first dispatch, `1 + retries`
    /// after kill-aborts, 0 for a request shed before ever dispatching.
    pub attempts: Vec<u32>,
    /// Responses (full-fidelity or degraded) whose prediction matched the
    /// sample label: the sum of [`TenantAccuracy::correct`] over
    /// tenants.
    pub correct: u64,
    /// Top-1 accuracy over **admitted** traffic: `correct / responses`
    /// where `responses = completed + degraded` (0 when nothing was
    /// served).
    pub accuracy_under_load: f64,
    /// Top-1 accuracy over **offered** traffic: `correct / offered` — a
    /// dropped request is an answer nobody got, so it scores as wrong
    /// (0 when nothing was offered).
    pub accuracy_offered: f64,
    /// Per-tenant accuracy, parallel to
    /// [`ServingReport::tenants`](ServingReport::tenants).
    pub tenant_accuracy: Vec<TenantAccuracy>,
}

/// One point of an overload sweep: an offered load and what the fleet
/// made of it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverloadPoint {
    /// Offered Poisson arrival rate, requests per second.
    pub offered_fps: f64,
    /// The functional serving report at that load.
    pub report: FunctionalServingReport,
}
