//! Serving-experiment configuration: arrival processes, admission
//! policies, and the [`ServingConfig`] that binds a fleet shape to a
//! workload — plus the cheap `Clone`-based builder path sweep call
//! sites use instead of re-constructing configs by hand.

use crate::organization::AcceleratorConfig;
use crate::perf::analyze_layer_batched;
use crate::serve::autoscale::AutoscalePolicy;
use crate::serve::supervisor::Supervisor;
use sconna_sim::time::SimTime;
use sconna_tensor::models::CnnModel;
use serde::{Deserialize, Serialize};

/// How requests enter the system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Open loop: exponential inter-arrival times at `rate_fps`
    /// requests per second, independent of service progress.
    Poisson {
        /// Mean arrival rate, requests per second.
        rate_fps: f64,
    },
    /// Closed loop: `clients` concurrent users; each fires its next
    /// request the instant its previous one completes — or is shed (a
    /// rejected client immediately retries with a fresh request). This
    /// is the saturation workload that measures peak throughput.
    ClosedLoop {
        /// Number of concurrent clients.
        clients: usize,
    },
    /// Replay: request `i` of the trace arrives at `times[i]`. The trace
    /// length must equal `ServingConfig::requests`. Request ids are
    /// assigned in *time* order (ties by schedule order), so any
    /// permutation of a tie-free trace simulates identically —
    /// the reordering invariance the overload determinism tests pin.
    Trace {
        /// Absolute arrival times (need not be sorted).
        times: Vec<SimTime>,
    },
}

impl ArrivalProcess {
    /// Open-loop Poisson arrivals at `rate_fps` requests per second.
    pub fn poisson(rate_fps: f64) -> Self {
        ArrivalProcess::Poisson { rate_fps }
    }

    /// A closed loop of `clients` zero-think-time users.
    pub fn closed_loop(clients: usize) -> Self {
        ArrivalProcess::ClosedLoop { clients }
    }

    /// Replay of an absolute-arrival-time trace.
    pub fn trace(times: Vec<SimTime>) -> Self {
        ArrivalProcess::Trace { times }
    }
}

/// What the scheduler does with traffic the bounded queue cannot absorb.
///
/// Shedding triggers when a request arrives while the pending queue
/// holds at least `queue_cap × instances` requests (and, for
/// [`AdmissionPolicy::Deadline`], additionally at dispatch time). With
/// `queue_cap: None` only `Deadline` ever sheds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// Reject the arriving request (classic tail drop). The default; with
    /// an unbounded queue this is exactly the pre-overload scheduler.
    #[default]
    DropNewest,
    /// Evict the oldest waiting request and admit the newcomer (the
    /// freshest traffic is the most likely to still meet its deadline).
    DropOldest,
    /// Tail drop at the queue cap, plus SLO-aware shedding at dispatch:
    /// any request whose queue wait already exceeds `slo` when an
    /// instance would pick it up is shed instead of served — it could
    /// only have become a late answer nobody is waiting for.
    Deadline {
        /// Queue-wait budget per request.
        slo: SimTime,
    },
    /// Never drop: requests arriving over the cap are admitted onto the
    /// same queue but marked **degraded** — they execute on a cheaper
    /// `fallback_bits`-weight-precision copy of the model
    /// ([`sconna_tensor::network::QuantizedNetwork::with_weight_bits`])
    /// whose shorter stochastic streams make their batches
    /// `2^native / 2^fallback` times faster
    /// ([`AcceleratorConfig::with_native_bits`]). Shedding trades
    /// accuracy instead of availability.
    Degrade {
        /// Weight precision of the fallback model, bits.
        fallback_bits: u8,
    },
}

/// The cluster retry layer: what happens to requests whose batch was
/// aborted by a kill. The default (`all None`) re-admits every aborted
/// request: no attempt ceiling and no global budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum *dispatch* attempts per request (so `Some(1)` means no
    /// retries at all: the first abort sheds the request). `None` is
    /// unlimited — every abort re-admits.
    pub max_attempts: Option<u32>,
    /// Global cap on re-admissions across the whole run — retry-storm
    /// protection: once a chaos burst has burned the budget, further
    /// aborted requests are shed
    /// ([`RequestOutcome::ShedRetryBudget`](super::RequestOutcome::ShedRetryBudget))
    /// instead of amplifying the overload. `None` is unlimited.
    pub retry_budget: Option<u64>,
}

impl RetryPolicy {
    /// Limits each request to `n` dispatch attempts. Zero is rejected
    /// by [`ServingConfig::validate`]
    /// ([`ServingConfigError::ZeroMaxAttempts`]).
    #[must_use]
    pub fn with_max_attempts(mut self, n: u32) -> Self {
        self.max_attempts = Some(n);
        self
    }

    /// Caps total re-admissions across the run.
    #[must_use]
    pub fn with_retry_budget(mut self, budget: u64) -> Self {
        self.retry_budget = Some(budget);
        self
    }
}

/// How batch-formation slots are shared between tenants. Scheduling is
/// work-conserving at *batch* granularity: a decision is taken whenever
/// an instance is idle and at least one tenant has a formable batch,
/// and batches are never preempted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum TenantScheduler {
    /// Start-time weighted-fair queueing over per-tenant virtual time:
    /// tenant `t` carries a virtual clock advanced by
    /// `batch_size / weight` at every dispatch, a newly-backlogged
    /// tenant rejoins at the fleet's current virtual time (no hoarded
    /// credit), and the backlogged tenant with the smallest clock
    /// dispatches next. Long-run service converges on the weight
    /// shares; one tenant's overload cannot starve another. The
    /// default.
    #[default]
    WeightedFair,
    /// The naive shared-queue baseline: tenants' queues are drained in
    /// global arrival order (earliest waiting head request dispatches
    /// first), exactly as if everyone shared one FIFO. No isolation —
    /// an overloaded tenant inflates every other tenant's tail latency.
    /// The `tenant_sweep` bench quantifies the blowup.
    SharedFifo,
}

/// One tenant of a multi-tenant serving fleet: a model, a fair-share
/// weight and a private arrival process. Registered on
/// [`ServingConfig::with_tenants`]; requests of different tenants wait
/// in per-tenant bounded queues and are batched per tenant (a batch
/// never mixes models).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Display name, carried into the per-tenant usage report.
    pub name: String,
    /// Index of this tenant's model in the model slice passed to
    /// [`Fleet::new_multi`](crate::serve::Fleet::new_multi). Tenants may
    /// share a model index (and then share prepared weights and never
    /// pay a swap between each other).
    pub model: usize,
    /// Weighted-fair share. Service under contention converges on
    /// `weight / Σ weights`; must be positive and finite.
    pub weight: f64,
    /// This tenant's private arrival process.
    pub arrivals: ArrivalProcess,
    /// Requests this tenant offers over the run. The config-level
    /// `requests` must equal the sum over tenants
    /// ([`ServingConfig::with_tenants`] maintains this).
    pub requests: usize,
    /// Per-instance bound of this tenant's private queue; `None`
    /// inherits the config-level `queue_cap`.
    pub queue_cap: Option<usize>,
}

impl TenantSpec {
    /// A weight-1 tenant of `model` offering `requests`
    /// requests through `arrivals`.
    pub fn new(
        name: impl Into<String>,
        model: usize,
        arrivals: ArrivalProcess,
        requests: usize,
    ) -> Self {
        Self {
            name: name.into(),
            model,
            weight: 1.0,
            arrivals,
            requests,
            queue_cap: None,
        }
    }

    /// Replaces the fair-share weight.
    #[must_use]
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Bounds this tenant's private queue at `cap` requests per
    /// instance, overriding the config-level cap.
    #[must_use]
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = Some(cap);
        self
    }
}

/// Why a [`ServingConfig`] cannot be simulated. Returned by
/// [`ServingConfig::validate`] and [`Fleet::try_new`](super::Fleet::try_new);
/// the panicking constructors panic with this error's message, so the
/// legacy panic texts are preserved verbatim.
#[derive(Debug, Clone, PartialEq)]
pub enum ServingConfigError {
    /// `instances == 0`.
    NoInstances,
    /// `max_batch == 0`.
    ZeroBatchLimit,
    /// `requests == 0`.
    NoRequests,
    /// `queue_cap == Some(0)` (config-level or on the named tenant).
    ZeroQueueCap {
        /// Offending tenant name; `None` for the config-level cap.
        tenant: Option<String>,
    },
    /// A closed loop with zero clients (config-level or tenant).
    NoClients,
    /// A trace whose length disagrees with its request budget.
    TraceLengthMismatch {
        /// Trace length.
        trace: usize,
        /// Request budget it must equal.
        requests: usize,
    },
    /// A Poisson arrival process with a non-positive (or non-finite)
    /// rate.
    NonPositiveRate {
        /// The offending rate.
        rate_fps: f64,
    },
    /// The autoscale policy is internally inconsistent (bounds or
    /// interval).
    Autoscale(String),
    /// The supervisor policy is degenerate (backoff, jitter, ladder
    /// reset or crash-loop bounds).
    Supervisor(String),
    /// A retry policy allowing zero dispatch attempts per request.
    ZeroMaxAttempts,
    /// Autoscale `max` disagrees with the provisioned pool.
    AutoscalePoolMismatch {
        /// The policy's `max`.
        max: usize,
        /// The config's `instances`.
        instances: usize,
    },
    /// A zero goodput window.
    ZeroGoodputWindow,
    /// A tenant with a non-positive or non-finite weight.
    TenantWeight {
        /// Offending tenant name.
        tenant: String,
        /// The offending weight.
        weight: f64,
    },
    /// A tenant offering zero requests.
    TenantNoRequests {
        /// Offending tenant name.
        tenant: String,
    },
    /// The config-level request budget disagrees with the sum over
    /// tenants.
    TenantRequestSum {
        /// Sum of tenant request budgets.
        sum: usize,
        /// Config-level `requests`.
        requests: usize,
    },
    /// A tenant naming a model index outside the model slice (checked
    /// at fleet construction, when the slice is known).
    TenantModelOutOfRange {
        /// Offending tenant name.
        tenant: String,
        /// The out-of-range model index.
        model: usize,
        /// Number of models provided.
        models: usize,
    },
    /// A fleet built over an empty model list.
    NoModels,
    /// A multi-model functional fleet whose workload list disagrees in
    /// length with its model list.
    WorkloadCountMismatch {
        /// Number of models.
        models: usize,
        /// Number of functional workloads.
        workloads: usize,
    },
    /// A functional workload with an empty sample set.
    NoSamples {
        /// Model index of the offending workload.
        model: usize,
    },
    /// A functional workload with zero worker threads.
    NoWorkers {
        /// Model index of the offending workload.
        model: usize,
    },
    /// [`AdmissionPolicy::Degrade`](super::AdmissionPolicy::Degrade)
    /// over a functional workload without a fallback network.
    MissingFallback {
        /// Model index of the offending workload.
        model: usize,
    },
}

impl std::fmt::Display for ServingConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoInstances => write!(f, "need at least one instance"),
            Self::ZeroBatchLimit => write!(f, "max_batch must be positive"),
            Self::NoRequests => write!(f, "need at least one request"),
            Self::ZeroQueueCap { tenant: None } => {
                write!(f, "queue_cap must be positive (use None for unbounded)")
            }
            Self::ZeroQueueCap { tenant: Some(t) } => write!(
                f,
                "tenant {t:?}: queue_cap must be positive (use None to inherit)"
            ),
            Self::NoClients => write!(f, "closed loop needs at least one client"),
            Self::TraceLengthMismatch { trace, requests } => write!(
                f,
                "trace length must equal the request count ({trace} vs {requests})"
            ),
            Self::NonPositiveRate { rate_fps } => {
                write!(f, "Poisson rate must be positive (got {rate_fps})")
            }
            Self::Autoscale(msg) | Self::Supervisor(msg) => write!(f, "{msg}"),
            Self::ZeroMaxAttempts => {
                write!(f, "a request needs at least one dispatch attempt")
            }
            Self::AutoscalePoolMismatch { max, instances } => write!(
                f,
                "autoscale max ({max}) must equal the provisioned instance pool ({instances})"
            ),
            Self::ZeroGoodputWindow => write!(f, "goodput window must be positive"),
            Self::TenantWeight { tenant, weight } => write!(
                f,
                "tenant {tenant:?}: weight must be positive and finite (got {weight})"
            ),
            Self::TenantNoRequests { tenant } => {
                write!(f, "tenant {tenant:?}: need at least one request")
            }
            Self::TenantRequestSum { sum, requests } => write!(
                f,
                "requests ({requests}) must equal the sum over tenants ({sum}); \
                 use with_tenants to keep them in sync"
            ),
            Self::TenantModelOutOfRange {
                tenant,
                model,
                models,
            } => write!(
                f,
                "tenant {tenant:?} names model {model} of a {models}-model slice"
            ),
            Self::NoModels => write!(f, "need at least one model"),
            Self::WorkloadCountMismatch { models, workloads } => write!(
                f,
                "one functional workload per model ({workloads} workloads for {models} models)"
            ),
            Self::NoSamples { model } => {
                write!(f, "model {model}: functional serving needs samples")
            }
            Self::NoWorkers { model } => write!(f, "model {model}: need at least one worker"),
            Self::MissingFallback { model } => write!(
                f,
                "model {model}: Degrade admission needs a fallback network"
            ),
        }
    }
}

impl std::error::Error for ServingConfigError {}

fn validate_arrivals(arrivals: &ArrivalProcess, requests: usize) -> Result<(), ServingConfigError> {
    match arrivals {
        ArrivalProcess::Poisson { rate_fps } => {
            if !(*rate_fps > 0.0 && rate_fps.is_finite()) {
                return Err(ServingConfigError::NonPositiveRate {
                    rate_fps: *rate_fps,
                });
            }
        }
        ArrivalProcess::ClosedLoop { clients } => {
            if *clients == 0 {
                return Err(ServingConfigError::NoClients);
            }
        }
        ArrivalProcess::Trace { times } => {
            if times.len() != requests {
                return Err(ServingConfigError::TraceLengthMismatch {
                    trace: times.len(),
                    requests,
                });
            }
        }
    }
    Ok(())
}

/// One serving experiment: a fleet, a scheduler policy, a workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServingConfig {
    /// Accelerator configuration every instance runs.
    pub accelerator: AcceleratorConfig,
    /// Number of accelerator instances in the fleet.
    pub instances: usize,
    /// Largest batch the scheduler packs onto one instance.
    pub max_batch: usize,
    /// How long the oldest pending request may wait before a partial
    /// batch is flushed to an idle instance.
    pub batch_window: SimTime,
    /// Pending-queue bound, requests **per instance** (the shared queue
    /// holds at most `queue_cap × instances`); `None` is unbounded.
    pub queue_cap: Option<usize>,
    /// What happens to traffic over the bound.
    pub admission: AdmissionPolicy,
    /// Arrival process.
    pub arrivals: ArrivalProcess,
    /// Total requests to serve; the simulation ends when every one has
    /// been served, degraded or shed.
    pub requests: usize,
    /// Seed for the arrival process (unused by `ClosedLoop`/`Trace`).
    pub seed: u64,
    /// Supervised-restart policy; `None` means faults are permanent
    /// unless a scripted [`FaultEvent::Restart`](super::FaultEvent::Restart)
    /// revives the instance (PR 7 behavior).
    pub supervisor: Option<Supervisor>,
    /// Cluster retry policy for kill-aborted requests.
    pub retry: RetryPolicy,
    /// Window of the availability goodput series
    /// ([`ServingReport::goodput_series`](super::ServingReport::goodput_series));
    /// `None` disables the series.
    pub goodput_window: Option<SimTime>,
    /// Reactive autoscaling policy; `None` keeps every provisioned
    /// instance active (the pre-autoscale behavior, bit-exactly). When
    /// set, `instances` is the *provisioned* pool and the policy's
    /// `max` must equal it — only `active` instances take traffic, the
    /// rest stand by.
    pub autoscale: Option<AutoscalePolicy>,
    /// The tenant roster. Empty (the default and every legacy config)
    /// means single-tenant: the fleet synthesizes one weight-1 tenant
    /// from the config-level `arrivals`/`requests`/`queue_cap` fields
    /// and behaves bit-identically to the pre-tenant scheduler. When
    /// non-empty, the config-level `arrivals` is ignored and `requests`
    /// must equal the sum of tenant budgets
    /// ([`ServingConfig::with_tenants`] keeps them in sync).
    pub tenants: Vec<TenantSpec>,
    /// How batch-formation slots are shared between tenants. Irrelevant
    /// (but harmless) with fewer than two tenants.
    pub tenant_scheduler: TenantScheduler,
}

impl ServingConfig {
    /// A closed-loop saturation test: `2 × instances × max_batch`
    /// zero-think-time clients — enough that whenever an instance goes
    /// idle a full batch is already waiting, so every batch slot stays
    /// occupied and the measured FPS is the fleet's service **capacity**.
    /// That capacity is the knee of the open-loop overload sweep: offered
    /// load below it is served at the offered rate, load above it can
    /// only be absorbed by queueing and shedding (see
    /// [`overload_sweep`](crate::serve::overload_sweep) and the
    /// closed-form [`ServingConfig::estimated_capacity_fps`], which this
    /// measured knee is unit-pinned against).
    ///
    /// Unbounded queue, [`AdmissionPolicy::DropNewest`] — i.e. no
    /// shedding: the closed loop self-limits at `clients` outstanding
    /// requests.
    pub fn saturation(
        accelerator: AcceleratorConfig,
        instances: usize,
        max_batch: usize,
        requests: usize,
    ) -> Self {
        Self {
            accelerator,
            instances,
            max_batch,
            batch_window: SimTime::from_ns(100_000), // 100 µs
            queue_cap: None,
            admission: AdmissionPolicy::DropNewest,
            arrivals: ArrivalProcess::ClosedLoop {
                clients: 2 * instances * max_batch,
            },
            requests,
            seed: 0,
            supervisor: None,
            retry: RetryPolicy::default(),
            goodput_window: None,
            autoscale: None,
            tenants: Vec::new(),
            tenant_scheduler: TenantScheduler::WeightedFair,
        }
    }

    /// Checks every model-independent invariant a fleet construction
    /// relies on, returning the first violation instead of the
    /// downstream panic or mid-run hang it used to cause (a zero queue
    /// cap, a zero batch limit, a non-positive Poisson rate, an
    /// autoscale `max` that disagrees with the pool, ...). Tenant model
    /// indices are checked at fleet construction, where the model slice
    /// is known.
    pub fn validate(&self) -> Result<(), ServingConfigError> {
        if self.instances == 0 {
            return Err(ServingConfigError::NoInstances);
        }
        if self.max_batch == 0 {
            return Err(ServingConfigError::ZeroBatchLimit);
        }
        if self.requests == 0 {
            return Err(ServingConfigError::NoRequests);
        }
        if self.queue_cap == Some(0) {
            return Err(ServingConfigError::ZeroQueueCap { tenant: None });
        }
        if self.goodput_window == Some(SimTime::ZERO) {
            return Err(ServingConfigError::ZeroGoodputWindow);
        }
        if let Some(policy) = self.autoscale {
            policy
                .try_validate()
                .map_err(ServingConfigError::Autoscale)?;
            if policy.max != self.instances {
                return Err(ServingConfigError::AutoscalePoolMismatch {
                    max: policy.max,
                    instances: self.instances,
                });
            }
        }
        if let Some(policy) = self.supervisor {
            policy
                .try_validate()
                .map_err(ServingConfigError::Supervisor)?;
        }
        if self.retry.max_attempts == Some(0) {
            return Err(ServingConfigError::ZeroMaxAttempts);
        }
        if self.tenants.is_empty() {
            validate_arrivals(&self.arrivals, self.requests)?;
        } else {
            let mut sum = 0usize;
            for t in &self.tenants {
                if !(t.weight > 0.0 && t.weight.is_finite()) {
                    return Err(ServingConfigError::TenantWeight {
                        tenant: t.name.clone(),
                        weight: t.weight,
                    });
                }
                if t.requests == 0 {
                    return Err(ServingConfigError::TenantNoRequests {
                        tenant: t.name.clone(),
                    });
                }
                if t.queue_cap == Some(0) {
                    return Err(ServingConfigError::ZeroQueueCap {
                        tenant: Some(t.name.clone()),
                    });
                }
                validate_arrivals(&t.arrivals, t.requests)?;
                sum += t.requests;
            }
            if sum != self.requests {
                return Err(ServingConfigError::TenantRequestSum {
                    sum,
                    requests: self.requests,
                });
            }
        }
        Ok(())
    }

    /// Closed-form service-capacity estimate: `instances × max_batch`
    /// requests complete every full-batch makespan, so
    /// `capacity = instances · max_batch / makespan(max_batch)`. This is
    /// the saturation throughput the closed-loop measurement converges to
    /// (it ignores window flushes and the final partial batch, so short
    /// runs measure slightly below it) and the knee of the open-loop
    /// overload sweep — pinned against both in this module's tests so
    /// the estimate and the simulator cannot silently diverge.
    ///
    /// The estimate reflects the tier mix the config actually runs:
    /// under [`AdmissionPolicy::Degrade`] sustained overload keeps the
    /// queue pinned at its cap, so admitted traffic lands on the faster
    /// `fallback_bits` tier and the absorbable rate is the *fallback*
    /// operating point's ([`AcceleratorConfig::with_native_bits`]) —
    /// estimating from the full-fidelity timing alone under-states
    /// capacity and made the autoscaler over-scale a degraded fleet.
    /// Every other policy serves full-fidelity only and uses the native
    /// timing, bit-identically to the pre-fix estimate.
    pub fn estimated_capacity_fps(&self, model: &CnnModel) -> f64 {
        let accel = match self.admission {
            AdmissionPolicy::Degrade { fallback_bits } => {
                self.accelerator.with_native_bits(fallback_bits)
            }
            _ => self.accelerator,
        };
        let makespan = model.workloads.iter().fold(SimTime::ZERO, |acc, w| {
            acc + analyze_layer_batched(&accel, w, self.max_batch).total
        });
        (self.instances * self.max_batch) as f64 / makespan.as_secs_f64()
    }

    // ---- Builder path ------------------------------------------------
    //
    // `ArrivalProcess` lost `Copy` when `Trace` arrived (a `Vec` of
    // times), so sweep call sites that used to copy a base config now
    // clone-and-override instead of re-constructing every field by hand.
    // Each method is a cheap move-through: `base.clone().with_seed(7)`.

    /// Replaces the arrival process.
    #[must_use]
    pub fn with_arrivals(mut self, arrivals: ArrivalProcess) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Replaces the arrival process with open-loop Poisson arrivals at
    /// `rate_fps` — the per-point override [`overload_sweep`] applies.
    ///
    /// [`overload_sweep`]: crate::serve::overload_sweep
    #[must_use]
    pub fn with_poisson(self, rate_fps: f64) -> Self {
        self.with_arrivals(ArrivalProcess::Poisson { rate_fps })
    }

    /// Bounds the pending queue at `cap` requests per instance.
    #[must_use]
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = Some(cap);
        self
    }

    /// Removes the pending-queue bound.
    #[must_use]
    pub fn with_unbounded_queue(mut self) -> Self {
        self.queue_cap = None;
        self
    }

    /// Replaces the admission policy.
    #[must_use]
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Replaces the arrival-process seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the request budget.
    #[must_use]
    pub fn with_requests(mut self, requests: usize) -> Self {
        self.requests = requests;
        self
    }

    /// Attaches a supervised-restart policy.
    #[must_use]
    pub fn with_supervisor(mut self, supervisor: Supervisor) -> Self {
        self.supervisor = Some(supervisor);
        self
    }

    /// Replaces the cluster retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enables the windowed-goodput availability series. A zero window
    /// is rejected by [`ServingConfig::validate`]
    /// ([`ServingConfigError::ZeroGoodputWindow`]).
    #[must_use]
    pub fn with_goodput_window(mut self, window: SimTime) -> Self {
        self.goodput_window = Some(window);
        self
    }

    /// Attaches a reactive autoscaling policy. The policy's `max` must
    /// equal this config's `instances` (checked at fleet construction).
    #[must_use]
    pub fn with_autoscale(mut self, policy: AutoscalePolicy) -> Self {
        self.autoscale = Some(policy);
        self
    }

    /// Registers the tenant roster and syncs the config-level request
    /// budget to the sum over tenants (the invariant
    /// [`ServingConfig::validate`] checks). The config-level `arrivals`
    /// becomes irrelevant; per-tenant arrivals drive the run.
    #[must_use]
    pub fn with_tenants(mut self, tenants: Vec<TenantSpec>) -> Self {
        self.requests = tenants.iter().map(|t| t.requests).sum();
        self.tenants = tenants;
        self
    }

    /// Replaces the inter-tenant scheduler.
    #[must_use]
    pub fn with_tenant_scheduler(mut self, scheduler: TenantScheduler) -> Self {
        self.tenant_scheduler = scheduler;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_override_exactly_one_field() {
        let base = ServingConfig::saturation(AcceleratorConfig::sconna(), 2, 4, 32);
        let built = base
            .clone()
            .with_poisson(500.0)
            .with_queue_cap(3)
            .with_admission(AdmissionPolicy::DropOldest)
            .with_seed(9)
            .with_requests(48);
        assert_eq!(built.arrivals, ArrivalProcess::Poisson { rate_fps: 500.0 });
        assert_eq!(built.queue_cap, Some(3));
        assert_eq!(built.admission, AdmissionPolicy::DropOldest);
        assert_eq!(built.seed, 9);
        assert_eq!(built.requests, 48);
        // Untouched fields survive the chain.
        assert_eq!(built.instances, base.instances);
        assert_eq!(built.max_batch, base.max_batch);
        assert_eq!(built.batch_window, base.batch_window);
        // And the chain is equivalent to struct-update syntax.
        let by_hand = ServingConfig {
            arrivals: ArrivalProcess::poisson(500.0),
            queue_cap: Some(3),
            admission: AdmissionPolicy::DropOldest,
            seed: 9,
            requests: 48,
            ..base
        };
        assert_eq!(format!("{built:?}"), format!("{by_hand:?}"));
    }

    #[test]
    fn arrival_constructors_match_variants() {
        assert_eq!(
            ArrivalProcess::poisson(10.0),
            ArrivalProcess::Poisson { rate_fps: 10.0 }
        );
        assert_eq!(
            ArrivalProcess::closed_loop(4),
            ArrivalProcess::ClosedLoop { clients: 4 }
        );
        let times = vec![SimTime::from_ns(1), SimTime::from_ns(2)];
        assert_eq!(
            ArrivalProcess::trace(times.clone()),
            ArrivalProcess::Trace { times }
        );
    }

    #[test]
    fn with_unbounded_queue_clears_the_cap() {
        let cfg = ServingConfig::saturation(AcceleratorConfig::sconna(), 1, 1, 1)
            .with_queue_cap(5)
            .with_unbounded_queue();
        assert_eq!(cfg.queue_cap, None);
    }

    fn base() -> ServingConfig {
        ServingConfig::saturation(AcceleratorConfig::sconna(), 2, 4, 32)
    }

    #[test]
    fn validate_accepts_every_saturation_shape() {
        assert_eq!(base().validate(), Ok(()));
        assert_eq!(base().with_poisson(100.0).validate(), Ok(()));
        assert_eq!(
            base()
                .with_requests(3)
                .with_arrivals(ArrivalProcess::trace(vec![SimTime::ZERO; 3]))
                .validate(),
            Ok(())
        );
    }

    #[test]
    fn validate_rejects_degenerate_shapes_with_the_legacy_messages() {
        // Each rejection used to be a downstream panic (or, for the
        // Poisson rate, a mid-run assert); the error Display carries
        // the exact legacy message so panicking callers see no change.
        let cases: Vec<(ServingConfig, &str)> = vec![
            (
                ServingConfig {
                    instances: 0,
                    ..base()
                },
                "need at least one instance",
            ),
            (
                ServingConfig {
                    max_batch: 0,
                    ..base()
                },
                "max_batch must be positive",
            ),
            (base().with_requests(0), "need at least one request"),
            (
                base().with_queue_cap(0),
                "queue_cap must be positive (use None for unbounded)",
            ),
            (
                base().with_arrivals(ArrivalProcess::closed_loop(0)),
                "closed loop needs at least one client",
            ),
            (
                base().with_arrivals(ArrivalProcess::trace(vec![SimTime::ZERO; 3])),
                "trace length must equal the request count",
            ),
            (base().with_poisson(0.0), "Poisson rate must be positive"),
            (
                base().with_poisson(f64::NAN),
                "Poisson rate must be positive",
            ),
            (
                base().with_autoscale(AutoscalePolicy::new(1, 8)),
                "must equal the provisioned instance pool",
            ),
        ];
        for (cfg, needle) in cases {
            let err = cfg.validate().expect_err(needle);
            assert!(
                err.to_string().contains(needle),
                "{err} should contain {needle:?}"
            );
        }
    }

    #[test]
    fn validate_rejects_a_zero_attempt_retry_literal() {
        // The builder accepts zero; validation and fleet construction
        // reject it instead of serving with no dispatch ceiling.
        let cfg = base().with_retry(RetryPolicy::default().with_max_attempts(0));
        let err = cfg.validate().unwrap_err();
        assert_eq!(err, ServingConfigError::ZeroMaxAttempts);
        assert_eq!(
            err.to_string(),
            "a request needs at least one dispatch attempt"
        );
        let model = sconna_tensor::models::shufflenet_v2();
        let built = crate::serve::Fleet::try_new(&cfg, &[&model], &[]);
        assert!(matches!(built, Err(ServingConfigError::ZeroMaxAttempts)));
    }

    #[test]
    fn zero_goodput_window_is_an_error_not_a_panic() {
        let cfg = base().with_goodput_window(SimTime::ZERO);
        assert_eq!(cfg.validate(), Err(ServingConfigError::ZeroGoodputWindow));
        let model = sconna_tensor::models::shufflenet_v2();
        let built = crate::serve::Fleet::try_new(&cfg, &[&model], &[]);
        assert!(matches!(built, Err(ServingConfigError::ZeroGoodputWindow)));
    }

    #[test]
    fn validate_rejects_inconsistent_tenant_rosters() {
        let t = |w: f64, requests: usize| TenantSpec {
            weight: w,
            ..TenantSpec::new("a", 0, ArrivalProcess::closed_loop(2), requests)
        };
        let bad_weight = base().with_tenants(vec![t(0.0, 8)]);
        assert!(bad_weight
            .validate()
            .unwrap_err()
            .to_string()
            .contains("weight"));
        let no_requests = ServingConfig {
            requests: 8,
            tenants: vec![t(1.0, 0)],
            ..base()
        };
        assert!(matches!(
            no_requests.validate(),
            Err(ServingConfigError::TenantNoRequests { .. })
        ));
        let bad_sum = ServingConfig {
            requests: 99,
            tenants: vec![t(1.0, 8)],
            ..base()
        };
        assert!(matches!(
            bad_sum.validate(),
            Err(ServingConfigError::TenantRequestSum {
                sum: 8,
                requests: 99
            })
        ));
        let zero_cap = base().with_tenants(vec![t(1.0, 8).with_queue_cap(0)]);
        assert!(matches!(
            zero_cap.validate(),
            Err(ServingConfigError::ZeroQueueCap { tenant: Some(_) })
        ));
    }

    #[test]
    fn with_tenants_syncs_the_request_budget() {
        let cfg = base().with_tenants(vec![
            TenantSpec::new("a", 0, ArrivalProcess::closed_loop(2), 10),
            TenantSpec::new("b", 1, ArrivalProcess::poisson(50.0), 22),
        ]);
        assert_eq!(cfg.requests, 32);
        assert_eq!(cfg.validate(), Ok(()));
        assert_eq!(cfg.tenant_scheduler, TenantScheduler::WeightedFair);
        let fifo = cfg.with_tenant_scheduler(TenantScheduler::SharedFifo);
        assert_eq!(fifo.tenant_scheduler, TenantScheduler::SharedFifo);
    }

    #[test]
    fn degrade_capacity_reflects_the_fallback_tier() {
        // The satellite bugfix pin: under Degrade the absorbable rate in
        // the shedding regime is the fallback operating point's — faster
        // streams, higher capacity. Every other policy keeps the native
        // estimate bit-identically.
        let model = sconna_tensor::models::shufflenet_v2();
        let native = base().estimated_capacity_fps(&model);
        let degrade = base()
            .with_admission(AdmissionPolicy::Degrade { fallback_bits: 4 })
            .estimated_capacity_fps(&model);
        assert!(
            degrade > 2.0 * native,
            "4-bit fallback capacity {degrade} must dwarf native {native}"
        );
        // The fix is exactly "estimate at the fallback operating point".
        let repointed = ServingConfig {
            accelerator: AcceleratorConfig::sconna().with_native_bits(4),
            ..base()
        }
        .estimated_capacity_fps(&model);
        assert_eq!(degrade.to_bits(), repointed.to_bits());
        // Non-Degrade policies are untouched by the fix.
        let drop_oldest = base()
            .with_admission(AdmissionPolicy::DropOldest)
            .estimated_capacity_fps(&model);
        assert_eq!(native.to_bits(), drop_oldest.to_bits());
    }
}
