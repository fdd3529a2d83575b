//! The steppable fleet state machine: the serving simulation as an
//! incrementally-driven object instead of a run-to-completion function.
//!
//! [`Fleet::new`] builds the same scheduler the entry-point wrappers
//! always ran — shared pending queue, dynamic batching, admission
//! policy, deterministic [`EventQueue`] — but hands control of the event
//! loop to the caller: [`Fleet::step`] processes exactly one event,
//! [`Fleet::step_until`] drains events up to a simulated instant, and a
//! [`FleetSnapshot`] is available at **any** step boundary, exposing sim
//! time, per-instance state, queue depth, in-flight batches and the
//! served/dropped/degraded tallies. [`Fleet::run_to_completion`] followed
//! by [`Fleet::into_report`] reproduces the wrapper behavior
//! bit-identically (pinned in `tests/scenarios.rs`).
//!
//! The event loop runs the analytic timing model only; it never executes
//! a network. A functional fleet ([`Fleet::try_new`] with workloads)
//! computes its predictions at report time:
//! [`Fleet::into_functional_report`] projects the settled outcomes onto
//! one prepared network per (model, tier) in use.
//!
//! On top of the steppable core sits fault injection
//! ([`Fleet::with_faults`]): a [`FaultPlan`](super::FaultPlan) of timed
//! kill / restart events scheduled on the same event queue as the
//! traffic. A killed instance's in-flight batch is aborted and its
//! requests rejoin the front of the queue through the admission policy —
//! requests are never silently lost; the step-level conservation
//! invariant `offered == completed + dropped + degraded + queued +
//! in-flight` ([`FleetSnapshot::accounted`]) holds at every step
//! boundary, faults or not. A restarted instance pays the
//! [`model_reload_time`] weight-reload latency before taking work again.
//! If the whole fleet dies with no restart coming, requests that can
//! provably never be served drain as
//! [`RequestOutcome::ShedStranded`] when the fleet settles.
//!
//! Two datacenter-scale mechanisms ride on the same event loop:
//!
//! * **Rack routing.** Dispatch no longer scans the node list linearly:
//!   a two-level bitmap ([`RackRouter`]) groups instances into racks of
//!   64 under a cluster summary word set, so the lowest-numbered
//!   dispatchable instance is found with two `trailing_zeros` scans.
//!   The linear scan survives as a `debug_assert!` parity oracle.
//! * **Autoscaling.** When the config carries an
//!   [`AutoscalePolicy`](super::AutoscalePolicy), only part of the
//!   provisioned pool takes traffic; the rest is **standby**. A
//!   periodic [`Ev::ScaleTick`] compares demand against per-instance
//!   capacity and wakes or parks instances through the same
//!   epoch-guarded reload/drain machinery as fault handling — see
//!   [`autoscale`](super::autoscale) for the controller.

use super::autoscale::{AutoscaleCtl, ScaleEvent};
use super::config::{ServingConfigError, TenantScheduler, TenantSpec};
use super::ledger::{ratio, FinishedRun, Ledger};
use super::report::TenantAccuracy;
use super::supervisor::Supervisor;
use super::{
    AdmissionPolicy, ArrivalProcess, FaultEvent, FaultPlan, FunctionalServingReport,
    RequestOutcome, ServingConfig, ServingReport, ShedCounts,
};
use crate::organization::AcceleratorConfig;
use crate::perf::{
    analyze_layer_batched, inference_ops, model_reload_time, model_swap_time,
    model_warm_reload_time, LayerPerf,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sconna_sim::event::EventQueue;
use sconna_sim::parallel::parallel_map_with;
use sconna_sim::time::SimTime;
use sconna_tensor::arena::BatchArena;
use sconna_tensor::dataset::Sample;
use sconna_tensor::engine::VdpEngine;
use sconna_tensor::models::CnnModel;
use sconna_tensor::network::{PreparedNetwork, QuantizedNetwork};
use sconna_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// The functional side of a serving experiment: the quantized model the
/// fleet's responses are computed on, the labelled request population,
/// and the VDP engine behind it.
///
/// Request `r` is drawn round-robin from `samples`
/// (`samples[r % samples.len()]`) and runs under image noise key `r`, so
/// each response's prediction is a pure function of this workload, its
/// tier and `r` — independent of fleet size, batch packing, arrival
/// process, kills and `workers`. That purity is why the event
/// loop never runs the network: [`Fleet::into_functional_report`]
/// derives every prediction from the settled outcomes.
pub struct FunctionalWorkload<'a> {
    /// The quantized network full-fidelity responses are computed on.
    pub net: &'a QuantizedNetwork,
    /// Low-precision fallback network degraded responses are computed
    /// on; required when the admission policy is
    /// [`AdmissionPolicy::Degrade`] (typically `net.degraded(fallback_bits)`).
    pub fallback: Option<&'a QuantizedNetwork>,
    /// Engine the fallback network runs on — typically the same
    /// organization at `Precision::new(fallback_bits)`, whose shorter
    /// streams and range-matched ADC keep the fallback's signal-to-noise
    /// at its own grid. `None` shares the primary engine.
    pub fallback_engine: Option<&'a dyn VdpEngine>,
    /// Labelled request population (round-robin by request id).
    pub samples: &'a [Sample],
    /// Engine the prepared primary network executes on.
    pub engine: &'a dyn VdpEngine,
    /// Worker threads the functional report predicts `max_batch` chunks
    /// on, each chunk a single-threaded batch forward. Results are
    /// worker-count invariant; this only changes host wall time.
    pub workers: usize,
}

/// Scheduler events.
#[derive(Clone)]
enum Ev {
    /// A request of tenant `.0` enters that tenant's queue.
    Arrive(u32),
    /// The batching window of epoch `.0` expired.
    Flush(u64),
    /// Instance `inst` finished the batch it dispatched in boot epoch
    /// `epoch`; stale if the instance was killed since (its epoch moved
    /// on).
    BatchDone { inst: usize, epoch: u64 },
    /// Fault `.0` of the normalized plan fires.
    Fault(usize),
    /// Instance `inst` finishes its weight reload, begun in boot epoch
    /// `epoch`; stale if the instance was killed mid-reload.
    ReloadDone { inst: usize, epoch: u64 },
    /// The supervisor's backoff for instance `inst` expired: begin the
    /// supervised reload. Stale if the boot epoch moved on or something
    /// else (a scripted restart) already began healing the instance.
    SupRestart { inst: usize, epoch: u64 },
    /// Instance `inst` stayed up [`Supervisor::reset_after`] since its
    /// supervised reload finished: its backoff ladder resets. Stale if
    /// the boot epoch moved on (killed again first).
    BackoffReset { inst: usize, epoch: u64 },
    /// The autoscale controller's periodic decision point: measure
    /// demand since the last tick and retarget the active pool. Only
    /// scheduled when the config carries an
    /// [`AutoscalePolicy`](super::AutoscalePolicy); reschedules itself
    /// while the run can still make progress.
    ScaleTick,
}

/// One waiting request.
struct PendingReq {
    id: u64,
    arrived: SimTime,
    /// Admitted onto the degraded (fallback-model) tier.
    degraded: bool,
}

/// A batch occupying an instance.
struct InFlight {
    /// Tenant whose queue this batch was formed from (batches are
    /// single-tenant: one batch runs one resident model).
    tenant: u32,
    /// Fallback-tier batch.
    degraded: bool,
    /// Dispatch time (busy time accrues `completion - started`, or
    /// `kill - started` for an aborted batch).
    started: SimTime,
    /// `(request id, arrival time)` in queue order: the only owner of
    /// these requests while the batch runs.
    reqs: Vec<(u64, SimTime)>,
}

/// Per-instance supervision state (only allocated when the config has a
/// [`Supervisor`]).
struct SupState {
    /// Restart attempts on the current backoff ladder (reset by
    /// [`Ev::BackoffReset`] after sustained uptime).
    ladder_attempt: u32,
    /// Lifetime supervised restarts of this instance — the jitter key,
    /// so delays stay decorrelated even after ladder resets.
    ordinal: u64,
    /// Kill timestamps inside the sliding crash-loop window.
    recent_kills: VecDeque<SimTime>,
    /// Permanently benched by crash-loop detection; only a scripted
    /// [`FaultEvent::Restart`] (the operator override) revives it.
    benched: bool,
}

impl SupState {
    fn fresh() -> Self {
        Self {
            ladder_attempt: 0,
            ordinal: 0,
            recent_kills: VecDeque::new(),
            benched: false,
        }
    }
}

/// Supervisor control block: the policy plus the run-wide mutable state.
struct SupCtl {
    policy: Supervisor,
    states: Vec<SupState>,
}

/// One fleet instance's liveness state.
struct Instance {
    /// Alive and (eventually) dispatchable.
    up: bool,
    /// Mid-reload after a restart (`up` is still false).
    reloading: bool,
    /// Boot epoch: bumped by every kill, stamped into `BatchDone` /
    /// `ReloadDone` events so completions of a previous life are ignored.
    epoch: u64,
    /// Parked by the autoscaler: admin-down (`up` is false), holding no
    /// loaded weights, outside the active pool until a scale-up wakes it.
    standby: bool,
    /// Retiring on scale-down: still up and finishing its in-flight
    /// batch, but taking no new dispatches; parks into standby at batch
    /// completion. A scale-up before then reprieves it in place.
    draining: bool,
    /// Model index currently programmed into this instance's weight
    /// banks. Dispatching a batch of a different model charges
    /// [`model_swap_time`] (near-zero LUT repointing on SCONNA,
    /// cell-reprogramming-dominated on the analog baselines) before the
    /// batch runs; restarts and wakes reload this model.
    resident: usize,
    /// The batch this instance is serving, if any.
    in_flight: Option<InFlight>,
}

impl Instance {
    fn fresh(resident: usize) -> Self {
        Self {
            up: true,
            reloading: false,
            epoch: 0,
            standby: false,
            draining: false,
            resident,
            in_flight: None,
        }
    }

    fn dispatchable(&self) -> bool {
        self.up && !self.draining && self.in_flight.is_none()
    }

    /// Parks the instance into autoscale standby. The epoch bump lapses
    /// every timer of its retired life.
    fn park(&mut self) {
        self.epoch += 1;
        self.up = false;
        self.reloading = false;
        self.draining = false;
        self.standby = true;
    }
}

/// What every batch of one size costs.
#[derive(Clone)]
struct BatchProfile {
    makespan: SimTime,
    /// Dynamic operations, as `(energy-ledger row, ops)` pairs.
    ops: Vec<(usize, u64)>,
}

/// Per-batch-size analysis cache: every batch of one size takes the same
/// time and books the same operations, so the batched layer walk runs
/// once per size.
struct BatchProfiles<'a> {
    /// The operating point the batches run (and record energy) at.
    cfg: AcceleratorConfig,
    model: &'a CnnModel,
    by_size: Vec<Option<BatchProfile>>,
}

impl<'a> BatchProfiles<'a> {
    fn new(cfg: AcceleratorConfig, model: &'a CnnModel, max_batch: usize) -> Self {
        Self {
            cfg,
            model,
            by_size: vec![None; max_batch + 1],
        }
    }

    /// The profile of a `batch`-request batch, its operations resolved
    /// to `ledger`'s energy rows.
    fn get(&mut self, batch: usize, ledger: &Ledger) -> &BatchProfile {
        let slot = &mut self.by_size[batch];
        if slot.is_none() {
            let layers: Vec<LayerPerf> = self
                .model
                .workloads
                .iter()
                .map(|w| analyze_layer_batched(&self.cfg, w, batch))
                .collect();
            let makespan = layers.iter().fold(SimTime::ZERO, |acc, l| acc + l.total);
            let ops = inference_ops(&self.cfg, &layers, self.model, batch)
                .into_iter()
                .map(|(name, ops)| (ledger.energy_row(name), ops))
                .collect();
            *slot = Some(BatchProfile { makespan, ops });
        }
        slot.as_ref()
            .expect("invariant: slot was filled by the branch above")
    }
}

/// Everything the scheduler knows about one servable model: the model,
/// its per-batch-size timing profiles (native and fallback tier), and
/// what it costs to swap it into — or reload it onto — an instance.
struct ModelCtx<'a> {
    model: &'a CnnModel,
    profiles: BatchProfiles<'a>,
    /// Fallback-tier profiles ([`AdmissionPolicy::Degrade`] only), on
    /// the reduced-precision accelerator operating point.
    degraded_profiles: Option<BatchProfiles<'a>>,
    /// Cost of swapping this model into an instance whose scratchpads
    /// already stage its weights ([`model_swap_time`]): OSM-LUT bank
    /// repointing on SCONNA, full cell reprogramming on the analog
    /// baselines — the paper's reprogramming asymmetry at
    /// batch-formation granularity.
    swap_time: SimTime,
    /// Cold weight-reload latency a scripted restart or scale-up wake
    /// pays ([`model_reload_time`]).
    reload_time: SimTime,
    /// Warm reload latency a supervised restart pays
    /// ([`model_warm_reload_time`]; zero on SCONNA).
    warm_reload_time: SimTime,
}

/// Run-wide scheduling state of one tenant: its spec, its weighted-fair
/// virtual clock and its private arrival stream. Its usage counters
/// live in the [`Ledger`]'s per-tenant tally, the only copy of each, so
/// the fleet totals are the sum over tenants by construction.
struct TenantRt {
    spec: TenantSpec,
    /// Weighted-fair virtual finish time: advanced `batch / weight` per
    /// dispatched batch; a tenant rejoining the backlog is bumped to
    /// the fleet's virtual clock so idle time earns no credit.
    vtime: f64,
    /// Private arrival RNG (tenant 0 owns the config seed, so a
    /// single-tenant roster replays the legacy arrival stream
    /// bit-identically).
    rng: StdRng,
    /// Requests issued into this tenant's arrival process so far.
    issued: usize,
}

impl TenantRt {
    fn new(spec: TenantSpec, index: usize, seed: u64) -> Self {
        Self {
            spec,
            vtime: 0.0,
            // Tenant 0 inherits the config seed verbatim (single-tenant
            // bit-identity); later tenants decorrelate by a golden-ratio
            // stride.
            rng: StdRng::seed_from_u64(if index == 0 {
                seed
            } else {
                seed.wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            }),
            issued: 0,
        }
    }
}

/// Instances per rack word in the [`RackRouter`].
const RACK_SIZE: usize = 64;

/// Two-level dispatch routing: per-rack occupancy bitmaps under a
/// cluster summary.
///
/// Instances are grouped into racks of [`RACK_SIZE`]; bit `i` of rack
/// word `r` is set when instance `r·64 + i` is a dispatch *candidate* —
/// up, not draining, nothing in flight. Bit `r` of summary word `w` is
/// set when rack `w·64 + r` has any candidate, so the lowest-numbered
/// candidate is found with two `trailing_zeros` scans instead of a
/// linear walk over the fleet — O(1) per dispatch at datacenter scale
/// instead of O(instances).
///
/// The bitmaps are exact: [`Scheduler::sync_router`] rewrites an
/// instance's bit at every liveness/occupancy transition, so the first
/// set bit is the linear-scan answer.
struct RackRouter {
    racks: Vec<u64>,
    summary: Vec<u64>,
}

impl RackRouter {
    fn new(instances: usize) -> Self {
        let racks = vec![0u64; instances.div_ceil(RACK_SIZE)];
        let summary = vec![0u64; racks.len().div_ceil(64)];
        Self { racks, summary }
    }

    /// Records whether `inst` is a dispatch candidate.
    fn set(&mut self, inst: usize, candidate: bool) {
        let (r, b) = (inst / RACK_SIZE, inst % RACK_SIZE);
        if candidate {
            self.racks[r] |= 1u64 << b;
        } else {
            self.racks[r] &= !(1u64 << b);
        }
        let (w, s) = (r / 64, r % 64);
        if self.racks[r] != 0 {
            self.summary[w] |= 1u64 << s;
        } else {
            self.summary[w] &= !(1u64 << s);
        }
    }

    /// Lowest-numbered candidate: the first set summary bit names the
    /// rack, whose first set bit names the instance (a rack's summary
    /// bit is set only while the rack has a candidate).
    fn first(&self) -> Option<usize> {
        let w = self.summary.iter().position(|&word| word != 0)?;
        let r = w * 64 + self.summary[w].trailing_zeros() as usize;
        Some(r * RACK_SIZE + self.racks[r].trailing_zeros() as usize)
    }
}

/// Mutable scheduler state threaded through the event handlers.
struct Scheduler<'a> {
    /// The run's config, less its roster: `tenants` (or, in a
    /// single-tenant run, `arrivals`) moved into [`Self::tenants`].
    cfg: ServingConfig,
    /// The servable models, index order of the tenant specs' `model`
    /// field. Single-model fleets hold exactly one entry.
    models: Vec<ModelCtx<'a>>,
    /// The resolved tenant roster: the config's tenants, or one
    /// synthesized tenant mirroring the config-level
    /// arrivals/requests/queue-cap for every legacy entry point.
    tenants: Vec<TenantRt>,
    /// Every counter of the run; the scheduler only decides.
    ledger: Ledger,
    /// Per-tenant bounded queues of requests waiting to be batched,
    /// arrival order within each queue. Ids are assigned in global
    /// arrival order, so id `r` always denotes the `r`-th request to
    /// enter the system regardless of the arrival process or tenant.
    pending: Vec<VecDeque<PendingReq>>,
    /// The fleet's weighted-fair virtual clock: the virtual start time
    /// of the most recent dispatch, to which newly-backlogged tenants
    /// are synced.
    vclock: f64,
    /// Per-instance liveness + in-flight state.
    nodes: Vec<Instance>,
    /// Two-level dispatch bitmaps over `nodes` (racks of 64 under a
    /// cluster summary), kept in sync by [`Self::sync_router`].
    router: RackRouter,
    /// Autoscale controller; `None` without a configured policy.
    auto: Option<AutoscaleCtl>,
    /// The normalized fault schedule ([`Ev::Fault`] indexes into it).
    faults: Vec<FaultEvent>,
    /// Monotonic epoch invalidating stale flush timers.
    flush_epoch: u64,
    /// A flush timer for the current epoch is in flight.
    flush_armed: bool,
    /// The window expired with requests still queued: dispatch partial
    /// batches at the next opportunity.
    force_flush: bool,
    /// Supervision state; `None` without a configured [`Supervisor`].
    sup: Option<SupCtl>,
}

impl Scheduler<'_> {
    /// Lowest-numbered dispatchable instance, if any: up, idle and not
    /// draining. Answered by the rack router's bitmap scan; the linear
    /// walk it replaced survives as a debug-build parity oracle.
    fn idle_instance(&self) -> Option<usize> {
        let found = self.router.first();
        debug_assert_eq!(
            found,
            self.nodes.iter().position(Instance::dispatchable),
            "rack router diverged from the linear dispatch scan"
        );
        found
    }

    /// Recomputes instance `inst`'s candidate bit after a liveness or
    /// occupancy transition (dispatch, completion, kill, reload,
    /// scale).
    fn sync_router(&mut self, inst: usize) {
        self.router.set(inst, self.nodes[inst].dispatchable());
    }

    /// Tenant `t`'s queue bound implied by its per-instance cap (the
    /// tenant override, else the config-level `queue_cap`).
    fn queue_bound(&self, t: usize) -> Option<usize> {
        self.tenants[t]
            .spec
            .queue_cap
            .or(self.cfg.queue_cap)
            .map(|c| c.saturating_mul(self.cfg.instances))
    }

    /// Requests waiting across every tenant queue.
    fn total_queued(&self) -> usize {
        self.pending.iter().map(VecDeque::len).sum()
    }

    /// Syncs tenant `t`'s virtual clock to the fleet's before it rejoins
    /// the backlog: an idle tenant earns no credit, so its next dispatch
    /// competes from the current virtual time, not from however long it
    /// sat out. No-op unless the tenant's queue is empty.
    fn backlog_vtime(&mut self, t: usize) {
        if self.pending[t].is_empty() {
            let tr = &mut self.tenants[t];
            if tr.vtime < self.vclock {
                tr.vtime = self.vclock;
            }
        }
    }

    fn schedule_poisson_arrival(&mut self, q: &mut EventQueue<Ev>, t: usize) {
        let tr = &mut self.tenants[t];
        if tr.issued >= tr.spec.requests {
            return;
        }
        let ArrivalProcess::Poisson { rate_fps } = tr.spec.arrivals else {
            return;
        };
        assert!(rate_fps > 0.0, "Poisson rate must be positive");
        let u: f64 = tr.rng.gen_range(f64::EPSILON..1.0);
        let dt = -u.ln() / rate_fps;
        tr.issued += 1;
        q.schedule_in(SimTime::from_secs_f64(dt), Ev::Arrive(t as u32));
    }

    /// Admits one fresh arrival of tenant `t` at `now` under the
    /// admission policy. Returns how many requests were shed in the
    /// process (0 or 1): the newcomer (`DropNewest`/`Deadline` at a full
    /// queue) or an evicted older waiter (`DropOldest`).
    fn admit(&mut self, now: SimTime, t: usize) -> usize {
        let id = self.ledger.offer(t);
        let full = self
            .queue_bound(t)
            .is_some_and(|bound| self.pending[t].len() >= bound);
        // A no-op unless the queue is empty, so never when it is full.
        self.backlog_vtime(t);
        let (mut shed, mut degraded) = (0, false);
        if full {
            match self.cfg.admission {
                AdmissionPolicy::DropNewest | AdmissionPolicy::Deadline { .. } => {
                    self.ledger.shed(id, RequestOutcome::ShedNewest);
                    self.ledger.depth(now, self.total_queued());
                    return 1;
                }
                AdmissionPolicy::DropOldest => {
                    let old = self.pending[t]
                        .pop_front()
                        .expect("invariant: the queue is full here, so it has a head");
                    self.ledger.shed(old.id, RequestOutcome::ShedOldest);
                    shed = 1;
                }
                AdmissionPolicy::Degrade { .. } => {
                    // Admit anyway, but onto the fallback tier: the
                    // request keeps its place in line and its client gets
                    // a (coarser) answer.
                    self.ledger.degrade(t);
                    degraded = true;
                }
            }
        }
        self.pending[t].push_back(PendingReq {
            id,
            arrived: now,
            degraded,
        });
        self.ledger.depth(now, self.total_queued());
        shed
    }

    /// Admits `n` fresh arrivals of tenant `t` at `now`. In the closed
    /// loop every shed frees a client, which immediately fires its next
    /// request — so admission keeps going until nothing was shed or the
    /// tenant's request budget is exhausted.
    fn admit_arrivals(&mut self, now: SimTime, t: usize, mut n: usize) {
        let closed = matches!(
            self.tenants[t].spec.arrivals,
            ArrivalProcess::ClosedLoop { .. }
        );
        while n > 0 {
            n -= 1;
            let shed = self.admit(now, t);
            if closed && shed > 0 && self.tenants[t].issued < self.tenants[t].spec.requests {
                self.tenants[t].issued += 1;
                n += 1;
            }
        }
    }

    /// Closed-loop client replacement for tenant `t`: `freed` of its
    /// clients got a terminal answer (completion or shed), so each fires
    /// its next request — capped by the tenant's remaining request
    /// budget. No-op for open-loop and trace arrivals.
    fn respawn_clients(&mut self, now: SimTime, t: usize, freed: usize) {
        if !matches!(
            self.tenants[t].spec.arrivals,
            ArrivalProcess::ClosedLoop { .. }
        ) {
            return;
        }
        let tr = &self.tenants[t];
        let replacements = freed.min(tr.spec.requests.saturating_sub(tr.issued));
        self.tenants[t].issued += replacements;
        self.admit_arrivals(now, t, replacements);
    }

    /// `shed` of tenant `t`'s queued requests were just shed at `now`:
    /// the queue depth moved, and each shed frees a closed-loop client
    /// for its next request.
    fn after_shed(&mut self, now: SimTime, t: usize, shed: usize) {
        if shed > 0 {
            self.ledger.depth(now, self.total_queued());
            self.respawn_clients(now, t, shed);
        }
    }

    /// Whether tenant `t` can form a batch right now: returns the batch
    /// size and its tier if so. Full batches always go; partial batches
    /// when the window expired (`force_flush`) or when a tier boundary
    /// caps the head run (it can never grow — later arrivals queue
    /// behind the other tier).
    fn formable(&self, t: usize) -> Option<(usize, bool)> {
        let front = self.pending[t].front()?;
        let tier_degraded = front.degraded;
        // The head run of same-tier requests, scanned only as far as
        // the batch limit needs.
        let scan = self.pending[t]
            .iter()
            .take(self.cfg.max_batch + 1)
            .take_while(|r| r.degraded == tier_degraded)
            .count();
        let take = scan.min(self.cfg.max_batch);
        let dispatchable =
            take == self.cfg.max_batch || scan < self.pending[t].len() || self.force_flush;
        dispatchable.then_some((take, tier_degraded))
    }

    /// Picks the next tenant to serve under the configured
    /// [`TenantScheduler`], among tenants that can form a batch.
    /// Weighted-fair: smallest virtual finish time. Shared-FIFO: oldest
    /// head-of-line request fleet-wide, as if all tenants fed one queue.
    /// Every tie falls to the lowest tenant index, keeping the choice
    /// deterministic.
    fn pick_tenant(&self) -> Option<(usize, usize, bool)> {
        let shared = matches!(self.cfg.tenant_scheduler, TenantScheduler::SharedFifo);
        let mut best: Option<(usize, usize, bool)> = None;
        let mut fifo_key: Option<(SimTime, u64)> = None;
        // No sentinel: a virtual time may itself be +inf (a subnormal
        // weight), and the first formable tenant must still win then.
        let mut wfq_key: Option<f64> = None;
        for t in 0..self.tenants.len() {
            let Some((take, tier)) = self.formable(t) else {
                continue;
            };
            if shared {
                let head = self.pending[t]
                    .front()
                    .expect("invariant: formable tenants have a queue head");
                let key = (head.arrived, head.id);
                if fifo_key.is_none_or(|k| key < k) {
                    fifo_key = Some(key);
                    best = Some((t, take, tier));
                }
            } else {
                let vt = self.tenants[t].vtime;
                if wfq_key.is_none_or(|k| vt.total_cmp(&k).is_lt()) {
                    wfq_key = Some(vt);
                    best = Some((t, take, tier));
                }
            }
        }
        best
    }

    /// Charges an `n`-request batch of tenant `t` on the `degraded` or
    /// native tier to instance `inst` — its dispatch energy and, when
    /// `inst` holds another model, the swap to the tenant's — and
    /// returns how long the batch occupies the instance (swap +
    /// makespan).
    fn charge_batch(&mut self, inst: usize, t: usize, degraded: bool, n: usize) -> SimTime {
        let midx = self.tenants[t].spec.model;
        let m = &mut self.models[midx];
        let profiles = if degraded {
            m.degraded_profiles.as_mut().expect(
                "invariant: the degraded tier is only entered after fallback profiles were built",
            )
        } else {
            &mut m.profiles
        };
        let profile = profiles.get(n, &self.ledger);
        // Co-resident weights: switching models repoints (SCONNA) or
        // reprograms (analog) the arrays before the batch runs.
        let swap = (self.nodes[inst].resident != midx).then_some(m.swap_time);
        self.nodes[inst].resident = midx;
        self.ledger.charge(t, swap, &profile.ops);
        swap.unwrap_or(SimTime::ZERO) + profile.makespan
    }

    /// Dispatches as many batches as idle instances and pending requests
    /// allow, choosing tenants through [`Self::pick_tenant`]. Batches
    /// are single-tenant: one batch runs one resident model, and an
    /// instance switching tenants pays that model's swap cost up front.
    /// Under [`AdmissionPolicy::Deadline`] requests whose wait already
    /// exceeds the SLO are shed first — FIFO order within each tenant
    /// means only a queue prefix can have expired.
    fn try_dispatch(&mut self, q: &mut EventQueue<Ev>, now: SimTime) {
        if let AdmissionPolicy::Deadline { slo } = self.cfg.admission {
            for t in 0..self.tenants.len() {
                let mut expired = 0usize;
                while let Some(front) = self.pending[t].front() {
                    if now - front.arrived > slo {
                        let r = self.pending[t]
                            .pop_front()
                            .expect("invariant: front() returned Some above");
                        self.ledger.shed(r.id, RequestOutcome::ShedDeadline);
                        expired += 1;
                    } else {
                        break;
                    }
                }
                self.after_shed(now, t, expired);
            }
        }
        while let Some((t, take, tier_degraded)) = self.pick_tenant() {
            let Some(inst) = self.idle_instance() else {
                break;
            };
            if !matches!(self.cfg.tenant_scheduler, TenantScheduler::SharedFifo) {
                // Charge the virtual clock: the tenant's next turn moves
                // out proportionally to work taken over weight.
                let vt = self.tenants[t].vtime;
                self.vclock = self.vclock.max(vt);
                self.tenants[t].vtime = vt + take as f64 / self.tenants[t].spec.weight;
            }
            let reqs: Vec<(u64, SimTime)> = self.pending[t]
                .drain(..take)
                .map(|r| (r.id, r.arrived))
                .collect();
            let occupancy = self.charge_batch(inst, t, tier_degraded, take);
            self.ledger.dispatch(t, &reqs);
            let node = &mut self.nodes[inst];
            node.in_flight = Some(InFlight {
                tenant: t as u32,
                degraded: tier_degraded,
                started: now,
                reqs,
            });
            q.schedule_in(
                occupancy,
                Ev::BatchDone {
                    inst,
                    epoch: node.epoch,
                },
            );
            self.sync_router(inst);
            self.ledger.depth(now, self.total_queued());
        }
        if self.total_queued() == 0 {
            // Window satisfied; stale timers are invalidated by the epoch.
            self.force_flush = false;
            self.flush_armed = false;
            self.flush_epoch += 1;
        } else if !self.flush_armed && !self.force_flush {
            self.flush_armed = true;
            q.schedule_in(self.cfg.batch_window, Ev::Flush(self.flush_epoch));
        }
    }

    /// Kills instance `inst`: bump its boot epoch (in-flight completions
    /// and reloads of the old life become stale), truncate its busy time
    /// at the kill instant, and re-admit the aborted batch's requests at
    /// the **front** of the pending queue in their original order
    /// through the [`RetryPolicy`](super::RetryPolicy) — then let the
    /// admission policy settle any overflow. A kill against a dead idle
    /// instance is a no-op; a kill mid-reload cancels the reload. When a
    /// supervisor is configured, the kill feeds crash-loop detection and
    /// (unless the instance is benched) schedules a backed-off
    /// supervised restart.
    fn apply_kill(&mut self, q: &mut EventQueue<Ev>, now: SimTime, inst: usize) {
        let node = &mut self.nodes[inst];
        if node.up || node.reloading {
            node.epoch += 1;
            node.up = false;
            node.reloading = false;
            self.ledger.down(now, inst);
            if let Some(fl) = self.nodes[inst].in_flight.take() {
                // Wasted work is real work: the dispatch energy stays on
                // the ledger, but only the busy time actually accrued
                // counts toward utilization.
                self.ledger.busy(inst, now - fl.started);
                let t = fl.tenant as usize;
                let mut refused = 0usize;
                self.backlog_vtime(t);
                for (id, arrived) in fl.reqs.into_iter().rev() {
                    if self.ledger.readmit(id, &self.cfg.retry) {
                        self.pending[t].push_front(PendingReq {
                            id,
                            arrived,
                            degraded: fl.degraded,
                        });
                    } else {
                        refused += 1;
                    }
                }
                self.enforce_bound_after_requeue(now, t);
                self.after_shed(now, t, refused);
            }
            if self.nodes[inst].draining {
                // The kill beat the drain: the instance was retiring
                // anyway, so it parks into standby instead of entering
                // the supervised-restart path.
                self.nodes[inst].park();
            }
            if !self.nodes[inst].standby {
                self.supervise_kill(q, now, inst);
            }
            self.sync_router(inst);
        }
        self.ledger.boundary(now, self.total_queued());
        self.try_dispatch(q, now);
    }

    /// The supervisor's kill hook: slide the crash-loop window, bench
    /// the instance if it flapped past the limit, otherwise schedule a
    /// restart after the backoff. No-op without a supervisor or on a
    /// benched instance.
    fn supervise_kill(&mut self, q: &mut EventQueue<Ev>, now: SimTime, inst: usize) {
        let Some(sup) = &mut self.sup else {
            return;
        };
        let st = &mut sup.states[inst];
        if st.benched {
            // Revived by operator override, killed again: stays benched.
            return;
        }
        let cutoff = now.saturating_sub(sup.policy.crash_loop_window);
        while st.recent_kills.front().is_some_and(|&t| t < cutoff) {
            st.recent_kills.pop_front();
        }
        st.recent_kills.push_back(now);
        if st.recent_kills.len() as u32 >= sup.policy.crash_loop_limit {
            st.benched = true;
            self.ledger.bench(true);
            return;
        }
        let delay = sup.policy.backoff_for(inst, st.ordinal, st.ladder_attempt);
        st.ordinal += 1;
        st.ladder_attempt = st.ladder_attempt.saturating_add(1);
        self.ledger.restart_issued();
        q.schedule_at(
            now + delay,
            Ev::SupRestart {
                inst,
                epoch: self.nodes[inst].epoch,
            },
        );
    }

    /// Re-applies tenant `t`'s queue bound after a kill pushed an
    /// aborted batch back onto its queue: the overflow passes through
    /// the same admission policy as arriving traffic — the tail is shed
    /// under `DropNewest`/`Deadline`, the head under `DropOldest`, and
    /// under `Degrade` everything beyond the bound is (re)marked for the
    /// fallback tier instead of shed.
    fn enforce_bound_after_requeue(&mut self, now: SimTime, t: usize) {
        let Some(bound) = self.queue_bound(t) else {
            return;
        };
        let mut freed = 0usize;
        if let AdmissionPolicy::Degrade { .. } = self.cfg.admission {
            for r in self.pending[t].iter_mut().skip(bound) {
                if !r.degraded {
                    r.degraded = true;
                    self.ledger.degrade(t);
                }
            }
        } else {
            let oldest = matches!(self.cfg.admission, AdmissionPolicy::DropOldest);
            while self.pending[t].len() > bound {
                let queue = &mut self.pending[t];
                let (r, cause) = if oldest {
                    (queue.pop_front(), RequestOutcome::ShedOldest)
                } else {
                    (queue.pop_back(), RequestOutcome::ShedNewest)
                };
                let r = r.expect("invariant: over-bound queue is non-empty");
                self.ledger.shed(r.id, cause);
                freed += 1;
            }
        }
        self.after_shed(now, t, freed);
    }

    /// Begins rebooting instance `inst`: the reload completes — and the
    /// instance becomes dispatchable — after `reload`.
    fn begin_reload(&mut self, q: &mut EventQueue<Ev>, now: SimTime, inst: usize, reload: SimTime) {
        let node = &mut self.nodes[inst];
        node.reloading = true;
        q.schedule_at(
            now + reload,
            Ev::ReloadDone {
                inst,
                epoch: node.epoch,
            },
        );
    }

    /// A scripted [`FaultEvent::Restart`]: reboots a down instance at
    /// its resident model's full cold reload time. A restart against a live or
    /// already-reloading instance is a no-op. This is also the operator
    /// override for crash-loop benching: a benched instance is given a
    /// fresh ladder and revived.
    fn apply_restart(&mut self, q: &mut EventQueue<Ev>, now: SimTime, inst: usize) {
        if self.nodes[inst].standby {
            // The autoscaler owns standby capacity: a scripted restart
            // targets failures, not deliberately-parked instances.
            self.ledger.boundary(now, self.total_queued());
            return;
        }
        let node = &mut self.nodes[inst];
        if !node.up && !node.reloading {
            if let Some(sup) = &mut self.sup {
                let st = &mut sup.states[inst];
                if st.benched {
                    st.benched = false;
                    st.recent_kills.clear();
                    st.ladder_attempt = 0;
                    self.ledger.bench(false);
                }
            }
            let reload = self.models[self.nodes[inst].resident].reload_time;
            self.begin_reload(q, now, inst, reload);
        }
        self.ledger.boundary(now, self.total_queued());
    }

    fn handle(&mut self, q: &mut EventQueue<Ev>, now: SimTime, ev: Ev) {
        match ev {
            Ev::Arrive(t) => {
                let t = t as usize;
                self.admit_arrivals(now, t, 1);
                self.schedule_poisson_arrival(q, t);
                self.try_dispatch(q, now);
            }
            Ev::Flush(epoch) => {
                if epoch != self.flush_epoch {
                    return; // stale timer from an already-drained queue
                }
                self.flush_armed = false;
                self.force_flush = true;
                self.try_dispatch(q, now);
            }
            Ev::BatchDone { inst, epoch } => {
                if self.nodes[inst].epoch != epoch {
                    return; // the instance died mid-batch; already requeued
                }
                let fl = self.nodes[inst].in_flight.take().expect(
                    "invariant: a current-epoch BatchDone matches a stored in-flight batch",
                );
                self.ledger.busy(inst, now - fl.started);
                if self.nodes[inst].draining {
                    // Drain complete: the batch it was finishing is done,
                    // so the instance parks into standby.
                    self.nodes[inst].park();
                }
                self.sync_router(inst);
                let t = fl.tenant as usize;
                self.ledger.respond(now, t, &fl.reqs, fl.degraded);
                // Each completed client immediately re-requests.
                self.respawn_clients(now, t, fl.reqs.len());
                self.try_dispatch(q, now);
            }
            Ev::Fault(idx) => match self.faults[idx] {
                FaultEvent::Kill { instance, .. } => self.apply_kill(q, now, instance),
                FaultEvent::Restart { instance, .. } => self.apply_restart(q, now, instance),
            },
            Ev::ReloadDone { inst, epoch } => {
                let node = &mut self.nodes[inst];
                if !node.reloading || node.epoch != epoch {
                    return; // killed mid-reload; this boot was cancelled
                }
                node.reloading = false;
                node.up = true;
                let boot_epoch = node.epoch;
                self.ledger.up(now, inst);
                self.sync_router(inst);
                if let Some(sup) = &self.sup {
                    // Sustained uptime earns the backoff ladder back.
                    q.schedule_at(
                        now + sup.policy.reset_after,
                        Ev::BackoffReset {
                            inst,
                            epoch: boot_epoch,
                        },
                    );
                }
                self.ledger.boundary(now, self.total_queued());
                self.try_dispatch(q, now);
            }
            Ev::SupRestart { inst, epoch } => {
                let node = &self.nodes[inst];
                if node.epoch != epoch || node.up || node.reloading {
                    return; // killed again, or a scripted restart beat us
                }
                let reload = self.models[node.resident].warm_reload_time;
                self.begin_reload(q, now, inst, reload);
                // Supervisor restart boundaries are sampled into the
                // time series like every fault boundary.
                self.ledger.boundary(now, self.total_queued());
            }
            Ev::BackoffReset { inst, epoch } => {
                let node = &self.nodes[inst];
                if node.epoch != epoch || !node.up {
                    return; // killed again before earning the reset
                }
                if let Some(sup) = &mut self.sup {
                    sup.states[inst].ladder_attempt = 0;
                }
            }
            Ev::ScaleTick => self.handle_scale_tick(q, now),
        }
    }

    /// Instances currently committed to traffic: up or mid-reload, not
    /// standby and not draining. This is what the autoscaler compares
    /// its target against — capacity lost to kills is *not* counted, so
    /// the controller replaces it from standby at the next tick instead
    /// of believing it still exists.
    fn live_pool(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| (n.up || n.reloading) && !n.standby && !n.draining)
            .count()
    }

    /// One autoscale decision ([`Ev::ScaleTick`]): measure demand since
    /// the last tick, retarget the live pool by waking standby (or
    /// reprieving draining) instances or parking surplus ones, and
    /// reschedule the next tick while the run can still make progress —
    /// the tick chain ends once every request is terminal, or once the
    /// whole fleet is dead with nothing left to wake.
    fn handle_scale_tick(&mut self, q: &mut EventQueue<Ev>, now: SimTime) {
        let current = self.live_pool();
        // Scaling admits, dispatches and completes nothing: these
        // totals hold for the whole tick.
        let total = self.ledger.totals();
        let queued = self.total_queued();
        let (interval, decision, cooled) = {
            let auto = self
                .auto
                .as_mut()
                .expect("invariant: ScaleTick events are only scheduled with an autoscaler");
            (
                auto.policy.check_interval,
                auto.measure(now, total.offered, queued),
                auto.cooled_down(now),
            )
        };
        if let Some((desired, demand_fps)) = decision {
            if desired != current && cooled {
                let achieved = if desired > current {
                    current + self.wake(q, now, desired - current)
                } else {
                    current - self.park(current - desired)
                };
                if achieved != current {
                    self.auto
                        .as_mut()
                        .expect("invariant: presence was checked above")
                        .commit(ScaleEvent {
                            at: now,
                            from: current,
                            to: achieved,
                            demand_fps,
                        });
                    // Scale transitions are fault-boundary-like: the
                    // time series samples the instant the pool moves.
                    self.ledger.boundary(now, self.total_queued());
                }
            }
        }
        let all_terminal =
            total.completed + total.dropped + total.degraded >= self.cfg.requests as u64;
        let fleet_dead = self
            .nodes
            .iter()
            .all(|n| !n.up && !n.reloading && !n.standby);
        if !all_terminal && !fleet_dead {
            q.schedule_in(interval, Ev::ScaleTick);
        }
    }

    /// Scales up by `delta`: draining instances are reprieved first —
    /// they still hold loaded weights and rejoin without a reload —
    /// then standby instances boot lowest-numbered first, each paying
    /// the full cold weight reload (epoch-guarded [`Ev::ReloadDone`],
    /// exactly like a fault restart) before taking work. Returns how
    /// many instances actually joined (bounded by what is parked).
    fn wake(&mut self, q: &mut EventQueue<Ev>, now: SimTime, mut delta: usize) -> usize {
        let mut woken = 0usize;
        for i in 0..self.nodes.len() {
            if delta == 0 {
                break;
            }
            if self.nodes[i].draining {
                self.nodes[i].draining = false;
                self.sync_router(i);
                delta -= 1;
                woken += 1;
            }
        }
        for i in 0..self.nodes.len() {
            if delta == 0 {
                break;
            }
            if self.nodes[i].standby {
                self.nodes[i].standby = false;
                let reload = self.models[self.nodes[i].resident].reload_time;
                self.begin_reload(q, now, i, reload);
                delta -= 1;
                woken += 1;
            }
        }
        woken
    }

    /// Scales down by `delta`, highest-numbered live instance first: an
    /// idle (or still-reloading) instance parks into standby immediately
    /// — the epoch bump lapses its pending timers — while a busy one
    /// drains: it finishes its in-flight batch and parks at completion.
    /// Requests are never aborted by scaling. Returns how many instances
    /// left the live pool.
    fn park(&mut self, mut delta: usize) -> usize {
        let mut parked = 0usize;
        for i in (0..self.nodes.len()).rev() {
            if delta == 0 {
                break;
            }
            let n = &mut self.nodes[i];
            if n.standby || n.draining || !(n.up || n.reloading) {
                continue;
            }
            if n.in_flight.is_some() {
                n.draining = true;
            } else {
                n.park();
            }
            self.sync_router(i);
            delta -= 1;
            parked += 1;
        }
        parked
    }
}

/// Liveness of one instance at a step boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InstanceHealth {
    /// Up and idle (dispatchable).
    Idle,
    /// Up with a batch in flight.
    Busy,
    /// Killed; no restart in progress.
    Down,
    /// Rebooting: paying the weight-reload latency.
    Reloading,
    /// Permanently benched by the supervisor's crash-loop detection;
    /// only a scripted [`FaultEvent::Restart`] (operator override)
    /// revives it.
    Benched,
    /// Parked by the autoscaler: admin-down, holding no loaded weights,
    /// outside the active pool until a scale-up wakes it.
    Standby,
    /// Retiring on scale-down: up and finishing its in-flight batch, but
    /// taking no new dispatches; parks into standby at completion.
    Draining,
}

/// One instance's state in a [`FleetSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstanceSnapshot {
    /// Liveness at the snapshot instant.
    pub health: InstanceHealth,
    /// Requests in this instance's in-flight batch (0 when idle).
    pub in_flight: usize,
    /// The in-flight batch is on the degraded (fallback-model) tier.
    pub degraded_batch: bool,
}

/// One tenant's request accounting at a step boundary. The per-tenant
/// conservation invariant mirrors the fleet-wide one:
/// [`TenantSnapshot::accounted`] `== offered`, and summing any field
/// over tenants reproduces the fleet total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantSnapshot {
    /// Requests of this tenant that entered the system so far.
    pub offered: u64,
    /// Full-fidelity responses so far.
    pub completed: u64,
    /// Drops so far.
    pub dropped: u64,
    /// Degraded (fallback-tier) responses so far.
    pub degraded: u64,
    /// Requests waiting in this tenant's pending queue.
    pub queued: u64,
    /// Requests inside dispatched, unfinished batches.
    pub in_flight: u64,
}

impl TenantSnapshot {
    /// Requests in a terminal or tracked transient state — the
    /// per-tenant conservation check compares this against
    /// [`TenantSnapshot::offered`].
    pub fn accounted(&self) -> u64 {
        self.completed + self.dropped + self.degraded + self.queued + self.in_flight
    }
}

/// A consistent view of the fleet at a step boundary.
///
/// The conservation invariant the scenario harness asserts at every step:
/// [`FleetSnapshot::accounted`] `== offered` — every request that entered
/// the system is in exactly one of completed / dropped / degraded /
/// queued / in-flight.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetSnapshot {
    /// Simulated time of the last processed event.
    pub now: SimTime,
    /// Events processed so far.
    pub events_processed: u64,
    /// The simulation has settled: no events remain and every request
    /// reached a terminal state.
    pub is_complete: bool,
    /// Requests that entered the system so far.
    pub offered: u64,
    /// Full-fidelity responses so far.
    pub completed: u64,
    /// Drops so far.
    pub dropped: u64,
    /// Degraded (fallback-tier) responses so far.
    pub degraded: u64,
    /// Per-cause shed counters so far.
    pub shed: ShedCounts,
    /// Requests waiting in the shared pending queue.
    pub queued: u64,
    /// Requests inside dispatched, unfinished batches.
    pub in_flight: u64,
    /// Batches dispatched so far (re-dispatches after a kill recount).
    pub batches: u64,
    /// Per-instance liveness and in-flight state, instance order.
    pub instances: Vec<InstanceSnapshot>,
    /// Per-tenant accounting, roster order. A single-tenant run has
    /// exactly one entry whose fields equal the fleet totals.
    pub tenants: Vec<TenantSnapshot>,
}

impl FleetSnapshot {
    /// Requests in *some* accounted state:
    /// `completed + dropped + degraded + queued + in_flight`. Equals
    /// [`FleetSnapshot::offered`] at every step boundary — requests are
    /// never silently lost, faults or not.
    pub fn accounted(&self) -> u64 {
        self.completed + self.dropped + self.degraded + self.queued + self.in_flight
    }
}

/// The serving simulation as an incrementally-steppable state machine.
///
/// ```
/// use sconna_accel::serve::{Fleet, FaultPlan, ServingConfig};
/// use sconna_accel::AcceleratorConfig;
/// use sconna_sim::time::SimTime;
/// use sconna_tensor::models::shufflenet_v2;
///
/// let model = shufflenet_v2();
/// let cfg = ServingConfig::saturation(AcceleratorConfig::sconna(), 2, 4, 16);
/// let plan = FaultPlan::new()
///     .kill(SimTime::from_ns(200_000), 0)
///     .restart(SimTime::from_ns(400_000), 0);
/// let mut fleet = Fleet::new(&cfg, &model).with_faults(&plan);
/// while fleet.step() {
///     let snap = fleet.snapshot();
///     assert_eq!(snap.accounted(), snap.offered); // conservation
/// }
/// let report = fleet.into_report();
/// assert_eq!(report.offered, 16);
/// ```
pub struct Fleet<'a> {
    sched: Scheduler<'a>,
    q: EventQueue<Ev>,
    done: bool,
    /// One validated workload per model; empty for an analytic fleet.
    workloads: Vec<&'a FunctionalWorkload<'a>>,
}

impl<'a> Fleet<'a> {
    /// Builds a steppable analytic-timing fleet over one model: the
    /// panicking shorthand for `try_new(config, &[model], &[])`.
    /// Equivalent to [`simulate_serving`](super::simulate_serving) when
    /// driven to completion (bit-identical reports, pinned in
    /// `tests/scenarios.rs`).
    ///
    /// # Panics
    /// Panics with the message of any [`ServingConfigError`]
    /// [`Fleet::try_new`] would return.
    pub fn new(config: &ServingConfig, model: &'a CnnModel) -> Self {
        Self::try_new(config, &[model], &[]).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a steppable **multi-tenant** analytic fleet: the panicking
    /// shorthand for `try_new(config, models, &[])`.
    ///
    /// # Panics
    /// As [`Fleet::new`].
    pub fn new_multi(config: &ServingConfig, models: &[&'a CnnModel]) -> Self {
        Self::try_new(config, models, &[]).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a steppable **functional** fleet over one model: the
    /// panicking shorthand for `try_new(config, &[model], &[workload])`.
    /// Equivalent to
    /// [`simulate_serving_functional`](super::simulate_serving_functional)
    /// when driven to completion.
    ///
    /// # Panics
    /// As [`Fleet::new`].
    pub fn new_functional(
        config: &ServingConfig,
        model: &'a CnnModel,
        workload: &'a FunctionalWorkload<'a>,
    ) -> Self {
        Self::try_new(config, &[model], &[workload]).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a steppable fleet. `config.tenants` name their models by
    /// index into `models`; every instance can host any of them
    /// co-resident, and switching the active model pays
    /// [`model_swap_time`]. An empty roster is one tenant over
    /// `models[0]`. `workloads[i]` carries the functional side of
    /// `models[i]` for [`Fleet::into_functional_report`]; an empty
    /// `workloads` builds an analytic fleet.
    ///
    /// Degenerate configurations surface as a descriptive
    /// [`ServingConfigError`]: anything [`ServingConfig::validate`]
    /// rejects, an empty model list, a tenant model index outside
    /// `models`, a workload count that disagrees with `models`, and a
    /// workload with no samples, no workers, or no fallback network
    /// under [`AdmissionPolicy::Degrade`].
    pub fn try_new(
        config: &ServingConfig,
        models: &[&'a CnnModel],
        workloads: &[&'a FunctionalWorkload<'a>],
    ) -> Result<Self, ServingConfigError> {
        config.validate()?;
        if models.is_empty() {
            return Err(ServingConfigError::NoModels);
        }
        if !workloads.is_empty() && workloads.len() != models.len() {
            return Err(ServingConfigError::WorkloadCountMismatch {
                models: models.len(),
                workloads: workloads.len(),
            });
        }
        let degraded_accel = if let AdmissionPolicy::Degrade { fallback_bits } = config.admission {
            Some(config.accelerator.with_native_bits(fallback_bits))
        } else {
            None
        };
        for (model, w) in workloads.iter().enumerate() {
            if w.samples.is_empty() {
                return Err(ServingConfigError::NoSamples { model });
            }
            if w.workers == 0 {
                return Err(ServingConfigError::NoWorkers { model });
            }
            if degraded_accel.is_some() && w.fallback.is_none() {
                return Err(ServingConfigError::MissingFallback { model });
            }
        }

        // A single-tenant run is a one-tenant roster carrying the
        // config's own arrival process and budget: the legacy path *is*
        // the multi-tenant path, so both stay bit-identical by
        // construction. The roster moves out of the scheduler's copy of
        // the config, and each trace moves on into the event queue, so
        // the fleet holds one copy of every trace.
        let mut cfg = config.clone();
        let roster: Vec<TenantSpec> = if cfg.tenants.is_empty() {
            let arrivals = std::mem::replace(&mut cfg.arrivals, ArrivalProcess::trace(Vec::new()));
            vec![TenantSpec::new("default", 0, arrivals, cfg.requests)]
        } else {
            std::mem::take(&mut cfg.tenants)
        };
        for t in &roster {
            if t.model >= models.len() {
                return Err(ServingConfigError::TenantModelOutOfRange {
                    tenant: t.name.clone(),
                    model: t.model,
                    models: models.len(),
                });
            }
        }

        let auto = config.autoscale.map(|policy| {
            // With one tenant the per-instance estimate is the legacy
            // formula verbatim; a mixed roster takes the weighted
            // harmonic mean of the tenants' capacities — the rate a
            // weighted-fair server actually sustains across the mix.
            let per_instance = if roster.len() == 1 {
                config.estimated_capacity_fps(models[roster[0].model]) / config.instances as f64
            } else {
                let wsum: f64 = roster.iter().map(|t| t.weight).sum();
                let inv: f64 = roster
                    .iter()
                    .map(|t| {
                        let cap = config.estimated_capacity_fps(models[t.model])
                            / config.instances as f64;
                        t.weight / cap
                    })
                    .sum();
                wsum / inv
            };
            AutoscaleCtl::new(policy, per_instance)
        });

        let sup = config.supervisor.map(|policy| SupCtl {
            policy,
            states: (0..config.instances).map(|_| SupState::fresh()).collect(),
        });

        let model_ctxs: Vec<ModelCtx<'a>> = models
            .iter()
            .map(|m| ModelCtx {
                model: m,
                profiles: BatchProfiles::new(config.accelerator, m, config.max_batch),
                degraded_profiles: degraded_accel
                    .map(|cfg| BatchProfiles::new(cfg, m, config.max_batch)),
                swap_time: model_swap_time(&config.accelerator, m),
                reload_time: model_reload_time(&config.accelerator, m),
                warm_reload_time: model_warm_reload_time(&config.accelerator, m),
            })
            .collect();
        let nodes = (0..config.instances)
            // Round-robin bring-up residency: instance i starts holding
            // the model of tenant i mod roster. One tenant → every
            // instance already resident → no swaps, ever.
            .map(|i| Instance::fresh(roster[i % roster.len()].model))
            .collect();
        let mut sched = Scheduler {
            models: model_ctxs,
            ledger: Ledger::new(config, roster.len()),
            pending: (0..roster.len()).map(|_| VecDeque::new()).collect(),
            tenants: roster
                .into_iter()
                .enumerate()
                .map(|(i, spec)| TenantRt::new(spec, i, config.seed))
                .collect(),
            vclock: 0.0,
            nodes,
            router: RackRouter::new(config.instances),
            auto,
            faults: Vec::new(),
            sup,
            flush_epoch: 0,
            flush_armed: false,
            force_flush: false,
            cfg,
        };

        if let Some(auto) = &sched.auto {
            // Instances beyond the bring-up pool start parked in standby.
            for node in sched.nodes.iter_mut().skip(auto.policy.initial) {
                node.up = false;
                node.standby = true;
            }
        }
        for i in 0..config.instances {
            sched.sync_router(i);
        }

        let mut q = EventQueue::new();
        for t in 0..sched.tenants.len() {
            match &mut sched.tenants[t].spec.arrivals {
                ArrivalProcess::Poisson { .. } => {
                    // Seed the first arrival; each arrival schedules the
                    // next.
                    sched.schedule_poisson_arrival(&mut q, t);
                }
                &mut ArrivalProcess::ClosedLoop { clients } => {
                    let initial = clients.min(sched.tenants[t].spec.requests);
                    for _ in 0..initial {
                        sched.tenants[t].issued += 1;
                        q.schedule_at(SimTime::ZERO, Ev::Arrive(t as u32));
                    }
                }
                ArrivalProcess::Trace { times } => {
                    // Nothing reads the times once they are queued: the
                    // spec keeps an empty trace.
                    let times = std::mem::take(times);
                    sched.tenants[t].issued = times.len();
                    q.schedule_many(times, Ev::Arrive(t as u32));
                }
            }
        }
        if let Some(auto) = &sched.auto {
            q.schedule_at(auto.policy.check_interval, Ev::ScaleTick);
        }

        Ok(Self {
            sched,
            q,
            done: false,
            workloads: workloads.to_vec(),
        })
    }

    /// Installs a fault plan: schedules every event of the plan's
    /// canonical order ([`FaultPlan::normalized`]) on the fleet's event
    /// queue. Faults scheduled at the same instant as already-seeded
    /// arrivals fire after those arrivals and before any arrival seeded
    /// later (event-queue insertion order) — a deterministic, documented
    /// tie-break. An empty plan schedules nothing: bit-identical to no
    /// plan at all.
    ///
    /// # Panics
    /// Panics if any step was already taken or if a fault targets an
    /// instance outside the fleet.
    #[must_use]
    pub fn with_faults(mut self, plan: &FaultPlan) -> Self {
        assert_eq!(
            self.q.processed(),
            0,
            "install fault plans before the first step"
        );
        let events = plan.normalized();
        for e in &events {
            assert!(
                e.instance() < self.sched.cfg.instances,
                "fault targets instance {} of a {}-instance fleet",
                e.instance(),
                self.sched.cfg.instances
            );
        }
        let base = self.sched.faults.len();
        for (i, e) in events.iter().enumerate() {
            self.q.schedule_at(e.at(), Ev::Fault(base + i));
        }
        self.sched.faults.extend(events);
        self
    }

    /// Processes exactly one event. Returns `true` if an event was
    /// processed; when the queue is empty it settles the simulation
    /// (stranded requests drain, terminal accounting closes) and returns
    /// `false` — after which [`Fleet::is_complete`] holds.
    pub fn step(&mut self) -> bool {
        if self.done {
            return false;
        }
        match self.q.pop() {
            Some((now, ev)) => {
                self.sched.handle(&mut self.q, now, ev);
                true
            }
            None => {
                self.settle();
                self.done = true;
                false
            }
        }
    }

    /// Processes every event scheduled at or before `t` (settling if the
    /// queue empties first). Returns the number of events processed.
    pub fn step_until(&mut self, t: SimTime) -> usize {
        let mut n = 0usize;
        while !self.done {
            match self.q.peek_time() {
                Some(next) if next <= t => {
                    self.step();
                    n += 1;
                }
                Some(_) => break,
                None => {
                    self.step(); // settles; not an event
                    break;
                }
            }
        }
        n
    }

    /// Drives the simulation until it settles.
    pub fn run_to_completion(&mut self) {
        while self.step() {}
    }

    /// Simulated time of the last processed event.
    pub fn now(&self) -> SimTime {
        self.q.now()
    }

    /// Time of the next scheduled event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.q.peek_time()
    }

    /// The simulation has settled: every request reached a terminal
    /// state and no events remain.
    pub fn is_complete(&self) -> bool {
        self.done
    }

    /// The autoscale controller's decision trace so far, in decision
    /// order (empty when the config carries no policy).
    pub fn scale_events(&self) -> &[ScaleEvent] {
        self.sched
            .auto
            .as_ref()
            .map_or(&[], |a| a.events.as_slice())
    }

    /// A consistent view of the fleet at the current step boundary.
    pub fn snapshot(&self) -> FleetSnapshot {
        let now = self.q.now();
        let s = &self.sched;
        // Per-tenant in-flight counts, gathered in the instance pass.
        let mut tin = vec![0u64; s.tenants.len()];
        let instances = s
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                if let Some(f) = &n.in_flight {
                    tin[f.tenant as usize] += f.reqs.len() as u64;
                }
                let benched = s.sup.as_ref().is_some_and(|sup| sup.states[i].benched);
                InstanceSnapshot {
                    health: if n.standby {
                        InstanceHealth::Standby
                    } else if n.reloading {
                        InstanceHealth::Reloading
                    } else if !n.up {
                        if benched {
                            InstanceHealth::Benched
                        } else {
                            InstanceHealth::Down
                        }
                    } else if n.in_flight.is_some() {
                        if n.draining {
                            InstanceHealth::Draining
                        } else {
                            InstanceHealth::Busy
                        }
                    } else {
                        InstanceHealth::Idle
                    },
                    in_flight: n.in_flight.as_ref().map_or(0, |f| f.reqs.len()),
                    degraded_batch: n.in_flight.as_ref().is_some_and(|f| f.degraded),
                }
            })
            .collect();
        let total = s.ledger.totals();
        FleetSnapshot {
            now,
            events_processed: self.q.processed(),
            is_complete: self.done,
            offered: total.offered,
            completed: total.completed,
            dropped: total.dropped,
            degraded: total.degraded,
            shed: total.shed,
            queued: s.total_queued() as u64,
            in_flight: tin.iter().sum(),
            batches: total.batches,
            instances,
            tenants: s
                .ledger
                .tallies()
                .iter()
                .zip(&s.pending)
                .zip(tin)
                .map(|((tally, queue), in_flight)| TenantSnapshot {
                    offered: tally.offered,
                    completed: tally.completed,
                    dropped: tally.dropped,
                    degraded: tally.degraded,
                    queued: queue.len() as u64,
                    in_flight,
                })
                .collect(),
        }
    }

    /// Terminal drain once the event queue is empty. In a fault-free run
    /// this is a no-op: every request already reached a terminal state.
    /// Under a fault plan the queue can drain with requests still pending
    /// — only possible when every instance is dead with no restart
    /// scheduled — and those provably-unservable requests are accounted
    /// as [`RequestOutcome::ShedStranded`] (in the closed loop, the
    /// freed clients' remaining request budget strands the same way).
    fn settle(&mut self) {
        let (s, now) = (&mut self.sched, self.q.now());
        if s.total_queued() == 0 && s.ledger.totals().offered as usize == s.cfg.requests {
            return;
        }
        assert!(
            s.nodes.iter().all(|n| !n.up && !n.reloading),
            "invariant: the queue only drains with work outstanding when the whole fleet is dead"
        );
        loop {
            let mut any = false;
            for t in 0..s.tenants.len() {
                let mut freed = 0usize;
                while let Some(r) = s.pending[t].pop_front() {
                    s.ledger.shed(r.id, RequestOutcome::ShedStranded);
                    freed += 1;
                }
                // Closed-loop clients freed by the strand fire their next
                // requests — into the same dead fleet, stranding in turn,
                // until the tenant's request budget is spent.
                s.respawn_clients(now, t, freed);
                any |= freed > 0;
            }
            if !any {
                break;
            }
        }
        s.ledger.boundary(now, s.total_queued());
    }

    /// Runs to completion (if not already settled) and builds the
    /// [`ServingReport`].
    pub fn into_report(mut self) -> ServingReport {
        self.run_to_completion();
        self.into_parts().report
    }

    /// Runs to completion and builds the [`FunctionalServingReport`] as
    /// a projection of the settled outcomes. Response ids are grouped by
    /// (model, tier); one [`PreparedNetwork`] per group in use — the
    /// primary network for `Served`, the fallback for `Degraded` —
    /// predicts each id once. The group's `max_batch` chunks are spread
    /// over the workload's `workers` threads, each chunk one
    /// single-threaded batch forward on a shared [`BatchArena`], and the
    /// predictions are written back in id order. A prediction is a pure
    /// function of `(net, engine, sample, request id)`, so it is the one
    /// the serving instance would have computed, whatever the packing,
    /// chunk schedule or kills; drops read `usize::MAX`.
    ///
    /// # Panics
    /// Panics if the fleet was built without functional workloads.
    pub fn into_functional_report(mut self) -> FunctionalServingReport {
        assert!(
            !self.workloads.is_empty(),
            "into_functional_report needs a fleet built with functional workloads"
        );
        self.run_to_completion();
        let workloads = std::mem::take(&mut self.workloads);
        let max_batch = self.sched.cfg.max_batch;
        let tenant_models: Vec<usize> = self.sched.tenants.iter().map(|tr| tr.spec.model).collect();
        let fin = self.into_parts();
        // Response ids of model `m` on the primary tier at slot `2m`, on
        // the fallback tier at slot `2m + 1`, each in id order.
        let mut groups = vec![Vec::new(); 2 * workloads.len()];
        for (id, outcome) in fin.outcomes.iter().enumerate() {
            let tier = match outcome {
                RequestOutcome::Served => 0,
                RequestOutcome::Degraded => 1,
                _ => continue,
            };
            let model = tenant_models[fin.tenant_of[id] as usize];
            groups[2 * model + tier].push(id as u64);
        }
        let mut predictions = vec![usize::MAX; fin.outcomes.len()];
        let mut t_correct = vec![0u64; tenant_models.len()];
        let arena = BatchArena::new();
        for (slot, ids) in groups.iter().enumerate().filter(|(_, ids)| !ids.is_empty()) {
            let w = workloads[slot / 2];
            let net = if slot % 2 == 0 {
                PreparedNetwork::new(w.net, w.engine)
            } else {
                let fallback = w
                    .fallback
                    .expect("invariant: try_new checked a fallback network under Degrade");
                PreparedNetwork::new(fallback, w.fallback_engine.unwrap_or(w.engine))
            };
            let chunks = parallel_map_with(ids.chunks(max_batch).collect(), w.workers, |chunk| {
                let images: Vec<&Tensor<f32>> = chunk
                    .iter()
                    .map(|&id| &w.samples[id as usize % w.samples.len()].image)
                    .collect();
                net.predict_batch(&images, chunk, &arena)
            });
            for (&id, pred) in ids.iter().zip(chunks.into_iter().flatten()) {
                let id = id as usize;
                predictions[id] = pred;
                if pred == w.samples[id % w.samples.len()].label {
                    t_correct[fin.tenant_of[id] as usize] += 1;
                }
            }
        }
        let correct: u64 = t_correct.iter().sum();
        let serving = fin.report;
        let tenant_accuracy: Vec<TenantAccuracy> = serving
            .tenants
            .iter()
            .zip(&t_correct)
            .map(|(tu, &correct)| TenantAccuracy {
                name: tu.name.clone(),
                correct,
                accuracy_under_load: ratio(correct as f64, (tu.completed + tu.degraded) as f64),
                accuracy_offered: ratio(correct as f64, tu.offered as f64),
            })
            .collect();
        FunctionalServingReport {
            accuracy_under_load: ratio(
                correct as f64,
                (serving.completed + serving.degraded) as f64,
            ),
            accuracy_offered: ratio(correct as f64, serving.offered as f64),
            predictions,
            outcomes: fin.outcomes,
            attempts: fin.attempts,
            correct,
            tenant_accuracy,
            serving,
        }
    }

    /// Final accounting: the settled [`Ledger`]'s projection.
    fn into_parts(self) -> FinishedRun {
        assert!(self.done, "into_parts only after the simulation settled");
        let s = self.sched;
        let specs: Vec<&TenantSpec> = s.tenants.iter().map(|tr| &tr.spec).collect();
        let models: Vec<&str> = s.models.iter().map(|m| m.model.name.as_str()).collect();
        let active = s.nodes.iter().filter(|n| n.up || n.reloading).count();
        s.ledger
            .into_finished(&s.cfg, &specs, &models, active, self.q.now())
    }
}
