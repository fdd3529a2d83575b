//! The fleet's books: one [`Ledger`] per run owns every counter, sample
//! set and per-request record a [`ServingReport`] or snapshot quotes.
//!
//! Each accounting event has exactly one write site, a `Ledger` method;
//! the scheduler decides, the ledger records. Request counters exist
//! once, per tenant ([`Tally`]): fleet totals are sums over tenants and
//! the fleet latency summary is taken over the concatenated tenant
//! samples, so tenant rows and totals agree by construction. The report
//! is a projection of the settled ledger ([`Ledger::into_finished`]),
//! with one rate projection ([`Tally::rates`]) shared by the usage rows
//! and the totals.

use super::config::TenantSpec;
use super::report::TenantUsage;
use super::{
    AvailabilityStats, RequestOutcome, RetryPolicy, ServingConfig, ServingReport, ShedCounts,
};
use crate::perf::register_components;
use sconna_sim::energy::EnergyLedger;
use sconna_sim::stats::{
    GoodputSamples, LatencySamples, LatencySummary, QueueDepthSamples, Utilization,
};
use sconna_sim::time::SimTime;

/// One tenant's request tallies: the only copy of each request counter.
#[derive(Default)]
pub(crate) struct Tally {
    pub offered: u64,
    pub completed: u64,
    pub degraded: u64,
    pub dropped: u64,
    pub shed: ShedCounts,
    /// Batches dispatched (re-dispatches after a kill recount).
    pub batches: u64,
    batched_requests: u64,
    latency: LatencySamples,
    /// Model swaps instances paid to serve this tenant.
    swaps: u64,
    /// Total simulated time those swaps cost.
    swap_time: SimTime,
    /// Dynamic energy attributed to this tenant's dispatches, joules.
    energy_j: f64,
}

/// The rate figures a [`TenantUsage`] row and the [`ServingReport`]
/// totals share.
struct Rates {
    drop_rate: f64,
    fps: f64,
    goodput_fps: f64,
    mean_batch_fill: f64,
    energy_per_response_j: f64,
}

impl Tally {
    /// `self` plus `o`'s counters (latency samples excepted: the fleet
    /// summary concatenates them once, at report time).
    fn add(mut self, o: &Tally) -> Tally {
        self.offered += o.offered;
        self.completed += o.completed;
        self.degraded += o.degraded;
        self.dropped += o.dropped;
        self.shed.newest += o.shed.newest;
        self.shed.oldest += o.shed.oldest;
        self.shed.deadline += o.shed.deadline;
        self.shed.degraded += o.shed.degraded;
        self.shed.stranded += o.shed.stranded;
        self.shed.retry += o.shed.retry;
        self.batches += o.batches;
        self.batched_requests += o.batched_requests;
        self
    }

    /// Rates over a run of `secs` seconds that spent `energy_j` joules.
    fn rates(&self, secs: f64, energy_j: f64) -> Rates {
        let responses = (self.completed + self.degraded) as f64;
        Rates {
            drop_rate: ratio(self.dropped as f64, self.offered as f64),
            fps: ratio(self.completed as f64, secs),
            goodput_fps: ratio(responses, secs),
            mean_batch_fill: ratio(self.batched_requests as f64, self.batches as f64),
            energy_per_response_j: ratio(energy_j, responses),
        }
    }
}

/// `num / den`, or 0 over an empty denominator (no requests, no
/// responses, no batches, or a zero-length run).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every counter of one serving run. See the module docs.
pub(crate) struct Ledger {
    /// Per-tenant tallies, roster order.
    tallies: Vec<Tally>,
    /// Owning tenant per request id. Ids are dense in arrival order, so
    /// the next id is this vector's length.
    tenant_of: Vec<u32>,
    /// Terminal state per request id (`None` while not yet terminal).
    outcomes: Vec<Option<RequestOutcome>>,
    /// Dispatch attempts per request id.
    attempts: Vec<u32>,
    energy: EnergyLedger,
    util: Vec<Utilization>,
    queue_depth: QueueDepthSamples,
    /// Windowed response series; `None` unless the config enables it.
    goodput: Option<GoodputSamples>,
    last_completion: SimTime,
    /// Self-healing counters, accumulated as events fire; the
    /// per-instance downtime and MTTR summary are finalized at report
    /// time.
    avail: AvailabilityStats,
    /// When each currently-down instance went down (first kill of the
    /// outage, surviving kills-while-reloading).
    down_since: Vec<Option<SimTime>>,
    /// Accrued downtime per instance over completed outages; their sum
    /// is the mean-MTTR numerator.
    downtime: Vec<SimTime>,
}

impl Ledger {
    /// Empty books for a run of `cfg` over `tenants` tenants.
    pub fn new(cfg: &ServingConfig, tenants: usize) -> Self {
        let mut energy = EnergyLedger::new();
        for _ in 0..cfg.instances {
            register_components(&mut energy, &cfg.accelerator);
        }
        Self {
            tallies: (0..tenants).map(|_| Tally::default()).collect(),
            tenant_of: Vec::with_capacity(cfg.requests),
            outcomes: Vec::with_capacity(cfg.requests),
            attempts: Vec::with_capacity(cfg.requests),
            energy,
            util: vec![Utilization::new(); cfg.instances],
            queue_depth: QueueDepthSamples::new(),
            goodput: cfg.goodput_window.map(GoodputSamples::new),
            last_completion: SimTime::ZERO,
            avail: AvailabilityStats::default(),
            down_since: vec![None; cfg.instances],
            downtime: vec![SimTime::ZERO; cfg.instances],
        }
    }

    /// Per-tenant tallies, roster order.
    pub fn tallies(&self) -> &[Tally] {
        &self.tallies
    }

    /// Fleet totals: the sum of every tenant's counters.
    pub fn totals(&self) -> Tally {
        self.tallies.iter().fold(Tally::default(), Tally::add)
    }

    /// A fresh arrival of tenant `t` enters the system; returns its id.
    pub fn offer(&mut self, t: usize) -> u64 {
        let id = self.outcomes.len() as u64;
        self.outcomes.push(None);
        self.attempts.push(0);
        self.tenant_of.push(t as u32);
        self.tallies[t].offered += 1;
        id
    }

    /// Request `id` is shed for `cause` (a drop, not a response).
    pub fn shed(&mut self, id: u64, cause: RequestOutcome) {
        let tally = &mut self.tallies[self.tenant_of[id as usize] as usize];
        let counter = match cause {
            RequestOutcome::ShedNewest => &mut tally.shed.newest,
            RequestOutcome::ShedOldest => &mut tally.shed.oldest,
            RequestOutcome::ShedDeadline => &mut tally.shed.deadline,
            RequestOutcome::ShedStranded => &mut tally.shed.stranded,
            RequestOutcome::ShedRetryBudget => &mut tally.shed.retry,
            _ => unreachable!("Ledger::shed takes shed causes only"),
        };
        *counter += 1;
        tally.dropped += 1;
        self.outcomes[id as usize] = Some(cause);
    }

    /// A request of tenant `t` moves onto the degraded (fallback) tier.
    pub fn degrade(&mut self, t: usize) {
        self.tallies[t].shed.degraded += 1;
    }

    /// A batch of tenant `t` is dispatched with `reqs`.
    pub fn dispatch(&mut self, t: usize, reqs: &[(u64, SimTime)]) {
        for &(id, _) in reqs {
            self.attempts[id as usize] += 1;
        }
        let tally = &mut self.tallies[t];
        tally.batches += 1;
        tally.batched_requests += reqs.len() as u64;
    }

    /// Books one batch of tenant `t`: the dynamic energy `ops` records
    /// on the fleet's energy ledger, its delta attributed to the tenant,
    /// plus the model swap the batch paid, if any.
    pub fn charge(&mut self, t: usize, swap: Option<SimTime>, ops: impl FnOnce(&mut EnergyLedger)) {
        let before = self.energy.dynamic_energy_j();
        ops(&mut self.energy);
        let tally = &mut self.tallies[t];
        tally.energy_j += self.energy.dynamic_energy_j() - before;
        if let Some(swap) = swap {
            tally.swaps += 1;
            tally.swap_time += swap;
        }
    }

    /// A batch of tenant `t` completes at `now`, answering every request
    /// in `reqs` at full fidelity or on the degraded tier.
    pub fn respond(&mut self, now: SimTime, t: usize, reqs: &[(u64, SimTime)], degraded: bool) {
        self.last_completion = now;
        if let Some(g) = &mut self.goodput {
            g.record(now, reqs.len() as u64);
        }
        let tally = &mut self.tallies[t];
        let (counter, outcome) = if degraded {
            (&mut tally.degraded, RequestOutcome::Degraded)
        } else {
            (&mut tally.completed, RequestOutcome::Served)
        };
        *counter += reqs.len() as u64;
        for &(id, arrival) in reqs {
            tally.latency.record(now - arrival);
            self.outcomes[id as usize] = Some(outcome);
        }
    }

    /// Instance `inst` spent `time` running a batch (completed or
    /// aborted: wasted work is real work).
    pub fn busy(&mut self, inst: usize, time: SimTime) {
        self.util[inst].add_busy(time);
    }

    /// Records the fleet's queue `depth` at `now` if it changed.
    pub fn depth(&mut self, now: SimTime, depth: usize) {
        if self.queue_depth.last_depth() != Some(depth) {
            self.queue_depth.record(now, depth);
        }
    }

    /// A fault, supervisor or scale boundary at `now`: samples the queue
    /// `depth` unconditionally and extends the goodput series, so
    /// healing transients and outage tails show in the time series even
    /// when the depth did not move.
    pub fn boundary(&mut self, now: SimTime, depth: usize) {
        self.queue_depth.record(now, depth);
        if let Some(g) = &mut self.goodput {
            g.note(now);
        }
    }

    /// A kill lands on live (or reloading) instance `inst` at `now`. The
    /// outage clock starts at the first kill and survives
    /// kills-while-reloading: MTTR measures down-at → back-up.
    pub fn down(&mut self, now: SimTime, inst: usize) {
        self.avail.incidents += 1;
        self.down_since[inst].get_or_insert(now);
    }

    /// Instance `inst` finished its reload at `now` and is back up.
    pub fn up(&mut self, now: SimTime, inst: usize) {
        self.avail.recoveries += 1;
        if let Some(down_at) = self.down_since[inst].take() {
            self.downtime[inst] += now - down_at;
        }
    }

    /// Kill-aborted request `id` asks to rejoin the queue: books a retry
    /// and returns `true`, unless `retry`'s per-request attempt ceiling
    /// or global budget is spent — then the request is shed instead of
    /// amplifying the overload (retry-storm protection).
    pub fn readmit(&mut self, id: u64, retry: &RetryPolicy) -> bool {
        let over_attempts = retry
            .max_attempts
            .is_some_and(|m| self.attempts[id as usize] >= m);
        let budget_spent = retry.retry_budget.is_some_and(|b| self.avail.retries >= b);
        if over_attempts || budget_spent {
            self.shed(id, RequestOutcome::ShedRetryBudget);
            return false;
        }
        self.avail.retries += 1;
        true
    }

    /// The supervisor schedules a restart.
    pub fn restart_issued(&mut self) {
        self.avail.restarts_issued += 1;
    }

    /// The supervisor benches an instance (`true`) or an operator
    /// restart revives a benched one (`false`).
    pub fn bench(&mut self, benched: bool) {
        if benched {
            self.avail.benched += 1;
        } else {
            self.avail.benched -= 1;
        }
    }

    /// The settled run's report and per-request records: the projection
    /// of the ledger onto `cfg`, the tenant `specs` (roster order) and
    /// the `models`' names. `active_instances` are the instances still
    /// serving; an instance still down at `final_now` accrues downtime
    /// up to it (but no MTTR — it never recovered).
    pub fn into_finished(
        self,
        cfg: &ServingConfig,
        specs: &[&TenantSpec],
        models: &[&str],
        active_instances: usize,
        final_now: SimTime,
    ) -> FinishedRun {
        let total = self.totals();
        // Completed outages only: the mean-MTTR numerator.
        let repaired: u64 = self.downtime.iter().map(|d| d.as_ps()).sum();
        let mut downtime = self.downtime;
        for (d, since) in downtime.iter_mut().zip(&self.down_since) {
            if let Some(at) = since {
                *d += final_now.saturating_sub(*at);
            }
        }
        let availability = AvailabilityStats {
            downtime,
            active_instances,
            mean_mttr: repaired
                .checked_div(self.avail.recoveries)
                .map_or(SimTime::ZERO, SimTime::from_ps),
            max_attempts_seen: self.attempts.iter().copied().max().unwrap_or(0),
            ..self.avail
        };
        assert_eq!(
            total.offered as usize, cfg.requests,
            "every request must enter the system"
        );
        assert_eq!(
            total.completed + total.dropped + total.degraded,
            total.offered,
            "served + dropped + degraded must account every offered request"
        );
        let outcomes: Vec<RequestOutcome> = self
            .outcomes
            .iter()
            .map(|o| o.expect("invariant: every request is terminal once the run settles"))
            .collect();
        // Stale flush timers may fire after the last completion, so the
        // serving makespan is the last completion time, not the queue's
        // final clock. ZERO (degenerate all-shed runs) zeroes the rate
        // metrics.
        let makespan = self.last_completion;
        let secs = makespan.as_secs_f64();
        let energy_j = self.energy.total_energy_j(makespan);
        let tenants: Vec<TenantUsage> = self
            .tallies
            .iter()
            .zip(specs)
            .map(|(tally, spec)| {
                let r = tally.rates(secs, tally.energy_j);
                TenantUsage {
                    name: spec.name.clone(),
                    model: models[spec.model].to_string(),
                    weight: spec.weight,
                    offered: tally.offered,
                    completed: tally.completed,
                    dropped: tally.dropped,
                    degraded: tally.degraded,
                    shed: tally.shed,
                    drop_rate: r.drop_rate,
                    latency: summarize(&tally.latency),
                    served_fps: r.fps,
                    goodput_fps: r.goodput_fps,
                    batches: tally.batches,
                    mean_batch_fill: r.mean_batch_fill,
                    model_swaps: tally.swaps,
                    swap_time: tally.swap_time,
                    energy_j: tally.energy_j,
                    energy_per_inference_j: r.energy_per_response_j,
                }
            })
            .collect();
        // Summaries sort before taking ranks and sum exact picoseconds,
        // so concatenation order cannot move a bit.
        let mut latency = LatencySamples::new();
        for tally in &self.tallies {
            latency.append(&tally.latency);
        }
        let r = total.rates(secs, energy_j);
        // The report outlives the run, and callers may keep many (a
        // benchmark keeps one per fleet served): drop the growth slack.
        let mut queue_depth = self.queue_depth;
        queue_depth.shrink_to_fit();
        let report = ServingReport {
            accelerator: cfg.accelerator.name,
            model: models.join("+"),
            instances: cfg.instances,
            max_batch: cfg.max_batch,
            offered: total.offered,
            completed: total.completed,
            dropped: total.dropped,
            degraded: total.degraded,
            shed: total.shed,
            drop_rate: r.drop_rate,
            batches: total.batches,
            mean_batch_fill: r.mean_batch_fill,
            makespan,
            fps: r.fps,
            goodput_fps: r.goodput_fps,
            latency: summarize(&latency),
            queue_depth,
            utilization: if makespan > SimTime::ZERO {
                self.util.iter().map(|u| u.ratio(makespan)).collect()
            } else {
                vec![0.0; cfg.instances]
            },
            energy_j,
            energy_per_inference_j: r.energy_per_response_j,
            avg_power_w: ratio(energy_j, secs),
            availability,
            goodput_series: self.goodput,
            tenants,
        };
        FinishedRun {
            report,
            outcomes,
            attempts: self.attempts,
            tenant_of: self.tenant_of,
        }
    }
}

/// Everything a settled run yields, before report-flavour packaging.
pub(crate) struct FinishedRun {
    pub report: ServingReport,
    pub outcomes: Vec<RequestOutcome>,
    pub attempts: Vec<u32>,
    /// Owning tenant per request id.
    pub tenant_of: Vec<u32>,
}

/// [`LatencySummary`] of possibly-empty samples: the all-zero summary
/// when nothing was recorded (degenerate all-shed runs), the real one
/// otherwise.
fn summarize(samples: &LatencySamples) -> LatencySummary {
    if samples.is_empty() {
        LatencySummary::default()
    } else {
        samples.summary()
    }
}
