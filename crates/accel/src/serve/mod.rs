//! Multi-instance serving simulation: the traffic dimension the paper's
//! headline throughput claim implies but never models.
//!
//! A *fleet* of R identical accelerator instances serves a stream of
//! inference requests. Requests arrive by an open-loop Poisson process
//! (independent users at a target rate), a closed loop (a fixed
//! population of clients, each firing its next request the moment the
//! previous one completes), or a replayed trace. A batching scheduler
//! packs pending requests into batches of up to `max_batch`, dispatching
//! a full batch as soon as an instance is idle and flushing partial
//! batches once the oldest pending request has waited `batch_window` —
//! the standard dynamic-batching policy of production inference servers.
//!
//! Each dispatched batch occupies one instance for the weight-stationary
//! batched makespan from [`crate::perf`], so the per-batch service time
//! and per-batch dynamic energy are exactly the single-accelerator
//! model's; what this module adds is queueing, packing and fleet-level
//! accounting: throughput, latency percentiles, per-instance utilization
//! and energy per inference.
//!
//! **Overload & admission control.** The pending queue can be bounded
//! (`queue_cap` requests per instance) and an [`AdmissionPolicy`] decides
//! what happens to traffic the fleet cannot absorb: reject the newcomer
//! ([`AdmissionPolicy::DropNewest`]), evict the oldest waiter
//! ([`AdmissionPolicy::DropOldest`]), shed requests whose queue wait has
//! already blown their latency SLO ([`AdmissionPolicy::Deadline`]), or
//! route overflow to a cheaper low-precision fallback model so shedding
//! trades accuracy instead of availability
//! ([`AdmissionPolicy::Degrade`]). Reports account every offered request
//! into exactly one of *served*, *dropped* or *degraded*, quote goodput
//! and drop rate, and carry the queue-depth time series
//! ([`sconna_sim::stats::QueueDepthSamples`]). [`overload_sweep`] walks
//! the offered load across the saturation knee and returns the
//! accuracy-vs-load / tail-latency-vs-load curve.
//!
//! **Functional serving** ([`simulate_serving_functional`]) goes one step
//! further: besides *timing* each batch, the fleet reports per-request
//! predictions and top-1 **accuracy-under-load** alongside
//! FPS/latency/energy. Request `r` runs under noise key `r`, so its
//! prediction is a pure function of `(model, tier, engine, sample, r)` —
//! independent of batch packing, instance assignment, arrival ordering,
//! kills and worker count. The event loop therefore never runs
//! a network: [`Fleet::into_functional_report`] derives the predictions
//! from the settled outcomes, preparing one engine-backed
//! [`sconna_tensor::network::PreparedNetwork`] per (model, tier) in use
//! (weights DKV/LUT converted once, the weight-stationary load the
//! hardware mapping assumes) and running every response through real
//! `vdp_batch` tiles, the im2col patches of a batch stacked per layer.
//! Under [`AdmissionPolicy::Degrade`] degraded responses run on the
//! low-precision fallback network.
//!
//! **Steppable fleet & fault injection.** The simulation itself is the
//! [`Fleet`] state machine: the entry points here are thin
//! run-to-completion wrappers over `Fleet::new(...)` + step-until-done.
//! Driving a [`Fleet`] manually ([`Fleet::step`] / [`Fleet::step_until`])
//! exposes a [`FleetSnapshot`] at every step boundary, and a
//! [`FaultPlan`] schedules kill / restart / stall events against
//! individual instances on the same deterministic event queue as the
//! traffic — the scenario-test harness in `tests/scenarios.rs` drives
//! exactly this surface, asserting request conservation at every step of
//! seeded chaos runs.
//!
//! **Self-healing.** Scripted chaos generalizes to *statistical* chaos:
//! a [`FailureProcess`] materializes seeded exponential MTBF/MTTR
//! failure streams into an ordinary [`FaultPlan`], a [`Supervisor`]
//! restarts killed instances with exponentially backed-off, jittered
//! delays (benching crash-looping instances permanently), and a
//! [`RetryPolicy`] re-admits kill-aborted requests under per-request
//! attempt ceilings and a global retry budget. What a restart costs is the
//! accelerator's to answer — SCONNA's zero-reprogram warm reload
//! ([`RestartMode::Warm`]) heals faster than the analog baselines, and
//! the gap is measured as MTTR in [`AvailabilityStats`]. [`chaos_sweep`]
//! walks availability and goodput across fault rates.
//!
//! **Multi-tenant serving.** A fleet can host several *tenants* —
//! [`TenantSpec`] names a model (by index into the co-resident model
//! slice), a fair-share weight and its own arrival process — built via [`Fleet::new_multi`] / [`Fleet::try_new`]. Each
//! tenant owns a bounded FIFO of its own; a pluggable [`TenantScheduler`]
//! picks which tenant's head batch dispatches next: weighted-fair
//! queueing on a virtual clock (default) or a naive shared FIFO baseline with no isolation at all. The timing
//! model treats every model as co-resident on every instance, so
//! switching tenants costs
//! [`model_swap_time`](crate::perf::model_swap_time) — near-zero for
//! SCONNA (repointing OSM LUT banks), reprogram-dominated for the analog
//! baselines — not a cold reload. [`ServingReport::tenants`] carries a
//! [`TenantUsage`] per tenant (offered/served/degraded, per-cause sheds,
//! latency percentiles, joules, swap counts), functional runs add
//! per-tenant accuracy-under-load, and [`FleetSnapshot::tenants`]
//! extends the conservation invariant per tenant. A config with an empty
//! roster is exactly a one-tenant fleet: the single-tenant entry points
//! are thin wrappers and stay bit-identical to their pre-tenant reports.
//!
//! Everything runs on one deterministic [`EventQueue`] per simulation, so
//! a [`ServingReport`] is a pure function of its [`ServingConfig`] (and
//! fault plan) — bit-identical across runs and across sweep
//! worker-thread counts.
//!
//! [`EventQueue`]: sconna_sim::event::EventQueue

mod autoscale;
mod config;
mod failure;
mod fault;
mod fleet;
mod ledger;
mod report;
mod supervisor;

pub use autoscale::{AutoscalePolicy, ScaleEvent};
pub use config::{
    AdmissionPolicy, ArrivalProcess, RetryPolicy, ServingConfig, ServingConfigError,
    TenantScheduler, TenantSpec,
};
pub use failure::FailureProcess;
pub use fault::{FaultEvent, FaultPlan};
pub use fleet::{
    Fleet, FleetSnapshot, FunctionalWorkload, InstanceHealth, InstanceSnapshot, TenantSnapshot,
};
pub use report::{
    AvailabilityStats, FunctionalServingReport, OverloadPoint, RequestOutcome, ServingReport,
    ShedCounts, TenantAccuracy, TenantUsage,
};
pub use supervisor::{RestartMode, Supervisor};

use sconna_sim::parallel::parallel_map_with;
use sconna_tensor::models::CnnModel;

/// Runs one serving simulation to completion, analytic timing only.
/// Equivalent to `Fleet::new(config, model).into_report()`.
///
/// # Panics
/// Panics on degenerate configurations: zero instances, zero batch limit,
/// zero requests, a zero queue cap, a non-positive Poisson rate, or a
/// trace whose length disagrees with `requests`.
pub fn simulate_serving(config: &ServingConfig, model: &CnnModel) -> ServingReport {
    Fleet::new(config, model).into_report()
}

/// Runs one **functional** serving simulation: the same queueing, timing
/// and energy model as [`simulate_serving`] (the `serving` field is
/// bit-identical to the analytic-only run of the same config), plus every
/// response's prediction, computed at report time through real stacked
/// `vdp_batch` tiles on a prepared model — the fallback model for
/// degraded responses. Equivalent to
/// `Fleet::new_functional(config, model, workload).into_functional_report()`.
///
/// Request `r` serves `workload.samples[r % samples.len()]` under noise
/// key `r`, so every *response's* prediction is a pure function of the
/// workload and the request's tier — independent of fleet size, batch
/// packing, arrival ordering and `workers` (property-tested in
/// `tests/functional_serving.rs`). Which requests get shed or degraded
/// is decided by the deterministic event simulation, so the whole report
/// is bit-identical across runs and worker counts for a fixed config.
///
/// # Panics
/// Panics on degenerate configurations, an empty sample set, or a
/// [`AdmissionPolicy::Degrade`] policy without `workload.fallback`.
pub fn simulate_serving_functional(
    config: &ServingConfig,
    model: &CnnModel,
    workload: &FunctionalWorkload<'_>,
) -> FunctionalServingReport {
    Fleet::new_functional(config, model, workload).into_functional_report()
}

/// Runs a sweep of serving configurations in parallel on `workers`
/// threads. Each sweep point is an independent simulation with its own
/// event queue and seed, so the result vector is bit-identical for every
/// worker count (property-tested in `tests/determinism.rs`).
pub fn sweep(configs: Vec<ServingConfig>, model: &CnnModel, workers: usize) -> Vec<ServingReport> {
    parallel_map_with(configs, workers, |c| simulate_serving(&c, model))
}

/// Sweeps the offered (open-loop Poisson) load across the saturation
/// knee under `base`'s fleet shape and admission policy, running the
/// **functional** fleet at every point so the curve carries accuracy as
/// well as goodput, drop rate and tail latency. Points are independent
/// simulations parallelized over `workers` threads; the result is
/// bit-identical for every worker count.
///
/// `base.arrivals` and `base.seed` are kept except that the arrival rate
/// is overridden per point ([`ServingConfig::with_poisson`]), so pass the
/// Poisson seed in `base.seed`.
pub fn overload_sweep(
    base: &ServingConfig,
    model: &CnnModel,
    workload: &FunctionalWorkload<'_>,
    offered_fps: &[f64],
    workers: usize,
) -> Vec<OverloadPoint> {
    parallel_map_with(offered_fps.to_vec(), workers, |rate| OverloadPoint {
        offered_fps: rate,
        report: simulate_serving_functional(&base.clone().with_poisson(rate), model, workload),
    })
}

/// One point of a chaos sweep: a stochastic fault rate and what the
/// fleet made of it.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ChaosPoint {
    /// Mean time between failures per instance at this point.
    pub mtbf: sconna_sim::time::SimTime,
    /// The serving report under that failure stream, with
    /// [`ServingReport::availability`] carrying incidents, recoveries,
    /// measured MTTR and retry counters.
    pub report: ServingReport,
}

/// Sweeps the per-instance fault rate (MTBF) under `base`'s fleet shape,
/// admission, supervision and retry policies: each point materializes
/// `process` at that MTBF over `horizon` ([`FailureProcess::materialize`])
/// and runs one fleet simulation against the resulting plan. Points are
/// independent simulations parallelized over `workers` threads; every
/// point is a pure function of `(base, model, process, mtbf, horizon)`,
/// so the curve is bit-identical for every worker count
/// (asserted in the `chaos` bench and property-tested in
/// `tests/scenarios.rs`).
///
/// Run it twice — with and without
/// [`ServingConfig::with_supervisor`] — to measure what supervised
/// restarts buy: the unsupervised fleet loses instances permanently
/// (when `process.mttr` is `None`) and strands its tail, while the
/// supervised fleet heals at the cost of backoff plus the accelerator's
/// reload time.
pub fn chaos_sweep(
    base: &ServingConfig,
    model: &CnnModel,
    process: &FailureProcess,
    mtbfs: &[sconna_sim::time::SimTime],
    horizon: sconna_sim::time::SimTime,
    workers: usize,
) -> Vec<ChaosPoint> {
    parallel_map_with(mtbfs.to_vec(), workers, |mtbf| {
        let mut p = *process;
        p.mtbf = mtbf;
        let plan = p.materialize(base.instances, horizon);
        ChaosPoint {
            mtbf,
            report: Fleet::new(base, model).with_faults(&plan).into_report(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SconnaEngine;
    use crate::organization::AcceleratorConfig;
    use crate::perf::analyze_layer_batched;
    use sconna_sim::time::SimTime;
    use sconna_tensor::dataset::Sample;
    use sconna_tensor::layers::{MaxPool2d, QConv2d, QFc};
    use sconna_tensor::models::{googlenet, shufflenet_v2};
    use sconna_tensor::network::{QLayer, QuantizedNetwork};
    use sconna_tensor::quant::{ActivationQuant, Requant, WeightQuant};
    use sconna_tensor::Tensor;

    fn small_closed(instances: usize, max_batch: usize, requests: usize) -> ServingConfig {
        ServingConfig::saturation(AcceleratorConfig::sconna(), instances, max_batch, requests)
    }

    /// A hand-built quantized CNN (no training) plus a labelled request
    /// population for functional-serving tests.
    fn tiny_workload() -> (QuantizedNetwork, Vec<Sample>) {
        let aq = ActivationQuant {
            scale: 1.0 / 255.0,
            bits: 8,
        };
        let wq = WeightQuant {
            scale: 1.0 / 127.0,
            bits: 8,
        };
        let net = QuantizedNetwork {
            input_quant: aq,
            layers: vec![
                QLayer::Conv(QConv2d {
                    name: "c1".into(),
                    weights: Tensor::from_fn(&[4, 1, 3, 3], |i| ((i * 29) % 255) as i32 - 127),
                    bias: vec![0.0; 4],
                    stride: 1,
                    padding: 1,
                    groups: 1,
                    requant: Requant::new(aq, wq, aq),
                }),
                QLayer::MaxPool(MaxPool2d {
                    kernel: 2,
                    stride: 2,
                    padding: 0,
                }),
                QLayer::GlobalAvgPool,
                QLayer::Fc(QFc {
                    name: "fc".into(),
                    weights: Tensor::from_fn(&[3, 4], |i| ((i * 67) % 255) as i32 - 127),
                    bias: vec![0.0; 3],
                    dequant: aq.scale * wq.scale,
                }),
            ],
        };
        let samples: Vec<Sample> = (0..6)
            .map(|s| Sample {
                image: Tensor::from_fn(&[1, 8, 8], |i| ((s * 37 + i) % 256) as f32 / 255.0),
                label: s % 3,
            })
            .collect();
        (net, samples)
    }

    #[test]
    fn functional_report_matches_offline_per_request_inference() {
        // Every prediction must equal the offline forward of the same
        // sample under the same request-id key — the fleet adds queueing,
        // never computation.
        let (net, samples) = tiny_workload();
        let engine = SconnaEngine::paper_default(5);
        let workload = FunctionalWorkload {
            net: &net,
            fallback: None,
            fallback_engine: None,
            samples: &samples,
            engine: &engine,
            workers: 1,
        };
        let model = shufflenet_v2();
        let cfg = small_closed(2, 4, 13);
        let r = simulate_serving_functional(&cfg, &model, &workload);
        assert_eq!(r.predictions.len(), 13);
        assert!(r.outcomes.iter().all(|&o| o == RequestOutcome::Served));
        for (id, &pred) in r.predictions.iter().enumerate() {
            let s = &samples[id % samples.len()];
            let offline =
                sconna_tensor::layers::argmax(&net.forward_keyed(&s.image, &engine, id as u64));
            assert_eq!(pred, offline, "request {id}");
        }
        let correct = r
            .predictions
            .iter()
            .enumerate()
            .filter(|&(id, &p)| p == samples[id % samples.len()].label)
            .count() as u64;
        assert_eq!(r.correct, correct);
        assert_eq!(r.accuracy_under_load, correct as f64 / 13.0);
        assert_eq!(r.accuracy_offered, r.accuracy_under_load);
    }

    #[test]
    fn functional_timing_is_identical_to_analytic_run() {
        // Executing real inference must not perturb the queueing model:
        // the serving half of the functional report is bit-identical to
        // the analytic-only simulation of the same config.
        let (net, samples) = tiny_workload();
        let engine = SconnaEngine::paper_default(5);
        let workload = FunctionalWorkload {
            net: &net,
            fallback: None,
            fallback_engine: None,
            samples: &samples,
            engine: &engine,
            workers: 2,
        };
        let model = shufflenet_v2();
        let cfg = small_closed(2, 4, 16);
        let functional = simulate_serving_functional(&cfg, &model, &workload);
        let analytic = simulate_serving(&cfg, &model);
        assert_eq!(format!("{:?}", functional.serving), format!("{analytic:?}"));
    }

    #[test]
    fn accuracy_under_load_is_fleet_and_schedule_invariant() {
        // Predictions are keyed per request id, so fleet size, batch
        // limit, arrival process and instance workers must not move a
        // single prediction bit.
        let (net, samples) = tiny_workload();
        let engine = SconnaEngine::paper_default(9);
        let model = shufflenet_v2();
        let requests = 17;
        let baseline = {
            let workload = FunctionalWorkload {
                net: &net,
                fallback: None,
                fallback_engine: None,
                samples: &samples,
                engine: &engine,
                workers: 1,
            };
            simulate_serving_functional(&small_closed(1, 1, requests), &model, &workload)
        };
        for (instances, max_batch, workers) in [(1usize, 4usize, 2usize), (2, 4, 1), (4, 2, 8)] {
            let workload = FunctionalWorkload {
                net: &net,
                fallback: None,
                fallback_engine: None,
                samples: &samples,
                engine: &engine,
                workers,
            };
            let r = simulate_serving_functional(
                &small_closed(instances, max_batch, requests),
                &model,
                &workload,
            );
            assert_eq!(
                r.predictions, baseline.predictions,
                "{instances}x{max_batch} w{workers}"
            );
            assert_eq!(r.accuracy_under_load, baseline.accuracy_under_load);
        }
        // Open-loop arrivals reorder timing but not request identity.
        let workload = FunctionalWorkload {
            net: &net,
            fallback: None,
            fallback_engine: None,
            samples: &samples,
            engine: &engine,
            workers: 2,
        };
        let poisson = simulate_serving_functional(
            &ServingConfig {
                arrivals: ArrivalProcess::Poisson { rate_fps: 800.0 },
                seed: 3,
                ..small_closed(2, 4, requests)
            },
            &model,
            &workload,
        );
        assert_eq!(poisson.predictions, baseline.predictions);
    }

    #[test]
    fn serves_every_request_exactly_once() {
        let model = shufflenet_v2();
        let r = simulate_serving(&small_closed(2, 4, 37), &model);
        assert_eq!(r.completed, 37);
        assert_eq!(r.offered, 37);
        assert_eq!(r.dropped, 0);
        assert_eq!(r.degraded, 0);
        assert_eq!(r.latency.count, 37);
        assert!(r.batches >= 37u64.div_ceil(4));
        assert!(r.mean_batch_fill >= 1.0 && r.mean_batch_fill <= 4.0);
    }

    #[test]
    fn unbounded_drop_newest_is_bit_identical_to_pr2_scheduler() {
        // Regression pin: the overload machinery must not move a bit of
        // the unbounded scheduler's behavior. Expected values captured
        // from the pre-overload implementation (PR 4) on these exact
        // configs.
        let model = shufflenet_v2();
        let closed = simulate_serving(&small_closed(2, 4, 37), &model);
        assert_eq!(closed.completed, 37);
        assert_eq!(closed.batches, 10);
        assert!((closed.mean_batch_fill - 3.7).abs() < 1e-12);
        assert_eq!(closed.makespan, SimTime::from_ps(385_286_830));
        assert!((closed.fps - 96_032.350_755_409_95).abs() < 1e-6);
        assert_eq!(closed.latency.p50, SimTime::from_ps(154_114_732));
        assert_eq!(closed.latency.p99, SimTime::from_ps(154_114_732));
        assert_eq!(closed.latency.mean, SimTime::from_ps(135_982_316));
        assert_eq!(closed.utilization[0], 1.0);
        assert!((closed.utilization[1] - 0.858_701_422_522_020_9).abs() < 1e-12);
        assert!((closed.energy_j - 0.236_006_470_388_707_2).abs() < 1e-12);

        let poisson = simulate_serving(
            &ServingConfig {
                arrivals: ArrivalProcess::Poisson { rate_fps: 2_000.0 },
                seed: 17,
                ..small_closed(2, 4, 24)
            },
            &model,
        );
        assert_eq!(poisson.completed, 24);
        assert_eq!(poisson.batches, 22);
        assert_eq!(poisson.makespan, SimTime::from_ps(12_234_353_686));
        assert_eq!(poisson.latency.p50, SimTime::from_ps(122_616_885));
        assert_eq!(poisson.latency.max, SimTime::from_ps(140_701_453));
        assert!((poisson.energy_j - 2.696_219_434_090_293).abs() < 1e-12);

        // A huge finite cap behaves exactly like the unbounded queue.
        let capped = simulate_serving(
            &ServingConfig {
                queue_cap: Some(1_000_000),
                ..small_closed(2, 4, 37)
            },
            &model,
        );
        assert_eq!(format!("{capped:?}"), format!("{closed:?}"));
    }

    #[test]
    fn drop_newest_bounds_the_queue_and_sheds_overflow() {
        let model = shufflenet_v2();
        let base = small_closed(1, 2, 64);
        let capacity = base.estimated_capacity_fps(&model);
        let cfg = ServingConfig {
            queue_cap: Some(2),
            arrivals: ArrivalProcess::Poisson {
                rate_fps: 3.0 * capacity,
            },
            seed: 5,
            ..base
        };
        let r = simulate_serving(&cfg, &model);
        assert_eq!(r.offered, 64);
        assert_eq!(r.completed + r.dropped, 64);
        assert!(
            r.dropped > 0,
            "3x overload against a 2-deep queue must shed"
        );
        assert_eq!(r.shed.newest, r.dropped);
        assert_eq!(r.shed.oldest + r.shed.deadline + r.shed.degraded, 0);
        assert!((r.drop_rate - r.dropped as f64 / 64.0).abs() < 1e-12);
        // The queue bound holds over the whole series.
        assert!(
            r.queue_depth.max_depth() <= 2,
            "depth {}",
            r.queue_depth.max_depth()
        );
        let end = r
            .makespan
            .max(r.queue_depth.last_time().expect("series non-empty"));
        assert!(r.queue_depth.mean_depth(end) <= 2.0);
        // Bounded queue => bounded wait: every response saw at most a
        // full queue ahead of it plus its own batch (+ window flushes).
        assert!(r.goodput_fps >= r.fps);
    }

    #[test]
    fn drop_oldest_sheds_the_head_of_the_queue() {
        let model = shufflenet_v2();
        let base = small_closed(1, 2, 48);
        let capacity = base.estimated_capacity_fps(&model);
        let cfg = ServingConfig {
            queue_cap: Some(1),
            admission: AdmissionPolicy::DropOldest,
            arrivals: ArrivalProcess::Poisson {
                rate_fps: 4.0 * capacity,
            },
            seed: 9,
            ..base
        };
        let r = simulate_serving(&cfg, &model);
        assert_eq!(r.completed + r.dropped, 48);
        assert!(
            r.shed.oldest > 0,
            "4x overload against a 1-deep queue must evict"
        );
        assert_eq!(r.shed.oldest, r.dropped);
        assert_eq!(r.shed.newest, 0);
        // Eviction keeps the freshest traffic: the newest request always
        // survives admission, so the very last request is always served.
        assert!(r.queue_depth.max_depth() <= 1);
    }

    #[test]
    fn deadline_policy_sheds_stale_requests_and_bounds_tail_latency() {
        let model = shufflenet_v2();
        let base = small_closed(1, 2, 64);
        let capacity = base.estimated_capacity_fps(&model);
        // SLO: two batch services of queue wait.
        let service = SimTime::from_secs_f64(2.0 * base.max_batch as f64 / capacity);
        let over = ServingConfig {
            admission: AdmissionPolicy::Deadline { slo: service },
            arrivals: ArrivalProcess::Poisson {
                rate_fps: 3.0 * capacity,
            },
            seed: 3,
            ..base.clone()
        };
        let r = simulate_serving(&over, &model);
        assert_eq!(r.completed + r.dropped, 64);
        assert!(r.shed.deadline > 0, "3x overload must blow the SLO");
        // Served requests waited at most `slo` in queue, so their
        // end-to-end latency is bounded by slo + one batch service + one
        // flush window.
        let bound =
            service + SimTime::from_secs_f64(base.max_batch as f64 / capacity) + base.batch_window;
        assert!(
            r.latency.max <= bound,
            "deadline shedding must bound the tail: {} > {}",
            r.latency.max,
            bound
        );
    }

    #[test]
    fn degrade_policy_trades_accuracy_for_availability() {
        let (net, samples) = tiny_workload();
        let fallback = net.with_weight_bits(2);
        let engine = SconnaEngine::paper_default(11);
        let model = shufflenet_v2();
        let base = small_closed(1, 2, 48);
        let capacity = base.estimated_capacity_fps(&model);
        let cfg = ServingConfig {
            queue_cap: Some(1),
            admission: AdmissionPolicy::Degrade { fallback_bits: 4 },
            arrivals: ArrivalProcess::Poisson {
                rate_fps: 3.0 * capacity,
            },
            seed: 7,
            ..base
        };
        let workload = FunctionalWorkload {
            net: &net,
            fallback: Some(&fallback),
            fallback_engine: None,
            samples: &samples,
            engine: &engine,
            workers: 1,
        };
        let r = simulate_serving_functional(&cfg, &model, &workload);
        // Availability: nobody is dropped.
        assert_eq!(r.serving.dropped, 0);
        assert_eq!(r.serving.completed + r.serving.degraded, 48);
        assert!(r.serving.degraded > 0, "3x overload must degrade");
        assert_eq!(r.serving.shed.degraded, r.serving.degraded);
        assert!(r.serving.goodput_fps > r.serving.fps);
        // Every degraded response matches the offline fallback forward;
        // every full response the offline primary forward.
        for (id, (&pred, &outcome)) in r.predictions.iter().zip(&r.outcomes).enumerate() {
            let s = &samples[id % samples.len()];
            let reference = match outcome {
                RequestOutcome::Served => &net,
                RequestOutcome::Degraded => &fallback,
                _ => panic!("no drops under Degrade"),
            };
            let offline = sconna_tensor::layers::argmax(
                &reference.forward_keyed(&s.image, &engine, id as u64),
            );
            assert_eq!(pred, offline, "request {id} ({outcome:?})");
        }
        // Accuracy accounting: offered == admitted here (no drops).
        assert_eq!(r.accuracy_under_load, r.accuracy_offered);
    }

    #[test]
    fn degraded_batches_run_faster_than_full_fidelity_ones() {
        // The whole point of degrading: a 4-bit stream is 16x shorter, so
        // under identical overload the Degrade fleet finishes far sooner
        // than a fleet that must serve everyone at full fidelity.
        let model = shufflenet_v2();
        let base = small_closed(1, 2, 48);
        let capacity = base.estimated_capacity_fps(&model);
        let over = ArrivalProcess::Poisson {
            rate_fps: 4.0 * capacity,
        };
        let full = simulate_serving(
            &ServingConfig {
                arrivals: over.clone(),
                seed: 2,
                ..base.clone()
            },
            &model,
        );
        let degrade = simulate_serving(
            &ServingConfig {
                queue_cap: Some(1),
                admission: AdmissionPolicy::Degrade { fallback_bits: 4 },
                arrivals: over,
                seed: 2,
                ..base
            },
            &model,
        );
        assert!(degrade.degraded > 0);
        assert!(
            degrade.makespan < full.makespan,
            "degraded fleet {} vs full-fidelity {}",
            degrade.makespan,
            full.makespan
        );
    }

    #[test]
    fn trace_arrivals_are_insertion_order_invariant() {
        // A tie-free trace assigns request ids in time order, so any
        // permutation of the times vector simulates identically.
        let model = shufflenet_v2();
        let times: Vec<SimTime> = (0..24u64)
            .map(|i| SimTime::from_ps((i * 37 + 11) * 1_000_000 % 300_000_000 + i))
            .collect();
        let mut shuffled = times.clone();
        shuffled.reverse();
        shuffled.rotate_left(7);
        let run = |ts: Vec<SimTime>| {
            simulate_serving(
                &ServingConfig {
                    queue_cap: Some(1),
                    admission: AdmissionPolicy::DropOldest,
                    arrivals: ArrivalProcess::Trace { times: ts },
                    ..small_closed(1, 2, 24)
                },
                &model,
            )
        };
        assert_eq!(format!("{:?}", run(times)), format!("{:?}", run(shuffled)));
    }

    #[test]
    #[should_panic(expected = "trace length must equal")]
    fn trace_length_mismatch_panics() {
        let model = shufflenet_v2();
        let _ = simulate_serving(
            &ServingConfig {
                arrivals: ArrivalProcess::Trace {
                    times: vec![SimTime::ZERO; 3],
                },
                ..small_closed(1, 2, 4)
            },
            &model,
        );
    }

    #[test]
    fn saturation_measures_the_closed_form_capacity_estimate() {
        // The knee pin, closed-loop half: the saturation workload's
        // measured FPS converges on `estimated_capacity_fps` (short runs
        // sit slightly below it — window flushes and the final partial
        // batch waste slots). The open-loop half lives in
        // tests/overload.rs next to the sweep itself.
        let model = shufflenet_v2();
        for (instances, max_batch) in [(1usize, 4usize), (2, 8)] {
            let cfg = small_closed(instances, max_batch, 96);
            let estimate = cfg.estimated_capacity_fps(&model);
            let measured = simulate_serving(&cfg, &model).fps;
            let ratio = measured / estimate;
            assert!(
                (0.85..=1.02).contains(&ratio),
                "{instances}x{max_batch}: measured {measured:.0} vs estimate {estimate:.0} (ratio {ratio:.3})"
            );
        }
    }

    #[test]
    fn fps_scales_with_instance_count() {
        // The acceptance bar: ≥ 1.8× served FPS from 1 → 2 instances on
        // GoogleNet under saturation.
        let model = googlenet();
        let one = simulate_serving(&small_closed(1, 8, 64), &model);
        let two = simulate_serving(&small_closed(2, 8, 64), &model);
        let scaling = two.fps / one.fps;
        assert!(
            scaling >= 1.8,
            "1→2 instance scaling {scaling} (fps {} → {})",
            one.fps,
            two.fps
        );
    }

    #[test]
    fn batching_lowers_energy_per_inference() {
        // Pipeline fill and weight traffic amortize across a batch while
        // static power integrates over a shorter makespan. 64 requests
        // pack both sweeps tail-free (64 = 2·32·1 = 2·2·16), so the
        // comparison isolates amortization from batch-quantization idle.
        let model = googlenet();
        let b1 = simulate_serving(&small_closed(2, 1, 64), &model);
        let b16 = simulate_serving(&small_closed(2, 16, 64), &model);
        assert!(
            b16.energy_per_inference_j < b1.energy_per_inference_j,
            "batch-16 {} J vs batch-1 {} J",
            b16.energy_per_inference_j,
            b1.energy_per_inference_j
        );
        assert!(b16.fps >= b1.fps, "batching must not lose throughput");
    }

    #[test]
    fn saturated_fleet_is_highly_utilized() {
        let model = shufflenet_v2();
        let r = simulate_serving(&small_closed(2, 4, 64), &model);
        assert_eq!(r.utilization.len(), 2);
        for (i, u) in r.utilization.iter().enumerate() {
            assert!(*u > 0.8, "instance {i} utilization {u}");
        }
    }

    #[test]
    fn latency_percentiles_are_ordered_and_cover_service_time() {
        let model = shufflenet_v2();
        let cfg = small_closed(2, 4, 64);
        let r = simulate_serving(&cfg, &model);
        assert!(r.latency.p50 <= r.latency.p95);
        assert!(r.latency.p95 <= r.latency.p99);
        assert!(r.latency.p99 <= r.latency.max);
        // Every request at least pays one batch service time.
        let service = model.workloads.iter().fold(SimTime::ZERO, |acc, w| {
            acc + analyze_layer_batched(&cfg.accelerator, w, 1).total
        });
        assert!(r.latency.p50 >= service);
    }

    #[test]
    fn poisson_below_capacity_keeps_queue_short() {
        let model = shufflenet_v2();
        // Closed-loop saturation first, to find capacity.
        let sat = simulate_serving(&small_closed(1, 4, 48), &model);
        let cfg = ServingConfig {
            arrivals: ArrivalProcess::Poisson {
                rate_fps: sat.fps * 0.3,
            },
            seed: 7,
            ..small_closed(1, 4, 48)
        };
        let r = simulate_serving(&cfg, &model);
        assert_eq!(r.completed, 48);
        // At 30 % load the p50 wait is bounded by the batch window plus
        // a couple of service times.
        let bound = cfg.batch_window + SimTime::from_ps(3 * sat.latency.p50.as_ps());
        assert!(
            r.latency.p50 <= bound,
            "p50 {} vs bound {}",
            r.latency.p50,
            bound
        );
        // Mean utilization is moderate.
        let mean_util: f64 = r.utilization.iter().sum::<f64>() / r.utilization.len() as f64;
        assert!(mean_util < 0.9, "utilization {mean_util} at 30% load");
    }

    #[test]
    fn poisson_is_seed_deterministic_and_seed_sensitive() {
        let model = shufflenet_v2();
        let cfg = ServingConfig {
            arrivals: ArrivalProcess::Poisson { rate_fps: 500.0 },
            seed: 11,
            ..small_closed(1, 4, 32)
        };
        let a = simulate_serving(&cfg, &model);
        let b = simulate_serving(&cfg, &model);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = simulate_serving(
            &ServingConfig {
                seed: 12,
                ..cfg.clone()
            },
            &model,
        );
        assert_ne!(
            a.makespan, c.makespan,
            "different seeds must shift the arrival process"
        );
    }

    #[test]
    fn partial_batches_flush_after_window() {
        // 3 requests, max_batch 8: the only way they complete is a
        // window flush; fill must reflect the partial batch.
        let model = shufflenet_v2();
        let cfg = ServingConfig {
            arrivals: ArrivalProcess::ClosedLoop { clients: 3 },
            ..small_closed(1, 8, 3)
        };
        let r = simulate_serving(&cfg, &model);
        assert_eq!(r.completed, 3);
        assert_eq!(r.batches, 1);
        assert!((r.mean_batch_fill - 3.0).abs() < 1e-12);
        // Latency includes the flush wait.
        assert!(r.latency.p50 >= cfg.batch_window);
    }

    #[test]
    fn single_request_single_instance() {
        let model = shufflenet_v2();
        let cfg = ServingConfig {
            arrivals: ArrivalProcess::ClosedLoop { clients: 1 },
            ..small_closed(1, 1, 1)
        };
        let r = simulate_serving(&cfg, &model);
        assert_eq!(r.completed, 1);
        assert_eq!(r.batches, 1);
        // A lone request with max_batch 1 dispatches immediately: its
        // latency is exactly the batch-1 service time, which equals the
        // single-inference makespan.
        let single = crate::perf::simulate_inference(&cfg.accelerator, &model);
        assert_eq!(r.latency.max, single.makespan);
    }

    #[test]
    fn queue_depth_series_tracks_the_backlog() {
        let model = shufflenet_v2();
        let r = simulate_serving(&small_closed(2, 4, 37), &model);
        // Saturation backlog: 2·instances·max_batch clients against
        // 2·max_batch in-flight slots leaves 8 waiting at peak.
        assert!(!r.queue_depth.is_empty());
        assert!(
            r.queue_depth.max_depth() >= 4,
            "depth {}",
            r.queue_depth.max_depth()
        );
        // The queue drains by the end.
        assert_eq!(r.queue_depth.last_depth(), Some(0));
        // The series is time-ordered by construction; mean is finite.
        let mean = r.queue_depth.mean_depth(r.makespan);
        assert!(mean > 0.0 && mean <= r.queue_depth.max_depth() as f64);
    }

    #[test]
    fn sweep_covers_every_config_in_order() {
        let model = shufflenet_v2();
        let configs: Vec<ServingConfig> = [1usize, 2, 3]
            .into_iter()
            .map(|i| small_closed(i, 2, 12))
            .collect();
        let reports = sweep(configs, &model, 2);
        assert_eq!(reports.len(), 3);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.instances, i + 1);
            assert_eq!(r.completed, 12);
        }
    }

    /// A zero-jitter warm supervisor whose restart timing is exactly
    /// predictable in tests: kill at `t` ⇒ back up at `t + 10 µs`.
    fn exact_supervisor(seed: u64) -> Supervisor {
        Supervisor {
            jitter: 0.0,
            ..Supervisor::new(seed)
        }
    }

    #[test]
    fn redundant_faults_do_not_move_the_accounting() {
        // The pinned edge-case contract: a kill of an already-dead
        // instance, a restart of a live instance and a stall of a dead
        // instance are semantic no-ops — every terminal accounting field
        // is unchanged. (The observability series still *note* the
        // boundary, so queue-depth sample counts may differ; that is the
        // documented exception.)
        let model = shufflenet_v2();
        let t = SimTime::from_ns;
        let base_plan = FaultPlan::new().kill(t(50_000), 0).restart(t(150_000), 0);
        let noisy_plan = base_plan
            .clone()
            .kill(t(80_000), 0) // kill of dead: no-op
            .stall(t(90_000), 0, t(5_000)) // stall of dead: no-op
            .restart(t(60_000), 1); // restart of live: no-op
        let run = |plan: &FaultPlan| {
            Fleet::new(&small_closed(2, 4, 24), &model)
                .with_faults(plan)
                .into_report()
        };
        let a = run(&base_plan);
        let b = run(&noisy_plan);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.dropped, b.dropped);
        assert_eq!(a.degraded, b.degraded);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.utilization, b.utilization);
        assert_eq!(a.energy_j, b.energy_j);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.availability, b.availability);
        // One real kill, one real recovery in both runs.
        assert_eq!(a.availability.incidents, 1);
        assert_eq!(a.availability.recoveries, 1);
    }

    #[test]
    fn supervisor_heals_a_killed_instance() {
        let model = shufflenet_v2();
        let plan = FaultPlan::new().kill(SimTime::from_ns(50_000), 0);
        let cfg = small_closed(2, 4, 37).with_supervisor(exact_supervisor(3));
        let r = Fleet::new(&cfg, &model).with_faults(&plan).into_report();
        // Nothing is lost: the aborted batch retried, the instance healed.
        assert_eq!(r.completed, 37);
        assert_eq!(r.dropped, 0);
        let a = &r.availability;
        assert_eq!(a.incidents, 1);
        assert_eq!(a.restarts_issued, 1);
        assert_eq!(a.recoveries, 1);
        assert_eq!(a.benched, 0);
        assert_eq!(a.active_instances, 2);
        // Warm SCONNA restart: MTTR is exactly the 10 µs backoff (the
        // reload itself is free — zero DKV reprogramming).
        assert_eq!(a.mean_mttr, SimTime::from_ns(10_000));
        assert!(a.retries > 0, "the aborted batch must re-admit");
        assert_eq!(a.max_attempts_seen, 2);
        assert!(a.downtime[0] >= a.mean_mttr);
        assert_eq!(a.downtime[1], SimTime::ZERO);
        // Without the supervisor the same kill is permanent: the fleet
        // limps on one instance and the report says so.
        let unsup = Fleet::new(&cfg.clone().without_supervisor(), &model)
            .with_faults(&plan)
            .into_report();
        assert_eq!(unsup.availability.recoveries, 0);
        assert_eq!(unsup.availability.active_instances, 1);
        assert!(unsup.makespan > r.makespan, "healing must help the tail");
    }

    #[test]
    fn sconna_warm_restart_recovers_faster_than_analog() {
        // The paper's reload advantage as availability: with identical
        // warm-restart supervision, SCONNA's measured MTTR is the bare
        // backoff while the analog MAM baseline pays DKV reprogramming
        // on top.
        let model = shufflenet_v2();
        let plan = FaultPlan::new().kill(SimTime::from_ns(50_000), 0);
        let sup = exact_supervisor(3);
        let run = |accel| {
            let cfg = ServingConfig::saturation(accel, 2, 4, 37).with_supervisor(sup);
            Fleet::new(&cfg, &model).with_faults(&plan).into_report()
        };
        let sconna = run(AcceleratorConfig::sconna());
        let mam = run(AcceleratorConfig::mam());
        assert_eq!(sconna.availability.recoveries, 1);
        assert_eq!(mam.availability.recoveries, 1);
        assert!(
            sconna.availability.mean_mttr < mam.availability.mean_mttr,
            "SCONNA MTTR {} must beat MAM {}",
            sconna.availability.mean_mttr,
            mam.availability.mean_mttr
        );
    }

    #[test]
    fn retry_ceiling_sheds_aborted_requests() {
        // max_attempts = 1 means no second chances: every request aborted
        // by the kill is shed as ShedRetryBudget instead of re-admitted.
        let model = shufflenet_v2();
        let plan = FaultPlan::new()
            .kill(SimTime::from_ns(50_000), 0)
            .restart(SimTime::from_ns(150_000), 0);
        let cfg = small_closed(2, 4, 37).with_retry(RetryPolicy::default().with_max_attempts(1));
        let r = Fleet::new(&cfg, &model).with_faults(&plan).into_report();
        assert!(r.shed.retry > 0, "the aborted batch must shed");
        assert!(r.shed.retry <= 4, "at most one batch was in flight");
        assert_eq!(r.dropped, r.shed.retry);
        assert_eq!(r.completed + r.dropped, 37);
        assert_eq!(r.availability.retries, 0);
        // Same chaos under an exhausted global budget sheds identically.
        let budget = small_closed(2, 4, 37).with_retry(RetryPolicy::default().with_retry_budget(0));
        let b = Fleet::new(&budget, &model).with_faults(&plan).into_report();
        assert_eq!(b.shed.retry, r.shed.retry);
        // The default policy re-admits everyone.
        let free = Fleet::new(&small_closed(2, 4, 37), &model)
            .with_faults(&plan)
            .into_report();
        assert_eq!(free.dropped, 0);
        assert!(free.availability.retries > 0);
    }

    #[test]
    fn crash_loop_benches_a_flapping_instance() {
        // Two kills inside the window bench instance 0 permanently; the
        // survivor drains the queue and the report re-estimates capacity.
        let model = shufflenet_v2();
        let sup = Supervisor {
            crash_loop_limit: 2,
            crash_loop_window: SimTime::from_ns(10_000_000),
            ..exact_supervisor(7)
        };
        let plan = FaultPlan::new()
            .kill(SimTime::from_ns(50_000), 0)
            .kill(SimTime::from_ns(150_000), 0);
        let cfg = small_closed(2, 4, 37).with_supervisor(sup);
        let r = Fleet::new(&cfg, &model).with_faults(&plan).into_report();
        assert_eq!(r.completed, 37, "the survivor serves everyone");
        let a = &r.availability;
        assert_eq!(a.incidents, 2);
        assert_eq!(a.restarts_issued, 1, "the second kill benches instead");
        assert_eq!(a.recoveries, 1);
        assert_eq!(a.benched, 1);
        assert_eq!(a.active_instances, 1);
        // Benched downtime accrues to the end of the run.
        assert!(a.downtime[0] > SimTime::from_ns(100_000));
        // A scripted restart is the operator override: it revives even a
        // benched instance.
        let revived = Fleet::new(&cfg, &model)
            .with_faults(&plan.clone().restart(SimTime::from_ns(250_000), 0))
            .into_report();
        assert_eq!(revived.availability.benched, 0);
        assert_eq!(revived.availability.active_instances, 2);
        assert_eq!(revived.availability.recoveries, 2);
    }

    #[test]
    fn supervisor_restart_boundaries_are_sampled() {
        // The observability satellite: queue depth and the goodput series
        // both take a sample at the supervised-restart boundary (60 µs =
        // kill at 50 µs + exactly 10 µs zero-jitter backoff), so healing
        // discontinuities are visible even when the depth did not move.
        let model = shufflenet_v2();
        let plan = FaultPlan::new().kill(SimTime::from_ns(50_000), 0);
        let window = SimTime::from_ns(20_000);
        let cfg = small_closed(2, 4, 37)
            .with_supervisor(exact_supervisor(3))
            .with_goodput_window(window);
        let r = Fleet::new(&cfg, &model).with_faults(&plan).into_report();
        let boundary = SimTime::from_ns(60_000);
        assert!(
            r.queue_depth.samples().iter().any(|&(t, _)| t == boundary),
            "queue depth must sample the restart boundary"
        );
        let g = r.goodput_series.as_ref().expect("series enabled");
        assert_eq!(g.window(), window);
        assert!(
            g.len() > (boundary.as_ps() / window.as_ps()) as usize,
            "goodput series must extend past the restart boundary"
        );
        assert_eq!(g.total(), r.completed + r.degraded);
        // Off by default: no series unless the config asks.
        let off = Fleet::new(&small_closed(2, 4, 37), &model).into_report();
        assert!(off.goodput_series.is_none());
    }

    #[test]
    fn chaos_sweep_is_worker_count_invariant() {
        let model = shufflenet_v2();
        let base = small_closed(2, 4, 24).with_supervisor(exact_supervisor(5));
        let process = FailureProcess::new(11, SimTime::from_ns(200_000));
        let mtbfs = [SimTime::from_ns(200_000), SimTime::from_ns(800_000)];
        let horizon = SimTime::from_ns(2_000_000);
        let baseline = chaos_sweep(&base, &model, &process, &mtbfs, horizon, 1);
        assert_eq!(baseline.len(), 2);
        for workers in [2usize, 8] {
            let run = chaos_sweep(&base, &model, &process, &mtbfs, horizon, workers);
            assert_eq!(
                format!("{run:?}"),
                format!("{baseline:?}"),
                "{workers} workers"
            );
        }
        // Every point conserves requests.
        for p in &baseline {
            assert_eq!(
                p.report.completed + p.report.dropped + p.report.degraded,
                24
            );
        }
        // The faster fault rate hurts at least as much.
        assert!(
            baseline[0].report.availability.incidents >= baseline[1].report.availability.incidents
        );
    }

    #[test]
    fn overload_sweep_is_worker_count_invariant() {
        let (net, samples) = tiny_workload();
        let engine = SconnaEngine::paper_default(3);
        let model = shufflenet_v2();
        let base = ServingConfig {
            queue_cap: Some(2),
            seed: 1,
            ..small_closed(1, 2, 24)
        };
        let capacity = base.estimated_capacity_fps(&model);
        let rates = [0.5 * capacity, 1.5 * capacity];
        let workload = FunctionalWorkload {
            net: &net,
            fallback: None,
            fallback_engine: None,
            samples: &samples,
            engine: &engine,
            workers: 1,
        };
        let baseline = overload_sweep(&base, &model, &workload, &rates, 1);
        assert_eq!(baseline.len(), 2);
        for workers in [2usize, 8] {
            let run = overload_sweep(&base, &model, &workload, &rates, workers);
            assert_eq!(
                format!("{run:?}"),
                format!("{baseline:?}"),
                "{workers} workers"
            );
        }
        // Past the knee the bounded queue sheds; below it nothing does.
        assert_eq!(baseline[0].report.serving.dropped, 0);
        assert!(baseline[1].report.serving.dropped > 0);
    }

    #[test]
    fn single_tenant_report_carries_one_default_row_matching_fleet_totals() {
        // The legacy path *is* a one-tenant roster: its report grows
        // exactly one TenantUsage row that restates the fleet totals,
        // with zero model swaps (every instance is resident from
        // bring-up).
        let model = shufflenet_v2();
        let r = simulate_serving(&small_closed(2, 4, 37), &model);
        assert_eq!(r.tenants.len(), 1);
        let t = &r.tenants[0];
        assert_eq!(t.name, "default");
        assert_eq!(t.model, r.model);
        assert_eq!(t.offered, r.offered);
        assert_eq!(t.completed, r.completed);
        assert_eq!(t.dropped, r.dropped);
        assert_eq!(t.degraded, r.degraded);
        assert_eq!(t.latency, r.latency);
        assert_eq!(t.batches, r.batches);
        assert_eq!(t.mean_batch_fill, r.mean_batch_fill);
        assert_eq!(t.served_fps, r.fps);
        assert_eq!(t.goodput_fps, r.goodput_fps);
        assert_eq!(t.model_swaps, 0);
        assert_eq!(t.swap_time, SimTime::ZERO);
    }

    #[test]
    fn explicit_one_tenant_roster_is_bit_identical_to_the_single_tenant_path() {
        // Spelling the default tenant out by hand must not move a bit:
        // same name, model, arrivals and budget → the same report.
        let model = shufflenet_v2();
        let base = small_closed(2, 4, 29);
        let implicit = simulate_serving(&base, &model);
        let spec = TenantSpec::new("default", 0, base.arrivals.clone(), base.requests);
        let explicit = Fleet::new_multi(&base.clone().with_tenants(vec![spec]), &[&model]);
        let explicit = explicit.into_report();
        assert_eq!(format!("{explicit:?}"), format!("{implicit:?}"));
    }

    #[test]
    fn multi_tenant_conservation_holds_per_tenant_at_every_step() {
        // Two co-located tenants on different models under pressure:
        // each tenant's offered == accounted at every step boundary, and
        // the per-tenant snapshot columns sum to the fleet totals.
        let shuffle = shufflenet_v2();
        let goog = googlenet();
        let cfg = ServingConfig {
            queue_cap: Some(2),
            ..small_closed(2, 2, 40)
        }
        .with_tenants(vec![
            TenantSpec::new("a", 0, ArrivalProcess::ClosedLoop { clients: 6 }, 24).with_weight(3.0),
            TenantSpec::new("b", 1, ArrivalProcess::ClosedLoop { clients: 4 }, 16),
        ]);
        let mut fleet = Fleet::new_multi(&cfg, &[&shuffle, &goog]);
        loop {
            let more = fleet.step();
            let snap = fleet.snapshot();
            assert_eq!(snap.accounted(), snap.offered);
            assert_eq!(snap.tenants.len(), 2);
            for ts in &snap.tenants {
                assert_eq!(ts.accounted(), ts.offered);
            }
            let sum = |f: fn(&TenantSnapshot) -> u64| snap.tenants.iter().map(f).sum::<u64>();
            assert_eq!(sum(|t| t.offered), snap.offered);
            assert_eq!(sum(|t| t.completed), snap.completed);
            assert_eq!(sum(|t| t.dropped), snap.dropped);
            assert_eq!(sum(|t| t.degraded), snap.degraded);
            assert_eq!(sum(|t| t.queued), snap.queued);
            assert_eq!(sum(|t| t.in_flight), snap.in_flight);
            if !more {
                break;
            }
        }
        let r = fleet.into_report();
        assert_eq!(r.tenants.len(), 2);
        assert_eq!(r.model, "ShuffleNet_V2+GoogleNet");
        assert_eq!(r.tenants.iter().map(|t| t.offered).sum::<u64>(), r.offered);
        assert_eq!(
            r.tenants.iter().map(|t| t.completed).sum::<u64>(),
            r.completed
        );
        assert_eq!(r.tenants.iter().map(|t| t.batches).sum::<u64>(), r.batches);
        assert_eq!(
            r.tenants[0].latency.count + r.tenants[1].latency.count,
            r.latency.count
        );
        // Both tenants ran on both instances at some point, so model
        // swaps happened and each cost the swapped-in model's swap time.
        let swaps: u64 = r.tenants.iter().map(|t| t.model_swaps).sum();
        assert!(swaps > 0, "co-located tenants must swap at least once");
        let accel = AcceleratorConfig::sconna();
        for (t, m) in r.tenants.iter().zip([&shuffle, &goog]) {
            let per_swap = crate::perf::model_swap_time(&accel, m);
            assert_eq!(t.swap_time.as_ps(), per_swap.as_ps() * t.model_swaps);
        }
        // Per-tenant energy splits the dynamic ledger: the sum stays
        // below the fleet total (which adds static power over makespan).
        let dyn_sum: f64 = r.tenants.iter().map(|t| t.energy_j).sum();
        assert!(dyn_sum > 0.0 && dyn_sum < r.energy_j);
    }

    #[test]
    fn weighted_fair_ties_go_to_the_lowest_tenant_index() {
        // Two weight-1 tenants with identical closed loops share one
        // instance one request at a time. Every second dispatch finds
        // their virtual clocks tied; the lowest index must win each tie,
        // so service strictly alternates, tenant 0 first.
        let model = shufflenet_v2();
        let cfg = small_closed(1, 1, 12).with_tenants(vec![
            TenantSpec::new("a", 0, ArrivalProcess::ClosedLoop { clients: 2 }, 6),
            TenantSpec::new("b", 0, ArrivalProcess::ClosedLoop { clients: 2 }, 6),
        ]);
        let mut fleet = Fleet::new_multi(&cfg, &[&model]);
        let (mut order, mut served) = (Vec::new(), [0u64; 2]);
        while fleet.step() {
            for (t, ts) in fleet.snapshot().tenants.iter().enumerate() {
                if ts.completed > served[t] {
                    order.push(t);
                    served[t] = ts.completed;
                }
            }
        }
        assert_eq!(order, [0, 1].repeat(6));
    }

    #[test]
    fn multi_tenant_functional_reports_per_tenant_accuracy() {
        let (net, samples) = tiny_workload();
        let engine = SconnaEngine::paper_default(5);
        let w = |workers| FunctionalWorkload {
            net: &net,
            fallback: None,
            fallback_engine: None,
            samples: &samples,
            engine: &engine,
            workers,
        };
        let (wa, wb) = (w(1), w(2));
        let shuffle = shufflenet_v2();
        let goog = googlenet();
        let cfg = small_closed(2, 2, 20).with_tenants(vec![
            TenantSpec::new("a", 0, ArrivalProcess::ClosedLoop { clients: 3 }, 12),
            TenantSpec::new("b", 1, ArrivalProcess::ClosedLoop { clients: 2 }, 8),
        ]);
        let r = Fleet::try_new(&cfg, &[&shuffle, &goog], &[&wa, &wb])
            .expect("valid two-tenant functional fleet")
            .into_functional_report();
        assert_eq!(r.tenant_accuracy.len(), 2);
        assert_eq!(
            r.tenant_accuracy.iter().map(|t| t.correct).sum::<u64>(),
            r.correct
        );
        for (ta, tu) in r.tenant_accuracy.iter().zip(&r.serving.tenants) {
            assert_eq!(ta.name, tu.name);
            let responses = tu.completed + tu.degraded;
            assert_eq!(
                ta.accuracy_under_load,
                if responses == 0 {
                    0.0
                } else {
                    ta.correct as f64 / responses as f64
                }
            );
        }
        // Predictions stay keyed per request id regardless of tenancy.
        for (id, &pred) in r.predictions.iter().enumerate() {
            if r.outcomes[id] == RequestOutcome::Served {
                let s = &samples[id % samples.len()];
                let offline =
                    sconna_tensor::layers::argmax(&net.forward_keyed(&s.image, &engine, id as u64));
                assert_eq!(pred, offline, "request {id}");
            }
        }
    }

    #[test]
    fn all_shed_run_reports_finite_zero_rates() {
        // Satellite pin: a run whose every request strands (fleet killed
        // at t=0, nothing ever completes) has makespan ZERO and zero
        // responses — every rate metric must come out a finite 0.0, not
        // NaN or infinity.
        let model = shufflenet_v2();
        let cfg = ServingConfig {
            arrivals: ArrivalProcess::Trace {
                times: vec![SimTime::from_ns(10); 8],
            },
            ..small_closed(1, 4, 8)
        };
        let plan = FaultPlan::new().kill(SimTime::ZERO, 0);
        let mut fleet = Fleet::new(&cfg, &model).with_faults(&plan);
        fleet.run_to_completion();
        let r = fleet.into_report();
        assert_eq!(r.completed, 0);
        assert_eq!(r.dropped, 8);
        assert_eq!(r.makespan, SimTime::ZERO);
        assert_eq!(r.fps, 0.0);
        assert_eq!(r.goodput_fps, 0.0);
        assert_eq!(r.drop_rate, 1.0);
        assert_eq!(r.energy_per_inference_j, 0.0);
        assert_eq!(r.avg_power_w, 0.0);
        assert_eq!(r.mean_batch_fill, 0.0);
        assert!(r.utilization.iter().all(|&u| u == 0.0));
        assert_eq!(r.latency.count, 0);
        assert_eq!(r.latency.p99, SimTime::ZERO);
        let t = &r.tenants[0];
        assert_eq!(t.drop_rate, 1.0);
        assert_eq!(t.served_fps, 0.0);
        assert_eq!(t.goodput_fps, 0.0);
        assert_eq!(t.mean_batch_fill, 0.0);
        assert_eq!(t.energy_per_inference_j, 0.0);
        assert!([r.fps, r.goodput_fps, t.served_fps, t.goodput_fps]
            .iter()
            .all(|v| v.is_finite()));
    }

    #[test]
    fn degenerate_configs_surface_as_descriptive_errors() {
        // Satellite pin: construction-time validation returns
        // ServingConfigError (with the legacy panic substrings) instead
        // of panicking deep inside the scheduler.
        let model = shufflenet_v2();
        let cases = [
            (
                ServingConfig {
                    instances: 0,
                    ..small_closed(1, 4, 8)
                },
                "need at least one instance",
            ),
            (
                ServingConfig {
                    max_batch: 0,
                    ..small_closed(1, 4, 8)
                },
                "max_batch must be positive",
            ),
            (
                ServingConfig {
                    queue_cap: Some(0),
                    ..small_closed(1, 4, 8)
                },
                "queue_cap must be positive",
            ),
            (
                ServingConfig {
                    arrivals: ArrivalProcess::Poisson { rate_fps: 0.0 },
                    ..small_closed(1, 4, 8)
                },
                "Poisson rate must be positive",
            ),
        ];
        for (cfg, want) in cases {
            let err = Fleet::try_new(&cfg, &[&model], &[])
                .err()
                .expect(want)
                .to_string();
            assert!(err.contains(want), "{err:?} should contain {want:?}");
        }
        // A tenant naming a model outside the slice is only checkable at
        // fleet construction, where the slice is known.
        let cfg = small_closed(1, 4, 8).with_tenants(vec![TenantSpec::new(
            "t",
            3,
            ArrivalProcess::ClosedLoop { clients: 1 },
            8,
        )]);
        let err = Fleet::try_new(&cfg, &[&model], &[])
            .err()
            .expect("out-of-range model index")
            .to_string();
        assert!(err.contains("names model 3 of a 1-model slice"), "{err:?}");
    }

    /// A functional workload over [`tiny_workload`] on the given engine.
    fn tiny_functional<'a>(
        net: &'a QuantizedNetwork,
        samples: &'a [Sample],
        engine: &'a SconnaEngine,
        workers: usize,
    ) -> FunctionalWorkload<'a> {
        FunctionalWorkload {
            net,
            fallback: None,
            fallback_engine: None,
            samples,
            engine,
            workers,
        }
    }

    #[test]
    fn try_new_multi_rejects_an_empty_model_list() {
        let err = Fleet::try_new(&small_closed(1, 4, 8), &[], &[]).err();
        assert_eq!(err, Some(ServingConfigError::NoModels));
    }

    #[test]
    fn try_new_multi_functional_rejects_a_workload_count_mismatch() {
        let (net, samples) = tiny_workload();
        let engine = SconnaEngine::paper_default(1);
        let w = tiny_functional(&net, &samples, &engine, 1);
        let model = shufflenet_v2();
        let err = Fleet::try_new(&small_closed(1, 4, 8), &[&model], &[&w, &w]);
        assert_eq!(
            err.err(),
            Some(ServingConfigError::WorkloadCountMismatch {
                models: 1,
                workloads: 2
            })
        );
    }

    #[test]
    fn try_new_functional_rejects_an_empty_sample_set() {
        let (net, _) = tiny_workload();
        let engine = SconnaEngine::paper_default(1);
        let w = tiny_functional(&net, &[], &engine, 1);
        let model = shufflenet_v2();
        let err = Fleet::try_new(&small_closed(1, 4, 8), &[&model], &[&w]).err();
        assert_eq!(err, Some(ServingConfigError::NoSamples { model: 0 }));
    }

    #[test]
    fn try_new_functional_rejects_zero_workers() {
        let (net, samples) = tiny_workload();
        let engine = SconnaEngine::paper_default(1);
        let w = tiny_functional(&net, &samples, &engine, 0);
        let model = shufflenet_v2();
        let err = Fleet::try_new(&small_closed(1, 4, 8), &[&model], &[&w]).err();
        assert_eq!(err, Some(ServingConfigError::NoWorkers { model: 0 }));
    }

    #[test]
    fn try_new_functional_rejects_degrade_without_a_fallback_network() {
        let (net, samples) = tiny_workload();
        let engine = SconnaEngine::paper_default(1);
        let w = tiny_functional(&net, &samples, &engine, 1);
        let model = shufflenet_v2();
        let cfg = ServingConfig {
            admission: AdmissionPolicy::Degrade { fallback_bits: 4 },
            queue_cap: Some(4),
            ..small_closed(1, 4, 8)
        };
        let err = Fleet::try_new(&cfg, &[&model], &[&w]).err();
        assert_eq!(err, Some(ServingConfigError::MissingFallback { model: 0 }));
    }

    #[test]
    fn try_new_rejects_a_bad_supervisor_without_panicking() {
        let model = shufflenet_v2();
        let cfg = small_closed(1, 4, 8).with_supervisor(Supervisor {
            jitter: 1.5,
            ..Supervisor::new(1)
        });
        let err = Fleet::try_new(&cfg, &[&model], &[]).err();
        assert_eq!(
            err,
            Some(ServingConfigError::Supervisor(
                "jitter must be in [0, 1), got 1.5".into()
            ))
        );
    }
}
