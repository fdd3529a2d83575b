//! Step-level scenario harness for the steppable [`Fleet`].
//!
//! Where `tests/overload.rs` checks terminal accounting, this harness
//! drives the serving state machine **one event at a time** and asserts
//! the fleet's invariants at *every* step boundary:
//!
//! - conservation: `offered == completed + dropped + degraded + queued +
//!   in_flight` ([`FleetSnapshot::accounted`]) — requests are never
//!   silently lost, faults or not;
//! - monotone simulated time and monotone terminal counters;
//! - the bounded queue respects `queue_cap × instances` under every
//!   non-[`AdmissionPolicy::Degrade`] policy (Degrade deliberately admits
//!   overflow onto the queue at the fallback tier);
//! - the per-cause shed breakdown sums to the drop total;
//! - snapshot self-consistency (per-instance in-flight counts sum to the
//!   fleet total, `health == Busy` iff a batch is in flight).
//!
//! It also pins the three run-to-completion wrappers against report
//! literals captured on the pre-refactor `serve.rs` (the monolithic
//! run-to-completion implementation), proving the `Fleet` restructuring
//! is bit-identical, and property-tests fault injection: arbitrary
//! kill / restart plans conserve requests at every step, replay
//! bit-identically, and an empty [`FaultPlan`] is indistinguishable from
//! no plan at all.

use proptest::collection::vec;
use proptest::prelude::*;
use sconna::accel::perf::model_reload_time;
use sconna::accel::serve::{
    overload_sweep, simulate_serving, simulate_serving_functional, AdmissionPolicy, ArrivalProcess,
    FailureProcess, FaultPlan, Fleet, FleetSnapshot, FunctionalWorkload, InstanceHealth,
    RetryPolicy, ServingConfig, Supervisor, TenantScheduler, TenantSpec,
};
use sconna::accel::{AcceleratorConfig, SconnaEngine};
use sconna::sim::time::SimTime;
use sconna::tensor::dataset::Sample;
use sconna::tensor::layers::{MaxPool2d, QConv2d, QFc};
use sconna::tensor::models::{googlenet, shufflenet_v2};
use sconna::tensor::network::{QLayer, QuantizedNetwork};
use sconna::tensor::quant::{ActivationQuant, Requant, WeightQuant};
use sconna::tensor::Tensor;

/// The hand-built quantized CNN + labelled request population the
/// pre-refactor literals were captured with (fixed weights — any change
/// here invalidates the pinned accuracy numbers below).
fn pin_workload() -> (QuantizedNetwork, Vec<Sample>) {
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

/// Asserts every step-boundary invariant between two consecutive
/// snapshots of the same fleet.
fn check_step(prev: &FleetSnapshot, snap: &FleetSnapshot, cfg: &ServingConfig) {
    assert!(
        snap.now >= prev.now,
        "sim time went backwards: {:?} -> {:?}",
        prev.now,
        snap.now
    );
    assert!(snap.events_processed >= prev.events_processed);
    assert_eq!(
        snap.accounted(),
        snap.offered,
        "conservation violated at {:?}: {snap:?}",
        snap.now
    );
    assert!(snap.offered >= prev.offered, "offered went backwards");
    assert!(snap.completed >= prev.completed, "completed went backwards");
    assert!(snap.dropped >= prev.dropped, "dropped went backwards");
    assert!(snap.degraded >= prev.degraded, "degraded went backwards");
    assert!(snap.batches >= prev.batches, "batches went backwards");
    // Degrade admits overflow onto the queue at the fallback tier, so the
    // bound applies to the other policies only. Each tenant queue has a
    // bound of its own (the tenant's cap, else the config's); a
    // single-tenant run's one queue is the whole fleet's.
    if !matches!(cfg.admission, AdmissionPolicy::Degrade { .. }) {
        for (t, ts) in snap.tenants.iter().enumerate() {
            let cap = cfg.tenants.get(t).and_then(|spec| spec.queue_cap);
            if let Some(cap) = cap.or(cfg.queue_cap) {
                let bound = (cap * cfg.instances) as u64;
                assert!(
                    ts.queued <= bound,
                    "tenant {t} queued {} exceeds bound {bound} at {:?}",
                    ts.queued,
                    snap.now
                );
            }
        }
    }
    assert_eq!(
        snap.shed.newest
            + snap.shed.oldest
            + snap.shed.deadline
            + snap.shed.stranded
            + snap.shed.retry,
        snap.dropped,
        "shed breakdown does not sum to the drop total"
    );
    let per_instance: u64 = snap.instances.iter().map(|i| i.in_flight as u64).sum();
    assert_eq!(per_instance, snap.in_flight, "per-instance in-flight sum");
    // Per-tenant conservation mirrors the fleet-wide invariant (a
    // single-tenant run carries exactly one row), and every tenant
    // column sums back to the fleet total — no request ever switches
    // owners or goes uncounted.
    assert!(!snap.tenants.is_empty(), "every fleet has a tenant roster");
    for ts in &snap.tenants {
        assert_eq!(
            ts.accounted(),
            ts.offered,
            "per-tenant conservation violated at {:?}: {ts:?}",
            snap.now
        );
    }
    let tsum = |f: fn(&sconna::accel::serve::TenantSnapshot) -> u64| {
        snap.tenants.iter().map(f).sum::<u64>()
    };
    assert_eq!(tsum(|t| t.offered), snap.offered, "tenant offered sum");
    assert_eq!(
        tsum(|t| t.completed),
        snap.completed,
        "tenant completed sum"
    );
    assert_eq!(tsum(|t| t.dropped), snap.dropped, "tenant dropped sum");
    assert_eq!(tsum(|t| t.degraded), snap.degraded, "tenant degraded sum");
    assert_eq!(tsum(|t| t.queued), snap.queued, "tenant queued sum");
    assert_eq!(
        tsum(|t| t.in_flight),
        snap.in_flight,
        "tenant in-flight sum"
    );
    assert_eq!(snap.instances.len(), cfg.instances);
    for inst in &snap.instances {
        assert!(inst.in_flight <= cfg.max_batch, "batch over the limit");
        // A draining instance (autoscale scale-down) is the one other
        // health that carries an in-flight batch.
        assert_eq!(
            inst.in_flight > 0,
            matches!(inst.health, InstanceHealth::Busy | InstanceHealth::Draining),
            "in-flight/health mismatch: {inst:?}"
        );
        if inst.degraded_batch {
            assert!(inst.in_flight > 0, "degraded flag on an empty batch");
        }
    }
}

/// Drives `fleet` to completion one event at a time, checking every
/// step-boundary invariant, then the terminal state. Returns the final
/// snapshot.
fn drive_with_invariants(fleet: &mut Fleet<'_>, cfg: &ServingConfig) -> FleetSnapshot {
    let mut prev = fleet.snapshot();
    check_step(&prev, &prev, cfg);
    while fleet.step() {
        let snap = fleet.snapshot();
        assert_eq!(snap.events_processed, prev.events_processed + 1);
        assert_eq!(fleet.now(), snap.now);
        check_step(&prev, &snap, cfg);
        prev = snap;
    }
    // The settling step (stranded drain) pops no event but may close
    // terminal accounting.
    let fin = fleet.snapshot();
    check_step(&prev, &fin, cfg);
    assert!(fin.is_complete && fleet.is_complete());
    assert!(fleet.next_event_time().is_none());
    assert!(!fleet.step(), "step after settling must be a no-op");
    assert_eq!(fin.queued, 0);
    assert_eq!(fin.in_flight, 0);
    assert_eq!(fin.offered, cfg.requests as u64);
    assert_eq!(fin.completed + fin.dropped + fin.degraded, fin.offered);
    fin
}

/// A manual step-by-step drive and a `step_until` chunked drive both
/// produce reports bit-identical to the run-to-completion wrapper.
#[test]
fn manual_drives_are_bit_identical_to_the_wrapper() {
    let model = googlenet();
    let base = ServingConfig::saturation(AcceleratorConfig::sconna(), 2, 8, 48);
    let capacity = base.estimated_capacity_fps(&model);
    let cfg = base
        .with_poisson(2.0 * capacity)
        .with_queue_cap(2)
        .with_seed(17);
    let reference = format!("{:?}", simulate_serving(&cfg, &model));

    // Step-by-step, with invariants checked at every boundary.
    let mut stepped = Fleet::new(&cfg, &model);
    drive_with_invariants(&mut stepped, &cfg);
    assert_eq!(format!("{:?}", stepped.into_report()), reference);

    // Chunked: advance the horizon 50 µs at a time.
    let mut chunked = Fleet::new(&cfg, &model);
    let chunk = SimTime::from_ns(50_000);
    let mut horizon = chunk;
    while !chunked.is_complete() {
        chunked.step_until(horizon);
        assert!(
            chunked.now() <= horizon,
            "step_until processed an event past its horizon"
        );
        horizon += chunk;
    }
    assert_eq!(format!("{:?}", chunked.into_report()), reference);
}

/// Pre-refactor literal pin: closed-loop saturation of a 2×8 GoogleNet
/// fleet, captured on the monolithic `serve.rs` immediately before the
/// `Fleet` restructuring. Every figure must survive bit-identically.
#[test]
fn pinned_closed_loop_googlenet_report() {
    let model = googlenet();
    let sat = ServingConfig::saturation(AcceleratorConfig::sconna(), 2, 8, 64);
    let a = simulate_serving(&sat, &model);
    assert_eq!(a.offered, 64);
    assert_eq!(a.completed, 64);
    assert_eq!(a.dropped, 0);
    assert_eq!(a.degraded, 0);
    assert_eq!(a.batches, 8);
    assert_eq!(format!("{:?}", a.mean_batch_fill), "8.0");
    assert_eq!(a.makespan.as_ps(), 2_818_799_100);
    assert_eq!(format!("{:?}", a.fps), "22704.704283465962");
    assert_eq!(a.latency.p50.as_ps(), 1_409_399_550);
    assert_eq!(a.latency.p99.as_ps(), 1_409_399_550);
    assert_eq!(a.latency.mean.as_ps(), 1_233_224_606);
    assert_eq!(format!("{:?}", a.utilization), "[1.0, 1.0]");
    assert_eq!(format!("{:?}", a.energy_j), "1.8583617426408159");
    assert_eq!(
        format!("{:?}", a.energy_per_inference_j),
        "0.029036902228762748"
    );
    // The closed-form capacity estimate the overload configs key off.
    assert_eq!(
        format!("{:?}", sat.estimated_capacity_fps(&model)),
        "22704.704283465962"
    );
}

/// Pre-refactor literal pin: Poisson overload at 2× capacity into a
/// bounded DropNewest queue.
#[test]
fn pinned_poisson_overload_googlenet_report() {
    let model = googlenet();
    let base = ServingConfig::saturation(AcceleratorConfig::sconna(), 2, 8, 48);
    let capacity = base.estimated_capacity_fps(&model);
    let cfg = base
        .with_poisson(2.0 * capacity)
        .with_queue_cap(2)
        .with_seed(17);
    let b = simulate_serving(&cfg, &model);
    assert_eq!(b.offered, 48);
    assert_eq!(b.completed, 27);
    assert_eq!(b.dropped, 21);
    assert_eq!(b.shed.newest, 21);
    assert_eq!(b.shed.oldest, 0);
    assert_eq!(b.shed.deadline, 0);
    assert_eq!(b.shed.degraded, 0);
    assert_eq!(b.shed.stranded, 0);
    assert_eq!(format!("{:?}", b.drop_rate), "0.4375");
    assert_eq!(b.latency.p50.as_ps(), 454_812_001);
    assert_eq!(b.latency.p99.as_ps(), 601_622_806);
    assert_eq!(format!("{:?}", b.fps), "18816.003246588465");
    assert_eq!(format!("{:?}", b.goodput_fps), "18816.003246588465");
    assert_eq!(b.queue_depth.max_depth(), 4);
}

/// Pre-refactor literal pin: the functional wrapper under Degrade
/// admission and the two-point overload sweep — FPS, tail latency, shed
/// counts and accuracy all bit-identical across the restructuring.
#[test]
fn pinned_functional_degrade_and_overload_curve() {
    let model = googlenet();
    let (net, samples) = pin_workload();
    let fallback = net.degraded(4);
    let engine = SconnaEngine::paper_default(5);
    let sat = ServingConfig::saturation(AcceleratorConfig::sconna(), 2, 4, 48);
    let capacity = sat.estimated_capacity_fps(&model);
    assert_eq!(format!("{capacity:?}"), "22547.15166751082");

    let c_cfg = sat
        .clone()
        .with_queue_cap(1)
        .with_admission(AdmissionPolicy::Degrade { fallback_bits: 4 })
        .with_poisson(2.5 * capacity)
        .with_seed(7);
    let workload = FunctionalWorkload {
        net: &net,
        fallback: Some(&fallback),
        fallback_engine: None,
        samples: &samples,
        engine: &engine,
        workers: 1,
    };
    let c = simulate_serving_functional(&c_cfg, &model, &workload);
    assert_eq!(c.serving.offered, 48);
    assert_eq!(c.serving.completed, 10);
    assert_eq!(c.serving.degraded, 38);
    assert_eq!(c.serving.dropped, 0);
    assert_eq!(c.serving.shed.degraded, 38);
    assert_eq!(c.correct, 16);
    assert_eq!(format!("{:?}", c.accuracy_under_load), "0.3333333333333333");
    assert_eq!(format!("{:?}", c.accuracy_offered), "0.3333333333333333");
    assert_eq!(c.serving.latency.p50.as_ps(), 230_884_309);
    assert_eq!(c.serving.latency.p99.as_ps(), 317_819_567);
    assert_eq!(format!("{:?}", c.serving.fps), "7647.2106674440965");
    assert_eq!(format!("{:?}", c.serving.goodput_fps), "36706.61120373166");

    let d_base = sat.with_queue_cap(4).with_seed(23);
    let d_workload = FunctionalWorkload {
        net: &net,
        fallback: None,
        fallback_engine: None,
        samples: &samples,
        engine: &engine,
        workers: 1,
    };
    let rates = [0.6 * capacity, 1.8 * capacity];
    let curve = overload_sweep(&d_base, &model, &d_workload, &rates, 2);
    assert_eq!(curve.len(), 2);
    assert_eq!(format!("{:?}", curve[0].offered_fps), "13528.291000506493");
    assert_eq!(curve[0].report.serving.completed, 48);
    assert_eq!(curve[0].report.serving.dropped, 0);
    assert_eq!(curve[0].report.correct, 16);
    assert_eq!(
        format!("{:?}", curve[0].report.accuracy_under_load),
        "0.3333333333333333"
    );
    assert_eq!(curve[0].report.serving.latency.p50.as_ps(), 328_025_925);
    assert_eq!(curve[0].report.serving.latency.p99.as_ps(), 451_186_983);
    assert_eq!(
        format!("{:?}", curve[0].report.serving.goodput_fps),
        "11858.00270032908"
    );
    assert_eq!(format!("{:?}", curve[1].offered_fps), "40584.87300151948");
    assert_eq!(curve[1].report.serving.completed, 36);
    assert_eq!(curve[1].report.serving.dropped, 12);
    assert_eq!(curve[1].report.serving.shed.newest, 12);
    assert_eq!(curve[1].report.correct, 13);
    assert_eq!(
        format!("{:?}", curve[1].report.accuracy_under_load),
        "0.3611111111111111"
    );
    assert_eq!(curve[1].report.serving.latency.p50.as_ps(), 567_429_009);
    assert_eq!(curve[1].report.serving.latency.p99.as_ps(), 698_196_150);
    assert_eq!(
        format!("{:?}", curve[1].report.serving.goodput_fps),
        "19315.15091372194"
    );
}

/// The headline chaos scenario: a seeded kill / restart plan on a
/// functional fleet under Poisson overload. Conservation holds at every
/// step, the faults demonstrably land (both instances go down at some
/// boundary), and the full report — predictions included — is
/// bit-identical across 1 / 2 / 8 execution workers and across replays.
#[test]
fn kill_restart_chaos_is_deterministic_across_workers() {
    let (net, samples) = pin_workload();
    let engine = SconnaEngine::paper_default(5);
    let model = shufflenet_v2();
    let base = ServingConfig::saturation(AcceleratorConfig::sconna(), 2, 4, 32);
    let capacity = base.estimated_capacity_fps(&model);
    let cfg = base
        .with_poisson(1.5 * capacity)
        .with_queue_cap(4)
        .with_seed(29);
    // Fault times as fractions of the expected arrival window.
    let window_ps = (32.0 / (1.5 * capacity) * 1e12) as u64;
    let t = |num: u64, den: u64| SimTime::from_ps(window_ps * num / den);
    let plan = FaultPlan::new()
        .kill(t(1, 4), 0)
        .restart(t(1, 2), 0)
        .kill(t(5, 8), 1)
        .restart(t(3, 4), 1);

    let mut reports = Vec::new();
    for workers in [1usize, 2, 8] {
        let workload = FunctionalWorkload {
            net: &net,
            fallback: None,
            fallback_engine: None,
            samples: &samples,
            engine: &engine,
            workers,
        };
        let mut fleet = Fleet::new_functional(&cfg, &model, &workload).with_faults(&plan);
        let mut prev = fleet.snapshot();
        let mut saw_down = [false; 2];
        while fleet.step() {
            let snap = fleet.snapshot();
            check_step(&prev, &snap, &cfg);
            for (i, inst) in snap.instances.iter().enumerate() {
                saw_down[i] |=
                    inst.health == InstanceHealth::Down || inst.health == InstanceHealth::Reloading;
            }
            prev = snap;
        }
        let fin = fleet.snapshot();
        check_step(&prev, &fin, &cfg);
        assert_eq!(fin.offered, 32);
        assert!(saw_down[0] && saw_down[1], "both kills must land mid-run");
        reports.push(format!("{:?}", fleet.into_functional_report()));
    }
    assert_eq!(reports[0], reports[1], "worker count 2 changed the report");
    assert_eq!(reports[0], reports[2], "worker count 8 changed the report");

    // Replay of the same seeded chaos run is bit-identical.
    let workload = FunctionalWorkload {
        net: &net,
        fallback: None,
        fallback_engine: None,
        samples: &samples,
        engine: &engine,
        workers: 2,
    };
    let replay = Fleet::new_functional(&cfg, &model, &workload)
        .with_faults(&plan)
        .into_functional_report();
    assert_eq!(format!("{replay:?}"), reports[0]);
}

/// A restarted instance pays exactly the DKV/LUT weight-reload latency:
/// it reports `Reloading` from the restart instant until
/// `restart + model_reload_time`, then rejoins the fleet and the run
/// still serves every request.
#[test]
fn restart_pays_the_model_reload_latency() {
    let model = shufflenet_v2();
    let accel = AcceleratorConfig::sconna();
    let reload = model_reload_time(&accel, &model);
    assert!(reload > SimTime::ZERO, "reload latency must be nonzero");

    let cfg = ServingConfig::saturation(accel, 1, 2, 8);
    let capacity = cfg.estimated_capacity_fps(&model);
    let batch_ps = (2.0 / capacity * 1e12) as u64;
    let t_kill = SimTime::from_ps(batch_ps / 2); // mid first batch
    let t_restart = SimTime::from_ps(batch_ps * 3);
    let plan = FaultPlan::new().kill(t_kill, 0).restart(t_restart, 0);

    let mut fleet = Fleet::new(&cfg, &model).with_faults(&plan);
    let mut reload_started = None;
    let mut reload_ended = None;
    let mut prev = fleet.snapshot().instances[0].health;
    while fleet.step() {
        let health = fleet.snapshot().instances[0].health;
        if prev != InstanceHealth::Reloading && health == InstanceHealth::Reloading {
            reload_started = Some(fleet.now());
        }
        if prev == InstanceHealth::Reloading
            && health != InstanceHealth::Reloading
            && reload_ended.is_none()
        {
            reload_ended = Some(fleet.now());
        }
        prev = health;
    }
    assert_eq!(reload_started, Some(t_restart));
    assert_eq!(reload_ended, Some(t_restart + reload));

    let report = fleet.into_report();
    assert_eq!(report.completed, 8);
    assert_eq!(report.dropped, 0);
}

/// Killing every instance with no restart scheduled strands the queued
/// work — accounted as `ShedStranded` drops, never silently lost, with
/// conservation intact at every step of the collapse.
#[test]
fn killing_every_instance_strands_queued_work_without_losing_it() {
    let model = shufflenet_v2();
    let cfg = ServingConfig::saturation(AcceleratorConfig::sconna(), 2, 4, 16);
    let capacity = cfg.estimated_capacity_fps(&model);
    let t_kill = SimTime::from_ps((4.0 / capacity * 1e12 / 2.0) as u64);
    let plan = FaultPlan::new().kill(t_kill, 0).kill(t_kill, 1);

    let mut fleet = Fleet::new(&cfg, &model).with_faults(&plan);
    let fin = drive_with_invariants(&mut fleet, &cfg);
    assert!(fin.shed.stranded > 0, "the collapse must strand requests");
    assert_eq!(fin.dropped, fin.shed.stranded);
    assert_eq!(fin.completed + fin.dropped, 16);

    let report = fleet.into_report();
    assert_eq!(report.offered, 16);
    assert_eq!(report.shed.stranded, fin.shed.stranded);
}

/// The full self-healing stack at once — stochastic failures, a warm
/// supervisor and a bounded retry policy — on a
/// functional fleet: conservation at every step, and the whole report
/// (predictions included) bit-identical across 1 / 2 / 8 workers.
#[test]
fn supervised_stochastic_chaos_is_deterministic_across_workers() {
    let (net, samples) = pin_workload();
    let engine = SconnaEngine::paper_default(5);
    let model = shufflenet_v2();
    let base = ServingConfig::saturation(AcceleratorConfig::sconna(), 2, 4, 32);
    let capacity = base.estimated_capacity_fps(&model);
    let horizon = SimTime::from_ps((32.0 / capacity * 2.0 * 1e12) as u64);
    let cfg = base
        .with_supervisor(Supervisor::new(13))
        .with_retry(
            RetryPolicy::default()
                .with_max_attempts(3)
                .with_retry_budget(24),
        )
        .with_goodput_window(SimTime::from_ns(50_000));
    let plan =
        FailureProcess::new(41, SimTime::from_ps(horizon.as_ps() / 6)).materialize(2, horizon);
    assert!(!plan.is_empty(), "the failure stream must produce chaos");

    let mut reports = Vec::new();
    for workers in [1usize, 2, 8] {
        let workload = FunctionalWorkload {
            net: &net,
            fallback: None,
            fallback_engine: None,
            samples: &samples,
            engine: &engine,
            workers,
        };
        let mut fleet = Fleet::new_functional(&cfg, &model, &workload).with_faults(&plan);
        let fin = drive_with_invariants(&mut fleet, &cfg);
        assert_eq!(fin.offered, 32);
        let r = fleet.into_functional_report();
        // Attempts account exactly the dispatch history: one per serve
        // or in-flight shed, plus one per recorded retry.
        assert_eq!(r.attempts.len(), 32);
        assert!(r
            .attempts
            .iter()
            .all(|&a| a <= r.serving.availability.max_attempts_seen));
        assert!(r.serving.availability.retries <= 24);
        reports.push(format!("{r:?}"));
    }
    assert_eq!(reports[0], reports[1], "worker count 2 changed the report");
    assert_eq!(reports[0], reports[2], "worker count 8 changed the report");
}

proptest! {
    /// Stochastic failures under supervision and a bounded retry policy:
    /// conservation holds at every step, the global retry budget and the
    /// per-request attempt ceiling are never exceeded, and the seeded
    /// run replays bit-identically.
    #[test]
    fn prop_supervised_chaos_conserves_and_respects_the_retry_budget(
        fseed in 0u64..=400,
        sseed in 0u64..=400,
        mtbf_frac in 2u64..=12,
        budget in 0u64..=8,
        max_attempts in 1u32..=4,
    ) {
        let model = shufflenet_v2();
        let base = ServingConfig::saturation(AcceleratorConfig::sconna(), 2, 2, 14);
        let capacity = base.estimated_capacity_fps(&model);
        let run_ps = (14.0 / capacity * 1e12) as u64;
        let mtbf = SimTime::from_ps((run_ps * mtbf_frac / 8).max(1));
        let cfg = base
            .with_supervisor(Supervisor::new(sseed))
            .with_retry(
                RetryPolicy::default()
                    .with_max_attempts(max_attempts)
                    .with_retry_budget(budget),
            );
        let plan = FailureProcess::new(fseed, mtbf)
            .materialize(2, SimTime::from_ps(run_ps * 2));
        let mut fleet = Fleet::new(&cfg, &model).with_faults(&plan);
        let fin = drive_with_invariants(&mut fleet, &cfg);
        prop_assert_eq!(fin.offered, 14);
        let report = fleet.into_report();
        let a = &report.availability;
        prop_assert!(a.retries <= budget, "budget {} exceeded: {}", budget, a.retries);
        prop_assert!(
            a.max_attempts_seen <= max_attempts,
            "attempt ceiling {} exceeded: {}", max_attempts, a.max_attempts_seen
        );
        // The process only kills: every recovery is supervised.
        prop_assert!(a.recoveries <= a.restarts_issued, "spurious recovery");
        let replay = format!(
            "{:?}",
            Fleet::new(&cfg, &model).with_faults(&plan).into_report()
        );
        prop_assert_eq!(format!("{report:?}"), replay);
    }

    /// Crash-loop detection converges: a kill storm against one instance
    /// benches it after exactly `limit` live kills (restarts stop), and
    /// the survivor still serves the whole run.
    #[test]
    fn prop_crash_loop_detection_converges(
        seed in 0u64..=300,
        limit in 1u32..=3,
    ) {
        let model = shufflenet_v2();
        let sup = Supervisor {
            jitter: 0.0,
            crash_loop_limit: limit,
            crash_loop_window: SimTime::from_ns(100_000_000),
            ..Supervisor::new(seed)
        };
        let cfg = ServingConfig::saturation(AcceleratorConfig::sconna(), 2, 2, 14)
            .with_supervisor(sup);
        // Kills every 30 µs: the zero-jitter warm restart takes 10 µs, so
        // every kill up to the benching one lands on a live instance.
        let mut plan = FaultPlan::new();
        for k in 0..8u64 {
            plan = plan.kill(SimTime::from_ns(20_000 + 30_000 * k), 0);
        }
        let mut fleet = Fleet::new(&cfg, &model).with_faults(&plan);
        let fin = drive_with_invariants(&mut fleet, &cfg);
        prop_assert_eq!(fin.completed + fin.dropped + fin.degraded, 14);
        let a = fleet.into_report().availability;
        prop_assert_eq!(a.benched, 1, "the flapping instance must be benched");
        prop_assert_eq!(a.restarts_issued, (limit - 1) as u64);
        prop_assert_eq!(a.active_instances, 1);
    }

    /// An empty fault plan is bit-identical to installing no plan at
    /// all, for every admission policy, queue bound, load and seed.
    #[test]
    fn prop_empty_fault_plan_is_bit_identical_to_none(
        policy_idx in 0usize..=3,
        cap in 0usize..=3, // 0 = unbounded
        load_x10 in 3u64..=30,
        seed in 0u64..=1000,
    ) {
        let model = shufflenet_v2();
        let slo = SimTime::from_ns(50_000 * (1 + seed % 8));
        let admission = [
            AdmissionPolicy::DropNewest,
            AdmissionPolicy::DropOldest,
            AdmissionPolicy::Deadline { slo },
            AdmissionPolicy::Degrade { fallback_bits: 4 },
        ][policy_idx];
        let base = ServingConfig::saturation(AcceleratorConfig::sconna(), 2, 3, 20);
        let capacity = base.estimated_capacity_fps(&model);
        let mut cfg = base
            .with_admission(admission)
            .with_poisson(capacity * load_x10 as f64 / 10.0)
            .with_seed(seed);
        if cap > 0 {
            cfg = cfg.with_queue_cap(cap);
        }
        let baseline = simulate_serving(&cfg, &model);
        let with_plan = Fleet::new(&cfg, &model)
            .with_faults(&FaultPlan::new())
            .into_report();
        prop_assert_eq!(format!("{baseline:?}"), format!("{with_plan:?}"));
    }

    /// Fault events sharing the same timestamps commute: any insertion
    /// order of a plan's events produces the same normalized schedule and
    /// a bit-identical report.
    #[test]
    fn prop_coincident_fault_permutations_produce_identical_reports(
        events in vec((0u8..2, 0usize..2, 0usize..2), 2..6),
        seed in 0u64..=500,
    ) {
        let model = shufflenet_v2();
        let base = ServingConfig::saturation(AcceleratorConfig::sconna(), 2, 2, 16);
        let capacity = base.estimated_capacity_fps(&model);
        let cfg = base
            .with_poisson(1.5 * capacity)
            .with_queue_cap(2)
            .with_seed(seed);
        let window_ps = (16.0 / (1.5 * capacity) * 1e12) as u64;
        // Two shared instants force timestamp collisions between events.
        let instants = [SimTime::from_ps(window_ps / 4), SimTime::from_ps(window_ps / 2)];
        let build = |order: &[(u8, usize, usize)]| {
            order.iter().fold(FaultPlan::new(), |plan, &(kind, inst, slot)| {
                let at = instants[slot];
                match kind {
                    0 => plan.kill(at, inst),
                    _ => plan.restart(at, inst),
                }
            })
        };
        let forward = build(&events);
        let reversed: Vec<_> = events.iter().rev().copied().collect();
        let backward = build(&reversed);
        let a = Fleet::new(&cfg, &model).with_faults(&forward).into_report();
        let b = Fleet::new(&cfg, &model).with_faults(&backward).into_report();
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// Arbitrary kill / restart plans — closed-loop or Poisson —
    /// uphold every step invariant (conservation above all) and replay
    /// bit-identically.
    #[test]
    fn prop_arbitrary_fault_plans_conserve_and_replay_identically(
        events in vec((0u8..2, 0usize..3, 1u64..400), 1..7),
        arrival_kind in 0u8..2,
        seed in 0u64..=500,
    ) {
        let model = shufflenet_v2();
        let base = ServingConfig::saturation(AcceleratorConfig::sconna(), 3, 2, 18);
        let capacity = base.estimated_capacity_fps(&model);
        let window_ps = (18.0 / capacity * 1e12) as u64;
        let cfg = match arrival_kind {
            0 => base.with_seed(seed),
            _ => base
                .with_poisson(1.4 * capacity)
                .with_queue_cap(2)
                .with_seed(seed),
        };
        let mut plan = FaultPlan::new();
        for &(kind, inst, at_frac) in &events {
            let at = SimTime::from_ps(window_ps * at_frac / 400);
            plan = match kind {
                0 => plan.kill(at, inst),
                _ => plan.restart(at, inst),
            };
        }
        let mut fleet = Fleet::new(&cfg, &model).with_faults(&plan);
        let fin = drive_with_invariants(&mut fleet, &cfg);
        prop_assert_eq!(fin.offered, 18);
        let first = format!("{:?}", fleet.into_report());
        let replay = format!(
            "{:?}",
            Fleet::new(&cfg, &model).with_faults(&plan).into_report()
        );
        prop_assert_eq!(first, replay);
    }

    /// Multi-tenant rosters uphold the per-tenant conservation invariant
    /// at every step under every scheduler, shedding admission policy,
    /// arbitrary weight mixes and request splits — and the final
    /// per-tenant report columns (per-cause sheds and worst latency
    /// included) sum, or max, to the fleet totals.
    #[test]
    fn prop_multi_tenant_split_conserves_per_tenant(
        split in 1usize..=19,
        weight_a in 1u32..=8,
        sched_idx in 0usize..=1,
        policy_idx in 0usize..=2,
        clients_a in 1usize..=4,
        clients_b in 1usize..=4,
        cap in 0usize..=3, // 0 = unbounded
        seed in 0u64..=500,
    ) {
        let model = shufflenet_v2();
        let requests = 20usize;
        let scheduler = [
            TenantScheduler::WeightedFair,
            TenantScheduler::SharedFifo,
        ][sched_idx];
        // Short SLOs: below the 100 us batching window, so waiting for a
        // flush alone can blow them.
        let admission = [
            AdmissionPolicy::DropNewest,
            AdmissionPolicy::DropOldest,
            AdmissionPolicy::Deadline { slo: SimTime::from_ns(25_000 * (1 + seed % 4)) },
        ][policy_idx];
        let mut cfg = ServingConfig::saturation(AcceleratorConfig::sconna(), 2, 2, requests)
            .with_admission(admission)
            .with_seed(seed)
            .with_tenants(vec![
                TenantSpec::new("a", 0, ArrivalProcess::ClosedLoop { clients: clients_a }, split)
                    .with_weight(weight_a as f64),
                TenantSpec::new(
                    "b",
                    0,
                    ArrivalProcess::ClosedLoop { clients: clients_b },
                    requests - split,
                ),
            ])
            .with_tenant_scheduler(scheduler);
        if cap > 0 {
            cfg = cfg.with_queue_cap(cap);
        }
        let mut fleet = Fleet::new_multi(&cfg, &[&model]);
        let fin = drive_with_invariants(&mut fleet, &cfg);
        prop_assert_eq!(fin.offered, requests as u64);
        prop_assert_eq!(fin.tenants.len(), 2);
        prop_assert_eq!(fin.tenants[0].offered, split as u64);
        let r = fleet.into_report();
        prop_assert_eq!(r.tenants.iter().map(|t| t.offered).sum::<u64>(), r.offered);
        prop_assert_eq!(r.tenants.iter().map(|t| t.completed).sum::<u64>(), r.completed);
        prop_assert_eq!(r.tenants.iter().map(|t| t.dropped).sum::<u64>(), r.dropped);
        prop_assert_eq!(r.tenants.iter().map(|t| t.degraded).sum::<u64>(), r.degraded);
        prop_assert_eq!(r.tenants.iter().map(|t| t.batches).sum::<u64>(), r.batches);
        prop_assert_eq!(
            r.tenants.iter().map(|t| t.latency.count).sum::<usize>(),
            r.latency.count
        );
        prop_assert_eq!(
            r.tenants.iter().map(|t| t.latency.max).max().unwrap_or_default(),
            r.latency.max
        );
        let shed_sum = |f: fn(&sconna::accel::serve::ShedCounts) -> u64| {
            r.tenants.iter().map(|t| f(&t.shed)).sum::<u64>()
        };
        prop_assert_eq!(shed_sum(|s| s.newest), r.shed.newest);
        prop_assert_eq!(shed_sum(|s| s.oldest), r.shed.oldest);
        prop_assert_eq!(shed_sum(|s| s.deadline), r.shed.deadline);
        prop_assert_eq!(shed_sum(|s| s.degraded), r.shed.degraded);
        prop_assert_eq!(shed_sum(|s| s.stranded), r.shed.stranded);
        prop_assert_eq!(shed_sum(|s| s.retry), r.shed.retry);
        // Same model for both tenants: co-residency means no swaps ever.
        prop_assert_eq!(r.tenants.iter().map(|t| t.model_swaps).sum::<u64>(), 0);
    }
}

/// The multi-tenant headline scenario: two tenants on different models
/// under seeded chaos, per-tenant conservation at every step, and the
/// full per-tenant functional report — predictions, tenant accuracy and
/// usage rows included — bit-identical across 1 / 2 / 8 execution
/// workers.
#[test]
fn multi_tenant_chaos_is_deterministic_across_workers() {
    let (net, samples) = pin_workload();
    let engine = SconnaEngine::paper_default(5);
    let shuffle = shufflenet_v2();
    let goog = googlenet();
    let cfg = ServingConfig::saturation(AcceleratorConfig::sconna(), 2, 4, 36)
        .with_queue_cap(4)
        .with_seed(29)
        .with_tenants(vec![
            TenantSpec::new("shuffle", 0, ArrivalProcess::ClosedLoop { clients: 4 }, 24)
                .with_weight(2.0),
            TenantSpec::new("goog", 1, ArrivalProcess::ClosedLoop { clients: 2 }, 12),
        ]);
    let window_ps = 2_000_000_000u64;
    let plan = FaultPlan::new()
        .kill(SimTime::from_ps(window_ps / 4), 0)
        .restart(SimTime::from_ps(window_ps / 2), 0);

    let mut reports = Vec::new();
    for workers in [1usize, 2, 8] {
        let wa = FunctionalWorkload {
            net: &net,
            fallback: None,
            fallback_engine: None,
            samples: &samples,
            engine: &engine,
            workers,
        };
        let wb = FunctionalWorkload { workers, ..wa };
        let mut fleet = Fleet::try_new(&cfg, &[&shuffle, &goog], &[&wa, &wb])
            .expect("valid two-tenant functional fleet")
            .with_faults(&plan);
        let mut prev = fleet.snapshot();
        while fleet.step() {
            let snap = fleet.snapshot();
            check_step(&prev, &snap, &cfg);
            prev = snap;
        }
        let fin = fleet.snapshot();
        check_step(&prev, &fin, &cfg);
        assert_eq!(fin.offered, 36);
        let r = fleet.into_functional_report();
        assert_eq!(r.serving.tenants.len(), 2);
        assert_eq!(r.tenant_accuracy.len(), 2);
        reports.push(format!("{r:?}"));
    }
    assert_eq!(reports[0], reports[1], "worker count 2 changed the report");
    assert_eq!(reports[0], reports[2], "worker count 8 changed the report");
}

/// Trace order is storage, not semantics: permuting a multi-tenant
/// trace's time vectors (distinct timestamps) leaves the full per-tenant
/// report bit-identical — arrivals are replayed in time order no matter
/// how the vectors were written down.
#[test]
fn multi_tenant_shuffled_trace_is_bit_identical() {
    let model = shufflenet_v2();
    let step = 40_000_000u64; // 40 µs apart: no ties anywhere
    let times_a: Vec<SimTime> = (0..12u64)
        .map(|i| SimTime::from_ps(step * (2 * i + 1)))
        .collect();
    let times_b: Vec<SimTime> = (0..8u64)
        .map(|i| SimTime::from_ps(step * (3 * i + 2)))
        .collect();
    let mk = |ta: Vec<SimTime>, tb: Vec<SimTime>| {
        let cfg = ServingConfig::saturation(AcceleratorConfig::sconna(), 2, 2, 20)
            .with_queue_cap(2)
            .with_tenants(vec![
                TenantSpec::new("a", 0, ArrivalProcess::Trace { times: ta }, 12).with_weight(3.0),
                TenantSpec::new("b", 0, ArrivalProcess::Trace { times: tb }, 8),
            ]);
        let mut fleet = Fleet::new_multi(&cfg, &[&model]);
        drive_with_invariants(&mut fleet, &cfg);
        format!("{:?}", fleet.into_report())
    };
    let baseline = mk(times_a.clone(), times_b.clone());
    let mut shuffled_a = times_a;
    let mut shuffled_b = times_b;
    shuffled_a.reverse();
    shuffled_b.rotate_left(3);
    shuffled_b.reverse();
    assert_eq!(mk(shuffled_a, shuffled_b), baseline);
}
