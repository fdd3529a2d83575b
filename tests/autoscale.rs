//! Autoscaler invariants on the steppable fleet.
//!
//! The reactive autoscaler ([`AutoscalePolicy`]) retargets the active
//! pool against observed demand through the same epoch-guarded
//! reload/drain machinery as fault handling. This harness drives
//! autoscaled fleets one event at a time and asserts, at **every** step
//! boundary across scale transitions:
//!
//! - the active (non-standby) pool stays inside `[min, max]`;
//! - request conservation ([`FleetSnapshot::accounted`]` == offered`) —
//!   scaling never loses a request, and scale-down *drains* busy
//!   instances instead of aborting their batches;
//! - the decision trace is well-formed (monotone times, bounded
//!   targets, real pool movements);
//! - reports are bit-identical across 1/2/8 workers, across shuffled
//!   trace insertion orders, and across replays;
//! - capacity lost to kills is replaced from standby — the controller
//!   targets the *live* pool, so an autoscaled fleet self-heals even
//!   without a supervisor.

use sconna::accel::serve::{
    simulate_serving, sweep, ArrivalProcess, AutoscalePolicy, Fleet, FleetSnapshot,
    FunctionalWorkload, InstanceHealth, ServingConfig,
};
use sconna::accel::{AcceleratorConfig, SconnaEngine};
use sconna::sim::time::SimTime;
use sconna::tensor::dataset::Sample;
use sconna::tensor::layers::{MaxPool2d, QConv2d, QFc};
use sconna::tensor::models::{shufflenet_v2, CnnModel};
use sconna::tensor::network::{QLayer, QuantizedNetwork};
use sconna::tensor::quant::{ActivationQuant, Requant, WeightQuant};
use sconna::tensor::Tensor;

/// Active pool at a step boundary: every instance the autoscaler has
/// not parked (up, busy, draining, reloading, down or benched — all of
/// them claimed capacity, only `Standby` is outside the pool).
fn active_pool(snap: &FleetSnapshot) -> usize {
    snap.instances
        .iter()
        .filter(|i| i.health != InstanceHealth::Standby)
        .count()
}

/// Step-boundary invariants for an autoscaled fleet.
fn check_autoscale_step(snap: &FleetSnapshot, cfg: &ServingConfig) {
    assert_eq!(
        snap.accounted(),
        snap.offered,
        "conservation violated at {:?}",
        snap.now
    );
    let policy = cfg
        .autoscale
        .expect("this harness drives autoscaled fleets");
    let active = active_pool(snap);
    assert!(
        (policy.min..=policy.max).contains(&active),
        "active pool {active} escaped [{}, {}] at {:?}",
        policy.min,
        policy.max,
        snap.now
    );
    for inst in &snap.instances {
        // Standby instances are admin-down: nothing in flight, ever.
        if inst.health == InstanceHealth::Standby {
            assert_eq!(inst.in_flight, 0, "standby instance holds a batch");
        }
        // A draining instance is still finishing a real batch.
        if inst.health == InstanceHealth::Draining {
            assert!(
                inst.in_flight > 0,
                "draining instance with nothing in flight"
            );
        }
    }
}

/// A two-phase arithmetic trace: `burst` arrivals at `burst_x` times the
/// per-instance service rate, then `tail` arrivals at a tenth of it —
/// enough demand swing to force scale-ups and scale-downs.
fn burst_then_quiet_trace(
    cfg: &ServingConfig,
    model: &CnnModel,
    burst: usize,
    tail: usize,
    burst_x: f64,
) -> Vec<SimTime> {
    let per_instance = cfg.estimated_capacity_fps(model) / cfg.instances as f64;
    let mut times = Vec::with_capacity(burst + tail);
    let mut t = 0.0f64;
    for _ in 0..burst {
        t += 1.0 / (burst_x * per_instance);
        times.push(SimTime::from_secs_f64(t));
    }
    for _ in 0..tail {
        t += 1.0 / (0.1 * per_instance);
        times.push(SimTime::from_secs_f64(t));
    }
    times
}

/// The shared scenario: an 8-instance pool scaling between 1 and 8
/// under a burst-then-quiet trace.
fn scenario() -> (CnnModel, ServingConfig) {
    let model = shufflenet_v2();
    let base = ServingConfig::saturation(AcceleratorConfig::sconna(), 8, 2, 72).with_seed(11);
    let per_instance = base.estimated_capacity_fps(&model) / 8.0;
    let times = burst_then_quiet_trace(&base, &model, 56, 16, 6.0);
    // Ticks several times per phase; cooldown shorter than a phase.
    let span = times.last().expect("trace non-empty").as_secs_f64();
    let policy = AutoscalePolicy::new(1, 8)
        .with_initial(2)
        .with_check_interval(SimTime::from_secs_f64(span / 40.0))
        .with_cooldown(SimTime::from_secs_f64(span / 20.0));
    assert!(per_instance > 0.0);
    let cfg = base
        .with_unbounded_queue()
        .with_arrivals(ArrivalProcess::Trace { times })
        .with_autoscale(policy);
    (model, cfg)
}

/// Pool bounds and conservation hold at every step boundary; the
/// decision trace shows the pool moving both ways; the quiet tail ends
/// below the burst peak; every request is served.
#[test]
fn pool_bounds_and_conservation_hold_across_scale_transitions() {
    let (model, cfg) = scenario();
    let mut fleet = Fleet::new(&cfg, &model);
    let mut peak = 0usize;
    let mut saw_standby = false;
    let mut saw_reloading = false;
    while fleet.step() {
        let snap = fleet.snapshot();
        check_autoscale_step(&snap, &cfg);
        peak = peak.max(active_pool(&snap));
        saw_standby |= snap
            .instances
            .iter()
            .any(|i| i.health == InstanceHealth::Standby);
        saw_reloading |= snap
            .instances
            .iter()
            .any(|i| i.health == InstanceHealth::Reloading);
    }
    let fin = fleet.snapshot();
    check_autoscale_step(&fin, &cfg);
    assert!(fin.is_complete);
    assert!(saw_standby, "the parked tail must be visible as Standby");
    assert!(
        saw_reloading,
        "a waking instance must pay a visible weight reload"
    );
    assert!(peak > 2, "the burst must push the pool past its initial 2");
    assert!(
        active_pool(&fin) < peak,
        "the quiet tail must scale the pool back down"
    );

    let events = fleet.scale_events().to_vec();
    assert!(events.iter().any(|e| e.to > e.from), "no scale-up recorded");
    assert!(
        events.iter().any(|e| e.to < e.from),
        "no scale-down recorded"
    );
    for w in events.windows(2) {
        assert!(w[0].at <= w[1].at, "decision trace out of order");
    }
    for e in &events {
        assert!(e.from != e.to, "a no-op decision was committed");
        assert!(e.to >= 1 && e.to <= 8, "target {} out of bounds", e.to);
        assert!(e.demand_fps.is_finite() && e.demand_fps >= 0.0);
    }

    let report = fleet.into_report();
    assert_eq!(report.completed, report.offered, "scaling lost a request");
    assert_eq!(report.dropped, 0);
}

/// The same autoscaled run is bit-identical across 1/2/8 sweep workers,
/// across shuffled trace insertion orders, and against the steppable
/// drive — the determinism contract extends across scale boundaries.
#[test]
fn reports_are_bit_identical_across_workers_and_trace_orders() {
    let (model, cfg) = scenario();
    let ArrivalProcess::Trace { times } = &cfg.arrivals else {
        unreachable!("scenario uses a trace");
    };
    let reversed: Vec<SimTime> = times.iter().rev().copied().collect();
    let mut interleaved: Vec<SimTime> = times.iter().step_by(2).copied().collect();
    interleaved.extend(times.iter().skip(1).step_by(2).copied());
    let variants = vec![
        cfg.clone(),
        cfg.clone()
            .with_arrivals(ArrivalProcess::Trace { times: reversed }),
        cfg.clone()
            .with_arrivals(ArrivalProcess::Trace { times: interleaved }),
    ];

    let baseline = sweep(variants.clone(), &model, 1);
    let reference = format!("{:?}", baseline[0]);
    for r in &baseline {
        assert_eq!(
            format!("{r:?}"),
            reference,
            "a shuffled trace order changed the report"
        );
    }
    for workers in [2usize, 8] {
        let grid = sweep(variants.clone(), &model, workers);
        for r in &grid {
            assert_eq!(
                format!("{r:?}"),
                reference,
                "worker count {workers} changed the report"
            );
        }
    }
    // The run-to-completion wrapper and a replay agree too.
    assert_eq!(format!("{:?}", simulate_serving(&cfg, &model)), reference);
}

/// Functional autoscaled serving: instances executing real batches
/// through prepared models (and per-instance scratch arenas) produce
/// predictions bit-identical across 1/2/8 execution workers, with every
/// request served across the scale transitions.
#[test]
fn functional_autoscaled_serving_is_worker_invariant() {
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
                name: "as-c1".into(),
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
                name: "as-fc".into(),
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
    let engine = SconnaEngine::paper_default(5);

    let model = shufflenet_v2();
    let base = ServingConfig::saturation(AcceleratorConfig::sconna(), 4, 2, 28).with_seed(3);
    let times = burst_then_quiet_trace(&base, &model, 20, 8, 4.0);
    let span = times.last().expect("trace non-empty").as_secs_f64();
    let policy = AutoscalePolicy::new(1, 4)
        .with_initial(1)
        .with_check_interval(SimTime::from_secs_f64(span / 30.0))
        .with_cooldown(SimTime::from_secs_f64(span / 15.0));
    let cfg = base
        .with_unbounded_queue()
        .with_arrivals(ArrivalProcess::Trace { times })
        .with_autoscale(policy);

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
        let mut fleet = Fleet::new_functional(&cfg, &model, &workload);
        while fleet.step() {
            check_autoscale_step(&fleet.snapshot(), &cfg);
        }
        assert!(!fleet.scale_events().is_empty(), "the trace must scale");
        let r = fleet.into_functional_report();
        assert_eq!(r.serving.completed, r.serving.offered);
        assert!(r.correct > 0, "served batches must produce predictions");
        reports.push(format!("{r:?}"));
    }
    assert_eq!(reports[0], reports[1], "worker count 2 changed the report");
    assert_eq!(reports[0], reports[2], "worker count 8 changed the report");
}

/// Capacity lost to kills is replaced from standby: the controller
/// compares demand against the *live* pool, so when the only active
/// instance dies — no supervisor, no scripted restart — the next tick
/// wakes a standby replacement and the run still serves everything.
#[test]
fn killed_capacity_is_replaced_from_standby_without_a_supervisor() {
    use sconna::accel::serve::FaultPlan;
    let model = shufflenet_v2();
    let base = ServingConfig::saturation(AcceleratorConfig::sconna(), 3, 2, 18).with_seed(5);
    let per_instance = base.estimated_capacity_fps(&model) / 3.0;
    // Steady demand worth about one instance.
    let mut times = Vec::new();
    let mut t = 0.0f64;
    for _ in 0..18 {
        t += 1.0 / per_instance;
        times.push(SimTime::from_secs_f64(t));
    }
    let span = times.last().expect("trace non-empty").as_secs_f64();
    let policy = AutoscalePolicy::new(1, 3)
        .with_initial(1)
        .with_check_interval(SimTime::from_secs_f64(span / 30.0))
        .with_cooldown(SimTime::from_secs_f64(span / 30.0));
    let cfg = base
        .with_unbounded_queue()
        .with_arrivals(ArrivalProcess::Trace { times })
        .with_autoscale(policy);
    // Kill the lone active instance a third of the way in.
    let plan = FaultPlan::new().kill(SimTime::from_secs_f64(span / 3.0), 0);

    let mut fleet = Fleet::new(&cfg, &model).with_faults(&plan);
    let mut saw_down = false;
    while fleet.step() {
        let snap = fleet.snapshot();
        check_autoscale_step(&snap, &cfg);
        saw_down |= snap
            .instances
            .iter()
            .any(|i| i.health == InstanceHealth::Down);
    }
    assert!(saw_down, "the kill must land on the active instance");
    let report = fleet.into_report();
    assert_eq!(
        report.completed, report.offered,
        "standby replacement must rescue the stranded demand"
    );
    assert_eq!(report.shed.stranded, 0);
}

/// A policy whose `max` disagrees with the provisioned pool is a
/// configuration bug, surfaced as a descriptive construction error (the
/// panicking constructors quote the same message).
#[test]
fn autoscale_max_must_equal_the_provisioned_pool() {
    let model = shufflenet_v2();
    let cfg = ServingConfig::saturation(AcceleratorConfig::sconna(), 4, 2, 8)
        .with_autoscale(AutoscalePolicy::new(1, 2));
    let err = Fleet::try_new(&cfg, &[&model], &[])
        .err()
        .expect("mismatched autoscale max must not build")
        .to_string();
    assert!(
        err.contains("autoscale max (2) must equal the provisioned instance pool (4)"),
        "{err:?}"
    );
}
