//! Datacenter-scale fleet bench: event-core throughput and serving
//! scalability from 16 to 1024 instances, plus a 1k-instance
//! trace-driven autoscaling run.
//!
//! Two claims are measured and checked in as `BENCH_fleet.json`:
//!
//! * **Scaling curve.** Closed-loop saturation runs at 16 to 1024
//!   instances, SCONNA and the analog baseline alike, each timed on the
//!   wall clock. Simulated FPS must grow near-linearly (≥ 0.8× linear
//!   from 16 to 1024 instances is asserted), and the event count at
//!   1024 instances must lie between one event per `2 × max_batch`
//!   requests and 16 per request. Wall-clock events/sec at 1024
//!   instances must keep at least 0.3× its value at 16; the measured
//!   retention is in the JSON.
//! * **Reactive autoscaling at scale.** A 1024-instance fleet under a
//!   diurnal + bursty arrival trace scales its active pool up and down
//!   through the same epoch-guarded reload/drain machinery as fault
//!   handling, serves every request, keeps the pool inside the policy
//!   bounds at every sampled step boundary, and reports bit-identically
//!   across 1/2/8 sweep workers and shuffled trace orders.
//!
//! Run with: `cargo run --release -p sconna-bench --bin fleet`
//! (`--smoke` runs a reduced grid for CI; smoke mode never writes
//! `BENCH_fleet.json`).

use sconna_accel::organization::AcceleratorConfig;
use sconna_accel::serve::{sweep, AutoscalePolicy, Fleet, ServingConfig};
use sconna_accel::serve::{ArrivalProcess, ServingReport};
use sconna_bench::{banner, obj, same_at_workers, write_artifact, Json};
use sconna_sim::time::SimTime;
use sconna_tensor::models::{shufflenet_v2, CnnModel};
use std::time::Instant;

const MAX_BATCH: usize = 4;

/// One scaling-grid measurement: a closed-loop saturation run at a fixed
/// request-per-instance budget, timed on the wall clock.
struct ScalePoint {
    instances: usize,
    report: ServingReport,
    events: u64,
    wall_s: f64,
}

impl ScalePoint {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s
    }
}

fn run_scale_point(
    accel: &AcceleratorConfig,
    model: &CnnModel,
    n: usize,
    rpi: usize,
) -> ScalePoint {
    let cfg = ServingConfig::saturation(*accel, n, MAX_BATCH, n * rpi).with_seed(17);
    let start = Instant::now();
    let mut fleet = Fleet::new(&cfg, model);
    fleet.run_to_completion();
    let wall_s = start.elapsed().as_secs_f64();
    let events = fleet.snapshot().events_processed;
    ScalePoint {
        instances: n,
        report: fleet.into_report(),
        events,
        wall_s,
    }
}

/// The diurnal + bursty arrival trace, generated arithmetically (no RNG):
/// inter-arrival gaps follow the inverse of a sinusoidal "time-of-day"
/// intensity with short periodic 3x bursts layered on top. Demand swings
/// between ~80 and ~720 instances' worth of capacity, with bursts
/// pushing past the 1024-instance provisioned pool.
fn diurnal_trace(requests: usize, per_instance_fps: f64) -> Vec<SimTime> {
    let avg_rate = 400.0 * per_instance_fps;
    let est_duration = requests as f64 / avg_rate;
    let period = est_duration / 6.0;
    let burst_period = est_duration / 23.0;
    let mut times = Vec::with_capacity(requests);
    let mut t = 0.0f64;
    for _ in 0..requests {
        let diurnal = 400.0 + 320.0 * (std::f64::consts::TAU * t / period).sin();
        let bursting = (t / burst_period).fract() < 0.08;
        let rate = diurnal * per_instance_fps * if bursting { 3.0 } else { 1.0 };
        t += 1.0 / rate;
        times.push(SimTime::from_secs_f64(t));
    }
    times
}

/// Even-indices-then-odd permutation: a deterministic shuffle of the
/// trace's *insertion* order that preserves the arrival-time multiset.
fn interleaved(times: &[SimTime]) -> Vec<SimTime> {
    let mut out: Vec<SimTime> = times.iter().step_by(2).copied().collect();
    out.extend(times.iter().skip(1).step_by(2).copied());
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    print!(
        "{}",
        banner(
            "Fleet scaling — event core & reactive autoscaling",
            "events/sec and simulated FPS, 16 to 1024 instances"
        )
    );

    let model = shufflenet_v2();
    let (counts, rpi, trace_requests): (&[usize], usize, usize) = if smoke {
        (&[16, 1024], 16, 8_192)
    } else {
        (&[16, 64, 256, 1024], 64, 24_576)
    };

    let accels: &[(&'static str, AcceleratorConfig)] = &[
        ("SCONNA", AcceleratorConfig::sconna()),
        ("MAM", AcceleratorConfig::mam()),
    ];

    // ---- Scaling grid: closed-loop saturation, 16 → 1024 instances ----
    let mut accel_json = Vec::new();
    let mut curves = Vec::new();
    for (name, accel) in accels {
        let points: Vec<ScalePoint> = counts
            .iter()
            .map(|&n| run_scale_point(accel, &model, n, rpi))
            .collect();
        let first = &points[0];
        let last = &points[points.len() - 1];
        let instance_ratio = last.instances as f64 / first.instances as f64;
        let fps_linearity = (last.report.fps / first.report.fps) / instance_ratio;
        let events_rate_retention = last.events_per_sec() / first.events_per_sec();
        println!("accelerator: {name}");
        for p in &points {
            println!(
                "  {:>5} instances: {:>12.0} simulated fps | {:>8} events in {:>7.3}s wall = {:>10.0} events/s",
                p.instances,
                p.report.fps,
                p.events,
                p.wall_s,
                p.events_per_sec(),
            );
        }
        println!(
            "  fps linearity 16→{}: {:.3}x of linear | events/s retention: {:.3}x\n",
            last.instances, fps_linearity, events_rate_retention
        );
        let point_json: Vec<Json> = points
            .iter()
            .map(|p| {
                obj! {
                    "instances" => p.instances,
                    "fps" => p.report.fps,
                    "goodput_fps" => p.report.goodput_fps,
                    "makespan_us" => p.report.makespan.as_secs_f64() * 1e6,
                    "events" => p.events,
                    "wall_s" => p.wall_s,
                    "events_per_sec" => p.events_per_sec(),
                    "mean_batch_fill" => p.report.mean_batch_fill,
                }
            })
            .collect();
        let suffix = format!("16_to_{}", last.instances);
        accel_json.push(obj! {
            "accelerator" => *name,
            format!("fps_linearity_{suffix}") => fps_linearity,
            format!("events_rate_retention_{suffix}") => events_rate_retention,
            "points" => point_json,
        });
        curves.push((name, fps_linearity, events_rate_retention, points));
    }

    // ---- 1k-instance trace-driven autoscale run ----
    let provisioned = 1024usize;
    let policy = AutoscalePolicy::new(64, provisioned).with_initial(128);
    let capacity_cfg =
        ServingConfig::saturation(accels[0].1, provisioned, MAX_BATCH, trace_requests);
    let per_instance_fps = capacity_cfg.estimated_capacity_fps(&model) / provisioned as f64;
    let times = diurnal_trace(trace_requests, per_instance_fps);
    let est_duration = times.last().expect("trace is non-empty").as_secs_f64();
    let policy = policy
        .with_check_interval(SimTime::from_secs_f64(est_duration / 400.0))
        .with_cooldown(SimTime::from_secs_f64(est_duration / 150.0));
    let auto_cfg = capacity_cfg
        .clone()
        .with_unbounded_queue()
        .with_arrivals(ArrivalProcess::Trace {
            times: times.clone(),
        })
        .with_autoscale(policy);

    // Stepped run: the pool-bounds and conservation invariants are
    // sampled at step boundaries while the wall clock times the whole
    // event loop.
    let start = Instant::now();
    let mut fleet = Fleet::new(&auto_cfg, &model);
    let (mut peak_active, mut min_active) = (0usize, usize::MAX);
    let mut steps = 0u64;
    loop {
        let stepped = fleet.step();
        steps += 1;
        if steps.is_multiple_of(2048) || !stepped {
            let snap = fleet.snapshot();
            assert_eq!(snap.accounted(), snap.offered, "request conservation");
            let active = snap
                .instances
                .iter()
                .filter(|i| i.health != sconna_accel::serve::InstanceHealth::Standby)
                .count();
            assert!(
                (policy.min..=policy.max).contains(&active),
                "active pool {active} escaped [{}, {}]",
                policy.min,
                policy.max
            );
            peak_active = peak_active.max(active);
            min_active = min_active.min(active);
        }
        if !stepped {
            break;
        }
    }
    let auto_wall = start.elapsed().as_secs_f64();
    let auto_events = fleet.snapshot().events_processed;
    let n_scale_events = fleet.scale_events().len();
    let auto_report = fleet.into_report();
    println!(
        "autoscale: {trace_requests} requests over a diurnal+burst trace on a {provisioned}-instance pool"
    );
    println!(
        "  {} scale events | active pool {}..{} | {} of {} served | {:.0} events/s wall",
        n_scale_events,
        min_active,
        peak_active,
        auto_report.completed,
        auto_report.offered,
        auto_events as f64 / auto_wall,
    );

    // Shuffled trace orders and sweep workers must not change a bit:
    // the same arrival-time multiset in any insertion order, swept at
    // 1/2/8 workers, reproduces the stepped run's report exactly.
    let reversed: Vec<SimTime> = times.iter().rev().copied().collect();
    let variants = vec![
        auto_cfg.clone(),
        auto_cfg
            .clone()
            .with_arrivals(ArrivalProcess::Trace { times: reversed }),
        auto_cfg.clone().with_arrivals(ArrivalProcess::Trace {
            times: interleaved(&times),
        }),
    ];
    let baseline = sweep(variants.clone(), &model, 1);
    let shuffle_invariant = baseline
        .iter()
        .all(|r| format!("{r:?}") == format!("{:?}", baseline[0]));
    assert!(shuffle_invariant, "shuffled trace orders diverged");
    assert_eq!(
        format!("{:?}", baseline[0]),
        format!("{auto_report:?}"),
        "stepped run diverged from the sweep wrapper"
    );
    let worker_invariant =
        same_at_workers(&baseline, &[2, 8], |w| sweep(variants.clone(), &model, w));
    assert!(
        worker_invariant,
        "autoscale sweep diverged across worker counts"
    );
    println!("  trace-shuffle and 1/2/8-worker sweeps: bit-identical\n");

    write_artifact(
        "fleet",
        smoke,
        obj! {
            "timing_model" => model.name,
            "scaling" => obj! {
                "arrivals" => "closed-loop saturation",
                "max_batch" => MAX_BATCH,
                "requests_per_instance" => rpi,
                "accelerators" => accel_json,
            },
            "autoscale_trace" => obj! {
                "provisioned_instances" => provisioned,
                "min" => policy.min,
                "initial" => policy.initial,
                "requests" => trace_requests,
                "profile" => "diurnal sinusoid (80..720 instances of demand) + periodic 3x bursts, arithmetic trace",
                "scale_events" => n_scale_events,
                "min_active" => min_active,
                "peak_active" => peak_active,
                "offered" => auto_report.offered,
                "completed" => auto_report.completed,
                "makespan_us" => auto_report.makespan.as_secs_f64() * 1e6,
                "fps" => auto_report.fps,
                "events" => auto_events,
                "wall_s" => auto_wall,
                "events_per_sec" => auto_events as f64 / auto_wall,
                "trace_shuffle_invariant" => shuffle_invariant,
                "worker_invariant_1_2_8" => worker_invariant,
            },
        },
    );

    // ---- Acceptance gates (both modes) ----
    for (name, fps_linearity, events_rate_retention, points) in &curves {
        // Simulated FPS is deterministic: near-linear scaling is a hard
        // gate. 0.8x linear from 16 to 1024 instances.
        assert!(
            *fps_linearity >= 0.8,
            "{name}: simulated FPS must scale >= 0.8x linear 16->1024, got {fps_linearity:.3}"
        );
        // Events/sec is wall-clock and CI machines are noisy, so the
        // in-bin gate is deliberately loose; the measured retention is in
        // the JSON.
        assert!(
            *events_rate_retention >= 0.3,
            "{name}: per-event cost blew up with fleet size, retention {events_rate_retention:.3}"
        );
        // The event count must track the workload within constant
        // factors (no runaway event amplification, no skipped work).
        // Closed-loop respawns admit inline, so the floor is batches,
        // not one event per request.
        let last = &points[points.len() - 1];
        assert!(
            last.events >= last.report.offered / (2 * MAX_BATCH as u64)
                && last.events as f64 <= 16.0 * last.report.offered as f64,
            "{name}: event count {} implausible for {} requests",
            last.events,
            last.report.offered
        );
    }
    assert!(
        n_scale_events >= 8,
        "the diurnal trace must exercise repeated scale-ups and scale-downs, got {n_scale_events}"
    );
    assert!(
        peak_active > policy.initial && min_active < peak_active,
        "the pool must move both ways: active range {min_active}..{peak_active}"
    );
    assert_eq!(
        auto_report.completed, auto_report.offered,
        "the autoscaled fleet must serve every request of the trace"
    );
}
