//! Chaos sweep: stochastic instance failures × supervision across the
//! fault-rate axis of a serving fleet — the self-healing counterpart of
//! the overload bench. Each point materializes a seeded [`FailureProcess`]
//! (per-instance exponential kill streams) at one MTBF and runs the fleet
//! twice: **unsupervised** (a killed instance stays down; the fleet
//! eventually strands its tail) and **supervised** (exponential-backoff
//! restarts plus the cluster retry layer re-admitting kill-aborted
//! requests). Emits `BENCH_chaos.json`, the checked-in record of the
//! availability story:
//!
//! * the unsupervised fleet collapses at the mid fault rate (both
//!   instances dead long before the workload drains — most of the
//!   offered traffic is stranded);
//! * the supervised fleet serves everything at every swept rate, and on
//!   SCONNA recovers ≥ 90 % of the fault-free goodput at that same mid
//!   rate — restarts are near-free because the warm reload replays no
//!   DKV programming (the paper's no-reprogramming claim as MTTR);
//! * the analog baseline heals too, but every restart pays the thermal
//!   DKV reprogramming bill: its measured MTTR is orders of magnitude
//!   above SCONNA's.
//!
//! Every curve is bit-identical across 1/2/8 sweep workers (asserted
//! here): the failure streams are counter-keyed, never shared-state.
//!
//! Run with: `cargo run --release -p sconna-bench --bin chaos`
//! (`--smoke` runs a tiny configuration for CI; smoke mode never writes
//! `BENCH_chaos.json`).

use sconna_accel::organization::AcceleratorConfig;
use sconna_accel::perf::model_warm_reload_time;
use sconna_accel::serve::{
    chaos_sweep, simulate_serving, ChaosPoint, FailureProcess, ServingConfig, ServingReport,
    Supervisor,
};
use sconna_bench::{banner, obj, same_at_workers, write_artifact, Json};
use sconna_sim::stats::GoodputSamples;
use sconna_sim::time::SimTime;
use sconna_tensor::models::{googlenet, shufflenet_v2};

/// Root of every per-instance failure stream (kill times are drawn
/// counter-keyed from this, never from shared RNG state).
const PROCESS_SEED: u64 = 2023;
/// Root of the supervisor's backoff-jitter stream.
const SUPERVISOR_SEED: u64 = 31;

/// Responses (full-fidelity + degraded) over offered traffic — the
/// served fraction a client population observes.
fn served_fraction(r: &ServingReport) -> f64 {
    (r.completed + r.degraded) as f64 / r.offered as f64
}

fn arm_json(r: &ServingReport, fault_free: &ServingReport) -> Json {
    let a = &r.availability;
    let downtime_s: f64 = a.downtime.iter().map(|d| d.as_secs_f64()).sum();
    let min_window_fps = r
        .goodput_series
        .as_ref()
        .map_or(f64::NAN, GoodputSamples::min_rate_fps);
    obj! {
        "served_fraction" => served_fraction(r),
        "goodput_fps" => r.goodput_fps,
        "goodput_over_fault_free" => r.goodput_fps / fault_free.goodput_fps,
        "min_window_fps" => min_window_fps,
        "makespan_us" => r.makespan.as_secs_f64() * 1e6,
        "incidents" => a.incidents,
        "recoveries" => a.recoveries,
        "restarts_issued" => a.restarts_issued,
        "benched" => a.benched,
        "active_instances" => a.active_instances,
        "mean_mttr_us" => a.mean_mttr.as_secs_f64() * 1e6,
        "downtime_us" => downtime_s * 1e6,
        "retries" => a.retries,
        "max_attempts_seen" => a.max_attempts_seen,
        "stranded" => r.shed.stranded,
        "shed_retry" => r.shed.retry,
    }
}

/// One accelerator's full curve: the fault-free baseline plus, at each
/// MTBF, the unsupervised and supervised arms.
#[derive(Debug)]
struct AccelCurve {
    name: &'static str,
    fault_free: ServingReport,
    warm_reload: SimTime,
    mtbfs: Vec<SimTime>,
    unsupervised: Vec<ChaosPoint>,
    supervised: Vec<ChaosPoint>,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    print!(
        "{}",
        banner(
            "Chaos sweep — self-healing under stochastic instance failures",
            "availability & measured MTTR behind the no-reprogramming claim"
        )
    );

    // Small batches on purpose: a kill aborts the in-flight batch and its
    // work is redone on retry, so the batch is the unit of wasted work.
    // Fine-grained batches keep the supervised fleet's redo bill small —
    // the same reasoning that makes checkpoint intervals track MTBF.
    let (model, requests, multipliers): (_, usize, &[f64]) = if smoke {
        (shufflenet_v2(), 96, &[1.0, 0.25])
    } else {
        (googlenet(), 192, &[1.0, 0.25, 0.0625])
    };
    let instances = 2;
    let max_batch = 2;
    // The mid point: where the unsupervised fleet has lost every
    // instance well before the workload drains.
    let mid = 1;

    let accels: &[(&'static str, AcceleratorConfig)] = &[
        ("SCONNA", AcceleratorConfig::sconna()),
        ("MAM", AcceleratorConfig::mam()),
    ];

    let run_accel = |accel: &AcceleratorConfig, workers: usize| -> AccelCurve {
        let base = ServingConfig::saturation(*accel, instances, max_batch, requests).with_seed(17);
        let fault_free = simulate_serving(&base, &model);
        let t = fault_free.makespan;
        // MTBF grid scaled to this accelerator's own fault-free makespan
        // so the fault *pressure* (expected kills per run) matches across
        // accelerators with different service rates.
        let mtbfs: Vec<SimTime> = multipliers
            .iter()
            .map(|m| SimTime::from_secs_f64(t.as_secs_f64() * m))
            .collect();
        // Kills keep arriving over 4x the fault-free run, so a healing
        // fleet whose makespan stretches stays under fire throughout.
        let horizon = SimTime::from_ps(t.as_ps().saturating_mul(4));
        // Crash-loop window and ladder reset scaled well under the mid
        // MTBF: benching is for flapping instances, not this homogeneous
        // kill stream, and an instance that survives a fiftieth of the
        // run has earned its backoff ladder back — with the production
        // defaults (millisecond-scale) every kill in these
        // microsecond-scale runs would look like a crash loop and the
        // ladder would escalate to the cap, swamping the reload cost the
        // sweep is meant to expose.
        let supervisor = Supervisor {
            crash_loop_window: SimTime::from_ps((t.as_ps() / 50).max(1)),
            reset_after: SimTime::from_ps((t.as_ps() / 50).max(1)),
            ..Supervisor::new(SUPERVISOR_SEED)
        };
        let series_window = SimTime::from_ps((t.as_ps() / 16).max(1));
        let process = FailureProcess::new(PROCESS_SEED, mtbfs[0]);
        let unsupervised = chaos_sweep(
            &base.clone().with_goodput_window(series_window),
            &model,
            &process,
            &mtbfs,
            horizon,
            workers,
        );
        let supervised = chaos_sweep(
            &base
                .clone()
                .with_supervisor(supervisor)
                .with_goodput_window(series_window),
            &model,
            &process,
            &mtbfs,
            horizon,
            workers,
        );
        AccelCurve {
            name: "",
            fault_free,
            warm_reload: model_warm_reload_time(accel, &model),
            mtbfs,
            unsupervised,
            supervised,
        }
    };

    let run_grid = |workers: usize| -> Vec<AccelCurve> {
        accels
            .iter()
            .map(|(name, accel)| AccelCurve {
                name,
                ..run_accel(accel, workers)
            })
            .collect()
    };
    let grid = run_grid(1);
    let workers: &[usize] = if smoke { &[2] } else { &[2, 8] };
    let invariant = same_at_workers(&grid, workers, run_grid);
    assert!(invariant, "chaos sweep diverged across worker counts");

    let mut accel_json = Vec::new();
    for curve in &grid {
        println!(
            "accelerator: {} | fault-free makespan {} | goodput {:.0} fps | warm reload {}",
            curve.name, curve.fault_free.makespan, curve.fault_free.goodput_fps, curve.warm_reload
        );
        let mut point_json = Vec::new();
        for (i, mtbf) in curve.mtbfs.iter().enumerate() {
            let (u, s) = (&curve.unsupervised[i].report, &curve.supervised[i].report);
            println!(
                "  mtbf {:>12} ({:>4.2}x makespan): unsupervised {:>5.1}% served ({} stranded) | supervised {:>5.1}% served, {:.2}x fault-free goodput, {} incidents, {} recoveries, mttr {}",
                format!("{mtbf}"),
                multipliers[i],
                100.0 * served_fraction(u),
                u.shed.stranded,
                100.0 * served_fraction(s),
                s.goodput_fps / curve.fault_free.goodput_fps,
                s.availability.incidents,
                s.availability.recoveries,
                s.availability.mean_mttr,
            );
            point_json.push(obj! {
                "mtbf_us" => mtbf.as_secs_f64() * 1e6,
                "mtbf_over_makespan" => multipliers[i],
                "fault_rate_per_s" => 1.0 / mtbf.as_secs_f64(),
                "unsupervised" => arm_json(u, &curve.fault_free),
                "supervised" => arm_json(s, &curve.fault_free),
            });
        }
        println!();
        accel_json.push(obj! {
            "accelerator" => curve.name,
            "fault_free" => obj! {
                "makespan_us" => curve.fault_free.makespan.as_secs_f64() * 1e6,
                "goodput_fps" => curve.fault_free.goodput_fps,
            },
            "warm_reload_us" => curve.warm_reload.as_secs_f64() * 1e6,
            "points" => point_json,
        });
    }

    let sconna = &grid[0];
    let mam = &grid[1];
    let sc_mid = &sconna.supervised[mid].report;
    let mam_mid = &mam.supervised[mid].report;
    println!(
        "mid-rate summary (mtbf = {:.2}x fault-free makespan):",
        multipliers[mid]
    );
    println!(
        "  unsupervised collapse: SCONNA {:.0}% served, MAM {:.0}% served",
        100.0 * served_fraction(&sconna.unsupervised[mid].report),
        100.0 * served_fraction(&mam.unsupervised[mid].report),
    );
    println!(
        "  supervised recovery:   SCONNA {:.0}% served at {:.2}x fault-free goodput, MAM {:.0}% served at {:.2}x",
        100.0 * served_fraction(sc_mid),
        sc_mid.goodput_fps / sconna.fault_free.goodput_fps,
        100.0 * served_fraction(mam_mid),
        mam_mid.goodput_fps / mam.fault_free.goodput_fps,
    );
    println!(
        "  measured MTTR:         SCONNA {} (warm reload zero) vs MAM {} (thermal DKV reprogramming)",
        sc_mid.availability.mean_mttr, mam_mid.availability.mean_mttr,
    );

    let sup = Supervisor::new(SUPERVISOR_SEED);
    println!();
    write_artifact(
        "chaos",
        smoke,
        obj! {
            "timing_model" => model.name,
            "fleet" => obj! { "instances" => instances, "max_batch" => max_batch, "requests" => requests },
            "failure_process" => obj! {
                "seed" => PROCESS_SEED,
                "kind" => "kill-only, per-instance exponential, counter-keyed",
            },
            "supervisor" => obj! {
                "seed" => SUPERVISOR_SEED,
                "initial_backoff_us" => sup.initial_backoff.as_secs_f64() * 1e6,
                "backoff_factor" => Json::Raw(sup.backoff_factor.to_string()),
                "max_backoff_us" => sup.max_backoff.as_secs_f64() * 1e6,
                "jitter" => sup.jitter,
                "restart_mode" => "warm",
                "crash_loop_window" => "makespan/50",
                "crash_loop_limit" => sup.crash_loop_limit,
            },
            "retry" => "default: unconditional re-admission of kill-aborted requests",
            "mtbf_multipliers_of_makespan" => multipliers.iter().map(|&m| Json::Num(m)).collect::<Vec<_>>(),
            "worker_invariant_1_2_8" => invariant,
            "accelerators" => accel_json,
        },
    );

    // The availability gates hold in both modes.
    for curve in &grid {
        let u = &curve.unsupervised[mid].report;
        let s = &curve.supervised[mid].report;
        // Unsupervised collapse: every instance dead, the tail stranded.
        assert_eq!(
            u.availability.active_instances, 0,
            "{}: unsupervised fleet must lose every instance at the mid rate",
            curve.name
        );
        assert!(
            u.shed.stranded > 0 && served_fraction(u) < 0.7,
            "{}: unsupervised fleet must collapse at the mid rate, served {:.2}",
            curve.name,
            served_fraction(u)
        );
        // Supervised recovery: restarts + retries serve (essentially)
        // everything the unsupervised fleet stranded.
        assert!(
            served_fraction(s) >= 0.9,
            "{}: supervised fleet must serve >= 90% at the mid rate, got {:.2}",
            curve.name,
            served_fraction(s)
        );
        assert!(
            s.availability.recoveries > 0 && s.availability.retries > 0,
            "{}: the mid-rate supervised run must exercise restarts and retries",
            curve.name
        );
    }
    // The paper's reload advantage as MTTR: SCONNA's warm restart replays
    // no DKV programming, the analog baseline pays thermal reprogramming
    // on every recovery.
    assert_eq!(sconna.warm_reload, SimTime::ZERO, "SCONNA warm reload");
    assert!(
        sc_mid.availability.mean_mttr < mam_mid.availability.mean_mttr,
        "SCONNA MTTR {} must beat MAM {}",
        sc_mid.availability.mean_mttr,
        mam_mid.availability.mean_mttr
    );
    // The goodput-recovery gates need the full grid's request count —
    // small smoke runs are ramp/drain-dominated.
    if !smoke {
        assert!(
            sc_mid.goodput_fps >= 0.9 * sconna.fault_free.goodput_fps,
            "supervised SCONNA must recover >= 90% of fault-free goodput at the mid rate, got {:.2}x",
            sc_mid.goodput_fps / sconna.fault_free.goodput_fps
        );
        for curve in &grid {
            let served: Vec<f64> = curve
                .unsupervised
                .iter()
                .map(|p| served_fraction(&p.report))
                .collect();
            assert!(
                served.first() >= served.last(),
                "{}: unsupervised served fraction must fall with the fault rate: {served:?}",
                curve.name
            );
        }
    }
}
