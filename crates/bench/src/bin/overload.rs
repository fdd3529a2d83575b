//! Overload sweep: offered load × admission policy across the saturation
//! knee of a SCONNA serving fleet — the open-loop regime the closed-loop
//! serving bench cannot reach. Every point runs the **functional** fleet
//! (real `vdp_batch` inference on a trained, quantized small CNN), so the
//! curve carries top-1 accuracy alongside goodput, drop rate, tail
//! latency and queue depth. Emits `BENCH_overload.json`, the checked-in
//! record of the knee:
//!
//! * `drop_newest` — goodput plateaus at capacity, p99 collapses onto the
//!   full-queue wait;
//! * `drop_oldest` — same plateau, freshest-first eviction;
//! * `deadline` — p99 stays bounded by the SLO at the cost of drop rate;
//! * `degrade` — goodput clears the full-fidelity capacity (no drops) at
//!   the cost of accuracy: overflow runs on a 4-bit fallback model
//!   (`QuantizedNetwork::degraded`) bound to a 4-bit engine whose
//!   streams are 16× shorter and whose range-matched ADC keeps the
//!   coarser grid's signal-to-noise.
//!
//! Every sweep is bit-identical across 1/2/8 workers (asserted here).
//!
//! Run with: `cargo run --release -p sconna-bench --bin overload`
//! (`--smoke` runs a tiny configuration for CI; smoke mode never writes
//! `BENCH_overload.json`).

use sconna_accel::engine::SconnaEngine;
use sconna_accel::organization::AcceleratorConfig;
use sconna_accel::report::format_overload_sweep;
use sconna_accel::serve::{
    overload_sweep, simulate_serving, AdmissionPolicy, FunctionalWorkload, OverloadPoint,
    ServingConfig,
};
use sconna_bench::{banner, obj, same_at_workers, write_artifact, Json};
use sconna_photonics::pca::AdcModel;
use sconna_sc::Precision;
use sconna_sim::time::SimTime;
use sconna_tensor::dataset::SyntheticDataset;
use sconna_tensor::engine::ExactEngine;
use sconna_tensor::models::{googlenet, shufflenet_v2};
use sconna_tensor::smallcnn::{SmallCnn, SmallCnnConfig};

/// Precision of the degrade-policy fallback model and its engine.
const FALLBACK_BITS: u8 = 4;

fn point_json(p: &OverloadPoint, capacity: f64) -> Json {
    let s = &p.report.serving;
    // Shed events can outlive the last completion, so integrate the
    // depth series over the longer of the two horizons.
    let depth_end = s
        .makespan
        .max(s.queue_depth.last_time().unwrap_or(SimTime::ZERO))
        .max(SimTime::from_ps(1));
    obj! {
        "offered_fps" => p.offered_fps,
        "offered_over_capacity" => p.offered_fps / capacity,
        "goodput_fps" => s.goodput_fps,
        "fps_full_fidelity" => s.fps,
        "dropped" => s.dropped,
        "degraded" => s.degraded,
        "drop_rate" => s.drop_rate,
        "p50_us" => s.latency.p50.as_secs_f64() * 1e6,
        "p99_us" => s.latency.p99.as_secs_f64() * 1e6,
        "mean_queue_depth" => s.queue_depth.mean_depth(depth_end),
        "max_queue_depth" => s.queue_depth.max_depth(),
        "accuracy_admitted" => p.report.accuracy_under_load,
        "accuracy_offered" => p.report.accuracy_offered,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    print!(
        "{}",
        banner(
            "Overload sweep — admission control across the saturation knee",
            "open-loop shedding behavior behind the fleet-capacity claim"
        )
    );

    let (model, requests, max_batch, queue_cap, multipliers): (_, usize, usize, usize, &[f64]) =
        if smoke {
            (shufflenet_v2(), 48, 4, 2, &[0.5, 2.5])
        } else {
            (
                googlenet(),
                192,
                8,
                16,
                &[0.4, 0.7, 0.9, 1.1, 1.4, 2.0, 3.0],
            )
        };

    // The fleet every policy serves: 2 instances behind a bounded queue —
    // in full mode deep enough (16/instance, 4 batches) that queue wait,
    // not the flush window, dominates the overloaded tail; in smoke mode
    // shallow enough (one batch) that the tiny request count still sheds.
    let base = ServingConfig::saturation(AcceleratorConfig::sconna(), 2, max_batch, requests)
        .with_queue_cap(queue_cap)
        .with_seed(23);
    let capacity = base.estimated_capacity_fps(&model);
    let measured = simulate_serving(&base, &model);
    // Deadline SLO: one full-batch service time of queue wait.
    let batch_service =
        SimTime::from_secs_f64(base.instances as f64 * base.max_batch as f64 / capacity);
    println!(
        "timing model: {} | fleet {}x batch {} | capacity {:.0} fps (closed-loop measured {:.0})",
        model.name, base.instances, base.max_batch, capacity, measured.fps
    );

    // Functional workload: a trained, quantized small CNN and its
    // low-precision fallback, each bound to a precision-matched engine.
    let (epochs, train_pc, test_pc) = if smoke {
        (8usize, 12usize, 6usize)
    } else {
        (10, 20, 12)
    };
    let seed = 7u64;
    let data = SyntheticDataset::new(10, 16, 0.25, seed);
    let train = data.batch(train_pc, seed.wrapping_add(1));
    let test = data.batch(test_pc, seed.wrapping_add(2));
    let mut cnn = SmallCnn::new(
        SmallCnnConfig {
            input_size: 16,
            channels1: 8,
            channels2: 16,
            classes: 10,
        },
        seed,
    );
    cnn.train(&train, epochs, 0.05);
    let qnet = cnn.quantize(&train, 8);
    let fallback = qnet.degraded(FALLBACK_BITS);
    let engine = SconnaEngine::paper_default(seed);
    let fb_engine = SconnaEngine::new(
        Precision::new(FALLBACK_BITS),
        176,
        Some(AdcModel::sconna_default()),
        seed,
    );
    // Offline accuracy on the *serving* engines — the coarser grid plus
    // its shorter streams is why degraded responses cost accuracy (on
    // the exact engine both nets classify this set perfectly).
    let (offline_top1, _) = qnet.prepare(&engine).evaluate(&test, 5, 1);
    let (fallback_top1, _) = fallback.prepare(&fb_engine).evaluate(&test, 5, 1);
    let (exact_top1, _) = qnet.prepare(&ExactEngine).evaluate(&test, 5, 1);
    println!(
        "functional model: offline top-1 {:.1}% (primary, B8) vs {:.1}% (B{FALLBACK_BITS} fallback) on stochastic engines ({:.1}% exact)\n",
        100.0 * offline_top1,
        100.0 * fallback_top1,
        100.0 * exact_top1
    );

    let rates: Vec<f64> = multipliers.iter().map(|m| m * capacity).collect();
    let slo = batch_service;
    let policies: &[(&str, AdmissionPolicy)] = &[
        ("drop_newest", AdmissionPolicy::DropNewest),
        ("drop_oldest", AdmissionPolicy::DropOldest),
        ("deadline", AdmissionPolicy::Deadline { slo }),
        (
            "degrade",
            AdmissionPolicy::Degrade {
                fallback_bits: FALLBACK_BITS,
            },
        ),
    ];

    // The whole grid at three worker settings (each used for both
    // sweep-level and in-instance parallelism): reports must be
    // bit-identical.
    let run_grid = |workers: usize| -> Vec<Vec<OverloadPoint>> {
        policies
            .iter()
            .map(|&(_, admission)| {
                let cfg = base.clone().with_admission(admission);
                let workload = FunctionalWorkload {
                    net: &qnet,
                    fallback: Some(&fallback),
                    fallback_engine: Some(&fb_engine),
                    samples: &test,
                    engine: &engine,
                    workers,
                };
                overload_sweep(&cfg, &model, &workload, &rates, workers)
            })
            .collect()
    };
    let grid = run_grid(1);
    let workers: &[usize] = if smoke { &[2] } else { &[2, 8] };
    let invariant = same_at_workers(&grid, workers, run_grid);
    assert!(invariant, "overload sweep diverged across worker counts");

    let mut policy_json = Vec::new();
    for ((name, admission), points) in policies.iter().zip(&grid) {
        println!("policy: {name} ({admission:?})");
        print!("{}", format_overload_sweep(points));
        println!();
        let points: Vec<Json> = points.iter().map(|p| point_json(p, capacity)).collect();
        policy_json.push(obj! { "policy" => *name, "points" => points });
    }

    let under = |points: &[OverloadPoint]| points.first().expect("sweep has points").clone();
    let over = |points: &[OverloadPoint]| points.last().expect("sweep has points").clone();
    let (dn_u, dn_o) = (under(&grid[0]), over(&grid[0]));
    let dl_o = over(&grid[2]);
    let (dg_u, dg_o) = (under(&grid[3]), over(&grid[3]));

    println!(
        "knee summary at {:.1}x capacity:",
        multipliers.last().unwrap()
    );
    println!(
        "  drop_newest: goodput {:.0} fps ({:.2}x capacity), p99 {} (vs {} below knee), drop rate {:.0}%",
        dn_o.report.serving.goodput_fps,
        dn_o.report.serving.goodput_fps / capacity,
        dn_o.report.serving.latency.p99,
        dn_u.report.serving.latency.p99,
        100.0 * dn_o.report.serving.drop_rate
    );
    println!(
        "  deadline:    p99 {} (slo {}), drop rate {:.0}%",
        dl_o.report.serving.latency.p99,
        slo,
        100.0 * dl_o.report.serving.drop_rate
    );
    println!(
        "  degrade:     goodput {:.0} fps ({:.0}% of offered), 0 drops, accuracy {:.1}% (vs {:.1}% below knee)",
        dg_o.report.serving.goodput_fps,
        100.0 * dg_o.report.serving.goodput_fps / dg_o.offered_fps,
        100.0 * dg_o.report.accuracy_under_load,
        100.0 * dg_u.report.accuracy_under_load
    );

    println!();
    write_artifact(
        "overload",
        smoke,
        obj! {
            "timing_model" => model.name,
            "fleet" => obj! {
                "instances" => base.instances,
                "max_batch" => base.max_batch,
                "queue_cap_per_instance" => base.queue_cap.expect("bounded"),
                "batch_window_us" => base.batch_window.as_secs_f64() * 1e6,
                "deadline_slo_us" => slo.as_secs_f64() * 1e6,
                "fallback_weight_bits" => u32::from(FALLBACK_BITS),
            },
            "requests_per_point" => requests,
            "capacity_fps_estimate" => capacity,
            "capacity_fps_measured_closed_loop" => measured.fps,
            "offline_top1_primary" => offline_top1,
            "offline_top1_fallback" => fallback_top1,
            "worker_invariant_1_2_8" => invariant,
            "policies" => policy_json,
        },
    );

    // The shedding gates hold in both modes: past the knee the bounded
    // queue must actually shed, each policy in its own way.
    assert!(
        dn_o.report.serving.dropped > 0,
        "drop_newest must shed past the knee"
    );
    assert!(
        dl_o.report.serving.drop_rate > 0.0,
        "deadline holds its tail by dropping"
    );
    assert_eq!(dg_o.report.serving.dropped, 0, "degrade must not drop");
    assert!(
        dg_o.report.serving.degraded > 0,
        "past the knee the degrade policy must actually degrade"
    );
    // The knee-shape gates need the full sweep's request count — small
    // smoke runs are ramp/drain-dominated.
    if !smoke {
        let dn_knee = dn_o.report.serving.goodput_fps / capacity;
        assert!(
            (0.75..=1.1).contains(&dn_knee),
            "drop_newest goodput must plateau at capacity, got {dn_knee:.2}x"
        );
        assert!(
            dn_o.report.serving.latency.p99.as_ps() >= 2 * dn_u.report.serving.latency.p99.as_ps(),
            "drop_newest p99 must collapse past the knee"
        );
        let deadline_bound = slo + batch_service + base.batch_window;
        assert!(
            dl_o.report.serving.latency.p99 <= deadline_bound,
            "deadline p99 {} must stay under {}",
            dl_o.report.serving.latency.p99,
            deadline_bound
        );
        // Degrade holds goodput where the drop policies plateau: past
        // the knee its responses/second clear the full-fidelity capacity
        // (the overflow tier's 16x-shorter streams absorb the excess) —
        // and the price is accuracy, which must visibly fall.
        assert!(
            dg_o.report.serving.goodput_fps >= 1.3 * capacity,
            "degrade goodput {:.0} must clear the full-fidelity capacity {:.0}",
            dg_o.report.serving.goodput_fps,
            capacity
        );
        assert!(
            dg_o.report.accuracy_under_load < 0.8 * dg_u.report.accuracy_under_load,
            "degrading must cost accuracy: {:.3} vs {:.3} below the knee",
            dg_o.report.accuracy_under_load,
            dg_u.report.accuracy_under_load
        );
    }
}
