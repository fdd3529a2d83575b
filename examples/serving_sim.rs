//! Serving a stream of GoogleNet inference requests from a SCONNA fleet.
//!
//! Demonstrates the fleet-level behaviors the serving simulator models
//! on top of the single-accelerator reproduction:
//!
//! 1. served FPS scales with instance count (≥ 1.8× from 1 → 2),
//! 2. batching lowers energy per inference vs batch-1 dispatch,
//! 3. reports are seed-deterministic regardless of sweep thread count,
//! 4. **functional serving**: every response is computed through real
//!    `vdp_batch` tiles on a weight-stationary prepared model, and the
//!    fleet reports top-1 accuracy-under-load — bit-identical across
//!    worker counts and arrival orderings.
//!
//! Run with: `cargo run --release --example serving_sim`

use sconna::accel::report::format_serving_sweep;
use sconna::accel::serve::{simulate_serving_functional, sweep, FunctionalWorkload, ServingConfig};
use sconna::accel::{AcceleratorConfig, SconnaEngine};
use sconna::sim::parallel::default_workers;
use sconna::tensor::dataset::SyntheticDataset;
use sconna::tensor::engine::ExactEngine;
use sconna::tensor::models::googlenet;
use sconna::tensor::smallcnn::{SmallCnn, SmallCnnConfig};

fn main() {
    let model = googlenet();
    let requests = 128;
    println!("serving {requests} GoogleNet requests, closed-loop saturation\n");

    // Sweep instance count × batch size.
    let configs: Vec<ServingConfig> = [1usize, 2, 4]
        .into_iter()
        .flat_map(|i| {
            [1usize, 8, 16].into_iter().map(move |b| {
                ServingConfig::saturation(AcceleratorConfig::sconna(), i, b, requests)
            })
        })
        .collect();
    let reports = sweep(configs.clone(), &model, default_workers());
    print!("{}", format_serving_sweep(&reports));

    // 1. Instance scaling at batch 16 (rows 2 and 5 of the sweep).
    let one = &reports[2];
    let two = &reports[5];
    let scaling = two.fps / one.fps;
    println!(
        "\n1 -> 2 instances at batch {}: {:.2}x served FPS  ({:.0} -> {:.0})",
        one.max_batch, scaling, one.fps, two.fps
    );
    assert!(scaling >= 1.8, "instance scaling {scaling} below 1.8x");

    // 2. Batching vs batch-1 energy at 2 instances (rows 3 and 5).
    let b1 = &reports[3];
    let b16 = &reports[5];
    println!(
        "batch 1 -> {} at {} instances: {:.3e} -> {:.3e} J/inference ({:.1}% lower)",
        b16.max_batch,
        b16.instances,
        b1.energy_per_inference_j,
        b16.energy_per_inference_j,
        100.0 * (1.0 - b16.energy_per_inference_j / b1.energy_per_inference_j)
    );
    assert!(
        b16.energy_per_inference_j < b1.energy_per_inference_j,
        "batching must lower energy per inference"
    );

    // 3. Latency percentiles of the largest fleet.
    let top = reports.last().unwrap();
    println!(
        "largest fleet latency: p50 {}  p95 {}  p99 {}  max {}",
        top.latency.p50, top.latency.p95, top.latency.p99, top.latency.max
    );

    // 4. Thread-count invariance: `reports` was computed on all cores;
    //    a single-worker rerun must be bit-identical.
    let serial = sweep(configs, &model, 1);
    assert_eq!(
        format!("{serial:?}"),
        format!("{reports:?}"),
        "sweep reports must not depend on worker count"
    );
    println!(
        "determinism: {} reports bit-identical across 1 and {} sweep workers",
        serial.len(),
        default_workers()
    );

    // 5. Functional serving: train a small CNN, quantize it, and let the
    //    fleet compute the responses it schedules — real stacked
    //    vdp_batch tiles on a prepared (weight-stationary) model,
    //    predictions keyed per request id.
    println!("\n--- functional serving: accuracy under load ---");
    let seed = 7u64;
    let data = SyntheticDataset::new(10, 16, 0.25, seed);
    let train = data.batch(20, seed.wrapping_add(1));
    let test = data.batch(12, seed.wrapping_add(2));
    let mut cnn = SmallCnn::new(
        SmallCnnConfig {
            input_size: 16,
            channels1: 8,
            channels2: 16,
            classes: 10,
        },
        seed,
    );
    cnn.train(&train, 10, 0.05);
    let qnet = cnn.quantize(&train, 8);
    let engine = SconnaEngine::paper_default(seed);
    let (offline_top1, _) = qnet
        .prepare(&ExactEngine)
        .evaluate(&test, 5, default_workers());

    let fn_requests = 96;
    let fn_cfg = ServingConfig::saturation(AcceleratorConfig::sconna(), 2, 8, fn_requests);
    let mut runs = Vec::new();
    for workers in [1usize, 2, 8] {
        let workload = FunctionalWorkload {
            net: &qnet,
            fallback: None,
            fallback_engine: None,
            samples: &test,
            engine: &engine,
            workers,
        };
        runs.push((
            workers,
            simulate_serving_functional(&fn_cfg, &model, &workload),
        ));
    }
    let (_, first) = &runs[0];
    println!("{fn_requests} requests on a 2-instance SCONNA fleet (stochastic engine, batch 8):");
    println!(
        "  top-1 accuracy under load: {:.1}%  ({} / {} correct; exact-engine offline top-1 {:.1}%)",
        100.0 * first.accuracy_under_load,
        first.correct,
        first.serving.completed,
        100.0 * offline_top1,
    );
    for (workers, run) in &runs {
        assert_eq!(
            run.predictions, first.predictions,
            "predictions must be bit-identical across worker counts"
        );
        println!(
            "  workers {workers}: accuracy {:.4} — predictions bit-identical",
            run.accuracy_under_load
        );
    }
    // Arrival ordering cannot move a prediction either: requests are
    // keyed by id, not by schedule.
    let poisson = simulate_serving_functional(
        &fn_cfg
            .clone()
            .with_poisson(first.serving.fps * 0.5)
            .with_seed(11),
        &model,
        &FunctionalWorkload {
            net: &qnet,
            fallback: None,
            fallback_engine: None,
            samples: &test,
            engine: &engine,
            workers: 2,
        },
    );
    assert_eq!(poisson.predictions, first.predictions);
    println!("  Poisson arrivals at 50% load: same {fn_requests} predictions, same accuracy");
}
