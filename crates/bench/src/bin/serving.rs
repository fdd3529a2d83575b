//! Serving-simulation sweep: batch size × instance count on a saturated
//! fleet, the traffic-serving dimension behind the paper's FPS headline —
//! plus a functional-serving pass where the fleet *executes* a quantized
//! small CNN through real `vdp_batch` tiles and reports top-1
//! accuracy-under-load.
//!
//! Run with: `cargo run --release -p sconna-bench --bin serving`
//! (`--smoke` runs a tiny configuration for CI).

use sconna_accel::engine::SconnaEngine;
use sconna_accel::organization::AcceleratorConfig;
use sconna_accel::report::format_serving_sweep;
use sconna_accel::serve::{simulate_serving_functional, sweep, FunctionalWorkload, ServingConfig};
use sconna_bench::banner;
use sconna_sim::parallel::default_workers;
use sconna_tensor::dataset::SyntheticDataset;
use sconna_tensor::models::{googlenet, shufflenet_v2};
use sconna_tensor::smallcnn::{SmallCnn, SmallCnnConfig};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    print!(
        "{}",
        banner(
            "Serving sweep — batched multi-instance SCONNA fleet",
            "fleet-level throughput/latency behind the Fig. 9 FPS claim"
        )
    );

    let (model, instances, batches, requests): (_, &[usize], &[usize], usize) = if smoke {
        (shufflenet_v2(), &[1, 2], &[1, 4], 16)
    } else {
        (googlenet(), &[1, 2, 4, 8], &[1, 4, 16, 32], 256)
    };
    println!(
        "model: {} | closed-loop saturation | {requests} requests per point\n",
        model.name
    );

    let configs: Vec<ServingConfig> = instances
        .iter()
        .flat_map(|&i| {
            batches.iter().map(move |&b| {
                ServingConfig::saturation(AcceleratorConfig::sconna(), i, b, requests)
            })
        })
        .collect();
    let reports = sweep(configs, &model, default_workers());
    print!("{}", format_serving_sweep(&reports));

    // Headline: scaling from the smallest to the largest fleet at the
    // largest batch.
    let per_point = batches.len();
    let base = &reports[per_point - 1];
    let top = &reports[reports.len() - 1];
    println!(
        "\n{} -> {} instances at batch {}: {:.2}x served FPS",
        base.instances,
        top.instances,
        top.max_batch,
        top.fps / base.fps
    );

    // Functional pass: the same scheduler, plus every response computed
    // on a prepared quantized model through real stacked vdp_batch
    // tiles — accuracy under load, keyed per request id (invariant to
    // fleet shape and worker count).
    let (epochs, train_pc, test_pc, fn_requests) = if smoke {
        (8usize, 12usize, 6usize, 12usize)
    } else {
        (10, 20, 12, 128)
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
    let engine = SconnaEngine::paper_default(seed);
    let workload = FunctionalWorkload {
        net: &qnet,
        fallback: None,
        fallback_engine: None,
        samples: &test,
        engine: &engine,
        workers: default_workers(),
    };
    println!("\nfunctional serving (stochastic engine, {fn_requests} requests):");
    let mut baseline: Option<Vec<usize>> = None;
    for instances in if smoke {
        vec![1usize, 2]
    } else {
        vec![1usize, 2, 4]
    } {
        let cfg = ServingConfig::saturation(AcceleratorConfig::sconna(), instances, 8, fn_requests);
        let r = simulate_serving_functional(&cfg, &model, &workload);
        println!(
            "  {instances} instance(s): top-1 under load {:.1}%  ({}/{} correct, {:.0} sim FPS)",
            100.0 * r.accuracy_under_load,
            r.correct,
            r.serving.completed,
            r.serving.fps
        );
        match &baseline {
            None => baseline = Some(r.predictions),
            Some(b) => assert_eq!(
                &r.predictions, b,
                "predictions must be invariant to fleet size"
            ),
        }
    }
}
