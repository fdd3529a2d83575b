//! Batched-inference benchmark: wall time of the functional simulator's
//! quantized hot path — the pre-PR single-vector baseline vs the
//! im2col/`vdp_batch` path — on the four evaluated CNN geometries and an
//! end-to-end small CNN, plus the accelerator perf model's simulated
//! FPS. Emits `BENCH_inference.json`, the repo's perf-trajectory
//! baseline.
//!
//! The "before" side is faithful to the seed implementation: per-pixel
//! patch gather with one engine call per (pixel, kernel), and — for the
//! stochastic engine — [`LegacySconnaEngine`], a verbatim reconstruction
//! of the PR 2 hot path (O(B) closed-form products, a `Mutex<StdRng>`
//! serializing every ADC conversion, two full Box-Muller draws per
//! chunk). The "after" side is the shipped path: im2col tiles through
//! `vdp_batch` on the lock-free, LUT-backed engine.
//!
//! Run with: `cargo run --release -p sconna-bench --bin inference`
//! (`--smoke` runs a tiny configuration for CI).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sconna_accel::engine::SconnaEngine;
use sconna_accel::organization::AcceleratorConfig;
use sconna_accel::perf::simulate_inference;
use sconna_bench::banner;
use sconna_photonics::pca::AdcModel;
use sconna_sc::multiply::osm_product_debiased;
use sconna_sc::Precision;
use sconna_tensor::arena::BatchArena;
use sconna_tensor::engine::{
    combine_keys, ExactEngine, PatchMatrix, PreparedWeights, VdpEngine, WeightMatrix,
};
use sconna_tensor::layers::{MaxPool2d, QConv2d, QFc};
use sconna_tensor::models::{all_models, CnnModel};
use sconna_tensor::quant::{ActivationQuant, Requant, WeightQuant};
use sconna_tensor::Tensor;
use std::sync::Mutex;
use std::time::Instant;

/// The PR 2 SCONNA engine, reconstructed for the before/after
/// comparison: closed-form OSM products per element and a shared
/// `Mutex<StdRng>` drawing two sequential Box-Muller conversions per
/// chunk — the lock the new keyed scheme eliminated.
struct LegacySconnaEngine {
    precision: Precision,
    vdpe_size: usize,
    adc: AdcModel,
    rng: Mutex<StdRng>,
}

impl LegacySconnaEngine {
    fn paper_default(seed: u64) -> Self {
        Self {
            precision: Precision::B8,
            vdpe_size: 176,
            adc: AdcModel::sconna_default(),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
        }
    }
}

impl VdpEngine for LegacySconnaEngine {
    fn vdp_keyed(&self, inputs: &[u32], weights: &[i32], _key: u64) -> f64 {
        assert_eq!(inputs.len(), weights.len(), "vector length mismatch");
        let scale = self.precision.stream_len() as f64;
        let qmax = self.precision.max_value();
        let mut total = 0.0f64;
        for (ichunk, wchunk) in inputs
            .chunks(self.vdpe_size)
            .zip(weights.chunks(self.vdpe_size))
        {
            let (mut pos, mut neg) = (0u64, 0u64);
            for (k, (&i, &w)) in ichunk.iter().zip(wchunk).enumerate() {
                let p = osm_product_debiased(
                    i.min(qmax),
                    w.unsigned_abs().min(qmax),
                    self.precision,
                    k,
                ) as u64;
                if w < 0 {
                    neg += p;
                } else {
                    pos += p;
                }
            }
            let ranged = AdcModel {
                full_scale_ones: (ichunk.len() * self.precision.stream_len()) as u64,
                ..self.adc
            };
            let mut rng = self.rng.lock().expect("legacy rng");
            let cp = ranged.convert(pos as f64, &mut *rng);
            let cn = ranged.convert(neg as f64, &mut *rng);
            total += (cp - cn) * scale;
        }
        total
    }

    fn name(&self) -> &'static str {
        "sconna-legacy"
    }
}

struct TileCaps {
    layers: usize,
    patches: usize,
    kernels: usize,
    repeats: usize,
}

/// One engine's tile measurements on one model geometry.
struct TileResult {
    single_s: f64,
    batch_s: f64,
    macs: usize,
}

impl TileResult {
    fn speedup(&self) -> f64 {
        self.single_s / self.batch_s.max(1e-12)
    }
}

/// Times `f` over `repeats` runs and returns the best wall time (seconds).
fn best_time(repeats: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Builds a pseudo-random patch × kernel tile with one model layer's
/// geometry.
fn layer_tile(
    s: usize,
    patches: usize,
    kernels: usize,
    salt: usize,
) -> (PatchMatrix, Vec<i32>, Vec<u64>) {
    let pm = PatchMatrix::from_vec(
        patches,
        s,
        (0..patches * s)
            .map(|i| ((i * 37 + salt) % 256) as u32)
            .collect(),
    );
    let wd: Vec<i32> = (0..kernels * s)
        .map(|i| ((i * 53 + salt) % 255) as i32 - 127)
        .collect();
    let keys: Vec<u64> = (0..patches as u64)
        .map(|p| p.wrapping_mul(0x9E37_79B9))
        .collect();
    (pm, wd, keys)
}

/// Runs the single-vector baseline (per-pair calls on `before`) and the
/// batched tile path (`vdp_batch` on `after`) over the sampled layers of
/// one model.
fn tile_bench(
    model: &CnnModel,
    before: &dyn VdpEngine,
    after: &dyn VdpEngine,
    caps: &TileCaps,
) -> TileResult {
    let stride = (model.workloads.len() / caps.layers).max(1);
    let mut single_s = 0.0;
    let mut batch_s = 0.0;
    let mut macs = 0usize;
    for (li, w) in model
        .workloads
        .iter()
        .step_by(stride)
        .take(caps.layers)
        .enumerate()
    {
        let p = w.ops_per_kernel.min(caps.patches);
        let k = w.kernels.min(caps.kernels);
        let (pm, wd, keys) = layer_tile(w.vector_len, p, k, li);
        let wm = WeightMatrix::new(&wd, k, w.vector_len);
        macs += p * k * w.vector_len;

        single_s += best_time(caps.repeats, || {
            let mut sink = 0.0f64;
            for (pi, &pkey) in keys.iter().enumerate() {
                let prow = pm.row(pi);
                for ki in 0..k {
                    sink += before.vdp_keyed(prow, wm.row(ki), combine_keys(pkey, ki as u64));
                }
            }
            std::hint::black_box(sink);
        });
        batch_s += best_time(caps.repeats, || {
            std::hint::black_box(after.vdp_batch(&pm, &wm, &keys));
        });
    }
    TileResult {
        single_s,
        batch_s,
        macs,
    }
}

/// The end-to-end quantized network (small-CNN topology, pseudo-random
/// codes — training is irrelevant to wall time).
struct E2eNet {
    conv1: QConv2d,
    pool: MaxPool2d,
    conv2: QConv2d,
    fc: QFc,
    input_size: usize,
}

fn e2e_net(input_size: usize) -> E2eNet {
    let aq = ActivationQuant {
        scale: 1.0 / 255.0,
        bits: 8,
    };
    let wq = WeightQuant {
        scale: 1.0 / 127.0,
        bits: 8,
    };
    let conv = |name: &str, l: usize, d: usize| QConv2d {
        name: name.into(),
        weights: Tensor::from_fn(&[l, d, 3, 3], |i| (i % 255) as i32 - 127),
        bias: vec![0.0; l],
        stride: 1,
        padding: 1,
        groups: 1,
        requant: Requant::new(aq, wq, aq),
    };
    let fc_in = 16 * (input_size / 4) * (input_size / 4);
    E2eNet {
        conv1: conv("bench-conv1", 8, 1),
        pool: MaxPool2d {
            kernel: 2,
            stride: 2,
            padding: 0,
        },
        conv2: conv("bench-conv2", 16, 8),
        fc: QFc {
            name: "bench-fc".into(),
            weights: Tensor::from_fn(&[10, fc_in], |i| (i % 255) as i32 - 127),
            bias: vec![0.0; 10],
            dequant: 1.0 / (255.0 * 127.0),
        },
        input_size,
    }
}

/// Per-layer prepared handles of the end-to-end net — built once per
/// engine, outside the timed loop, as a serving instance would at model
/// load.
struct PreparedE2e {
    conv1: Vec<PreparedWeights>,
    conv2: Vec<PreparedWeights>,
    fc: PreparedWeights,
}

impl E2eNet {
    fn image(&self, salt: usize) -> Tensor<u32> {
        Tensor::from_fn(&[1, self.input_size, self.input_size], |i| {
            ((i * 31 + salt * 97) % 256) as u32
        })
    }

    /// Batched hot path with the weights prepared on the fly (what a
    /// single-image `QConv2d::forward` runs).
    fn forward_batched(&self, image: &Tensor<u32>, engine: &dyn VdpEngine) -> Vec<f32> {
        let a = self.conv1.forward(image, engine);
        let a = self.pool.forward(&a);
        let a = self.conv2.forward(&a, engine);
        let a = self.pool.forward(&a);
        self.fc.forward_logits(&a, engine)
    }

    fn prepare(&self, engine: &dyn VdpEngine) -> PreparedE2e {
        PreparedE2e {
            conv1: self.conv1.prepare(engine),
            conv2: self.conv2.prepare(engine),
            fc: self.fc.prepare(engine),
        }
    }

    /// Weight-stationary hot path: same tiles, weights prepared once
    /// (what `PreparedNetwork::forward_batch` runs). Must be bit-equal to
    /// [`E2eNet::forward_batched`].
    fn forward_prepared(
        &self,
        image: &Tensor<u32>,
        engine: &dyn VdpEngine,
        prep: &PreparedE2e,
    ) -> Vec<f32> {
        let arena = BatchArena::new();
        let conv = |layer: &QConv2d, handles: &[PreparedWeights], x: &Tensor<u32>| {
            let key = [layer.layer_key()];
            let out = layer.forward_batch(&[x], engine, handles, &key, 1, &arena);
            out.into_iter().next().expect("one output")
        };
        let a = self.pool.forward(&conv(&self.conv1, &prep.conv1, image));
        let a = self.pool.forward(&conv(&self.conv2, &prep.conv2, &a));
        let key = [self.fc.layer_key()];
        self.fc
            .forward_logits_batch(&[&a], engine, &prep.fc, &key, &arena)
            .pop()
            .expect("one logit row")
    }

    /// Pre-batching baseline: per-pixel patch gather, one single-vector
    /// engine call per (pixel, kernel) / FC row.
    fn forward_single(&self, image: &Tensor<u32>, engine: &dyn VdpEngine) -> Vec<f32> {
        let a = self
            .conv1
            .forward_reference(image, engine, self.conv1.layer_key());
        let a = self.pool.forward(&a);
        let a = self
            .conv2
            .forward_reference(&a, engine, self.conv2.layer_key());
        let a = self.pool.forward(&a);
        self.fc
            .forward_logits_reference(&a, engine, self.fc.layer_key())
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "null".into()
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    print!(
        "{}",
        banner(
            "Batched inference path — single-vector baseline vs im2col/vdp_batch",
            "functional-simulator throughput behind the Fig. 9 sweep capability"
        )
    );

    let caps = if smoke {
        TileCaps {
            layers: 2,
            patches: 8,
            kernels: 8,
            repeats: 1,
        }
    } else {
        TileCaps {
            layers: 8,
            patches: 64,
            kernels: 32,
            repeats: 3,
        }
    };
    let (e2e_images, e2e_repeats) = if smoke { (2usize, 1usize) } else { (8, 3) };

    let exact = ExactEngine;
    let sconna = SconnaEngine::paper_default(42);
    let legacy = LegacySconnaEngine::paper_default(42);
    let sconna_cfg = AcceleratorConfig::sconna();

    // --- Per-model layer tiles ---
    let mut model_rows = Vec::new();
    let mut exact_speedups = Vec::new();
    let mut sconna_speedups = Vec::new();
    println!(
        "{:<14} {:>14} {:>9} {:>14} {:>9} {:>12}",
        "model", "exact MAC/s", "exact ×", "sconna MAC/s", "sconna ×", "sim FPS"
    );
    for model in all_models() {
        let te = tile_bench(&model, &exact, &exact, &caps);
        let ts = tile_bench(&model, &legacy, &sconna, &caps);
        let sim_fps = simulate_inference(&sconna_cfg, &model).fps;
        exact_speedups.push(te.speedup());
        sconna_speedups.push(ts.speedup());
        println!(
            "{:<14} {:>14.3e} {:>8.2}x {:>14.3e} {:>8.2}x {:>12.1}",
            model.name,
            te.macs as f64 / te.batch_s,
            te.speedup(),
            ts.macs as f64 / ts.batch_s,
            ts.speedup(),
            sim_fps
        );
        model_rows.push(format!(
            concat!(
                "    {{\"model\": \"{}\", \"layers_sampled\": {}, \"tile_macs\": {},\n",
                "     \"exact\": {{\"single_s\": {}, \"batch_s\": {}, \"batch_macs_per_s\": {}, \"speedup\": {}}},\n",
                "     \"sconna\": {{\"single_s\": {}, \"batch_s\": {}, \"batch_macs_per_s\": {}, \"speedup\": {}}},\n",
                "     \"simulated_fps_sconna\": {}}}"
            ),
            model.name,
            caps.layers.min(model.workloads.len()),
            te.macs,
            json_num(te.single_s),
            json_num(te.batch_s),
            json_num(te.macs as f64 / te.batch_s),
            json_num(te.speedup()),
            json_num(ts.single_s),
            json_num(ts.batch_s),
            json_num(ts.macs as f64 / ts.batch_s),
            json_num(ts.speedup()),
            json_num(sim_fps),
        ));
    }
    let geo_mean = |v: &[f64]| (v.iter().map(|s| s.ln()).sum::<f64>() / v.len() as f64).exp();
    let geo_mean_exact = geo_mean(&exact_speedups);
    let geo_mean_sconna = geo_mean(&sconna_speedups);

    // --- End-to-end small CNN ---
    let net = e2e_net(16);
    let images: Vec<Tensor<u32>> = (0..e2e_images).map(|i| net.image(i)).collect();
    let run_all = |f: &dyn Fn(&Tensor<u32>) -> Vec<f32>| {
        let mut sink = 0.0f32;
        for img in &images {
            sink += f(img)[0];
        }
        std::hint::black_box(sink);
    };
    let exact_single = best_time(e2e_repeats, || {
        run_all(&|img| net.forward_single(img, &exact));
    });
    let exact_batched = best_time(e2e_repeats, || {
        run_all(&|img| net.forward_batched(img, &exact));
    });
    let sconna_single = best_time(e2e_repeats, || {
        run_all(&|img| net.forward_single(img, &legacy));
    });
    let sconna_batched = best_time(e2e_repeats, || {
        run_all(&|img| net.forward_batched(img, &sconna));
    });
    let exact_speedup = exact_single / exact_batched.max(1e-12);
    let sconna_speedup = sconna_single / sconna_batched.max(1e-12);

    // --- Prepared (weight-stationary) end-to-end paths ---
    // The PR 4 bugfix target: the exact engine used to re-derive its
    // narrow-GEMM i16 weight form every row-block call; PreparedWeights
    // hoists it (and SCONNA's DKV/LUT stream conversion) to model load.
    let exact_prep = net.prepare(&exact);
    let sconna_prep = net.prepare(&sconna);
    // Preparation must not move a single logit bit.
    for img in &images {
        assert_eq!(
            net.forward_prepared(img, &exact, &exact_prep),
            net.forward_batched(img, &exact),
            "exact prepared e2e diverged"
        );
        assert_eq!(
            net.forward_prepared(img, &sconna, &sconna_prep),
            net.forward_batched(img, &sconna),
            "sconna prepared e2e diverged"
        );
    }
    let exact_prepared = best_time(e2e_repeats, || {
        run_all(&|img| net.forward_prepared(img, &exact, &exact_prep));
    });
    let sconna_prepared = best_time(e2e_repeats, || {
        run_all(&|img| net.forward_prepared(img, &sconna, &sconna_prep));
    });
    let exact_prepared_over_batched = exact_batched / exact_prepared.max(1e-12);
    let sconna_prepared_over_batched = sconna_batched / sconna_prepared.max(1e-12);

    // Worker-count invariance of the parallel conv forward on the noisy
    // engine: 1 / 2 / 8 workers must agree bit for bit.
    let probe = net.pool.forward(&net.conv1.forward(&images[0], &sconna));
    let arena = BatchArena::new();
    let key = [net.conv2.layer_key()];
    let conv2 = |w| {
        net.conv2
            .forward_batch(&[&probe], &sconna, &sconna_prep.conv2, &key, w, &arena)
    };
    let w1 = conv2(1);
    let invariant = [2usize, 8].iter().all(|&w| conv2(w) == w1);

    println!("\nend-to-end small CNN ({e2e_images} images, 16x16):");
    println!(
        "  exact : single {exact_single:.4}s  batched {exact_batched:.4}s  -> {exact_speedup:.2}x"
    );
    println!(
        "  sconna: legacy single {sconna_single:.4}s  batched {sconna_batched:.4}s  -> {sconna_speedup:.2}x"
    );
    println!(
        "  prepared weights: exact {exact_prepared:.4}s ({exact_prepared_over_batched:.2}x vs batched)  sconna {sconna_prepared:.4}s ({sconna_prepared_over_batched:.2}x vs batched)"
    );
    println!("  conv worker invariance (1/2/8): {invariant}");
    println!("  geo-mean tile speedup: exact {geo_mean_exact:.2}x  sconna {geo_mean_sconna:.2}x");

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"inference\",\n",
            "  \"mode\": \"{}\",\n",
            "  \"tiles\": [\n{}\n  ],\n",
            "  \"geo_mean_tile_speedup_exact\": {},\n",
            "  \"geo_mean_tile_speedup_sconna\": {},\n",
            "  \"e2e_small_cnn\": {{\n",
            "    \"images\": {},\n",
            "    \"exact\": {{\"single_s\": {}, \"batched_s\": {}, \"speedup\": {},\n",
            "              \"prepared_s\": {}, \"prepared_over_batched\": {}}},\n",
            "    \"sconna\": {{\"single_s\": {}, \"batched_s\": {}, \"speedup\": {},\n",
            "               \"prepared_s\": {}, \"prepared_over_batched\": {}}},\n",
            "    \"fps_exact_batched\": {},\n",
            "    \"worker_invariant_1_2_8\": {}\n",
            "  }}\n",
            "}}\n"
        ),
        if smoke { "smoke" } else { "full" },
        model_rows.join(",\n"),
        json_num(geo_mean_exact),
        json_num(geo_mean_sconna),
        e2e_images,
        json_num(exact_single),
        json_num(exact_batched),
        json_num(exact_speedup),
        json_num(exact_prepared),
        json_num(exact_prepared_over_batched),
        json_num(sconna_single),
        json_num(sconna_batched),
        json_num(sconna_speedup),
        json_num(sconna_prepared),
        json_num(sconna_prepared_over_batched),
        json_num(e2e_images as f64 / exact_batched),
        invariant,
    );
    if smoke {
        // Smoke numbers (tiny tiles, one repeat) are not a baseline;
        // leave the checked-in full-mode record untouched so a local or
        // CI smoke run can never clobber the perf trajectory.
        println!("\nsmoke mode: BENCH_inference.json (full-mode baseline) left untouched");
    } else {
        std::fs::write("BENCH_inference.json", &json).expect("write BENCH_inference.json");
        println!("\nwrote BENCH_inference.json");
    }

    assert!(invariant, "worker-count invariance violated");
    if !smoke {
        // Perf-trajectory gates: the headline before/after claim (the
        // stochastic-engine hot path that motivated this rebuild) plus
        // regression floors for the end-to-end paths.
        assert!(
            geo_mean_sconna >= 5.0,
            "sconna before/after tile speedup collapsed: {geo_mean_sconna:.2}x < 5x"
        );
        assert!(
            sconna_speedup >= 2.0 && exact_speedup >= 1.2,
            "batched e2e path regressed: sconna {sconna_speedup:.2}x exact {exact_speedup:.2}x"
        );
        // The weight-stationary bugfix gate: hoisting the per-row-block
        // weight derivation must not regress the exact-engine end-to-end
        // path (0.9 floor absorbs single-core run-to-run variance; the
        // recorded delta is the trajectory).
        assert!(
            exact_prepared_over_batched >= 0.9,
            "prepared exact e2e regressed: {exact_prepared_over_batched:.2}x vs batched"
        );
    }
}
