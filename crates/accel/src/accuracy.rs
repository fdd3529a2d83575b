//! Inference-accuracy experiments (Table V of the paper).
//!
//! Two complementary experiments replace the paper's PyTorch + ImageNet
//! pipeline (substitution listed under "Substitutions and calibrations"
//! in ARCHITECTURE.md):
//!
//! 1. **End-to-end accuracy** — train the small CNN on the synthetic
//!    dataset, post-training-quantize to int8, and compare Top-1/Top-k
//!    accuracy between the exact integer engine and the SCONNA stochastic
//!    engine (SC rounding + ADC noise). The *drop* is the Table V
//!    quantity.
//! 2. **Layer-error propagation** — for each evaluated CNN architecture,
//!    sample its real layer geometries (S, L), run random-weight VDP
//!    batches through both engines, and report the relative output error.
//!    Deeper/wider vectors average away more SC error, which is exactly
//!    why the paper sees smaller drops on ResNet50/GoogleNet than on
//!    MobileNet_V2.

use crate::engine::SconnaEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sconna_sc::error::rmse;
use sconna_tensor::dataset::{Sample, SyntheticDataset};
use sconna_tensor::engine::{ExactEngine, VdpEngine};
use sconna_tensor::models::CnnModel;
use sconna_tensor::network::QuantizedNetwork;
use sconna_tensor::smallcnn::{SmallCnn, SmallCnnConfig, SmallResNetConfig};
use serde::{Deserialize, Serialize};

/// End-to-end accuracy comparison result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AccuracyResult {
    /// Float-precision Top-1 accuracy.
    pub fp_top1: f64,
    /// Exact int8 Top-1 accuracy.
    pub exact_top1: f64,
    /// Exact int8 Top-k accuracy.
    pub exact_topk: f64,
    /// SCONNA Top-1 accuracy.
    pub sconna_top1: f64,
    /// SCONNA Top-k accuracy.
    pub sconna_topk: f64,
    /// `k` used for the Top-k rows.
    pub k: usize,
    /// Top-1 drop, percentage points (exact − SCONNA).
    pub top1_drop_pct: f64,
    /// Top-k drop, percentage points.
    pub topk_drop_pct: f64,
}

/// Configuration of the end-to-end experiment.
#[derive(Debug, Clone, Copy)]
pub struct AccuracyExperiment {
    /// Classes in the synthetic task.
    pub classes: usize,
    /// Image side.
    pub image_size: usize,
    /// Pixel noise of the dataset.
    pub noise: f32,
    /// Training samples per class.
    pub train_per_class: usize,
    /// Test samples per class.
    pub test_per_class: usize,
    /// SGD epochs.
    pub epochs: usize,
    /// Top-k to report alongside Top-1.
    pub k: usize,
    /// Seed for data/model/engine.
    pub seed: u64,
    /// Worker threads for the test-set evaluation. Evaluation is
    /// worker-count invariant (per-image noise keys), so this only
    /// changes wall time, never the result.
    pub workers: usize,
}

impl Default for AccuracyExperiment {
    fn default() -> Self {
        Self {
            classes: 10,
            image_size: 16,
            noise: 0.25,
            train_per_class: 40,
            test_per_class: 40,
            epochs: 20,
            k: 5,
            seed: 7,
            workers: sconna_sim::parallel::default_workers(),
        }
    }
}

/// A small CNN trained on an experiment's synthetic task and post-
/// training-quantized to int8, with the test set it is scored on.
#[derive(Debug)]
pub struct TrainedModel {
    /// Float-precision Top-1 accuracy, before quantization.
    pub fp_top1: f64,
    /// The int8 network.
    pub qnet: QuantizedNetwork,
    /// The held-out test samples.
    pub test: Vec<Sample>,
}

impl AccuracyExperiment {
    /// Runs the experiment on the plain small CNN.
    pub fn run(&self) -> AccuracyResult {
        self.measure(self.train_plain())
    }

    /// Runs the experiment on the residual small CNN.
    pub fn run_residual(&self) -> AccuracyResult {
        let cfg = SmallResNetConfig {
            input_size: self.image_size,
            channels: 12,
            classes: self.classes,
        };
        self.measure(self.train(SmallCnn::residual(cfg, self.seed), 0.04))
    }

    /// Trains and quantizes the plain small CNN that [`Self::run`]
    /// measures.
    pub fn train_plain(&self) -> TrainedModel {
        let cfg = SmallCnnConfig {
            input_size: self.image_size,
            channels1: 8,
            channels2: 16,
            classes: self.classes,
        };
        self.train(SmallCnn::new(cfg, self.seed), 0.05)
    }

    /// Train → quantize: trains `net` at rate `lr` on the synthetic
    /// task, scores it in float, and post-training-quantizes it to int8,
    /// calibrated on the training set.
    fn train(&self, mut net: SmallCnn, lr: f32) -> TrainedModel {
        let data = SyntheticDataset::new(self.classes, self.image_size, self.noise, self.seed);
        let train = data.batch(self.train_per_class, self.seed.wrapping_add(1));
        let test = data.batch(self.test_per_class, self.seed.wrapping_add(2));
        net.train(&train, self.epochs, lr);
        TrainedModel {
            fp_top1: net.accuracy(&test),
            qnet: net.quantize(&train, 8),
            test,
        }
    }

    /// Evaluates a trained model on both engines. Evaluation
    /// parallelizes over test images (one forward pass per sample yields
    /// both Top-1 and Top-k). Each engine's model is prepared once
    /// (weight-stationary — DKV/LUT stream conversion and narrow GEMM
    /// forms at load, not per image), which by the `vdp_batch_prepared`
    /// contract cannot change a single logit.
    fn measure(&self, model: TrainedModel) -> AccuracyResult {
        let TrainedModel { qnet, test, .. } = &model;
        let exact = ExactEngine;
        let sconna = SconnaEngine::paper_default(self.seed);

        let (exact_top1, exact_topk) = qnet.prepare(&exact).evaluate(test, self.k, self.workers);
        let (sconna_top1, sconna_topk) = qnet.prepare(&sconna).evaluate(test, self.k, self.workers);

        AccuracyResult {
            fp_top1: model.fp_top1,
            exact_top1,
            exact_topk,
            sconna_top1,
            sconna_topk,
            k: self.k,
            top1_drop_pct: 100.0 * (exact_top1 - sconna_top1),
            topk_drop_pct: 100.0 * (exact_topk - sconna_topk),
        }
    }
}

/// Per-architecture layer-error propagation result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayerErrorResult {
    /// Model name.
    pub model: String,
    /// SCONNA VDP output error against the exact engine, as RMSE
    /// normalized by the RMS of the exact outputs, in percent. (MAPE is
    /// the wrong metric here: raw dot products are zero-mean, so
    /// per-sample relative error diverges near zero. The paper's 1.3 %
    /// MAPE applies to the strictly positive PCA rail counts.)
    pub vdp_error_pct: f64,
    /// Mean vector length of the sampled layers (context for the error).
    pub mean_vector_len: f64,
}

/// Runs the layer-error experiment on one architecture: samples up to
/// `max_layers` of its layer geometries, draws `vdps_per_layer` random
/// operand vectors per layer, and measures the SCONNA-vs-exact MAPE.
pub fn layer_error_experiment(
    model: &CnnModel,
    max_layers: usize,
    vdps_per_layer: usize,
    seed: u64,
) -> LayerErrorResult {
    assert!(
        max_layers > 0 && vdps_per_layer > 0,
        "degenerate experiment"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let engine = SconnaEngine::paper_default(seed);
    let mut measured = Vec::new();
    let mut reference = Vec::new();
    let mut len_sum = 0usize;
    let mut layer_count = 0usize;

    let stride = (model.workloads.len() / max_layers).max(1);
    for w in model.workloads.iter().step_by(stride).take(max_layers) {
        layer_count += 1;
        len_sum += w.vector_len;
        for _ in 0..vdps_per_layer {
            let inputs: Vec<u32> = (0..w.vector_len).map(|_| rng.gen_range(0..=255)).collect();
            let weights: Vec<i32> = (0..w.vector_len)
                .map(|_| rng.gen_range(-127..=127))
                .collect();
            reference.push(ExactEngine.vdp(&inputs, &weights));
            // Distinct key per draw: each VDP sees an independent ADC
            // noise realization, as the sequential shared-RNG stream did.
            measured.push(engine.vdp_keyed(&inputs, &weights, measured.len() as u64));
        }
    }

    let rms_ref = (reference.iter().map(|r| r * r).sum::<f64>() / reference.len() as f64).sqrt();
    LayerErrorResult {
        model: model.name.clone(),
        vdp_error_pct: 100.0 * rmse(&measured, &reference) / rms_ref.max(1e-12),
        mean_vector_len: len_sum as f64 / layer_count as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sconna_tensor::models::{mobilenet_v2, resnet50};

    #[test]
    fn table5_shape_small_drop() {
        // The Table V reproduction bar: the SCONNA engine costs only a
        // small Top-1 drop against exact int8 (paper: ≤ 1.5 % for small
        // CNNs — ours is a small CNN, so we allow up to 5 points on the
        // small synthetic test set).
        let result = AccuracyExperiment {
            train_per_class: 15,
            test_per_class: 10,
            epochs: 10,
            ..Default::default()
        }
        .run();
        assert!(result.exact_top1 > 0.8, "exact int8 accuracy {result:?}");
        assert!(
            result.top1_drop_pct <= 8.0,
            "Top-1 drop {} too large",
            result.top1_drop_pct
        );
        assert!(result.sconna_topk >= result.sconna_top1);
    }

    #[test]
    fn accuracy_experiment_is_worker_count_invariant() {
        let base = AccuracyExperiment {
            train_per_class: 8,
            test_per_class: 6,
            epochs: 4,
            workers: 1,
            ..Default::default()
        };
        let serial = base.run();
        for workers in [2usize, 8] {
            let parallel = AccuracyExperiment { workers, ..base }.run();
            assert_eq!(
                serial.sconna_top1, parallel.sconna_top1,
                "{workers} workers"
            );
            assert_eq!(
                serial.sconna_topk, parallel.sconna_topk,
                "{workers} workers"
            );
            assert_eq!(serial.exact_top1, parallel.exact_top1, "{workers} workers");
        }
    }

    #[test]
    fn layer_error_is_small_and_seed_stable() {
        let r1 = layer_error_experiment(&resnet50(), 6, 20, 3);
        let r2 = layer_error_experiment(&resnet50(), 6, 20, 3);
        assert_eq!(r1.vdp_error_pct, r2.vdp_error_pct);
        assert!(
            r1.vdp_error_pct < 30.0,
            "VDP error {} % unexpectedly large",
            r1.vdp_error_pct
        );
    }

    #[test]
    fn longer_vectors_do_not_explode_error() {
        // ResNet50's long vectors should not show categorically worse
        // relative error than MobileNet's short ones (psum accumulation
        // averages SC noise).
        let big = layer_error_experiment(&resnet50(), 6, 10, 5);
        let small = layer_error_experiment(&mobilenet_v2(), 6, 10, 5);
        assert!(big.mean_vector_len > small.mean_vector_len);
        assert!(big.vdp_error_pct < 3.0 * small.vdp_error_pct + 5.0);
    }
}

/// Comparison of the plain small CNN vs the residual small CNN under the
/// same data, training budget and error injection — the capacity/
/// robustness trend of the paper's Table V (large CNNs drop less).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CapacityTrend {
    /// Plain-CNN Top-1 drop, percentage points.
    pub plain_drop_pct: f64,
    /// Residual-CNN Top-1 drop, percentage points.
    pub residual_drop_pct: f64,
    /// Exact int8 accuracies (plain, residual) for context.
    pub exact_top1: (f64, f64),
}

/// Trains both small models on the same synthetic task and measures
/// their Top-1 drops under the SCONNA engine.
pub fn capacity_trend(exp: &AccuracyExperiment) -> CapacityTrend {
    let plain = exp.run();
    let residual = exp.run_residual();
    CapacityTrend {
        plain_drop_pct: plain.top1_drop_pct,
        residual_drop_pct: residual.top1_drop_pct,
        exact_top1: (plain.exact_top1, residual.exact_top1),
    }
}

#[cfg(test)]
mod capacity_tests {
    use super::*;

    #[test]
    #[ignore = "trains 6 small CNNs (~minutes in debug); run with: cargo test -p sconna-accel --release -- --ignored"]
    fn residual_model_is_not_categorically_worse() {
        // The Table V trend: the deeper residual model should hold up at
        // least comparably under SCONNA's error injection. Averaged over
        // seeds to tame small-task variance; lenient slack.
        let mut plain = 0.0;
        let mut residual = 0.0;
        for seed in [7u64, 21, 42] {
            let t = capacity_trend(&AccuracyExperiment {
                seed,
                train_per_class: 20,
                test_per_class: 15,
                epochs: 12,
                ..Default::default()
            });
            assert!(t.exact_top1.0 > 0.7 && t.exact_top1.1 > 0.7, "{t:?}");
            plain += t.plain_drop_pct;
            residual += t.residual_drop_pct;
        }
        assert!(
            residual / 3.0 <= plain / 3.0 + 6.0,
            "residual mean drop {residual} vs plain {plain} (pp x3)"
        );
    }
}
