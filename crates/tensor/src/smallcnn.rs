//! A small trainable CNN — the in-repo stand-in for the paper's
//! pretrained ImageNet models in the Table V accuracy experiment
//! (substitution documented in DESIGN.md §2.3).
//!
//! Topology: conv3×3(pad 1) → ReLU → maxpool2 → conv3×3(pad 1) → ReLU →
//! maxpool2 → FC → logits, trained with plain SGD on the synthetic
//! dataset, then post-training-quantized into a [`QuantizedNetwork`] that
//! runs on any [`crate::engine::VdpEngine`].

use crate::dataset::Sample;
use crate::fp;
use crate::layers::{MaxPool2d, QConv2d, QFc};
use crate::network::{QLayer, QuantizedNetwork};
use crate::quant::{ActivationQuant, WeightQuant};
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Architecture hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct SmallCnnConfig {
    /// Input side length (must be divisible by 4).
    pub input_size: usize,
    /// Channels after conv1.
    pub channels1: usize,
    /// Channels after conv2.
    pub channels2: usize,
    /// Output classes.
    pub classes: usize,
}

impl Default for SmallCnnConfig {
    fn default() -> Self {
        Self {
            input_size: 16,
            channels1: 8,
            channels2: 16,
            classes: 8,
        }
    }
}

/// The float-precision model with its trainable parameters.
#[derive(Debug, Clone)]
pub struct SmallCnn {
    /// Architecture.
    pub cfg: SmallCnnConfig,
    w1: Tensor<f32>,
    b1: Vec<f32>,
    w2: Tensor<f32>,
    b2: Vec<f32>,
    wf: Tensor<f32>,
    bf: Vec<f32>,
}

/// Intermediate activations kept for backprop.
struct Caches {
    x: Tensor<f32>,
    z1: Tensor<f32>,
    a1: Tensor<f32>,
    p1: Tensor<f32>,
    arg1: Vec<usize>,
    z2: Tensor<f32>,
    a2: Tensor<f32>,
    p2: Tensor<f32>,
    arg2: Vec<usize>,
    logits: Vec<f32>,
}

impl SmallCnn {
    /// He-initialized network.
    ///
    /// # Panics
    /// Panics if the input size is not divisible by 4.
    pub fn new(cfg: SmallCnnConfig, seed: u64) -> Self {
        assert!(
            cfg.input_size.is_multiple_of(4),
            "input size must be divisible by 4"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let init = |dims: &[usize], fan_in: usize, rng: &mut StdRng| {
            let s = (2.0 / fan_in as f32).sqrt();
            Tensor::from_fn(dims, |_| rng.gen_range(-s..s))
        };
        let fc_in = cfg.channels2 * (cfg.input_size / 4) * (cfg.input_size / 4);
        let w1 = init(&[cfg.channels1, 1, 3, 3], 9, &mut rng);
        let w2 = init(
            &[cfg.channels2, cfg.channels1, 3, 3],
            9 * cfg.channels1,
            &mut rng,
        );
        let wf = init(&[cfg.classes, fc_in], fc_in, &mut rng);
        Self {
            cfg,
            w1,
            b1: vec![0.0; cfg.channels1],
            w2,
            b2: vec![0.0; cfg.channels2],
            wf,
            bf: vec![0.0; cfg.classes],
        }
    }

    fn forward_cached(&self, x: &Tensor<f32>) -> Caches {
        let z1 = fp::conv_forward(x, &self.w1, &self.b1, 1);
        let a1 = fp::relu_forward(&z1);
        let (p1, arg1) = fp::maxpool2_forward(&a1);
        let z2 = fp::conv_forward(&p1, &self.w2, &self.b2, 1);
        let a2 = fp::relu_forward(&z2);
        let (p2, arg2) = fp::maxpool2_forward(&a2);
        let logits = fp::fc_forward(p2.as_slice(), &self.wf, &self.bf);
        Caches {
            x: x.clone(),
            z1,
            a1,
            p1,
            arg1,
            z2,
            a2,
            p2,
            arg2,
            logits,
        }
    }

    /// Float-precision logits for one image.
    pub fn logits(&self, x: &Tensor<f32>) -> Vec<f32> {
        self.forward_cached(x).logits
    }

    /// Float-precision prediction.
    pub fn predict(&self, x: &Tensor<f32>) -> usize {
        crate::layers::argmax(&self.logits(x))
    }

    /// Float-precision top-1 accuracy.
    pub fn accuracy(&self, samples: &[Sample]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let ok = samples
            .iter()
            .filter(|s| self.predict(&s.image) == s.label)
            .count();
        ok as f64 / samples.len() as f64
    }

    /// One SGD step on one sample; returns the loss.
    pub fn sgd_step(&mut self, sample: &Sample, lr: f32) -> f32 {
        let c = self.forward_cached(&sample.image);
        let (loss, grad_logits) = fp::softmax_cross_entropy(&c.logits, sample.label);

        let (gp2, gwf, gbf) = fp::fc_backward(c.p2.as_slice(), &self.wf, &grad_logits);
        let gp2 = Tensor::from_vec(c.p2.dims(), gp2);
        let ga2 = fp::maxpool2_backward(c.a2.dims(), &c.arg2, &gp2);
        let gz2 = fp::relu_backward(&c.z2, &ga2);
        let (gp1, gw2, gb2) = fp::conv_backward(&c.p1, &self.w2, &gz2, 1);
        let ga1 = fp::maxpool2_backward(c.a1.dims(), &c.arg1, &gp1);
        let gz1 = fp::relu_backward(&c.z1, &ga1);
        let (_, gw1, gb1) = fp::conv_backward(&c.x, &self.w1, &gz1, 1);

        apply(&mut self.w1, &gw1, lr);
        apply_vec(&mut self.b1, &gb1, lr);
        apply(&mut self.w2, &gw2, lr);
        apply_vec(&mut self.b2, &gb2, lr);
        apply(&mut self.wf, &gwf, lr);
        apply_vec(&mut self.bf, &gbf, lr);
        loss
    }

    /// Trains for `epochs` full passes over `samples`; returns the mean
    /// loss of the final epoch.
    pub fn train(&mut self, samples: &[Sample], epochs: usize, lr: f32) -> f32 {
        assert!(!samples.is_empty(), "cannot train on an empty set");
        let mut last = 0.0;
        for _ in 0..epochs {
            last = samples.iter().map(|s| self.sgd_step(s, lr)).sum::<f32>() / samples.len() as f32;
        }
        last
    }

    /// Post-training quantization: calibrates activation ranges on
    /// `calibration` samples and emits the int-`bits` network.
    ///
    /// # Panics
    /// Panics if the calibration set is empty.
    pub fn quantize(&self, calibration: &[Sample], bits: u8) -> QuantizedNetwork {
        assert!(!calibration.is_empty(), "calibration set must be non-empty");
        let mut a1_max = 0.0f32;
        let mut a2_max = 0.0f32;
        for s in calibration {
            let c = self.forward_cached(&s.image);
            a1_max = a1_max.max(c.a1.max_abs());
            a2_max = a2_max.max(c.a2.max_abs());
        }
        let input_q = ActivationQuant::fit(1.0, bits);
        let act1_q = ActivationQuant::fit(a1_max.max(1e-6), bits);
        let act2_q = ActivationQuant::fit(a2_max.max(1e-6), bits);
        let wq1 = WeightQuant::fit(self.w1.max_abs().max(1e-6), bits);
        let wq2 = WeightQuant::fit(self.w2.max_abs().max(1e-6), bits);
        let wqf = WeightQuant::fit(self.wf.max_abs().max(1e-6), bits);

        QuantizedNetwork {
            input_quant: input_q,
            layers: vec![
                QLayer::Conv(QConv2d::from_float(
                    "conv1", &self.w1, &self.b1, input_q, wq1, act1_q,
                )),
                QLayer::MaxPool(MaxPool2d {
                    kernel: 2,
                    stride: 2,
                    padding: 0,
                }),
                QLayer::Conv(QConv2d::from_float(
                    "conv2", &self.w2, &self.b2, act1_q, wq2, act2_q,
                )),
                QLayer::MaxPool(MaxPool2d {
                    kernel: 2,
                    stride: 2,
                    padding: 0,
                }),
                QLayer::Fc(QFc {
                    name: "fc".into(),
                    weights: wqf.quantize_tensor(&self.wf),
                    bias: self.bf.clone(),
                    dequant: act2_q.scale * wqf.scale,
                }),
            ],
        }
    }
}

fn apply(param: &mut Tensor<f32>, grad: &Tensor<f32>, lr: f32) {
    for (p, g) in param.as_mut_slice().iter_mut().zip(grad.as_slice()) {
        *p -= lr * g;
    }
}

fn apply_vec(param: &mut [f32], grad: &[f32], lr: f32) {
    for (p, g) in param.iter_mut().zip(grad) {
        *p -= lr * g;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SyntheticDataset;
    use crate::engine::ExactEngine;

    fn small_cfg() -> SmallCnnConfig {
        SmallCnnConfig {
            input_size: 12,
            channels1: 6,
            channels2: 12,
            classes: 6,
        }
    }

    #[test]
    fn untrained_accuracy_is_chance_level() {
        let data = SyntheticDataset::new(6, 12, 0.1, 11);
        let test = data.batch(10, 1);
        let net = SmallCnn::new(small_cfg(), 0);
        let acc = net.accuracy(&test);
        assert!(acc < 0.6, "untrained accuracy {acc} suspiciously high");
    }

    #[test]
    fn training_reaches_high_accuracy() {
        let data = SyntheticDataset::new(6, 12, 0.15, 11);
        let train = data.batch(25, 1);
        let test = data.batch(10, 2);
        let mut net = SmallCnn::new(small_cfg(), 0);
        let loss = net.train(&train, 10, 0.05);
        let acc = net.accuracy(&test);
        assert!(acc > 0.85, "trained accuracy {acc}, final loss {loss}");
    }

    #[test]
    fn loss_decreases_during_training() {
        let data = SyntheticDataset::new(6, 12, 0.15, 3);
        let train = data.batch(10, 5);
        let mut net = SmallCnn::new(small_cfg(), 0);
        let first = net.train(&train, 1, 0.05);
        let later = net.train(&train, 3, 0.05);
        assert!(later < first, "loss must fall: {first} -> {later}");
    }

    #[test]
    fn quantized_network_tracks_fp_accuracy() {
        let data = SyntheticDataset::new(6, 12, 0.15, 11);
        let train = data.batch(25, 1);
        let test = data.batch(10, 2);
        let mut net = SmallCnn::new(small_cfg(), 0);
        net.train(&train, 10, 0.05);
        let fp_acc = net.accuracy(&test);
        let qnet = net.quantize(&train, 8);
        let q_acc = qnet.accuracy(&test, &ExactEngine);
        assert!(
            (fp_acc - q_acc).abs() <= 0.05,
            "fp {fp_acc} vs int8 {q_acc}"
        );
    }

    #[test]
    fn four_bit_quantization_degrades_more() {
        let data = SyntheticDataset::new(6, 12, 0.15, 11);
        let train = data.batch(25, 1);
        let test = data.batch(10, 2);
        let mut net = SmallCnn::new(small_cfg(), 0);
        net.train(&train, 10, 0.05);
        let q8 = net.quantize(&train, 8).accuracy(&test, &ExactEngine);
        let q4 = net.quantize(&train, 4).accuracy(&test, &ExactEngine);
        assert!(q4 <= q8 + 0.05, "4-bit {q4} should not beat 8-bit {q8}");
    }

    #[test]
    #[should_panic(expected = "divisible by 4")]
    fn odd_input_size_rejected() {
        let _ = SmallCnn::new(
            SmallCnnConfig {
                input_size: 10,
                ..small_cfg()
            },
            0,
        );
    }
}
