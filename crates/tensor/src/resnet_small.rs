//! A small *residual* CNN — the deeper counterpart of
//! [`crate::smallcnn::SmallCnn`] in the accuracy study.
//!
//! The paper's Table V observes that larger CNNs (ResNet50, GoogleNet)
//! tolerate SCONNA's errors better than small ones (MobileNet_V2).
//! Reproducing that *trend* needs two trainable models of different
//! robustness; this one adds an identity-skip residual block, whose skip
//! path carries clean activations around the noisy branch — the
//! structural reason deeper residual nets degrade less under per-layer
//! compute noise.
//!
//! Topology: conv3×3(c) → ReLU → maxpool2 → [conv3×3(c) → ReLU →
//! conv3×3(c) → +skip → ReLU] → maxpool2 → FC. Int8 quantization
//! yields a [`QuantizedNetwork`] whose block is a [`Residual`]: the
//! branch's second conv requantizes to the merge scale and the merge
//! saturates.

use crate::dataset::Sample;
use crate::fp;
use crate::layers::{MaxPool2d, QConv2d, QFc};
use crate::network::{QLayer, QuantizedNetwork, Residual};
use crate::quant::{ActivationQuant, WeightQuant};
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Architecture hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct SmallResNetConfig {
    /// Input side length (divisible by 4).
    pub input_size: usize,
    /// Channel width throughout.
    pub channels: usize,
    /// Output classes.
    pub classes: usize,
}

impl Default for SmallResNetConfig {
    fn default() -> Self {
        Self {
            input_size: 16,
            channels: 12,
            classes: 10,
        }
    }
}

/// Float-precision residual model.
#[derive(Debug, Clone)]
pub struct SmallResNet {
    /// Architecture.
    pub cfg: SmallResNetConfig,
    w_stem: Tensor<f32>,
    b_stem: Vec<f32>,
    w1: Tensor<f32>,
    b1: Vec<f32>,
    w2: Tensor<f32>,
    b2: Vec<f32>,
    wf: Tensor<f32>,
    bf: Vec<f32>,
}

struct Caches {
    x: Tensor<f32>,
    z0: Tensor<f32>,
    a0: Tensor<f32>,
    p0: Tensor<f32>,
    arg0: Vec<usize>,
    z1: Tensor<f32>,
    a1: Tensor<f32>,
    r: Tensor<f32>,
    a2: Tensor<f32>,
    p2: Tensor<f32>,
    arg2: Vec<usize>,
    logits: Vec<f32>,
}

impl SmallResNet {
    /// He-initialized model.
    ///
    /// # Panics
    /// Panics if the input size is not divisible by 4.
    pub fn new(cfg: SmallResNetConfig, seed: u64) -> Self {
        assert!(
            cfg.input_size.is_multiple_of(4),
            "input size must be divisible by 4"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let init = |dims: &[usize], fan_in: usize, rng: &mut StdRng| {
            let s = (2.0 / fan_in as f32).sqrt();
            Tensor::from_fn(dims, |_| rng.gen_range(-s..s))
        };
        let c = cfg.channels;
        let fc_in = c * (cfg.input_size / 4) * (cfg.input_size / 4);
        Self {
            cfg,
            w_stem: init(&[c, 1, 3, 3], 9, &mut rng),
            b_stem: vec![0.0; c],
            w1: init(&[c, c, 3, 3], 9 * c, &mut rng),
            b1: vec![0.0; c],
            w2: init(&[c, c, 3, 3], 9 * c, &mut rng),
            b2: vec![0.0; c],
            wf: init(&[cfg.classes, fc_in], fc_in, &mut rng),
            bf: vec![0.0; cfg.classes],
        }
    }

    fn forward_cached(&self, x: &Tensor<f32>) -> Caches {
        let z0 = fp::conv_forward(x, &self.w_stem, &self.b_stem, 1);
        let a0 = fp::relu_forward(&z0);
        let (p0, arg0) = fp::maxpool2_forward(&a0);
        let z1 = fp::conv_forward(&p0, &self.w1, &self.b1, 1);
        let a1 = fp::relu_forward(&z1);
        let z2 = fp::conv_forward(&a1, &self.w2, &self.b2, 1);
        // Residual merge.
        let r = Tensor::from_fn(z2.dims(), |i| z2.as_slice()[i] + p0.as_slice()[i]);
        let a2 = fp::relu_forward(&r);
        let (p2, arg2) = fp::maxpool2_forward(&a2);
        let logits = fp::fc_forward(p2.as_slice(), &self.wf, &self.bf);
        Caches {
            x: x.clone(),
            z0,
            a0,
            p0,
            arg0,
            z1,
            a1,
            r,
            a2,
            p2,
            arg2,
            logits,
        }
    }

    /// Float logits.
    pub fn logits(&self, x: &Tensor<f32>) -> Vec<f32> {
        self.forward_cached(x).logits
    }

    /// Float Top-1 accuracy.
    pub fn accuracy(&self, samples: &[Sample]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let ok = samples
            .iter()
            .filter(|s| crate::layers::argmax(&self.logits(&s.image)) == s.label)
            .count();
        ok as f64 / samples.len() as f64
    }

    /// One SGD step; returns the loss.
    pub fn sgd_step(&mut self, sample: &Sample, lr: f32) -> f32 {
        let c = self.forward_cached(&sample.image);
        let (loss, grad_logits) = fp::softmax_cross_entropy(&c.logits, sample.label);

        let (gp2, gwf, gbf) = fp::fc_backward(c.p2.as_slice(), &self.wf, &grad_logits);
        let gp2 = Tensor::from_vec(c.p2.dims(), gp2);
        let ga2 = fp::maxpool2_backward(c.a2.dims(), &c.arg2, &gp2);
        let gr = fp::relu_backward(&c.r, &ga2);
        // The merge fans the gradient into the branch and the skip.
        let (ga1, gw2, gb2) = fp::conv_backward(&c.a1, &self.w2, &gr, 1);
        let gz1 = fp::relu_backward(&c.z1, &ga1);
        let (gp0_branch, gw1, gb1) = fp::conv_backward(&c.p0, &self.w1, &gz1, 1);
        let gp0 = Tensor::from_fn(gp0_branch.dims(), |i| {
            gp0_branch.as_slice()[i] + gr.as_slice()[i]
        });
        let ga0 = fp::maxpool2_backward(c.a0.dims(), &c.arg0, &gp0);
        let gz0 = fp::relu_backward(&c.z0, &ga0);
        let (_, gw_stem, gb_stem) = fp::conv_backward(&c.x, &self.w_stem, &gz0, 1);

        step(&mut self.w_stem, &gw_stem, lr);
        step_vec(&mut self.b_stem, &gb_stem, lr);
        step(&mut self.w1, &gw1, lr);
        step_vec(&mut self.b1, &gb1, lr);
        step(&mut self.w2, &gw2, lr);
        step_vec(&mut self.b2, &gb2, lr);
        step(&mut self.wf, &gwf, lr);
        step_vec(&mut self.bf, &gbf, lr);
        loss
    }

    /// Trains for `epochs` passes; returns the final-epoch mean loss.
    pub fn train(&mut self, samples: &[Sample], epochs: usize, lr: f32) -> f32 {
        assert!(!samples.is_empty(), "cannot train on an empty set");
        let mut last = 0.0;
        for _ in 0..epochs {
            last = samples.iter().map(|s| self.sgd_step(s, lr)).sum::<f32>() / samples.len() as f32;
        }
        last
    }

    /// Post-training quantization into the residual int8 network.
    ///
    /// # Panics
    /// Panics on an empty calibration set.
    pub fn quantize(&self, calibration: &[Sample], bits: u8) -> QuantizedNetwork {
        assert!(!calibration.is_empty(), "calibration set must be non-empty");
        let mut a0_max = 0f32;
        let mut a1_max = 0f32;
        let mut a2_max = 0f32;
        for s in calibration {
            let c = self.forward_cached(&s.image);
            a0_max = a0_max.max(c.a0.max_abs());
            a1_max = a1_max.max(c.a1.max_abs());
            a2_max = a2_max.max(c.a2.max_abs());
        }
        let input_q = ActivationQuant::fit(1.0, bits);
        let act0_q = ActivationQuant::fit(a0_max.max(1e-6), bits);
        let act1_q = ActivationQuant::fit(a1_max.max(1e-6), bits);
        // The merge output saturates into the skip scale; calibrating on
        // a2 keeps headroom for the sum.
        let act2_q = ActivationQuant::fit(a2_max.max(1e-6).max(a0_max), bits);
        let wq = |w: &Tensor<f32>| WeightQuant::fit(w.max_abs().max(1e-6), bits);
        let conv = |name, w, b, in_q, out_q| {
            QLayer::Conv(QConv2d::from_float(name, w, b, in_q, wq(w), out_q))
        };
        let wqf = wq(&self.wf);
        let pool = QLayer::MaxPool(MaxPool2d {
            kernel: 2,
            stride: 2,
            padding: 0,
        });
        QuantizedNetwork {
            input_quant: input_q,
            layers: vec![
                conv("stem", &self.w_stem, &self.b_stem, input_q, act0_q),
                pool.clone(),
                QLayer::Residual(Residual {
                    branch: vec![
                        conv("block.conv1", &self.w1, &self.b1, act0_q, act1_q),
                        conv("block.conv2", &self.w2, &self.b2, act1_q, act2_q),
                    ],
                    // Skip and branch meet at act2 scale: requantize p0
                    // codes from act0 to act2 via the scale ratio.
                    skip_rescale: act0_q.scale / act2_q.scale,
                }),
                pool,
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

fn step(param: &mut Tensor<f32>, grad: &Tensor<f32>, lr: f32) {
    for (p, g) in param.as_mut_slice().iter_mut().zip(grad.as_slice()) {
        *p -= lr * g;
    }
}

fn step_vec(param: &mut [f32], grad: &[f32], lr: f32) {
    for (p, g) in param.iter_mut().zip(grad) {
        *p -= lr * g;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SyntheticDataset;
    use crate::engine::ExactEngine;

    fn small_cfg() -> SmallResNetConfig {
        SmallResNetConfig {
            input_size: 12,
            channels: 8,
            classes: 6,
        }
    }

    #[test]
    fn training_learns_the_task() {
        let data = SyntheticDataset::new(6, 12, 0.2, 11);
        let train = data.batch(20, 1);
        let test = data.batch(8, 2);
        let mut net = SmallResNet::new(small_cfg(), 0);
        let first = net.train(&train, 1, 0.04);
        let last = net.train(&train, 9, 0.04);
        assert!(last < first, "loss must fall: {first} -> {last}");
        let acc = net.accuracy(&test);
        assert!(acc > 0.8, "residual net accuracy {acc}");
    }

    #[test]
    fn skip_gradient_reaches_the_stem() {
        // With the block weights zeroed, gradients still flow to the stem
        // through the identity skip (the whole point of the residual).
        let data = SyntheticDataset::new(6, 12, 0.2, 3);
        let train = data.batch(4, 1);
        let mut net = SmallResNet::new(small_cfg(), 0);
        net.w1 = Tensor::zeros(net.w1.dims());
        net.w2 = Tensor::zeros(net.w2.dims());
        let stem_before = net.w_stem.clone();
        net.sgd_step(&train[0], 0.05);
        let moved = net
            .w_stem
            .as_slice()
            .iter()
            .zip(stem_before.as_slice())
            .any(|(a, b)| a != b);
        assert!(moved, "stem weights must receive gradient through the skip");
    }

    #[test]
    fn quantized_matches_fp_accuracy() {
        let data = SyntheticDataset::new(6, 12, 0.2, 11);
        let train = data.batch(20, 1);
        let test = data.batch(8, 2);
        let mut net = SmallResNet::new(small_cfg(), 0);
        net.train(&train, 10, 0.04);
        let fp_acc = net.accuracy(&test);
        let q_acc = net.quantize(&train, 8).accuracy(&test, &ExactEngine);
        assert!(
            (fp_acc - q_acc).abs() <= 0.11,
            "fp {fp_acc} vs int8 {q_acc}"
        );
    }

    #[test]
    fn exact_logits_and_top1_are_pinned() {
        // The exact int8 forward, pinned bit for bit: the residual block's
        // signed requantization, skip rescale and saturating merge must
        // reproduce these logits on any forward path.
        let data = SyntheticDataset::new(6, 12, 0.2, 11);
        let train = data.batch(20, 1);
        let test = data.batch(8, 2);
        let mut net = SmallResNet::new(small_cfg(), 0);
        net.train(&train, 10, 0.04);
        let qnet = net.quantize(&train, 8);
        let bits: Vec<Vec<u32>> = test[..3]
            .iter()
            .map(|s| {
                let logits = qnet.forward(&s.image, &ExactEngine);
                logits.iter().map(|l| l.to_bits()).collect()
            })
            .collect();
        let pinned: [[u32; 6]; 3] = [
            [
                0x4116_7646,
                0xc093_c34c,
                0xc09f_e248,
                0x401a_0618,
                0xc038_a035,
                0xc01f_c478,
            ],
            [
                0x4107_7425,
                0xc0d4_d593,
                0xbce6_cf48,
                0x3f60_18ef,
                0xbf58_1c89,
                0xc087_abea,
            ],
            [
                0x4108_bf9f,
                0xc08d_ca7b,
                0xc078_12ba,
                0x4039_ea80,
                0xc02f_71ba,
                0xc057_cc6d,
            ],
        ];
        assert_eq!(bits, pinned.map(Vec::from));
        assert_eq!(qnet.accuracy(&test, &ExactEngine), 1.0);
    }

    #[test]
    fn residual_merge_uses_the_skip() {
        // Zero branch weights: the quantized forward must reduce to
        // (rescaled) skip activations, not zeros.
        let data = SyntheticDataset::new(6, 12, 0.2, 11);
        let train = data.batch(10, 1);
        let mut net = SmallResNet::new(small_cfg(), 0);
        net.train(&train, 4, 0.04);
        let mut qnet = net.quantize(&train, 8);
        let QLayer::Residual(block) = &mut qnet.layers[2] else {
            panic!("the block follows the stem and its pool");
        };
        let QLayer::Conv(conv2) = &mut block.branch[1] else {
            panic!("the branch closes with a conv");
        };
        conv2.weights = Tensor::zeros(conv2.weights.dims());
        let logits = qnet.forward(&train[0].image, &ExactEngine);
        assert!(
            logits.iter().any(|&l| l.abs() > 1e-6),
            "skip path must carry signal when the branch is dead"
        );
    }
}
