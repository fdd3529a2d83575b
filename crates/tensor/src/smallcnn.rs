//! Small trainable CNNs — the in-repo stand-ins for the paper's
//! pretrained ImageNet models in the Table V accuracy experiment (see
//! "Substitutions and calibrations" in ARCHITECTURE.md).
//!
//! Two topologies share one float layer list, aligned layer for layer
//! with the [`QLayer`]s it quantizes into:
//!
//! * **plain** ([`SmallCnn::new`]): conv3×3 → ReLU → maxpool2 → conv3×3 →
//!   ReLU → maxpool2 → FC;
//! * **residual** ([`SmallCnn::residual`]): conv3×3 → ReLU → maxpool2 →
//!   [conv3×3 → ReLU → conv3×3 → +skip → ReLU] → maxpool2 → FC. Table V
//!   observes that larger and residual CNNs tolerate SCONNA's errors
//!   better; the identity skip carries clean activations around the noisy
//!   branch.
//!
//! One forward keeps each layer's output for backprop and calibration,
//! one backward steps plain SGD, and one layer walk post-training-
//! quantizes into a [`QuantizedNetwork`] that runs on any
//! [`crate::engine::VdpEngine`].

use crate::dataset::Sample;
use crate::fp;
use crate::layers::{argmax, MaxPool2d, QConv2d, QFc};
use crate::network::{QLayer, QuantizedNetwork, Residual};
use crate::quant::{ActivationQuant, WeightQuant};
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Architecture hyper-parameters of the plain model.
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

/// Architecture hyper-parameters of the residual model.
#[derive(Debug, Clone, Copy)]
pub struct SmallResNetConfig {
    /// Input side length (must be divisible by 4).
    pub input_size: usize,
    /// Channel width throughout.
    pub channels: usize,
    /// Output classes.
    pub classes: usize,
}

/// One float layer, aligned with the [`QLayer`] it quantizes into.
#[derive(Debug, Clone)]
enum Layer {
    /// 3×3 "same" convolution followed by ReLU; its name is the quantized
    /// conv's, so the noise key is too.
    Conv {
        name: &'static str,
        w: Tensor<f32>,
        b: Vec<f32>,
    },
    /// 2×2 stride-2 max pooling.
    Pool,
    /// Identity-skip block over its branch, which ends in a conv whose
    /// ReLU runs after the merge.
    Residual(Vec<Layer>),
    /// The classifier producing logits.
    Fc { w: Tensor<f32>, b: Vec<f32> },
}

/// What the forward keeps of one layer.
enum Rec {
    /// A conv's ReLU output and its input's im2col patches, which the
    /// backward reuses.
    Conv(Tensor<f32>, Vec<f32>),
    /// The FC's logits.
    Out(Tensor<f32>),
    /// A pool's output and the flat argmax index of each output.
    Pool(Tensor<f32>, Vec<usize>),
    /// A residual block's branch records; the last is the merged output.
    Block(Vec<Rec>),
}

impl Rec {
    fn out(&self) -> &Tensor<f32> {
        match self {
            Rec::Conv(t, _) | Rec::Out(t) | Rec::Pool(t, _) => t,
            Rec::Block(branch) => branch
                .last()
                .expect("invariant: forward pushes a branch's merged output")
                .out(),
        }
    }
}

/// A float-precision small CNN with its trainable parameters.
#[derive(Debug, Clone)]
pub struct SmallCnn {
    layers: Vec<Layer>,
}

/// He-uniform initializer: one seeded stream, drawn in layer order.
struct Init(StdRng);

impl Init {
    /// # Panics
    /// Panics if the input size is not divisible by 4.
    fn new(input_size: usize, seed: u64) -> Self {
        assert!(
            input_size.is_multiple_of(4),
            "input size must be divisible by 4"
        );
        Self(StdRng::seed_from_u64(seed))
    }

    fn draw(&mut self, dims: &[usize], fan_in: usize) -> Tensor<f32> {
        let s = (2.0 / fan_in as f32).sqrt();
        Tensor::from_fn(dims, |_| self.0.gen_range(-s..s))
    }

    fn conv(&mut self, name: &'static str, c_in: usize, c_out: usize) -> Layer {
        Layer::Conv {
            name,
            w: self.draw(&[c_out, c_in, 3, 3], 9 * c_in),
            b: vec![0.0; c_out],
        }
    }

    /// The classifier over `channels` maps of a twice-pooled input.
    fn fc(&mut self, channels: usize, input_size: usize, classes: usize) -> Layer {
        let fc_in = channels * (input_size / 4) * (input_size / 4);
        Layer::Fc {
            w: self.draw(&[classes, fc_in], fc_in),
            b: vec![0.0; classes],
        }
    }
}

impl SmallCnn {
    /// He-initialized plain model.
    ///
    /// # Panics
    /// Panics if the input size is not divisible by 4.
    pub fn new(cfg: SmallCnnConfig, seed: u64) -> Self {
        let mut init = Init::new(cfg.input_size, seed);
        Self {
            layers: vec![
                init.conv("conv1", 1, cfg.channels1),
                Layer::Pool,
                init.conv("conv2", cfg.channels1, cfg.channels2),
                Layer::Pool,
                init.fc(cfg.channels2, cfg.input_size, cfg.classes),
            ],
        }
    }

    /// He-initialized residual model.
    ///
    /// # Panics
    /// Panics if the input size is not divisible by 4.
    pub fn residual(cfg: SmallResNetConfig, seed: u64) -> Self {
        let mut init = Init::new(cfg.input_size, seed);
        let c = cfg.channels;
        Self {
            layers: vec![
                init.conv("stem", 1, c),
                Layer::Pool,
                Layer::Residual(vec![
                    init.conv("block.conv1", c, c),
                    init.conv("block.conv2", c, c),
                ]),
                Layer::Pool,
                init.fc(c, cfg.input_size, cfg.classes),
            ],
        }
    }

    /// Float-precision top-1 accuracy.
    pub fn accuracy(&self, samples: &[Sample]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let ok = samples
            .iter()
            .filter(|s| {
                let recs = forward(&self.layers, &s.image);
                argmax(recs[recs.len() - 1].out().as_slice()) == s.label
            })
            .count();
        ok as f64 / samples.len() as f64
    }

    /// One SGD step on one sample; returns the loss.
    fn sgd_step(&mut self, sample: &Sample, lr: f32) -> f32 {
        let recs = forward(&self.layers, &sample.image);
        let logits = recs[recs.len() - 1].out();
        let (loss, grad) = fp::softmax_cross_entropy(logits.as_slice(), sample.label);
        let grad = Tensor::from_vec(logits.dims(), grad);
        backward(&mut self.layers, &sample.image, &recs, grad, lr, false);
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

    /// Post-training quantization: calibrates every conv's activation
    /// range on `calibration` samples and emits the int-`bits` network.
    /// The input grid spans `[0, 1]`, each conv's output grid its largest
    /// ReLU output, and a residual's merge grid the larger of the merge's
    /// and the skip's maxima.
    ///
    /// # Panics
    /// Panics if the calibration set is empty.
    pub fn quantize(&self, calibration: &[Sample], bits: u8) -> QuantizedNetwork {
        assert!(!calibration.is_empty(), "calibration set must be non-empty");
        let mut maxes: Vec<f32> = Vec::new();
        let mut sample = Vec::new();
        for s in calibration {
            sample.clear();
            conv_maxes(
                &self.layers,
                &s.image,
                &forward(&self.layers, &s.image),
                &mut sample,
            );
            maxes.resize(sample.len(), 0.0);
            for (m, v) in maxes.iter_mut().zip(&sample) {
                *m = m.max(*v);
            }
        }
        let mut act = ActivationQuant::fit(1.0, bits);
        QuantizedNetwork {
            input_quant: act,
            layers: quantize_layers(&self.layers, &mut maxes.into_iter(), &mut act, bits),
        }
    }
}

/// Runs `x` through `layers`, keeping one record per layer.
fn forward(layers: &[Layer], x: &Tensor<f32>) -> Vec<Rec> {
    let mut recs: Vec<Rec> = Vec::with_capacity(layers.len());
    for layer in layers {
        let input = recs.last().map_or(x, Rec::out);
        let rec = match layer {
            Layer::Conv { w, b, .. } => {
                let (mut a, col) = fp::conv_forward(input, w, b, 1);
                fp::relu_in_place(&mut a);
                Rec::Conv(a, col)
            }
            Layer::Pool => {
                let (p, arg) = fp::maxpool2_forward(input);
                Rec::Pool(p, arg)
            }
            Layer::Residual(branch) => {
                let Some((Layer::Conv { w, b, .. }, body)) = branch.split_last() else {
                    panic!("a residual branch must end in a conv");
                };
                let mut inner = forward(body, input);
                let (mut merged, col) =
                    fp::conv_forward(inner.last().map_or(input, Rec::out), w, b, 1);
                for (m, skip) in merged.as_mut_slice().iter_mut().zip(input.as_slice()) {
                    *m += skip;
                }
                fp::relu_in_place(&mut merged);
                inner.push(Rec::Conv(merged, col));
                Rec::Block(inner)
            }
            Layer::Fc { w, b } => {
                let logits = fp::fc_forward(input.as_slice(), w, b);
                Rec::Out(Tensor::from_vec(&[logits.len()], logits))
            }
        };
        recs.push(rec);
    }
    recs
}

/// Backpropagates `grad`, the loss gradient at the last record's output,
/// through `layers` (which ran on `x` and left `recs`), stepping every
/// parameter by SGD at rate `lr` once its gradient is known; returns the
/// gradient at `x`, except that a first conv skips it (returning `None`)
/// unless `input_grad` asks for it. A layer's step comes after its own
/// input gradient, so stepping on the way down matches stepping after the
/// whole pass.
fn backward(
    layers: &mut [Layer],
    x: &Tensor<f32>,
    recs: &[Rec],
    mut grad: Tensor<f32>,
    lr: f32,
    input_grad: bool,
) -> Option<Tensor<f32>> {
    for (i, layer) in layers.iter_mut().enumerate().rev() {
        let input = if i == 0 { x } else { recs[i - 1].out() };
        grad = match (layer, &recs[i]) {
            (Layer::Conv { w, b, .. }, Rec::Conv(a, col)) => {
                // ReLU gates on its output: `a > 0` exactly when `z > 0`.
                let gz = fp::relu_backward(a, &grad);
                let (gx, gw, gb) =
                    fp::conv_backward(input.dims(), col, w, &gz, 1, i > 0 || input_grad);
                step(w.as_mut_slice(), gw.as_slice(), lr);
                step(b, &gb, lr);
                gx?
            }
            (Layer::Pool, Rec::Pool(_, arg)) => fp::maxpool2_backward(input.dims(), arg, &grad),
            (Layer::Residual(branch), Rec::Block(inner)) => {
                // The merge fans its gradient into the branch (whose
                // closing conv gates it by the merged ReLU) and the skip.
                let skip = fp::relu_backward(recs[i].out(), &grad);
                let mut gx = backward(branch, input, inner, grad, lr, true)
                    .expect("invariant: asked for the branch's input gradient");
                for (g, s) in gx.as_mut_slice().iter_mut().zip(skip.as_slice()) {
                    *g += s;
                }
                gx
            }
            (Layer::Fc { w, b }, Rec::Out(_)) => {
                let (gx, gw, gb) = fp::fc_backward(input.as_slice(), w, grad.as_slice());
                step(w.as_mut_slice(), gw.as_slice(), lr);
                step(b, &gb, lr);
                Tensor::from_vec(input.dims(), gx)
            }
            _ => unreachable!("records are aligned with layers by construction"),
        };
    }
    Some(grad)
}

fn step(param: &mut [f32], grad: &[f32], lr: f32) {
    for (p, g) in param.iter_mut().zip(grad) {
        *p -= lr * g;
    }
}

/// Pushes one sample's conv output maxima onto `maxes`, one per conv in
/// layer order. A residual's closing conv pushes the larger of the
/// merge's and the skip's (the block input's) maxima, so the merge grid
/// holds both.
fn conv_maxes(layers: &[Layer], x: &Tensor<f32>, recs: &[Rec], maxes: &mut Vec<f32>) {
    for (i, (layer, rec)) in layers.iter().zip(recs).enumerate() {
        match (layer, rec) {
            (Layer::Conv { .. }, _) => maxes.push(rec.out().max_abs()),
            (Layer::Residual(branch), Rec::Block(inner)) => {
                let input = if i == 0 { x } else { recs[i - 1].out() };
                conv_maxes(branch, input, inner, maxes);
                let merge = maxes
                    .last_mut()
                    .expect("invariant: forward checked that a branch ends in a conv");
                *merge = merge.max(input.max_abs());
            }
            _ => {}
        }
    }
}

/// Quantizes `layers`, taking each conv's calibrated output maximum from
/// `maxes` in layer order; `act` is the incoming activation grid and
/// leaves as the outgoing one.
fn quantize_layers(
    layers: &[Layer],
    maxes: &mut impl Iterator<Item = f32>,
    act: &mut ActivationQuant,
    bits: u8,
) -> Vec<QLayer> {
    let wq = |w: &Tensor<f32>| WeightQuant::fit(w.max_abs().max(1e-6), bits);
    layers
        .iter()
        .map(|layer| match layer {
            Layer::Conv { name, w, b } => {
                let max = maxes
                    .next()
                    .expect("invariant: calibration yields one maximum per conv");
                let out = ActivationQuant::fit(max.max(1e-6), bits);
                let conv = QConv2d::from_float(name, w, b, *act, wq(w), out);
                *act = out;
                QLayer::Conv(conv)
            }
            Layer::Pool => QLayer::MaxPool(MaxPool2d {
                kernel: 2,
                stride: 2,
                padding: 0,
            }),
            Layer::Residual(branch) => {
                let skip = *act;
                let branch = quantize_layers(branch, maxes, act, bits);
                // The skip's codes move onto the merge grid (the closing
                // conv's output) by the scale ratio.
                QLayer::Residual(Residual {
                    branch,
                    skip_rescale: skip.scale / act.scale,
                })
            }
            Layer::Fc { w, b } => {
                let wq = wq(w);
                QLayer::Fc(QFc {
                    name: "fc".into(),
                    weights: wq.quantize_tensor(w),
                    bias: b.clone(),
                    dequant: act.scale * wq.scale,
                })
            }
        })
        .collect()
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
    fn exact_logits_and_top1_are_pinned() {
        // Training, calibration and the exact int8 forward, pinned bit
        // for bit: the final-epoch loss and these logits must not move
        // under a refactor of the float or the quantized path.
        let data = SyntheticDataset::new(6, 12, 0.15, 11);
        let train = data.batch(25, 1);
        let test = data.batch(10, 2);
        let mut net = SmallCnn::new(small_cfg(), 0);
        let loss = net.train(&train, 10, 0.05);
        let qnet = net.quantize(&train, 8);
        let bits: Vec<Vec<u32>> = test[..3]
            .iter()
            .map(|s| {
                let logits = qnet.forward(&s.image, &ExactEngine);
                logits.iter().map(|l| l.to_bits()).collect()
            })
            .collect();
        assert_eq!(loss.to_bits(), 0x3aee_536d, "final-epoch loss {loss}");
        let pinned: [[u32; 6]; 3] = [
            [
                0x40e7_a68d,
                0xc067_7965,
                0xc065_bc82,
                0x3fa4_358e,
                0xbf9a_df52,
                0xc07e_8e2f,
            ],
            [
                0x4103_168e,
                0xc0b1_7d2a,
                0x3e9b_4d58,
                0xbd3b_42a2,
                0xbfc0_0a7f,
                0xc095_7e58,
            ],
            [
                0x40cf_c07a,
                0xc067_22d2,
                0xc022_6788,
                0x3fd8_f77f,
                0xbfb9_cae4,
                0xc083_4585,
            ],
        ];
        assert_eq!(bits, pinned.map(Vec::from));
        assert_eq!(qnet.accuracy(&test, &ExactEngine), 1.0);
    }

    /// FNV-1a over 64-bit words.
    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// One line per quantized layer: every float parameter as its bits,
    /// each weight and bias vector as an FNV-1a checksum.
    fn layer_pins(layers: &[QLayer], out: &mut Vec<String>) {
        let codes = |w: &Tensor<i32>| fnv(w.as_slice().iter().map(|&q| q as u32 as u64));
        for layer in layers {
            match layer {
                QLayer::Conv(c) => out.push(format!(
                    "{} w={:016x} b={:016x} m={:08x}/{}",
                    c.name,
                    codes(&c.weights),
                    fnv(c.bias.iter().map(|b| b.to_bits())),
                    c.requant.multiplier.to_bits(),
                    c.requant.bits
                )),
                QLayer::Residual(r) => {
                    out.push(format!("skip_rescale={:08x}", r.skip_rescale.to_bits()));
                    layer_pins(&r.branch, out);
                }
                QLayer::Fc(f) => out.push(format!(
                    "{} w={:016x} b={:016x} dequant={:08x}",
                    f.name,
                    codes(&f.weights),
                    fnv(f.bias.iter().map(|b| u64::from(b.to_bits()))),
                    f.dequant.to_bits()
                )),
                QLayer::MaxPool(_) | QLayer::GlobalAvgPool => out.push("pool".into()),
            }
        }
    }

    /// `quantize`'s output at 8 bits: the bits of every calibrated
    /// activation scale (the input's first, then each conv's output in
    /// layer order, as calibration fits them) and one pin line per layer.
    fn quantize_pins(net: &SmallCnn, calibration: &[Sample]) -> (Vec<u32>, Vec<String>) {
        let mut maxes: Vec<f32> = Vec::new();
        for s in calibration {
            let mut sample = Vec::new();
            conv_maxes(
                &net.layers,
                &s.image,
                &forward(&net.layers, &s.image),
                &mut sample,
            );
            maxes.resize(sample.len(), 0.0);
            for (m, v) in maxes.iter_mut().zip(&sample) {
                *m = m.max(*v);
            }
        }
        let scales = std::iter::once(1.0)
            .chain(maxes)
            .map(|m| ActivationQuant::fit(m.max(1e-6), 8).scale.to_bits())
            .collect();
        let qnet = net.quantize(calibration, 8);
        assert_eq!(
            qnet.input_quant.scale.to_bits(),
            ActivationQuant::fit(1.0, 8).scale.to_bits()
        );
        let mut lines = Vec::new();
        layer_pins(&qnet.layers, &mut lines);
        (scales, lines)
    }

    #[test]
    fn quantize_is_pinned() {
        // Calibration runs the float forward over the whole set: these
        // bits must not move under a rewrite of the float kernels.
        let data = SyntheticDataset::new(6, 12, 0.15, 11);
        let train = data.batch(25, 1);
        let mut net = SmallCnn::new(small_cfg(), 0);
        net.train(&train, 10, 0.05);
        let (scales, lines) = quantize_pins(&net, &train);
        assert_eq!(scales, [0x3b80_8081, 0x3c8c_6786, 0x3d1b_c18c]);
        assert_eq!(
            lines,
            [
                "conv1 w=59397a745d33d7ce b=4f6055a5c99d713d m=3afce4ef/8",
                "pool",
                "conv2 w=dfc0ed77389e7645 b=e208cb541d106495 m=3b99feab/8",
                "pool",
                "fc w=8d9ff185552238ba b=3b5e2617bfd94f50 dequant=3983ed19",
            ]
        );
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

    /// The residual model's tests.
    mod residual {
        use super::*;

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
            let mut net = SmallCnn::residual(small_cfg(), 0);
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
            let mut net = SmallCnn::residual(small_cfg(), 0);
            let Layer::Residual(branch) = &mut net.layers[2] else {
                panic!("the block follows the stem and its pool");
            };
            for layer in branch {
                if let Layer::Conv { w, .. } = layer {
                    *w = Tensor::zeros(w.dims());
                }
            }
            let stem = |net: &SmallCnn| match &net.layers[0] {
                Layer::Conv { w, .. } => w.clone(),
                _ => panic!("the stem is a conv"),
            };
            let stem_before = stem(&net);
            net.sgd_step(&train[0], 0.05);
            let moved = stem(&net)
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
            let mut net = SmallCnn::residual(small_cfg(), 0);
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
            // Training and the exact int8 forward, pinned bit for bit: the
            // final-epoch loss must not move under a refactor of the float
            // path, and the residual block's signed requantization, skip
            // rescale and saturating merge must reproduce these logits on any
            // forward path.
            let data = SyntheticDataset::new(6, 12, 0.2, 11);
            let train = data.batch(20, 1);
            let test = data.batch(8, 2);
            let mut net = SmallCnn::residual(small_cfg(), 0);
            let loss = net.train(&train, 10, 0.04);
            assert_eq!(loss.to_bits(), 0x3a87_963b, "final-epoch loss {loss}");
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
        fn quantize_is_pinned() {
            let data = SyntheticDataset::new(6, 12, 0.2, 11);
            let train = data.batch(20, 1);
            let mut net = SmallCnn::residual(small_cfg(), 0);
            net.train(&train, 10, 0.04);
            let (scales, lines) = quantize_pins(&net, &train);
            assert_eq!(scales, [0x3b80_8081, 0x3c6e_4d68, 0x3cce_9341, 0x3d3e_5838]);
            assert_eq!(
                lines,
                [
                    "stem w=769f0ca136f8f948 b=4ac68605081a39c5 m=3b14ef7c/8",
                    "pool",
                    "skip_rescale=3ea03ff9",
                    "block.conv1 w=8ee80d2550355088 b=088b3647481a39c5 m=3b231315/8",
                    "block.conv2 w=7696f3a5675218a0 b=6030101e081a39c5 m=3b24e063/8",
                    "pool",
                    "fc w=4f83423923a8f1b3 b=24c3af4c6ba818d3 dequant=398092c3",
                ]
            );
        }

        #[test]
        fn residual_merge_uses_the_skip() {
            // Zero branch weights: the quantized forward must reduce to
            // (rescaled) skip activations, not zeros.
            let data = SyntheticDataset::new(6, 12, 0.2, 11);
            let train = data.batch(10, 1);
            let mut net = SmallCnn::residual(small_cfg(), 0);
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
}
