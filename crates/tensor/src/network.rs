//! Quantized network container: an ordered stack of quantized layers that
//! runs end-to-end on any [`VdpEngine`]. Layers nest: a
//! [`QLayer::Residual`] block holds its own branch of layers and merges
//! it with the block's input, so one walk serves plain and residual
//! networks alike.
//!
//! A network has exactly two forwards, one fast and one oracle:
//!
//! * **Fast** — [`PreparedNetwork`] binds the network to one engine and
//!   transforms every layer's weights into that engine's weight-stationary
//!   [`crate::engine::PreparedWeights`] form **once at model load**;
//!   [`PreparedNetwork::forward_batch`] then runs whole batches through
//!   stacked, arena-backed tiles ([`QConv2d::forward_batch`],
//!   [`QFc::forward_logits_batch`]). Accuracy evaluation and serving
//!   instances run this path.
//! * **Oracle** — [`QuantizedNetwork::forward_keyed`] walks the per-pair
//!   references ([`QConv2d::forward_reference`],
//!   [`QFc::forward_logits_reference`]): one
//!   [`VdpEngine::vdp_keyed`] call per accumulator under the same keys.
//!   The fast path is property-tested bit-identical against it.

use crate::arena::BatchArena;
use crate::engine::{combine_keys, PreparedWeights, VdpEngine};
use crate::layers::{GlobalAvgPool, MaxPool2d, QConv2d, QFc};
use crate::quant::{ActivationQuant, Requant};
use crate::tensor::Tensor;
use sconna_sim::parallel::{block_ranges, parallel_map_with};

/// Images per chunk of [`PreparedNetwork::evaluate`]: each chunk stacks
/// its images into shared tiles.
const EVAL_CHUNK: usize = 16;

/// One layer of a quantized network.
#[derive(Debug, Clone)]
pub enum QLayer {
    /// Quantized convolution (ReLU folded into requantization).
    Conv(QConv2d),
    /// Max pooling on codes.
    MaxPool(MaxPool2d),
    /// Global average pooling to a rank-1 tensor.
    GlobalAvgPool,
    /// Identity-skip residual block.
    Residual(Residual),
    /// Final classifier producing logits; must be last.
    Fc(QFc),
}

/// Identity-skip residual block, merged by the int8 residual-add rule
/// (Jacob et al., CVPR 2018): `branch` runs on the block's input and its
/// closing conv requantizes **signed** (no ReLU clamp) onto the merge
/// grid; the block's input codes (the skip) are rescaled onto that grid,
/// and the sum is ReLU'd and saturated —
/// `clamp(pre + min(round(skip · skip_rescale), qmax), 0, qmax)`, `qmax`
/// being the closing conv's code ceiling.
#[derive(Debug, Clone)]
pub struct Residual {
    /// Branch layers; the last must be a [`QLayer::Conv`].
    pub branch: Vec<QLayer>,
    /// Skip scale over merge scale: maps the block's input codes onto the
    /// closing conv's output grid.
    pub skip_rescale: f32,
}

impl Residual {
    /// The branch split into its body and closing conv.
    ///
    /// # Panics
    /// Panics unless the branch ends in a conv.
    fn split(&self) -> (&[QLayer], &QConv2d) {
        match self.branch.split_last() {
            Some((QLayer::Conv(close), body)) => (body, close),
            _ => panic!("a residual branch must end in a conv"),
        }
    }

    /// The merge of one output: the closing conv's biased accumulator
    /// `acc`, requantized signed, plus the `skip` code rescaled and
    /// saturated onto the same grid, ReLU'd and saturated.
    fn merge(&self, close: &QConv2d, acc: f64, skip: u32) -> u32 {
        let qmax = (1u32 << close.requant.bits) - 1;
        let skip = ((skip as f32 * self.skip_rescale).round() as u32).min(qmax);
        (close.requant.apply_signed(acc) as i64 + skip as i64).clamp(0, qmax as i64) as u32
    }
}

/// An integer-quantized CNN.
#[derive(Debug, Clone)]
pub struct QuantizedNetwork {
    /// Input image quantizer.
    pub input_quant: ActivationQuant,
    /// Layers in execution order; the last must be [`QLayer::Fc`].
    pub layers: Vec<QLayer>,
}

/// Panics unless the closing conv maps `inner` onto the skip's shape.
fn check_skip(close: &QConv2d, inner: &Tensor<u32>, skip: &Tensor<u32>) {
    let (h, w) = close.output_hw(inner.dims()[1], inner.dims()[2]);
    let out = [close.weights.dims()[0], h, w];
    assert_eq!(
        out,
        skip.dims(),
        "residual branch must keep the skip's shape"
    );
}

/// The oracle walk of `layers` (no FC) from `act` for the image keyed
/// `image_key`.
fn walk_reference(
    layers: &[QLayer],
    mut act: Tensor<u32>,
    engine: &dyn VdpEngine,
    image_key: u64,
) -> Tensor<u32> {
    for layer in layers {
        act = match layer {
            QLayer::Conv(conv) => {
                conv.forward_reference(&act, engine, combine_keys(image_key, conv.layer_key()))
            }
            QLayer::MaxPool(pool) => pool.forward(&act),
            QLayer::GlobalAvgPool => GlobalAvgPool.forward(&act),
            QLayer::Residual(block) => {
                let (body, close) = block.split();
                let inner = walk_reference(body, act.clone(), engine, image_key);
                check_skip(close, &inner, &act);
                let key = combine_keys(image_key, close.layer_key());
                close.forward_reference_with(&inner, engine, key, |i, acc| {
                    block.merge(close, acc, act.as_slice()[i])
                })
            }
            QLayer::Fc(_) => panic!("FC must be the final layer"),
        };
    }
    act
}

/// [`QuantizedNetwork::with_weight_bits`] over `layers`.
fn weight_bits(layers: &[QLayer], bits: u8) -> Vec<QLayer> {
    layers
        .iter()
        .map(|layer| match layer {
            QLayer::Conv(conv) => QLayer::Conv(conv.with_weight_bits(bits)),
            QLayer::Residual(block) => QLayer::Residual(Residual {
                branch: weight_bits(&block.branch, bits),
                skip_rescale: block.skip_rescale,
            }),
            QLayer::Fc(fc) => QLayer::Fc(fc.with_weight_bits(bits)),
            weight_free => weight_free.clone(),
        })
        .collect()
}

/// Ratio an activation scale grows by when an `old`-bit range is re-fit
/// onto the `bits`-bit grid (1 when it already fits).
fn act_ratio(old: u8, bits: u8) -> f64 {
    if bits >= old {
        1.0
    } else {
        (((1u32 << old) - 1) as f64) / (((1u32 << bits) - 1) as f64)
    }
}

/// [`QuantizedNetwork::degraded`] over `layers`, tracking in `in_ratio`
/// the scale growth of the incoming activation grid: each conv's
/// requantizer couples its input scale, weight scale and output scale,
/// and all three move.
fn degrade_layers(layers: &[QLayer], bits: u8, in_ratio: &mut f64) -> Vec<QLayer> {
    layers
        .iter()
        .map(|layer| match layer {
            QLayer::Conv(conv) => {
                let narrowed = conv.with_weight_bits(bits);
                let w_ratio = narrowed.requant.multiplier as f64 / conv.requant.multiplier as f64;
                let out_ratio = act_ratio(conv.requant.bits, bits);
                let next = QConv2d {
                    // Accumulator units shrink by the input and weight
                    // re-scaling; the output grid supplies the new
                    // requantization target.
                    bias: narrowed.bias.iter().map(|b| b / *in_ratio).collect(),
                    requant: Requant {
                        multiplier: (conv.requant.multiplier as f64 * *in_ratio * w_ratio
                            / out_ratio) as f32,
                        bits: bits.min(conv.requant.bits),
                    },
                    ..narrowed
                };
                *in_ratio = out_ratio;
                QLayer::Conv(next)
            }
            QLayer::Residual(block) => {
                // The skip bridges the block's input grid and the merge
                // grid (the closing conv's output): it follows both.
                let skip_ratio = *in_ratio;
                let branch = degrade_layers(&block.branch, bits, in_ratio);
                QLayer::Residual(Residual {
                    branch,
                    skip_rescale: (block.skip_rescale as f64 * skip_ratio / *in_ratio) as f32,
                })
            }
            QLayer::Fc(fc) => {
                let narrowed = fc.with_weight_bits(bits);
                let w_ratio = narrowed.dequant as f64 / fc.dequant as f64;
                QLayer::Fc(QFc {
                    dequant: (fc.dequant as f64 * *in_ratio * w_ratio) as f32,
                    ..narrowed
                })
            }
            weight_free => weight_free.clone(),
        })
        .collect()
}

impl QuantizedNetwork {
    /// Runs a real-valued image through the network on the given engine
    /// and returns the class logits ([`QuantizedNetwork::forward_keyed`]
    /// under image key 0).
    ///
    /// # Panics
    /// Panics if the network does not end in an FC layer or an FC layer
    /// appears before the end.
    pub fn forward(&self, image: &Tensor<f32>, engine: &dyn VdpEngine) -> Vec<f32> {
        self.forward_keyed(image, engine, 0)
    }

    /// The network oracle: runs one image through the per-pair layer
    /// references with an **image key** mixed into every layer's noise
    /// key (residual branches included). Distinct keys give stochastic
    /// engines statistically independent noise per image, while the
    /// result stays a pure function of `(image, key)`.
    /// [`PreparedNetwork::forward_batch`] reproduces it bit for bit at any
    /// batch composition and worker count.
    pub fn forward_keyed(
        &self,
        image: &Tensor<f32>,
        engine: &dyn VdpEngine,
        image_key: u64,
    ) -> Vec<f32> {
        let (body, fc) = self.split_head();
        let input = self.input_quant.quantize_tensor(image);
        let act = walk_reference(body, input, engine, image_key);
        fc.forward_logits_reference(&act, engine, combine_keys(image_key, fc.layer_key()))
    }

    /// The layers before the FC classifier, and the classifier.
    fn split_head(&self) -> (&[QLayer], &QFc) {
        match self.layers.split_last() {
            None => panic!("network has no layers: it must end in an FC classifier"),
            Some((QLayer::Fc(fc), body)) => (body, fc),
            Some(_) => panic!("network must end in an FC classifier"),
        }
    }

    /// Predicted class for an image.
    pub fn predict(&self, image: &Tensor<f32>, engine: &dyn VdpEngine) -> usize {
        crate::layers::argmax(&self.forward(image, engine))
    }

    /// Binds this network to `engine`, preparing every layer's weights
    /// into the engine's weight-stationary form once.
    pub fn prepare<'a>(&'a self, engine: &'a dyn VdpEngine) -> PreparedNetwork<'a> {
        PreparedNetwork::new(self, engine)
    }

    /// A low-weight-precision copy of this network — the **fallback
    /// model** an overloaded serving fleet degrades shed requests to
    /// (`accel::serve`'s `Degrade` admission policy): every weighted
    /// layer's codes are re-fit onto the symmetric `bits`-bit grid with
    /// the layer scales adjusted to match, so the represented real
    /// weights move by at most half a new quantization step while VDP
    /// streams shorten from `2^B_old` to `2^bits` symbols. Weight-free
    /// layers and the activation quantizers are shared unchanged.
    ///
    /// Requantizing to a precision the codes already fit is the identity,
    /// so `with_weight_bits` composes monotonically: degrading an already
    /// degraded network never sharpens it.
    ///
    /// # Panics
    /// Panics if `bits` is not in `2..=16`.
    pub fn with_weight_bits(&self, bits: u8) -> QuantizedNetwork {
        QuantizedNetwork {
            input_quant: self.input_quant,
            layers: weight_bits(&self.layers, bits),
        }
    }

    /// The **full low-precision fallback**: weights *and* activation
    /// codes re-fit onto `bits`-bit grids, every layer scale adjusted so
    /// the represented real values are preserved to the coarser grids'
    /// resolution. Unlike [`QuantizedNetwork::with_weight_bits`] (which
    /// touches only weights), the result is a genuine `bits`-bit network
    /// whose codes fit a `bits`-bit stochastic engine — run it on one
    /// (`Precision::new(bits)`) and the streams shorten `2^B / 2^bits`×
    /// while the range-matched ADC keeps the signal-to-noise ratio of the
    /// native operating point. This is the fallback model
    /// `accel::serve`'s `Degrade` admission policy executes shed
    /// requests on.
    ///
    /// Activation quantizers already at or below `bits` are left
    /// untouched, so degrading is monotone here too.
    ///
    /// # Panics
    /// Panics if `bits` is not in `2..=16`.
    pub fn degraded(&self, bits: u8) -> QuantizedNetwork {
        assert!(
            (2..=16).contains(&bits),
            "degraded precision must be in 2..=16, got {bits}"
        );
        let q = self.input_quant;
        let mut in_ratio = act_ratio(q.bits, bits);
        QuantizedNetwork {
            // A ratio of 1 leaves the scale's bits unchanged.
            input_quant: ActivationQuant {
                scale: (q.scale as f64 * in_ratio) as f32,
                bits: bits.min(q.bits),
            },
            layers: degrade_layers(&self.layers, bits, &mut in_ratio),
        }
    }

    /// Top-1 and Top-k accuracy in one forward pass per sample,
    /// parallelized over images. Sample `i` runs under image key `i`, so
    /// the result is worker-count invariant and reproducible. Weights are
    /// prepared once for the whole evaluation (weight-stationary), which
    /// cannot change the result — only the wall time.
    pub fn evaluate(
        &self,
        samples: &[crate::dataset::Sample],
        k: usize,
        engine: &dyn VdpEngine,
        workers: usize,
    ) -> (f64, f64) {
        self.prepare(engine).evaluate(samples, k, workers)
    }

    /// Top-1 accuracy over a labelled set.
    pub fn accuracy(&self, samples: &[crate::dataset::Sample], engine: &dyn VdpEngine) -> f64 {
        self.evaluate(samples, 1, engine, 1).0
    }

    /// Top-k accuracy over a labelled set.
    pub fn top_k_accuracy(
        &self,
        samples: &[crate::dataset::Sample],
        k: usize,
        engine: &dyn VdpEngine,
    ) -> f64 {
        self.evaluate(samples, k, engine, 1).1
    }
}

/// Per-layer prepared weight handles, aligned with
/// [`QuantizedNetwork::layers`].
enum PreparedLayer {
    /// Convolution: one handle per channel group.
    Conv(Vec<PreparedWeights>),
    /// Weight-free layer (pooling): nothing to prepare.
    Direct,
    /// Residual block: its branch's handles, aligned with the branch.
    Residual(Vec<PreparedLayer>),
    /// Classifier head: one handle.
    Fc(PreparedWeights),
}

fn prepare_layers(layers: &[QLayer], engine: &dyn VdpEngine) -> Vec<PreparedLayer> {
    layers
        .iter()
        .map(|layer| match layer {
            QLayer::Conv(conv) => PreparedLayer::Conv(conv.prepare(engine)),
            QLayer::MaxPool(_) | QLayer::GlobalAvgPool => PreparedLayer::Direct,
            QLayer::Residual(block) => {
                PreparedLayer::Residual(prepare_layers(&block.branch, engine))
            }
            QLayer::Fc(fc) => PreparedLayer::Fc(fc.prepare(engine)),
        })
        .collect()
}

/// Each image's base key for the layer keyed `layer_key`.
fn layer_keys(image_keys: &[u64], layer_key: u64) -> Vec<u64> {
    image_keys
        .iter()
        .map(|&k| combine_keys(k, layer_key))
        .collect()
}

/// A batch's activations mid-walk. Tensors drawn from the arena
/// (`pooled`) go back to it once the next layer has consumed them.
struct Acts {
    tensors: Vec<Tensor<u32>>,
    pooled: bool,
}

impl Acts {
    fn release(self, arena: &BatchArena) {
        if self.pooled {
            for t in self.tensors {
                arena.recycle(t);
            }
        }
    }
}

/// A [`QuantizedNetwork`] bound to one engine, with every layer's weights
/// transformed into the engine's weight-stationary
/// [`PreparedWeights`] form at construction — the in-simulator mirror of
/// loading a model onto an accelerator instance: DKV/LUT conversion and
/// narrow-form derivation happen once, then every request reuses them.
///
/// Its batched forward is bit-identical to the
/// [`QuantizedNetwork::forward_keyed`] oracle under the same keys, so
/// preparation is purely a wall-time optimization — property-tested in
/// `tests/batch_parity.rs`.
///
/// ```
/// use sconna_tensor::arena::BatchArena;
/// use sconna_tensor::engine::ExactEngine;
/// # use sconna_tensor::network::{QLayer, QuantizedNetwork};
/// # use sconna_tensor::layers::QFc;
/// # use sconna_tensor::quant::ActivationQuant;
/// # use sconna_tensor::Tensor;
/// # let net = QuantizedNetwork {
/// #     input_quant: ActivationQuant { scale: 1.0 / 255.0, bits: 8 },
/// #     layers: vec![QLayer::GlobalAvgPool, QLayer::Fc(QFc {
/// #         name: "fc".into(),
/// #         weights: Tensor::from_vec(&[2, 1], vec![127, -127]),
/// #         bias: vec![0.0, 0.0],
/// #         dequant: 1.0,
/// #     })],
/// # };
/// let engine = ExactEngine;
/// let prepared = net.prepare(&engine); // once, at model load
/// let arena = BatchArena::new();       // once per serving instance
/// let image = Tensor::from_fn(&[1, 4, 4], |_| 0.5);
/// let logits = prepared.forward_batch(&[&image], &[7], &arena); // per batch
/// assert_eq!(logits[0], net.forward_keyed(&image, &engine, 7)); // the oracle
/// ```
pub struct PreparedNetwork<'a> {
    net: &'a QuantizedNetwork,
    engine: &'a dyn VdpEngine,
    layers: Vec<PreparedLayer>,
}

impl<'a> PreparedNetwork<'a> {
    /// Prepares every layer of `net` for `engine`.
    pub fn new(net: &'a QuantizedNetwork, engine: &'a dyn VdpEngine) -> Self {
        Self {
            net,
            engine,
            layers: prepare_layers(&net.layers, engine),
        }
    }

    /// Runs a whole serving batch through the network with **stacked
    /// tiles**: at every multiplying layer, the im2col patches (or
    /// feature vectors) of all images share one batched-VDP tile, so each
    /// layer's prepared weights are fetched once per row block for the
    /// entire batch. Image `b` runs under `image_keys[b]`; the result is
    /// bit-identical to the [`QuantizedNetwork::forward_keyed`] oracle for
    /// any batch composition. The forward runs on the calling thread;
    /// callers parallelize over images or batches (as
    /// [`PreparedNetwork::evaluate`] does), sharing one `arena`.
    ///
    /// Every im2col scratch tile and conv activation tensor is drawn from
    /// `arena`, and conv outputs go back to it as soon as the next layer
    /// has consumed them — a residual block's input only once its merge
    /// has read the skip (recycled buffers are re-zeroed; noise keys are
    /// pure coordinate functions). Pooling layers allocate their own
    /// small outputs, which are dropped, so the pool never holds more
    /// than the conv activations one batch has live at once per
    /// concurrent caller (one set, plus two per enclosing residual
    /// block), however many batches run through it. Callers with no
    /// long-lived arena pass `&BatchArena::new()`.
    ///
    /// # Panics
    /// Panics if `image_keys` is not one key per image, the images
    /// disagree in shape, or the network does not end in its FC layer.
    pub fn forward_batch(
        &self,
        images: &[&Tensor<f32>],
        image_keys: &[u64],
        arena: &BatchArena,
    ) -> Vec<Vec<f32>> {
        assert_eq!(image_keys.len(), images.len(), "one image key per image");
        if images.is_empty() {
            return Vec::new();
        }
        let input: Vec<Tensor<u32>> = images
            .iter()
            .map(|im| self.net.input_quant.quantize_tensor(im))
            .collect();
        let (body, fc) = self.net.split_head();
        let feats = self.walk(body, &self.layers, &input, image_keys, arena);
        let PreparedLayer::Fc(handle) = &self.layers[body.len()] else {
            unreachable!("prepared layers are aligned by construction");
        };
        let refs: Vec<&Tensor<u32>> = feats
            .as_ref()
            .map_or(&input, |a| &a.tensors)
            .iter()
            .collect();
        let keys = layer_keys(image_keys, fc.layer_key());
        let logits = fc.forward_logits_batch(&refs, self.engine, handle, &keys, arena);
        if let Some(feats) = feats {
            feats.release(arena);
        }
        logits
    }

    /// Runs `layers` (no FC) over the batch `input` with their aligned
    /// `prepared` handles; `None` when `layers` is empty. `input` is
    /// borrowed, so it is never recycled here.
    fn walk(
        &self,
        layers: &[QLayer],
        prepared: &[PreparedLayer],
        input: &[Tensor<u32>],
        image_keys: &[u64],
        arena: &BatchArena,
    ) -> Option<Acts> {
        let mut acts: Option<Acts> = None;
        for (layer, prep) in layers.iter().zip(prepared) {
            let current = acts.as_ref().map_or(input, |a| &a.tensors);
            let next = self.layer(layer, prep, current, image_keys, arena);
            if let Some(consumed) = acts.replace(next) {
                consumed.release(arena);
            }
        }
        acts
    }

    /// One layer of [`PreparedNetwork::walk`].
    fn layer(
        &self,
        layer: &QLayer,
        prep: &PreparedLayer,
        input: &[Tensor<u32>],
        image_keys: &[u64],
        arena: &BatchArena,
    ) -> Acts {
        let (tensors, pooled) = match (layer, prep) {
            (QLayer::Conv(conv), PreparedLayer::Conv(handles)) => {
                let refs: Vec<&Tensor<u32>> = input.iter().collect();
                let keys = layer_keys(image_keys, conv.layer_key());
                let out = conv.forward_batch(&refs, self.engine, handles, &keys, arena);
                (out, true)
            }
            (QLayer::MaxPool(pool), _) => (input.iter().map(|a| pool.forward(a)).collect(), false),
            (QLayer::GlobalAvgPool, _) => (
                input.iter().map(|a| GlobalAvgPool.forward(a)).collect(),
                false,
            ),
            (QLayer::Residual(block), PreparedLayer::Residual(prepared)) => {
                // The block's input is the skip: it stays borrowed, out
                // of the arena, until the merge below has read it.
                let (body, close) = block.split();
                let PreparedLayer::Conv(handles) = &prepared[body.len()] else {
                    unreachable!("prepared layers are aligned by construction");
                };
                let inner = self.walk(body, prepared, input, image_keys, arena);
                let branch_out = inner.as_ref().map_or(input, |a| &a.tensors);
                check_skip(close, &branch_out[0], &input[0]);
                let refs: Vec<&Tensor<u32>> = branch_out.iter().collect();
                let keys = layer_keys(image_keys, close.layer_key());
                let merge =
                    |b: usize, i: usize, acc| block.merge(close, acc, input[b].as_slice()[i]);
                let out =
                    close.forward_batch_with(&refs, self.engine, handles, &keys, arena, merge);
                if let Some(inner) = inner {
                    inner.release(arena);
                }
                (out, true)
            }
            (QLayer::Fc(_), _) => panic!("FC must be the final layer"),
            _ => unreachable!("prepared layers are aligned by construction"),
        };
        Acts { tensors, pooled }
    }

    /// Predicted classes for a whole batch (argmax of
    /// [`PreparedNetwork::forward_batch`]) — the steady-state call of a
    /// long-lived serving instance.
    pub fn predict_batch(
        &self,
        images: &[&Tensor<f32>],
        image_keys: &[u64],
        arena: &BatchArena,
    ) -> Vec<usize> {
        self.forward_batch(images, image_keys, arena)
            .iter()
            .map(|logits| crate::layers::argmax(logits))
            .collect()
    }

    /// Top-1 and Top-k accuracy, parallelized over fixed chunks of 16
    /// images that share one arena. Sample `i` runs under
    /// image key `i`, so the result is independent of the chunking and
    /// the worker count.
    pub fn evaluate(
        &self,
        samples: &[crate::dataset::Sample],
        k: usize,
        workers: usize,
    ) -> (f64, f64) {
        if samples.is_empty() {
            return (0.0, 0.0);
        }
        let arena = BatchArena::new();
        let chunks = block_ranges(samples.len(), EVAL_CHUNK);
        let hits = parallel_map_with(chunks, workers, |range| {
            let chunk = &samples[range.clone()];
            let images: Vec<&Tensor<f32>> = chunk.iter().map(|s| &s.image).collect();
            let keys: Vec<u64> = range.map(|i| i as u64).collect();
            let mut hits = (0, 0);
            for (logits, s) in self.forward_batch(&images, &keys, &arena).iter().zip(chunk) {
                hits.0 += usize::from(crate::layers::argmax(logits) == s.label);
                hits.1 += usize::from(crate::layers::top_k(logits, k).contains(&s.label));
            }
            hits
        });
        let n = samples.len() as f64;
        let top1 = hits.iter().map(|h| h.0).sum::<usize>() as f64 / n;
        let topk = hits.iter().map(|h| h.1).sum::<usize>() as f64 / n;
        (top1, topk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Sample;
    use crate::engine::{mix_key, ExactEngine};
    use crate::layers::argmax;
    use crate::quant::{Requant, WeightQuant};

    fn tiny_network() -> QuantizedNetwork {
        let aq = ActivationQuant {
            scale: 1.0 / 255.0,
            bits: 8,
        };
        let wq = WeightQuant {
            scale: 1.0 / 127.0,
            bits: 8,
        };
        QuantizedNetwork {
            input_quant: aq,
            layers: vec![
                QLayer::Conv(QConv2d {
                    name: "c1".into(),
                    weights: Tensor::from_vec(&[2, 1, 1, 1], vec![127, -127]),
                    bias: vec![0.0, 0.0],
                    stride: 1,
                    padding: 0,
                    groups: 1,
                    requant: Requant::new(aq, wq, aq),
                }),
                QLayer::MaxPool(MaxPool2d {
                    kernel: 2,
                    stride: 2,
                    padding: 0,
                }),
                QLayer::GlobalAvgPool,
                QLayer::Fc(QFc {
                    name: "fc".into(),
                    weights: Tensor::from_vec(&[2, 2], vec![127, 0, 0, 127]),
                    bias: vec![0.0, 0.0],
                    dequant: aq.scale * wq.scale,
                }),
            ],
        }
    }

    /// One channel through a 1x1 stem and a residual block whose branch
    /// moves onto a 2x coarser merge grid and whose closing conv negates
    /// at half weight.
    fn tiny_residual_network() -> QuantizedNetwork {
        let aq = ActivationQuant {
            scale: 1.0 / 255.0,
            bits: 8,
        };
        let mid = ActivationQuant {
            scale: 2.0 / 255.0,
            bits: 8,
        };
        let wq = WeightQuant {
            scale: 1.0 / 127.0,
            bits: 8,
        };
        let conv = |name: &str, w: i32, input: ActivationQuant, out: ActivationQuant| {
            QLayer::Conv(QConv2d {
                name: name.into(),
                weights: Tensor::from_vec(&[1, 1, 1, 1], vec![w]),
                bias: vec![0.0],
                stride: 1,
                padding: 0,
                groups: 1,
                requant: Requant::new(input, wq, out),
            })
        };
        QuantizedNetwork {
            input_quant: aq,
            layers: vec![
                conv("stem", 127, aq, aq),
                QLayer::Residual(Residual {
                    branch: vec![conv("b1", 127, aq, mid), conv("b2", -64, mid, mid)],
                    skip_rescale: aq.scale / mid.scale,
                }),
                QLayer::GlobalAvgPool,
                QLayer::Fc(QFc {
                    name: "fc".into(),
                    weights: Tensor::from_vec(&[1, 1], vec![127]),
                    bias: vec![0.0],
                    dequant: mid.scale * wq.scale,
                }),
            ],
        }
    }

    /// Exact dot products plus a large key-dependent offset, so a
    /// prediction depends on the image key its sample runs under.
    struct KeyNoise;

    impl VdpEngine for KeyNoise {
        fn vdp_keyed(&self, inputs: &[u32], weights: &[i32], key: u64) -> f64 {
            ExactEngine.vdp(inputs, weights) + (mix_key(key) % 20_001) as f64 - 10_000.0
        }

        fn name(&self) -> &'static str {
            "key-noise"
        }
    }

    #[test]
    fn chunked_evaluate_matches_per_sample_oracle() {
        // A prime-sized set: every chunking leaves a partial last chunk.
        let net = tiny_network();
        let samples: Vec<Sample> = (0..37)
            .map(|i| Sample {
                image: Tensor::from_fn(&[1, 4, 4], |p| ((i * 7 + p * 3) % 11) as f32 / 100.0),
                label: i % 2,
            })
            .collect();
        assert_ne!(samples.len() % EVAL_CHUNK, 0);
        let hits = |engine: &dyn VdpEngine| -> Vec<bool> {
            samples
                .iter()
                .enumerate()
                .map(|(i, s)| argmax(&net.forward_keyed(&s.image, engine, i as u64)) == s.label)
                .collect()
        };
        let oracle = hits(&KeyNoise);
        assert_ne!(
            oracle,
            hits(&ExactEngine),
            "the noise must move predictions"
        );
        let want = oracle.iter().filter(|&&hit| hit).count() as f64 / 37.0;
        for workers in [1, 2, 3] {
            let (top1, _) = net.evaluate(&samples, 1, &KeyNoise, workers);
            assert_eq!(top1, want, "{workers} workers");
        }
    }

    #[test]
    fn residual_block_merges_signed_branch_with_rescaled_skip() {
        // Input code 128 passes the stem, b1 halves it onto the merge
        // grid (64), the closing conv requantizes -64·64/127 to -32
        // *signed*, the skip rescales 128·0.5 to 64, and the merge gives
        // 32. An unsigned closing conv would give 64, an unscaled skip 96,
        // and a merge that read b1's output instead of the skip 0.
        let net = tiny_residual_network();
        let image = Tensor::from_fn(&[1, 2, 2], |_| 0.5);
        let QLayer::Fc(fc) = &net.layers[3] else {
            panic!("fc last")
        };
        let want = vec![(32 * 127) as f32 * fc.dequant];
        assert_eq!(net.forward_keyed(&image, &ExactEngine, 3), want);
        let prepared = net.prepare(&ExactEngine);
        assert_eq!(
            prepared.forward_batch(&[&image], &[3], &BatchArena::new()),
            vec![want]
        );
    }

    #[test]
    fn degraded_residual_network_at_native_precision_is_identity() {
        let net = tiny_residual_network();
        assert_eq!(
            format!("{:?}", net.degraded(8)),
            format!("{net:?}"),
            "an 8-bit network degraded to 8 bits must not move a bit"
        );
        // Below native precision the skip follows the grids it bridges:
        // the block's input and the merge grid grow by the same ratio.
        let deg = net.degraded(4);
        let QLayer::Residual(block) = &deg.layers[1] else {
            panic!("block second")
        };
        assert_eq!(block.skip_rescale, 0.5);
    }

    #[test]
    fn forward_produces_logits() {
        let net = tiny_network();
        let image = Tensor::from_fn(&[1, 4, 4], |i| i as f32 / 16.0);
        let logits = net.forward(&image, &ExactEngine);
        assert_eq!(logits.len(), 2);
        // Channel 0 passes the (bright) image through, channel 1 is its
        // negation ReLU'd to zero → logit 0 must dominate.
        assert!(logits[0] > logits[1]);
        assert_eq!(net.predict(&image, &ExactEngine), 0);
    }

    #[test]
    fn accuracy_on_trivial_set() {
        use crate::dataset::Sample;
        let net = tiny_network();
        let bright = Sample {
            image: Tensor::from_fn(&[1, 4, 4], |_| 0.9),
            label: 0,
        };
        let acc = net.accuracy(std::slice::from_ref(&bright), &ExactEngine);
        assert_eq!(acc, 1.0);
        let top2 = net.top_k_accuracy(&[bright], 2, &ExactEngine);
        assert_eq!(top2, 1.0);
    }

    #[test]
    fn empty_sample_set_is_zero_accuracy() {
        let net = tiny_network();
        assert_eq!(net.accuracy(&[], &ExactEngine), 0.0);
        assert_eq!(net.evaluate(&[], 2, &ExactEngine, 4), (0.0, 0.0));
    }

    #[test]
    fn prepared_forward_matches_unprepared() {
        // The prepared tile path against the per-pair oracle.
        let net = tiny_network();
        let prepared = net.prepare(&ExactEngine);
        let arena = BatchArena::new();
        for key in [0u64, 7, 9999] {
            let image = Tensor::from_fn(&[1, 4, 4], |i| ((i as u64 * 13 + key) % 16) as f32 / 16.0);
            assert_eq!(
                prepared.forward_batch(&[&image], &[key], &arena),
                vec![net.forward_keyed(&image, &ExactEngine, key)]
            );
        }
    }

    #[test]
    fn batch_forward_matches_per_image_forwards() {
        // Stacked whole-batch tiles must be bit-identical to running the
        // images one by one.
        let net = tiny_network();
        let prepared = net.prepare(&ExactEngine);
        let images: Vec<Tensor<f32>> = (0..5)
            .map(|b| Tensor::from_fn(&[1, 4, 4], |i| ((b * 7 + i) % 16) as f32 / 16.0))
            .collect();
        let refs: Vec<&Tensor<f32>> = images.iter().collect();
        let keys: Vec<u64> = (0..5u64).map(|b| b * 1000 + 3).collect();
        let arena = BatchArena::new();
        let singles: Vec<Vec<f32>> = refs
            .iter()
            .zip(&keys)
            .flat_map(|(im, &k)| prepared.forward_batch(&[im], &[k], &arena))
            .collect();
        assert_eq!(prepared.forward_batch(&refs, &keys, &arena), singles);
        // Predictions come straight off the batch logits.
        let preds = prepared.predict_batch(&refs, &keys, &arena);
        assert_eq!(preds.len(), 5);
        let empty = prepared.forward_batch(&[], &[], &arena);
        assert_eq!(empty, Vec::<Vec<f32>>::new());
    }

    #[test]
    fn arena_pool_stays_bounded_across_batches() {
        // Only arena-drawn conv outputs go back to the pool, so any number
        // of batches through one arena leaves at most the sets a batch
        // holds at once pooled: one for a plain network, three inside a
        // residual block (its input, the branch output, the merge).
        let images: Vec<Tensor<f32>> = (0..3)
            .map(|b| Tensor::from_fn(&[1, 4, 4], |i| ((b * 5 + i) % 16) as f32 / 16.0))
            .collect();
        let refs: Vec<&Tensor<f32>> = images.iter().collect();
        for (net, live_sets) in [(tiny_network(), 1), (tiny_residual_network(), 3)] {
            let prepared = net.prepare(&ExactEngine);
            let arena = BatchArena::new();
            for _ in 0..10 {
                prepared.forward_batch(&refs, &[1, 2, 3], &arena);
            }
            assert!(arena.pooled_tensors() <= live_sets * refs.len());
        }
    }

    #[test]
    fn with_weight_bits_at_native_precision_is_identity() {
        // The tiny network's codes already span the 8-bit grid exactly,
        // so requantizing to 8 bits must not move a code or a scale.
        let net = tiny_network();
        let same = net.with_weight_bits(8);
        let (QLayer::Conv(a), QLayer::Conv(b)) = (&net.layers[0], &same.layers[0]) else {
            panic!("conv first");
        };
        assert_eq!(a.weights.as_slice(), b.weights.as_slice());
        assert_eq!(a.requant.multiplier, b.requant.multiplier);
        let (QLayer::Fc(fa), QLayer::Fc(fb)) = (&net.layers[3], &same.layers[3]) else {
            panic!("fc last");
        };
        assert_eq!(fa.weights.as_slice(), fb.weights.as_slice());
        assert_eq!(fa.dequant, fb.dequant);
    }

    #[test]
    fn with_weight_bits_preserves_represented_weights_within_half_step() {
        let net = tiny_network();
        for bits in [2u8, 4, 6] {
            let degraded = net.with_weight_bits(bits);
            let qmax = (1i32 << (bits - 1)) - 1;
            let (QLayer::Conv(orig), QLayer::Conv(deg)) = (&net.layers[0], &degraded.layers[0])
            else {
                panic!("conv first");
            };
            let ratio = deg.requant.multiplier as f64 / orig.requant.multiplier as f64;
            for (&o, &d) in orig.weights.as_slice().iter().zip(deg.weights.as_slice()) {
                assert!(d.abs() <= qmax, "{bits}-bit code {d} out of range");
                // Real weight o·s vs d·(s·ratio): within half a new step.
                assert!(
                    (o as f64 - d as f64 * ratio).abs() <= ratio / 2.0 + 1e-9,
                    "bits {bits}: code {o} -> {d} (ratio {ratio})"
                );
            }
        }
    }

    #[test]
    fn degraded_network_still_classifies_the_trivial_set() {
        // 4-bit weights coarsen the filters but the bright-image argmax
        // survives — the accuracy-for-availability trade the serving
        // fleet's Degrade policy exploits.
        let net = tiny_network().with_weight_bits(4);
        let image = Tensor::from_fn(&[1, 4, 4], |_| 0.9);
        assert_eq!(net.predict(&image, &ExactEngine), 0);
        // Degrading a degraded network never sharpens it back.
        let twice = net.with_weight_bits(4);
        let (QLayer::Fc(a), QLayer::Fc(b)) = (&net.layers[3], &twice.layers[3]) else {
            panic!("fc last");
        };
        assert_eq!(a.weights.as_slice(), b.weights.as_slice());
        assert_eq!(a.dequant, b.dequant);
    }

    #[test]
    fn degraded_network_codes_fit_the_target_grid_and_track_the_original() {
        let net = tiny_network();
        let image = Tensor::from_fn(&[1, 4, 4], |i| i as f32 / 16.0);
        let reference = net.forward(&image, &ExactEngine);
        for bits in [4u8, 5, 6] {
            let deg = net.degraded(bits);
            // Input codes fit the grid.
            assert_eq!(deg.input_quant.bits, bits);
            let (QLayer::Conv(c), QLayer::Fc(f)) = (&deg.layers[0], &deg.layers[3]) else {
                panic!("conv first, fc last");
            };
            let wqmax = (1i32 << (bits - 1)) - 1;
            assert!(c.weights.as_slice().iter().all(|w| w.abs() <= wqmax));
            assert!(f.weights.as_slice().iter().all(|w| w.abs() <= wqmax));
            assert_eq!(c.requant.bits, bits);
            // Logits track the full-precision forward to grid resolution
            // (the tiny net's logits are O(0.1); a few new-grid steps).
            let logits = deg.forward(&image, &ExactEngine);
            for (a, b) in logits.iter().zip(&reference) {
                assert!(
                    (a - b).abs() < 0.15,
                    "bits {bits}: logits {logits:?} vs {reference:?}"
                );
            }
            // The bright image still classifies.
            let bright = Tensor::from_fn(&[1, 4, 4], |_| 0.9);
            assert_eq!(deg.predict(&bright, &ExactEngine), 0);
            // Degrading is idempotent at the same precision.
            let twice = deg.degraded(bits);
            let QLayer::Conv(c2) = &twice.layers[0] else {
                panic!("conv")
            };
            assert_eq!(c.weights.as_slice(), c2.weights.as_slice());
            assert_eq!(c.requant.multiplier, c2.requant.multiplier);
        }
        // At-or-above-native precision is the identity.
        let same = net.degraded(8);
        assert_eq!(same.input_quant.bits, 8);
        assert_eq!(
            format!("{:?}", same.layers[0]),
            format!("{:?}", net.layers[0])
        );
    }

    #[test]
    fn evaluate_is_worker_count_invariant() {
        use crate::dataset::Sample;
        let net = tiny_network();
        let samples: Vec<Sample> = (0..7)
            .map(|i| Sample {
                image: Tensor::from_fn(&[1, 4, 4], |j| ((i * 5 + j) % 16) as f32 / 16.0),
                label: i % 2,
            })
            .collect();
        let baseline = net.evaluate(&samples, 2, &ExactEngine, 1);
        for workers in [2usize, 4, 8] {
            assert_eq!(net.evaluate(&samples, 2, &ExactEngine, workers), baseline);
        }
    }

    #[test]
    #[should_panic(expected = "network has no layers")]
    fn empty_network_panics_with_a_message() {
        let net = QuantizedNetwork {
            layers: Vec::new(),
            ..tiny_network()
        };
        let _ = net.forward(&Tensor::from_fn(&[1, 4, 4], |_| 0.5), &ExactEngine);
    }

    #[test]
    #[should_panic(expected = "network has no layers")]
    fn empty_prepared_network_panics_with_a_message() {
        let net = QuantizedNetwork {
            layers: Vec::new(),
            ..tiny_network()
        };
        let image = Tensor::from_fn(&[1, 4, 4], |_| 0.5);
        let _ = net
            .prepare(&ExactEngine)
            .forward_batch(&[&image], &[0], &BatchArena::new());
    }
}
