//! Quantized network container: an ordered stack of quantized layers that
//! runs end-to-end on any [`VdpEngine`].
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
use crate::quant::ActivationQuant;
use crate::tensor::Tensor;
use sconna_sim::parallel::parallel_map_with;

/// One layer of a quantized network.
#[derive(Debug, Clone)]
pub enum QLayer {
    /// Quantized convolution (ReLU folded into requantization).
    Conv(QConv2d),
    /// Max pooling on codes.
    MaxPool(MaxPool2d),
    /// Global average pooling to a rank-1 tensor.
    GlobalAvgPool,
    /// Final classifier producing logits; must be last.
    Fc(QFc),
}

/// An integer-quantized CNN.
#[derive(Debug, Clone)]
pub struct QuantizedNetwork {
    /// Input image quantizer.
    pub input_quant: ActivationQuant,
    /// Layers in execution order; the last must be [`QLayer::Fc`].
    pub layers: Vec<QLayer>,
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
    /// key. Distinct keys give stochastic engines statistically
    /// independent noise per image, while the result stays a pure
    /// function of `(image, key)`. [`PreparedNetwork::forward_batch`]
    /// reproduces it bit for bit at any batch composition and worker
    /// count.
    pub fn forward_keyed(
        &self,
        image: &Tensor<f32>,
        engine: &dyn VdpEngine,
        image_key: u64,
    ) -> Vec<f32> {
        let mut act: Tensor<u32> = self.input_quant.quantize_tensor(image);
        let last = self.last_index();
        for (i, layer) in self.layers.iter().enumerate() {
            match layer {
                QLayer::Conv(conv) => {
                    let key = combine_keys(image_key, conv.layer_key());
                    act = conv.forward_reference(&act, engine, key);
                }
                QLayer::MaxPool(pool) => act = pool.forward(&act),
                QLayer::GlobalAvgPool => act = GlobalAvgPool.forward(&act),
                QLayer::Fc(fc) => {
                    assert_eq!(i, last, "FC must be the final layer");
                    let key = combine_keys(image_key, fc.layer_key());
                    return fc.forward_logits_reference(&act, engine, key);
                }
            }
        }
        panic!("network must end in an FC classifier");
    }

    /// Index of the final layer, where the FC classifier must sit.
    fn last_index(&self) -> usize {
        assert!(
            !self.layers.is_empty(),
            "network has no layers: it must end in an FC classifier"
        );
        self.layers.len() - 1
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
            layers: self
                .layers
                .iter()
                .map(|layer| match layer {
                    QLayer::Conv(conv) => QLayer::Conv(conv.with_weight_bits(bits)),
                    QLayer::MaxPool(pool) => QLayer::MaxPool(*pool),
                    QLayer::GlobalAvgPool => QLayer::GlobalAvgPool,
                    QLayer::Fc(fc) => QLayer::Fc(fc.with_weight_bits(bits)),
                })
                .collect(),
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
        // Ratio the activation scale grows by when re-fitting an
        // `old`-bit range onto the `bits`-bit grid (1 when it already
        // fits).
        let act_ratio = |old: u8| -> f64 {
            if bits >= old {
                1.0
            } else {
                (((1u32 << old) - 1) as f64) / (((1u32 << bits) - 1) as f64)
            }
        };
        let degrade_act = |q: ActivationQuant| -> ActivationQuant {
            if bits >= q.bits {
                q
            } else {
                ActivationQuant {
                    scale: (q.scale as f64 * act_ratio(q.bits)) as f32,
                    bits,
                }
            }
        };
        // Walk the layers tracking the incoming activation precision:
        // each conv's requantizer couples its input scale, weight scale
        // and output scale, and all three move.
        let mut in_ratio = act_ratio(self.input_quant.bits);
        let layers = self
            .layers
            .iter()
            .map(|layer| match layer {
                QLayer::Conv(conv) => {
                    let narrowed = conv.with_weight_bits(bits);
                    let w_ratio =
                        narrowed.requant.multiplier as f64 / conv.requant.multiplier as f64;
                    let out_ratio = act_ratio(conv.requant.bits);
                    let next = QConv2d {
                        // Accumulator units shrink by the input and
                        // weight re-scaling; the output grid supplies
                        // the new requantization target.
                        bias: narrowed.bias.iter().map(|b| b / in_ratio).collect(),
                        requant: crate::quant::Requant {
                            multiplier: (conv.requant.multiplier as f64 * in_ratio * w_ratio
                                / out_ratio) as f32,
                            bits: bits.min(conv.requant.bits),
                        },
                        ..narrowed
                    };
                    in_ratio = out_ratio;
                    QLayer::Conv(next)
                }
                QLayer::MaxPool(pool) => QLayer::MaxPool(*pool),
                QLayer::GlobalAvgPool => QLayer::GlobalAvgPool,
                QLayer::Fc(fc) => {
                    let narrowed = fc.with_weight_bits(bits);
                    let w_ratio = narrowed.dequant as f64 / fc.dequant as f64;
                    QLayer::Fc(QFc {
                        dequant: (fc.dequant as f64 * in_ratio * w_ratio) as f32,
                        ..narrowed
                    })
                }
            })
            .collect();
        QuantizedNetwork {
            input_quant: degrade_act(self.input_quant),
            layers,
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
    /// Classifier head: one handle.
    Fc(PreparedWeights),
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
/// let logits = prepared.forward_batch(&[&image], &[7], 1, &arena); // per batch
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
        let layers = net
            .layers
            .iter()
            .map(|layer| match layer {
                QLayer::Conv(conv) => PreparedLayer::Conv(conv.prepare(engine)),
                QLayer::MaxPool(_) | QLayer::GlobalAvgPool => PreparedLayer::Direct,
                QLayer::Fc(fc) => PreparedLayer::Fc(fc.prepare(engine)),
            })
            .collect();
        Self {
            net,
            engine,
            layers,
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &QuantizedNetwork {
        self.net
    }

    /// The engine the weights were prepared for.
    pub fn engine(&self) -> &dyn VdpEngine {
        self.engine
    }

    /// Runs a whole serving batch through the network with **stacked
    /// tiles**: at every multiplying layer, the im2col patches (or
    /// feature vectors) of all images share one batched-VDP tile, so each
    /// layer's prepared weights are fetched once per row block for the
    /// entire batch. Image `b` runs under `image_keys[b]`; the result is
    /// bit-identical to the [`QuantizedNetwork::forward_keyed`] oracle for
    /// any batch composition and any `workers` count.
    ///
    /// Every im2col scratch tile and activation tensor is drawn from
    /// `arena`, and each layer's inputs are recycled as soon as the layer
    /// completes (recycled buffers are re-zeroed; noise keys are pure
    /// coordinate functions): in steady state a serving instance that
    /// keeps one arena runs whole batches without touching the allocator.
    /// Callers with no long-lived arena pass `&BatchArena::new()`.
    ///
    /// # Panics
    /// Panics if `image_keys` is not one key per image, the images
    /// disagree in shape, or the network does not end in its FC layer.
    pub fn forward_batch(
        &self,
        images: &[&Tensor<f32>],
        image_keys: &[u64],
        workers: usize,
        arena: &BatchArena,
    ) -> Vec<Vec<f32>> {
        assert_eq!(image_keys.len(), images.len(), "one image key per image");
        if images.is_empty() {
            return Vec::new();
        }
        let mut acts: Vec<Tensor<u32>> = images
            .iter()
            .map(|im| self.net.input_quant.quantize_tensor(im))
            .collect();
        // Replaces the current activations and recycles the old set into
        // the arena for the next layer to draw on.
        let swap = |acts: &mut Vec<Tensor<u32>>, next: Vec<Tensor<u32>>| {
            for old in std::mem::replace(acts, next) {
                arena.recycle(old);
            }
        };
        let last = self.net.last_index();
        for (i, (layer, prep)) in self.net.layers.iter().zip(&self.layers).enumerate() {
            match (layer, prep) {
                (QLayer::Conv(conv), PreparedLayer::Conv(handles)) => {
                    let base_keys: Vec<u64> = image_keys
                        .iter()
                        .map(|&k| combine_keys(k, conv.layer_key()))
                        .collect();
                    let refs: Vec<&Tensor<u32>> = acts.iter().collect();
                    let next =
                        conv.forward_batch(&refs, self.engine, handles, &base_keys, workers, arena);
                    swap(&mut acts, next);
                }
                (QLayer::MaxPool(pool), _) => {
                    let next = acts.iter().map(|a| pool.forward(a)).collect();
                    swap(&mut acts, next);
                }
                (QLayer::GlobalAvgPool, _) => {
                    let next = acts.iter().map(|a| GlobalAvgPool.forward(a)).collect();
                    swap(&mut acts, next);
                }
                (QLayer::Fc(fc), PreparedLayer::Fc(handle)) => {
                    assert_eq!(i, last, "FC must be the final layer");
                    let base_keys: Vec<u64> = image_keys
                        .iter()
                        .map(|&k| combine_keys(k, fc.layer_key()))
                        .collect();
                    let refs: Vec<&Tensor<u32>> = acts.iter().collect();
                    let logits =
                        fc.forward_logits_batch(&refs, self.engine, handle, &base_keys, arena);
                    swap(&mut acts, Vec::new());
                    return logits;
                }
                _ => unreachable!("prepared layers are aligned by construction"),
            }
        }
        panic!("network must end in an FC classifier");
    }

    /// Predicted classes for a whole batch (argmax of
    /// [`PreparedNetwork::forward_batch`]) — the steady-state call of a
    /// long-lived serving instance.
    pub fn predict_batch(
        &self,
        images: &[&Tensor<f32>],
        image_keys: &[u64],
        workers: usize,
        arena: &BatchArena,
    ) -> Vec<usize> {
        self.forward_batch(images, image_keys, workers, arena)
            .iter()
            .map(|logits| crate::layers::argmax(logits))
            .collect()
    }

    /// Top-1 and Top-k accuracy, parallelized over images (sample `i`
    /// runs under image key `i` — worker-count invariant).
    pub fn evaluate(
        &self,
        samples: &[crate::dataset::Sample],
        k: usize,
        workers: usize,
    ) -> (f64, f64) {
        if samples.is_empty() {
            return (0.0, 0.0);
        }
        let hits = parallel_map_with((0..samples.len()).collect(), workers, |i: usize| {
            let s = &samples[i];
            let logits = self
                .forward_batch(&[&s.image], &[i as u64], 1, &BatchArena::new())
                .pop()
                .expect("invariant: forward_batch yields one logit row per image");
            let top1 = crate::layers::argmax(&logits) == s.label;
            let topk = crate::layers::top_k(&logits, k).contains(&s.label);
            (top1, topk)
        });
        let n = samples.len() as f64;
        let top1 = hits.iter().filter(|h| h.0).count() as f64 / n;
        let topk = hits.iter().filter(|h| h.1).count() as f64 / n;
        (top1, topk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExactEngine;
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
                prepared.forward_batch(&[&image], &[key], 1, &arena),
                vec![net.forward_keyed(&image, &ExactEngine, key)]
            );
        }
    }

    #[test]
    fn batch_forward_matches_per_image_forwards() {
        // Stacked whole-batch tiles must be bit-identical to running the
        // images one by one, for any worker count.
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
            .flat_map(|(im, &k)| prepared.forward_batch(&[im], &[k], 1, &arena))
            .collect();
        for workers in [1usize, 2, 8] {
            assert_eq!(
                prepared.forward_batch(&refs, &keys, workers, &arena),
                singles,
                "{workers} workers"
            );
        }
        // Predictions come straight off the batch logits.
        let preds = prepared.predict_batch(&refs, &keys, 2, &arena);
        assert_eq!(preds.len(), 5);
        let empty = prepared.forward_batch(&[], &[], 1, &arena);
        assert_eq!(empty, Vec::<Vec<f32>>::new());
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
            .forward_batch(&[&image], &[0], 1, &BatchArena::new());
    }
}
