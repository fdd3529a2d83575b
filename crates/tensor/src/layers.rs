//! Quantized CNN layers executing on a pluggable [`VdpEngine`].
//!
//! Every layer that multiplies — convolution (with groups/depthwise) and
//! fully-connected — routes its inner products through the engine, so the
//! same network definition runs bit-exactly (ExactEngine) or through the
//! SCONNA stochastic pipeline (engine from `sconna-accel`). Pooling and
//! ReLU act directly on activation codes (ReLU is folded into
//! requantization's clamp at zero).
//!
//! Every layer runs through **one** forward path: an im2col +
//! batched-VDP tile kernel over weight-stationary prepared weights.
//! [`QConv2d::prepare`] / [`QFc::prepare`] transform each layer's
//! weights into the engine's [`PreparedWeights`] form once at model load;
//! [`QConv2d::forward_batch`] then cuts output rows into fixed blocks,
//! stacks the im2col patches of *every image of the batch* into one
//! [`PatchMatrix`](crate::engine::PatchMatrix) per (block, group) —
//! scratch and output tensors drawn from a [`BatchArena`] — and sends
//! each tile to [`VdpEngine::vdp_batch_prepared`], so a layer's weights
//! are fetched once per tile for the whole batch. The blocks bound the
//! im2col scratch and run one after another on the calling thread;
//! parallelism lives a level up, over whole images or batches
//! ([`crate::network::PreparedNetwork::evaluate`], a serving fleet's
//! report). Every accumulator's noise key is derived from its (image,
//! layer, group, output position, kernel) coordinates — never from
//! execution order or batch composition — so the result is
//! bit-identical for any batch and any outer parallelism.
//!
//! The only other path is the per-pair oracle:
//! [`QConv2d::forward_reference`] and [`QFc::forward_logits_reference`]
//! gather each patch per pixel and make one [`VdpEngine::vdp_keyed`] call
//! per (position, kernel) under the same noise keys — the parity
//! reference the tile path is property-tested against.
//!
//! Both conv paths end in an **epilogue** that turns each biased
//! accumulator into its output code: [`Requant::apply`] (ReLU folded into
//! the clamp at zero) for a plain conv, or the caller's own through the
//! crate's `QConv2d::forward_batch_with` / `forward_reference_with` — how
//! a residual block's closing conv requantizes signed and merges its skip
//! ([`crate::network::Residual`]). Layers take batches only; a single
//! image is a batch of one.

use crate::arena::{BatchArena, ConvScratch};
use crate::engine::{combine_keys, mix_key, PreparedWeights, VdpEngine, WeightMatrix};
use crate::quant::{ActivationQuant, Requant, WeightQuant};
use crate::tensor::Tensor;
use sconna_sim::parallel::block_ranges;

/// Target patch count per im2col block: large enough that the GEMM tile
/// amortizes gather, dispatch and buffer setup, small enough to bound
/// the im2col scratch of a batch. The row count per block derives from
/// this and the output width alone.
const CONV_BLOCK_PATCHES: usize = 128;

/// Re-fits signed weight codes onto the symmetric `bits`-bit grid:
/// the observed |code| maximum maps to the new `qmax`, every code is
/// rounded onto the coarser grid, and the returned `ratio` is the factor
/// the layer's scale (requant multiplier / dequant) must grow by so the
/// represented real weights are preserved to within half a new step.
/// Codes that already fit the target grid are returned unchanged with a
/// ratio of 1 — requantizing to the current precision is the identity.
///
/// # Panics
/// Panics if `bits` is not in `2..=16`.
fn requantize_weight_codes(weights: &Tensor<i32>, bits: u8) -> (Tensor<i32>, f64) {
    assert!(
        (2..=16).contains(&bits),
        "weight precision must be in 2..=16, got {bits}"
    );
    let qmax = (1i32 << (bits - 1)) - 1;
    let max_abs = weights
        .as_slice()
        .iter()
        .map(|w| w.unsigned_abs())
        .max()
        .unwrap_or(0);
    if max_abs <= qmax as u32 {
        return (weights.clone(), 1.0);
    }
    let ratio = max_abs as f64 / qmax as f64;
    let requantized = weights.map(|w| ((w as f64 / ratio).round() as i32).clamp(-qmax, qmax));
    (requantized, ratio)
}

/// FNV-1a hash of a layer name — the stable per-layer component of every
/// accumulator's noise key.
fn name_key(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        h = (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix_key(h)
}

/// Quantized 2-D convolution.
#[derive(Debug, Clone)]
pub struct QConv2d {
    /// Layer name for reports.
    pub name: String,
    /// Weights `[L, D/groups, K, K]` in signed integer codes.
    pub weights: Tensor<i32>,
    /// Per-kernel bias in integer accumulator units.
    pub bias: Vec<f64>,
    /// Spatial stride ψ.
    pub stride: usize,
    /// Zero padding on each border.
    pub padding: usize,
    /// Channel groups (`groups == in_channels` is depthwise).
    pub groups: usize,
    /// Accumulator→activation requantizer (ReLU folded in).
    pub requant: Requant,
}

impl QConv2d {
    /// Quantizes a float conv (weights `[L, D, K, K]`, per-kernel bias)
    /// reading `in_q` codes and requantizing to `out_q`: stride 1, "same"
    /// padding `K / 2`, one group. The bias moves into accumulator units
    /// `in_q.scale · wq.scale`.
    pub(crate) fn from_float(
        name: &str,
        weights: &Tensor<f32>,
        bias: &[f32],
        in_q: ActivationQuant,
        wq: WeightQuant,
        out_q: ActivationQuant,
    ) -> Self {
        Self {
            name: name.into(),
            weights: wq.quantize_tensor(weights),
            bias: bias
                .iter()
                .map(|&b| (b / (in_q.scale * wq.scale)) as f64)
                .collect(),
            stride: 1,
            padding: weights.dims()[2] / 2,
            groups: 1,
            requant: Requant::new(in_q, wq, out_q),
        }
    }

    /// Output spatial size for an input of `(h, w)`.
    ///
    /// # Panics
    /// Panics if the stride is zero.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        assert!(
            self.stride > 0,
            "{}: conv stride must be positive",
            self.name
        );
        let k = self.weights.dims()[2];
        (
            (h + 2 * self.padding - k) / self.stride + 1,
            (w + 2 * self.padding - k) / self.stride + 1,
        )
    }

    /// Flattened vector length `S = K·K·D/groups` of this layer's VDP
    /// operations.
    pub fn vector_len(&self) -> usize {
        let d = self.weights.dims()[1];
        let k = self.weights.dims()[2];
        d * k * k
    }

    /// Stable per-layer noise-key component (FNV-1a of the layer name).
    pub fn layer_key(&self) -> u64 {
        name_key(&self.name)
    }

    /// A lower-weight-precision copy of this layer: weight codes are
    /// re-fit onto the symmetric `bits`-bit grid (the layer's observed
    /// |code| maximum maps to the new `qmax`), and the requantizer and
    /// accumulator-unit bias absorb the scale change, so the represented
    /// real weights move by at most half a new quantization step. The
    /// building block of [`crate::network::QuantizedNetwork::with_weight_bits`],
    /// the cheap fallback model a `Degrade` admission policy serves shed
    /// requests on.
    ///
    /// # Panics
    /// Panics if `bits` is not in `2..=16`.
    pub fn with_weight_bits(&self, bits: u8) -> Self {
        let (weights, ratio) = requantize_weight_codes(&self.weights, bits);
        Self {
            weights,
            bias: self.bias.iter().map(|b| b / ratio).collect(),
            requant: Requant {
                multiplier: (self.requant.multiplier as f64 * ratio) as f32,
                ..self.requant
            },
            ..self.clone()
        }
    }

    /// Transforms this layer's weights into `engine`'s weight-stationary
    /// [`PreparedWeights`] form, one handle per channel group (kernels of
    /// a group are contiguous in the `[L, D/g, K, K]` layout) — computed
    /// once at model load and reused by every forward.
    pub fn prepare(&self, engine: &dyn VdpEngine) -> Vec<PreparedWeights> {
        let patch_len = self.vector_len();
        let kpg = self.weights.dims()[0] / self.groups;
        (0..self.groups)
            .map(|g| {
                let wslice =
                    &self.weights.as_slice()[g * kpg * patch_len..(g + 1) * kpg * patch_len];
                engine.prepare_weights(&WeightMatrix::new(wslice, kpg, patch_len))
            })
            .collect()
    }

    /// The conv forward: runs a whole serving batch against prepared
    /// handles from [`QConv2d::prepare`]. The im2col patches of **all**
    /// images are stacked into one `vdp_batch_prepared` tile per (row
    /// block, group), so the weights are fetched once per tile for the
    /// entire batch — the weight-stationary amortization the hardware
    /// mapping assumes. Image `b`'s accumulators are keyed from
    /// `base_keys[b]`, so its output is independent of the batch
    /// composition, and bit-identical to
    /// [`QConv2d::forward_reference`] under the same key
    /// (property-tested). im2col scratch and output tensors come from
    /// `arena` (recycled buffers are re-zeroed), so the forward is
    /// allocation-free in steady state when the caller recycles the inputs
    /// after the layer. An empty batch returns an empty vector.
    ///
    /// # Panics
    /// Panics if the images disagree in shape, `base_keys` is not one key
    /// per image, or `prepared` does not hold one handle per group with
    /// this layer's geometry.
    pub fn forward_batch(
        &self,
        inputs: &[&Tensor<u32>],
        engine: &dyn VdpEngine,
        prepared: &[PreparedWeights],
        base_keys: &[u64],
        arena: &BatchArena,
    ) -> Vec<Tensor<u32>> {
        let requant = |_: usize, _: usize, acc: f64| self.requant.apply(acc);
        self.forward_batch_with(inputs, engine, prepared, base_keys, arena, requant)
    }

    /// The per-pair oracle: per-pixel patch gather and one
    /// [`VdpEngine::vdp_keyed`] call per (pixel, kernel) under the **same
    /// noise keys** as [`QConv2d::forward_batch`] with `base_key` — the
    /// parity reference of the tile path and the baseline the inference
    /// bench measures speedup against.
    pub fn forward_reference(
        &self,
        input: &Tensor<u32>,
        engine: &dyn VdpEngine,
        base_key: u64,
    ) -> Tensor<u32> {
        self.forward_reference_with(input, engine, base_key, |_, acc| self.requant.apply(acc))
    }

    /// [`QConv2d::forward_reference`] with a caller-supplied epilogue:
    /// `epilogue(i, acc)` turns the biased accumulator at flat output
    /// index `i` into its code — the oracle of
    /// [`QConv2d::forward_batch_with`] under the same epilogue.
    pub(crate) fn forward_reference_with(
        &self,
        input: &Tensor<u32>,
        engine: &dyn VdpEngine,
        base_key: u64,
        epilogue: impl Fn(usize, f64) -> u32,
    ) -> Tensor<u32> {
        let geo = self.validate(input);
        let mut out = Tensor::<u32>::zeros(&[geo.l, geo.h_out, geo.w_out]);
        let mut patch: Vec<u32> = vec![0; geo.patch_len];
        for oy in 0..geo.h_out {
            for ox in 0..geo.w_out {
                for g in 0..self.groups {
                    self.gather_patch(input, &geo, g, oy, ox, &mut patch);
                    let pkey =
                        combine_keys(base_key, ((g * geo.h_out + oy) * geo.w_out + ox) as u64);
                    for kg in 0..geo.kernels_per_group {
                        let k = g * geo.kernels_per_group + kg;
                        let wrow =
                            &self.weights.as_slice()[k * geo.patch_len..(k + 1) * geo.patch_len];
                        let acc = engine.vdp_keyed(&patch, wrow, combine_keys(pkey, kg as u64))
                            + self.bias[k];
                        let i = (k * geo.h_out + oy) * geo.w_out + ox;
                        out.as_mut_slice()[i] = epilogue(i, acc);
                    }
                }
            }
        }
        out
    }

    /// Validates shapes and returns the derived geometry.
    fn validate(&self, input: &Tensor<u32>) -> ConvGeometry {
        let [l, d_g, kh, kw] = *self.weights.dims() else {
            panic!("conv weights must be rank 4, got {:?}", self.weights.dims());
        };
        assert_eq!(kh, kw, "only square kernels are used by the evaluated CNNs");
        let [d_in, h, w] = *input.dims() else {
            panic!("conv input must be rank 3, got {:?}", input.dims());
        };
        assert_eq!(
            d_in,
            d_g * self.groups,
            "{}: input channels {d_in} != {d_g} x {} groups",
            self.name,
            self.groups
        );
        assert_eq!(
            l % self.groups,
            0,
            "{}: kernels not divisible by groups",
            self.name
        );
        assert_eq!(self.bias.len(), l, "{}: bias length mismatch", self.name);
        assert!(
            h + 2 * self.padding >= kh && w + 2 * self.padding >= kw,
            "{}: kernel {kh} does not fit input {h}x{w} with padding {}",
            self.name,
            self.padding
        );
        let (h_out, w_out) = self.output_hw(h, w);
        ConvGeometry {
            l,
            d_g,
            k: kh,
            h,
            w,
            h_out,
            w_out,
            patch_len: self.vector_len(),
            kernels_per_group: l / self.groups,
        }
    }

    /// Gathers the (c, y, x)-ordered patch of group `g` at output
    /// position `(oy, ox)` — the DIV of Section II-B.
    #[inline]
    fn gather_patch(
        &self,
        input: &Tensor<u32>,
        geo: &ConvGeometry,
        g: usize,
        oy: usize,
        ox: usize,
        patch: &mut [u32],
    ) {
        let mut idx = 0;
        for c in 0..geo.d_g {
            let ic = g * geo.d_g + c;
            for ky in 0..geo.k {
                let iy = oy * self.stride + ky;
                for kx in 0..geo.k {
                    let ix = ox * self.stride + kx;
                    patch[idx] = in_bounds(iy, ix, self.padding, geo.h, geo.w)
                        .map_or(0, |(y, x)| input.at3(ic, y, x));
                    idx += 1;
                }
            }
        }
    }

    /// [`QConv2d::gather_patch`] without per-tap indexing: each kernel
    /// row of the patch is one bulk copy of the contiguous input span
    /// (`kx` consecutive ⇒ source x consecutive, any stride), with
    /// padding pre-zeroed. Produces exactly the same patch — the parity
    /// proptests run the per-tap reference against this path.
    #[inline]
    fn gather_patch_fast(
        &self,
        x: &[u32],
        geo: &ConvGeometry,
        g: usize,
        oy: usize,
        ox: usize,
        patch: &mut [u32],
    ) {
        let ix0 = ox * self.stride;
        let pad = self.padding;
        let mut idx = 0;
        for c in 0..geo.d_g {
            let base_c = (g * geo.d_g + c) * geo.h * geo.w;
            for ky in 0..geo.k {
                let row = &mut patch[idx..idx + geo.k];
                idx += geo.k;
                let iy = oy * self.stride + ky;
                let y = match iy.checked_sub(pad) {
                    Some(y) if y < geo.h => y,
                    _ => {
                        row.fill(0);
                        continue;
                    }
                };
                // kx consecutive ⇒ source x consecutive: one branchy
                // pass over the row (interior rows predict perfectly;
                // a memcpy call would cost more than these few taps).
                let src = &x[base_c + y * geo.w..base_c + (y + 1) * geo.w];
                for (kx, slot) in row.iter_mut().enumerate() {
                    let ix = ix0 + kx;
                    *slot = if ix >= pad && ix - pad < geo.w {
                        src[ix - pad]
                    } else {
                        0
                    };
                }
            }
        }
    }

    /// [`QConv2d::forward_batch`] with a caller-supplied epilogue — the
    /// tile kernel behind every conv forward: row blocks → im2col gather
    /// (all images of the batch stacked) → one `vdp_batch_prepared` tile
    /// per group → `epilogue(b, i, acc)`, which turns image `b`'s biased
    /// accumulator at flat output index `i` into its code, one block
    /// after another. im2col scratch and output tensors come from
    /// `arena`. Bit-identical to [`QConv2d::forward_reference_with`]
    /// under the same keys and epilogue.
    ///
    /// # Panics
    /// As [`QConv2d::forward_batch`].
    pub(crate) fn forward_batch_with(
        &self,
        inputs: &[&Tensor<u32>],
        engine: &dyn VdpEngine,
        prepared: &[PreparedWeights],
        base_keys: &[u64],
        arena: &BatchArena,
        epilogue: impl Fn(usize, usize, f64) -> u32,
    ) -> Vec<Tensor<u32>> {
        assert_eq!(base_keys.len(), inputs.len(), "one base key per image");
        let Some(first) = inputs.first() else {
            // Empty batch: nothing to compute (mirrors the FC batch API).
            return Vec::new();
        };
        let geo = self.validate(first);
        for input in &inputs[1..] {
            assert_eq!(
                input.dims(),
                first.dims(),
                "{}: batched images must agree in shape",
                self.name
            );
        }
        assert_eq!(
            prepared.len(),
            self.groups,
            "{}: one prepared handle per group",
            self.name
        );
        for p in prepared {
            assert_eq!(
                (p.rows(), p.cols()),
                (geo.kernels_per_group, geo.patch_len),
                "{}: prepared handle geometry mismatch",
                self.name
            );
        }
        let rows_per_block = (CONV_BLOCK_PATCHES / geo.w_out.max(1)).clamp(1, 16);
        let kpg = geo.kernels_per_group;
        let mut outs: Vec<Tensor<u32>> = inputs
            .iter()
            .map(|_| arena.tensor(&[geo.l, geo.h_out, geo.w_out]))
            .collect();
        // The im2col gather buffers are checked out of the arena once and
        // re-zeroed per row block.
        let mut scratch = arena.scratch();
        for rows in block_ranges(geo.h_out, rows_per_block) {
            let n_local = rows.len() * geo.w_out;
            scratch.prepare(inputs.len() * n_local, geo.patch_len);
            let ConvScratch { patches, keys } = &mut scratch;
            for (g, handle) in prepared.iter().enumerate() {
                for (b, input) in inputs.iter().enumerate() {
                    for (by, oy) in rows.clone().enumerate() {
                        for ox in 0..geo.w_out {
                            let pi = b * n_local + by * geo.w_out + ox;
                            self.gather_patch_fast(
                                input.as_slice(),
                                &geo,
                                g,
                                oy,
                                ox,
                                patches.row_mut(pi),
                            );
                            // Key layout mirrors forward_reference exactly:
                            // the key of an accumulator depends only on its
                            // (image, layer, group, output position)
                            // coordinates — never on the block decomposition
                            // or on which other images share the tile.
                            keys[pi] = combine_keys(
                                base_keys[b],
                                ((g * geo.h_out + oy) * geo.w_out + ox) as u64,
                            );
                        }
                    }
                }
                // Patches are stacked image-major, and a block's rows are
                // contiguous in each output plane.
                let accs = engine.vdp_batch_prepared(patches, handle, keys);
                for (b, out) in outs.iter_mut().enumerate() {
                    let od = out.as_mut_slice();
                    for kg in 0..kpg {
                        let k = g * kpg + kg;
                        let dst = (k * geo.h_out + rows.start) * geo.w_out;
                        for li in 0..n_local {
                            let acc = accs[(b * n_local + li) * kpg + kg] + self.bias[k];
                            od[dst + li] = epilogue(b, dst + li, acc);
                        }
                    }
                }
            }
        }
        arena.release_scratch(scratch);
        outs
    }
}

/// Shape data derived once per conv forward.
struct ConvGeometry {
    l: usize,
    d_g: usize,
    k: usize,
    h: usize,
    w: usize,
    h_out: usize,
    w_out: usize,
    patch_len: usize,
    kernels_per_group: usize,
}

#[inline]
fn in_bounds(iy: usize, ix: usize, pad: usize, h: usize, w: usize) -> Option<(usize, usize)> {
    let y = iy.checked_sub(pad)?;
    let x = ix.checked_sub(pad)?;
    (y < h && x < w).then_some((y, x))
}

/// Max pooling on activation codes (quantization is monotone, so pooling
/// codes equals pooling real values).
#[derive(Debug, Clone, Copy)]
pub struct MaxPool2d {
    /// Window size.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding.
    pub padding: usize,
}

impl MaxPool2d {
    /// Runs the pooling.
    ///
    /// # Panics
    /// Panics if the input is not rank 3, the stride is zero, or the
    /// window does not fit the padded input.
    pub fn forward(&self, input: &Tensor<u32>) -> Tensor<u32> {
        let [d, h, w] = *input.dims() else {
            panic!("pool input must be rank 3, got {:?}", input.dims());
        };
        assert!(self.stride > 0, "pool stride must be positive");
        assert!(
            h + 2 * self.padding >= self.kernel && w + 2 * self.padding >= self.kernel,
            "pool window {} does not fit input {h}x{w} with padding {}",
            self.kernel,
            self.padding
        );
        let h_out = (h + 2 * self.padding - self.kernel) / self.stride + 1;
        let w_out = (w + 2 * self.padding - self.kernel) / self.stride + 1;
        let mut out = Tensor::<u32>::zeros(&[d, h_out, w_out]);
        for c in 0..d {
            for oy in 0..h_out {
                for ox in 0..w_out {
                    let mut best = 0u32; // padding contributes code 0
                    for ky in 0..self.kernel {
                        for kx in 0..self.kernel {
                            if let Some((y, x)) = in_bounds(
                                oy * self.stride + ky,
                                ox * self.stride + kx,
                                self.padding,
                                h,
                                w,
                            ) {
                                best = best.max(input.at3(c, y, x));
                            }
                        }
                    }
                    out.set3(c, oy, ox, best);
                }
            }
        }
        out
    }
}

/// Global average pooling: collapses each channel to one code
/// (round-to-nearest).
#[derive(Debug, Clone, Copy, Default)]
pub struct GlobalAvgPool;

impl GlobalAvgPool {
    /// Runs the pooling, producing a rank-1 tensor of `D` codes.
    pub fn forward(&self, input: &Tensor<u32>) -> Tensor<u32> {
        let [d, h, w] = *input.dims() else {
            panic!("pool input must be rank 3, got {:?}", input.dims());
        };
        let area = (h * w) as u64;
        let mut out = Tensor::<u32>::zeros(&[d]);
        for c in 0..d {
            let mut sum = 0u64;
            for y in 0..h {
                for x in 0..w {
                    sum += input.at3(c, y, x) as u64;
                }
            }
            out.as_mut_slice()[c] = ((sum + area / 2) / area) as u32;
        }
        out
    }
}

/// Quantized fully-connected classifier head. Unlike conv layers its
/// output is signed logits, so no requantization/ReLU is applied — the
/// accumulator is dequantized directly.
#[derive(Debug, Clone)]
pub struct QFc {
    /// Layer name.
    pub name: String,
    /// Weights `[out_features, in_features]` in signed codes.
    pub weights: Tensor<i32>,
    /// Real-valued bias per output.
    pub bias: Vec<f32>,
    /// Dequantization multiplier `in_scale · w_scale`.
    pub dequant: f32,
}

impl QFc {
    /// Stable per-layer noise-key component (FNV-1a of the layer name).
    pub fn layer_key(&self) -> u64 {
        name_key(&self.name)
    }

    /// A lower-weight-precision copy of the classifier: weight codes are
    /// re-fit onto the symmetric `bits`-bit grid and the dequantization
    /// multiplier absorbs the scale change (the real-valued bias is
    /// unaffected). See [`QConv2d::with_weight_bits`].
    ///
    /// # Panics
    /// Panics if `bits` is not in `2..=16`.
    pub fn with_weight_bits(&self, bits: u8) -> Self {
        let (weights, ratio) = requantize_weight_codes(&self.weights, bits);
        Self {
            weights,
            dequant: (self.dequant as f64 * ratio) as f32,
            ..self.clone()
        }
    }

    /// Transforms the classifier weights into `engine`'s
    /// weight-stationary [`PreparedWeights`] form, once at model load.
    pub fn prepare(&self, engine: &dyn VdpEngine) -> PreparedWeights {
        let (out_f, in_f) = self.shape();
        engine.prepare_weights(&WeightMatrix::new(self.weights.as_slice(), out_f, in_f))
    }

    /// The classifier forward: logits for a whole serving batch in one
    /// weight-stationary `feature × class` tile against a handle from
    /// [`QFc::prepare`], built in `arena` scratch. Image `b`'s
    /// accumulators are keyed from `base_keys[b]`, so each row is
    /// bit-identical to [`QFc::forward_logits_reference`] under that key.
    ///
    /// # Panics
    /// Panics on input-length or key-count mismatch.
    pub fn forward_logits_batch(
        &self,
        inputs: &[&Tensor<u32>],
        engine: &dyn VdpEngine,
        prepared: &PreparedWeights,
        base_keys: &[u64],
        arena: &BatchArena,
    ) -> Vec<Vec<f32>> {
        let (out_f, in_f) = self.shape();
        assert_eq!(base_keys.len(), inputs.len(), "one base key per image");
        let mut scratch = arena.scratch();
        scratch.prepare(inputs.len(), in_f);
        for (b, input) in inputs.iter().enumerate() {
            assert_eq!(input.len(), in_f, "{}: input length mismatch", self.name);
            scratch.patches.row_mut(b).copy_from_slice(input.as_slice());
        }
        let accs = engine.vdp_batch_prepared(&scratch.patches, prepared, base_keys);
        arena.release_scratch(scratch);
        accs.chunks(out_f).map(|row| self.dequantize(row)).collect()
    }

    /// The per-output oracle: one [`VdpEngine::vdp_keyed`] call per class
    /// under the same noise keys as [`QFc::forward_logits_batch`] with
    /// `base_key`.
    ///
    /// # Panics
    /// Panics if the input length does not match the weight matrix.
    pub fn forward_logits_reference(
        &self,
        input: &Tensor<u32>,
        engine: &dyn VdpEngine,
        base_key: u64,
    ) -> Vec<f32> {
        let (_, in_f) = self.shape();
        assert_eq!(input.len(), in_f, "{}: input length mismatch", self.name);
        let rows = self.weights.as_slice().chunks(in_f);
        let accs: Vec<f64> = rows
            .enumerate()
            .map(|(o, wrow)| {
                engine.vdp_keyed(input.as_slice(), wrow, combine_keys(base_key, o as u64))
            })
            .collect();
        self.dequantize(&accs)
    }

    /// `(out_features, in_features)`, with the bias checked against them.
    fn shape(&self) -> (usize, usize) {
        let [out_f, in_f] = *self.weights.dims() else {
            panic!("fc weights must be rank 2, got {:?}", self.weights.dims());
        };
        assert_eq!(
            self.bias.len(),
            out_f,
            "{}: bias length mismatch",
            self.name
        );
        (out_f, in_f)
    }

    /// One image's accumulators → real-valued logits.
    fn dequantize(&self, accs: &[f64]) -> Vec<f32> {
        accs.iter()
            .zip(&self.bias)
            .map(|(&acc, &b)| acc as f32 * self.dequant + b)
            .collect()
    }
}

/// Index of the largest logit.
///
/// # Panics
/// Panics on an empty slice.
pub fn argmax(logits: &[f32]) -> usize {
    assert!(!logits.is_empty(), "argmax of empty logits");
    logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("invariant: networks classify into at least one class")
}

/// Indices of the top-k logits in descending order.
pub fn top_k(logits: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..logits.len()).collect();
    idx.sort_by(|&a, &b| logits[b].total_cmp(&logits[a]));
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExactEngine;
    use crate::quant::{ActivationQuant, Requant, WeightQuant};

    /// Runs `conv` on one image as a batch of one under `ExactEngine`,
    /// checked against the per-pair oracle under the same key.
    fn exact(conv: &QConv2d, input: &Tensor<u32>) -> Tensor<u32> {
        let (prepared, key) = (conv.prepare(&ExactEngine), conv.layer_key());
        let out = conv.forward_batch(
            &[input],
            &ExactEngine,
            &prepared,
            &[key],
            &BatchArena::new(),
        );
        let reference = conv.forward_reference(input, &ExactEngine, key);
        assert_eq!(out[0].as_slice(), reference.as_slice());
        reference
    }

    fn unit_requant() -> Requant {
        Requant::new(
            ActivationQuant {
                scale: 1.0,
                bits: 8,
            },
            WeightQuant {
                scale: 1.0,
                bits: 8,
            },
            ActivationQuant {
                scale: 1.0,
                bits: 8,
            },
        )
    }

    #[test]
    fn conv_identity_kernel() {
        // 1x1 kernel with weight 1 passes the input through.
        let conv = QConv2d {
            name: "id".into(),
            weights: Tensor::from_vec(&[1, 1, 1, 1], vec![1]),
            bias: vec![0.0],
            stride: 1,
            padding: 0,
            groups: 1,
            requant: unit_requant(),
        };
        let input = Tensor::<u32>::from_vec(&[1, 2, 2], vec![1, 2, 3, 4]);
        let out = exact(&conv, &input);
        assert_eq!(out.as_slice(), &[1, 2, 3, 4]);
    }

    #[test]
    fn conv_hand_computed_3x3() {
        // 3x3 all-ones kernel over a 3x3 all-ones input, no padding:
        // single output = 9.
        let conv = QConv2d {
            name: "sum".into(),
            weights: Tensor::from_vec(&[1, 1, 3, 3], vec![1; 9]),
            bias: vec![0.0],
            stride: 1,
            padding: 0,
            groups: 1,
            requant: unit_requant(),
        };
        let input = Tensor::<u32>::from_vec(&[1, 3, 3], vec![1; 9]);
        let out = exact(&conv, &input);
        assert_eq!(out.dims(), &[1, 1, 1]);
        assert_eq!(out.as_slice(), &[9]);
    }

    #[test]
    fn conv_padding_zeros_border() {
        // Same kernel with padding 1: corners see only 4 live taps.
        let conv = QConv2d {
            name: "pad".into(),
            weights: Tensor::from_vec(&[1, 1, 3, 3], vec![1; 9]),
            bias: vec![0.0],
            stride: 1,
            padding: 1,
            groups: 1,
            requant: unit_requant(),
        };
        let input = Tensor::<u32>::from_vec(&[1, 3, 3], vec![1; 9]);
        let out = exact(&conv, &input);
        assert_eq!(out.dims(), &[1, 3, 3]);
        assert_eq!(out.at3(0, 0, 0), 4);
        assert_eq!(out.at3(0, 1, 1), 9);
        assert_eq!(out.at3(0, 0, 1), 6);
    }

    #[test]
    fn conv_stride_subsamples() {
        let conv = QConv2d {
            name: "s2".into(),
            weights: Tensor::from_vec(&[1, 1, 1, 1], vec![1]),
            bias: vec![0.0],
            stride: 2,
            padding: 0,
            groups: 1,
            requant: unit_requant(),
        };
        let input = Tensor::<u32>::from_fn(&[1, 4, 4], |i| i as u32);
        let out = exact(&conv, &input);
        assert_eq!(out.dims(), &[1, 2, 2]);
        assert_eq!(out.as_slice(), &[0, 2, 8, 10]);
    }

    #[test]
    fn conv_matches_naive_loop_at_stride_two_padding_one() {
        // Stride 2 with padding 1: a 3x3 all-ones kernel sums the live
        // taps of windows centred on (0,0), (0,2), (2,0), (2,2), e.g.
        // 0 + 1 + 4 + 5 = 10 at the zero-padded corner.
        let conv = QConv2d {
            name: "s2p1".into(),
            weights: Tensor::from_vec(&[1, 1, 3, 3], vec![1; 9]),
            bias: vec![0.0],
            stride: 2,
            padding: 1,
            groups: 1,
            requant: unit_requant(),
        };
        let input = Tensor::<u32>::from_fn(&[1, 4, 4], |i| i as u32);
        let out = exact(&conv, &input);
        assert_eq!(out.dims(), &[1, 2, 2]);
        assert_eq!(out.as_slice(), &[10, 24, 51, 90]);

        // Multi-channel, multi-kernel probe against a direct loop over
        // the zero-padded window; a wide output scale keeps every
        // accumulator clear of clipping.
        let (c_in, k_out, hw) = (3, 4, 8);
        let conv = QConv2d {
            name: "probe".into(),
            weights: Tensor::from_fn(&[k_out, c_in, 3, 3], |i| (i as i32 * 13) % 255 - 127),
            bias: vec![0.0; k_out],
            stride: 2,
            padding: 1,
            groups: 1,
            requant: Requant::new(
                ActivationQuant {
                    scale: 1.0,
                    bits: 8,
                },
                WeightQuant {
                    scale: 1.0,
                    bits: 8,
                },
                ActivationQuant {
                    scale: 1e6,
                    bits: 8,
                },
            ),
        };
        let input = Tensor::from_fn(&[c_in, hw, hw], |i| (i as u32 * 5) % 256);
        let out = exact(&conv, &input);
        let (h_out, w_out) = conv.output_hw(hw, hw);
        let w = conv.weights.as_slice();
        for k in 0..k_out {
            for oy in 0..h_out {
                for ox in 0..w_out {
                    let mut acc = 0.0;
                    for c in 0..c_in {
                        for ky in 0..3 {
                            for kx in 0..3 {
                                let (y, x) = (oy * 2 + ky, ox * 2 + kx);
                                if y < 1 || x < 1 || y > hw || x > hw {
                                    continue;
                                }
                                let tap = w[((k * c_in + c) * 3 + ky) * 3 + kx];
                                acc += input.at3(c, y - 1, x - 1) as f64 * tap as f64;
                            }
                        }
                    }
                    let expected = conv.requant.apply(acc);
                    assert_eq!(out.at3(k, oy, ox), expected, "k={k} oy={oy} ox={ox}");
                }
            }
        }
    }

    #[test]
    fn conv_relu_clamps_negative_accumulators() {
        let conv = QConv2d {
            name: "neg".into(),
            weights: Tensor::from_vec(&[1, 1, 1, 1], vec![-1]),
            bias: vec![0.0],
            stride: 1,
            padding: 0,
            groups: 1,
            requant: unit_requant(),
        };
        let input = Tensor::<u32>::from_vec(&[1, 1, 1], vec![5]);
        let out = exact(&conv, &input);
        assert_eq!(out.as_slice(), &[0]);
    }

    #[test]
    fn depthwise_conv_keeps_channels_separate() {
        // 2 channels, depthwise 1x1 with weights [2, 3]: each channel
        // scales independently.
        let conv = QConv2d {
            name: "dw".into(),
            weights: Tensor::from_vec(&[2, 1, 1, 1], vec![2, 3]),
            bias: vec![0.0, 0.0],
            stride: 1,
            padding: 0,
            groups: 2,
            requant: unit_requant(),
        };
        let input = Tensor::<u32>::from_vec(&[2, 1, 2], vec![1, 2, 10, 20]);
        let out = exact(&conv, &input);
        assert_eq!(out.as_slice(), &[2, 4, 30, 60]);
    }

    #[test]
    fn conv_bias_applies_before_requant() {
        let conv = QConv2d {
            name: "bias".into(),
            weights: Tensor::from_vec(&[1, 1, 1, 1], vec![1]),
            bias: vec![10.0],
            stride: 1,
            padding: 0,
            groups: 1,
            requant: unit_requant(),
        };
        let input = Tensor::<u32>::from_vec(&[1, 1, 1], vec![5]);
        assert_eq!(exact(&conv, &input).as_slice(), &[15]);
    }

    #[test]
    fn maxpool_basic() {
        let pool = MaxPool2d {
            kernel: 2,
            stride: 2,
            padding: 0,
        };
        let input = Tensor::<u32>::from_vec(&[1, 4, 4], (0..16).collect());
        let out = pool.forward(&input);
        assert_eq!(out.dims(), &[1, 2, 2]);
        assert_eq!(out.as_slice(), &[5, 7, 13, 15]);
    }

    #[test]
    fn maxpool_overlapping_window() {
        // 3x3 window, stride 2, padding 1 — GoogleNet/ResNet style.
        let pool = MaxPool2d {
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        let input = Tensor::<u32>::from_fn(&[1, 4, 4], |i| i as u32);
        let out = pool.forward(&input);
        assert_eq!(out.dims(), &[1, 2, 2]);
        assert_eq!(out.at3(0, 1, 1), 15);
    }

    #[test]
    fn global_avg_pool_rounds() {
        let input = Tensor::<u32>::from_vec(&[2, 1, 2], vec![1, 2, 10, 20]);
        let out = GlobalAvgPool.forward(&input);
        assert_eq!(out.dims(), &[2]);
        assert_eq!(out.as_slice(), &[2, 15]); // (1+2)/2 rounds to 2
    }

    #[test]
    fn fc_logits_with_bias() {
        let fc = QFc {
            name: "head".into(),
            weights: Tensor::from_vec(&[2, 3], vec![1, 0, -1, 2, 2, 2]),
            bias: vec![0.5, -1.0],
            dequant: 0.1,
        };
        let input = Tensor::<u32>::from_vec(&[3], vec![10, 20, 30]);
        let prepared = fc.prepare(&ExactEngine);
        let key = fc.layer_key();
        let logits = fc
            .forward_logits_batch(
                &[&input],
                &ExactEngine,
                &prepared,
                &[key],
                &BatchArena::new(),
            )
            .remove(0);
        // row0: 10 - 30 = -20 → -2.0 + 0.5 = -1.5
        // row1: 2*(60) = 120 → 12.0 - 1.0 = 11.0
        assert!((logits[0] + 1.5).abs() < 1e-6);
        assert!((logits[1] - 11.0).abs() < 1e-6);
        assert_eq!(argmax(&logits), 1);
        let reference = fc.forward_logits_reference(&input, &ExactEngine, fc.layer_key());
        assert_eq!(reference, logits);
    }

    #[test]
    fn top_k_ordering() {
        let logits = [0.1f32, 5.0, -2.0, 3.0];
        assert_eq!(top_k(&logits, 3), vec![1, 3, 0]);
    }

    #[test]
    fn empty_batch_forward_returns_empty() {
        // Mirrors the FC batch API: a zero-request flush must not panic.
        let conv = QConv2d {
            name: "empty".into(),
            weights: Tensor::from_vec(&[1, 1, 1, 1], vec![1]),
            bias: vec![0.0],
            stride: 1,
            padding: 0,
            groups: 1,
            requant: unit_requant(),
        };
        let prepared = conv.prepare(&ExactEngine);
        let out = conv.forward_batch(&[], &ExactEngine, &prepared, &[], &BatchArena::new());
        assert!(out.is_empty());
    }

    #[test]
    fn batched_forward_matches_reference_path() {
        // Strided, padded, grouped: the im2col path must agree with the
        // per-pixel reference everywhere.
        let conv = QConv2d {
            name: "parity".into(),
            weights: Tensor::from_fn(&[4, 2, 3, 3], |i| (i % 17) as i32 - 8),
            bias: vec![1.0, -2.0, 0.5, 3.0],
            stride: 2,
            padding: 1,
            groups: 2,
            requant: unit_requant(),
        };
        let input = Tensor::<u32>::from_fn(&[4, 7, 7], |i| (i % 256) as u32);
        let key = conv.layer_key();
        let prepared = conv.prepare(&ExactEngine);
        let batched = conv.forward_batch(
            &[&input],
            &ExactEngine,
            &prepared,
            &[key],
            &BatchArena::new(),
        );
        let reference = conv.forward_reference(&input, &ExactEngine, key);
        assert_eq!(batched[0].as_slice(), reference.as_slice());
    }

    #[test]
    fn multi_block_forward_matches_reference() {
        // 40 output rows of width 9 span three row blocks (14 + 14 + 12),
        // so the per-block slabs must reassemble into the reference
        // output for every image of the batch.
        let conv = QConv2d {
            name: "blocks".into(),
            weights: Tensor::from_fn(&[3, 2, 3, 3], |i| (i % 13) as i32 - 6),
            bias: vec![0.0; 3],
            stride: 1,
            padding: 1,
            groups: 1,
            requant: unit_requant(),
        };
        let a = Tensor::<u32>::from_fn(&[2, 40, 9], |i| (i % 200) as u32);
        let b = Tensor::<u32>::from_fn(&[2, 40, 9], |i| (i * 7 % 251) as u32);
        let keys = [conv.layer_key(), conv.layer_key() ^ 1];
        let (prepared, arena) = (conv.prepare(&ExactEngine), BatchArena::new());
        let out = conv.forward_batch(&[&a, &b], &ExactEngine, &prepared, &keys, &arena);
        for ((input, key), got) in [&a, &b].into_iter().zip(keys).zip(&out) {
            let want = conv.forward_reference(input, &ExactEngine, key);
            assert_eq!(got.as_slice(), want.as_slice());
        }
    }

    #[test]
    fn preactivation_matches_relu_free_requant() {
        let conv = QConv2d {
            name: "pre".into(),
            weights: Tensor::from_vec(&[1, 1, 1, 1], vec![-1]),
            bias: vec![0.0],
            stride: 1,
            padding: 0,
            groups: 1,
            requant: unit_requant(),
        };
        // Both paths hand the epilogue the biased accumulator before any
        // ReLU clamp, at its flat output index: a signed requant keeps
        // -5 and -3, which the index-dependent offset lifts to codes.
        let input = Tensor::<u32>::from_vec(&[1, 1, 2], vec![5, 3]);
        let signed =
            |i: usize, acc: f64| (conv.requant.apply_signed(acc) + 10 * (i as i32 + 1)) as u32;
        let key = conv.layer_key();
        let reference = conv.forward_reference_with(&input, &ExactEngine, key, signed);
        assert_eq!(reference.as_slice(), &[5, 17]);
        let batched = conv.forward_batch_with(
            &[&input],
            &ExactEngine,
            &conv.prepare(&ExactEngine),
            &[key],
            &BatchArena::new(),
            |_, i, acc| signed(i, acc),
        );
        assert_eq!(batched[0].as_slice(), &[5, 17]);
    }

    #[test]
    #[should_panic(expected = "input channels")]
    fn conv_channel_mismatch_panics() {
        let conv = QConv2d {
            name: "bad".into(),
            weights: Tensor::from_vec(&[1, 2, 1, 1], vec![1, 1]),
            bias: vec![0.0],
            stride: 1,
            padding: 0,
            groups: 1,
            requant: unit_requant(),
        };
        let input = Tensor::<u32>::zeros(&[3, 2, 2]);
        let _ = exact(&conv, &input);
    }

    #[test]
    #[should_panic(expected = "conv stride must be positive")]
    fn conv_zero_stride_panics() {
        let conv = QConv2d {
            name: "s0".into(),
            weights: Tensor::from_vec(&[1, 1, 1, 1], vec![1]),
            bias: vec![0.0],
            stride: 0,
            padding: 0,
            groups: 1,
            requant: unit_requant(),
        };
        let _ = conv.output_hw(4, 4);
    }

    #[test]
    #[should_panic(expected = "pool stride must be positive")]
    fn maxpool_zero_stride_panics() {
        let pool = MaxPool2d {
            kernel: 2,
            stride: 0,
            padding: 0,
        };
        let _ = pool.forward(&Tensor::<u32>::zeros(&[1, 4, 4]));
    }

    #[test]
    #[should_panic(expected = "pool window 5 does not fit input 2x2")]
    fn maxpool_window_larger_than_padded_input_panics() {
        let pool = MaxPool2d {
            kernel: 5,
            stride: 1,
            padding: 1,
        };
        let _ = pool.forward(&Tensor::<u32>::zeros(&[1, 2, 2]));
    }
}
