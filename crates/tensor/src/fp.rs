#![allow(clippy::needless_range_loop)] // index loops span several parallel slices

//! Floating-point reference operators: forward passes for quantization
//! calibration / parity tests, and backward passes for training the small
//! CNN. Stride-1 convolution only — the small CNN downsamples with
//! pooling, and the big models run through the quantized path.
//!
//! Convolution (forward and backward) runs through **im2col + GEMM**: the
//! padded patch matrix is gathered once, and all three convolution
//! contractions — output, weight gradient, input gradient — become dense
//! matrix products over contiguous slices. The output is a dot product
//! per (pixel, kernel), one serial add chain each: the forward's kernel
//! runs `PB × KB` of those chains side by side in registers (register
//! blocking; Goto & van de Geijn, ACM TOMS 2008), each keeping its
//! one-at-a-time operation order, so no bit moves. The two gradients are
//! row updates (`row += g · vector`) whose elements are independent
//! already, so they stay plain vectorized loops.

use crate::tensor::Tensor;

/// Gathers the stride-1 zero-padded im2col patch matrix: one row of
/// length `C·K·K` (in `(c, ky, kx)` order) per output position, rows in
/// `(oy, ox)` row-major order. Returns `(col, h_out, w_out)`. The input is
/// zero-padded into a copy first, so each `(c, ky)` run of a row is one
/// contiguous slice of it.
fn im2col(input: &Tensor<f32>, kh: usize, kw: usize, pad: usize) -> (Vec<f32>, usize, usize) {
    let [c_in, h, w] = *input.dims() else {
        panic!("conv input must be rank 3, got {:?}", input.dims());
    };
    let (hp, wp) = (h + 2 * pad, w + 2 * pad);
    let (h_out, w_out) = (hp - kh + 1, wp - kw + 1);
    let mut xp = vec![0.0f32; c_in * hp * wp];
    for (i, row) in input.as_slice().chunks_exact(w).enumerate() {
        let (c, y) = (i / h, i % h);
        let dst = (c * hp + y + pad) * wp + pad;
        xp[dst..dst + w].copy_from_slice(row);
    }
    let mut col = Vec::with_capacity(h_out * w_out * c_in * kh * kw);
    for oy in 0..h_out {
        for ox in 0..w_out {
            for c in 0..c_in {
                for ky in 0..kh {
                    let src = (c * hp + oy + ky) * wp + ox;
                    col.extend(xp[src..src + kw].iter().copied());
                }
            }
        }
    }
    (col, h_out, w_out)
}

/// Stride-1 zero-padded convolution forward: input `[C, H, W]`, weights
/// `[L, C, K, K]`, bias `[L]` → output `[L, H', W']`, returned with the
/// input's im2col patch matrix, which [`conv_backward`] takes in place of
/// the input.
///
/// # Panics
/// Panics on shape mismatches.
pub fn conv_forward(
    input: &Tensor<f32>,
    weights: &Tensor<f32>,
    bias: &[f32],
    pad: usize,
) -> (Tensor<f32>, Vec<f32>) {
    let [c_in, _, _] = *input.dims() else {
        panic!("conv input must be rank 3, got {:?}", input.dims());
    };
    let [l, c_w, kh, kw] = *weights.dims() else {
        panic!("conv weights must be rank 4, got {:?}", weights.dims());
    };
    assert_eq!(c_in, c_w, "channel mismatch");
    assert_eq!(bias.len(), l, "bias length mismatch");
    let (col, h_out, w_out) = im2col(input, kh, kw, pad);
    let s = c_in * kh * kw;
    let mut out = Tensor::<f32>::zeros(&[l, h_out, w_out]);
    conv_gemm(&col, s, weights.as_slice(), bias, out.as_mut_slice());
    (out, col)
}

/// Kernels per register block: the `[f32; KB]` lanes of one accumulator
/// row.
const KB: usize = 8;
/// Pixels per register block: its accumulator rows.
const PB: usize = 4;

/// The register-blocked product behind [`conv_forward`]: for every pixel
/// and kernel, `out[k][pix] = bias[k] + Σ_j col[pix][j] · w[k][j]`, added
/// for `j` ascending as one serial chain, exactly as a one-output-at-a-
/// time loop adds it; `PB × KB` such chains run side by side. Tail pixels
/// repeat the last pixel and padded kernels compute zeros; neither is
/// stored.
fn conv_gemm(col: &[f32], s: usize, w: &[f32], bias: &[f32], out: &mut [f32]) {
    let (l, p_total) = (bias.len(), col.len() / s);
    // panel[b][j][i] = w[b·KB + i][j], zero for the padded kernels.
    let mut panel = vec![0.0f32; l.div_ceil(KB) * s * KB];
    for (k, wrow) in w.chunks_exact(s).enumerate() {
        for (j, &v) in wrow.iter().enumerate() {
            panel[((k / KB) * s + j) * KB + k % KB] = v;
        }
    }
    for (b, pb) in panel.chunks_exact(s * KB).enumerate() {
        let ks = b * KB..l.min((b + 1) * KB);
        let mut start = [0.0f32; KB];
        start[..ks.len()].copy_from_slice(&bias[ks.clone()]);
        for p0 in (0..p_total).step_by(PB) {
            let rows: [&[f32]; PB] = std::array::from_fn(|r| {
                let pix = (p0 + r).min(p_total - 1);
                &col[pix * s..(pix + 1) * s]
            });
            let mut acc = [start; PB];
            for (j, wv) in pb.chunks_exact(KB).enumerate() {
                let wv: &[f32; KB] = wv.try_into().expect("invariant: chunks of KB");
                for r in 0..PB {
                    let c = rows[r][j];
                    for i in 0..KB {
                        acc[r][i] += c * wv[i];
                    }
                }
            }
            for (r, a) in acc.iter().enumerate().take(p_total - p0) {
                for (i, k) in ks.clone().enumerate() {
                    out[k * p_total + p0 + r] = a[i];
                }
            }
        }
    }
}

/// Convolution backward over the input of dims `input_dims`, given the
/// im2col patch matrix `col` that [`conv_forward`] gathered from it:
/// returns `(grad_input, grad_weights, grad_bias)`. `grad_input` is
/// `None` unless `input_grad` asks for it; a network's first layer has no
/// use for the gradient at its image.
pub fn conv_backward(
    input_dims: &[usize],
    col: &[f32],
    weights: &Tensor<f32>,
    grad_out: &Tensor<f32>,
    pad: usize,
    input_grad: bool,
) -> (Option<Tensor<f32>>, Tensor<f32>, Vec<f32>) {
    let [c_in, h, w] = *input_dims else {
        panic!("rank")
    };
    let [l, _, kh, kw] = *weights.dims() else {
        panic!("rank")
    };
    let [lo, h_out, w_out] = *grad_out.dims() else {
        panic!("rank")
    };
    assert_eq!(l, lo, "kernel count mismatch");

    let s = c_in * kh * kw;
    let p_total = h_out * w_out;
    assert_eq!(col.len(), p_total * s, "grad_out shape mismatch");
    let go = grad_out.as_slice();
    let wd = weights.as_slice();

    let mut grad_w = Tensor::<f32>::zeros(weights.dims());
    let mut grad_b = vec![0.0f32; l];
    // gcol[pix][s] = Σ_k g[k][pix] · w[k][s] — the input gradient in
    // im2col coordinates, scattered back by col2im below.
    let mut gcol = vec![0.0f32; if input_grad { p_total * s } else { 0 }];

    for k in 0..l {
        let go_row = &go[k * p_total..(k + 1) * p_total];
        let wrow = &wd[k * s..(k + 1) * s];
        let gw_row = &mut grad_w.as_mut_slice()[k * s..(k + 1) * s];
        for (pix, &g) in go_row.iter().enumerate() {
            // ReLU upstream makes grad_out sparse; skipping zeros keeps
            // the old fast path for dead units.
            if g == 0.0 {
                continue;
            }
            grad_b[k] += g;
            let crow = &col[pix * s..(pix + 1) * s];
            for idx in 0..s {
                gw_row[idx] += g * crow[idx];
            }
            if input_grad {
                let grow = &mut gcol[pix * s..(pix + 1) * s];
                for idx in 0..s {
                    grow[idx] += g * wrow[idx];
                }
            }
        }
    }
    if !input_grad {
        return (None, grad_w, grad_b);
    }

    // col2im: scatter-add the patch-coordinate gradients back to input
    // coordinates.
    let mut grad_in = Tensor::<f32>::zeros(&[c_in, h, w]);
    let gi = grad_in.as_mut_slice();
    for oy in 0..h_out {
        for ox in 0..w_out {
            let grow = &gcol[(oy * w_out + ox) * s..(oy * w_out + ox + 1) * s];
            let mut idx = 0;
            for c in 0..c_in {
                for ky in 0..kh {
                    let iy = oy + ky;
                    if iy < pad || iy - pad >= h {
                        idx += kw;
                        continue;
                    }
                    let dst = (c * h + (iy - pad)) * w;
                    for kx in 0..kw {
                        let ix = ox + kx;
                        if ix >= pad && ix - pad < w {
                            gi[dst + ix - pad] += grow[idx];
                        }
                        idx += 1;
                    }
                }
            }
        }
    }
    (Some(grad_in), grad_w, grad_b)
}

/// ReLU forward, in place.
pub fn relu_in_place(x: &mut Tensor<f32>) {
    for v in x.as_mut_slice() {
        *v = v.max(0.0);
    }
}

/// ReLU backward: gates the gradient by the sign of the forward input,
/// or equally of its output (`max(z, 0) > 0` exactly when `z > 0`).
pub fn relu_backward(x: &Tensor<f32>, grad_out: &Tensor<f32>) -> Tensor<f32> {
    assert_eq!(x.dims(), grad_out.dims(), "shape mismatch");
    Tensor::from_fn(x.dims(), |i| {
        if x.as_slice()[i] > 0.0 {
            grad_out.as_slice()[i]
        } else {
            0.0
        }
    })
}

/// 2×2 stride-2 max-pool forward; also returns the argmax flat indices
/// for the backward pass.
pub fn maxpool2_forward(x: &Tensor<f32>) -> (Tensor<f32>, Vec<usize>) {
    let [c, h, w] = *x.dims() else { panic!("rank") };
    assert!(h % 2 == 0 && w % 2 == 0, "maxpool2 needs even spatial dims");
    let (h2, w2) = (h / 2, w / 2);
    let mut out = Tensor::<f32>::zeros(&[c, h2, w2]);
    let mut arg = vec![0usize; c * h2 * w2];
    for ci in 0..c {
        for oy in 0..h2 {
            for ox in 0..w2 {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = 0;
                for dy in 0..2 {
                    for dx in 0..2 {
                        let (y, x_) = (oy * 2 + dy, ox * 2 + dx);
                        let v = x.at3(ci, y, x_);
                        if v > best {
                            best = v;
                            best_idx = (ci * h + y) * w + x_;
                        }
                    }
                }
                out.set3(ci, oy, ox, best);
                arg[(ci * h2 + oy) * w2 + ox] = best_idx;
            }
        }
    }
    (out, arg)
}

/// 2×2 max-pool backward: routes gradients to the argmax positions.
pub fn maxpool2_backward(
    input_dims: &[usize],
    argmax: &[usize],
    grad_out: &Tensor<f32>,
) -> Tensor<f32> {
    let mut grad_in = Tensor::<f32>::zeros(input_dims);
    for (i, &src) in argmax.iter().enumerate() {
        grad_in.as_mut_slice()[src] += grad_out.as_slice()[i];
    }
    grad_in
}

/// Fully-connected forward: `y = W x + b` with `W: [out, in]`.
pub fn fc_forward(x: &[f32], weights: &Tensor<f32>, bias: &[f32]) -> Vec<f32> {
    let [out_f, in_f] = *weights.dims() else {
        panic!("rank")
    };
    assert_eq!(x.len(), in_f, "fc input length mismatch");
    assert_eq!(bias.len(), out_f, "fc bias length mismatch");
    (0..out_f)
        .map(|o| {
            let row = &weights.as_slice()[o * in_f..(o + 1) * in_f];
            row.iter().zip(x).map(|(w, v)| w * v).sum::<f32>() + bias[o]
        })
        .collect()
}

/// Fully-connected backward: returns `(grad_x, grad_w, grad_b)`.
pub fn fc_backward(
    x: &[f32],
    weights: &Tensor<f32>,
    grad_out: &[f32],
) -> (Vec<f32>, Tensor<f32>, Vec<f32>) {
    let [out_f, in_f] = *weights.dims() else {
        panic!("rank")
    };
    let mut grad_x = vec![0.0f32; in_f];
    let mut grad_w = Tensor::<f32>::zeros(&[out_f, in_f]);
    for o in 0..out_f {
        let g = grad_out[o];
        let row = &weights.as_slice()[o * in_f..(o + 1) * in_f];
        let grow = &mut grad_w.as_mut_slice()[o * in_f..(o + 1) * in_f];
        for i in 0..in_f {
            grad_x[i] += g * row[i];
            grow[i] = g * x[i];
        }
    }
    (grad_x, grad_w, grad_out.to_vec())
}

/// Softmax + cross-entropy: returns `(loss, grad_logits)` for one sample.
pub fn softmax_cross_entropy(logits: &[f32], label: usize) -> (f32, Vec<f32>) {
    assert!(label < logits.len(), "label out of range");
    let max = logits.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    let exps: Vec<f32> = logits.iter().map(|&v| (v - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    let probs: Vec<f32> = exps.iter().map(|&e| e / sum).collect();
    let loss = -probs[label].max(1e-12).ln();
    let grad = probs
        .iter()
        .enumerate()
        .map(|(i, &p)| if i == label { p - 1.0 } else { p })
        .collect();
    (loss, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_tensor(dims: &[usize], rng: &mut StdRng) -> Tensor<f32> {
        Tensor::from_fn(dims, |_| rng.gen_range(-1.0f32..1.0))
    }

    /// The oracle of [`im2col`]: the gather written per element, with a
    /// bounds test for every tap.
    fn im2col_reference(input: &Tensor<f32>, kh: usize, kw: usize, pad: usize) -> Vec<f32> {
        let [c_in, h, w] = *input.dims() else {
            panic!("rank")
        };
        let h_out = h + 2 * pad - kh + 1;
        let w_out = w + 2 * pad - kw + 1;
        let s = c_in * kh * kw;
        let x = input.as_slice();
        let mut col = vec![0.0f32; h_out * w_out * s];
        for oy in 0..h_out {
            for ox in 0..w_out {
                let row = &mut col[(oy * w_out + ox) * s..(oy * w_out + ox + 1) * s];
                let mut idx = 0;
                for c in 0..c_in {
                    for ky in 0..kh {
                        let iy = oy + ky;
                        if iy < pad || iy - pad >= h {
                            idx += kw;
                            continue;
                        }
                        let src = (c * h + (iy - pad)) * w;
                        for kx in 0..kw {
                            let ix = ox + kx;
                            if ix >= pad && ix - pad < w {
                                row[idx] = x[src + ix - pad];
                            }
                            idx += 1;
                        }
                    }
                }
            }
        }
        col
    }

    /// The oracle of [`conv_forward`]: one output at a time, each one
    /// serial chain from `bias[k]` over `j` ascending.
    fn conv_forward_reference(
        input: &Tensor<f32>,
        weights: &Tensor<f32>,
        bias: &[f32],
        pad: usize,
    ) -> (Tensor<f32>, Vec<f32>) {
        let [l, c_in, kh, kw] = *weights.dims() else {
            panic!("rank")
        };
        let [_, h, w] = *input.dims() else {
            panic!("rank")
        };
        let (h_out, w_out) = (h + 2 * pad - kh + 1, w + 2 * pad - kw + 1);
        let col = im2col_reference(input, kh, kw, pad);
        let s = c_in * kh * kw;
        let p_total = h_out * w_out;
        let wd = weights.as_slice();
        let mut out = Tensor::<f32>::zeros(&[l, h_out, w_out]);
        let od = out.as_mut_slice();
        for pix in 0..p_total {
            let crow = &col[pix * s..(pix + 1) * s];
            for k in 0..l {
                let wrow = &wd[k * s..(k + 1) * s];
                let mut acc = bias[k];
                for (cv, wv) in crow.iter().zip(wrow) {
                    acc += cv * wv;
                }
                od[k * p_total + pix] = acc;
            }
        }
        (out, col)
    }

    /// A value the kernels must carry bit for bit: ±0, a subnormal, a
    /// large magnitude (products of two overflow to ±inf, and sums of
    /// those to NaN) or an ordinary one.
    fn edge_value(rng: &mut StdRng) -> f32 {
        let v = match rng.gen_range(0..8) {
            0 => 0.0,
            1 => f32::from_bits(rng.gen_range(1u32..0x0080_0000)),
            2 => rng.gen_range(1e15f32..1e30),
            _ => rng.gen_range(0.0f32..2.0),
        };
        if rng.gen_range(0..2) == 0 {
            -v
        } else {
            v
        }
    }

    /// Asserts that [`conv_forward`]'s output and patch matrix equal the
    /// oracles' bit for bit on one shape, filled with [`edge_value`]s.
    fn assert_forward_matches(shape: [usize; 7], seed: u64) {
        let [c_in, h, w, l, kh, kw, pad] = shape;
        let mut rng = StdRng::seed_from_u64(seed);
        let input = Tensor::from_fn(&[c_in, h, w], |_| edge_value(&mut rng));
        let weights = Tensor::from_fn(&[l, c_in, kh, kw], |_| edge_value(&mut rng));
        let bias: Vec<f32> = (0..l).map(|_| edge_value(&mut rng)).collect();
        let (out, col) = conv_forward(&input, &weights, &bias, pad);
        let (want, want_col) = conv_forward_reference(&input, &weights, &bias, pad);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&col), bits(&want_col), "im2col, shape {shape:?}");
        assert_eq!(
            bits(out.as_slice()),
            bits(want.as_slice()),
            "output, shape {shape:?}"
        );
    }

    proptest! {
        /// Shapes with odd sides, kernel counts off the block of 8, pixel
        /// counts off the block of 4, and 1×1 to 3×3 windows.
        #[test]
        fn prop_conv_forward_matches_reference(
            c_in in 1usize..=9,
            h in 1usize..=12,
            w in 1usize..=12,
            l in 1usize..=20,
            (kh, kw) in (1usize..=3, 1usize..=3),
            pad in 0usize..=1,
            seed in 0u64..1_000_000,
        ) {
            let (kh, kw) = (kh.min(h + 2 * pad), kw.min(w + 2 * pad));
            assert_forward_matches([c_in, h, w, l, kh, kw, pad], seed);
        }
    }

    #[test]
    #[ignore = "sweeps every shape of the proptest's grid (~1 min in release); run with: cargo test -p sconna-tensor --release -- --ignored"]
    fn conv_forward_matches_reference_on_the_whole_grid() {
        let mut seed = 0;
        for c_in in 1..=9 {
            for (h, w) in (1..=12).flat_map(|h| (1..=12).map(move |w| (h, w))) {
                for l in 1..=20 {
                    for (kh, kw, pad) in (0..18).map(|i| (1 + i / 6, 1 + i / 2 % 3, i % 2)) {
                        if kh <= h + 2 * pad && kw <= w + 2 * pad {
                            seed += 1;
                            assert_forward_matches([c_in, h, w, l, kh, kw, pad], seed);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn conv_forward_identity() {
        let input = Tensor::from_vec(&[1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let w = Tensor::from_vec(&[1, 1, 1, 1], vec![2.0]);
        let (out, _) = conv_forward(&input, &w, &[1.0], 0);
        assert_eq!(out.as_slice(), &[3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn conv_gradient_check() {
        // Numerical vs analytic gradients on a tiny problem.
        let mut rng = StdRng::seed_from_u64(42);
        let input = rand_tensor(&[2, 4, 4], &mut rng);
        let w = rand_tensor(&[3, 2, 3, 3], &mut rng);
        let bias = vec![0.1, -0.2, 0.3];
        let pad = 1;

        // Loss = sum of outputs (grad_out = ones).
        let (out, col) = conv_forward(&input, &w, &bias, pad);
        let grad_out = Tensor::from_fn(out.dims(), |_| 1.0f32);
        let (gi, gw, gb) = conv_backward(input.dims(), &col, &w, &grad_out, pad, true);
        let gi = gi.expect("asked for the input gradient");
        // Skipping the input gradient leaves the other two bit-identical.
        let (none, gw_only, gb_only) = conv_backward(input.dims(), &col, &w, &grad_out, pad, false);
        assert!(none.is_none());
        assert_eq!(gw_only.as_slice(), gw.as_slice());
        assert_eq!(gb_only, gb);

        let eps = 1e-3f32;
        let loss = |inp: &Tensor<f32>, wt: &Tensor<f32>, b: &[f32]| -> f32 {
            conv_forward(inp, wt, b, pad).0.as_slice().iter().sum()
        };
        // Check a handful of weight coordinates.
        for &idx in &[0usize, 7, 23, 53] {
            let mut wp = w.clone();
            wp.as_mut_slice()[idx] += eps;
            let mut wm = w.clone();
            wm.as_mut_slice()[idx] -= eps;
            let num = (loss(&input, &wp, &bias) - loss(&input, &wm, &bias)) / (2.0 * eps);
            let ana = gw.as_slice()[idx];
            assert!((num - ana).abs() < 0.05, "w[{idx}]: num {num} ana {ana}");
        }
        // Check input coordinates.
        for &idx in &[0usize, 5, 17, 31] {
            let mut ip = input.clone();
            ip.as_mut_slice()[idx] += eps;
            let mut im = input.clone();
            im.as_mut_slice()[idx] -= eps;
            let num = (loss(&ip, &w, &bias) - loss(&im, &w, &bias)) / (2.0 * eps);
            let ana = gi.as_slice()[idx];
            assert!((num - ana).abs() < 0.05, "x[{idx}]: num {num} ana {ana}");
        }
        // Bias gradient = number of output positions.
        assert!((gb[0] - out.dims()[1] as f32 * out.dims()[2] as f32).abs() < 1e-3);
    }

    #[test]
    fn relu_gates_gradient() {
        let x = Tensor::from_vec(&[4], vec![-1.0, 0.0, 2.0, -3.0]);
        let g = Tensor::from_vec(&[4], vec![1.0, 1.0, 1.0, 1.0]);
        let mut y = x.clone();
        relu_in_place(&mut y);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
        assert_eq!(relu_backward(&x, &g).as_slice(), &[0.0, 0.0, 1.0, 0.0]);
        assert_eq!(relu_backward(&y, &g).as_slice(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn maxpool_roundtrip() {
        let x = Tensor::from_vec(&[1, 2, 2], vec![1.0, 5.0, 3.0, 2.0]);
        let (y, arg) = maxpool2_forward(&x);
        assert_eq!(y.as_slice(), &[5.0]);
        assert_eq!(arg, vec![1]);
        let g = maxpool2_backward(&[1, 2, 2], &arg, &Tensor::from_vec(&[1, 1, 1], vec![2.0]));
        assert_eq!(g.as_slice(), &[0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn fc_gradient_check() {
        let mut rng = StdRng::seed_from_u64(1);
        let x: Vec<f32> = (0..6).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let w = rand_tensor(&[3, 6], &mut rng);
        let b = vec![0.0f32; 3];
        let grad_out = vec![1.0f32, -2.0, 0.5];
        let (gx, gw, gb) = fc_backward(&x, &w, &grad_out);

        let eps = 1e-3f32;
        let loss = |x_: &[f32], w_: &Tensor<f32>| -> f32 {
            fc_forward(x_, w_, &b)
                .iter()
                .zip(&grad_out)
                .map(|(y, g)| y * g)
                .sum()
        };
        for idx in 0..6 {
            let mut xp = x.clone();
            xp[idx] += eps;
            let mut xm = x.clone();
            xm[idx] -= eps;
            let num = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            assert!((num - gx[idx]).abs() < 0.02, "x[{idx}]");
        }
        for idx in 0..18 {
            let mut wp = w.clone();
            wp.as_mut_slice()[idx] += eps;
            let mut wm = w.clone();
            wm.as_mut_slice()[idx] -= eps;
            let num = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            assert!((num - gw.as_slice()[idx]).abs() < 0.02, "w[{idx}]");
        }
        assert_eq!(gb, grad_out);
    }

    #[test]
    fn softmax_ce_properties() {
        let (loss, grad) = softmax_cross_entropy(&[1.0, 2.0, 3.0], 2);
        assert!(loss > 0.0);
        // Gradient sums to zero and is negative only at the label.
        let sum: f32 = grad.iter().sum();
        assert!(sum.abs() < 1e-6);
        assert!(grad[2] < 0.0 && grad[0] > 0.0 && grad[1] > 0.0);
        // Confident correct prediction → low loss.
        let (low, _) = softmax_cross_entropy(&[0.0, 20.0], 1);
        assert!(low < 1e-6);
    }
}
