//! Parity guarantees of the batched inference path: `vdp_batch` tiles,
//! the im2col patch gather, and the row-blocked conv forward must all be
//! bit-identical to their single-vector / per-pixel references — for the
//! exact engine, the noiseless stochastic engine, and the noisy engine
//! with keyed ADC error. The prepared, arena-backed forward obeys the
//! same bar: `PreparedWeights` tiles and whole-batch stacked tiles must be
//! bit-equal to the per-pair `vdp_keyed` oracle, layer by layer and for
//! whole networks.

use proptest::prelude::*;
use sconna::accel::SconnaEngine;
use sconna::photonics::pca::{AdcModel, DEFAULT_ADC_NOISE_SIGMA};
use sconna::sc::Precision;
use sconna::tensor::arena::BatchArena;
use sconna::tensor::engine::{combine_keys, ExactEngine, PatchMatrix, VdpEngine, WeightMatrix};
use sconna::tensor::layers::{MaxPool2d, QConv2d, QFc};
use sconna::tensor::network::{QLayer, QuantizedNetwork, Residual};
use sconna::tensor::quant::{ActivationQuant, Requant, WeightQuant};
use sconna::tensor::Tensor;

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

/// Asserts the `vdp_batch` contract on one engine: entry `(p, k)` equals
/// the single-vector call under the combined key, bit for bit — and the
/// weight-stationary `vdp_batch_prepared` path reproduces the same tile
/// exactly.
fn assert_batch_parity(
    engine: &dyn VdpEngine,
    patches: &PatchMatrix,
    wm: &WeightMatrix<'_>,
    keys: &[u64],
) {
    let got = engine.vdp_batch(patches, wm, keys);
    assert_eq!(got.len(), patches.rows() * wm.rows());
    for p in 0..patches.rows() {
        for k in 0..wm.rows() {
            let want = engine.vdp_keyed(patches.row(p), wm.row(k), combine_keys(keys[p], k as u64));
            assert_eq!(
                got[p * wm.rows() + k].to_bits(),
                want.to_bits(),
                "{}: tile entry ({p}, {k}) diverged from per-vector path",
                engine.name()
            );
        }
    }
    let prepared = engine.prepare_weights(wm);
    let fast = engine.vdp_batch_prepared(patches, &prepared, keys);
    assert_eq!(
        got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        fast.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "{}: prepared tile diverged from raw tile",
        engine.name()
    );
}

proptest! {
    /// Tile ≡ per-vector for both engines across precisions (B1 through
    /// the B10 table edge into the B11–B12 closed form), VDPE sizes
    /// (odd sizes and ragged tail chunks included, plus paper-sized
    /// 176-chunks over multi-chunk vectors), tiles up to 70 patches (so
    /// any internal patch blocking is crossed), operands the B-bit
    /// registers must clamp (inputs above `qmax`, weights beyond
    /// ±`qmax` including `i32::MIN`) and ADC settings: none, σ = 0,
    /// 0.5×, 1× and 4× the calibrated σ (the tile kernel's certified
    /// conversion and its exact fallback), and σ = 0.2, past the
    /// certification guard.
    #[test]
    fn prop_vdp_batch_matches_per_vector(
        bits in 1u8..=12,
        small_vdpe in 3usize..=40,
        small_cols in 0usize..=90,
        paper_chunks in 0u8..=3,
        long_cols in 0usize..=400,
        rows in 0usize..=70,
        kernels in 1usize..=6,
        seed in 0u64..=1000,
        adc_mode in 0usize..=5,
        out_of_range in 0u8..=1,
    ) {
        // One case in four runs the paper's N = 176 over long vectors.
        let (vdpe, cols) = if paper_chunks == 0 {
            (176, long_cols)
        } else {
            (small_vdpe, small_cols)
        };
        let precision = Precision::new(bits);
        let qmax = precision.max_value() as i64;
        // Out-of-range cases draw inputs up to 2·qmax + 1 and weights
        // over ±(2·qmax + 1), with one weight pinned at i32::MIN.
        let span = if out_of_range == 1 { 2 * qmax + 1 } else { qmax };
        let patches = PatchMatrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|i| ((i as i64 * 37 + seed as i64) % (span + 1)) as u32)
                .collect(),
        );
        let mut wdata: Vec<i32> = (0..kernels * cols)
            .map(|i| ((i as i64 * 53 + seed as i64) % (2 * span + 1) - span) as i32)
            .collect();
        if out_of_range == 1 && !wdata.is_empty() {
            let at = seed as usize % wdata.len();
            wdata[at] = i32::MIN;
        }
        let wm = WeightMatrix::new(&wdata, kernels, cols);
        let keys: Vec<u64> = (0..rows as u64).map(|p| p.wrapping_mul(seed | 1)).collect();

        let sigma = [
            None,
            Some(0.0),
            Some(0.5 * DEFAULT_ADC_NOISE_SIGMA),
            Some(DEFAULT_ADC_NOISE_SIGMA),
            Some(4.0 * DEFAULT_ADC_NOISE_SIGMA),
            Some(0.2),
        ][adc_mode];
        let adc = sigma.map(|relative_noise_sigma| AdcModel {
            relative_noise_sigma,
            ..AdcModel::sconna_default()
        });
        let sconna = SconnaEngine::new(precision, vdpe, adc, seed);
        assert_batch_parity(&sconna, &patches, &wm, &keys);
        assert_batch_parity(&ExactEngine, &patches, &wm, &keys);
    }

    /// im2col + batched tiles over prepared weights ≡ per-pixel gather +
    /// single-vector calls on random conv geometries (stride / padding /
    /// groups / kernel size) — checked on the *noisy* engine too, where
    /// any key or gather mismatch shows up as a bit difference.
    #[test]
    fn prop_conv_forward_matches_reference_gather(
        d_g in 1usize..=3,
        groups in 1usize..=3,
        kpg in 1usize..=3,
        k in 1usize..=2,
        stride in 1usize..=2,
        padding in 0usize..=1,
        extra_h in 0usize..=5,
        extra_w in 0usize..=5,
        seed in 0u64..=500,
        noisy in 0u8..=1,
    ) {
        let noisy = noisy == 1;
        let k = 2 * k - 1; // kernel side 1 or 3
        let d_in = d_g * groups;
        let l = kpg * groups;
        let (h, w) = (k + extra_h, k + extra_w);
        let conv = QConv2d {
            name: format!("prop-{seed}"),
            weights: Tensor::from_fn(&[l, d_g, k, k], |i| ((i as i64 + seed as i64) % 255) as i32 - 127),
            bias: (0..l).map(|b| b as f64 - 1.0).collect(),
            stride,
            padding,
            groups,
            requant: unit_requant(),
        };
        let input = Tensor::<u32>::from_fn(&[d_in, h, w], |i| ((i as u64 * 31 + seed) % 256) as u32);

        let engine: Box<dyn VdpEngine> = if noisy {
            Box::new(SconnaEngine::paper_default(seed))
        } else {
            Box::new(ExactEngine)
        };
        let key = conv.layer_key();
        let reference = conv.forward_reference(&input, engine.as_ref(), key);
        let prepared = conv.prepare(engine.as_ref());
        let batched = conv.forward_batch(
            &[&input], engine.as_ref(), &prepared, &[key], &BatchArena::new());
        prop_assert_eq!(reference.as_slice(), batched[0].as_slice());
    }

    /// The weight-stationary serving path — prepared per-group handles +
    /// the im2col patches of a whole request batch stacked into one tile
    /// — must be bit-equal to running each request through the per-pair
    /// `forward_reference` oracle, on random
    /// conv geometries and batch compositions, with and without ADC
    /// noise.
    #[test]
    fn prop_prepared_batch_tiles_match_per_request_forward(
        d_g in 1usize..=2,
        groups in 1usize..=3,
        kpg in 1usize..=3,
        k in 1usize..=2,
        stride in 1usize..=2,
        padding in 0usize..=1,
        extra in 0usize..=4,
        n_images in 1usize..=4,
        seed in 0u64..=500,
        noisy in 0u8..=1,
    ) {
        let noisy = noisy == 1;
        let k = 2 * k - 1; // kernel side 1 or 3
        let d_in = d_g * groups;
        let l = kpg * groups;
        let (h, w) = (k + extra, k + 1);
        let conv = QConv2d {
            name: format!("prep-{seed}"),
            weights: Tensor::from_fn(&[l, d_g, k, k], |i| ((i as i64 * 3 + seed as i64) % 255) as i32 - 127),
            bias: (0..l).map(|b| b as f64 * 0.5).collect(),
            stride,
            padding,
            groups,
            requant: unit_requant(),
        };
        let images: Vec<Tensor<u32>> = (0..n_images)
            .map(|b| Tensor::<u32>::from_fn(&[d_in, h, w], |i| ((i as u64 * 23 + seed + b as u64 * 101) % 256) as u32))
            .collect();
        let base_keys: Vec<u64> = (0..n_images as u64).map(|b| seed.wrapping_mul(31).wrapping_add(b * 7919)).collect();

        let engine: Box<dyn VdpEngine> = if noisy {
            Box::new(SconnaEngine::paper_default(seed))
        } else {
            Box::new(ExactEngine)
        };
        // Per-request reference: the per-pair oracle under each image's key.
        let singles: Vec<Tensor<u32>> = images
            .iter()
            .zip(&base_keys)
            .map(|(im, &bk)| conv.forward_reference(im, engine.as_ref(), bk))
            .collect();

        // Arena-reused scratch is observationally pure: running the same
        // batch repeatedly through one (increasingly dirty) arena must
        // reproduce the oracle bit-for-bit.
        let prepared = conv.prepare(engine.as_ref());
        let refs: Vec<&Tensor<u32>> = images.iter().collect();
        let arena = BatchArena::new();
        for round in 0..3 {
            let pooled = conv.forward_batch(
                &refs, engine.as_ref(), &prepared, &base_keys, &arena);
            prop_assert_eq!(pooled.len(), singles.len());
            for (b, (got, want)) in pooled.iter().zip(&singles).enumerate() {
                prop_assert_eq!(got.as_slice(), want.as_slice(), "arena image {} round {}", b, round);
            }
            // Recycle the outputs so the next round draws dirty buffers.
            for t in pooled {
                arena.recycle(t);
            }
        }
        // A batch of one is the same contract.
        let one = conv.forward_batch(&refs[..1], engine.as_ref(), &prepared, &base_keys[..1], &arena);
        prop_assert_eq!(one[0].as_slice(), singles[0].as_slice());
    }

    /// Whole-network arena threading: `forward_batch` through one
    /// long-lived arena (dirtied across calls, layers and images — the
    /// serving-instance usage) is bit-identical to the per-pair
    /// `QuantizedNetwork::forward_keyed` oracle, logits compared exactly —
    /// on the primary network and on its `degraded(4)` fallback tier run
    /// by a B4 SCONNA engine with ADC (the overload fleet's shed path),
    /// for a plain network and for one with a residual block (two branch
    /// convs, a skip rescale below 1).
    #[test]
    fn prop_network_forward_batch_in_arena_is_bit_identical(
        n_images in 1usize..=3,
        seed in 0u64..=200,
        noisy in 0u8..=1,
    ) {
        let noisy = noisy == 1;
        let aq = ActivationQuant { scale: 1.0 / 255.0, bits: 8 };
        let wq = WeightQuant { scale: 1.0 / 127.0, bits: 8 };
        // The branch works on a 4x coarser grid, so its accumulators land
        // inside the code range and its closing conv sees both signs.
        let mid = ActivationQuant { scale: 4.0 / 255.0, bits: 8 };
        let conv = |name: &str, d: usize, mul: u64, bias: f64, rq: Requant| {
            QLayer::Conv(QConv2d {
                name: format!("net-{name}-{seed}"),
                weights: Tensor::from_fn(&[4, d, 3, 3], |i| ((i as u64 * mul + seed) % 255) as i32 - 127),
                bias: (0..4).map(|k| k as f64 * bias - 1.5 * bias).collect(),
                stride: 1,
                padding: 1,
                groups: 1,
                requant: rq,
            })
        };
        let pool = QLayer::MaxPool(MaxPool2d { kernel: 2, stride: 2, padding: 0 });
        let fc = |out_scale: f32| {
            QLayer::Fc(QFc {
                name: format!("net-fc-{seed}"),
                weights: Tensor::from_fn(&[3, 4], |i| ((i as u64 * 67 + seed) % 255) as i32 - 127),
                bias: vec![0.0; 3],
                dequant: out_scale * wq.scale,
            })
        };
        let stem = conv("c1", 1, 29, 0.0, Requant::new(aq, wq, aq));
        let plain = QuantizedNetwork {
            input_quant: aq,
            layers: vec![stem.clone(), pool.clone(), QLayer::GlobalAvgPool, fc(aq.scale)],
        };
        let residual = QuantizedNetwork {
            input_quant: aq,
            layers: vec![
                stem,
                pool,
                QLayer::Residual(Residual {
                    branch: vec![
                        conv("b1", 4, 37, 50.0, Requant::new(aq, wq, mid)),
                        conv("b2", 4, 41, 50.0, Requant::new(mid, wq, mid)),
                    ],
                    skip_rescale: aq.scale / mid.scale,
                }),
                QLayer::GlobalAvgPool,
                fc(mid.scale),
            ],
        };
        let engine: Box<dyn VdpEngine> = if noisy {
            Box::new(SconnaEngine::paper_default(seed))
        } else {
            Box::new(ExactEngine)
        };
        let images: Vec<Tensor<f32>> = (0..n_images)
            .map(|b| Tensor::from_fn(&[1, 12, 12], |i| ((i as u64 * 13 + seed + b as u64 * 71) % 256) as f32 / 255.0))
            .collect();
        let keys: Vec<u64> = (0..n_images as u64).map(|b| seed.wrapping_add(b * 977)).collect();

        let fallback = SconnaEngine::new(Precision::new(4), 176, Some(AdcModel::sconna_default()), seed);
        for net in [&plain, &residual] {
            assert_network_matches_oracle(net, engine.as_ref(), &images, &keys);
            assert_network_matches_oracle(&net.degraded(4), &fallback, &images, &keys);
        }
    }
}

/// Runs `images` through one long-lived arena three times and requires
/// every batch's logits to equal the per-image oracle exactly.
fn assert_network_matches_oracle(
    net: &QuantizedNetwork,
    engine: &dyn VdpEngine,
    images: &[Tensor<f32>],
    keys: &[u64],
) {
    let want: Vec<Vec<f32>> = images
        .iter()
        .zip(keys)
        .map(|(im, &k)| net.forward_keyed(im, engine, k))
        .collect();
    let prepared = net.prepare(engine);
    let refs: Vec<&Tensor<f32>> = images.iter().collect();
    let arena = BatchArena::new();
    for round in 0..3 {
        let got = prepared.forward_batch(&refs, keys, &arena);
        assert_eq!(&got, &want, "{} round {}", engine.name(), round);
    }
}
