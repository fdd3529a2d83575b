//! Stochastic multiplication — the computation an Optical Stochastic
//! Multiplier (OSM) performs.
//!
//! An OSM ANDs two unipolar streams `I` and `W`; the number of ones in the
//! result encodes `I*W` (Fig. 3 / Section IV-B of the paper). This module
//! provides:
//!
//! * the bit-stream-level multiply (any two [`PackedBitstream`]s),
//! * the **LDS × thermometer pairing** SCONNA's LUT stores, with both an
//!   `O(L)` reference and an `O(B)` closed form proven equal by property
//!   tests, and
//! * the ideal (round-to-nearest) product used as the error yardstick.
//!
//! The closed form is what makes whole-CNN simulation tractable: it returns
//! the *exact* integer the optical hardware would produce without
//! materializing 256-bit streams per multiply.

use crate::bitstream::PackedBitstream;
use crate::format::Precision;
use crate::sng::{bit_reverse, LdsSng, StochasticNumberGenerator, ThermometerSng};

/// ANDs two streams and returns the ones-count of the product stream.
///
/// # Panics
/// Panics if the streams differ in length.
pub fn multiply_streams(i: &PackedBitstream, w: &PackedBitstream) -> usize {
    i.overlap(w)
}

/// The ideal product numerator: `round(i * w / 2^B)`. A stochastic multiply
/// of `L`-bit streams cannot beat this; the SC error of a scheme is its
/// deviation from the *real-valued* product `i*w/2^B`, which even the ideal
/// rounding misses by up to 0.5.
#[inline]
pub fn ideal_product(i: u32, w: u32, precision: Precision) -> u32 {
    let l = precision.stream_len() as u64;
    (((i as u64 * w as u64) + l / 2) / l) as u32
}

/// Real-valued (un-rounded) product in ones-count units: `i*w / 2^B`.
#[inline]
pub fn real_product(i: u32, w: u32, precision: Precision) -> f64 {
    (i as f64 * w as f64) / precision.stream_len() as f64
}

/// `O(L)` reference for the LDS × thermometer product: counts positions
/// `t < w` whose bit-reversal is below `i`.
pub fn lds_product_reference(i: u32, w: u32, precision: Precision) -> u32 {
    let b = precision.bits();
    let l = precision.stream_len() as u32;
    assert!(i <= l && w <= l, "operands out of range");
    (0..w).filter(|&t| bit_reverse(t, b) < i).count() as u32
}

/// `O(B)` closed form for the LDS × thermometer product.
///
/// The thermometer stream is the index interval `[0, w)`; splitting it into
/// the dyadic intervals given by the set bits of `w`, the bit-reversal image
/// of each dyadic interval is an arithmetic progression
/// `{ m * 2^(j+1) + c : 0 <= m < 2^(B-j-1) }`, and counting progression
/// members below `i` is a single division.
pub fn lds_product(i: u32, w: u32, precision: Precision) -> u32 {
    let b = precision.bits() as u32;
    let l = 1u32 << b;
    assert!(i <= l && w <= l, "operands out of range");
    if w == l {
        // Full-length thermometer stream: every one of `i`'s ones survives.
        return i;
    }
    let mut count = 0u64;
    let mut prefix = 0u32; // high bits of t fixed so far (t < w path)
    for j in 0..b {
        let wbit = (w >> (b - 1 - j)) & 1;
        if wbit == 1 {
            // Dyadic interval: t has high j bits = prefix bits, bit j = 0,
            // low (b-j-1) bits free. Its reversal fixes the low j+1 bits to
            // c = bit_reverse(prefix_with_zero_bit) and strides the high
            // bits, i.e. values m * 2^(j+1) + c.
            // t's fixed high bits are `prefix` followed by a 0 at bit j;
            // reversing the whole B-bit index sends them to the low bits:
            // c = rev_j(prefix), computed via the B-bit reversal of the
            // fixed part placed at its true position.
            let c = bit_reverse(prefix << (b - j), precision.bits());
            let stride = 1u64 << (j + 1);
            let members = 1u64 << (b - 1 - j);
            if (c as u64) < i as u64 {
                let below = (i as u64 - c as u64).div_ceil(stride);
                count += below.min(members);
            }
            prefix = (prefix << 1) | 1;
        } else {
            prefix <<= 1;
        }
    }
    count as u32
}

/// Absolute error of the LDS product against the real-valued product, in
/// ones-count units.
pub fn lds_product_error(i: u32, w: u32, precision: Precision) -> f64 {
    (lds_product(i, w, precision) as f64 - real_product(i, w, precision)).abs()
}

/// The complementary ("floor") pairing: the weight stream carries its
/// ones at the *tail* of the stream (`Wv = NOT(thermometer(2^B − w))`),
/// so the overlap is `i − lds_product(i, 2^B − w)`.
///
/// [`lds_product`] has a systematic `≈ +1`-count bias (every dyadic
/// interval of the thermometer prefix rounds its contribution up); this
/// variant has the mirror-image `≈ −1` bias. Alternating the two
/// encodings across the OSMs of a VDPE — a free choice when generating
/// the LUT offline — cancels the bias pairwise, which matters because a
/// VDPE sums 176 products onto one rail.
pub fn lds_product_floor(i: u32, w: u32, precision: Precision) -> u32 {
    let l = precision.stream_len() as u32;
    assert!(i <= l && w <= l, "operands out of range");
    i - lds_product(i, l - w, precision)
}

/// Debiased OSM product: even-indexed OSMs use the ceil pairing,
/// odd-indexed the floor pairing (see [`lds_product_floor`]).
#[inline]
pub fn osm_product_debiased(i: u32, w: u32, precision: Precision, osm_index: usize) -> u32 {
    if osm_index.is_multiple_of(2) {
        lds_product(i, w, precision)
    } else {
        lds_product_floor(i, w, precision)
    }
}

/// Stream-level construction of the floor pairing, for verifying the
/// closed form: the weight stream is the complement of the
/// `2^B − w` thermometer stream.
pub fn osm_product_stream_floor(i: u32, w: u32, precision: Precision) -> PackedBitstream {
    let l = precision.stream_len() as u32;
    let iv = LdsSng.generate(i, precision);
    let wv = ThermometerSng.generate(l - w, precision).not();
    iv.and(&wv)
}

/// Performs the full bit-stream-level OSM multiply for the canonical
/// LDS × thermometer pairing: generates both streams, ANDs them, and
/// returns the product stream (what travels down the VDPE's waveguide to
/// the PCA).
pub fn osm_product_stream(i: u32, w: u32, precision: Precision) -> PackedBitstream {
    let iv = LdsSng.generate(i, precision);
    let wv = ThermometerSng.generate(w, precision);
    iv.and(&wv)
}

/// Hardware-equivalent OSM product count — the `O(B)` fast path. Equals
/// `osm_product_stream(i, w, p).count_ones()` for every operand pair
/// (property-tested).
#[inline]
pub fn osm_product(i: u32, w: u32, precision: Precision) -> u32 {
    lds_product(i, w, precision)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ideal_product_examples() {
        let p = Precision::B8;
        assert_eq!(ideal_product(128, 128, p), 64);
        assert_eq!(ideal_product(255, 255, p), 254);
        assert_eq!(ideal_product(0, 255, p), 0);
        assert_eq!(ideal_product(256, 256, p), 256);
    }

    #[test]
    fn lds_product_matches_reference_exhaustive_b4() {
        let p = Precision::B4;
        for i in 0..=16u32 {
            for w in 0..=16u32 {
                assert_eq!(
                    lds_product(i, w, p),
                    lds_product_reference(i, w, p),
                    "i={i} w={w}"
                );
            }
        }
    }

    #[test]
    fn lds_product_matches_stream_and_b4() {
        let p = Precision::B4;
        for i in 0..=16u32 {
            for w in 0..=16u32 {
                let stream = osm_product_stream(i, w, p);
                assert_eq!(stream.count_ones() as u32, lds_product(i, w, p));
            }
        }
    }

    #[test]
    fn lds_edge_cases_b8() {
        let p = Precision::B8;
        // Multiplying by the full-scale stream is the identity.
        for v in [0u32, 1, 100, 255, 256] {
            assert_eq!(lds_product(v, 256, p), v);
            assert_eq!(lds_product(256, v, p), v);
            assert_eq!(lds_product(v, 0, p), 0);
            assert_eq!(lds_product(0, v, p), 0);
        }
    }

    #[test]
    fn lds_error_bounded_by_bits() {
        let p = Precision::B8;
        let bound = p.bits() as f64; // low-discrepancy bound: one unit per set bit of w
        let mut worst: f64 = 0.0;
        for i in 0..=256u32 {
            for w in 0..=256u32 {
                worst = worst.max(lds_product_error(i, w, p));
            }
        }
        assert!(
            worst <= bound,
            "worst LDS error {worst} exceeds discrepancy bound {bound}"
        );
    }

    /// Mean signed error (bias) and largest |error| of `mul` against the
    /// real-valued product, over the full `(i, w)` operand grid.
    fn pairing_stats(p: Precision, mul: impl Fn(u32, u32, Precision) -> u32) -> (f64, f64) {
        let l = p.stream_len() as u32;
        let (mut sum, mut worst) = (0.0f64, 0.0f64);
        for i in 0..=l {
            for w in 0..=l {
                let e = mul(i, w, p) as f64 - real_product(i, w, p);
                sum += e;
                worst = worst.max(e.abs());
            }
        }
        (sum / ((l + 1) * (l + 1)) as f64, worst)
    }

    #[test]
    fn ceil_and_floor_are_mirror_images() {
        let p = Precision::new(6);
        let (ceil_bias, ceil_worst) = pairing_stats(p, lds_product);
        let (floor_bias, floor_worst) = pairing_stats(p, lds_product_floor);
        assert!(ceil_bias > 0.4, "ceil bias {ceil_bias}");
        assert!(floor_bias < -0.4, "floor bias {floor_bias}");
        assert!((ceil_bias + floor_bias).abs() < 0.05, "biases must cancel");
        assert!((ceil_worst - floor_worst).abs() < 1.5);
    }

    #[test]
    fn debiasing_kills_the_bias_without_hurting_worst_case() {
        // An even/odd OSM couple acts as the rounded average of both
        // pairings.
        let p = Precision::new(6);
        let (ceil_bias, ceil_worst) = pairing_stats(p, lds_product);
        let (bias, worst) = pairing_stats(p, |i, w, p| {
            (lds_product(i, w, p) + lds_product_floor(i, w, p)).div_ceil(2)
        });
        assert!(bias.abs() < 0.51, "debiased bias {bias}");
        assert!(bias.abs() < ceil_bias.abs());
        assert!(worst <= ceil_worst + 1.0);
    }

    #[test]
    fn worst_error_scales_with_bits() {
        // The discrepancy bound is O(B): each extra bit adds at most one
        // more up-rounding dyadic interval.
        let (_, w4) = pairing_stats(Precision::B4, lds_product);
        let (_, w8) = pairing_stats(Precision::B8, lds_product);
        assert!(w8 > w4);
        assert!(w8 <= 8.0 && w4 <= 4.0);
    }

    #[test]
    fn lds_is_monotone_in_each_operand() {
        let p = Precision::B4;
        for i in 0..16u32 {
            for w in 0..=16u32 {
                assert!(lds_product(i, w, p) <= lds_product(i + 1, w, p));
                assert!(lds_product(w, i, p) <= lds_product(w, i + 1, p));
            }
        }
    }

    #[test]
    fn floor_variant_matches_its_stream_exhaustive_b4() {
        let p = Precision::B4;
        for i in 0..=16u32 {
            for w in 0..=16u32 {
                assert_eq!(
                    osm_product_stream_floor(i, w, p).count_ones() as u32,
                    lds_product_floor(i, w, p),
                    "i={i} w={w}"
                );
            }
        }
    }

    #[test]
    fn ceil_and_floor_biases_cancel() {
        let p = Precision::B8;
        let mut ceil_bias = 0.0;
        let mut floor_bias = 0.0;
        let mut pair_bias = 0.0;
        let mut n = 0u64;
        // Full operand grid: sub-sampling on even strides skews the bias
        // estimate (round multiples of 4 have fewer set bits, hence fewer
        // up-rounding dyadic intervals).
        for i in 0..=256u32 {
            for w in 0..=256u32 {
                let real = real_product(i, w, p);
                let c = lds_product(i, w, p) as f64 - real;
                let f = lds_product_floor(i, w, p) as f64 - real;
                ceil_bias += c;
                floor_bias += f;
                pair_bias += c + f;
                n += 1;
            }
        }
        let n = n as f64;
        assert!(ceil_bias / n > 0.5, "ceil pairing biases up");
        assert!(floor_bias / n < -0.5, "floor pairing biases down");
        assert!(
            (pair_bias / n).abs() < 0.05,
            "alternating pairing must cancel: {}",
            pair_bias / n
        );
    }

    #[test]
    fn debiased_alternates_by_index() {
        let p = Precision::B8;
        assert_eq!(
            osm_product_debiased(100, 100, p, 0),
            lds_product(100, 100, p)
        );
        assert_eq!(
            osm_product_debiased(100, 100, p, 1),
            lds_product_floor(100, 100, p)
        );
    }

    proptest! {
        #[test]
        fn prop_floor_error_bounded(i in 0u32..=256, w in 0u32..=256) {
            let p = Precision::B8;
            let err = (lds_product_floor(i, w, p) as f64 - real_product(i, w, p)).abs();
            prop_assert!(err <= p.bits() as f64 + 1.0);
        }

        #[test]
        fn prop_lds_matches_reference_b8(i in 0u32..=256, w in 0u32..=256) {
            let p = Precision::B8;
            prop_assert_eq!(lds_product(i, w, p), lds_product_reference(i, w, p));
        }

        #[test]
        fn prop_lds_matches_stream_b8(i in 0u32..=256, w in 0u32..=256) {
            let p = Precision::B8;
            let stream = osm_product_stream(i, w, p);
            prop_assert_eq!(stream.count_ones() as u32, lds_product(i, w, p));
        }

        #[test]
        fn prop_lds_matches_reference_b6(i in 0u32..=64, w in 0u32..=64) {
            let p = Precision::new(6);
            prop_assert_eq!(lds_product(i, w, p), lds_product_reference(i, w, p));
        }

        #[test]
        fn prop_product_never_exceeds_operands(i in 0u32..=256, w in 0u32..=256) {
            // AND can only keep ones present in both streams.
            let p = Precision::B8;
            let prod = lds_product(i, w, p);
            prop_assert!(prod <= i && prod <= w);
        }

        #[test]
        fn prop_multiply_streams_commutative(i in 0u32..=256, w in 0u32..=256) {
            let p = Precision::B8;
            let a = LdsSng.generate(i, p);
            let b = ThermometerSng.generate(w, p);
            prop_assert_eq!(multiply_streams(&a, &b), multiply_streams(&b, &a));
        }

        #[test]
        fn prop_lds_matches_stream_all_precisions(
            bits in 1u8..=16,
            iraw in 0u32..=(1 << 16),
            wraw in 0u32..=(1 << 16),
        ) {
            // The closed form must equal the materialized
            // stream-AND-popcount path at *every* precision the substrate
            // admits, not just the paper's B8 operating point.
            let p = Precision::new(bits);
            let l = p.stream_len() as u32;
            let i = iraw % (l + 1);
            let w = wraw % (l + 1);
            let stream = osm_product_stream(i, w, p);
            prop_assert_eq!(
                stream.count_ones() as u32,
                lds_product(i, w, p),
                "ceil pairing B={} i={} w={}", bits, i, w
            );
            let floor = osm_product_stream_floor(i, w, p);
            prop_assert_eq!(
                floor.count_ones() as u32,
                lds_product_floor(i, w, p),
                "floor pairing B={} i={} w={}", bits, i, w
            );
        }

        #[test]
        fn prop_lds_matches_reference_all_precisions(
            bits in 1u8..=16,
            iraw in 0u32..=(1 << 16),
            wraw in 0u32..=(1 << 16),
        ) {
            let p = Precision::new(bits);
            let l = p.stream_len() as u32;
            let i = iraw % (l + 1);
            let w = wraw % (l + 1);
            prop_assert_eq!(
                lds_product(i, w, p),
                lds_product_reference(i, w, p),
                "B={} i={} w={}", bits, i, w
            );
        }
    }

    #[test]
    fn lds_full_scale_and_zero_edges_every_precision() {
        // Deterministic sweep of the corner operands (0, 1, L−1, L) where
        // the dyadic-interval bookkeeping is most fragile, at every
        // admissible precision.
        for bits in 1..=16u8 {
            let p = Precision::new(bits);
            let l = p.stream_len() as u32;
            for v in [0, 1, l - 1, l] {
                assert_eq!(lds_product(v, l, p), v, "B={bits} v={v}·L");
                assert_eq!(lds_product(l, v, p), v, "B={bits} L·v={v}");
                assert_eq!(lds_product(v, 0, p), 0, "B={bits}");
                assert_eq!(
                    lds_product(v, l - 1, p),
                    osm_product_stream(v, l - 1, p).count_ones() as u32,
                    "B={bits} v={v}·(L-1)"
                );
            }
        }
    }
}
