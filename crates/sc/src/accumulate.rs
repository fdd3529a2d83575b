//! Stochastic accumulation — the computation the Photo-Charge Accumulator
//! (PCA) performs, abstracted from its analog circuit (the circuit model
//! lives in `sconna-photonics::pca`).
//!
//! A PCA counts optical `1` bits across all product streams incident on its
//! photodetector (unipolar *unscaled* addition, Section IV-C). A VDPE pairs
//! a positive-rail PCA (OWA) with a negative-rail PCA (OWA'); the signed
//! VDP result is the difference of the two counts.

use crate::bitstream::PackedBitstream;
use crate::format::Precision;
use crate::multiply::osm_product_debiased;

/// Ones-counting accumulator for one output waveguide arm (one PCA).
#[derive(Debug, Clone, Default)]
pub struct PcaCounter {
    total_ones: u64,
    streams_seen: usize,
}

impl PcaCounter {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates one product stream (all its ones land on the
    /// photodetector).
    pub fn accumulate(&mut self, stream: &PackedBitstream) {
        self.total_ones += stream.count_ones() as u64;
        self.streams_seen += 1;
    }

    /// Accumulates a pre-counted number of ones (fast path used by the
    /// closed-form multiplier).
    pub fn accumulate_count(&mut self, ones: u32) {
        self.total_ones += ones as u64;
        self.streams_seen += 1;
    }

    /// Total ones accumulated so far — the analog charge in count units.
    pub fn total(&self) -> u64 {
        self.total_ones
    }

    /// Number of streams merged.
    pub fn streams_seen(&self) -> usize {
        self.streams_seen
    }

    /// Resets for the next accumulation phase (capacitor discharge).
    pub fn reset(&mut self) {
        self.total_ones = 0;
        self.streams_seen = 0;
    }
}

/// One VDPE's signed accumulator: positive and negative rails.
#[derive(Debug, Clone, Default)]
pub struct SignedAccumulator {
    /// OWA rail: products of non-negative weights.
    pub positive: PcaCounter,
    /// OWA' rail: products of negative weights.
    pub negative: PcaCounter,
}

impl SignedAccumulator {
    /// Creates an empty signed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Routes a product count to the rail selected by the weight's sign bit
    /// (the filter MRR's steering function).
    pub fn accumulate(&mut self, product_ones: u32, weight_negative: bool) {
        if weight_negative {
            self.negative.accumulate_count(product_ones);
        } else {
            self.positive.accumulate_count(product_ones);
        }
    }

    /// Signed result in ones-count units: `positive − negative`.
    pub fn signed_total(&self) -> i64 {
        self.positive.total() as i64 - self.negative.total() as i64
    }

    /// Resets both rails.
    pub fn reset(&mut self) {
        self.positive.reset();
        self.negative.reset();
    }
}

/// Hardware-equivalent stochastic vector dot product: each element goes
/// through an OSM ([`osm_product_debiased`], alternating the two LUT
/// pairings so encoding bias cancels) and the filter-MRR/PCA pair
/// ([`SignedAccumulator`]).
///
/// `inputs` are unsigned (post-ReLU) numerators; `weights` are signed
/// integers whose magnitude is the weight numerator. The result is in
/// ones-count units, i.e. `Σ i_k·w_k / 2^B` up to per-element SC rounding.
///
/// # Panics
/// Panics if the slices differ in length or any operand is out of range
/// for `precision`.
pub fn stochastic_vdp(inputs: &[u32], weights: &[i32], precision: Precision) -> i64 {
    assert_eq!(inputs.len(), weights.len(), "vector length mismatch");
    let mut acc = SignedAccumulator::new();
    for (k, (&i, &w)) in inputs.iter().zip(weights).enumerate() {
        let prod = osm_product_debiased(i, w.unsigned_abs(), precision, k);
        acc.accumulate(prod, w < 0);
    }
    acc.signed_total()
}

/// Reference dot product in the same scaled units, computed exactly in
/// binary arithmetic: `round-free Σ i_k·w_k / 2^B` as a real number. Used
/// as the yardstick for SC error in tests and the accuracy study.
pub fn exact_vdp_scaled(inputs: &[u32], weights: &[i32], precision: Precision) -> f64 {
    assert_eq!(inputs.len(), weights.len(), "vector length mismatch");
    let l = precision.stream_len() as f64;
    inputs
        .iter()
        .zip(weights)
        .map(|(&i, &w)| i as f64 * w as f64 / l)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiply::{osm_product_stream, osm_product_stream_floor};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Bitstream-level reference VDP: materializes every OSM product
    /// stream (alternating the ceil/floor LUT pairings exactly as
    /// [`stochastic_vdp`] does), counts ones on the photodetector, and
    /// routes counts by weight sign. The closed-form path must match this
    /// bit for bit.
    fn bitstream_vdp_reference(inputs: &[u32], weights: &[i32], precision: Precision) -> i64 {
        assert_eq!(inputs.len(), weights.len());
        let mut acc = SignedAccumulator::new();
        for (k, (&i, &w)) in inputs.iter().zip(weights).enumerate() {
            let mag = w.unsigned_abs();
            let stream = if k % 2 == 0 {
                osm_product_stream(i, mag, precision)
            } else {
                osm_product_stream_floor(i, mag, precision)
            };
            if w < 0 {
                acc.negative.accumulate(&stream);
            } else {
                acc.positive.accumulate(&stream);
            }
        }
        acc.signed_total()
    }

    /// RMS error of [`stochastic_vdp`] over the RMS of [`exact_vdp_scaled`]
    /// across `trials` random `n`-element B8 vectors of uniform codes;
    /// `signed` draws zero-mean weights, otherwise non-negative ones.
    fn relative_vdp_error(n: usize, trials: usize, signed: bool, rng: &mut StdRng) -> f64 {
        let p = Precision::B8;
        let qmax = p.max_value();
        let lo = if signed { -(qmax as i32) } else { 0 };
        let (mut err_sq, mut ref_sq) = (0.0, 0.0);
        for _ in 0..trials {
            let inputs: Vec<u32> = (0..n).map(|_| rng.gen_range(0..=qmax)).collect();
            let weights: Vec<i32> = (0..n).map(|_| rng.gen_range(lo..=qmax as i32)).collect();
            let exact = exact_vdp_scaled(&inputs, &weights, p);
            let err = stochastic_vdp(&inputs, &weights, p) as f64 - exact;
            err_sq += err * err;
            ref_sq += exact * exact;
        }
        (err_sq / ref_sq).sqrt()
    }

    #[test]
    fn counter_accumulates_streams() {
        let mut c = PcaCounter::new();
        c.accumulate(&PackedBitstream::ones(10));
        c.accumulate(&PackedBitstream::zeros(10));
        c.accumulate_count(5);
        assert_eq!(c.total(), 15);
        assert_eq!(c.streams_seen(), 3);
        c.reset();
        assert_eq!(c.total(), 0);
        assert_eq!(c.streams_seen(), 0);
    }

    #[test]
    fn signed_accumulator_routes_by_sign() {
        let mut acc = SignedAccumulator::new();
        acc.accumulate(10, false);
        acc.accumulate(4, true);
        acc.accumulate(3, false);
        assert_eq!(acc.positive.total(), 13);
        assert_eq!(acc.negative.total(), 4);
        assert_eq!(acc.signed_total(), 9);
    }

    #[test]
    fn vdp_zero_vectors() {
        let p = Precision::B8;
        assert_eq!(stochastic_vdp(&[], &[], p), 0);
        assert_eq!(stochastic_vdp(&[0; 8], &[0; 8], p), 0);
    }

    #[test]
    fn vdp_full_scale_identity() {
        // Inputs at full scale (256) pass every weight through unchanged.
        let p = Precision::B8;
        let inputs = vec![256u32; 4];
        let weights = vec![10i32, -20, 30, -5];
        assert_eq!(stochastic_vdp(&inputs, &weights, p), 15);
    }

    #[test]
    fn vdp_close_to_exact() {
        let p = Precision::B8;
        let inputs: Vec<u32> = (0..64).map(|k| (k * 4) % 256).collect();
        let weights: Vec<i32> = (0..64).map(|k| ((k * 7) % 255) - 127).collect();
        let sc = stochastic_vdp(&inputs, &weights, p) as f64;
        let exact = exact_vdp_scaled(&inputs, &weights, p);
        // Per-element error ≤ B counts; 64 elements with random signs
        // partially cancel, but the hard bound is 64 * 8.
        assert!((sc - exact).abs() <= 64.0 * 8.0, "sc={sc} exact={exact}");
    }

    #[test]
    fn positive_rail_error_concentrates_with_length() {
        // One PCA rail (non-negative weights): the reference grows like n
        // while the error grows like sqrt(n), so relative error shrinks.
        let mut rng = StdRng::seed_from_u64(9);
        let short = relative_vdp_error(16, 200, false, &mut rng);
        let long = relative_vdp_error(1024, 50, false, &mut rng);
        assert!(
            long < short,
            "rail relative error must shrink: {short} -> {long}"
        );
    }

    #[test]
    fn signed_vdp_error_stays_flat_and_small() {
        // Signed weights: a zero-mean reference grows like sqrt(n), as the
        // error does, so relative error neither explodes nor concentrates.
        let mut rng = StdRng::seed_from_u64(9);
        let short = relative_vdp_error(16, 200, true, &mut rng);
        let long = relative_vdp_error(1024, 50, true, &mut rng);
        assert!(short < 0.05 && long < 0.05, "short {short}, long {long}");
        assert!((short - long).abs() < 0.02, "flat: {short} vs {long}");
    }

    #[test]
    fn vdp_relative_error_is_small_at_vdpe_size() {
        let at_176 = relative_vdp_error(176, 200, true, &mut StdRng::seed_from_u64(4));
        assert!(at_176 < 0.05, "VDPE-size relative error {at_176}");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn vdp_length_mismatch_panics() {
        let _ = stochastic_vdp(&[1, 2], &[1], Precision::B8);
    }

    proptest! {
        #[test]
        fn prop_vdp_error_bounded(
            pairs in proptest::collection::vec((0u32..=256, -255i32..=255), 1..64)
        ) {
            let p = Precision::B8;
            let inputs: Vec<u32> = pairs.iter().map(|&(i, _)| i).collect();
            let weights: Vec<i32> = pairs.iter().map(|&(_, w)| w).collect();
            let sc = stochastic_vdp(&inputs, &weights, p) as f64;
            let exact = exact_vdp_scaled(&inputs, &weights, p);
            let bound = pairs.len() as f64 * (p.bits() as f64);
            prop_assert!((sc - exact).abs() <= bound);
        }

        #[test]
        fn prop_vdp_matches_bitstream_reference(
            pairs in proptest::collection::vec((0u32..=256, -256i32..=256), 1..48)
        ) {
            // Exact equality, not an error bound: the closed-form VDP is
            // the same computation as the optical datapath.
            let p = Precision::B8;
            let inputs: Vec<u32> = pairs.iter().map(|&(i, _)| i).collect();
            let weights: Vec<i32> = pairs.iter().map(|&(_, w)| w).collect();
            prop_assert_eq!(
                stochastic_vdp(&inputs, &weights, p),
                bitstream_vdp_reference(&inputs, &weights, p)
            );
        }

        #[test]
        fn prop_vdp_matches_bitstream_reference_b4(
            pairs in proptest::collection::vec((0u32..=16, -16i32..=16), 1..32)
        ) {
            let p = Precision::B4;
            let inputs: Vec<u32> = pairs.iter().map(|&(i, _)| i).collect();
            let weights: Vec<i32> = pairs.iter().map(|&(_, w)| w).collect();
            prop_assert_eq!(
                stochastic_vdp(&inputs, &weights, p),
                bitstream_vdp_reference(&inputs, &weights, p)
            );
        }

        #[test]
        fn prop_vdp_sign_symmetry(
            pairs in proptest::collection::vec((0u32..=256, -255i32..=255), 1..32)
        ) {
            // Negating every weight negates the result exactly (the two
            // rails swap).
            let p = Precision::B8;
            let inputs: Vec<u32> = pairs.iter().map(|&(i, _)| i).collect();
            let weights: Vec<i32> = pairs.iter().map(|&(_, w)| w).collect();
            let neg: Vec<i32> = weights.iter().map(|w| -w).collect();
            prop_assert_eq!(
                stochastic_vdp(&inputs, &weights, p),
                -stochastic_vdp(&inputs, &neg, p)
            );
        }
    }
}
