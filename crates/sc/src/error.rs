//! Error and correlation metrics for stochastic computing.
//!
//! The paper quantifies PCA/ADC error as mean absolute percentage error
//! (MAPE, Section V-C) and requires the LUT pairs to be *uncorrelated*
//! (Section IV-B); this module provides MAPE/RMSE and the standard
//! stochastic computing correlation (SCC) metric of Alaghi & Hayes.

use crate::bitstream::PackedBitstream;

/// Mean absolute percentage error of `measured` against `reference`,
/// in percent. Reference entries equal to zero are skipped (their relative
/// error is undefined), matching common MAPE practice.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn mape(measured: &[f64], reference: &[f64]) -> f64 {
    assert_eq!(measured.len(), reference.len(), "length mismatch");
    let mut sum = 0.0;
    let mut n = 0usize;
    for (&m, &r) in measured.iter().zip(reference) {
        if r != 0.0 {
            sum += ((m - r) / r).abs();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        100.0 * sum / n as f64
    }
}

/// Root-mean-square error.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn rmse(measured: &[f64], reference: &[f64]) -> f64 {
    assert_eq!(measured.len(), reference.len(), "length mismatch");
    if measured.is_empty() {
        return 0.0;
    }
    let ss: f64 = measured
        .iter()
        .zip(reference)
        .map(|(&m, &r)| (m - r) * (m - r))
        .sum();
    (ss / measured.len() as f64).sqrt()
}

/// Stochastic computing correlation (SCC) between two streams, in
/// `[-1, 1]`. `0` means the streams multiply without correlation-induced
/// error through an AND gate; `+1` is maximal overlap, `-1` maximal
/// avoidance (Alaghi & Hayes, "Exploiting correlation in stochastic circuit
/// design").
///
/// # Panics
/// Panics if the streams differ in length or are empty.
pub fn scc(x: &PackedBitstream, y: &PackedBitstream) -> f64 {
    assert_eq!(x.len(), y.len(), "stream length mismatch");
    assert!(!x.is_empty(), "SCC of empty streams is undefined");
    let n = x.len() as f64;
    let p11 = x.overlap(y) as f64 / n;
    let px = x.unipolar_value();
    let py = y.unipolar_value();
    let delta = p11 - px * py;
    if delta.abs() < 1e-15 {
        return 0.0;
    }
    if delta > 0.0 {
        let denom = px.min(py) - px * py;
        if denom <= 0.0 {
            0.0
        } else {
            delta / denom
        }
    } else {
        let denom = px * py - (px + py - 1.0).max(0.0);
        if denom <= 0.0 {
            0.0
        } else {
            delta / denom
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::Precision;
    use crate::sng::{LdsSng, StochasticNumberGenerator, ThermometerSng};

    #[test]
    fn mape_basic() {
        let m = [110.0, 95.0];
        let r = [100.0, 100.0];
        assert!((mape(&m, &r) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn mape_skips_zero_reference() {
        let m = [5.0, 110.0];
        let r = [0.0, 100.0];
        assert!((mape(&m, &r) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn mape_empty_is_zero() {
        assert_eq!(mape(&[], &[]), 0.0);
        assert_eq!(mape(&[1.0], &[0.0]), 0.0);
    }

    #[test]
    fn rmse_basic() {
        assert!((rmse(&[3.0, 5.0], &[0.0, 1.0]) - 3.5355339).abs() < 1e-6);
        assert_eq!(rmse(&[], &[]), 0.0);
    }

    #[test]
    fn scc_identical_streams_is_one() {
        let s = LdsSng.generate(100, Precision::B8);
        assert!((scc(&s, &s) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scc_complement_is_minus_one() {
        let s = LdsSng.generate(100, Precision::B8);
        let n = s.not();
        assert!((scc(&s, &n) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn scc_of_lut_pairs_is_near_zero_midrange() {
        // The LDS × thermometer pairing is the "uncorrelated combination"
        // requirement of Section IV-B: SCC must be ~0. SCC's normalizer
        // vanishes at the operand corners (e.g. 255×255), where even a
        // ±1-count rounding deviation saturates the metric, so the SCC
        // check uses mid-range operands; the corner behaviour is covered by
        // the absolute-deviation test below.
        let p = Precision::B8;
        let mut worst: f64 = 0.0;
        for &i in &[32u32, 64, 100, 128, 160, 200] {
            for &w in &[32u32, 64, 100, 128, 160, 200] {
                let iv = LdsSng.generate(i, p);
                let wv = ThermometerSng.generate(w, p);
                worst = worst.max(scc(&iv, &wv).abs());
            }
        }
        assert!(worst < 0.12, "worst |SCC| = {worst}");
    }

    #[test]
    fn lut_pair_overlap_deviation_bounded_everywhere() {
        // Non-normalized correlation check covering the corners too: the
        // AND-overlap of every LUT pair deviates from the ideal product
        // i*w/L by at most B counts (the low-discrepancy bound).
        let p = Precision::B8;
        let l = p.stream_len() as f64;
        for i in (0..=256u32).step_by(17) {
            for w in (0..=256u32).step_by(13) {
                let iv = LdsSng.generate(i, p);
                let wv = ThermometerSng.generate(w, p);
                let dev = (iv.overlap(&wv) as f64 - i as f64 * w as f64 / l).abs();
                assert!(dev <= p.bits() as f64, "i={i} w={w} dev={dev}");
            }
        }
    }
}
