//! Microring resonator (MRR) model.
//!
//! The OAG rings and the DWDM crosstalk estimate share this analytic
//! model: a Lorentzian drop-port passband of configurable FWHM, a free
//! spectral range (FSR), and a resonance wavelength that heaters (slow,
//! operand-independent tuning, the paper's γ→η programming) and PN
//! junctions (fast, operand-driven shifts) displace.

use serde::{Deserialize, Serialize};

/// Analytic MRR with a Lorentzian passband.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Mrr {
    /// Resonance wavelength, metres.
    pub resonance_m: f64,
    /// Full width at half maximum of the passband, metres.
    pub fwhm_m: f64,
    /// Free spectral range, metres.
    pub fsr_m: f64,
    /// Peak drop-port transmission (≤ 1; captures the ring's insertion
    /// loss at resonance).
    pub peak_transmission: f64,
}

impl Mrr {
    /// Creates an MRR.
    ///
    /// # Panics
    /// Panics if FWHM or FSR is non-positive, or the peak transmission is
    /// outside `(0, 1]`.
    pub fn new(resonance_m: f64, fwhm_m: f64, fsr_m: f64, peak_transmission: f64) -> Self {
        assert!(fwhm_m > 0.0, "FWHM must be positive");
        assert!(fsr_m > 0.0, "FSR must be positive");
        assert!(
            peak_transmission > 0.0 && peak_transmission <= 1.0,
            "peak transmission must be in (0, 1]"
        );
        Self {
            resonance_m,
            fwhm_m,
            fsr_m,
            peak_transmission,
        }
    }

    /// Detuning of `lambda_m` from the nearest resonance order, metres
    /// (folds the comb of resonances spaced by the FSR).
    pub fn detuning_m(&self, lambda_m: f64) -> f64 {
        let d = (lambda_m - self.resonance_m) % self.fsr_m;
        let d = if d > self.fsr_m / 2.0 {
            d - self.fsr_m
        } else {
            d
        };
        if d < -self.fsr_m / 2.0 {
            d + self.fsr_m
        } else {
            d
        }
    }

    /// Drop-port power transmission at `lambda_m`:
    /// `T_peak / (1 + (2·δ/FWHM)²)`.
    pub fn drop_transmission(&self, lambda_m: f64) -> f64 {
        let delta = self.detuning_m(lambda_m);
        let x = 2.0 * delta / self.fwhm_m;
        self.peak_transmission / (1.0 + x * x)
    }

    /// Returns a copy with the resonance shifted by `delta_m` metres
    /// (positive = red shift). Models both thermal tuning and
    /// electro-refractive operand shifts.
    pub fn shifted(&self, delta_m: f64) -> Self {
        Self {
            resonance_m: self.resonance_m + delta_m,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::REFERENCE_WAVELENGTH_M;

    fn ring() -> Mrr {
        Mrr::new(REFERENCE_WAVELENGTH_M, 0.8e-9, 50e-9, 1.0)
    }

    #[test]
    fn peak_at_resonance() {
        let r = ring();
        assert!((r.drop_transmission(r.resonance_m) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn half_power_at_half_fwhm() {
        let r = ring();
        let t = r.drop_transmission(r.resonance_m + r.fwhm_m / 2.0);
        assert!((t - 0.5).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn transmission_symmetric_in_detuning() {
        let r = ring();
        for k in 1..10 {
            let d = k as f64 * 0.1e-9;
            let up = r.drop_transmission(r.resonance_m + d);
            let down = r.drop_transmission(r.resonance_m - d);
            assert!((up - down).abs() < 1e-12);
        }
    }

    #[test]
    fn fsr_periodicity() {
        let r = ring();
        let t0 = r.drop_transmission(r.resonance_m + 0.3e-9);
        let t1 = r.drop_transmission(r.resonance_m + 0.3e-9 + r.fsr_m);
        assert!((t0 - t1).abs() < 1e-9);
    }

    #[test]
    fn shifted_moves_peak() {
        let r = ring().shifted(0.4e-9);
        assert!(r.drop_transmission(REFERENCE_WAVELENGTH_M) < 0.51);
        assert!((r.drop_transmission(REFERENCE_WAVELENGTH_M + 0.4e-9) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "FWHM must be positive")]
    fn zero_fwhm_rejected() {
        let _ = Mrr::new(REFERENCE_WAVELENGTH_M, 0.0, 50e-9, 1.0);
    }
}
