//! DWDM spectrum management: channel grids and inter-channel crosstalk.
//!
//! SCONNA cascades N OSMs on one waveguide, one per DWDM channel
//! (Section IV-A). The FSR of the rings bounds the usable band and the
//! channel gap sets how many wavelengths fit (Section V-B: 50 nm / 0.25 nm
//! = 200 theoretical channels); each ring also skims a little power from
//! its neighbours, which is the crosstalk component of the link's
//! `IL_penalty`.

use crate::mrr::Mrr;
use crate::units::REFERENCE_WAVELENGTH_M;
use serde::{Deserialize, Serialize};

/// A uniform DWDM channel grid.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DwdmGrid {
    /// First channel wavelength, metres.
    pub start_m: f64,
    /// Channel spacing, metres.
    pub spacing_m: f64,
    /// Number of channels.
    pub channels: usize,
}

impl DwdmGrid {
    /// Builds the largest grid that fits in one FSR with the given
    /// spacing, centred on the C-band reference wavelength.
    ///
    /// # Panics
    /// Panics if the spacing is non-positive or exceeds the FSR.
    pub fn within_fsr(fsr_m: f64, spacing_m: f64) -> Self {
        assert!(spacing_m > 0.0, "spacing must be positive");
        assert!(spacing_m <= fsr_m, "spacing exceeds FSR");
        // Tolerate floating-point residue in exact ratios like
        // 50 nm / 0.25 nm = 200.
        let channels = (fsr_m / spacing_m + 1e-9).floor() as usize;
        Self {
            start_m: REFERENCE_WAVELENGTH_M - fsr_m / 2.0,
            spacing_m,
            channels,
        }
    }

    /// Wavelength of channel `i`.
    ///
    /// # Panics
    /// Panics if `i >= channels`.
    pub fn wavelength_m(&self, i: usize) -> f64 {
        assert!(
            i < self.channels,
            "channel {i} out of range {}",
            self.channels
        );
        self.start_m + i as f64 * self.spacing_m
    }
}

/// Fraction of a neighbouring channel's power a Lorentzian ring tuned to
/// channel `0` skims from a channel `k` gaps away.
pub fn neighbour_crosstalk(k: usize, spacing_m: f64, fwhm_m: f64) -> f64 {
    assert!(k > 0, "crosstalk is defined between distinct channels");
    // Use a 1 m FSR — far larger than any offset of interest — so the
    // comb folding in the Lorentzian model never kicks in.
    let ring = Mrr::new(REFERENCE_WAVELENGTH_M, fwhm_m, 1.0, 1.0);
    ring.drop_transmission(REFERENCE_WAVELENGTH_M + k as f64 * spacing_m)
}

/// Total crosstalk power fraction a channel in the middle of an `n`-channel
/// bank suffers from all other rings (worst-case channel position).
pub fn aggregate_crosstalk(n: usize, spacing_m: f64, fwhm_m: f64) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    let half = n / 2;
    let mut total = 0.0;
    for k in 1..=half {
        // Neighbours on both sides.
        let sides = if k <= n - 1 - half { 2.0 } else { 1.0 };
        total += sides * neighbour_crosstalk(k, spacing_m, fwhm_m);
    }
    total
}

/// Crosstalk power penalty in dB: the signal loses distinguishability as
/// leaked neighbour power stacks onto it,
/// `penalty = −10·log10(1 − X_total)` (standard first-order model).
/// Returns `f64::INFINITY` when the aggregate crosstalk reaches unity.
pub fn crosstalk_penalty_db(n: usize, spacing_m: f64, fwhm_m: f64) -> f64 {
    let x = aggregate_crosstalk(n, spacing_m, fwhm_m);
    if x >= 1.0 {
        f64::INFINITY
    } else {
        -10.0 * (1.0 - x).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_within_fsr_counts_200_channels() {
        // Section V-B: FSR 50 nm, gap 0.25 nm → 200 channels.
        let g = DwdmGrid::within_fsr(50e-9, 0.25e-9);
        assert_eq!(g.channels, 200);
        let span = g.wavelength_m(199) - g.wavelength_m(0);
        assert!((span - 199.0 * 0.25e-9).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_channel_panics() {
        let g = DwdmGrid::within_fsr(50e-9, 0.25e-9);
        let _ = g.wavelength_m(200);
    }

    #[test]
    fn neighbour_crosstalk_decays_with_distance() {
        let fwhm = 0.8e-9;
        let gap = 0.25e-9;
        let mut prev = f64::INFINITY;
        for k in 1..8 {
            let x = neighbour_crosstalk(k, gap, fwhm);
            assert!(x < prev, "crosstalk must decay, k={k}");
            assert!(x > 0.0);
            prev = x;
        }
    }

    #[test]
    fn aggregate_crosstalk_grows_with_bank_size() {
        let fwhm = 0.2e-9;
        let gap = 0.25e-9;
        let x16 = aggregate_crosstalk(16, gap, fwhm);
        let x176 = aggregate_crosstalk(176, gap, fwhm);
        assert!(x176 > x16);
    }

    #[test]
    fn penalty_shrinks_with_wider_spacing() {
        let fwhm = 0.2e-9;
        let tight = crosstalk_penalty_db(176, 0.25e-9, fwhm);
        let loose = crosstalk_penalty_db(176, 0.50e-9, fwhm);
        assert!(loose < tight);
        assert!(tight.is_finite());
    }

    #[test]
    fn single_channel_has_no_crosstalk() {
        assert_eq!(aggregate_crosstalk(1, 0.25e-9, 0.8e-9), 0.0);
        assert_eq!(crosstalk_penalty_db(1, 0.25e-9, 0.8e-9), 0.0);
    }
}
