//! Microring thermal tuning — the microheaters of Fig. 6(a).
//!
//! Every MRR in the system needs its resonance moved from the
//! fabrication-defined position γ to the programmed position η
//! (Section IV-B), and the analog baselines additionally re-tune their
//! DKV rings whenever the weight assignment changes. This module models
//! the heater: tuning power per wavelength shift, first-order thermal
//! settling, and the Monte-Carlo fabrication-variation analysis that
//! sets the expected per-ring tuning power.
//!
//! It also grounds two constants used elsewhere:
//!
//! * `sconna-accel`'s 20 µs analog DKV reprogramming latency ≈ settling a
//!   τ = 4 µs heater to 1 % of its step;
//! * the per-ring tuning power that a power model may optionally add on
//!   top of Table IV (the paper's table omits tuning power, so the
//!   default ledgers do too — see "Substitutions and calibrations" in
//!   ARCHITECTURE.md).

use rand::Rng;
use serde::{Deserialize, Serialize};

/// First-order thermo-optic heater model.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HeaterModel {
    /// Resonance shift per electrical heater power, nm/mW.
    pub efficiency_nm_per_mw: f64,
    /// Thermal time constant, seconds.
    pub time_constant_s: f64,
    /// Maximum heater power, mW.
    pub max_power_mw: f64,
}

impl Default for HeaterModel {
    fn default() -> Self {
        // Representative silicon-photonic TiN heater: ~0.25 nm/mW,
        // τ = 4 µs, 20 mW ceiling (≈ one FSR of 50 nm is unreachable —
        // tuning wraps around the comb instead).
        Self {
            efficiency_nm_per_mw: 0.25,
            time_constant_s: 4e-6,
            max_power_mw: 20.0,
        }
    }
}

impl HeaterModel {
    /// Heater power to hold a resonance shift of `shift_nm` (red shifts
    /// only; blue shifts wrap around the FSR, which the caller handles
    /// via [`HeaterModel::wrapped_shift_nm`]).
    ///
    /// # Panics
    /// Panics if the shift is negative or exceeds the heater's reach.
    pub fn holding_power_mw(&self, shift_nm: f64) -> f64 {
        assert!(shift_nm >= 0.0, "thermal tuning shifts red only");
        let p = shift_nm / self.efficiency_nm_per_mw;
        assert!(
            p <= self.max_power_mw,
            "shift {shift_nm} nm needs {p:.1} mW > ceiling {} mW",
            self.max_power_mw
        );
        p
    }

    /// Largest shift the heater can hold, nm.
    pub fn reach_nm(&self) -> f64 {
        self.max_power_mw * self.efficiency_nm_per_mw
    }

    /// Folds an arbitrary (possibly negative) desired shift into the
    /// red-shift-only range `[0, fsr_nm)` by wrapping around the comb.
    pub fn wrapped_shift_nm(&self, desired_nm: f64, fsr_nm: f64) -> f64 {
        assert!(fsr_nm > 0.0, "FSR must be positive");
        desired_nm.rem_euclid(fsr_nm)
    }

    /// Time for the resonance to settle within `tolerance` (fraction of
    /// the commanded step remaining), seconds: `τ · ln(1/tolerance)`.
    ///
    /// # Panics
    /// Panics unless `0 < tolerance < 1`.
    pub fn settle_time_s(&self, tolerance: f64) -> f64 {
        assert!(tolerance > 0.0 && tolerance < 1.0, "tolerance in (0,1)");
        self.time_constant_s * (1.0 / tolerance).ln()
    }
}

/// Fabrication-variation statistics for a bank of rings.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FabricationVariation {
    /// Standard deviation of the as-fabricated resonance offset, nm.
    pub sigma_nm: f64,
}

impl Default for FabricationVariation {
    fn default() -> Self {
        // ±0.5 nm class process variation, a typical foundry corner.
        Self { sigma_nm: 0.5 }
    }
}

/// Result of the Monte-Carlo tuning-power analysis.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TuningPowerAnalysis {
    /// Rings sampled.
    pub rings: usize,
    /// Mean per-ring holding power, mW.
    pub mean_power_mw: f64,
    /// Worst sampled ring, mW.
    pub max_power_mw: f64,
    /// Fraction of rings whose correction exceeded the heater reach and
    /// had to wrap to the next comb order.
    pub wrap_fraction: f64,
}

/// Samples `rings` fabrication offsets (Gaussian via Box-Muller) and
/// reports the heater power needed to pull every ring onto its grid
/// position, wrapping around the FSR where the red-only heater cannot
/// reach a blue correction directly.
pub fn tuning_power_analysis<R: Rng + ?Sized>(
    heater: &HeaterModel,
    variation: &FabricationVariation,
    rings: usize,
    fsr_nm: f64,
    rng: &mut R,
) -> TuningPowerAnalysis {
    assert!(rings > 0, "need at least one ring");
    let mut sum = 0.0;
    let mut max: f64 = 0.0;
    let mut wraps = 0usize;
    for _ in 0..rings {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let offset_nm =
            variation.sigma_nm * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        // Correction is the negative of the offset, folded red-only.
        let shift = heater.wrapped_shift_nm(-offset_nm, fsr_nm);
        if shift > heater.reach_nm() {
            // Unreachable even after wrapping: re-assign the ring to the
            // adjacent channel (counts as a wrap, holds zero power here).
            wraps += 1;
            continue;
        }
        let p = heater.holding_power_mw(shift);
        sum += p;
        max = max.max(p);
    }
    TuningPowerAnalysis {
        rings,
        mean_power_mw: sum / rings as f64,
        max_power_mw: max,
        wrap_fraction: wraps as f64 / rings as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn holding_power_linear() {
        let h = HeaterModel::default();
        assert!((h.holding_power_mw(0.25) - 1.0).abs() < 1e-12);
        assert!((h.holding_power_mw(2.5) - 10.0).abs() < 1e-12);
        assert_eq!(h.holding_power_mw(0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "ceiling")]
    fn beyond_reach_panics() {
        let h = HeaterModel::default();
        let _ = h.holding_power_mw(h.reach_nm() + 0.1);
    }

    #[test]
    fn settle_time_grounds_reprogram_latency() {
        // τ = 4 µs settling to 1 % gives ≈ 18.4 µs — the basis of the
        // 20 µs DKV reprogramming calibration in sconna-accel.
        let h = HeaterModel::default();
        let t = h.settle_time_s(0.01);
        assert!((t - 18.4e-6).abs() < 0.5e-6, "settle {t:e}");
        assert!(t < 20e-6);
    }

    #[test]
    fn wrapping_folds_blue_shifts() {
        let h = HeaterModel::default();
        assert!((h.wrapped_shift_nm(-0.3, 50.0) - 49.7).abs() < 1e-12);
        assert!((h.wrapped_shift_nm(0.3, 50.0) - 0.3).abs() < 1e-12);
        assert!((h.wrapped_shift_nm(50.3, 50.0) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn monte_carlo_tuning_power_is_reasonable() {
        let mut rng = StdRng::seed_from_u64(42);
        let a = tuning_power_analysis(
            &HeaterModel::default(),
            &FabricationVariation::default(),
            10_000,
            50.0,
            &mut rng,
        );
        // σ = 0.5 nm: red corrections average ≈ σ·√(2/π) ≈ 0.4 nm
        // ≈ 1.6 mW; blue-side offsets wrap to ~49+ nm which exceeds the
        // 5 nm heater reach, so about half the rings re-assign channels.
        assert!(a.mean_power_mw > 0.2 && a.mean_power_mw < 3.0, "{a:?}");
        assert!(a.max_power_mw <= 20.0);
        assert!(a.wrap_fraction > 0.3 && a.wrap_fraction < 0.7, "{a:?}");
    }

    #[test]
    fn monte_carlo_deterministic_under_seed() {
        let run = || {
            tuning_power_analysis(
                &HeaterModel::default(),
                &FabricationVariation::default(),
                1000,
                50.0,
                &mut StdRng::seed_from_u64(7),
            )
        };
        assert_eq!(run().mean_power_mw.to_bits(), run().mean_power_mw.to_bits());
    }

    #[test]
    fn tighter_process_needs_less_power() {
        let h = HeaterModel::default();
        let loose = tuning_power_analysis(
            &h,
            &FabricationVariation { sigma_nm: 0.8 },
            5000,
            50.0,
            &mut StdRng::seed_from_u64(1),
        );
        let tight = tuning_power_analysis(
            &h,
            &FabricationVariation { sigma_nm: 0.2 },
            5000,
            50.0,
            &mut StdRng::seed_from_u64(1),
        );
        assert!(tight.mean_power_mw < loose.mean_power_mw);
    }
}
