//! Photodetector noise and resolution model — Eq. 2 and Eq. 3 of the paper
//! (adopted there from Al-Qadasi et al., "Scaling up silicon photonic-based
//! accelerators").
//!
//! Eq. 3 gives the input-referred noise current density
//! `β = sqrt( 2q(R·P + I_d) + 4kT/R_L + R²P²·RIN )` in A/√Hz (shot +
//! thermal + relative-intensity noise). Eq. 2 converts the resulting SNR
//! over the detection bandwidth `DR/2` into an effective number of bits:
//! `BRes = (SNR_dB − 1.76) / 6.02`.

use crate::units::{dbm_to_watts, watts_to_dbm, BOLTZMANN, ELEMENTARY_CHARGE};
use serde::{Deserialize, Serialize};

/// Photodetector electrical parameters (Table III values as defaults).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Photodetector {
    /// Responsivity, A/W.
    pub responsivity_a_per_w: f64,
    /// Dark current, A.
    pub dark_current_a: f64,
    /// Load resistance, Ω.
    pub load_resistance_ohm: f64,
    /// Absolute temperature, K.
    pub temperature_k: f64,
    /// Laser relative intensity noise, dB/Hz.
    pub rin_db_per_hz: f64,
}

impl Default for Photodetector {
    fn default() -> Self {
        // Table III: R_PD = 1.2 A/W, I_d = 35 nA, R_L = 50 Ω, T = 300 K,
        // RIN = −140 dB/Hz.
        Self {
            responsivity_a_per_w: 1.2,
            dark_current_a: 35e-9,
            load_resistance_ohm: 50.0,
            temperature_k: 300.0,
            rin_db_per_hz: -140.0,
        }
    }
}

impl Photodetector {
    /// Input-referred noise current density β (Eq. 3), A/√Hz, at received
    /// optical power `power_w`.
    pub fn noise_density(&self, power_w: f64) -> f64 {
        let r = self.responsivity_a_per_w;
        let photocurrent = r * power_w;
        let shot = 2.0 * ELEMENTARY_CHARGE * (photocurrent + self.dark_current_a);
        let thermal = 4.0 * BOLTZMANN * self.temperature_k / self.load_resistance_ohm;
        let rin_lin = 10f64.powf(self.rin_db_per_hz / 10.0);
        let rin = photocurrent * photocurrent * rin_lin;
        (shot + thermal + rin).sqrt()
    }

    /// Signal-to-noise ratio (linear) at received power `power_w` and data
    /// rate `dr_hz` — signal photocurrent over integrated noise in the
    /// `DR/2` detection bandwidth.
    pub fn snr(&self, power_w: f64, dr_hz: f64) -> f64 {
        assert!(dr_hz > 0.0, "data rate must be positive");
        let signal = self.responsivity_a_per_w * power_w;
        let noise = self.noise_density(power_w) * (dr_hz / 2.0).sqrt();
        signal / noise
    }

    /// Effective bit resolution (Eq. 2): `BRes = (SNR_dB − 1.76) / 6.02`.
    /// Can be negative when the signal is below the noise floor.
    pub fn bit_resolution(&self, power_w: f64, dr_hz: f64) -> f64 {
        let snr_db = 20.0 * self.snr(power_w, dr_hz).log10();
        (snr_db - 1.76) / 6.02
    }

    /// Solves Eq. 2 for the optical sensitivity: the minimum received
    /// power (watts) achieving `bres_target` bits at data rate `dr_hz`.
    /// Monotone in power, so bisection converges; returns the power within
    /// 0.001 dB.
    pub fn sensitivity_w(&self, bres_target: f64, dr_hz: f64) -> f64 {
        let mut lo_dbm = -80.0;
        let mut hi_dbm = 30.0;
        assert!(
            self.bit_resolution(dbm_to_watts(hi_dbm), dr_hz) >= bres_target,
            "target resolution unreachable even at +30 dBm"
        );
        while hi_dbm - lo_dbm > 1e-3 {
            let mid = 0.5 * (lo_dbm + hi_dbm);
            if self.bit_resolution(dbm_to_watts(mid), dr_hz) >= bres_target {
                hi_dbm = mid;
            } else {
                lo_dbm = mid;
            }
        }
        dbm_to_watts(hi_dbm)
    }

    /// Sensitivity in dBm (convenience wrapper over
    /// [`Photodetector::sensitivity_w`]).
    pub fn sensitivity_dbm(&self, bres_target: f64, dr_hz: f64) -> f64 {
        watts_to_dbm(self.sensitivity_w(bres_target, dr_hz))
    }
}

/// SCONNA's effective detection rate (a calibration listed under
/// "Substitutions and calibrations" in ARCHITECTURE.md): the
/// paper quotes `P_PD-opt = −28 dBm` for 1-bit resolution at BR = 30 Gb/s;
/// Eq. 2 reproduces that sensitivity when the noise is integrated over
/// `BR / B` (B = 8), i.e. a ~3.75 GS/s effective rate, which we adopt.
pub fn sconna_effective_dr_hz(bitrate_hz: f64, precision_bits: u8) -> f64 {
    bitrate_hz / precision_bits as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thermal_noise_dominates_at_low_power() {
        let pd = Photodetector::default();
        // At −28 dBm the thermal term 4kT/R_L ≈ 3.3e-22 dominates.
        let beta = pd.noise_density(dbm_to_watts(-28.0));
        assert!((beta - 1.82e-11).abs() / 1.82e-11 < 0.02, "beta = {beta:e}");
    }

    #[test]
    fn snr_increases_with_power_decreases_with_rate() {
        let pd = Photodetector::default();
        let p = dbm_to_watts(-28.0);
        assert!(pd.snr(p * 2.0, 1e9) > pd.snr(p, 1e9));
        assert!(pd.snr(p, 1e9) > pd.snr(p, 4e9));
    }

    #[test]
    fn bres_of_known_point() {
        // Hand-computed: at −28 dBm and DR = 3.75 GS/s, SNR ≈ 2.41 →
        // BRes ≈ 0.98.
        let pd = Photodetector::default();
        let bres = pd.bit_resolution(dbm_to_watts(-28.0), 3.75e9);
        assert!((bres - 0.98).abs() < 0.05, "bres = {bres}");
    }

    #[test]
    fn sconna_sensitivity_anchor_minus_28_dbm() {
        // Paper anchor (Section V-B): solving Eq. 2/3 for the SCONNA
        // operating point yields P_PD-opt = −28 dBm. With the calibrated
        // effective rate BR/B this must come out within ±0.5 dB.
        let pd = Photodetector::default();
        let dr = sconna_effective_dr_hz(30e9, 8);
        let sens = pd.sensitivity_dbm(1.0, dr);
        assert!((sens + 28.0).abs() < 0.5, "sensitivity {sens} dBm");
    }

    #[test]
    fn sensitivity_monotone_in_target_and_rate() {
        let pd = Photodetector::default();
        let s1 = pd.sensitivity_dbm(1.0, 5e9);
        let s4 = pd.sensitivity_dbm(4.0, 5e9);
        assert!(s4 > s1, "higher resolution needs more power");
        let s1_fast = pd.sensitivity_dbm(1.0, 20e9);
        assert!(s1_fast > s1, "higher rate needs more power");
    }

    #[test]
    fn sensitivity_inverts_bit_resolution() {
        let pd = Photodetector::default();
        for &(target, dr) in &[(1.0, 3.75e9), (4.0, 5e9), (8.0, 1e9)] {
            let p = pd.sensitivity_w(target, dr);
            let bres = pd.bit_resolution(p, dr);
            assert!(
                (bres - target).abs() < 0.01,
                "target {target} got {bres} at dr {dr:e}"
            );
        }
    }
}
