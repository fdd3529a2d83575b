//! Optical AND Gate (OAG) — the heart of the Optical Stochastic Multiplier
//! (Section IV-B, Fig. 6).
//!
//! The OAG is an add-drop MRR with two PN-junction operand terminals. A
//! microheater pre-tunes the operand-independent resonance from its
//! fabrication position γ to the programmed position η; each asserted
//! operand then electro-refractively shifts the resonance by a fixed Δλ.
//! η is chosen two operand-shifts away from the input wavelength, so the
//! passband reaches λ_in only when **both** operands are asserted — the
//! drop port computes `I AND W`.
//!
//! Two views are provided:
//!
//! * a static truth-table / OMA view used by the scalability analysis
//!   (Fig. 7(a): supported bitrate vs FWHM at a fixed OMA floor), and
//! * a time-domain transient simulation regenerating Fig. 6(c).
//!
//! **Calibration note (listed under "Substitutions and calibrations" in
//! ARCHITECTURE.md):** the paper derives
//! the bitrate limit from foundry-level Lumerical transients that include
//! driver and junction dynamics. We fold those into one first-order
//! response time `τ = response_time_scale · τ_photon(FWHM)`; the scale is
//! calibrated so the OMA = −28 dBm contour passes through
//! (FWHM = 0.8 nm, BR = 40 Gb/s), the anchor of Fig. 7(a). Because
//! `τ_photon ∝ 1/FWHM`, the supported bitrate then rises linearly with
//! FWHM exactly as the paper observes, and the serializer/driver cap
//! produces the 40 Gb/s saturation.

use crate::mrr::Mrr;
use crate::units::{photon_lifetime_s, REFERENCE_WAVELENGTH_M};
use sconna_sc::PackedBitstream;

/// Static + dynamic model of one OAG.
#[derive(Debug, Clone)]
pub struct OpticalAndGate {
    /// The ring at its heater-programmed position η (two operand shifts
    /// below the input wavelength).
    ring: Mrr,
    /// Input wavelength λ_in, metres.
    pub lambda_in_m: f64,
    /// Electro-refractive resonance shift per asserted operand, metres.
    pub operand_shift_m: f64,
    /// Optical power of the λ_in channel entering the OAG, watts.
    pub input_power_w: f64,
    /// First-order response-time multiplier over the cavity photon
    /// lifetime (see module docs).
    pub response_time_scale: f64,
    /// Electrical driver/serializer bitrate cap, Hz (the 40 Gb/s
    /// saturation of Fig. 7(a)).
    pub driver_cap_hz: f64,
}

/// Calibrated response-time multiplier (see module docs): with a 1 mW
/// input channel and the 2×FWHM operand shift, the modulation depth needed
/// to keep OMA ≥ −28 dBm is ≈ 0.0604, and anchoring the crossing at
/// (0.8 nm, 40 Gb/s) yields τ ≈ 401 ps ≈ 252 · τ_photon(0.8 nm).
pub const DEFAULT_RESPONSE_TIME_SCALE: f64 = 251.9;

/// The paper operates OAGs with the operand shift at twice the linewidth,
/// which keeps single-operand leakage below 6 % of the peak.
pub const OPERAND_SHIFT_FWHM_RATIO: f64 = 2.0;

impl OpticalAndGate {
    /// Builds an OAG for the given linewidth and input power. The heater
    /// position η is derived so that both-operands-asserted is exactly on
    /// resonance.
    ///
    /// # Panics
    /// Panics if `fwhm_m` or `input_power_w` is non-positive.
    pub fn new(fwhm_m: f64, fsr_m: f64, input_power_w: f64) -> Self {
        assert!(input_power_w > 0.0, "input power must be positive");
        let operand_shift_m = OPERAND_SHIFT_FWHM_RATIO * fwhm_m;
        let eta = REFERENCE_WAVELENGTH_M - 2.0 * operand_shift_m;
        Self {
            ring: Mrr::new(eta, fwhm_m, fsr_m, 1.0),
            lambda_in_m: REFERENCE_WAVELENGTH_M,
            operand_shift_m,
            input_power_w,
            response_time_scale: DEFAULT_RESPONSE_TIME_SCALE,
            driver_cap_hz: 40e9,
        }
    }

    /// Ring linewidth, metres.
    pub fn fwhm_m(&self) -> f64 {
        self.ring.fwhm_m
    }

    /// Static drop-port transmission for an operand combination.
    pub fn transmission(&self, i: bool, w: bool) -> f64 {
        let asserted = usize::from(i) + usize::from(w);
        let shifted = self.ring.shifted(asserted as f64 * self.operand_shift_m);
        shifted.drop_transmission(self.lambda_in_m)
    }

    /// Static drop-port output power for an operand combination, watts.
    pub fn output_power_w(&self, i: bool, w: bool) -> f64 {
        self.input_power_w * self.transmission(i, w)
    }

    /// Static optical modulation amplitude: lowest logic-1 power minus
    /// highest logic-0 power, watts.
    pub fn static_oma_w(&self) -> f64 {
        let one = self.output_power_w(true, true);
        let zero = self
            .output_power_w(false, false)
            .max(self.output_power_w(true, false))
            .max(self.output_power_w(false, true));
        one - zero
    }

    /// Effective first-order response time, seconds.
    pub fn response_time_s(&self) -> f64 {
        self.response_time_scale * photon_lifetime_s(self.ring.fwhm_m)
    }

    /// Modulation depth reached within one bit period at `bitrate_hz`
    /// (fraction of the static swing the output completes before the next
    /// bit).
    pub fn modulation_depth(&self, bitrate_hz: f64) -> f64 {
        assert!(bitrate_hz > 0.0, "bitrate must be positive");
        let t_bit = 1.0 / bitrate_hz;
        1.0 - (-t_bit / self.response_time_s()).exp()
    }

    /// OMA at a given bitrate: the eye closes as the response time eats
    /// into the bit period.
    pub fn oma_at_bitrate_w(&self, bitrate_hz: f64) -> f64 {
        let one = self.output_power_w(true, true) * self.modulation_depth(bitrate_hz);
        let zero = self
            .output_power_w(false, false)
            .max(self.output_power_w(true, false))
            .max(self.output_power_w(false, true));
        one - zero
    }

    /// Highest bitrate at which the OMA still meets `oma_floor_w`
    /// (the photodetector sensitivity), clamped to the driver cap.
    /// Returns `None` if even DC operation cannot meet the floor.
    pub fn supported_bitrate_hz(&self, oma_floor_w: f64) -> Option<f64> {
        if self.static_oma_w() < oma_floor_w {
            return None;
        }
        // OMA is strictly decreasing in bitrate: bisect.
        let mut lo = 1e6;
        let mut hi = self.driver_cap_hz;
        if self.oma_at_bitrate_w(hi) >= oma_floor_w {
            return Some(hi);
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.oma_at_bitrate_w(mid) >= oma_floor_w {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(lo)
    }
}

/// One sample of a transient simulation.
#[derive(Debug, Clone, Copy)]
pub struct TransientSample {
    /// Simulation time, seconds.
    pub time_s: f64,
    /// Instantaneous electrical drive level of operand I in `[0, 1]`.
    pub drive_i: f64,
    /// Instantaneous electrical drive level of operand W in `[0, 1]`.
    pub drive_w: f64,
    /// Drop-port optical power, watts.
    pub output_w: f64,
}

/// Result of a transient run: the waveform plus the bit decisions sampled
/// at bit centres.
#[derive(Debug, Clone)]
pub struct TransientResult {
    /// Waveform samples (`steps_per_bit` per bit).
    pub samples: Vec<TransientSample>,
    /// Output bit decisions at bit centres (threshold = mid-OMA).
    pub decisions: Vec<bool>,
}

/// Time-domain simulation of the OAG driven by two NRZ bit-streams
/// (regenerates Fig. 6(c)).
///
/// The electrical drives follow first-order RC edges with time constant
/// `drive_tau_s`; the instantaneous resonance follows the sum of drive
/// levels; the drop-port power is evaluated from the Lorentzian at each
/// step.
///
/// # Panics
/// Panics if the streams differ in length or `steps_per_bit == 0`.
pub fn transient(
    gate: &OpticalAndGate,
    i_bits: &PackedBitstream,
    w_bits: &PackedBitstream,
    bitrate_hz: f64,
    drive_tau_s: f64,
    steps_per_bit: usize,
) -> TransientResult {
    assert_eq!(i_bits.len(), w_bits.len(), "stream length mismatch");
    assert!(steps_per_bit > 0, "steps_per_bit must be positive");
    let t_bit = 1.0 / bitrate_hz;
    let dt = t_bit / steps_per_bit as f64;
    let alpha = 1.0 - (-dt / drive_tau_s).exp();

    let mut drive_i = 0.0f64;
    let mut drive_w = 0.0f64;
    let mut samples = Vec::with_capacity(i_bits.len() * steps_per_bit);
    let mut decisions = Vec::with_capacity(i_bits.len());

    let p_one = gate.output_power_w(true, true);
    let p_zero = gate
        .output_power_w(true, false)
        .max(gate.output_power_w(false, true));
    let threshold = 0.5 * (p_one + p_zero);

    for (bit_idx, (bi, bw)) in i_bits.iter().zip(w_bits.iter()).enumerate() {
        let target_i = f64::from(u8::from(bi));
        let target_w = f64::from(u8::from(bw));
        let mut centre_power = 0.0;
        for step in 0..steps_per_bit {
            drive_i += alpha * (target_i - drive_i);
            drive_w += alpha * (target_w - drive_w);
            let shift = (drive_i + drive_w) * gate.operand_shift_m;
            let ring = gate.ring.shifted(shift);
            let output_w = gate.input_power_w * ring.drop_transmission(gate.lambda_in_m);
            let time_s = bit_idx as f64 * t_bit + (step + 1) as f64 * dt;
            if step == steps_per_bit / 2 {
                centre_power = output_w;
            }
            samples.push(TransientSample {
                time_s,
                drive_i,
                drive_w,
                output_w,
            });
        }
        decisions.push(centre_power > threshold);
    }
    TransientResult { samples, decisions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::dbm_to_watts;
    use sconna_sc::PackedBitstream;

    fn gate() -> OpticalAndGate {
        // 1 mW input channel, 0.8 nm FWHM, 50 nm FSR — the Section V
        // operating point.
        OpticalAndGate::new(0.8e-9, 50e-9, 1e-3)
    }

    #[test]
    fn truth_table_is_and() {
        let g = gate();
        let t11 = g.transmission(true, true);
        let t10 = g.transmission(true, false);
        let t01 = g.transmission(false, true);
        let t00 = g.transmission(false, false);
        assert!(t11 > 0.99, "on-state transmission {t11}");
        assert!(t10 < 0.06 && t01 < 0.06, "single-operand leak {t10}/{t01}");
        assert!(t00 < t10, "both-off must be the most detuned");
    }

    #[test]
    fn static_oma_positive_and_below_input() {
        let g = gate();
        let oma = g.static_oma_w();
        assert!(oma > 0.0 && oma < g.input_power_w);
    }

    #[test]
    fn oma_decreases_with_bitrate() {
        let g = gate();
        let mut prev = f64::INFINITY;
        for br in [1e9, 5e9, 10e9, 20e9, 40e9] {
            let oma = g.oma_at_bitrate_w(br);
            assert!(oma < prev, "OMA must fall with bitrate");
            prev = oma;
        }
    }

    #[test]
    fn supported_bitrate_anchor_40g_at_08nm() {
        // Fig. 7(a) anchor: FWHM = 0.8 nm supports ~40 Gb/s at
        // OMA = −28 dBm (calibrated; assert within 15 %).
        let g = gate();
        let br = g
            .supported_bitrate_hz(dbm_to_watts(-28.0))
            .expect("floor must be reachable");
        assert!(
            (br - 40e9).abs() / 40e9 < 0.15,
            "supported bitrate {br:.3e} not near 40 Gb/s"
        );
    }

    #[test]
    fn supported_bitrate_scales_with_fwhm() {
        let floor = dbm_to_watts(-28.0);
        let br_04 = OpticalAndGate::new(0.4e-9, 50e-9, 1e-3)
            .supported_bitrate_hz(floor)
            .unwrap();
        let br_08 = OpticalAndGate::new(0.8e-9, 50e-9, 1e-3)
            .supported_bitrate_hz(floor)
            .unwrap();
        // Below the driver cap the supported bitrate rises ~linearly with
        // FWHM (paper Fig. 7(a)).
        let ratio = br_08 / br_04;
        assert!(ratio > 1.6 && ratio < 2.4, "ratio {ratio}");
    }

    #[test]
    fn supported_bitrate_saturates_at_driver_cap() {
        let floor = dbm_to_watts(-28.0);
        let br = OpticalAndGate::new(2.0e-9, 50e-9, 1e-3)
            .supported_bitrate_hz(floor)
            .unwrap();
        assert!((br - 40e9).abs() < 1e6, "wide rings hit the 40 Gb/s cap");
    }

    #[test]
    fn unreachable_floor_returns_none() {
        let g = OpticalAndGate::new(0.8e-9, 50e-9, 1e-9); // 1 nW input
        assert!(g.supported_bitrate_hz(dbm_to_watts(-28.0)).is_none());
    }

    #[test]
    fn transient_computes_and_of_prbs() {
        // Fig. 6(c): two pseudo-random streams at 10 Gb/s; the sampled
        // drop-port decisions must equal the bit-wise AND.
        let g = gate();
        let i = PackedBitstream::from_bits([
            true, true, false, true, false, false, true, true, false, true,
        ]);
        let w = PackedBitstream::from_bits([
            true, false, true, true, false, true, true, false, false, true,
        ]);
        let res = transient(&g, &i, &w, 10e9, 2e-12, 32);
        let expected: Vec<bool> = i.iter().zip(w.iter()).map(|(a, b)| a && b).collect();
        assert_eq!(res.decisions, expected);
        assert_eq!(res.samples.len(), 10 * 32);
    }

    #[test]
    fn transient_output_bounded_by_input_power() {
        let g = gate();
        let i = PackedBitstream::from_bits((0..64).map(|t| t % 2 == 0));
        let w = PackedBitstream::from_bits((0..64).map(|t| t % 3 == 0));
        let res = transient(&g, &i, &w, 10e9, 2e-12, 16);
        for s in &res.samples {
            assert!(s.output_w >= 0.0 && s.output_w <= g.input_power_w);
        }
    }
}
