//! Optical link power budget — Eq. 4 of the paper in dB-domain accounting,
//! with the Table III parameter set.
//!
//! A SCONNA VDPC's light path is: laser diode → DWDM multiplexer → 1×M
//! splitter → input waveguide arm past a cascade of N OSMs → filter MRR →
//! photodetector. Every element contributes an insertion loss (on the
//! selected channel) or an out-of-band loss (on channels passing by), and
//! the received power must stay above the photodetector sensitivity
//! `P_PD-opt`.

use serde::{Deserialize, Serialize};

/// Table III link parameters. Field names follow the paper's symbols.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LinkParameters {
    /// Laser power per diode, dBm (`P_Laser`).
    pub laser_power_dbm: f64,
    /// Laser wall-plug efficiency (`η_WPE`): electrical→optical. Not part
    /// of the optical budget; the energy model's `LASER_WALL_PLUG_W`
    /// (`sconna-accel::peripherals`) is `P_Laser / η_WPE`.
    pub wall_plug_efficiency: f64,
    /// Single-mode fiber insertion loss, dB (`IL_SMF`).
    pub il_smf_db: f64,
    /// Fiber-to-chip coupling insertion loss, dB (`IL_EC`).
    pub il_ec_db: f64,
    /// Silicon waveguide propagation loss, dB/mm (`IL_WG`).
    pub il_wg_db_per_mm: f64,
    /// Splitter excess loss per stage, dB (`EL_splitter`).
    pub el_splitter_db: f64,
    /// OSM insertion loss on its own channel, dB (`IL_OSM`).
    pub il_osm_db: f64,
    /// OSM out-of-band loss on passing channels, dB (`OBL_OSM`).
    pub obl_osm_db: f64,
    /// Filter MRR insertion loss, dB (`IL_MRR`).
    pub il_mrr_db: f64,
    /// Filter MRR out-of-band loss, dB (`OBL_MRR`).
    pub obl_mrr_db: f64,
    /// Aggregate network penalty (crosstalk, truncation, laser RIN
    /// margin), dB (`IL_penalty`).
    pub il_penalty_db: f64,
    /// Gap between adjacent OSMs, µm (`d_OSM`).
    pub d_osm_um: f64,
    /// Budget calibration offset, dB (listed under "Substitutions and
    /// calibrations" in ARCHITECTURE.md): Eq. 4 as
    /// printed is ambiguous about how the ideal 1×M split interacts with
    /// the penalty term; this offset is fixed so the solver reproduces the
    /// paper's anchor `N = M = 176` at `P_PD-opt = −28 dBm`.
    pub calibration_offset_db: f64,
}

impl Default for LinkParameters {
    fn default() -> Self {
        Self {
            laser_power_dbm: 10.0,
            wall_plug_efficiency: 0.1,
            il_smf_db: 0.0,
            il_ec_db: 1.6,
            il_wg_db_per_mm: 0.3,
            el_splitter_db: 0.01,
            il_osm_db: 4.0,
            obl_osm_db: 0.01,
            il_mrr_db: 0.01,
            obl_mrr_db: 0.01,
            il_penalty_db: 7.3,
            d_osm_um: 20.0,
            calibration_offset_db: -2.09,
        }
    }
}

/// Itemized loss breakdown for one wavelength channel through a SCONNA
/// VDPE, in dB. Useful for reports and for asserting which term dominates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LossBreakdown {
    /// Fiber + coupling losses.
    pub coupling_db: f64,
    /// Ideal 1×M power split.
    pub split_db: f64,
    /// Splitter excess loss across the log2(M) tree stages.
    pub split_excess_db: f64,
    /// Waveguide propagation along the N-OSM cascade.
    pub waveguide_db: f64,
    /// The channel's own OSM insertion loss.
    pub osm_insertion_db: f64,
    /// Out-of-band loss passing the other N−1 OSMs.
    pub osm_out_of_band_db: f64,
    /// Filter MRR insertion loss.
    pub filter_insertion_db: f64,
    /// Out-of-band loss passing the other N−1 filter MRRs.
    pub filter_out_of_band_db: f64,
    /// Aggregate network penalty.
    pub penalty_db: f64,
    /// Calibration offset (negative = credit; see [`LinkParameters`]).
    pub calibration_db: f64,
}

impl LossBreakdown {
    /// Total channel loss in dB.
    pub fn total_db(&self) -> f64 {
        self.coupling_db
            + self.split_db
            + self.split_excess_db
            + self.waveguide_db
            + self.osm_insertion_db
            + self.osm_out_of_band_db
            + self.filter_insertion_db
            + self.filter_out_of_band_db
            + self.penalty_db
            + self.calibration_db
    }
}

/// Computes the per-channel loss of a SCONNA VDPC with `n` OSMs per VDPE
/// and `m` VDPEs (waveguide arms).
///
/// # Panics
/// Panics if `n == 0` or `m == 0`.
pub fn sconna_channel_loss(params: &LinkParameters, n: usize, m: usize) -> LossBreakdown {
    assert!(n > 0 && m > 0, "VDPC dimensions must be positive");
    let n_f = n as f64;
    let m_f = m as f64;
    LossBreakdown {
        coupling_db: params.il_smf_db + params.il_ec_db,
        split_db: 10.0 * m_f.log10(),
        split_excess_db: params.el_splitter_db * m_f.log2(),
        waveguide_db: params.il_wg_db_per_mm * (n_f * params.d_osm_um * 1e-3),
        osm_insertion_db: params.il_osm_db,
        osm_out_of_band_db: (n_f - 1.0) * params.obl_osm_db,
        filter_insertion_db: params.il_mrr_db,
        filter_out_of_band_db: (n_f - 1.0) * params.obl_mrr_db,
        penalty_db: params.il_penalty_db,
        calibration_db: params.calibration_offset_db,
    }
}

/// Received optical power at the PCA photodetector, dBm, for the given
/// VDPC dimensions.
pub fn received_power_dbm(params: &LinkParameters, n: usize, m: usize) -> f64 {
    params.laser_power_dbm - sconna_channel_loss(params, n, m).total_db()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_monotone_in_n_and_m() {
        let p = LinkParameters::default();
        let base = sconna_channel_loss(&p, 64, 64).total_db();
        assert!(sconna_channel_loss(&p, 128, 64).total_db() > base);
        assert!(sconna_channel_loss(&p, 64, 128).total_db() > base);
    }

    #[test]
    fn split_loss_is_3db_per_doubling() {
        let p = LinkParameters::default();
        let a = sconna_channel_loss(&p, 16, 64);
        let b = sconna_channel_loss(&p, 16, 128);
        assert!((b.split_db - a.split_db - 10.0 * 2f64.log10()).abs() < 1e-9);
    }

    #[test]
    fn breakdown_total_matches_received_power() {
        let p = LinkParameters::default();
        let loss = sconna_channel_loss(&p, 176, 176);
        let rx = received_power_dbm(&p, 176, 176);
        assert!((p.laser_power_dbm - loss.total_db() - rx).abs() < 1e-9);
    }

    #[test]
    fn anchor_n176_is_within_budget_n177_is_not() {
        // Section V-B anchor: the calibrated budget supports exactly
        // N = M = 176 at the solved P_PD-opt (≈ −28 dBm) with a 10 dBm
        // laser.
        let p = LinkParameters::default();
        let sens = crate::photodetector::Photodetector::default()
            .sensitivity_dbm(1.0, crate::photodetector::sconna_effective_dr_hz(30e9, 8));
        assert!(received_power_dbm(&p, 176, 176) >= sens);
        assert!(received_power_dbm(&p, 177, 177) < sens);
    }

    #[test]
    fn split_dominates_at_large_m() {
        let p = LinkParameters::default();
        let loss = sconna_channel_loss(&p, 176, 176);
        assert!(loss.split_db > loss.waveguide_db);
        assert!(loss.split_db > loss.osm_insertion_db);
        assert!(loss.split_db > loss.penalty_db);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_n_rejected() {
        let _ = sconna_channel_loss(&LinkParameters::default(), 0, 4);
    }
}
