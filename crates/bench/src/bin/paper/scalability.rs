//! Section V-B: the SCONNA VDPC scalability solve — photodetector
//! sensitivity, power-limited and channel-limited N, and the link-budget
//! breakdown at the achievable size.

use sconna_bench::format_kv;
use sconna_photonics::link::{received_power_dbm, sconna_channel_loss, LinkParameters};
use sconna_photonics::scalability::sconna_scalability_default;
use sconna_photonics::spectrum::crosstalk_penalty_db;

pub fn run() {
    let s = sconna_scalability_default();
    print!(
        "{}",
        format_kv(&[
            (
                "P_PD-opt (1-bit sensitivity)",
                format!("{:.2} dBm (paper: -28 dBm)", s.p_pd_opt_dbm)
            ),
            ("power-limited N", format!("{}", s.power_limited_n)),
            (
                "channel-limited N (FSR/gap)",
                format!("{}", s.channel_limited_n)
            ),
            (
                "achievable N = M",
                format!("{} (paper: 176)", s.achievable_n)
            ),
        ])
    );

    println!();
    println!("link-budget breakdown at N = M = {}:", s.achievable_n);
    let params = LinkParameters::default();
    let loss = sconna_channel_loss(&params, s.achievable_n, s.achievable_n);
    print!(
        "{}",
        format_kv(&[
            ("coupling", format!("{:.3} dB", loss.coupling_db)),
            ("1xM split (ideal)", format!("{:.3} dB", loss.split_db)),
            ("splitter excess", format!("{:.3} dB", loss.split_excess_db)),
            ("waveguide", format!("{:.3} dB", loss.waveguide_db)),
            ("OSM insertion", format!("{:.3} dB", loss.osm_insertion_db)),
            (
                "OSM out-of-band",
                format!("{:.3} dB", loss.osm_out_of_band_db)
            ),
            (
                "filter insertion",
                format!("{:.3} dB", loss.filter_insertion_db)
            ),
            (
                "filter out-of-band",
                format!("{:.3} dB", loss.filter_out_of_band_db)
            ),
            ("network penalty", format!("{:.3} dB", loss.penalty_db)),
            ("calibration", format!("{:.3} dB", loss.calibration_db)),
            ("TOTAL", format!("{:.3} dB", loss.total_db())),
            (
                "received power",
                format!(
                    "{:.2} dBm",
                    received_power_dbm(&params, s.achievable_n, s.achievable_n)
                ),
            ),
        ])
    );

    println!();
    println!("filter-bank crosstalk penalty (0.25 nm channel gap):");
    for &(n, fwhm_nm) in &[(44usize, 0.1f64), (176, 0.1), (176, 0.2), (176, 0.8)] {
        let pen = crosstalk_penalty_db(n, 0.25e-9, fwhm_nm * 1e-9);
        if pen.is_finite() {
            println!("  N = {n:>3}, filter FWHM = {fwhm_nm} nm: {pen:.2} dB");
        } else {
            println!(
                "  N = {n:>3}, filter FWHM = {fwhm_nm} nm: unresolvable \
(filters as wide as the OAG cannot demux a 0.25 nm grid — the \
filter MRRs must be narrow; this crosstalk is part of IL_penalty)"
            );
        }
    }
}
