//! Fig. 7(a): supported OAG bitrate vs passband FWHM at an OMA floor of
//! −28 dBm (the photodetector sensitivity).

use sconna_photonics::oag::OpticalAndGate;
use sconna_photonics::units::dbm_to_watts;

pub fn run() {
    let floor = dbm_to_watts(-28.0);
    println!("{:>10}{:>16}{:>26}", "FWHM(nm)", "BR(Gb/s)", "");
    for step in 1..=12 {
        let fwhm_nm = step as f64 * 0.1;
        let gate = OpticalAndGate::new(fwhm_nm * 1e-9, 50e-9, 1e-3);
        let br = gate.supported_bitrate_hz(floor);
        match br {
            Some(br) => {
                let gbps = br / 1e9;
                let bar = "#".repeat((gbps / 2.0).round() as usize);
                println!("{fwhm_nm:>10.1}{gbps:>16.2}  {bar}");
            }
            None => println!("{fwhm_nm:>10.1}{:>16}", "unreachable"),
        }
    }
    println!();
    println!("paper anchor: BR rises with FWHM and saturates at 40 Gb/s");
    println!("around FWHM = 0.8 nm; SCONNA conservatively operates at");
    println!("BR = 30 Gb/s (Section V-B).");
}
