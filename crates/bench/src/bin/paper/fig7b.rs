//! Fig. 7(b): PCA analog output voltage vs α, the fraction of `1`s in
//! the incident bit-streams relative to the 176×256 full scale.

use sconna_photonics::pca::PcaCircuit;

pub fn run() {
    let pca = PcaCircuit::default();
    let full = 176u64 * 256;
    println!(
        "R = {} ohm-class TIR, C = {:.0} pF, gain = {}",
        50,
        pca.capacitance_f * 1e12,
        pca.amplifier_gain
    );
    println!();
    println!("{:>10}{:>14}{:>10}", "alpha(%)", "ones", "V_out");
    for pct in (0..=100).step_by(10) {
        let ones = full * pct as u64 / 100;
        let v = pca.output_voltage(ones);
        let bar = "#".repeat((v * 50.0).round() as usize);
        println!("{pct:>10}{ones:>14}{v:>9.3}V  {bar}");
    }
    println!();
    let v100 = pca.output_voltage(full);
    let v50 = pca.output_voltage(full / 2);
    let linearity = (v100 / v50 - 2.0).abs();
    println!(
        "linearity check: V(100%)/V(50%) = {:.4} (ideal 2.0000)",
        v100 / v50
    );
    println!(
        "saturation margin: capacity = {} ones vs full scale {}",
        pca.capacity_ones(),
        full
    );
    assert!(linearity < 1e-9, "PCA must be linear through alpha = 100%");
}
