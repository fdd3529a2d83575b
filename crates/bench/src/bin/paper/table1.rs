//! Table I: maximum VDPE size N for the analog AMM/MAM organizations at
//! 4/6-bit precision and 1/3/5/10 GS/s, model vs the paper's published
//! values.

use sconna_photonics::scalability::reproduce_table_one;

pub fn run() {
    println!(
        "{:<18}{:>6}{:>10}{:>10}{:>10}{:>10}",
        "organization", "B", "DR", "model N", "paper N", "diff"
    );
    for e in reproduce_table_one() {
        println!(
            "{:<18}{:>6}{:>9.0e}{:>10}{:>10}{:>+10}",
            e.org.label(),
            e.precision_bits,
            e.dr_hz,
            e.model_n,
            e.paper_n,
            e.model_n as i64 - e.paper_n as i64
        );
    }
    println!();
    println!("anchors (4-bit, 1 GS/s) are calibrated exactly; all other");
    println!("entries follow from the balanced-detection noise model.");
}
