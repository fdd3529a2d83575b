//! Ablation A3: stochastic-number-generation strategy — error of the
//! LUT's LDS×thermometer pairing vs a conventional LFSR SNG vs the
//! paper's XOR-hashed single-fetch LUT, against the ideal rounded
//! product.

use sconna_sc::lut::{PairLut, XorHashedLut};
use sconna_sc::multiply::{multiply_streams, real_product};
use sconna_sc::sng::{LfsrSng, StochasticNumberGenerator};
use sconna_sc::Precision;

pub fn run() {
    let p = Precision::B8;
    let lut = PairLut::generate(p);
    let hashed = XorHashedLut::generate(p);
    let lfsr_i = LfsrSng::new(0xACE1);
    let lfsr_w = LfsrSng::new(0x1DEA);

    let mut sums = [0f64; 3];
    let mut worst = [0f64; 3];
    let mut count = 0usize;
    for i in (0..=256u32).step_by(8) {
        for w in (0..=256u32).step_by(8) {
            let ideal = real_product(i, w, p);
            let lut_prod = lut.multiply(i, w) as f64;
            let lfsr_prod = multiply_streams(&lfsr_i.generate(i, p), &lfsr_w.generate(w, p)) as f64;
            let hash_prod = hashed.multiply(i, w) as f64;
            for (k, prod) in [lut_prod, lfsr_prod, hash_prod].into_iter().enumerate() {
                let err = (prod - ideal).abs();
                sums[k] += err;
                worst[k] = worst[k].max(err);
            }
            count += 1;
        }
    }
    println!(
        "{:<34}{:>14}{:>14}",
        "strategy", "mean |err|", "worst |err|"
    );
    let names = [
        "LDS x thermometer LUT (ours)",
        "two independent LFSRs",
        "XOR-hashed single-fetch LUT",
    ];
    for k in 0..3 {
        println!(
            "{:<34}{:>14.3}{:>14.1}",
            names[k],
            sums[k] / count as f64,
            worst[k]
        );
    }
    println!();
    println!("(errors in ones-counts of the 256-bit product stream; the");
    println!(" XOR hash aliases operand pairs and is catastrically wrong,");
    println!(" which is why the reproduction models the collision-free");
    println!(" two-fetch LUT as the faithful reading of Section IV-B)");
}
