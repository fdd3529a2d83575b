//! Ablation A2: stochastic stream length vs precision — SCONNA trades
//! bits of precision for linear stream time (2^B bits per pass), with no
//! change to the optical power budget. This is the "precision
//! flexibility" claim of Section III-B.

use sconna_accel::organization::AcceleratorConfig;
use sconna_accel::perf::simulate_inference;
use sconna_sc::multiply::{ideal_product, lds_product, real_product};
use sconna_sc::Precision;
use sconna_sim::time::SimTime;
use sconna_tensor::models::resnet50;

pub fn run() {
    println!(
        "{:>6}{:>12}{:>16}{:>18}{:>20}",
        "B", "stream", "pass time", "ResNet50 FPS", "worst mult err"
    );
    for bits in [4u8, 6, 8, 10] {
        let p = Precision::new(bits);
        let stream = p.stream_len();
        let pass_ps = (stream as f64 / 30e9 * 1e12).round() as u64;
        let cfg = AcceleratorConfig {
            native_bits: bits,
            symbol_time: SimTime::from_ps(pass_ps),
            ..AcceleratorConfig::sconna()
        };
        let fps = simulate_inference(&cfg, &resnet50()).fps;
        // Worst stochastic multiply error (in value units of 1/2^B)
        // across the operand grid.
        let mut worst = 0f64;
        let max = p.stream_len() as u32;
        let step = (max / 16).max(1);
        for i in (0..=max).step_by(step as usize) {
            for w in (0..=max).step_by(step as usize) {
                worst = worst.max((lds_product(i, w, p) as f64 - real_product(i, w, p)).abs());
            }
        }
        println!(
            "{:>6}{:>12}{:>13} ns{:>18.1}{:>17.2} ulp",
            bits,
            stream,
            pass_ps as f64 / 1000.0,
            fps,
            worst
        );
    }
    println!();
    println!("the analog baselines cannot make this trade: raising B shrinks");
    println!("their achievable N (Table I); SCONNA only lengthens the stream.");
    let p = Precision::B8;
    println!(
        "sanity: 128/256 x 128/256 -> SC {} vs ideal {} (of 256)",
        lds_product(128, 128, p),
        ideal_product(128, 128, p)
    );
}
