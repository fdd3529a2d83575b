//! Ablation A4: sensitivity of end-to-end accuracy to the PCA ADC error
//! (the paper's single injected error source, 1.3 % MAPE).

use sconna_accel::accuracy::{AccuracyExperiment, TrainedModel};
use sconna_accel::engine::SconnaEngine;
use sconna_photonics::pca::AdcModel;
use sconna_sc::Precision;
use sconna_tensor::engine::ExactEngine;

pub fn run() {
    // Train once, evaluate under different ADC noise settings.
    let exp = AccuracyExperiment::default();
    let TrainedModel { qnet, test, .. } = exp.train_plain();
    let exact_acc = qnet.accuracy(&test, &ExactEngine);
    println!("exact int8 Top-1: {:.1}%", 100.0 * exact_acc);
    println!();
    println!("{:>18}{:>14}{:>12}", "ADC sigma", "SC Top-1", "drop(pp)");

    for &(label, sigma) in &[
        ("none (SC only)", -1.0f64),
        ("0 (quant. only)", 0.0),
        ("0.5x (0.73%)", 0.00725),
        ("1.0x (1.45%)", 0.0145),
        ("2.0x (2.9%)", 0.029),
        ("4.0x (5.8%)", 0.058),
    ] {
        let adc = (sigma >= 0.0).then(|| AdcModel {
            relative_noise_sigma: sigma,
            ..AdcModel::sconna_default()
        });
        let engine = SconnaEngine::new(Precision::B8, 176, adc, exp.seed);
        let acc = qnet.accuracy(&test, &engine);
        println!(
            "{:>18}{:>13.1}%{:>12.2}",
            label,
            100.0 * acc,
            100.0 * (exact_acc - acc)
        );
    }
    println!();
    println!("paper: 1.3% ADC MAPE costs <=0.4 pp Top-1 on large CNNs and");
    println!("<=1.5 pp on small CNNs; the drop grows smoothly with sigma.");
}
