//! Ablation A4: sensitivity of end-to-end accuracy to the PCA ADC error
//! (the paper's single injected error source, 1.3 % MAPE).

use sconna_accel::accuracy::AccuracyExperiment;
use sconna_accel::engine::SconnaEngine;
use sconna_bench::banner;
use sconna_photonics::pca::AdcModel;
use sconna_sc::Precision;
use sconna_tensor::dataset::SyntheticDataset;
use sconna_tensor::engine::ExactEngine;
use sconna_tensor::smallcnn::{SmallCnn, SmallCnnConfig};

fn main() {
    print!(
        "{}",
        banner(
            "Ablation A4 — accuracy vs ADC noise level",
            "SCONNA paper, Section V-C / VI-D error model"
        )
    );

    // Train once, evaluate under different ADC noise settings.
    let exp = AccuracyExperiment::default();
    let data = SyntheticDataset::new(exp.classes, exp.image_size, exp.noise, exp.seed);
    let train = data.batch(exp.train_per_class, exp.seed + 1);
    let test = data.batch(exp.test_per_class, exp.seed + 2);
    let mut net = SmallCnn::new(
        SmallCnnConfig {
            input_size: exp.image_size,
            channels1: 8,
            channels2: 16,
            classes: exp.classes,
        },
        exp.seed,
    );
    net.train(&train, exp.epochs, 0.05);
    let qnet = net.quantize(&train, 8);
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
