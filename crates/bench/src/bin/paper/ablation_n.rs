//! Ablation A1: sweep the SCONNA VDPE size N and watch throughput and
//! psum pressure move — the design-space argument behind choosing the
//! largest N the link budget allows.

use sconna_accel::organization::AcceleratorConfig;
use sconna_accel::perf::simulate_inference;
use sconna_sim::stats::gmean;
use sconna_tensor::models::all_models;

pub fn run() {
    let models = all_models();
    println!(
        "{:<8}{:>14}{:>14}{:>14}{:>14}{:>12}",
        "N", "GoogleNet", "ResNet50", "MobileNet_V2", "ShuffleNet_V2", "gmean"
    );
    let baseline_n176: Vec<f64> = models
        .iter()
        .map(|m| simulate_inference(&AcceleratorConfig::sconna(), m).fps)
        .collect();
    for n in [16usize, 32, 44, 64, 96, 128, 176, 200, 256] {
        let cfg = AcceleratorConfig {
            vdpe_size_n: n,
            ..AcceleratorConfig::sconna()
        };
        let fps: Vec<f64> = models
            .iter()
            .map(|m| simulate_inference(&cfg, m).fps)
            .collect();
        println!(
            "{:<8}{:>14.1}{:>14.1}{:>14.1}{:>14.1}{:>12.1}",
            n,
            fps[0],
            fps[1],
            fps[2],
            fps[3],
            gmean(&fps)
        );
    }
    println!();
    println!(
        "N = 176 (paper) gmean FPS: {:.1}; N = 44 (best analog-achievable)",
        gmean(&baseline_n176)
    );
    let cfg44 = AcceleratorConfig {
        vdpe_size_n: 44,
        ..AcceleratorConfig::sconna()
    };
    let fps44: Vec<f64> = models
        .iter()
        .map(|m| simulate_inference(&cfg44, m).fps)
        .collect();
    println!(
        "gmean FPS: {:.1}  ->  large-N payoff: {:.2}x",
        gmean(&fps44),
        gmean(&baseline_n176) / gmean(&fps44)
    );
}
