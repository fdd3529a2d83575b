//! Table V: Top-1/Top-k inference accuracy of SCONNA (stochastic
//! compute + ADC error) vs exact int8, plus the per-architecture
//! layer-error propagation study.
//!
//! Substitution note (ARCHITECTURE.md, "Substitutions and
//! calibrations"): the paper measures pretrained ImageNet models through
//! PyTorch; this harness trains small CNNs on the in-repo synthetic
//! dataset and propagates errors through random-weight instances of the
//! four real architectures' layer geometries.

use sconna_accel::accuracy::{layer_error_experiment, AccuracyExperiment};
use sconna_tensor::models::all_models;

pub fn run() {
    println!("[1/3] end-to-end accuracy (small CNN, synthetic 10-class set)");
    let mut top1_drops = Vec::new();
    let mut topk_drops = Vec::new();
    let mut plain = Vec::new();
    println!(
        "{:>6}{:>10}{:>12}{:>12}{:>12}{:>12}{:>12}",
        "seed", "fp32", "int8 top1", "SC top1", "drop(pp)", "int8 top5", "SC top5"
    );
    for seed in [7u64, 21, 42, 99, 123] {
        let r = AccuracyExperiment {
            seed,
            ..Default::default()
        }
        .run();
        println!(
            "{:>6}{:>9.1}%{:>11.1}%{:>11.1}%{:>12.2}{:>11.1}%{:>11.1}%",
            seed,
            100.0 * r.fp_top1,
            100.0 * r.exact_top1,
            100.0 * r.sconna_top1,
            r.top1_drop_pct,
            100.0 * r.exact_topk,
            100.0 * r.sconna_topk,
        );
        top1_drops.push(r.top1_drop_pct);
        topk_drops.push(r.topk_drop_pct);
        plain.push((seed, r.top1_drop_pct));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    println!(
        "Top-1 drop: mean {:.2} pp, median {:.2} pp   Top-5 drop: mean {:.2} pp",
        mean(&top1_drops),
        median(&mut top1_drops.clone()),
        mean(&topk_drops)
    );
    println!("paper (gmean over 4 ImageNet CNNs): Top-1 0.4 pp, Top-5 0.3 pp;");
    println!("up to 1.5 pp for small CNNs — ours is a small CNN.");
    println!();

    println!("[2/3] capacity trend: plain vs residual small CNN");
    println!(
        "{:>6}{:>16}{:>18}",
        "seed", "plain drop(pp)", "residual drop(pp)"
    );
    let mut plain_sum = 0.0;
    let mut res_sum = 0.0;
    // The plain model at these seeds is the one [1/3] already measured.
    for &(seed, plain_drop) in &plain[..3] {
        let residual_drop = AccuracyExperiment {
            seed,
            ..Default::default()
        }
        .run_residual()
        .top1_drop_pct;
        println!("{seed:>6}{plain_drop:>16.2}{residual_drop:>18.2}");
        plain_sum += plain_drop;
        res_sum += residual_drop;
    }
    println!(
        "mean: plain {:.2} pp vs residual {:.2} pp  (paper's trend: deeper/",
        plain_sum / 3.0,
        res_sum / 3.0
    );
    println!("residual models tolerate the injected errors better)");
    println!();

    println!("[3/3] layer-error propagation on the real architectures");
    println!("{:>16}{:>18}{:>20}", "model", "mean S", "VDP rel. error");
    for model in all_models() {
        let r = layer_error_experiment(&model, 8, 25, 11);
        println!(
            "{:>16}{:>18.0}{:>19.2}%",
            r.model, r.mean_vector_len, r.vdp_error_pct
        );
    }
    println!();
    println!("(relative RMSE of SCONNA VDP outputs vs exact int8; the ADC");
    println!(" contribution is isolated by the ablation_adc binary)");
}
