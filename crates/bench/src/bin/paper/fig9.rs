//! Fig. 9(a/b/c): FPS, FPS/W and FPS/W/mm² for SCONNA vs the MAM
//! (HOLYLIGHT) and AMM (DEAP-CNN) analog baselines across the four
//! evaluated CNNs, plus the gmean speedups against the paper's published
//! factors.

use sconna_accel::report::run_fig9;
use sconna_tensor::models::all_models;

pub fn run() {
    let models = all_models();
    let grid = run_fig9(&models);

    println!(
        "{}",
        grid.format_metric("Fig. 9(a): throughput", "FPS", |p| p.fps)
    );
    println!(
        "{}",
        grid.format_metric("Fig. 9(b): energy efficiency", "FPS/W", |p| p.fps_per_w)
    );
    println!(
        "{}",
        grid.format_metric("Fig. 9(c): area efficiency", "FPS/W/mm2", |p| p
            .fps_per_w_per_mm2)
    );
    println!("{}", grid.format_speedups());

    // Where the joules go (ResNet50).
    println!("top energy consumers (ResNet50):");
    for (ai, cfg) in grid.accelerators.iter().enumerate() {
        let perf = &grid.results[ai][1];
        let mut bd = perf.energy_breakdown_j.clone();
        bd.sort_by(|a, b| b.1.total_cmp(&a.1));
        let total: f64 = bd.iter().map(|(_, e)| e).sum();
        let tops: Vec<String> = bd
            .iter()
            .take(3)
            .map(|(name, e)| format!("{name} {:.1}%", 100.0 * e / total))
            .collect();
        println!("  {:<18} {}", cfg.name, tops.join(", "));
    }
    println!();

    // Per-layer bottleneck attribution for the largest model on each
    // accelerator — the mechanism behind the speedups.
    println!("bottleneck attribution (ResNet50):");
    for (ai, cfg) in grid.accelerators.iter().enumerate() {
        let perf = &grid.results[ai][1]; // ResNet50
        let mut compute = 0u64;
        let mut psum = 0u64;
        let mut reprogram = 0u64;
        let mut other = 0u64;
        for l in &perf.layers {
            let dominant = l.compute.max(l.psum).max(l.reprogram).max(l.memory);
            if dominant == l.compute {
                compute += l.total.as_ps();
            } else if dominant == l.psum {
                psum += l.total.as_ps();
            } else if dominant == l.reprogram {
                reprogram += l.total.as_ps();
            } else {
                other += l.total.as_ps();
            }
        }
        let tot = (compute + psum + reprogram + other).max(1) as f64;
        println!(
            "  {:<18} compute {:>5.1}%  psum {:>5.1}%  reprogram {:>5.1}%  memory {:>5.1}%",
            cfg.name,
            100.0 * compute as f64 / tot,
            100.0 * psum as f64 / tot,
            100.0 * reprogram as f64 / tot,
            100.0 * other as f64 / tot,
        );
    }
}
