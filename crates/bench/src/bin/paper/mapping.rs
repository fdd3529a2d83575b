//! Mapping report: per-layer VDPE occupancy and load balance of the
//! weight-stationary schedule — where each accelerator's array is
//! underfilled and why.

use sconna_accel::mapper::map_model;
use sconna_accel::organization::AcceleratorConfig;
use sconna_tensor::models::all_models;

pub fn run() {
    for cfg in AcceleratorConfig::all() {
        println!(
            "== {} ({} VDPEs of N = {})",
            cfg.name, cfg.total_vdpes, cfg.vdpe_size_n
        );
        for model in all_models() {
            let reports = map_model(&cfg, &model);
            let n = reports.len() as f64;
            let mean_occ: f64 = reports.iter().map(|r| r.occupancy).sum::<f64>() / n;
            let mean_bal: f64 = reports.iter().map(|r| r.balance).sum::<f64>() / n;
            let worst = reports
                .iter()
                .min_by(|a, b| a.occupancy.total_cmp(&b.occupancy))
                .unwrap();
            println!(
                "  {:<16} mean occupancy {:>5.1}%  mean balance {:>5.2}  \
                 worst layer: {} ({:.1}%)",
                model.name,
                100.0 * mean_occ,
                mean_bal,
                worst.layer,
                100.0 * worst.occupancy
            );
        }
    }
    println!();
    println!("small early layers and depthwise layers underfill the wide");
    println!("SCONNA array (few kernels x few chunks); the analog baselines'");
    println!("bit-sliced tasks fill their larger arrays more easily — their");
    println!("problem is never occupancy, it is psums and reprogramming.");
}
