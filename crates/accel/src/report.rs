//! Report formatting for the benchmark harness: the Fig. 9 comparison
//! table, gmean speedup summaries, and the serving-sweep table.

use crate::organization::AcceleratorConfig;
use crate::perf::{simulate_inference, InferencePerf};
use crate::serve::{OverloadPoint, ServingReport};
use sconna_sim::stats::gmean;
use sconna_tensor::models::CnnModel;
use std::fmt::Write as _;

/// Boxed metric selector used by the speedup table.
type MetricFn = Box<dyn Fn(&InferencePerf) -> f64>;

/// The full Fig. 9 result grid: one [`InferencePerf`] per
/// (accelerator, model) pair, accelerators outermost.
pub struct Fig9Results {
    /// Accelerators in evaluation order.
    pub accelerators: Vec<AcceleratorConfig>,
    /// Model names in evaluation order.
    pub models: Vec<String>,
    /// Results, `[accelerator][model]`.
    pub results: Vec<Vec<InferencePerf>>,
}

/// Runs the full Fig. 9 grid.
pub fn run_fig9(models: &[CnnModel]) -> Fig9Results {
    let accelerators = AcceleratorConfig::all().to_vec();
    let results = accelerators
        .iter()
        .map(|cfg| models.iter().map(|m| simulate_inference(cfg, m)).collect())
        .collect();
    Fig9Results {
        accelerators,
        models: models.iter().map(|m| m.name.clone()).collect(),
        results,
    }
}

impl Fig9Results {
    /// Gmean ratio of a metric between accelerator rows `a` and `b`.
    pub fn gmean_ratio(&self, a: usize, b: usize, metric: impl Fn(&InferencePerf) -> f64) -> f64 {
        let ratios: Vec<f64> = self.results[a]
            .iter()
            .zip(&self.results[b])
            .map(|(ra, rb)| metric(ra) / metric(rb))
            .collect();
        gmean(&ratios)
    }

    /// Formats one metric as a table with per-model columns. Values
    /// below 1 print in scientific notation, so no nonzero value prints
    /// as `0.000`.
    pub fn format_metric(
        &self,
        title: &str,
        unit: &str,
        metric: impl Fn(&InferencePerf) -> f64,
    ) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{title} ({unit})");
        let _ = write!(out, "{:<18}", "accelerator");
        for m in &self.models {
            let _ = write!(out, "{m:>16}");
        }
        let _ = writeln!(out, "{:>12}", "gmean");
        let cell = |v: f64, width: usize| {
            if v < 1.0 {
                format!("{v:>width$.3e}")
            } else {
                format!("{v:>width$.3}")
            }
        };
        for (ai, cfg) in self.accelerators.iter().enumerate() {
            let _ = write!(out, "{:<18}", cfg.name);
            let values: Vec<f64> = self.results[ai].iter().map(&metric).collect();
            for &v in &values {
                out.push_str(&cell(v, 16));
            }
            let _ = writeln!(out, "{}", cell(gmean(&values), 12));
        }
        out
    }

    /// Formats the headline gmean speedups of accelerator 0 (SCONNA)
    /// over the others, against the paper's published factors.
    pub fn format_speedups(&self) -> String {
        let paper = [
            ("FPS", [66.5, 146.4]),
            ("FPS/W", [90.0, 183.0]),
            ("FPS/W/mm2", [91.0, 184.0]),
        ];
        let metrics: [MetricFn; 3] = [
            Box::new(|p| p.fps),
            Box::new(|p| p.fps_per_w),
            Box::new(|p| p.fps_per_w_per_mm2),
        ];
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12}{:>24}{:>14}{:>24}{:>14}",
            "metric", "SCONNA/MAM (measured)", "(paper)", "SCONNA/AMM (measured)", "(paper)"
        );
        for ((name, paper_vals), metric) in paper.iter().zip(metrics.iter()) {
            let m = self.gmean_ratio(0, 1, metric);
            let a = self.gmean_ratio(0, 2, metric);
            let _ = writeln!(
                out,
                "{:<12}{:>23.1}x{:>13.1}x{:>23.1}x{:>13.1}x",
                name, m, paper_vals[0], a, paper_vals[1]
            );
        }
        out
    }
}

/// Formats a serving sweep as a table: one row per report, columns for
/// fleet shape, throughput, latency percentiles, utilization and energy.
pub fn format_serving_sweep(reports: &[ServingReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<6}{:>7}{:>12}{:>12}{:>12}{:>12}{:>8}{:>8}{:>14}",
        "inst", "batch", "FPS", "p50", "p95", "p99", "fill", "util", "J/inference"
    );
    for r in reports {
        let mean_util: f64 = if r.utilization.is_empty() {
            0.0
        } else {
            r.utilization.iter().sum::<f64>() / r.utilization.len() as f64
        };
        let _ = writeln!(
            out,
            "{:<6}{:>7}{:>12.1}{:>12}{:>12}{:>12}{:>8.2}{:>8.2}{:>14.3e}",
            r.instances,
            r.max_batch,
            r.fps,
            r.latency.p50.to_string(),
            r.latency.p95.to_string(),
            r.latency.p99.to_string(),
            r.mean_batch_fill,
            mean_util,
            r.energy_per_inference_j,
        );
    }
    out
}

/// Formats an overload sweep as a table: one row per offered-load point
/// with goodput, shed accounting, tail latency, queue depth and the
/// accuracy-under-shedding columns.
pub fn format_overload_sweep(points: &[OverloadPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12}{:>12}{:>8}{:>10}{:>12}{:>12}{:>8}{:>10}{:>10}",
        "offered", "goodput", "drop%", "degraded", "p50", "p99", "maxQ", "acc-adm", "acc-off"
    );
    for p in points {
        let s = &p.report.serving;
        let _ = writeln!(
            out,
            "{:<12.0}{:>12.0}{:>8.1}{:>10}{:>12}{:>12}{:>8}{:>9.1}%{:>9.1}%",
            p.offered_fps,
            s.goodput_fps,
            100.0 * s.drop_rate,
            s.degraded,
            s.latency.p50.to_string(),
            s.latency.p99.to_string(),
            s.queue_depth.max_depth(),
            100.0 * p.report.accuracy_under_load,
            100.0 * p.report.accuracy_offered,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sconna_tensor::models::shufflenet_v2;

    #[test]
    fn fig9_grid_dimensions() {
        let models = vec![shufflenet_v2()];
        let grid = run_fig9(&models);
        assert_eq!(grid.accelerators.len(), 3);
        assert_eq!(grid.results.len(), 3);
        assert_eq!(grid.results[0].len(), 1);
    }

    #[test]
    fn format_contains_all_accelerators() {
        let models = vec![shufflenet_v2()];
        let grid = run_fig9(&models);
        let table = grid.format_metric("FPS", "frames/s", |p| p.fps);
        assert!(table.contains("SCONNA"));
        assert!(table.contains("MAM (HOLYLIGHT)"));
        assert!(table.contains("AMM (DEAPCNN)"));
        assert!(table.contains("gmean"));
        // The baselines' area efficiencies sit far below 1: each prints
        // in scientific notation, never as `0.000`.
        let area = grid.format_metric("area", "FPS/W/mm2", |p| p.fps_per_w_per_mm2);
        let small = grid.results[1..]
            .iter()
            .flatten()
            .map(|p| p.fps_per_w_per_mm2)
            .filter(|&v| v < 1.0)
            .collect::<Vec<_>>();
        assert!(!small.is_empty(), "a baseline's area efficiency is below 1");
        for v in small {
            assert!(
                v > 0.0 && area.contains(&format!("{v:.3e}")),
                "{v} in\n{area}"
            );
        }
        assert!(!area.split_whitespace().any(|c| c == "0.000"), "{area}");
        let speedups = grid.format_speedups();
        assert!(speedups.contains("FPS/W/mm2"));
    }

    #[test]
    fn serving_table_has_one_row_per_report() {
        use crate::serve::{simulate_serving, ServingConfig};
        let model = shufflenet_v2();
        let reports: Vec<ServingReport> = [1usize, 2]
            .into_iter()
            .map(|i| {
                simulate_serving(
                    &ServingConfig::saturation(AcceleratorConfig::sconna(), i, 2, 8),
                    &model,
                )
            })
            .collect();
        let table = format_serving_sweep(&reports);
        assert_eq!(table.lines().count(), 3, "header + 2 rows");
        assert!(table.contains("J/inference"));
        assert!(table.contains("p99"));
    }

    #[test]
    fn overload_table_has_one_row_per_point() {
        use crate::engine::SconnaEngine;
        use crate::serve::{overload_sweep, FunctionalWorkload, ServingConfig};
        use sconna_tensor::dataset::Sample;
        use sconna_tensor::layers::QFc;
        use sconna_tensor::network::{QLayer, QuantizedNetwork};
        use sconna_tensor::quant::ActivationQuant;
        use sconna_tensor::Tensor;
        let net = QuantizedNetwork {
            input_quant: ActivationQuant {
                scale: 1.0 / 255.0,
                bits: 8,
            },
            layers: vec![
                QLayer::GlobalAvgPool,
                QLayer::Fc(QFc {
                    name: "fc".into(),
                    weights: Tensor::from_vec(&[2, 1], vec![127, -127]),
                    bias: vec![0.0, 0.0],
                    dequant: 1.0,
                }),
            ],
        };
        let samples = vec![Sample {
            image: Tensor::from_fn(&[1, 4, 4], |_| 0.5),
            label: 0,
        }];
        let engine = SconnaEngine::paper_default(1);
        let model = shufflenet_v2();
        let base = ServingConfig {
            queue_cap: Some(2),
            ..ServingConfig::saturation(AcceleratorConfig::sconna(), 1, 2, 8)
        };
        let cap = base.estimated_capacity_fps(&model);
        let workload = FunctionalWorkload {
            net: &net,
            fallback: None,
            fallback_engine: None,
            samples: &samples,
            engine: &engine,
            workers: 1,
        };
        let points = overload_sweep(&base, &model, &workload, &[0.5 * cap, 2.0 * cap], 1);
        let table = format_overload_sweep(&points);
        assert_eq!(table.lines().count(), 3, "header + 2 rows");
        assert!(table.contains("acc-adm"));
        assert!(table.contains("p99"));
    }

    #[test]
    fn gmean_ratio_of_self_is_one() {
        let models = vec![shufflenet_v2()];
        let grid = run_fig9(&models);
        let r = grid.gmean_ratio(1, 1, |p| p.fps);
        assert!((r - 1.0).abs() < 1e-12);
    }
}
