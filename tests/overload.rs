//! Overload & admission-control guarantees: every offered request reaches
//! exactly one terminal state (served + dropped + degraded == offered)
//! under every policy, fleet shape and arrival process; an infinite-cap
//! `DropNewest` scheduler is bit-identical to the unbounded one; the
//! bounded queue never exceeds its bound; and the open-loop overload
//! sweep's knee sits at the closed-form capacity estimate.

use proptest::prelude::*;
use sconna::accel::serve::{
    overload_sweep, simulate_serving, AdmissionPolicy, ArrivalProcess, Fleet, FunctionalWorkload,
    ServingConfig, TenantScheduler, TenantSpec,
};
use sconna::accel::{AcceleratorConfig, SconnaEngine};
use sconna::sim::time::SimTime;
use sconna::tensor::dataset::Sample;
use sconna::tensor::layers::{MaxPool2d, QConv2d, QFc};
use sconna::tensor::models::shufflenet_v2;
use sconna::tensor::network::{QLayer, QuantizedNetwork};
use sconna::tensor::quant::{ActivationQuant, Requant, WeightQuant};
use sconna::tensor::Tensor;

/// A hand-built quantized CNN plus a labelled request population for the
/// functional overload points.
fn tiny_workload(seed: u64) -> (QuantizedNetwork, Vec<Sample>) {
    let aq = ActivationQuant {
        scale: 1.0 / 255.0,
        bits: 8,
    };
    let wq = WeightQuant {
        scale: 1.0 / 127.0,
        bits: 8,
    };
    let net = QuantizedNetwork {
        input_quant: aq,
        layers: vec![
            QLayer::Conv(QConv2d {
                name: format!("c1-{seed}"),
                weights: Tensor::from_fn(&[4, 1, 3, 3], |i| {
                    ((i as u64 * 29 + seed) % 255) as i32 - 127
                }),
                bias: vec![0.0; 4],
                stride: 1,
                padding: 1,
                groups: 1,
                requant: Requant::new(aq, wq, aq),
            }),
            QLayer::MaxPool(MaxPool2d {
                kernel: 2,
                stride: 2,
                padding: 0,
            }),
            QLayer::GlobalAvgPool,
            QLayer::Fc(QFc {
                name: format!("fc-{seed}"),
                weights: Tensor::from_fn(&[3, 4], |i| ((i as u64 * 67 + seed) % 255) as i32 - 127),
                bias: vec![0.0; 3],
                dequant: aq.scale * wq.scale,
            }),
        ],
    };
    let samples: Vec<Sample> = (0..5)
        .map(|s| Sample {
            image: Tensor::from_fn(&[1, 8, 8], |i| {
                ((s as u64 * 37 + i as u64 * 11 + seed) % 256) as f32 / 255.0
            }),
            label: s % 3,
        })
        .collect();
    (net, samples)
}

proptest! {
    /// Terminal-state accounting holds for every policy, queue bound,
    /// fleet shape, arrival process and seed: served + dropped +
    /// degraded == offered == requests, the shed breakdown sums to the
    /// drop total, the bounded queue never exceeds its bound, and only
    /// the policy's own shed causes fire.
    #[test]
    fn prop_shed_accounting_is_exhaustive_and_exclusive(
        policy_idx in 0usize..=3,
        instances in 1usize..=3,
        max_batch in 1usize..=4,
        cap in 0usize..=3, // 0 = unbounded
        requests in 1usize..=32,
        arrival_kind in 0u8..=2, // 0 closed loop, 1 Poisson, 2 trace replay
        load_x10 in 3u64..=40, // offered load, tenths of capacity
        seed in 0u64..=1000,
    ) {
        let model = shufflenet_v2();
        let slo = SimTime::from_ns(50_000 * (1 + seed % 8));
        let admission = [
            AdmissionPolicy::DropNewest,
            AdmissionPolicy::DropOldest,
            AdmissionPolicy::Deadline { slo },
            AdmissionPolicy::Degrade { fallback_bits: 4 },
        ][policy_idx];
        let base = ServingConfig::saturation(
            AcceleratorConfig::sconna(),
            instances,
            max_batch,
            requests,
        );
        let capacity = base.estimated_capacity_fps(&model);
        let arrivals = match arrival_kind {
            0 => ArrivalProcess::ClosedLoop { clients: 1 + (seed % 8) as usize },
            1 => ArrivalProcess::Poisson { rate_fps: capacity * load_x10 as f64 / 10.0 },
            _ => {
                // An unsorted replay at roughly the drawn load: request i
                // lands at a hashed offset within the window the Poisson
                // process would have used.
                let window_ps =
                    (requests as f64 / (capacity * load_x10 as f64 / 10.0) * 1e12) as u64;
                ArrivalProcess::Trace {
                    times: (0..requests as u64)
                        .map(|i| {
                            let h = (i + 1)
                                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                                .wrapping_add(seed);
                            SimTime::from_ps(h % window_ps.max(1))
                        })
                        .collect(),
                }
            }
        };
        let cfg = ServingConfig {
            queue_cap: (cap > 0).then_some(cap),
            admission,
            arrivals,
            seed,
            ..base
        };
        let r = simulate_serving(&cfg, &model);

        // Exhaustive accounting.
        prop_assert_eq!(r.offered, requests as u64);
        prop_assert_eq!(r.completed + r.dropped + r.degraded, r.offered);
        // No fault injection here, so the stranded and retry causes are
        // identically zero and the admission causes sum to the total.
        prop_assert_eq!(r.shed.stranded + r.shed.retry, 0);
        prop_assert_eq!(
            r.shed.newest + r.shed.oldest + r.shed.deadline + r.shed.stranded + r.shed.retry,
            r.dropped
        );
        prop_assert_eq!(r.shed.degraded, r.degraded);
        prop_assert!((r.drop_rate - r.dropped as f64 / r.offered as f64).abs() < 1e-12);
        prop_assert_eq!(r.latency.count as u64, r.completed + r.degraded);

        // Only the policy's own shed causes fire.
        match admission {
            AdmissionPolicy::DropNewest => {
                prop_assert_eq!(r.shed.oldest + r.shed.deadline + r.shed.degraded, 0);
            }
            AdmissionPolicy::DropOldest => {
                prop_assert_eq!(r.shed.newest + r.shed.deadline + r.shed.degraded, 0);
            }
            AdmissionPolicy::Deadline { .. } => {
                prop_assert_eq!(r.shed.oldest + r.shed.degraded, 0);
            }
            AdmissionPolicy::Degrade { .. } => {
                prop_assert_eq!(r.dropped, 0, "Degrade never drops");
            }
        }

        // The queue bound holds everywhere except the Degrade overflow
        // tier, which deliberately admits past the cap.
        if let Some(c) = cfg.queue_cap {
            if !matches!(admission, AdmissionPolicy::Degrade { .. }) {
                prop_assert!(
                    r.queue_depth.max_depth() <= c * instances,
                    "depth {} over bound {}",
                    r.queue_depth.max_depth(),
                    c * instances
                );
            }
        }

        // Without a cap, only Deadline can shed — and nothing degrades.
        if cfg.queue_cap.is_none() {
            prop_assert_eq!(r.shed.newest + r.shed.oldest + r.shed.degraded, 0);
        }
    }

    /// An infinite (or absent) queue bound under `DropNewest` is the
    /// pre-overload scheduler: the regression pin that the admission
    /// machinery costs nothing when it is not engaged. `Some(huge)` and
    /// `None` must be bit-identical, shed-free reports.
    #[test]
    fn prop_drop_newest_with_infinite_cap_is_the_unbounded_scheduler(
        instances in 1usize..=3,
        max_batch in 1usize..=4,
        requests in 1usize..=24,
        open in 0u8..=1,
        seed in 0u64..=500,
    ) {
        let model = shufflenet_v2();
        let base = ServingConfig::saturation(
            AcceleratorConfig::sconna(),
            instances,
            max_batch,
            requests,
        );
        let arrivals = if open == 1 {
            ArrivalProcess::Poisson {
                rate_fps: base.estimated_capacity_fps(&model) * (0.5 + (seed % 5) as f64),
            }
        } else {
            base.arrivals.clone()
        };
        let unbounded = simulate_serving(
            &ServingConfig { arrivals: arrivals.clone(), seed, ..base.clone() },
            &model,
        );
        let infinite = simulate_serving(
            &ServingConfig { queue_cap: Some(usize::MAX / 2), arrivals, seed, ..base },
            &model,
        );
        prop_assert_eq!(format!("{unbounded:?}"), format!("{infinite:?}"));
        prop_assert_eq!(unbounded.dropped + unbounded.degraded, 0);
        prop_assert_eq!(unbounded.completed, requests as u64);
    }

    /// Terminal-state accounting holds *per tenant* under every
    /// admission policy, scheduler and mixed arrival processes: each
    /// tenant's served + dropped + degraded == its offered == its
    /// request budget, its shed breakdown sums to its drop total, and
    /// every column sums over tenants to the fleet figure.
    #[test]
    fn prop_multi_tenant_shed_accounting_is_exhaustive_per_tenant(
        policy_idx in 0usize..=3,
        sched_idx in 0usize..=1,
        split in 1usize..=23,
        cap in 0usize..=3, // 0 = unbounded
        arrival_b in 0u8..=1, // tenant b: 0 closed loop, 1 Poisson
        load_x10 in 3u64..=40,
        seed in 0u64..=1000,
    ) {
        let model = shufflenet_v2();
        let requests = 24usize;
        let slo = SimTime::from_ns(50_000 * (1 + seed % 8));
        let admission = [
            AdmissionPolicy::DropNewest,
            AdmissionPolicy::DropOldest,
            AdmissionPolicy::Deadline { slo },
            AdmissionPolicy::Degrade { fallback_bits: 4 },
        ][policy_idx];
        let scheduler = [
            TenantScheduler::WeightedFair,
            TenantScheduler::SharedFifo,
        ][sched_idx];
        let base = ServingConfig::saturation(AcceleratorConfig::sconna(), 2, 2, requests);
        let capacity = base.estimated_capacity_fps(&model);
        let arrivals_b = if arrival_b == 0 {
            ArrivalProcess::ClosedLoop { clients: 1 + (seed % 4) as usize }
        } else {
            ArrivalProcess::Poisson { rate_fps: capacity * load_x10 as f64 / 10.0 }
        };
        let cfg = ServingConfig {
            queue_cap: (cap > 0).then_some(cap),
            admission,
            seed,
            ..base
        }
        .with_tenants(vec![
            TenantSpec::new("a", 0, ArrivalProcess::ClosedLoop { clients: 2 }, split)
                .with_weight(4.0),
            TenantSpec::new("b", 0, arrivals_b, requests - split),
        ])
        .with_tenant_scheduler(scheduler);
        let r = Fleet::new_multi(&cfg, &[&model]).into_report();

        prop_assert_eq!(r.offered, requests as u64);
        prop_assert_eq!(r.tenants.len(), 2);
        let budgets = [split as u64, (requests - split) as u64];
        for (t, budget) in r.tenants.iter().zip(budgets) {
            prop_assert_eq!(t.offered, budget, "tenant {} budget", t.name);
            prop_assert_eq!(
                t.completed + t.dropped + t.degraded, t.offered,
                "tenant {} accounting", t.name
            );
            prop_assert_eq!(
                t.shed.newest + t.shed.oldest + t.shed.deadline + t.shed.stranded + t.shed.retry,
                t.dropped,
                "tenant {} shed breakdown", t.name
            );
            prop_assert_eq!(t.shed.degraded, t.degraded);
            prop_assert_eq!(t.latency.count as u64, t.completed + t.degraded);
        }
        let sum = |f: fn(&sconna::accel::serve::TenantUsage) -> u64| {
            r.tenants.iter().map(f).sum::<u64>()
        };
        prop_assert_eq!(sum(|t| t.offered), r.offered);
        prop_assert_eq!(sum(|t| t.completed), r.completed);
        prop_assert_eq!(sum(|t| t.dropped), r.dropped);
        prop_assert_eq!(sum(|t| t.degraded), r.degraded);
        prop_assert_eq!(sum(|t| t.shed.newest), r.shed.newest);
        prop_assert_eq!(sum(|t| t.shed.oldest), r.shed.oldest);
        prop_assert_eq!(sum(|t| t.shed.deadline), r.shed.deadline);
        prop_assert_eq!(sum(|t| t.shed.stranded), r.shed.stranded);
        prop_assert_eq!(sum(|t| t.shed.retry), r.shed.retry);
        prop_assert_eq!(sum(|t| t.shed.degraded), r.shed.degraded);
        prop_assert_eq!(sum(|t| t.batches), r.batches);
    }
}

/// The open-loop half of the capacity pin: the overload sweep's goodput
/// tracks the offered load below the closed-form capacity estimate and
/// plateaus at it above — the knee `ServingConfig::estimated_capacity_fps`
/// names and `ServingConfig::saturation` measures.
#[test]
fn overload_sweep_knee_sits_at_the_capacity_estimate() {
    let (net, samples) = tiny_workload(3);
    let engine = SconnaEngine::paper_default(3);
    let model = shufflenet_v2();
    // Deep enough that queue wait (not the flush window) dominates the
    // tail past the knee — the regime where p99 visibly collapses.
    let base = ServingConfig {
        queue_cap: Some(16),
        seed: 11,
        ..ServingConfig::saturation(AcceleratorConfig::sconna(), 2, 4, 192)
    };
    let capacity = base.estimated_capacity_fps(&model);
    let workload = FunctionalWorkload {
        net: &net,
        fallback: None,
        fallback_engine: None,
        samples: &samples,
        engine: &engine,
        workers: 1,
    };
    let rates = [
        0.4 * capacity,
        0.8 * capacity,
        2.0 * capacity,
        4.0 * capacity,
    ];
    let points = overload_sweep(&base, &model, &workload, &rates, 2);

    // Below the knee: goodput ≈ offered, nothing sheds.
    for p in &points[..2] {
        assert_eq!(p.report.serving.dropped, 0, "shedding below the knee");
        let ratio = p.report.serving.goodput_fps / p.offered_fps;
        assert!(
            (0.85..=1.15).contains(&ratio),
            "goodput {:.0} vs offered {:.0} below the knee",
            p.report.serving.goodput_fps,
            p.offered_fps
        );
    }
    // Past the knee: goodput plateaus at capacity while drops grow.
    for p in &points[2..] {
        assert!(
            p.report.serving.dropped > 0,
            "no shedding at {:.0} fps",
            p.offered_fps
        );
        let ratio = p.report.serving.goodput_fps / capacity;
        assert!(
            (0.8..=1.1).contains(&ratio),
            "goodput {:.0} should plateau at capacity {:.0}",
            p.report.serving.goodput_fps,
            capacity
        );
    }
    assert!(
        points[3].report.serving.drop_rate > points[2].report.serving.drop_rate,
        "drop rate must grow with offered load past the knee"
    );
    // Tail collapse: past the knee the queue pins at its bound, so every
    // response pays the full-queue wait — far above the below-knee tail.
    let p99_over = points[3].report.serving.latency.p99;
    let p99_under = points[0].report.serving.latency.p99;
    assert!(
        p99_over.as_ps() >= 2 * p99_under.as_ps(),
        "overload must collapse the tail: {p99_over} vs {p99_under} below the knee"
    );
}
