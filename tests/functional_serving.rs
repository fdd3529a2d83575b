//! Functional-serving guarantees: a fleet that *executes* its requests
//! must compute exactly what the offline per-request forward computes —
//! predictions keyed per request id, invariant under fleet size, batch
//! packing, arrival ordering (closed-loop vs Poisson, any seed) and
//! report worker count — and the whole-network prepared/stacked forward
//! must be bit-equal to the per-request path.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sconna::accel::serve::{
    simulate_serving_functional, AdmissionPolicy, ArrivalProcess, FailureProcess, Fleet,
    FunctionalServingReport, FunctionalWorkload, RequestOutcome, RetryPolicy, ServingConfig,
    Supervisor, TenantSpec,
};
use sconna::accel::{AcceleratorConfig, SconnaEngine};
use sconna::photonics::pca::AdcModel;
use sconna::sc::Precision;
use sconna::sim::time::SimTime;
use sconna::tensor::arena::BatchArena;
use sconna::tensor::dataset::Sample;
use sconna::tensor::engine::{ExactEngine, VdpEngine};
use sconna::tensor::layers::{MaxPool2d, QConv2d, QFc};
use sconna::tensor::models::{googlenet, shufflenet_v2};
use sconna::tensor::network::{QLayer, QuantizedNetwork};
use sconna::tensor::quant::{ActivationQuant, Requant, WeightQuant};
use sconna::tensor::Tensor;

/// A hand-built quantized CNN (weights from a hash, no training) plus a
/// labelled request population.
fn tiny_workload(seed: u64, classes: usize) -> (QuantizedNetwork, Vec<Sample>) {
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
                weights: Tensor::from_fn(&[classes, 4], |i| {
                    ((i as u64 * 67 + seed) % 255) as i32 - 127
                }),
                bias: vec![0.0; classes],
                dequant: aq.scale * wq.scale,
            }),
        ],
    };
    let samples: Vec<Sample> = (0..5)
        .map(|s| Sample {
            image: Tensor::from_fn(&[1, 8, 8], |i| {
                ((s as u64 * 37 + i as u64 * 11 + seed) % 256) as f32 / 255.0
            }),
            label: s % classes,
        })
        .collect();
    (net, samples)
}

/// Offline reference: request `r`'s prediction from the per-pair network
/// oracle under image key `r`.
fn offline_predictions(
    net: &QuantizedNetwork,
    samples: &[Sample],
    engine: &dyn VdpEngine,
    requests: usize,
) -> Vec<usize> {
    (0..requests)
        .map(|r| {
            let s = &samples[r % samples.len()];
            sconna::tensor::layers::argmax(&net.forward_keyed(&s.image, engine, r as u64))
        })
        .collect()
}

proptest! {
    /// Fleet accuracy-under-load is a pure function of the workload:
    /// identical across 1/2/8 instance workers, fleet shapes, and
    /// arrival orderings (closed-loop saturation and Poisson at any
    /// rate/seed) — and every prediction equals the offline per-request
    /// forward.
    #[test]
    fn prop_accuracy_under_load_is_schedule_invariant(
        seed in 0u64..=200,
        requests in 1usize..=24,
        instances in 1usize..=4,
        max_batch in 1usize..=8,
        rate_idx in 0usize..=2,
        arrival_seed in 0u64..=50,
        noisy in 0u8..=1,
    ) {
        let (net, samples) = tiny_workload(seed, 3);
        let exact = ExactEngine;
        let sconna = SconnaEngine::paper_default(seed);
        let engine: &dyn VdpEngine = if noisy == 1 { &sconna } else { &exact };
        let offline = offline_predictions(&net, &samples, engine, requests);
        let expected_correct = offline
            .iter()
            .enumerate()
            .filter(|&(r, &p)| p == samples[r % samples.len()].label)
            .count() as u64;

        let model = shufflenet_v2();
        for workers in [1usize, 2, 8] {
            let workload = FunctionalWorkload {
                net: &net,
                fallback: None,
                fallback_engine: None,
                samples: &samples,
                engine,
                workers,
            };
            // Closed-loop saturation ordering.
            let closed = simulate_serving_functional(
                &ServingConfig::saturation(
                    AcceleratorConfig::sconna(),
                    instances,
                    max_batch,
                    requests,
                ),
                &model,
                &workload,
            );
            prop_assert_eq!(&closed.predictions, &offline, "closed loop, {} workers", workers);
            prop_assert_eq!(closed.correct, expected_correct);
            // Open-loop Poisson ordering at a workload-dependent rate.
            let rate = [200.0f64, 1000.0, 5000.0][rate_idx];
            let poisson = simulate_serving_functional(
                &ServingConfig {
                    arrivals: ArrivalProcess::Poisson { rate_fps: rate },
                    seed: arrival_seed,
                    ..ServingConfig::saturation(
                        AcceleratorConfig::sconna(),
                        instances,
                        max_batch,
                        requests,
                    )
                },
                &model,
                &workload,
            );
            prop_assert_eq!(&poisson.predictions, &offline, "poisson, {} workers", workers);
            prop_assert_eq!(
                poisson.accuracy_under_load.to_bits(),
                closed.accuracy_under_load.to_bits()
            );
        }
    }

    /// Report-time chunk parallelism: a degrading fleet's whole report —
    /// primary and fallback tiers on separate engines — is identical at
    /// 1, 2 and 3 chunk workers (3, so chunk counts need not divide
    /// evenly among workers), and every response equals its offline
    /// per-request forward.
    #[test]
    fn prop_functional_report_is_chunk_worker_invariant(
        seed in 0u64..=200,
        requests in 1usize..=40,
        max_batch in 1usize..=8,
        load_tenths in 15u32..=30,
    ) {
        let (net, samples) = tiny_workload(seed, 3);
        let fallback = net.with_weight_bits(4);
        let engine = SconnaEngine::paper_default(seed);
        let fb_engine =
            SconnaEngine::new(Precision::new(4), 176, Some(AdcModel::sconna_default()), seed ^ 1);
        let model = shufflenet_v2();
        let base = ServingConfig::saturation(AcceleratorConfig::sconna(), 2, max_batch, requests);
        let rate = f64::from(load_tenths) / 10.0 * base.estimated_capacity_fps(&model);
        let cfg = base
            .with_queue_cap(1)
            .with_admission(AdmissionPolicy::Degrade { fallback_bits: 4 })
            .with_arrivals(ArrivalProcess::trace(poisson_times(requests, rate, seed)));
        let workload = |workers| FunctionalWorkload {
            net: &net,
            fallback: Some(&fallback),
            fallback_engine: Some(&fb_engine),
            samples: &samples,
            engine: &engine,
            workers,
        };
        let one = simulate_serving_functional(&cfg, &model, &workload(1));
        assert_matches_offline(&one, &[&workload(1)], &vec![0; requests]);
        let debug = format!("{one:?}");
        for workers in [2usize, 3] {
            let run = simulate_serving_functional(&cfg, &model, &workload(workers));
            prop_assert_eq!(format!("{run:?}"), debug.clone(), "{} workers", workers);
        }
    }

    /// The prepared whole-network stacked forward is bit-equal to the
    /// per-pair network oracle for any batch composition — the
    /// network-level half of the serving guarantee.
    #[test]
    fn prop_prepared_network_batch_matches_per_request(
        seed in 0u64..=300,
        n_images in 1usize..=5,
        noisy in 0u8..=1,
    ) {
        let (net, samples) = tiny_workload(seed, 4);
        let exact = ExactEngine;
        let sconna = SconnaEngine::paper_default(seed ^ 0xABCD);
        let engine: &dyn VdpEngine = if noisy == 1 { &sconna } else { &exact };
        let images: Vec<&Tensor<f32>> = (0..n_images).map(|b| &samples[b % samples.len()].image).collect();
        let keys: Vec<u64> = (0..n_images as u64).map(|b| b * 997 + seed).collect();
        let singles: Vec<Vec<f32>> = images
            .iter()
            .zip(&keys)
            .map(|(im, &k)| net.forward_keyed(im, engine, k))
            .collect();
        let prepared = net.prepare(engine);
        let stacked = prepared.forward_batch(&images, &keys, &BatchArena::new());
        prop_assert_eq!(&stacked, &singles);
    }
}

/// Draws `n` Poisson arrival times at `rate_fps` — the same exponential
/// inter-arrival construction the scheduler uses, materialized so the
/// trace can be replayed in any insertion order.
fn poisson_times(n: usize, rate_fps: f64, seed: u64) -> Vec<SimTime> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / rate_fps;
            SimTime::from_secs_f64(t)
        })
        .collect()
}

/// Determinism of the overload path: for every admission policy the full
/// [`sconna::accel::serve::FunctionalServingReport`] — predictions, shed
/// sets (`outcomes`), queue-depth series, every counter — is bit-identical
/// across 1/2/8 instance workers and across shuffled insertion orders of
/// the same Poisson arrival trace (ids bind to arrival *times*, not to
/// schedule order).
#[test]
fn overload_reports_are_worker_and_arrival_order_invariant() {
    let (net, samples) = tiny_workload(13, 3);
    let fallback = net.with_weight_bits(4);
    let engine = SconnaEngine::paper_default(13);
    let model = shufflenet_v2();
    let requests = 40;

    let base = ServingConfig::saturation(AcceleratorConfig::sconna(), 2, 4, requests);
    let capacity = base.estimated_capacity_fps(&model);
    let times = poisson_times(requests, 1.8 * capacity, 99);
    let mut shuffled = times.clone();
    shuffled.reverse();
    shuffled.rotate_left(11);

    let policies = [
        AdmissionPolicy::DropNewest,
        AdmissionPolicy::DropOldest,
        AdmissionPolicy::Deadline {
            slo: SimTime::from_ns(120_000),
        },
        AdmissionPolicy::Degrade { fallback_bits: 4 },
    ];
    for admission in policies {
        let cfg = |trace: Vec<SimTime>| ServingConfig {
            queue_cap: Some(2),
            admission,
            arrivals: ArrivalProcess::Trace { times: trace },
            ..base.clone()
        };
        let workload = |workers: usize| FunctionalWorkload {
            net: &net,
            fallback: Some(&fallback),
            fallback_engine: None,
            samples: &samples,
            engine: &engine,
            workers,
        };
        let baseline = simulate_serving_functional(&cfg(times.clone()), &model, &workload(1));
        // The overload config actually sheds — otherwise this pins nothing.
        assert!(
            baseline.serving.dropped + baseline.serving.degraded > 0,
            "{admission:?} at 1.8x load must shed"
        );
        let debug = format!("{baseline:?}");
        for workers in [2usize, 8] {
            let run = simulate_serving_functional(&cfg(times.clone()), &model, &workload(workers));
            assert_eq!(
                format!("{run:?}"),
                debug,
                "{admission:?}: {workers} workers diverged"
            );
        }
        let reordered = simulate_serving_functional(&cfg(shuffled.clone()), &model, &workload(2));
        assert_eq!(
            format!("{reordered:?}"),
            debug,
            "{admission:?}: shuffled arrival insertion order diverged"
        );
        // And the run is reproducible wholesale.
        let again = simulate_serving_functional(&cfg(times.clone()), &model, &workload(1));
        assert_eq!(format!("{again:?}"), debug, "{admission:?}: rerun diverged");
    }
}

/// Asserts every response of `r` equals the offline per-pair forward of
/// its tenant's network at its tier — request `id` belongs to tenant
/// `tenant_of[id]`, whose workload is `workloads[tenant_of[id]]` — and
/// every drop reads `usize::MAX`.
fn assert_matches_offline(
    r: &FunctionalServingReport,
    workloads: &[&FunctionalWorkload<'_>],
    tenant_of: &[usize],
) {
    for (id, (&pred, &outcome)) in r.predictions.iter().zip(&r.outcomes).enumerate() {
        let w = workloads[tenant_of[id]];
        let (net, engine) = match outcome {
            RequestOutcome::Served => (w.net, w.engine),
            RequestOutcome::Degraded => (
                w.fallback.expect("degraded responses need a fallback"),
                w.fallback_engine.unwrap_or(w.engine),
            ),
            _ => {
                assert_eq!(pred, usize::MAX, "dropped request {id} ({outcome:?})");
                continue;
            }
        };
        let s = &w.samples[id % w.samples.len()];
        let offline =
            sconna::tensor::layers::argmax(&net.forward_keyed(&s.image, engine, id as u64));
        assert_eq!(pred, offline, "request {id} ({outcome:?})");
    }
}

/// Degraded predictions are pure functions of `(fallback net, engine,
/// sample, request id)`: whichever requests the schedule degrades, their
/// responses equal the offline fallback forward — and the full-fidelity
/// responses equal the offline primary forward. The second case holds
/// that under chaos: two tenants with distinct networks, engines and
/// fallback engines, stochastic kills under a supervisor and a retry
/// budget.
#[test]
fn shed_and_degraded_responses_match_their_offline_references() {
    let (net, samples) = tiny_workload(29, 3);
    let fallback = net.with_weight_bits(4);
    let engine = SconnaEngine::paper_default(29);
    let model = shufflenet_v2();
    let requests = 32;
    let base = ServingConfig::saturation(AcceleratorConfig::sconna(), 1, 2, requests);
    let capacity = base.estimated_capacity_fps(&model);
    let cfg = ServingConfig {
        queue_cap: Some(1),
        admission: AdmissionPolicy::Degrade { fallback_bits: 4 },
        arrivals: ArrivalProcess::Poisson {
            rate_fps: 2.5 * capacity,
        },
        seed: 4,
        ..base
    };
    let workload = FunctionalWorkload {
        net: &net,
        fallback: Some(&fallback),
        fallback_engine: None,
        samples: &samples,
        engine: &engine,
        workers: 2,
    };
    let r = simulate_serving_functional(&cfg, &model, &workload);
    assert!(
        r.serving.degraded > 0,
        "2.5x load against a 1-deep queue must degrade"
    );
    assert_eq!(r.serving.dropped, 0);
    assert_matches_offline(&r, &[&workload], &[0; 32]);

    // Chaos: a second tenant on its own network, engine and fallback
    // engine; both fallbacks run on B4 engines.
    let (net_b, samples_b) = tiny_workload(31, 3);
    let fallback_b = net_b.with_weight_bits(4);
    let engine_b = SconnaEngine::paper_default(31);
    let fb_engine = SconnaEngine::new(Precision::new(4), 176, None, 29);
    let fb_engine_b = SconnaEngine::new(Precision::new(4), 176, None, 31);
    let wa = FunctionalWorkload {
        fallback_engine: Some(&fb_engine),
        ..workload
    };
    let wb = FunctionalWorkload {
        net: &net_b,
        fallback: Some(&fallback_b),
        fallback_engine: Some(&fb_engine_b),
        samples: &samples_b,
        engine: &engine_b,
        workers: 2,
    };
    let goog = googlenet();
    let requests = 160;
    let base = ServingConfig::saturation(AcceleratorConfig::sconna(), 4, 2, requests);
    // A bursty merged trace at distinct instants: blocks of 16 arrivals
    // alternate between 3.2x and ~0.46x GoogleNet capacity. Ids follow
    // global arrival order, so request `r` belongs to the tenant of the
    // `r`-th arrival.
    let mean_gap = 1.0 / (0.8 * base.estimated_capacity_fps(&goog));
    let mut rng = StdRng::seed_from_u64(7);
    let mut t = SimTime::ZERO;
    let mut times = [Vec::new(), Vec::new()];
    let mut tenant_of = Vec::with_capacity(requests);
    for r in 0..requests {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let scale = if (r / 16) % 2 == 0 { 0.25 } else { 1.75 };
        t = t + SimTime::from_secs_f64(-u.ln() * mean_gap * scale) + SimTime::from_ps(1);
        let tenant = usize::from(rng.gen_range(0..3) == 0);
        times[tenant].push(t);
        tenant_of.push(tenant);
    }
    let [ta, tb] = times;
    let cfg = base
        .with_queue_cap(1)
        .with_admission(AdmissionPolicy::Degrade { fallback_bits: 4 })
        .with_tenants(vec![
            TenantSpec::new("a", 0, ArrivalProcess::trace(ta.clone()), ta.len()),
            TenantSpec::new("b", 1, ArrivalProcess::trace(tb.clone()), tb.len()),
        ])
        .with_supervisor(Supervisor::new(1))
        .with_retry(RetryPolicy::default().with_retry_budget(16));
    let plan = FailureProcess::new(1, SimTime::from_ps(t.as_ps() / 10)).materialize(4, t);
    let r = Fleet::try_new(&cfg, &[&model, &goog], &[&wa, &wb])
        .expect("valid two-tenant functional fleet")
        .with_faults(&plan)
        .into_functional_report();
    let a = &r.serving.availability;
    assert!(a.incidents > 0, "no kills");
    assert!(a.retries > 0, "no retries");
    assert!(r.serving.degraded > 0, "no degraded responses");
    assert!(r.serving.dropped > 0, "no drops");
    assert_matches_offline(&r, &[&wa, &wb], &tenant_of);
}
