//! Multi-tenant isolation sweep: weighted-fair scheduling vs the naive
//! shared-FIFO baseline, plus the paper's reprogramming asymmetry
//! measured as a co-located-model swap cost.
//!
//! Two claims are measured and checked in as `BENCH_tenants.json`:
//!
//! * **Weighted-fair isolation.** A victim tenant running comfortably
//!   inside its capacity share keeps its p99 latency within 1.2x of its
//!   solo run even when an aggressor tenant offers >= 4x *its own*
//!   share, because start-time weighted-fair queueing caps the
//!   aggressor's service at its weight. Under the shared-FIFO baseline
//!   the same aggressor inflates the victim's p99 by >= 5x (in practice
//!   orders of magnitude): the victim's requests queue behind the
//!   aggressor's unbounded backlog in global arrival order.
//! * **Swap-cost asymmetry.** Two tenants with *different* models
//!   co-resident on a small pool force cross-model dispatches. SCONNA
//!   swaps by repointing pre-filled OSM LUT banks (one LUT access per
//!   layer); the analog MAM baseline replays cell programming — the
//!   per-tenant `swap_time` column separates by orders of magnitude
//!   while everything else about the two runs is held equal.
//!
//! Run with: `cargo run --release -p sconna-bench --bin tenant_sweep`
//! (`--smoke` runs a reduced grid for CI; smoke mode never writes
//! `BENCH_tenants.json`).

use sconna_accel::organization::AcceleratorConfig;
use sconna_accel::serve::{sweep, ArrivalProcess, Fleet, ServingConfig, ServingReport};
use sconna_accel::serve::{TenantScheduler, TenantSpec};
use sconna_bench::{banner, obj, same_at_workers, write_artifact, Json};
use sconna_sim::time::SimTime;
use sconna_tensor::models::{googlenet, shufflenet_v2};

const SEED: u64 = 23;

fn us(t: SimTime) -> f64 {
    t.as_secs_f64() * 1e6
}

/// The aggressor's arithmetic arrival trace: the first `instances`
/// arrivals are staggered evenly across one frame time, then the stream
/// runs at `rate_fps`. The stagger spreads instance completion phases
/// uniformly around the frame cycle — without it every instance goes
/// busy within the initial arrival burst, completions cluster, and the
/// victim's measured wait is an artifact of phase-locking instead of
/// the scheduling policy under test.
fn phased_trace(requests: usize, rate_fps: f64, instances: usize, frame_s: f64) -> Vec<SimTime> {
    (0..requests)
        .map(|i| {
            let t = if i < instances {
                i as f64 * frame_s / instances as f64
            } else {
                frame_s + (i - instances) as f64 / rate_fps
            };
            SimTime::from_secs_f64(t)
        })
        .collect()
}

/// One contended point of the isolation grid: the victim at a quarter
/// of its share, the aggressor at `multiple` times its own share, under
/// `scheduler`. The victim is tenant 0 so its Poisson arrival stream is
/// seeded exactly like the solo run's — identical arrival times, so the
/// p99 ratio isolates pure scheduling interference.
fn contended_config(
    base: &ServingConfig,
    scheduler: TenantScheduler,
    victim_rate: f64,
    victim_requests: usize,
    aggressor_trace: Vec<SimTime>,
) -> ServingConfig {
    let aggressor_requests = aggressor_trace.len();
    base.clone()
        .with_tenant_scheduler(scheduler)
        .with_tenants(vec![
            TenantSpec::new(
                "victim",
                0,
                ArrivalProcess::poisson(victim_rate),
                victim_requests,
            ),
            TenantSpec::new(
                "aggressor",
                0,
                ArrivalProcess::trace(aggressor_trace),
                aggressor_requests,
            ),
        ])
}

fn victim_row(r: &ServingReport) -> &sconna_accel::serve::TenantUsage {
    r.tenants
        .iter()
        .find(|t| t.name == "victim")
        .expect("contended report carries the victim row")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    print!(
        "{}",
        banner(
            "Multi-tenant serving — weighted-fair isolation & swap cost",
            "victim p99 vs solo under aggressor overload; SCONNA vs MAM swap"
        )
    );

    let model = shufflenet_v2();
    let accel = AcceleratorConfig::sconna();

    // ---- Isolation grid ----
    //
    // 32 instances, request-granularity dispatch (max_batch 1), equal
    // weights: each tenant's fair share is half the fleet capacity. The
    // victim offers a quarter of *its* share; the aggressor sweeps
    // 1x..4x its own share, crossing from a stable fleet to deep
    // overload (2.125x capacity). Queues are unbounded so every latency
    // lands in the tail instead of a drop column.
    let instances = 32usize;
    let (victim_requests, multiples): (usize, &[f64]) = if smoke {
        (192, &[4.0])
    } else {
        (512, &[1.0, 2.0, 4.0])
    };
    let base = ServingConfig::saturation(accel, instances, 1, victim_requests)
        .with_unbounded_queue()
        .with_seed(SEED);
    let capacity = base.estimated_capacity_fps(&model);
    let share = capacity / 2.0;
    let victim_rate = 0.25 * share;
    let frame_s = instances as f64 / capacity;
    let horizon = victim_requests as f64 / victim_rate;

    let solo_cfg = base
        .clone()
        .with_arrivals(ArrivalProcess::poisson(victim_rate))
        .with_requests(victim_requests);
    let schedulers = [TenantScheduler::WeightedFair, TenantScheduler::SharedFifo];
    let mut grid = vec![solo_cfg];
    for &s in &schedulers {
        for &m in multiples {
            let aggressor_rate = m * share;
            let aggressor_requests = (aggressor_rate * horizon).round() as usize;
            grid.push(contended_config(
                &base,
                s,
                victim_rate,
                victim_requests,
                phased_trace(aggressor_requests, aggressor_rate, instances, frame_s),
            ));
        }
    }

    let reports = sweep(grid.clone(), &model, 1);
    let solo = &reports[0];
    let solo_p99 = solo.latency.p99;
    assert!(
        solo_p99 > SimTime::ZERO,
        "solo run must produce a nonzero p99"
    );
    println!(
        "isolation: {instances} instances | fleet capacity {capacity:.0} fps | victim at {victim_rate:.0} fps (0.25x its share)"
    );
    println!("  solo victim p99: {:.2} us", us(solo_p99));

    let mut sched_json = Vec::new();
    let ratio_at = |sched_i: usize, mult_i: usize| -> f64 {
        let r = &reports[1 + sched_i * multiples.len() + mult_i];
        us(victim_row(r).latency.p99) / us(solo_p99)
    };
    for (si, &s) in schedulers.iter().enumerate() {
        println!("  scheduler: {s:?}");
        let mut points = Vec::new();
        for (mi, &m) in multiples.iter().enumerate() {
            let r = &reports[1 + si * multiples.len() + mi];
            let v = victim_row(r);
            let a = r
                .tenants
                .iter()
                .find(|t| t.name == "aggressor")
                .expect("aggressor row");
            assert_eq!(
                v.offered, victim_requests as u64,
                "victim must offer its full budget"
            );
            assert_eq!(v.dropped, 0, "unbounded queues drop nothing");
            let ratio = us(v.latency.p99) / us(solo_p99);
            println!(
                "    aggressor {m:>3.0}x share: victim p99 {:>12.2} us ({ratio:>8.2}x solo) | aggressor p99 {:>12.2} us",
                us(v.latency.p99),
                us(a.latency.p99),
            );
            points.push(obj! {
                "aggressor_share_multiple" => m,
                "victim_p99_us" => us(v.latency.p99),
                "victim_p99_vs_solo" => ratio,
                "victim_completed" => v.completed,
                "aggressor_offered" => a.offered,
                "aggressor_p99_us" => us(a.latency.p99),
                "fleet_makespan_us" => us(r.makespan),
            });
        }
        sched_json.push(obj! { "scheduler" => format!("{s:?}"), "points" => points });
    }
    let wfq_ratio = ratio_at(0, multiples.len() - 1);
    let fifo_ratio = ratio_at(1, multiples.len() - 1);

    // ---- Worker and permutation invariance ----
    //
    // The whole isolation grid, swept at 1/2/8 workers, must reproduce
    // bit-identically: tenants add per-tenant queues and virtual
    // clocks, not nondeterminism.
    let worker_invariant = same_at_workers(&reports, &[2, 8], |w| sweep(grid.clone(), &model, w));
    assert!(
        worker_invariant,
        "multi-tenant sweep diverged across worker counts"
    );
    println!("  1/2/8-worker sweeps: bit-identical\n");

    // ---- Swap-cost asymmetry ----
    //
    // Two tenants with different models sharing a *single* instance,
    // both closed-loop, weighted-fair — so the scheduler's batch
    // alternation forces a model swap on nearly every dispatch. Every
    // cross-model dispatch charges `perf::model_swap_time`; the run is
    // otherwise identical between accelerators, so the per-tenant swap
    // columns carry the paper's reprogramming asymmetry directly.
    let swap_requests = if smoke { 96 } else { 320 };
    let shuffle = shufflenet_v2();
    let google = googlenet();
    let swap_accels = [
        ("SCONNA", AcceleratorConfig::sconna()),
        ("MAM", AcceleratorConfig::mam()),
    ];
    println!(
        "swap cost: 1 instance, co-located {} + {}",
        shuffle.name, google.name
    );
    let mut swap_json = Vec::new();
    let mut swap_totals = Vec::new();
    for (name, a) in &swap_accels {
        let cfg = ServingConfig::saturation(*a, 1, 4, swap_requests)
            .with_seed(SEED)
            .with_tenants(vec![
                TenantSpec::new(
                    "shuffle",
                    0,
                    ArrivalProcess::closed_loop(4),
                    swap_requests / 2,
                ),
                TenantSpec::new(
                    "google",
                    1,
                    ArrivalProcess::closed_loop(4),
                    swap_requests / 2,
                ),
            ]);
        let mut fleet = Fleet::new_multi(&cfg, &[&shuffle, &google]);
        fleet.run_to_completion();
        let report = fleet.into_report();
        assert_eq!(report.completed, report.offered, "closed-loop runs drain");
        let swaps: u64 = report.tenants.iter().map(|t| t.model_swaps).sum();
        let swap_time: f64 = report.tenants.iter().map(|t| us(t.swap_time)).sum();
        assert!(swaps > 0, "{name}: co-located models must force swaps");
        let rows: Vec<Json> = report
            .tenants
            .iter()
            .map(|t| {
                println!(
                    "  {name:>6} | {:>8}: {:>4} swaps, {:>12.4} us swapping | p99 {:>10.2} us | {:>8.6} J",
                    t.name,
                    t.model_swaps,
                    us(t.swap_time),
                    us(t.latency.p99),
                    t.energy_j,
                );
                obj! {
                    "tenant" => t.name.as_str(),
                    "model" => t.model.as_str(),
                    "model_swaps" => t.model_swaps,
                    "swap_time_us" => us(t.swap_time),
                    "p99_us" => us(t.latency.p99),
                    "energy_j" => Json::Raw(format!("{:.6}", t.energy_j)),
                }
            })
            .collect();
        swap_json.push(obj! {
            "accelerator" => *name,
            "total_model_swaps" => swaps,
            "total_swap_time_us" => swap_time,
            "makespan_us" => us(report.makespan),
            "tenants" => rows,
        });
        swap_totals.push((name, swaps, swap_time));
    }
    let sconna_swap_us = swap_totals[0].2;
    let mam_swap_us = swap_totals[1].2;
    let swap_asymmetry = mam_swap_us / sconna_swap_us;
    println!("  MAM spends {swap_asymmetry:.0}x SCONNA's time swapping models\n");

    write_artifact(
        "tenants",
        smoke,
        obj! {
            "isolation" => obj! {
                "model" => model.name,
                "instances" => instances,
                "max_batch" => base.max_batch,
                "fleet_capacity_fps" => capacity,
                "victim_rate_fps" => victim_rate,
                "victim_weight_share" => Json::Raw("0.5".into()),
                "victim_load_of_share" => Json::Raw("0.25".into()),
                "victim_requests" => victim_requests,
                "solo_p99_us" => us(solo_p99),
                "schedulers" => sched_json,
                "wfq_p99_ratio_at_4x" => wfq_ratio,
                "fifo_p99_ratio_at_4x" => fifo_ratio,
            },
            "swap_cost" => obj! {
                "instances" => Json::Int(1),
                "max_batch" => Json::Int(4),
                "requests" => swap_requests,
                "accelerators" => swap_json,
                "swap_time_ratio_mam_over_sconna" => swap_asymmetry,
            },
            "worker_invariant_1_2_8" => worker_invariant,
        },
    );

    // ---- Acceptance gates (both modes) ----
    assert!(
        wfq_ratio <= 1.2,
        "weighted-fair must hold the victim's p99 within 1.2x of solo under a 4x-share aggressor, got {wfq_ratio:.3}x"
    );
    assert!(
        fifo_ratio >= 5.0,
        "the shared-FIFO baseline must blow the victim's p99 up >= 5x, got {fifo_ratio:.3}x"
    );
    assert!(
        swap_asymmetry >= 100.0,
        "MAM's cell-programming swaps must dwarf SCONNA's LUT repointing, got {swap_asymmetry:.1}x"
    );
}
