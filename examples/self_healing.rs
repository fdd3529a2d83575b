//! A serving fleet that heals itself.
//!
//! Demonstrates the self-healing layer on top of the steppable fleet:
//!
//! 1. a seeded `FailureProcess` turns scripted fault plans into
//!    statistical chaos — per-instance exponential kill streams,
//!    counter-keyed so the draws are order/thread-independent;
//! 2. without supervision every instance eventually dies and the queue
//!    strands (`ShedStranded`: accounted drops, never silent losses);
//! 3. a `Supervisor` restarts the dead with exponential backoff +
//!    deterministic jitter while the retry layer re-admits kill-aborted
//!    requests — the same traffic now serves to completion;
//! 4. what a restart costs is the accelerator's to answer: SCONNA's
//!    warm reload replays zero DKV programming, so its measured MTTR is
//!    pure backoff; the analog MAM baseline pays thermal reprogramming
//!    on every recovery.
//!
//! Run with: `cargo run --release --example self_healing`

use sconna::accel::perf::model_warm_reload_time;
use sconna::accel::serve::{simulate_serving, FailureProcess, Fleet, ServingConfig, Supervisor};
use sconna::accel::AcceleratorConfig;
use sconna::sim::time::SimTime;
use sconna::tensor::models::googlenet;

fn main() {
    let model = googlenet();
    println!("== Self-healing serving fleet ({}) ==\n", model.name);

    for accel in [AcceleratorConfig::sconna(), AcceleratorConfig::mam()] {
        let base = ServingConfig::saturation(accel, 2, 2, 96).with_seed(5);

        // Fault-free baseline: the goodput the chaos runs are measured
        // against, and the timescale the failure process is pinned to.
        let fault_free = simulate_serving(&base, &model);
        let t = fault_free.makespan;

        // Kill each instance every quarter-makespan on average; faults
        // keep arriving over 4x the run so a healing fleet stays under
        // fire. The process only kills — recovery is the supervisor's
        // job.
        let process = FailureProcess::new(2023, SimTime::from_ps(t.as_ps() / 4));
        let plan = process.materialize(base.instances, SimTime::from_ps(t.as_ps() * 4));

        let unsupervised = Fleet::new(&base, &model).with_faults(&plan).into_report();

        // Production-shaped supervisor with its windows scaled to this
        // run: ladder reset and crash-loop window at a fiftieth of the
        // makespan (the defaults assume millisecond-scale services).
        let supervisor = Supervisor {
            reset_after: SimTime::from_ps((t.as_ps() / 50).max(1)),
            crash_loop_window: SimTime::from_ps((t.as_ps() / 50).max(1)),
            ..Supervisor::new(31)
        };
        let supervised_cfg = base.clone().with_supervisor(supervisor);
        let supervised = Fleet::new(&supervised_cfg, &model)
            .with_faults(&plan)
            .into_report();

        let served = |r: &sconna::accel::serve::ServingReport| {
            100.0 * (r.completed + r.degraded) as f64 / r.offered as f64
        };
        println!(
            "{} (warm reload {}):",
            accel.name,
            model_warm_reload_time(&accel, &model)
        );
        println!(
            "  fault-free:   {:>5.1}% served, goodput {:.0} fps",
            served(&fault_free),
            fault_free.goodput_fps
        );
        println!(
            "  unsupervised: {:>5.1}% served ({} stranded, {} instances left)",
            served(&unsupervised),
            unsupervised.shed.stranded,
            unsupervised.availability.active_instances
        );
        let a = &supervised.availability;
        println!(
            "  supervised:   {:>5.1}% served at {:.2}x fault-free goodput — {} incidents, {} recoveries, {} retries, mean MTTR {}\n",
            served(&supervised),
            supervised.goodput_fps / fault_free.goodput_fps,
            a.incidents,
            a.recoveries,
            a.retries,
            a.mean_mttr
        );
    }

    println!("The MTTR gap is the paper's no-reprogramming claim as availability:");
    println!("SCONNA restarts are backoff-bound, analog restarts are reprogram-bound.");
}
