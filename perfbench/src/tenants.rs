//! `fleet_tenants`: the scheduler-bound workload. An analytic fleet of
//! 1 024 provisioned SCONNA instances autoscales between 64 and 1 024
//! while three weighted-fair tenants (GoogleNet, MobileNet_V2,
//! ShuffleNet_V2, so instances swap models) offer seeded diurnal-plus-
//! burst arrival traces. Deadline admission sheds from bounded queues,
//! and a seeded failure process kills instances that a supervisor
//! restarts. No engine runs: host time goes to the scheduler, the event
//! wheel, statistics and report projection.

use crate::clock::{now_ns, secs, since};
use crate::rng::{Digest, SplitMix};
use crate::{median, summarize, Args, Outcome, SETUP_REPS};
use sconna_accel::organization::AcceleratorConfig;
use sconna_accel::perf::simulate_inference;
use sconna_accel::serve::{
    AdmissionPolicy, ArrivalProcess, AutoscalePolicy, FailureProcess, FaultPlan, Fleet,
    ServingConfig, ServingReport, Supervisor, TenantSpec,
};
use sconna_sim::time::SimTime;
use sconna_tensor::models::{googlenet, mobilenet_v2, shufflenet_v2, CnnModel};

const PROVISIONED: usize = 1024;
const MIN_ACTIVE: usize = 64;
const MAX_BATCH: usize = 8;
const QUEUE_CAP: usize = 8;
/// Requests per fleet, over all tenants.
const REQUESTS: usize = 1 << 20;
/// Mean demand, as a share of the provisioned pool.
const MEAN_DEMAND: f64 = 0.4;
/// Arrival-rate multiplier inside a burst.
const BURST: f64 = 2.0;
/// Tenants: name, model index, fair-share weight.
const TENANTS: [(&str, usize, f64); 3] = [("vision", 0, 2.0), ("mobile", 1, 1.0), ("edge", 2, 1.0)];

struct Inputs {
    models: [CnnModel; 3],
    cfg: ServingConfig,
    /// Simulated span the traces cover.
    horizon: SimTime,
    seed: u64,
}

/// A tenant's arrival trace: a sinusoidal day starting at `phase` with
/// short [`BURST`]× bursts, as seeded exponential gaps at the instantaneous
/// rate.
fn diurnal_trace(
    rng: &mut SplitMix,
    requests: usize,
    rate: f64,
    duration: f64,
    phase: f64,
) -> Vec<SimTime> {
    let period = duration / 3.0;
    let burst_period = duration / 17.0;
    let mut t = 0.0f64;
    (0..requests)
        .map(|_| {
            let day = 1.0 + 0.7 * (std::f64::consts::TAU * t / period + phase).sin();
            let burst = if (t / burst_period).fract() < 0.1 {
                BURST
            } else {
                1.0
            };
            t += rng.exp(1.0 / (rate * day * burst));
            SimTime::from_secs_f64(t)
        })
        .collect()
}

fn inputs(seed: u64, requests: usize) -> Inputs {
    let models = [googlenet(), mobilenet_v2(), shufflenet_v2()];
    let accel = AcceleratorConfig::sconna();
    let per_instance =
        |m: &CnnModel| ServingConfig::saturation(accel, 1, MAX_BATCH, 1).estimated_capacity_fps(m);
    let wsum: f64 = TENANTS.iter().map(|t| t.2).sum();
    // Tenant t keeps `MEAN_DEMAND · pool · w_t / Σw` instances busy on
    // average.
    let rates: Vec<f64> = TENANTS
        .iter()
        .map(|&(_, m, w)| MEAN_DEMAND * PROVISIONED as f64 * w / wsum * per_instance(&models[m]))
        .collect();
    let total_rate: f64 = rates.iter().sum();
    let duration = requests as f64 / total_rate;
    let mut rng = SplitMix::new(seed);
    let tenants = TENANTS
        .iter()
        .zip(&rates)
        .enumerate()
        .map(|(i, (&(name, model, weight), &rate))| {
            let n = (requests as f64 * rate / total_rate).round() as usize;
            // Tenants peak a third of a day apart.
            let phase = std::f64::consts::TAU * i as f64 / TENANTS.len() as f64;
            let times = diurnal_trace(&mut rng, n, rate, duration, phase);
            TenantSpec::new(name, model, ArrivalProcess::trace(times), n).with_weight(weight)
        })
        .collect();
    // Deadline: two full-batch service times of the slowest model.
    let slowest = models
        .iter()
        .map(per_instance)
        .fold(f64::INFINITY, f64::min);
    let slo = SimTime::from_secs_f64(2.0 * MAX_BATCH as f64 / slowest);
    let policy = AutoscalePolicy::new(MIN_ACTIVE, PROVISIONED)
        .with_initial(2 * MIN_ACTIVE)
        .with_check_interval(SimTime::from_secs_f64(duration / 400.0))
        .with_cooldown(SimTime::from_secs_f64(duration / 150.0));
    let cfg = ServingConfig::saturation(accel, PROVISIONED, MAX_BATCH, requests)
        .with_queue_cap(QUEUE_CAP)
        .with_admission(AdmissionPolicy::Deadline { slo })
        .with_tenants(tenants)
        .with_autoscale(policy)
        .with_supervisor(Supervisor::new(seed ^ 0x5u64))
        .with_seed(seed);
    Inputs {
        models,
        cfg,
        horizon: SimTime::from_secs_f64(duration),
        seed,
    }
}

/// One fleet served to completion.
struct FleetRun {
    setup_s: f64,
    /// Wall time of the step loop.
    step_s: f64,
    /// Summed time inside `Fleet::step` calls, when each was timed.
    timed_step_s: f64,
    report_s: f64,
    events: u64,
    scale_events: usize,
    offered: u64,
    failed: u64,
}

impl FleetRun {
    fn requests_per_s(&self) -> f64 {
        self.offered as f64 / (self.step_s + self.report_s)
    }
}

/// Digest of one fleet's simulated outputs.
fn digest(r: &ServingReport, scale_events: usize) -> Digest {
    let mut d = Digest::default();
    for w in [r.offered, r.completed, r.dropped, r.degraded, r.batches] {
        d.word(w);
    }
    d.word(r.makespan.as_ps());
    d.word(r.latency.p99.as_ps());
    d.word(r.goodput_fps.to_bits());
    d.word(r.availability.incidents);
    d.word(scale_events as u64);
    for t in &r.tenants {
        d.word(t.completed);
        d.word(t.model_swaps);
        d.word(t.latency.p99.as_ps());
    }
    d
}

/// Builds (set-up: fault-plan materialization and fleet bring-up),
/// serves and gates one fleet. With `timed_steps`, every step is also
/// timed on its own.
fn serve_fleet(inp: &Inputs, timed_steps: bool) -> (FleetRun, ServingReport) {
    let t0 = now_ns();
    let plan: FaultPlan =
        FailureProcess::new(inp.seed ^ 0xFA11, SimTime::from_ps(2 * inp.horizon.as_ps()))
            .materialize(PROVISIONED, inp.horizon);
    let models: Vec<&CnnModel> = inp.models.iter().collect();
    let mut fleet = Fleet::new_multi(&inp.cfg, &models).with_faults(&plan);
    let setup_s = since(t0);

    let mut events = 0u64;
    let mut step_ns = 0u64;
    let t1 = now_ns();
    if timed_steps {
        loop {
            let s = now_ns();
            let more = fleet.step();
            step_ns += now_ns() - s;
            if !more {
                break;
            }
            events += 1;
        }
    } else {
        while fleet.step() {
            events += 1;
        }
    }
    let t2 = now_ns();
    let scale_events = fleet.scale_events().len();
    let report = fleet.into_report();
    let report_s = since(t2);

    // Gate: every request reached exactly one terminal state, and the
    // tenant rows sum to the fleet totals.
    let sum =
        |f: fn(&sconna_accel::serve::TenantUsage) -> u64| report.tenants.iter().map(f).sum::<u64>();
    let ok = report.offered == inp.cfg.requests as u64
        && report.offered == report.completed + report.dropped + report.degraded
        && sum(|t| t.offered) == report.offered
        && sum(|t| t.completed) == report.completed
        && sum(|t| t.dropped) == report.dropped
        && sum(|t| t.degraded) == report.degraded;
    let run = FleetRun {
        setup_s,
        step_s: secs(t1, t2),
        timed_step_s: secs(0, step_ns),
        report_s,
        events,
        scale_events,
        offered: report.offered,
        failed: if ok { 0 } else { report.offered },
    };
    (run, report)
}

/// Serves fleets until `seconds` have passed, keeping only the first
/// fleet's report (a report holds per-sample series, and keeping one
/// per fleet would make peak memory grow with run length).
fn serve_fleets(inp: &Inputs, seconds: f64, timed_steps: bool) -> (Vec<FleetRun>, ServingReport) {
    let start = now_ns();
    let (run, first) = serve_fleet(inp, timed_steps);
    let mut runs = vec![run];
    while runs.len() < SETUP_REPS || since(start) < seconds {
        runs.push(serve_fleet(inp, timed_steps).0);
    }
    (runs, first)
}

fn medians(runs: &[FleetRun], f: fn(&FleetRun) -> f64) -> f64 {
    median(&runs.iter().map(f).collect::<Vec<_>>())
}

pub fn run(args: &Args) -> Outcome {
    let inp = inputs(args.seed, REQUESTS);
    println!(
        "fleet_tenants: {PROVISIONED} instances (autoscale {MIN_ACTIVE}..{PROVISIONED}), \
         {} tenants, {REQUESTS} requests per fleet over {:.3} simulated ms",
        TENANTS.len(),
        inp.horizon.as_secs_f64() * 1e3
    );
    let mut out = Outcome::default();
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (runs, r) = serve_fleets(&inp, untraced_s, false);
    let first = &runs[0];
    println!(
        "fleets {} | served {} shed {} of {} | {} scale events, {} incidents | digest {}",
        runs.len(),
        r.completed,
        r.dropped,
        r.offered,
        first.scale_events,
        r.availability.incidents,
        digest(&r, first.scale_events).hex()
    );
    out.attempted = runs.iter().map(|r| r.offered).sum();
    out.failed = runs.iter().map(|r| r.failed).sum();
    let untraced_rps = medians(&runs, FleetRun::requests_per_s);
    if !args.trace {
        let m = &mut out.metrics;
        let setups: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
        let rps: Vec<f64> = runs.iter().map(FleetRun::requests_per_s).collect();
        m.insert("setup_s", summarize("setup s per fleet", &setups));
        m.insert("requests_per_s", summarize("requests/s per fleet", &rps));
        m.insert("sim_fps", r.goodput_fps);
        m.insert("sim_p99_us", r.latency.p99.as_secs_f64() * 1e6);
        return out;
    }

    // Traced: per-name totals only (every step timed on its own), so
    // memory stays bounded at millions of events.
    let (traced, tr) = serve_fleets(&inp, args.seconds / 2.0, true);
    out.attempted += traced.iter().map(|r| r.offered).sum::<u64>();
    out.failed += traced.iter().map(|r| r.failed).sum::<u64>();
    let requests: f64 = traced.iter().map(|r| r.offered as f64).sum();
    let events: u64 = traced.iter().map(|r| r.events).sum();
    let step_s: f64 = traced.iter().map(|r| r.timed_step_s).sum();
    let traced_rps = medians(&traced, FleetRun::requests_per_s);
    let t = &traced[0];
    let m = &mut out.metrics;
    m.insert("serve.fleet.events", events as f64 / requests);
    m.insert("serve.fleet.step_s", step_s / requests);
    m.insert("serve.fleet.ns_per_event", step_s * 1e9 / events as f64);
    m.insert("serve.fleet.sched_s", step_s / requests);
    m.insert("serve.fleet.setup_s", medians(&traced, |r| r.setup_s));
    m.insert("serve.fleet.report_s", medians(&traced, |r| r.report_s));
    let layers: Vec<_> = inp
        .models
        .iter()
        .flat_map(|model| simulate_inference(&AcceleratorConfig::sconna(), model).layers)
        .collect();
    crate::insert_perf_terms(m, &layers);
    m.insert("serve.batches", tr.batches as f64);
    m.insert("serve.mean_batch_fill", tr.mean_batch_fill);
    m.insert("serve.degraded", tr.degraded as f64);
    m.insert("serve.dropped", tr.dropped as f64);
    m.insert("serve.scale_events", t.scale_events as f64);
    m.insert(
        "serve.model_swaps",
        tr.tenants.iter().map(|u| u.model_swaps).sum::<u64>() as f64,
    );
    m.insert("serve.incidents", tr.availability.incidents as f64);
    m.insert("serve.restarts", tr.availability.restarts_issued as f64);
    m.insert("trace.requests", requests);
    m.insert("trace.spans", events as f64);
    m.insert("trace.requests_per_s", traced_rps);
    m.insert("trace.untraced_requests_per_s", untraced_rps);
    m.insert("trace.overhead_frac", 1.0 - traced_rps / untraced_rps);
    out
}
