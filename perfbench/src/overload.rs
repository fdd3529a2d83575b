//! `serve_overload`: the forward-path and fork/join workload. A
//! functional fleet — 4 SCONNA instances, batch 8, queues bounded at 16
//! per instance, `Degrade { fallback_bits: 4 }` admission onto a B4
//! fallback engine — executes a seeded-trained 16×16 small CNN for every
//! request, with [`WORKERS`] threads per batch. Arrivals are an
//! open-loop, seeded Poisson trace at [`LOAD`]× the fleet's
//! full-fidelity capacity under GoogleNet timing. Each fleet serves
//! [`REQUESTS`] requests; a run serves fleets back to back.

use crate::clock::{now_ns, secs, since};
use crate::rng::{Digest, SplitMix};
use crate::timed::{Tally, Timed};
use crate::trace::{fork_join, totals_by_name, Tracer};
use crate::{median, summarize, Args, Outcome, SETUP_REPS, WORKERS};
use sconna_accel::engine::SconnaEngine;
use sconna_accel::organization::AcceleratorConfig;
use sconna_accel::perf::simulate_inference;
use sconna_accel::serve::{
    AdmissionPolicy, ArrivalProcess, Fleet, FunctionalServingReport, FunctionalWorkload,
    RequestOutcome, ServingConfig,
};
use sconna_photonics::pca::AdcModel;
use sconna_sc::Precision;
use sconna_sim::time::SimTime;
use sconna_tensor::dataset::{Sample, SyntheticDataset};
use sconna_tensor::engine::VdpEngine;
use sconna_tensor::layers::argmax;
use sconna_tensor::models::{googlenet, CnnModel};
use sconna_tensor::smallcnn::{SmallCnn, SmallCnnConfig};

const INSTANCES: usize = 4;
const MAX_BATCH: usize = 8;
const QUEUE_CAP: usize = 16;
const FALLBACK_BITS: u8 = 4;
/// Offered load over the full-fidelity capacity estimate.
const LOAD: f64 = 1.5;
/// Requests per fleet.
const REQUESTS: usize = 1536;
/// Served requests per fleet re-checked against the unprepared forward.
const CHECKS_PER_FLEET: usize = 24;
/// Fleets every run serves at least; each contributes one set-up to the
/// `setup_s` median.
const MIN_FLEETS: usize = SETUP_REPS;

/// Everything the benchmark generates before the library runs.
struct Inputs {
    train: Vec<Sample>,
    samples: Vec<Sample>,
    cnn: SmallCnn,
    model: CnnModel,
    cfg: ServingConfig,
    seed: u64,
}

fn inputs(seed: u64, requests: usize) -> Inputs {
    let data = SyntheticDataset::new(10, 16, 0.25, seed);
    let train = data.batch(12, seed.wrapping_add(1));
    let samples = data.batch(6, seed.wrapping_add(2));
    let mut cnn = SmallCnn::new(
        SmallCnnConfig {
            input_size: 16,
            channels1: 8,
            channels2: 16,
            classes: 10,
        },
        seed,
    );
    cnn.train(&train, 6, 0.05);
    let model = googlenet();
    let base =
        ServingConfig::saturation(AcceleratorConfig::sconna(), INSTANCES, MAX_BATCH, requests)
            .with_queue_cap(QUEUE_CAP)
            .with_seed(seed);
    // Poisson gaps, rescaled so the trace spans exactly its nominal
    // length: the seed moves individual arrivals, not the offered rate.
    let span = requests as f64 / (LOAD * base.estimated_capacity_fps(&model));
    let mut rng = SplitMix::new(seed);
    let mut t = 0.0;
    let gaps: Vec<f64> = (0..requests)
        .map(|_| {
            t += rng.exp(1.0);
            t
        })
        .collect();
    let times = gaps
        .iter()
        .map(|&g| SimTime::from_secs_f64(g * span / t))
        .collect();
    let cfg = base
        .with_arrivals(ArrivalProcess::trace(times))
        .with_admission(AdmissionPolicy::Degrade {
            fallback_bits: FALLBACK_BITS,
        });
    Inputs {
        train,
        samples,
        cnn,
        model,
        cfg,
        seed,
    }
}

fn primary_engine(seed: u64, adc: bool) -> SconnaEngine {
    let adc = adc.then(AdcModel::sconna_default);
    SconnaEngine::new(Precision::B8, 176, adc, seed)
}

fn fallback_engine(seed: u64, adc: bool) -> SconnaEngine {
    let adc = adc.then(AdcModel::sconna_default);
    SconnaEngine::new(Precision::new(FALLBACK_BITS), 176, adc, seed)
}

/// One fleet served to completion.
struct FleetRun {
    setup_s: f64,
    step_s: f64,
    report_s: f64,
    events: u64,
    failed: u64,
    report: FunctionalServingReport,
}

impl FleetRun {
    fn requests_per_s(&self) -> f64 {
        self.report.serving.offered as f64 / (self.step_s + self.report_s)
    }

    fn digest(&self) -> Digest {
        let s = &self.report.serving;
        let mut d = Digest::default();
        for w in [s.offered, s.completed, s.dropped, s.degraded, s.batches] {
            d.word(w);
        }
        d.word(s.makespan.as_ps());
        d.word(s.latency.p99.as_ps());
        d.word(s.goodput_fps.to_bits());
        for &p in &self.report.predictions {
            d.word(p as u64);
        }
        d
    }
}

/// Builds (timed as set-up: quantization, engines, fleet bring-up with
/// every instance's weight preparation) and serves one fleet, then gates
/// its outputs. `make` builds the primary and fallback engines.
fn serve_fleet<E: VdpEngine>(
    inp: &Inputs,
    adc: bool,
    make: impl FnOnce() -> (E, E),
    tracer: Option<&Tracer>,
) -> (FleetRun, E, E) {
    let t0 = now_ns();
    let qnet = inp.cnn.quantize(&inp.train, 8);
    let fallback = qnet.degraded(FALLBACK_BITS);
    let (engine, fb_engine) = make();
    let workload = FunctionalWorkload {
        net: &qnet,
        fallback: Some(&fallback),
        fallback_engine: Some(&fb_engine),
        samples: &inp.samples,
        engine: &engine,
        workers: WORKERS,
    };
    let mut fleet = Fleet::new_functional(&inp.cfg, &inp.model, &workload);
    let setup_s = since(t0);

    let t1 = now_ns();
    let mut events = 0u64;
    loop {
        let _step = tracer.map(|t| t.enter("serve.fleet.step", None));
        if !fleet.step() {
            break;
        }
        events += 1;
    }
    let t2 = now_ns();
    let report = fleet.into_functional_report();
    let report_s = since(t2);
    let step_s = secs(t1, t2);

    // Gate: conservation, and sampled responses equal the unprepared
    // forward on bare engines (the fallback tier for degraded ones).
    let s = &report.serving;
    let mut failed = if s.offered == s.completed + s.dropped + s.degraded
        && s.offered == inp.cfg.requests as u64
    {
        0
    } else {
        s.offered
    };
    let oracle = primary_engine(inp.seed, adc);
    let fb_oracle = fallback_engine(inp.seed, adc);
    let mut rng = SplitMix::new(inp.seed ^ 0x0F1E);
    for _ in 0..CHECKS_PER_FLEET {
        let id = rng.below(report.predictions.len() as u64) as usize;
        let image = &inp.samples[id % inp.samples.len()].image;
        let want = match report.outcomes[id] {
            RequestOutcome::Served => argmax(&qnet.forward_keyed(image, &oracle, id as u64)),
            RequestOutcome::Degraded => {
                argmax(&fallback.forward_keyed(image, &fb_oracle, id as u64))
            }
            _ => usize::MAX,
        };
        failed += u64::from(report.predictions[id] != want);
    }
    let run = FleetRun {
        setup_s,
        step_s,
        report_s,
        events,
        failed,
        report,
    };
    (run, engine, fb_engine)
}

fn bare(seed: u64) -> impl FnOnce() -> (SconnaEngine, SconnaEngine) {
    move || (primary_engine(seed, true), fallback_engine(seed, true))
}

/// Serves fleets with bare engines until `seconds` have passed.
fn serve_bare(inp: &Inputs, seconds: f64) -> Vec<FleetRun> {
    let start = now_ns();
    let mut runs = Vec::new();
    while runs.len() < MIN_FLEETS || since(start) < seconds {
        runs.push(serve_fleet(inp, true, bare(inp.seed), None).0);
    }
    runs
}

/// Digest of one small fleet's outputs, on bare or decorated engines.
#[cfg(test)]
pub fn run_small(seed: u64, wrapped: bool) -> String {
    let inp = inputs(seed, 48);
    let run = if wrapped {
        let make = || {
            (
                Timed::sconna(primary_engine(seed, true), None),
                Timed::sconna(fallback_engine(seed, true), None),
            )
        };
        serve_fleet(&inp, true, make, None).0
    } else {
        serve_fleet(&inp, true, bare(seed), None).0
    };
    assert_eq!(run.failed, 0);
    run.digest().hex()
}

pub fn run(args: &Args) -> Outcome {
    let inp = inputs(args.seed, REQUESTS);
    println!(
        "serve_overload: {INSTANCES} instances x batch {MAX_BATCH}, queue cap {QUEUE_CAP}, \
         {REQUESTS} requests per fleet at {LOAD}x capacity, {WORKERS} workers"
    );
    let mut out = Outcome::default();
    if !args.trace {
        let runs = serve_bare(&inp, args.seconds);
        let first = &runs[0];
        println!("fleets {} | digest {}", runs.len(), first.digest().hex());
        let setups: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
        let rps: Vec<f64> = runs.iter().map(FleetRun::requests_per_s).collect();
        out.attempted = runs.iter().map(|r| r.report.serving.offered).sum();
        out.failed = runs.iter().map(|r| r.failed).sum();
        let m = &mut out.metrics;
        m.insert("setup_s", summarize("setup s per fleet", &setups));
        m.insert("requests_per_s", summarize("requests/s per fleet", &rps));
        m.insert("sim_fps", first.report.serving.goodput_fps);
        m.insert(
            "sim_p99_us",
            first.report.serving.latency.p99.as_secs_f64() * 1e6,
        );
        return out;
    }

    let half = args.seconds / 2.0;
    let base = serve_bare(&inp, half);
    let tracer = Tracer::new();
    let main_thread = crate::trace::thread_index();
    let start = now_ns();
    let mut traced = Vec::new();
    let mut tally = Tally::default();
    let mut fb_tally = Tally::default();
    while traced.len() < MIN_FLEETS || since(start) < half {
        let make = || {
            (
                Timed::sconna(primary_engine(inp.seed, true), Some(&tracer)),
                Timed::sconna(fallback_engine(inp.seed, true), Some(&tracer)),
            )
        };
        let (run, e, fb) = serve_fleet(&inp, true, make, Some(&tracer));
        tally = tally + e.counters.tally();
        fb_tally = fb_tally + fb.counters.tally();
        traced.push(run);
    }

    // ADC self time: the same fleet on engines without an ADC model.
    let make_quiet = || {
        (
            Timed::sconna(primary_engine(inp.seed, false), None),
            Timed::sconna(fallback_engine(inp.seed, false), None),
        )
    };
    let (quiet, qe, qfb) = serve_fleet(&inp, false, make_quiet, None);
    let quiet_busy = secs(
        0,
        qe.counters.tally().busy_ns + qfb.counters.tally().busy_ns,
    ) / quiet.report.serving.offered as f64;

    // Scheduler time: the analytic twin of the same configuration.
    let t0 = now_ns();
    let mut twin = Fleet::new(&inp.cfg, &inp.model);
    let twin_setup = since(t0);
    let t1 = now_ns();
    twin.run_to_completion();
    let sched_s = since(t1) / inp.cfg.requests as f64;
    let twin_report = twin.into_report();

    let spans = tracer.spans();
    let totals = totals_by_name(&spans);
    let fj = fork_join(&spans, "accel.engine.tile", main_thread, WORKERS as u64);
    crate::trace::print_totals(&spans);
    crate::trace::write_out(&tracer, "serve_overload");
    println!(
        "analytic twin: set-up {twin_setup:.6} s, {:.3} us/request, {} batches",
        sched_s * 1e6,
        twin_report.batches
    );
    let first = &traced[0];
    println!("digest {}", first.digest().hex());
    let wrapped_differs = first.digest().hex() != base[0].digest().hex();

    let all = base.iter().chain(&traced).chain(std::iter::once(&quiet));
    out.attempted = all.clone().map(|r| r.report.serving.offered).sum();
    out.failed = all.map(|r| r.failed).sum::<u64>() + u64::from(wrapped_differs);

    let requests: f64 = traced.iter().map(|r| r.report.serving.offered as f64).sum();
    let both = tally + fb_tally;
    let busy = secs(0, both.busy_ns);
    let step = totals.get("serve.fleet.step").copied().unwrap_or_default();
    let traced_rps = median(
        &traced
            .iter()
            .map(FleetRun::requests_per_s)
            .collect::<Vec<_>>(),
    );
    let untraced_rps = median(
        &base
            .iter()
            .map(FleetRun::requests_per_s)
            .collect::<Vec<_>>(),
    );
    let events: u64 = traced.iter().map(|r| r.events).sum();
    let s = &first.report.serving;
    let m = &mut out.metrics;
    m.insert("accel.engine.busy_s", busy / requests);
    m.insert("accel.engine.calls", both.calls as f64 / requests);
    m.insert("accel.engine.macs", both.macs as f64 / requests);
    m.insert(
        "accel.engine.fallback.busy_s",
        secs(0, fb_tally.busy_ns) / requests,
    );
    m.insert(
        "accel.engine.s_le44.busy_s",
        secs(0, both.short_busy_ns) / requests,
    );
    m.insert(
        "accel.engine.s_le44.macs_per_s",
        both.short_macs as f64 / secs(0, both.short_busy_ns),
    );
    m.insert(
        "accel.engine.s_gt44.busy_s",
        secs(0, both.long_busy_ns) / requests,
    );
    m.insert(
        "accel.engine.s_gt44.macs_per_s",
        both.long_macs as f64 / secs(0, both.long_busy_ns),
    );
    m.insert(
        "accel.engine.prepare_s",
        secs(0, both.prepare_ns) / traced.len() as f64,
    );
    m.insert(
        "photonics.adc.conversions",
        both.conversions as f64 / requests,
    );
    m.insert("photonics.adc.self_s", busy / requests - quiet_busy);
    m.insert("sim.parallel.worker_s", fj.busy_ns as f64 * 1e-9 / requests);
    m.insert("sim.parallel.idle_frac", fj.idle_frac);
    m.insert(
        "tensor.forward.self_s",
        step.self_ns as f64 * 1e-9 / requests - sched_s,
    );
    m.insert("serve.fleet.events", events as f64 / requests);
    m.insert("serve.fleet.step_s", step.total_ns as f64 * 1e-9 / requests);
    m.insert(
        "serve.fleet.ns_per_event",
        step.total_ns as f64 / events as f64,
    );
    m.insert("serve.fleet.sched_s", sched_s);
    m.insert(
        "serve.fleet.setup_s",
        median(&traced.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
    );
    m.insert(
        "serve.fleet.report_s",
        median(&traced.iter().map(|r| r.report_s).collect::<Vec<_>>()),
    );
    crate::insert_perf_terms(
        m,
        &simulate_inference(&AcceleratorConfig::sconna(), &inp.model).layers,
    );
    m.insert("serve.batches", s.batches as f64);
    m.insert("serve.mean_batch_fill", s.mean_batch_fill);
    m.insert("serve.degraded", s.degraded as f64);
    m.insert("serve.dropped", s.dropped as f64);
    m.insert("serve.incidents", s.availability.incidents as f64);
    m.insert("serve.restarts", s.availability.restarts_issued as f64);
    m.insert("trace.requests", requests);
    m.insert("trace.spans", spans.len() as f64);
    m.insert("trace.requests_per_s", traced_rps);
    m.insert("trace.untraced_requests_per_s", untraced_rps);
    m.insert("trace.overhead_frac", 1.0 - traced_rps / untraced_rps);
    out
}
