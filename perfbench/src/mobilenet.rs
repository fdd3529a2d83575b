//! `mobilenet224`: the engine-bound workload. One request is one
//! 224×224 MobileNet_V2 image: each of its 53 multiplying layers runs as
//! a seeded synthetic tile at true geometry (P = `ops_per_kernel`
//! patches, K = `kernels`, C = `vector_len`) through
//! `SconnaEngine::paper_default` — weights prepared once at set-up, then
//! `vdp_batch_prepared` per tile with the patch rows split into fixed
//! blocks over [`WORKERS`] threads. Images run one after another
//! (closed loop, one client); nothing here touches `tensor::layers` or
//! `accel::serve` on the host clock.

use crate::clock::{now_ns, secs, since};
use crate::rng::{Digest, SplitMix};
use crate::timed::Timed;
use crate::trace::{fork_join, Tracer};
use crate::{median, summarize, Args, Outcome, SETUP_REPS, WORKERS};
use sconna_accel::engine::SconnaEngine;
use sconna_accel::organization::AcceleratorConfig;
use sconna_accel::perf::simulate_inference;
use sconna_accel::serve::{simulate_serving, ServingConfig};
use sconna_sim::parallel::{block_ranges, parallel_map_with};
use sconna_tensor::engine::{combine_keys, PatchMatrix, PreparedWeights, VdpEngine, WeightMatrix};
use sconna_tensor::models::{mobilenet_v2, VdpWorkload};

/// Patch rows per block: fixed, so the decomposition (and every noise
/// key) is independent of the worker count.
const BLOCK_ROWS: usize = 32;

/// `(patch, kernel)` pairs per tile checked against `vdp_keyed`.
const CHECKS_PER_TILE: usize = 4;

/// Simulated requests of the single-instance serving run behind
/// `sim_p99_us`.
const SIM_REQUESTS: usize = 200_000;

/// Offered load of that run, as a share of one instance's capacity.
const SIM_LOAD: f64 = 0.5;

/// One layer's seeded tile: weights and the patch rows in fixed blocks.
struct Tile {
    layer: VdpWorkload,
    weights: Vec<i32>,
    blocks: Vec<PatchMatrix>,
}

fn make_tiles(seed: u64) -> Vec<Tile> {
    let mut rng = SplitMix::new(seed);
    mobilenet_v2()
        .workloads
        .into_iter()
        .map(|layer| {
            let (p, k, c) = (layer.ops_per_kernel, layer.kernels, layer.vector_len);
            let weights = (0..k * c).map(|_| rng.below(255) as i32 - 127).collect();
            let blocks = block_ranges(p, BLOCK_ROWS)
                .into_iter()
                .map(|r| {
                    let data = (0..r.len() * c).map(|_| rng.below(256) as u32).collect();
                    PatchMatrix::from_vec(r.len(), c, data)
                })
                .collect();
            Tile {
                layer,
                weights,
                blocks,
            }
        })
        .collect()
}

/// Noise keys of one block of one image's tile.
fn block_keys(image: u64, layer: usize, block: usize, rows: usize) -> Vec<u64> {
    let base = combine_keys(
        combine_keys(image, layer as u64),
        (block * BLOCK_ROWS) as u64,
    );
    (0..rows as u64).map(|r| combine_keys(base, r)).collect()
}

/// Library set-up: the engine (and its product tables) plus every
/// layer's weight preparation.
fn prepare<E: VdpEngine>(engine: &E, tiles: &[Tile]) -> Vec<PreparedWeights> {
    tiles
        .iter()
        .map(|t| {
            let (k, c) = (t.layer.kernels, t.layer.vector_len);
            engine.prepare_weights(&WeightMatrix::new(&t.weights, k, c))
        })
        .collect()
}

/// Per-image bookkeeping the timed loop fills.
struct ImageRun {
    /// Host seconds of every run of each layer's tile.
    tile_s: Vec<Vec<f64>>,
    /// Host seconds of each image.
    image_s: Vec<f64>,
    failed: u64,
    digest: Digest,
}

impl ImageRun {
    /// Median host seconds of each layer's tile.
    fn tile_medians(&self) -> Vec<f64> {
        self.tile_s.iter().map(|s| median(s)).collect()
    }

    /// Host seconds per image: the sum of the per-layer median tile
    /// times, which discounts a host stall that slows a few tiles
    /// without discarding whole images.
    fn seconds_per_image(&self) -> f64 {
        self.tile_medians().iter().sum()
    }
}

/// Runs images until `seconds` have passed (at least `min_images`),
/// checking sampled outputs of every tile against the bare engine.
#[allow(clippy::too_many_arguments)]
fn run_images(
    engine: &dyn VdpEngine,
    oracle: &SconnaEngine,
    prepared: &[PreparedWeights],
    tiles: &[Tile],
    seed: u64,
    first_image: u64,
    seconds: f64,
    min_images: usize,
    tracer: Option<&Tracer>,
) -> ImageRun {
    let mut run = ImageRun {
        tile_s: vec![Vec::new(); tiles.len()],
        image_s: Vec::new(),
        failed: 0,
        digest: Digest::default(),
    };
    let mut rng = SplitMix::new(seed ^ 0xC4EC);
    let start = now_ns();
    let mut image = first_image;
    while run.image_s.len() < min_images || since(start) < seconds {
        let _image_span = tracer.map(|t| t.enter("image", Some(image)));
        let mut image_s = 0.0;
        let mut ok = true;
        for (l, (tile, prep)) in tiles.iter().zip(prepared).enumerate() {
            let keys: Vec<Vec<u64>> = tile
                .blocks
                .iter()
                .enumerate()
                .map(|(b, m)| block_keys(image, l, b, m.rows()))
                .collect();
            let t0 = now_ns();
            let outs = {
                let _tile_span = tracer.map(|t| t.enter("tile", Some(image)));
                parallel_map_with((0..tile.blocks.len()).collect(), WORKERS, |b: usize| {
                    let _block = tracer.map(|t| t.span("block", Some(image)));
                    engine.vdp_batch_prepared(&tile.blocks[b], prep, &keys[b])
                })
            };
            let dt = secs(t0, now_ns());
            image_s += dt;
            run.tile_s[l].push(dt);

            // Gate: sampled pairs equal the per-pair oracle bit for bit.
            let k = tile.layer.kernels;
            for _ in 0..CHECKS_PER_TILE {
                let b = rng.below(tile.blocks.len() as u64) as usize;
                let p = rng.below(tile.blocks[b].rows() as u64) as usize;
                let kk = rng.below(k as u64) as usize;
                let c = tile.layer.vector_len;
                let want = oracle.vdp_keyed(
                    tile.blocks[b].row(p),
                    &tile.weights[kk * c..(kk + 1) * c],
                    combine_keys(keys[b][p], kk as u64),
                );
                ok &= outs[b][p * k + kk].to_bits() == want.to_bits();
            }
            if image == first_image {
                for v in outs.iter().flatten() {
                    run.digest.word(v.to_bits());
                }
            }
        }
        run.image_s.push(image_s);
        run.failed += u64::from(!ok);
        image += 1;
    }
    run
}

/// Simulated p99 latency (µs) of one SCONNA instance serving MobileNet_V2
/// images one at a time under seeded Poisson arrivals at [`SIM_LOAD`] of
/// its capacity.
fn sim_p99_us(seed: u64) -> f64 {
    let model = mobilenet_v2();
    let base = ServingConfig::saturation(AcceleratorConfig::sconna(), 1, 1, SIM_REQUESTS);
    let rate = SIM_LOAD * base.estimated_capacity_fps(&model);
    let report = simulate_serving(&base.with_poisson(rate).with_seed(seed), &model);
    report.latency.p99.as_secs_f64() * 1e6
}

pub fn run(args: &Args) -> Outcome {
    let tiles = make_tiles(args.seed);
    let model = mobilenet_v2();
    let perf = simulate_inference(&AcceleratorConfig::sconna(), &model);
    let macs_per_image: usize = tiles.iter().map(|t| t.layer.macs()).sum();
    println!(
        "mobilenet224: {} layers, {:.3e} MACs per image, {} workers, blocks of {BLOCK_ROWS} patch rows",
        tiles.len(),
        macs_per_image as f64,
        WORKERS
    );

    let tracer = Tracer::new();
    let traced = args.trace.then_some(&tracer);
    let oracle = SconnaEngine::paper_default(args.seed);

    // Set-up, repeated: engine construction plus weight preparation.
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t0 = now_ns();
        let engine = Timed::sconna(SconnaEngine::paper_default(args.seed), traced);
        let prepared = prepare(&engine, &tiles);
        setup_s.push(since(t0));
        built = Some((engine, prepared));
    }
    let (engine, prepared) = built.expect("at least one set-up repetition");
    let prepare_s = secs(0, engine.counters.tally().prepare_ns) / SETUP_REPS as f64;

    let mut out = Outcome::default();
    if !args.trace {
        // Untraced: the bare engine, end-to-end metrics only.
        let bare = engine.inner();
        let run = run_images(
            bare,
            &oracle,
            &prepared,
            &tiles,
            args.seed,
            0,
            args.seconds,
            1,
            None,
        );
        print_profile(&run, &tiles, &perf);
        println!("digest {}", run.digest.hex());
        out.attempted = run.image_s.len() as u64;
        out.failed = run.failed;
        let m = &mut out.metrics;
        m.insert("setup_s", summarize("setup s", &setup_s));
        summarize("host s per image", &run.image_s);
        m.insert("requests_per_s", 1.0 / run.seconds_per_image());
        m.insert("sim_fps", perf.fps);
        m.insert("sim_p99_us", sim_p99_us(args.seed));
        return out;
    }

    // Traced: half the time untraced for the overhead baseline, half
    // traced with spans image → tile → block → engine tile.
    let half = args.seconds / 2.0;
    let bare = engine.inner();
    let base = run_images(
        bare, &oracle, &prepared, &tiles, args.seed, 0, half, 1, None,
    );
    let before = engine.counters.tally();
    let main_thread = crate::trace::thread_index();
    let run = run_images(
        &engine, &oracle, &prepared, &tiles, args.seed, 0, half, 1, traced,
    );
    let t = engine.counters.tally();
    let images = run.image_s.len() as f64;
    let busy = (t.busy_ns - before.busy_ns) as f64 * 1e-9;

    // ADC self time: the same tiles on the same engine minus its ADC.
    let noiseless = Timed::sconna(SconnaEngine::noiseless(), None);
    let quiet_prep = prepare(&noiseless, &tiles);
    let quiet_oracle = SconnaEngine::noiseless();
    let quiet = run_images(
        &noiseless,
        &quiet_oracle,
        &quiet_prep,
        &tiles,
        args.seed,
        0,
        0.0,
        1,
        None,
    );
    let quiet_busy = secs(0, noiseless.counters.tally().busy_ns) / quiet.image_s.len() as f64;

    let spans = tracer.spans();
    let fj = fork_join(&spans, "accel.engine.tile", main_thread, WORKERS as u64);
    println!(
        "traced: {} images, engine busy covers {:.1}% of summed worker time",
        run.image_s.len(),
        100.0 * busy / (fj.busy_ns as f64 * 1e-9)
    );
    crate::trace::print_totals(&spans);
    crate::trace::write_out(&tracer, "mobilenet224");
    println!("digest {}", run.digest.hex());
    // The decorated engine must reproduce the bare engine's first image
    // bit for bit.
    let wrapped_differs = base.digest.hex() != run.digest.hex();

    out.attempted = (base.image_s.len() + run.image_s.len()) as u64;
    out.failed = base.failed + run.failed + quiet.failed + u64::from(wrapped_differs);
    let m = &mut out.metrics;
    let traced_rps = 1.0 / run.seconds_per_image();
    let untraced_rps = 1.0 / base.seconds_per_image();
    let short_busy = (t.short_busy_ns - before.short_busy_ns) as f64 * 1e-9;
    let long_busy = (t.long_busy_ns - before.long_busy_ns) as f64 * 1e-9;
    m.insert("accel.engine.busy_s", busy / images);
    m.insert(
        "accel.engine.calls",
        (t.calls - before.calls) as f64 / images,
    );
    m.insert("accel.engine.macs", (t.macs - before.macs) as f64 / images);
    m.insert("accel.engine.s_le44.busy_s", short_busy / images);
    m.insert(
        "accel.engine.s_le44.macs_per_s",
        (t.short_macs - before.short_macs) as f64 / short_busy,
    );
    m.insert("accel.engine.s_gt44.busy_s", long_busy / images);
    m.insert(
        "accel.engine.s_gt44.macs_per_s",
        (t.long_macs - before.long_macs) as f64 / long_busy,
    );
    m.insert("accel.engine.prepare_s", prepare_s);
    m.insert(
        "photonics.adc.conversions",
        (t.conversions - before.conversions) as f64 / images,
    );
    m.insert("photonics.adc.self_s", busy / images - quiet_busy);
    m.insert("sim.parallel.worker_s", fj.busy_ns as f64 * 1e-9 / images);
    m.insert("sim.parallel.idle_frac", fj.idle_frac);
    crate::insert_perf_terms(m, &perf.layers);
    m.insert("trace.requests", images);
    m.insert("trace.spans", spans.len() as f64);
    m.insert("trace.requests_per_s", traced_rps);
    m.insert("trace.untraced_requests_per_s", untraced_rps);
    m.insert("trace.overhead_frac", 1.0 - traced_rps / untraced_rps);
    out
}

/// The top-5 layers by host time, each beside its simulated-time terms.
fn print_profile(run: &ImageRun, tiles: &[Tile], perf: &sconna_accel::perf::InferencePerf) {
    let tile_s = run.tile_medians();
    let total: f64 = tile_s.iter().sum();
    let mut order: Vec<usize> = (0..tiles.len()).collect();
    order.sort_by(|&a, &b| tile_s[b].total_cmp(&tile_s[a]));
    println!(
        "{:<18} {:>5} {:>5} {:>6} {:>9} {:>6} {:>10} {:>11} {:>9} {:>12}",
        "layer",
        "S",
        "K",
        "P",
        "host ms",
        "share",
        "MAC/s",
        "compute us",
        "psum us",
        "reprogram us"
    );
    for &l in order.iter().take(5) {
        let t = &tiles[l];
        let lp = &perf.layers[l];
        println!(
            "{:<18} {:>5} {:>5} {:>6} {:>9.2} {:>5.1}% {:>10.3e} {:>11.3} {:>9.3} {:>12.3}",
            t.layer.layer,
            t.layer.vector_len,
            t.layer.kernels,
            t.layer.ops_per_kernel,
            1e3 * tile_s[l],
            100.0 * tile_s[l] / total,
            t.layer.macs() as f64 / tile_s[l],
            lp.compute.as_secs_f64() * 1e6,
            lp.psum.as_secs_f64() * 1e6,
            lp.reprogram.as_secs_f64() * 1e6,
        );
    }
}
