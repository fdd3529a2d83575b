//! Weight-stationary performance simulation (Fig. 9 of the paper).
//!
//! Each CNN layer becomes a transaction: its VDP passes, psum-reduction
//! adds, DKV reprogramming rounds and memory traffic are derived from the
//! layer's geometry and the accelerator organization, converted into four
//! throughput terms, and the layer occupies the accelerator for the
//! maximum of those terms plus its pipeline-fill latency. Layers execute
//! in sequence (layer dependencies), so the makespan is the sum of the
//! layer times; energy integrates static power over the makespan plus
//! per-operation dynamic energy from Table IV.

use crate::organization::{AcceleratorConfig, AcceleratorKind, SERIALIZER_ACTIVITY};
use crate::peripherals as p;
use sconna_sim::energy::{ComponentSpec, EnergyLedger};
use sconna_sim::time::SimTime;
use sconna_tensor::models::{CnnModel, VdpWorkload};
use serde::{Deserialize, Serialize};

/// Per-layer performance breakdown.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerPerf {
    /// Layer name.
    pub layer: String,
    /// VDPE passes (including bit slices).
    pub passes: u64,
    /// Electronic psum-reduction adds.
    pub psum_adds: u64,
    /// DKV (re)programming events.
    pub reprogram_events: u64,
    /// Compute-throughput term.
    pub compute: SimTime,
    /// Psum-reduction-throughput term.
    pub psum: SimTime,
    /// DKV-reprogramming term.
    pub reprogram: SimTime,
    /// Memory-traffic term.
    pub memory: SimTime,
    /// Pipeline fill latency (paid once per layer).
    pub pipeline_fill: SimTime,
    /// Layer occupancy: max of the throughput terms plus the fill.
    pub total: SimTime,
}

/// Whole-inference result for one (accelerator, model) pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InferencePerf {
    /// Accelerator display name.
    pub accelerator: &'static str,
    /// Model name.
    pub model: String,
    /// End-to-end inference time (batch 1).
    pub makespan: SimTime,
    /// Frames per second.
    pub fps: f64,
    /// Energy per inference, joules.
    pub energy_j: f64,
    /// Average power, watts.
    pub avg_power_w: f64,
    /// Die area, mm².
    pub area_mm2: f64,
    /// Energy efficiency, FPS/W.
    pub fps_per_w: f64,
    /// Area efficiency, FPS/W/mm².
    pub fps_per_w_per_mm2: f64,
    /// Per-layer breakdown.
    pub layers: Vec<LayerPerf>,
    /// Per-component energy breakdown over the run, joules, sorted by
    /// component name.
    pub energy_breakdown_j: Vec<(String, f64)>,
}

/// Analyzes one layer on one accelerator (batch size 1).
pub fn analyze_layer(cfg: &AcceleratorConfig, w: &VdpWorkload) -> LayerPerf {
    analyze_layer_batched(cfg, w, 1)
}

/// Analyzes one layer processing `batch` images back-to-back. Weights
/// stay stationary across the batch, so DKV (re)programming is paid once
/// per layer regardless of batch size — the amortization that lets the
/// analog baselines claw back their reprogramming overhead (but not
/// their psum traffic, which scales with the batch).
pub fn analyze_layer_batched(cfg: &AcceleratorConfig, w: &VdpWorkload, batch: usize) -> LayerPerf {
    assert!(batch > 0, "batch must be positive");
    let batch = batch as u64;
    let chunks = cfg.chunks(w.vector_len) as u64;
    let outputs = (w.kernels * w.ops_per_kernel) as u64 * batch;
    let slices = cfg.bit_slices as u64;
    let passes = outputs * chunks * slices;

    // Compute: every pass occupies one VDPE for one symbol.
    let compute = scale_time(cfg.symbol_time, passes, cfg.total_vdpes as u64);

    // Psums: SCONNA accumulates an output's chunks locally on its VDPE
    // (weights stream from the LUT); the analog baselines push every
    // chunk psum plus the slice-combine through the per-VDPC reduction
    // lanes.
    let psum_adds = if cfg.local_psum_accumulate {
        0
    } else {
        outputs * chunks * slices
    };
    let psum = scale_time(p::REDUCTION_NETWORK.latency, psum_adds, cfg.tiles() as u64);

    let (reprogram_events, reprogram) = layer_reprogram(cfg, w);

    // Memory: unique DIV bytes (P·S per image) plus the layer's weights
    // (L·S, once) move into the per-VDPC operand scratchpads, each fed
    // at the eDRAM bandwidth (operand storage is distributed with the
    // VDPCs; SCONNA's LUT buffers live beside the OSMs).
    let bytes =
        (batch as usize * w.ops_per_kernel * w.vector_len + w.kernels * w.vector_len) as f64;
    let memory = SimTime::from_secs_f64(bytes / (cfg.vdpc_count() as f64 * p::EDRAM_BANDWIDTH_BPS));

    let pipeline_fill = pipeline_fill(cfg, chunks);
    let total = compute.max(psum).max(reprogram).max(memory) + pipeline_fill;

    LayerPerf {
        layer: w.layer.clone(),
        passes,
        psum_adds,
        reprogram_events,
        compute,
        psum,
        reprogram,
        memory,
        pipeline_fill,
        total,
    }
}

/// Cold-start weight-(re)load latency for one accelerator instance: the
/// time to bring a model's weights on-accelerator from scratch, layer by
/// layer — each layer pays the larger of its DKV reprogramming rounds and
/// its weight-memory traffic (`L·S` bytes through the per-VDPC eDRAM
/// ports), the same two terms [`analyze_layer_batched`] charges, minus
/// everything input-dependent. This is what a restarted serving instance
/// pays before taking work again
/// ([`FaultEvent::Restart`](crate::serve::FaultEvent::Restart)).
///
/// SCONNA's `dkv_reprogram` is zero (weights stream from pre-filled OSM
/// LUTs — the reprogramming cost the paper argues it avoids), so its
/// reload is pure memory traffic; the analog baselines pay their cell
/// programming rounds here in full.
pub fn model_reload_time(cfg: &AcceleratorConfig, model: &CnnModel) -> SimTime {
    model.workloads.iter().fold(SimTime::ZERO, |acc, w| {
        let bytes = (w.kernels * w.vector_len) as f64;
        let memory =
            SimTime::from_secs_f64(bytes / (cfg.vdpc_count() as f64 * p::EDRAM_BANDWIDTH_BPS));
        acc + layer_reprogram(cfg, w).1.max(memory)
    })
}

/// Warm-restart weight-reload latency: the instance process died but its
/// operand scratchpads survived (supervised restart on the same physical
/// accelerator), so the eDRAM weight traffic of [`model_reload_time`] is
/// skipped and only the DKV/cell reprogramming rounds must be replayed —
/// photonic device state does not survive a power cycle, cached bytes do.
///
/// For SCONNA `dkv_reprogram` is zero, so a warm restart costs exactly
/// [`SimTime::ZERO`]: the paper's avoided-reprogramming claim turned into
/// an availability number. Analog baselines pay their full programming
/// rounds even warm. Always `<=` the cold [`model_reload_time`].
pub fn model_warm_reload_time(cfg: &AcceleratorConfig, model: &CnnModel) -> SimTime {
    model
        .workloads
        .iter()
        .fold(SimTime::ZERO, |acc, w| acc + layer_reprogram(cfg, w).1)
}

/// Co-resident model-swap latency: what an instance pays to switch its
/// active model to `model` when both models' weight bytes are already
/// staged in its operand scratchpads (multi-tenant co-location keeps
/// every resident model's bytes warm, so unlike [`model_reload_time`]
/// the eDRAM weight traffic is never re-paid). What remains is putting
/// the incoming model's weights back *on the devices*:
///
/// * Analog MAM/AMM must replay the incoming model's full DKV
///   cell-programming rounds — a swap costs what a warm restart costs
///   ([`model_warm_reload_time`]), reprogram-dominated.
/// * SCONNA holds each resident model in its own pre-filled OSM LUT
///   banks; a swap repoints the bank select, one LUT access per layer —
///   near-zero, and independent of the model's size.
///
/// Unit-pinned against [`model_reload_time`]: a swap never exceeds a
/// cold reload, and the SCONNA/analog asymmetry here is the paper's
/// avoided-reprogramming claim measured as multi-tenancy overhead (the
/// serving scheduler charges this per cross-model dispatch).
pub fn model_swap_time(cfg: &AcceleratorConfig, model: &CnnModel) -> SimTime {
    let bank_select = match cfg.kind {
        AcceleratorKind::Sconna => p::OSM_LUT.latency,
        _ => SimTime::ZERO,
    };
    model.workloads.iter().fold(SimTime::ZERO, |acc, w| {
        acc + layer_reprogram(cfg, w).1 + bank_select
    })
}

/// DKV programming of one layer's weights: one event per (kernel, chunk,
/// slice) assignment, in rounds of `total_vdpes` assignments programmed
/// in parallel. Returns `(events, time)`.
fn layer_reprogram(cfg: &AcceleratorConfig, w: &VdpWorkload) -> (u64, SimTime) {
    let events = (w.kernels as u64) * cfg.chunks(w.vector_len) as u64 * cfg.bit_slices as u64;
    (
        events,
        scale_time(cfg.dkv_reprogram, events, cfg.total_vdpes as u64),
    )
}

fn scale_time(unit: SimTime, ops: u64, parallelism: u64) -> SimTime {
    assert!(parallelism > 0, "parallelism must be positive");
    let rounds = ops.div_ceil(parallelism);
    SimTime::from_ps(unit.as_ps() * rounds)
}

fn pipeline_fill(cfg: &AcceleratorConfig, chunks: u64) -> SimTime {
    let tree_depth = (chunks.max(1) as f64).log2().ceil() as u64;
    let common = p::BUFFER_LATENCY
        + cfg.symbol_time
        + SimTime::from_ps(p::REDUCTION_NETWORK.latency.as_ps() * tree_depth)
        + p::ACTIVATION_UNIT.latency
        + p::POOLING_UNIT.latency
        + p::BUS.latency
        + p::ROUTER.latency;
    match cfg.kind {
        AcceleratorKind::Sconna => {
            common + p::OSM_LUT.latency + p::SERIALIZER.latency + p::SCONNA_ADC.latency
        }
        _ => common + p::ANALOG_DAC.latency + p::ANALOG_ADC.latency,
    }
}

/// Registers every component class of one accelerator instance on a
/// ledger (static power, area, per-op energy specs) without recording any
/// work. Call once per physical instance — instances accumulate, so a
/// fleet of R accelerators registers R times onto one ledger.
pub fn register_components(ledger: &mut EnergyLedger, cfg: &AcceleratorConfig) {
    let n = cfg.vdpe_size_n as u64;

    // Lasers: always-on optical supply.
    ledger.register(
        "laser",
        ComponentSpec::static_only(p::LASER_WALL_PLUG_W, 0.0),
        cfg.laser_count() as u64,
    );

    // Tile-level peripherals: static power per tile, dynamic per use.
    let tile = cfg.tiles() as u64;
    ledger.register(
        "edram",
        ComponentSpec::static_only(p::EDRAM.power_w, p::EDRAM.area_mm2),
        tile,
    );
    ledger.register(
        "io",
        ComponentSpec::static_only(p::IO_INTERFACE.power_w, p::IO_INTERFACE.area_mm2),
        tile,
    );
    ledger.register(
        "router",
        ComponentSpec::static_only(p::ROUTER.power_w, p::ROUTER.area_mm2),
        tile,
    );
    ledger.register(
        "bus",
        ComponentSpec::static_only(p::BUS.power_w, p::BUS.area_mm2),
        tile,
    );
    ledger.register(
        "activation",
        dynamic_spec(p::ACTIVATION_UNIT.power_w, p::ACTIVATION_UNIT.latency),
        tile,
    );
    ledger.register(
        "pooling",
        dynamic_spec(p::POOLING_UNIT.power_w, p::POOLING_UNIT.latency),
        tile,
    );
    ledger.register(
        "reduction",
        dynamic_spec(p::REDUCTION_NETWORK.power_w, p::REDUCTION_NETWORK.latency),
        cfg.tiles() as u64,
    );

    match cfg.kind {
        AcceleratorKind::Sconna => {
            // Serializer energy per OSM per pass, derated by switching
            // activity.
            let ser = ComponentSpec {
                static_power_w: 0.0,
                energy_per_op_j: p::SERIALIZER.power_w
                    * cfg.symbol_time.as_secs_f64()
                    * SERIALIZER_ACTIVITY,
                area_mm2: p::SERIALIZER.area_mm2,
                latency: p::SERIALIZER.latency,
            };
            ledger.register("serializer", ser, (cfg.total_vdpes as u64) * n);
            ledger.register(
                "osm-lut",
                dynamic_spec(p::OSM_LUT.power_w, p::OSM_LUT.latency),
                (cfg.total_vdpes as u64) * n,
            );
            ledger.register(
                "pca-adc",
                dynamic_spec(p::SCONNA_ADC.power_w, p::SCONNA_ADC.latency),
                cfg.total_vdpes as u64,
            );
            ledger.register(
                "pca",
                ComponentSpec::static_only(p::PCA.power_w, p::PCA.area_mm2),
                2 * cfg.total_vdpes as u64,
            );
        }
        AcceleratorKind::Mam | AcceleratorKind::Amm => {
            ledger.register(
                "dac",
                dynamic_spec(p::ANALOG_DAC.power_w, p::ANALOG_DAC.latency),
                (cfg.total_vdpes as u64) * n,
            );
            ledger.register(
                "adc",
                dynamic_spec(p::ANALOG_ADC.power_w, p::ANALOG_ADC.latency),
                cfg.total_vdpes as u64,
            );
        }
    }
}

/// The dynamic operations of one batched inference (analyzed as
/// `layers`), as `(component class, ops)` pairs over the classes
/// [`register_components`] registers for `cfg`'s accelerator kind.
pub fn inference_ops(
    cfg: &AcceleratorConfig,
    layers: &[LayerPerf],
    model: &CnnModel,
    batch: usize,
) -> Vec<(&'static str, u64)> {
    let n = cfg.vdpe_size_n as u64;
    let total_passes: u64 = layers.iter().map(|l| l.passes).sum();
    let total_psum_adds: u64 = layers.iter().map(|l| l.psum_adds).sum();
    let total_reprograms: u64 = layers.iter().map(|l| l.reprogram_events).sum();
    let total_outputs: u64 = model
        .workloads
        .iter()
        .map(|w| (w.kernels * w.ops_per_kernel) as u64)
        .sum::<u64>()
        * batch as u64;

    let mut ops = vec![
        ("activation", total_outputs),
        ("pooling", total_outputs / 4),
        ("reduction", total_psum_adds),
    ];
    match cfg.kind {
        AcceleratorKind::Sconna => ops.extend([
            ("serializer", total_passes * n),
            ("osm-lut", total_passes * n),
            ("pca-adc", total_passes),
        ]),
        AcceleratorKind::Mam | AcceleratorKind::Amm => {
            // DIV DACs: MAM shares one DIV block per VDPC; AMM drives one
            // per VDPE.
            let div_dac_ops = if cfg.kind == AcceleratorKind::Mam {
                total_passes * n / cfg.vdpes_per_vdpc() as u64
            } else {
                total_passes * n
            };
            ops.extend([
                ("dac", div_dac_ops + total_reprograms * n),
                ("adc", total_passes),
            ]);
        }
    }
    ops
}

/// Records the dynamic operations of one batched inference (analyzed as
/// `layers`, counted by [`inference_ops`]) on a ledger whose components
/// were registered with [`register_components`] for the same accelerator
/// kind.
pub fn record_inference_ops(
    ledger: &mut EnergyLedger,
    cfg: &AcceleratorConfig,
    layers: &[LayerPerf],
    model: &CnnModel,
    batch: usize,
) {
    for (name, ops) in inference_ops(cfg, layers, model, batch) {
        ledger.record_ops(name, ops);
    }
}

/// Builds the energy ledger for an accelerator and records the dynamic
/// operations of an inference.
fn build_ledger(
    cfg: &AcceleratorConfig,
    layers: &[LayerPerf],
    model: &CnnModel,
    batch: usize,
) -> EnergyLedger {
    let mut ledger = EnergyLedger::new();
    register_components(&mut ledger, cfg);
    record_inference_ops(&mut ledger, cfg, layers, model, batch);
    ledger
}

fn dynamic_spec(power_w: f64, latency: SimTime) -> ComponentSpec {
    ComponentSpec {
        static_power_w: 0.0,
        energy_per_op_j: power_w * latency.as_secs_f64(),
        area_mm2: 0.0,
        latency,
    }
}

/// Runs one inference of `model` on `cfg` and returns the full
/// performance result.
pub fn simulate_inference(cfg: &AcceleratorConfig, model: &CnnModel) -> InferencePerf {
    simulate_inference_batched(cfg, model, 1)
}

/// Runs a batch of `batch` images layer-by-layer (all images of a layer
/// before moving on, amortizing weight programming) and reports
/// per-batch energy with FPS = batch / makespan.
pub fn simulate_inference_batched(
    cfg: &AcceleratorConfig,
    model: &CnnModel,
    batch: usize,
) -> InferencePerf {
    let layers: Vec<LayerPerf> = model
        .workloads
        .iter()
        .map(|w| analyze_layer_batched(cfg, w, batch))
        .collect();

    // Layers run back to back (each depends on the previous one).
    let makespan = layers.iter().fold(SimTime::ZERO, |acc, l| acc + l.total);

    let ledger = build_ledger(cfg, &layers, model, batch);
    let energy_breakdown_j = ledger.breakdown_j(makespan);
    let energy_j = ledger.total_energy_j(makespan);
    let avg_power_w = ledger.average_power_w(makespan);
    let fps = batch as f64 / makespan.as_secs_f64();
    let area_mm2 = cfg.total_area_mm2();
    let fps_per_w = fps / avg_power_w;

    InferencePerf {
        accelerator: cfg.name,
        model: model.name.clone(),
        makespan,
        fps,
        energy_j,
        avg_power_w,
        area_mm2,
        fps_per_w,
        fps_per_w_per_mm2: fps_per_w / area_mm2,
        layers,
        energy_breakdown_j,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sconna_tensor::models::{googlenet, mobilenet_v2, resnet50, shufflenet_v2};

    fn one_layer(s: usize, l: usize, p_: usize) -> VdpWorkload {
        VdpWorkload {
            layer: "t".into(),
            vector_len: s,
            kernels: l,
            ops_per_kernel: p_,
        }
    }

    #[test]
    fn sconna_layer_has_no_electronic_psums() {
        let cfg = AcceleratorConfig::sconna();
        let lp = analyze_layer(&cfg, &one_layer(4608, 512, 49));
        assert_eq!(lp.psum_adds, 0);
        assert_eq!(lp.psum, SimTime::ZERO);
        assert_eq!(lp.reprogram, SimTime::ZERO);
        // 512·49 outputs × 27 chunks passes.
        assert_eq!(lp.passes, 512 * 49 * 27);
    }

    #[test]
    fn analog_layer_pays_psums_and_reprogramming() {
        let cfg = AcceleratorConfig::mam();
        let lp = analyze_layer(&cfg, &one_layer(4608, 512, 49));
        let chunks = 210u64;
        assert_eq!(lp.psum_adds, 512 * 49 * chunks * 2);
        assert_eq!(lp.reprogram_events, 512 * chunks * 2);
        assert!(lp.psum > lp.compute, "psum reduction dominates analog");
        assert!(lp.reprogram > SimTime::ZERO);
    }

    #[test]
    fn model_reload_is_memory_bound_for_sconna_and_slower_for_analog() {
        let model = shufflenet_v2();
        let cfg = AcceleratorConfig::sconna();
        let sconna = model_reload_time(&cfg, &model);
        assert!(sconna > SimTime::ZERO);
        // SCONNA never reprograms DKVs (zero `dkv_reprogram`), so its
        // reload is exactly the weight traffic through the eDRAM ports.
        let memory_only = model.workloads.iter().fold(SimTime::ZERO, |acc, w| {
            let bytes = (w.kernels * w.vector_len) as f64;
            acc + SimTime::from_secs_f64(bytes / (cfg.vdpc_count() as f64 * p::EDRAM_BANDWIDTH_BPS))
        });
        assert_eq!(sconna, memory_only);
        // The analog baselines additionally pay cell-programming rounds.
        let mam = model_reload_time(&AcceleratorConfig::mam(), &model);
        assert!(mam > sconna);
    }

    #[test]
    fn warm_reload_is_free_for_sconna_and_reprogram_bound_for_analog() {
        let model = shufflenet_v2();
        // SCONNA keeps weights in pre-filled OSM LUTs — a warm restart
        // replays zero reprogramming rounds and costs nothing.
        let sconna = AcceleratorConfig::sconna();
        assert_eq!(model_warm_reload_time(&sconna, &model), SimTime::ZERO);
        // Analog baselines still pay full cell programming warm.
        let mam = AcceleratorConfig::mam();
        let warm = model_warm_reload_time(&mam, &model);
        assert!(warm > SimTime::ZERO);
        // Warm skips the memory term and can never exceed cold.
        for cfg in AcceleratorConfig::all() {
            assert!(
                model_warm_reload_time(&cfg, &model) <= model_reload_time(&cfg, &model),
                "{}",
                cfg.name
            );
        }
    }

    #[test]
    fn model_swap_is_near_zero_for_sconna_and_reprogram_bound_for_analog() {
        let model = shufflenet_v2();
        // SCONNA swaps by repointing OSM LUT banks: one LUT access per
        // layer, regardless of model size — nonzero but vanishing next
        // to any reload.
        let sconna = AcceleratorConfig::sconna();
        let s = model_swap_time(&sconna, &model);
        assert!(s > SimTime::ZERO, "bank repointing is not free");
        assert_eq!(
            s,
            SimTime::from_ps(p::OSM_LUT.latency.as_ps() * model.workloads.len() as u64)
        );
        // Analog swaps replay cell programming: exactly the warm-reload
        // cost, since staged weight bytes skip the eDRAM traffic.
        let mam_cfg = AcceleratorConfig::mam();
        let m = model_swap_time(&mam_cfg, &model);
        assert_eq!(m, model_warm_reload_time(&mam_cfg, &model));
        // The paper's asymmetry as a multi-tenancy number: the analog
        // swap dwarfs SCONNA's by orders of magnitude.
        assert!(
            m > SimTime::from_ps(100 * s.as_ps()),
            "MAM swap {m} must dwarf SCONNA swap {s}"
        );
        // Pin against the reload ladder: swap <= cold reload everywhere.
        for cfg in AcceleratorConfig::all() {
            assert!(
                model_swap_time(&cfg, &model) <= model_reload_time(&cfg, &model),
                "{}: a swap of staged weights cannot exceed a cold reload",
                cfg.name
            );
        }
    }

    #[test]
    fn small_vector_needs_single_chunk_everywhere() {
        // Depthwise S = 9 fits every VDPE: no psum adds beyond the slice
        // combine for analog, no chunk splitting for SCONNA.
        for cfg in AcceleratorConfig::all() {
            let lp = analyze_layer(&cfg, &one_layer(9, 96, 196));
            assert_eq!(lp.passes, 96 * 196 * cfg.bit_slices as u64, "{}", cfg.name);
        }
    }

    #[test]
    fn sconna_beats_analog_on_resnet50() {
        let model = resnet50();
        let s = simulate_inference(&AcceleratorConfig::sconna(), &model);
        let m = simulate_inference(&AcceleratorConfig::mam(), &model);
        let a = simulate_inference(&AcceleratorConfig::amm(), &model);
        assert!(s.fps > 10.0 * m.fps, "SCONNA {} vs MAM {}", s.fps, m.fps);
        assert!(m.fps > a.fps, "MAM must beat AMM");
    }

    #[test]
    fn fig9_shape_gmean_ratios() {
        // The headline reproduction bar (ARCHITECTURE.md, "Substitutions
        // and calibrations"): SCONNA/MAM gmean FPS ratio within 2x of the
        // paper's 66.5x, SCONNA/AMM within 2x of 146.4x, and MAM > AMM.
        let models = [googlenet(), resnet50(), mobilenet_v2(), shufflenet_v2()];
        let ratio = |a: &AcceleratorConfig, b: &AcceleratorConfig| {
            let rs: Vec<f64> = models
                .iter()
                .map(|m| simulate_inference(a, m).fps / simulate_inference(b, m).fps)
                .collect();
            sconna_sim::stats::gmean(&rs)
        };
        let sconna = AcceleratorConfig::sconna();
        let mam = AcceleratorConfig::mam();
        let amm = AcceleratorConfig::amm();
        let s_over_m = ratio(&sconna, &mam);
        let s_over_a = ratio(&sconna, &amm);
        assert!(
            s_over_m > 33.0 && s_over_m < 133.0,
            "SCONNA/MAM gmean {s_over_m} vs paper 66.5"
        );
        assert!(
            s_over_a > 73.0 && s_over_a < 293.0,
            "SCONNA/AMM gmean {s_over_a} vs paper 146.4"
        );
        assert!(s_over_a > s_over_m, "AMM must lose by more than MAM");
    }

    #[test]
    fn gains_larger_on_big_cnns_than_depthwise_cnns() {
        // Section VI-C: improvements are more evident for GoogleNet /
        // ResNet50 than for MobileNet_V2 / ShuffleNet_V2.
        let sconna = AcceleratorConfig::sconna();
        let mam = AcceleratorConfig::mam();
        let r = |m: &CnnModel| simulate_inference(&sconna, m).fps / simulate_inference(&mam, m).fps;
        let big = sconna_sim::stats::gmean(&[r(&googlenet()), r(&resnet50())]);
        let small = sconna_sim::stats::gmean(&[r(&mobilenet_v2()), r(&shufflenet_v2())]);
        assert!(
            big > small,
            "big-CNN ratio {big} vs small-CNN ratio {small}"
        );
    }

    #[test]
    fn energy_efficiency_favors_sconna() {
        let model = googlenet();
        let s = simulate_inference(&AcceleratorConfig::sconna(), &model);
        let m = simulate_inference(&AcceleratorConfig::mam(), &model);
        assert!(
            s.fps_per_w > 10.0 * m.fps_per_w,
            "SCONNA {} vs MAM {} FPS/W",
            s.fps_per_w,
            m.fps_per_w
        );
        // Area efficiency tracks energy efficiency (areas matched).
        assert!(s.fps_per_w_per_mm2 > 10.0 * m.fps_per_w_per_mm2);
    }

    #[test]
    fn makespan_is_sum_of_layer_times() {
        let cfg = AcceleratorConfig::sconna();
        let model = shufflenet_v2();
        let perf = simulate_inference(&cfg, &model);
        let sum: u64 = perf.layers.iter().map(|l| l.total.as_ps()).sum();
        assert_eq!(perf.makespan.as_ps(), sum);
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use sconna_tensor::models::{googlenet, resnet50};

    #[test]
    fn batching_amortizes_analog_reprogramming() {
        let cfg = AcceleratorConfig::mam();
        let model = resnet50();
        let b1 = simulate_inference_batched(&cfg, &model, 1);
        let b64 = simulate_inference_batched(&cfg, &model, 64);
        // Reprogramming is paid once per layer, so per-frame throughput
        // improves with batch size.
        assert!(
            b64.fps > 1.1 * b1.fps,
            "batch-64 FPS {} vs batch-1 {}",
            b64.fps,
            b1.fps
        );
    }

    #[test]
    fn sconna_batching_is_nearly_flat() {
        // SCONNA has no reprogramming to amortize: only the per-layer
        // pipeline fill and weight fetch amortize, so FPS moves little.
        let cfg = AcceleratorConfig::sconna();
        let model = googlenet();
        let b1 = simulate_inference_batched(&cfg, &model, 1);
        let b64 = simulate_inference_batched(&cfg, &model, 64);
        let ratio = b64.fps / b1.fps;
        assert!(
            (0.9..1.6).contains(&ratio),
            "SCONNA batch-64/batch-1 FPS ratio {ratio}"
        );
    }

    #[test]
    fn sconna_still_wins_at_large_batch() {
        // The analog psum traffic scales with the batch, so amortization
        // cannot close the gap (the paper's advantage is structural).
        let model = resnet50();
        let s = simulate_inference_batched(&AcceleratorConfig::sconna(), &model, 128);
        let m = simulate_inference_batched(&AcceleratorConfig::mam(), &model, 128);
        assert!(s.fps > 10.0 * m.fps, "SCONNA {} vs MAM {}", s.fps, m.fps);
    }

    #[test]
    fn batch_one_matches_unbatched_api() {
        let cfg = AcceleratorConfig::amm();
        let model = googlenet();
        let a = simulate_inference(&cfg, &model);
        let b = simulate_inference_batched(&cfg, &model, 1);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
    }

    #[test]
    fn fig9_batched_makespan_and_fps_are_pinned() {
        // The four Fig. 9 models on the three accelerators at batch 1
        // and 8, pinned to the picosecond and the bit: a refactor of how
        // layer times add up must move none of them.
        use sconna_tensor::models::{mobilenet_v2, shufflenet_v2};
        let pins: [(&str, u64, u64); 24] = [
            ("GoogleNet SCONNA 1", 94_184_443, 0x40c4_bcbb_7bb1_4e4b),
            ("GoogleNet SCONNA 8", 704_699_775, 0x40c6_2c2d_12fa_f55b),
            ("GoogleNet MAM 1", 10_982_213_120, 0x4056_c39a_e0bf_7227),
            ("GoogleNet MAM 8", 80_264_034_995, 0x4058_eaf2_59fb_e8d6),
            ("GoogleNet AMM 1", 14_461_947_495, 0x4051_4968_207c_14a0),
            ("GoogleNet AMM 8", 100_339_666_245, 0x4053_eeaa_ff62_4148),
            ("ResNet50 SCONNA 1", 249_463_587, 0x40af_5133_be83_cbc6),
            ("ResNet50 SCONNA 8", 1_901_878_536, 0x40b0_6e5e_1251_1741),
            ("ResNet50 MAM 1", 29_059_647_560, 0x4041_34bb_bfa6_e29e),
            ("ResNet50 MAM 8", 206_792_366_310, 0x4043_57d3_af04_bb73),
            ("ResNet50 AMM 1", 39_554_610_060, 0x4039_4810_97a6_21ac),
            ("ResNet50 AMM 8", 257_720_025_685, 0x403f_0a9b_a158_1aef),
            ("MobileNet_V2 SCONNA 1", 66_243_043, 0x40cd_7bf6_61ff_6341),
            ("MobileNet_V2 SCONNA 8", 491_680_308, 0x40cf_c75e_14bb_f1d0),
            ("MobileNet_V2 MAM 1", 3_411_046_795, 0x4072_52a4_6665_9853),
            ("MobileNet_V2 MAM 8", 19_463_168_670, 0x4079_b086_32c1_86fa),
            ("MobileNet_V2 AMM 1", 4_473_003_045, 0x406b_f207_cbc3_76f3),
            ("MobileNet_V2 AMM 8", 21_323_606_170, 0x4077_72bc_acdc_8e8c),
            ("ShuffleNet_V2 SCONNA 1", 22_616_885, 0x40e5_96d8_1e67_ebc7),
            ("ShuffleNet_V2 SCONNA 8", 150_025_183, 0x40ea_098c_302c_e124),
            ("ShuffleNet_V2 MAM 1", 2_174_456_105, 0x407c_be29_7051_7fcd),
            ("ShuffleNet_V2 MAM 8", 9_004_965_480, 0x408b_c330_9f66_ea3d),
            ("ShuffleNet_V2 AMM 1", 2_901_027_980, 0x4075_8b49_4dcd_8fd7),
            ("ShuffleNet_V2 AMM 8", 10_796_890_480, 0x4087_27a1_f225_adae),
        ];
        let mut pins = pins.iter();
        for model in [googlenet(), resnet50(), mobilenet_v2(), shufflenet_v2()] {
            for (cfg, kind) in [
                (AcceleratorConfig::sconna(), "SCONNA"),
                (AcceleratorConfig::mam(), "MAM"),
                (AcceleratorConfig::amm(), "AMM"),
            ] {
                for batch in [1usize, 8] {
                    let &(label, makespan_ps, fps_bits) = pins.next().unwrap();
                    assert_eq!(label, format!("{} {kind} {batch}", model.name));
                    let perf = simulate_inference_batched(&cfg, &model, batch);
                    assert_eq!(perf.makespan.as_ps(), makespan_ps, "{label} makespan");
                    assert_eq!(perf.fps.to_bits(), fps_bits, "{label} fps");
                }
            }
        }
        assert!(pins.next().is_none());
    }

    #[test]
    fn batched_analysis_equals_batched_workload_helper() {
        // `analyze_layer_batched(cfg, w, b)` and the tensor-side helper
        // `analyze_layer(cfg, &w.batched(b))` describe the same
        // weight-stationary mapping, so every derived quantity must agree
        // exactly — the serving scheduler relies on this equivalence.
        let w = VdpWorkload {
            layer: "t".into(),
            vector_len: 4608,
            kernels: 512,
            ops_per_kernel: 49,
        };
        for cfg in AcceleratorConfig::all() {
            for batch in [1usize, 2, 7, 16, 64] {
                assert_eq!(
                    analyze_layer_batched(&cfg, &w, batch),
                    analyze_layer(&cfg, &w.batched(batch)),
                    "{} batch {batch}",
                    cfg.name
                );
            }
        }
    }

    #[test]
    fn fleet_registration_accumulates_instances() {
        use sconna_sim::energy::EnergyLedger;
        let cfg = AcceleratorConfig::sconna();
        let mut one = EnergyLedger::new();
        register_components(&mut one, &cfg);
        let mut four = EnergyLedger::new();
        for _ in 0..4 {
            register_components(&mut four, &cfg);
        }
        assert!((four.static_power_w() - 4.0 * one.static_power_w()).abs() < 1e-9);
        assert!((four.total_area_mm2() - 4.0 * one.total_area_mm2()).abs() < 1e-9);
        // No dynamic work recorded yet.
        assert_eq!(four.dynamic_energy_j(), 0.0);
    }

    #[test]
    fn repeated_recording_scales_dynamic_energy() {
        // Recording the same inference twice on one ledger doubles its
        // dynamic energy — the serving path records once per dispatched
        // batch.
        let cfg = AcceleratorConfig::sconna();
        let model = googlenet();
        let layers: Vec<LayerPerf> = model
            .workloads
            .iter()
            .map(|w| analyze_layer_batched(&cfg, w, 4))
            .collect();
        let mut ledger = sconna_sim::energy::EnergyLedger::new();
        register_components(&mut ledger, &cfg);
        record_inference_ops(&mut ledger, &cfg, &layers, &model, 4);
        let once = ledger.dynamic_energy_j();
        record_inference_ops(&mut ledger, &cfg, &layers, &model, 4);
        assert!((ledger.dynamic_energy_j() - 2.0 * once).abs() < 1e-12 * once.abs().max(1.0));
    }
}
