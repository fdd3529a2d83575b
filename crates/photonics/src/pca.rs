//! Photo-Charge Accumulator (PCA) circuit — Section IV-C and Fig. 4(b).
//!
//! The PCA turns the optical product bit-streams of one output waveguide
//! arm into a binary VDP result in two stages:
//!
//! 1. **stochastic-to-analog:** a photodetector emits a current pulse per
//!    optical `1`; the pulse deposits charge on the capacitor of the
//!    active time-integrating-receiver (TIR), so the capacitor voltage is
//!    proportional to the ones count. Two TIRs ping-pong (demux/mux in
//!    Fig. 4(b)) so one can discharge while the other accumulates.
//! 2. **analog-to-binary:** an ADC digitizes the amplified capacitor
//!    voltage. The ADC is the PCA's only error source (Section V-C:
//!    mean absolute percentage error ≈ 1.3 %).

use rand::Rng;
use serde::{Deserialize, Serialize};

/// TIR + amplifier electrical parameters (Section V-C values as defaults).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PcaCircuit {
    /// Photodetector responsivity, A/W.
    pub responsivity_a_per_w: f64,
    /// Optical power of a logic `1` at the photodetector, watts.
    pub one_level_power_w: f64,
    /// Bit period of the incident streams, seconds.
    pub bit_period_s: f64,
    /// Integration capacitor, farads (paper: 250 pF).
    pub capacitance_f: f64,
    /// Voltage amplifier gain (paper: 80).
    pub amplifier_gain: f64,
    /// Amplifier output saturation voltage, volts.
    pub saturation_v: f64,
}

impl Default for PcaCircuit {
    fn default() -> Self {
        Self {
            responsivity_a_per_w: 1.2,
            one_level_power_w: crate::units::dbm_to_watts(-28.0),
            bit_period_s: 1.0 / 30e9,
            capacitance_f: 250e-12,
            amplifier_gain: 80.0,
            saturation_v: 1.2,
        }
    }
}

impl PcaCircuit {
    /// Charge deposited per optical `1`, coulombs.
    pub fn charge_per_one_c(&self) -> f64 {
        self.responsivity_a_per_w * self.one_level_power_w * self.bit_period_s
    }

    /// Amplifier output voltage after accumulating `ones` bits
    /// (saturating).
    pub fn output_voltage(&self, ones: u64) -> f64 {
        let v = self.amplifier_gain * ones as f64 * self.charge_per_one_c() / self.capacitance_f;
        v.min(self.saturation_v)
    }

    /// True if `ones` accumulates without touching saturation.
    pub fn is_linear_at(&self, ones: u64) -> bool {
        self.amplifier_gain * ones as f64 * self.charge_per_one_c() / self.capacitance_f
            < self.saturation_v
    }

    /// Full-scale ones capacity before saturation.
    pub fn capacity_ones(&self) -> u64 {
        (self.saturation_v * self.capacitance_f / (self.amplifier_gain * self.charge_per_one_c()))
            .floor() as u64
    }
}

/// Which TIR capacitor is accumulating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActiveCapacitor {
    /// Capacitor C1 integrates; C2 discharges.
    C1,
    /// Capacitor C2 integrates; C1 discharges.
    C2,
}

/// Dual-TIR ping-pong accumulator: one capacitor integrates the current
/// phase while the other discharges, hiding the discharge latency
/// (Fig. 4(b)).
#[derive(Debug, Clone)]
pub struct DualTir {
    circuit: PcaCircuit,
    active: ActiveCapacitor,
    ones: [u64; 2],
    phases_completed: u64,
}

impl DualTir {
    /// Creates a dual-TIR accumulator with C1 active.
    pub fn new(circuit: PcaCircuit) -> Self {
        Self {
            circuit,
            active: ActiveCapacitor::C1,
            ones: [0, 0],
            phases_completed: 0,
        }
    }

    /// Which capacitor is currently integrating.
    pub fn active(&self) -> ActiveCapacitor {
        self.active
    }

    /// Accumulates `ones` optical `1`s onto the active capacitor.
    pub fn accumulate(&mut self, ones: u64) {
        self.ones[self.idx()] += ones;
    }

    /// Current amplifier output voltage of the active capacitor.
    pub fn voltage(&self) -> f64 {
        self.circuit.output_voltage(self.ones[self.idx()])
    }

    /// Ends the accumulation phase: returns the final ones count, swaps
    /// capacitors (the finished one starts discharging) and immediately
    /// allows the next phase to accumulate — zero stall.
    pub fn end_phase(&mut self) -> u64 {
        let result = self.ones[self.idx()];
        self.ones[self.idx()] = 0; // discharge
        self.active = match self.active {
            ActiveCapacitor::C1 => ActiveCapacitor::C2,
            ActiveCapacitor::C2 => ActiveCapacitor::C1,
        };
        self.phases_completed += 1;
        result
    }

    /// Number of completed accumulation phases.
    pub fn phases_completed(&self) -> u64 {
        self.phases_completed
    }

    fn idx(&self) -> usize {
        match self.active {
            ActiveCapacitor::C1 => 0,
            ActiveCapacitor::C2 => 1,
        }
    }
}

/// ADC model for the PCA's analog-to-binary stage: mid-tread uniform
/// quantization over the full-scale count plus a multiplicative
/// input-referred noise term, calibrated so the end-to-end MAPE over the
/// paper's operating distribution is ≈ 1.3 % (Section V-C).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AdcModel {
    /// Resolution, bits (Table IV: 8-bit SAR-flash).
    pub bits: u8,
    /// Full-scale input in ones-count units (`N · 2^B` for a SCONNA
    /// VDPE).
    pub full_scale_ones: u64,
    /// Standard deviation of the multiplicative noise.
    pub relative_noise_sigma: f64,
}

/// Calibrated noise sigma reproducing the paper's 1.3 % MAPE (see
/// `measured MAPE` test below).
pub const DEFAULT_ADC_NOISE_SIGMA: f64 = 0.0145;

/// The two uniforms of one Box-Muller draw, `u1 ∈ [ε, 1)` and
/// `u2 ∈ [0, 1)`, in the order every conversion path consumes them.
/// Box-Muller from uniforms keeps us off `rand_distr` (not in the
/// sanctioned dependency set).
fn box_muller_uniforms<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (u1, u2)
}

/// Box-Muller radius `sqrt(−2 ln u1)`.
fn radius(u1: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt()
}

/// Box-Muller angle `2π · u2`.
fn angle(u2: f64) -> f64 {
    2.0 * std::f64::consts::PI * u2
}

/// The Box-Muller transform: two independent standard Gaussians
/// (`r·cos θ`, `r·sin θ`) from the two uniforms. The single transform
/// behind [`AdcModel::convert`], [`AdcModel::convert_pair_reference`] and
/// the fallback of [`AdcModel::convert_pair`], so the MAPE calibration,
/// the oracle and the inference hot path can never drift apart.
fn box_muller(u1: f64, u2: f64) -> (f64, f64) {
    let r = radius(u1);
    let (sin_t, cos_t) = angle(u2).sin_cos();
    (r * cos_t, r * sin_t)
}

/// One Box-Muller draw from `rng`, always through the transform: the
/// sampler of [`AdcModel::convert`] and the oracle
/// [`AdcModel::convert_pair_reference`].
fn gaussian_pair<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    let (u1, u2) = box_muller_uniforms(rng);
    box_muller(u1, u2)
}

/// Buckets per Box-Muller uniform in [`BoxMullerBounds`]. A power of two
/// (so bucketing is exact) and at least 4 (so no bucket holds an
/// extremum of `cos` or `sin` inside it).
const BUCKETS: usize = 1024;
const _: () = assert!(BUCKETS.is_power_of_two() && BUCKETS >= 4);

/// Absolute slack on every tabulated bound: far above libm's few-ulp
/// error on `ln`, `sin` and `cos` (≤ 1e-14 at these magnitudes), far
/// below the width of one ADC code.
const SLACK: f64 = 1e-12;

/// Per-bucket bounds of the Box-Muller factors, so a conversion can be
/// certified from its uniforms alone (see [`AdcModel::convert_pair`]).
/// Bucket `i` of a uniform covers `[i, i + 1) / BUCKETS`. 48 KB, built
/// once per process.
struct BoxMullerBounds {
    /// `[lo, hi]` of [`radius`] per `u1` bucket.
    radius: Vec<[f64; 2]>,
    /// `[cos lo, cos hi, sin lo, sin hi]` of [`angle`] per `u2` bucket.
    trig: Vec<[f64; 4]>,
}

impl BoxMullerBounds {
    fn get() -> &'static Self {
        static TABLE: std::sync::OnceLock<BoxMullerBounds> = std::sync::OnceLock::new();
        TABLE.get_or_init(Self::build)
    }

    /// `ln` at the bucket ends ∓ [`SLACK`] bounds `ln u1` (upper bound
    /// clamped at 0); `sqrt` is correctly rounded, hence monotone. `cos`
    /// and `sin` are monotone within a bucket — their extrema, at
    /// `u2 = k/4`, sit on bucket edges — so their values at
    /// `angle(lo)` and `angle(hi)`, widened by [`SLACK`] and clamped to
    /// `[−1, 1]`, bound them.
    fn build() -> Self {
        let edge = |i: usize| i as f64 / BUCKETS as f64;
        let radius = (0..BUCKETS)
            .map(|i| {
                let ln_lo = edge(i).max(f64::EPSILON).ln() - SLACK;
                let ln_hi = (edge(i + 1).ln() + SLACK).min(0.0);
                [(-2.0 * ln_hi).sqrt(), (-2.0 * ln_lo).sqrt()]
            })
            .collect();
        let trig = (0..BUCKETS)
            .map(|i| {
                let (sin_a, cos_a) = angle(edge(i)).sin_cos();
                let (sin_b, cos_b) = angle(edge(i + 1)).sin_cos();
                let bound =
                    |x: f64, y: f64| [(x.min(y) - SLACK).max(-1.0), (x.max(y) + SLACK).min(1.0)];
                let ([cos_lo, cos_hi], [sin_lo, sin_hi]) =
                    (bound(cos_a, cos_b), bound(sin_a, sin_b));
                [cos_lo, cos_hi, sin_lo, sin_hi]
            })
            .collect();
        Self { radius, trig }
    }

    /// Bucket of a uniform in `[0, 1)` (exact: `BUCKETS` is a power of
    /// two). Through `i64`, which converts in one instruction on baseline
    /// x86-64; the index is bounds-checked.
    fn bucket(u: f64) -> usize {
        (u * BUCKETS as f64) as i64 as usize
    }

    /// Largest tabulated radius: `|g| ≤ r_max` for every draw.
    fn r_max(&self) -> f64 {
        self.radius[0][1]
    }
}

impl AdcModel {
    /// The paper's PCA ADC: 8-bit over a 176×256 full scale.
    pub fn sconna_default() -> Self {
        Self {
            bits: 8,
            full_scale_ones: 176 * 256,
            relative_noise_sigma: DEFAULT_ADC_NOISE_SIGMA,
        }
    }

    /// Quantization step in ones-count units.
    pub fn step_ones(&self) -> f64 {
        self.full_scale_ones as f64 / (1u64 << self.bits) as f64
    }

    /// Noiseless conversion: count → code → reconstructed count.
    pub fn quantize(&self, ones: f64) -> f64 {
        let step = self.step_ones();
        let code = (ones / step)
            .round()
            .clamp(0.0, ((1u64 << self.bits) - 1) as f64);
        code * step
    }

    /// The noisy reading of `ones` under standard Gaussian `gauss`.
    fn noisy(&self, ones: f64, gauss: f64) -> f64 {
        self.quantize(ones * (1.0 + self.relative_noise_sigma * gauss))
    }

    /// Full conversion with noise: samples a Gaussian multiplicative
    /// error, then quantizes.
    pub fn convert<R: Rng + ?Sized>(&self, ones: f64, rng: &mut R) -> f64 {
        self.noisy(ones, gaussian_pair(rng).0)
    }

    /// Converts the two rail counts of one VDPE chunk with a single
    /// Box-Muller draw: the `cos` and `sin` projections of one `(r, θ)`
    /// pair are independent standard Gaussians, so the positive and
    /// negative rails get independent noise from one pair of uniforms.
    ///
    /// Bit-identical to [`AdcModel::convert_pair_reference`], but most
    /// calls skip the transform: the uniforms' buckets bound each rail's
    /// Gaussian to an interval, and when every value in it maps to one
    /// ADC code (see `certify_pair`) that code is the answer. Otherwise
    /// the same Box-Muller transform runs exactly.
    pub fn convert_pair<R: Rng + ?Sized>(&self, pos: f64, neg: f64, rng: &mut R) -> (f64, f64) {
        let (u1, u2) = box_muller_uniforms(rng);
        self.certify_pair(pos, neg, u1, u2).unwrap_or_else(|| {
            let (g0, g1) = box_muller(u1, u2);
            (self.noisy(pos, g0), self.noisy(neg, g1))
        })
    }

    /// [`AdcModel::convert_pair`] through the plain Box-Muller transform,
    /// with no certification: the oracle the certified path is tested
    /// against, bit for bit.
    pub fn convert_pair_reference<R: Rng + ?Sized>(
        &self,
        pos: f64,
        neg: f64,
        rng: &mut R,
    ) -> (f64, f64) {
        let (g0, g1) = gaussian_pair(rng);
        (self.noisy(pos, g0), self.noisy(neg, g1))
    }

    /// Both rails' codes from the uniforms' buckets alone, or `None` when
    /// either rail needs the exact Gaussian. Every f64 op in
    /// `quantize(x · (1 + σ·g))` is monotone in `g` (for `σ ≥ 0`, `x ≥ 0`
    /// and `1 + σ·g > 0`), so when both ends of the bucket's `g` interval
    /// give one code, the exact `g` gives it too. Outside that range —
    /// negative or NaN `σ`, `σ · r_max ≥ 1`, a degenerate step — the
    /// caller takes the exact path.
    pub(crate) fn certify_pair(&self, pos: f64, neg: f64, u1: f64, u2: f64) -> Option<(f64, f64)> {
        let sigma = self.relative_noise_sigma;
        let step = self.step_ones();
        let table = BoxMullerBounds::get();
        if !(sigma >= 0.0 && sigma * table.r_max() < 1.0 && step.is_finite() && step > 0.0) {
            return None;
        }
        let [r_lo, r_hi] = table.radius[BoxMullerBounds::bucket(u1)];
        let [cos_lo, cos_hi, sin_lo, sin_hi] = table.trig[BoxMullerBounds::bucket(u2)];
        let max_code = ((1u64 << self.bits) - 1) as f64;
        // One rail under `c ∈ [c_lo, c_hi]`: whether it is certified, and
        // its reading if so. Both rails are evaluated before either is
        // tested, so the common case takes no branch.
        let rail = |x: f64, c_lo: f64, c_hi: f64| {
            // g = r·c with r ≥ 0: monotone in r for fixed c, increasing in c.
            let g_lo = (r_lo * c_lo).min(r_hi * c_lo);
            let g_hi = (r_lo * c_hi).max(r_hi * c_hi);
            // `quantize`'s operation order, at both ends of the interval.
            let v_lo = x * (1.0 + sigma * g_lo) / step;
            let v_hi = x * (1.0 + sigma * g_hi) / step;
            // Truncation, not `f64::round` (a libm call on baseline
            // x86-64); through `i64`, which converts in one instruction
            // there. Strict bounds exclude ties. The sign test rejects
            // negative readings and `−0.0`, whose code keeps its sign.
            let m = (v_lo + 0.5) as i64 as f64;
            let certified = v_lo.is_sign_positive() & (m - 0.5 < v_lo) & (v_hi < m + 0.5);
            (certified, m.min(max_code) * step)
        };
        let (pos_ok, pos) = rail(pos, cos_lo, cos_hi);
        let (neg_ok, neg) = rail(neg, sin_lo, sin_hi);
        (pos_ok & neg_ok).then_some((pos, neg))
    }

    /// Monte-Carlo estimate of the MAPE over a count distribution drawn
    /// uniformly from `[lo, hi]` — the calibration harness for
    /// [`DEFAULT_ADC_NOISE_SIGMA`].
    pub fn measured_mape<R: Rng + ?Sized>(
        &self,
        lo: u64,
        hi: u64,
        samples: usize,
        rng: &mut R,
    ) -> f64 {
        let mut sum = 0.0;
        for _ in 0..samples {
            let truth = rng.gen_range(lo..=hi) as f64;
            let got = self.convert(truth, rng);
            sum += ((got - truth) / truth).abs();
        }
        100.0 * sum / samples as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn charge_per_one_magnitude() {
        // 1.2 A/W × 1.585 µW × 33.3 ps ≈ 63 aC.
        let q = PcaCircuit::default().charge_per_one_c();
        assert!((q - 6.34e-17).abs() / 6.34e-17 < 0.02, "q = {q:e}");
    }

    #[test]
    fn full_accumulation_stays_linear() {
        // Section V-C / Fig. 7(b): the full 176×256 ones accumulate
        // without saturating (the output is ~0.9 V at gain 80, C 250 pF).
        let c = PcaCircuit::default();
        let full = 176 * 256u64;
        assert!(c.is_linear_at(full));
        let v = c.output_voltage(full);
        assert!(v > 0.8 && v < 1.0, "full-scale voltage {v}");
    }

    #[test]
    fn voltage_linear_in_alpha() {
        // Fig. 7(b): V(α) is linear — check proportionality at quarter
        // points.
        let c = PcaCircuit::default();
        let full = 176 * 256u64;
        let v100 = c.output_voltage(full);
        for &(num, den) in &[(1u64, 4u64), (1, 2), (3, 4)] {
            let v = c.output_voltage(full * num / den);
            let expect = v100 * num as f64 / den as f64;
            assert!((v - expect).abs() < 1e-9, "alpha {num}/{den}");
        }
    }

    #[test]
    fn saturation_clamps() {
        let c = PcaCircuit::default();
        let v = c.output_voltage(u64::MAX / 1024);
        assert!((v - c.saturation_v).abs() < 1e-12);
        assert!(c.capacity_ones() > 176 * 256);
    }

    #[test]
    fn dual_tir_ping_pong() {
        let mut tir = DualTir::new(PcaCircuit::default());
        assert_eq!(tir.active(), ActiveCapacitor::C1);
        tir.accumulate(100);
        tir.accumulate(50);
        assert_eq!(tir.end_phase(), 150);
        assert_eq!(tir.active(), ActiveCapacitor::C2);
        // Next phase starts clean immediately (discharge hidden).
        tir.accumulate(7);
        assert_eq!(tir.end_phase(), 7);
        assert_eq!(tir.active(), ActiveCapacitor::C1);
        assert_eq!(tir.phases_completed(), 2);
        // C1 was discharged while C2 accumulated.
        tir.accumulate(1);
        assert_eq!(tir.end_phase(), 1);
    }

    #[test]
    fn adc_quantize_is_idempotent() {
        let adc = AdcModel::sconna_default();
        for ones in [0.0, 176.0, 1000.0, 20000.0, 45056.0] {
            let q = adc.quantize(ones);
            assert_eq!(adc.quantize(q), q);
        }
    }

    #[test]
    fn adc_quantization_error_bounded_by_half_step() {
        let adc = AdcModel::sconna_default();
        let step = adc.step_ones();
        for ones in (0..45056u64).step_by(997) {
            let err = (adc.quantize(ones as f64) - ones as f64).abs();
            assert!(err <= step / 2.0 + 1e-9, "ones={ones} err={err}");
        }
    }

    #[test]
    fn adc_mape_matches_paper_1_3_percent() {
        // Section V-C: ADC MAPE ≈ 1.3 % over the operating distribution
        // (counts above ~10 % of full scale; below that the VDP result is
        // dominated by psum accumulation anyway).
        let adc = AdcModel::sconna_default();
        let mut rng = StdRng::seed_from_u64(0x5C0 ^ 0x1234);
        let mape = adc.measured_mape(4506, 45056, 20000, &mut rng);
        assert!(
            (mape - 1.3).abs() < 0.25,
            "measured MAPE {mape:.3} % vs paper 1.3 %"
        );
    }

    #[test]
    fn adc_convert_deterministic_under_seed() {
        let adc = AdcModel::sconna_default();
        let a = adc.convert(20000.0, &mut StdRng::seed_from_u64(7));
        let b = adc.convert(20000.0, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn paired_conversion_matches_single_rail_statistics() {
        // Both projections of the shared Box-Muller draw must carry the
        // calibrated noise magnitude: each rail's MAPE over the operating
        // range has to match the paper's ≈ 1.3 % like the single-rail
        // path does.
        let adc = AdcModel::sconna_default();
        let mut rng = StdRng::seed_from_u64(0xADC);
        let (mut pos_err, mut neg_err) = (0.0f64, 0.0f64);
        let samples = 20_000;
        for _ in 0..samples {
            use rand::Rng;
            let p = rng.gen_range(4506u64..=45056) as f64;
            let n = rng.gen_range(4506u64..=45056) as f64;
            let (cp, cn) = adc.convert_pair(p, n, &mut rng);
            pos_err += ((cp - p) / p).abs();
            neg_err += ((cn - n) / n).abs();
        }
        let pos_mape = 100.0 * pos_err / samples as f64;
        let neg_mape = 100.0 * neg_err / samples as f64;
        assert!(
            (pos_mape - 1.3).abs() < 0.25,
            "pos rail MAPE {pos_mape:.3} %"
        );
        assert!(
            (neg_mape - 1.3).abs() < 0.25,
            "neg rail MAPE {neg_mape:.3} %"
        );
    }

    /// Replays fixed words, so both conversion paths see one draw.
    struct Replay([u64; 2], usize);

    impl rand::RngCore for Replay {
        fn next_u64(&mut self) -> u64 {
            self.1 += 1;
            self.0[self.1 - 1]
        }
    }

    #[test]
    fn box_muller_bounds_contain_every_bucket() {
        // libm's radius, cos and sin of every probed uniform must lie in
        // its bucket's bounds: each bucket's smallest and largest f64,
        // the draw's extremes ε and 1 − 2⁻⁵³, and seeded interior points.
        let table = BoxMullerBounds::get();
        let mut rng = StdRng::seed_from_u64(0xB0C);
        let mut probes = vec![f64::EPSILON, 1.0 - f64::EPSILON / 2.0];
        for i in 0..BUCKETS {
            let (lo, hi) = (i as f64 / BUCKETS as f64, (i + 1) as f64 / BUCKETS as f64);
            probes.extend([lo, hi.next_down()]);
            probes.extend((0..8).map(|_| rng.gen_range(lo..hi)));
        }
        let within = |x: f64, lo: f64, hi: f64| lo <= x && x <= hi;
        for u in probes {
            let b = BoxMullerBounds::bucket(u);
            if u >= f64::EPSILON {
                let [r_lo, r_hi] = table.radius[b];
                assert!(within(radius(u), r_lo, r_hi), "radius at u1 = {u:e}");
            }
            let [cos_lo, cos_hi, sin_lo, sin_hi] = table.trig[b];
            let (sin_t, cos_t) = angle(u).sin_cos();
            assert!(within(cos_t, cos_lo, cos_hi), "cos at u2 = {u:e}");
            assert!(within(sin_t, sin_lo, sin_hi), "sin at u2 = {u:e}");
        }
    }

    #[test]
    fn certified_pair_is_bit_identical_to_box_muller() {
        // A seeded sweep over ADC bits 4–12, σ from 0 to 0.1 (plus 0.2,
        // past the guard), full scales from tiny to 176·2^12, and rails
        // that are zero, uniform over full scale, exact half-code ties,
        // above full scale or negative zero. Draws are random words,
        // exact bucket edges or the extremes 0 and u64::MAX.
        let mut rng = StdRng::seed_from_u64(0xCE27);
        let (mut certified, mut fallback) = (0u64, 0u64);
        let sigmas = [0.0, 0.5, 1.0, 4.0].map(|m| m * DEFAULT_ADC_NOISE_SIGMA);
        for case in 0..1_000_000u32 {
            let sigma = match case % 8 {
                0..=3 => sigmas[case as usize % 4],
                4 | 5 => rng.gen_range(0.0..=0.1),
                6 => 0.1,
                _ => 0.2,
            };
            let adc = AdcModel {
                bits: rng.gen_range(4..=12),
                full_scale_ones: rng.gen_range(1..=176 << 12),
                relative_noise_sigma: sigma,
            };
            let step = adc.step_ones();
            let full = adc.full_scale_ones as f64;
            let mut rail = || match rng.gen_range(0..6) {
                0 => 0.0,
                1 => rng.gen_range(0..=adc.full_scale_ones) as f64,
                2 => (rng.gen_range(0..1u64 << adc.bits) as f64 + 0.5) * step,
                3 => full + rng.gen_range(0.0..=full),
                4 => -0.0,
                _ => rng.gen_range(0.0..=full),
            };
            let (pos, neg) = (rail(), rail());
            let mut word = || match rng.gen_range(0..8) {
                0 => rng.gen_range(0..BUCKETS as u64) << 54,
                1 => 0,
                2 => u64::MAX,
                _ => rng.gen_range(0..=u64::MAX),
            };
            let words = [word(), word()];
            let got = adc.convert_pair(pos, neg, &mut Replay(words, 0));
            let want = adc.convert_pair_reference(pos, neg, &mut Replay(words, 0));
            let bits = |(a, b): (f64, f64)| (a.to_bits(), b.to_bits());
            assert_eq!(
                bits(got),
                bits(want),
                "{adc:?} pos {pos} neg {neg} {words:?}"
            );
            let (u1, u2) = box_muller_uniforms(&mut Replay(words, 0));
            match adc.certify_pair(pos, neg, u1, u2) {
                Some(_) => certified += 1,
                None => fallback += 1,
            }
        }
        assert!(certified > 0 && fallback > 0, "{certified} / {fallback}");
    }

    #[test]
    fn paired_conversion_is_deterministic_and_independent_per_rail() {
        let adc = AdcModel::sconna_default();
        let a = adc.convert_pair(20000.0, 18000.0, &mut StdRng::seed_from_u64(7));
        let b = adc.convert_pair(20000.0, 18000.0, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
        // The two rails must not share one noise value: across a batch of
        // draws the multiplicative errors must differ somewhere.
        let mut rng = StdRng::seed_from_u64(9);
        let diverged = (0..64).any(|_| {
            let (p, n) = adc.convert_pair(30000.0, 30000.0, &mut rng);
            p != n
        });
        assert!(diverged, "rails always drew identical noise");
    }
}
