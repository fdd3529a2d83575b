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
}

impl DualTir {
    /// Creates a dual-TIR accumulator with C1 active.
    pub fn new(circuit: PcaCircuit) -> Self {
        Self {
            circuit,
            active: ActiveCapacitor::C1,
            ones: [0, 0],
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
        result
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

/// The two uniforms of one Box-Muller draw, `[u1, u2]` with
/// `u1 ∈ [ε, 1)` and `u2 ∈ [0, 1)`, as every conversion path consumes
/// them. Box-Muller keeps us off `rand_distr` (not in the sanctioned
/// dependency set).
#[inline]
pub fn box_muller_uniforms<R: Rng + ?Sized>(rng: &mut R) -> [f64; 2] {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    [u1, u2]
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
/// (`r·cos θ`, `r·sin θ`) from the two uniforms. Every conversion path
/// runs this one transform, so the MAPE calibration, the oracle and the
/// inference hot path can never drift apart.
fn box_muller([u1, u2]: [f64; 2]) -> (f64, f64) {
    let r = radius(u1);
    let (sin_t, cos_t) = angle(u2).sin_cos();
    (r * cos_t, r * sin_t)
}

/// Buckets per Box-Muller uniform in [`BoxMullerBounds`]: a power of two
/// (so bucketing is exact), at least 4 (so no bucket holds an extremum of
/// `cos` or `sin`). With rails at 10–100 % of full scale, 4096 leaves
/// ≈ 0.7 % of rail pairs to the exact transform, where 1024 would leave
/// ≈ 2.9 %.
const BUCKETS: usize = 4096;
const _: () = assert!(BUCKETS.is_power_of_two() && BUCKETS >= 4);

/// Absolute slack on every tabulated bound: far above libm's few-ulp
/// error on `ln`, `sin` and `cos` (≤ 1e-14 at these magnitudes), far
/// below the width of one ADC code.
const SLACK: f64 = 1e-12;

/// Per-bucket bounds of the Box-Muller factors, so a conversion can be
/// certified from its uniforms alone (see [`AdcModel::convert_pairs`]).
/// Bucket `i` of a uniform covers `[i, i + 1) / BUCKETS`. 192 KB, built
/// once per process.
struct BoxMullerBounds {
    /// `[lo, hi]` of [`radius`] per `u1` bucket.
    radius: Vec<[f64; 2]>,
    /// `[[cos lo, sin lo], [cos hi, sin hi]]` of [`angle`] per `u2` bucket.
    trig: Vec<[[f64; 2]; 2]>,
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
                [[cos_lo, sin_lo], [cos_hi, sin_hi]]
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
        self.noisy(ones, box_muller(box_muller_uniforms(rng)).0)
    }

    /// One rail pair's readings under one draw: the `cos` and `sin`
    /// projections of one `(r, θ)` are independent standard Gaussians.
    fn exact_pair(&self, [pos, neg]: [f64; 2], draw: [f64; 2]) -> [f64; 2] {
        let (g0, g1) = box_muller(draw);
        [self.noisy(pos, g0), self.noisy(neg, g1)]
    }

    /// Converts a batch of VDPE rail pairs in place: lane `i` holds the
    /// `[positive, negative]` ones counts of one chunk and is read under
    /// the Box-Muller uniforms `draw(i)`, which must be what
    /// [`box_muller_uniforms`] returns from lane `i`'s noise stream.
    ///
    /// Bit-identical, lane for lane, to [`AdcModel::convert_pair_reference`]
    /// on that stream, but most lanes skip the transform: the uniforms'
    /// buckets bound each rail's Gaussian, and when the whole interval
    /// maps to one ADC code (`Certifier::certify`) that code is the
    /// answer. The lanes that fail draw again and run the transform
    /// exactly; returns their number.
    pub fn convert_pairs(&self, rails: &mut [[f64; 2]], draw: impl Fn(usize) -> [f64; 2]) -> usize {
        let Some(certifier) = self.certifier() else {
            for (i, x) in rails.iter_mut().enumerate() {
                *x = self.exact_pair(*x, draw(i));
            }
            return rails.len();
        };
        let mut exact_lanes = 0;
        for (block, rails) in rails.chunks_mut(LANES).enumerate() {
            let first = block * LANES;
            let mut exact = certifier.certify(rails, |i| draw(first + i));
            exact_lanes += exact.count_ones() as usize;
            while exact != 0 {
                let i = exact.trailing_zeros() as usize;
                exact &= exact - 1;
                rails[i] = self.exact_pair(rails[i], draw(first + i));
            }
        }
        exact_lanes
    }

    /// One rail pair through the plain Box-Muller transform, with no
    /// certification: the oracle [`AdcModel::convert_pairs`] is tested
    /// against, bit for bit.
    pub fn convert_pair_reference<R: Rng + ?Sized>(
        &self,
        pos: f64,
        neg: f64,
        rng: &mut R,
    ) -> (f64, f64) {
        let [pos, neg] = self.exact_pair([pos, neg], box_muller_uniforms(rng));
        (pos, neg)
    }

    /// The lane-independent half of certification, or `None` when no
    /// lane can be certified: negative or NaN `σ`, `σ · r_max ≥ 1` (the
    /// noise factor `1 + σ·g` could reach 0), or a degenerate step.
    fn certifier(&self) -> Option<Certifier> {
        let table = BoxMullerBounds::get();
        let (sigma, step) = (self.relative_noise_sigma, self.step_ones());
        let max_code = ((1u64 << self.bits) - 1) as f64;
        let in_range =
            sigma >= 0.0 && sigma * table.r_max() < 1.0 && step.is_finite() && step > 0.0;
        in_range.then_some(Certifier {
            table,
            sigma,
            step,
            max_code,
        })
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

/// Lanes per [`Certifier::certify`] call, one bit each of its mask. At
/// 32 its scratch zeroing stays small against the lanes it serves.
const LANES: usize = 32;

/// The lane-independent part of certification, set up once per
/// [`AdcModel::convert_pairs`] call and already checked to be in range.
struct Certifier {
    table: &'static BoxMullerBounds,
    sigma: f64,
    step: f64,
    max_code: f64,
}

impl Certifier {
    /// Replaces each certified lane of up to [`LANES`] by its readings and
    /// returns the mask of lanes left for the exact transform. Every f64
    /// op in `quantize(x · (1 + σ·g))` is monotone in `g` (for `σ ≥ 0`,
    /// `x ≥ 0` and `1 + σ·g > 0`), so when both ends of a rail's `g`
    /// interval give one code, the exact `g` gives it too.
    fn certify(&self, rails: &mut [[f64; 2]], draw: impl Fn(usize) -> [f64; 2]) -> u64 {
        // Three passes with no data-dependent branch: the draws and table
        // lookups (scalar, where LLVM would otherwise vectorize the key
        // mixing with a slower emulated 64-bit multiply), the arithmetic
        // over the flat rails (it vectorizes), and the verdicts. Rail
        // `2i + j` is rail `j` of lane `i` in both arrays.
        let (mut g_lo, mut g_hi) = ([0.0f64; 2 * LANES], [0.0f64; 2 * LANES]);
        let intervals = g_lo.chunks_exact_mut(2).zip(g_hi.chunks_exact_mut(2));
        for (i, (lo, hi)) in intervals.take(rails.len()).enumerate() {
            let [u1, u2] = draw(i);
            let [r_lo, r_hi] = self.table.radius[BoxMullerBounds::bucket(u1)];
            let [c_lo, c_hi] = self.table.trig[BoxMullerBounds::bucket(u2)];
            // g = r·c with r ≥ 0: monotone in r for fixed c, increasing
            // in c. The products are finite, so `<` selects like `min`.
            for j in 0..2 {
                let (a, b) = (r_lo * c_lo[j], r_hi * c_lo[j]);
                lo[j] = if a < b { a } else { b };
                let (a, b) = (r_lo * c_hi[j], r_hi * c_hi[j]);
                hi[j] = if a > b { a } else { b };
            }
        }
        // In place: `g_lo` becomes each rail's reading, `g_hi` 1.0 where
        // the rail is certified and 0.0 where it is not.
        let (sigma, step, max_code) = (self.sigma, self.step, self.max_code);
        for ((&x, lo), hi) in rails.as_flattened().iter().zip(&mut g_lo).zip(&mut g_hi) {
            // `quantize`'s operation order, at both ends of the interval.
            let v_lo = x * (1.0 + sigma * *lo) / step;
            let v_hi = x * (1.0 + sigma * *hi) / step;
            // The integer nearest `v_lo`, by the 2^52 shifter: an integer
            // for any non-negative `v_lo` (below 2^52 the sum's spacing
            // is 1; above it every f64 is one). Strict bounds exclude
            // ties. The sign test rejects negative readings and `−0.0`,
            // whose code keeps its sign.
            const SHIFTER: f64 = (1u64 << 52) as f64;
            let m = (v_lo + SHIFTER) - SHIFTER;
            let pass = v_lo.is_sign_positive() & (m - 0.5 < v_lo) & (v_hi < m + 0.5);
            *lo = if m < max_code { m } else { max_code } * step;
            *hi = if pass { 1.0 } else { 0.0 };
        }
        let mut exact = 0u64;
        let verdicts = g_lo.chunks_exact(2).zip(g_hi.chunks_exact(2));
        for (i, (x, (reading, certified))) in rails.iter_mut().zip(verdicts).enumerate() {
            let pass = certified == [1.0, 1.0];
            exact |= u64::from(!pass) << i;
            *x = if pass { [reading[0], reading[1]] } else { *x };
        }
        exact
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
            let [cp, cn] = convert_one(&adc, [p, n], &mut rng);
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

    /// One rail pair through [`AdcModel::convert_pairs`], as a batch of
    /// one lane.
    fn convert_one<R: rand::RngCore>(adc: &AdcModel, x: [f64; 2], rng: &mut R) -> [f64; 2] {
        let (mut rails, draw) = ([x], box_muller_uniforms(rng));
        adc.convert_pairs(&mut rails, |_| draw);
        rails[0]
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
            let [[cos_lo, sin_lo], [cos_hi, sin_hi]] = table.trig[b];
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
                0 => rng.gen_range(0..BUCKETS as u64) << (64 - BUCKETS.ilog2()),
                1 => 0,
                2 => u64::MAX,
                _ => rng.gen_range(0..=u64::MAX),
            };
            let words = [word(), word()];
            let mut got = [[pos, neg]];
            let exact = adc.convert_pairs(&mut got, |_| box_muller_uniforms(&mut Replay(words, 0)));
            let want = adc.convert_pair_reference(pos, neg, &mut Replay(words, 0));
            assert_eq!(
                got[0].map(f64::to_bits),
                [want.0.to_bits(), want.1.to_bits()],
                "{adc:?} pos {pos} neg {neg} {words:?}"
            );
            match exact {
                0 => certified += 1,
                _ => fallback += 1,
            }
        }
        assert!(certified > 0 && fallback > 0, "{certified} / {fallback}");
    }

    /// Uniform words whose `u1` falls in bucket 0, whose radius bounds
    /// are wide enough that almost no rail certifies.
    fn bucket0_word(rng: &mut StdRng) -> u64 {
        rng.gen_range(0..1u64 << (64 - BUCKETS.ilog2()))
    }

    proptest::proptest! {
        #[test]
        fn prop_batch_matches_reference_lane_for_lane(
            shape in (0usize..6, 0usize..5, 0usize..4),
            seed in 0u64..u64::MAX,
        ) {
            // Lane counts around the 64-lane mask width; σ at 0, 1× and
            // 4× the default, negative and NaN; a zero full scale (the
            // step degenerates) or a random one; rails at 0, at full
            // scale, above it, on half-code ties or anywhere in range;
            // lanes whose `u1` sits in bucket 0 interleaved with the rest.
            let (lanes_i, sigma_i, scale_i) = shape;
            let lanes = [0, 1, 31, 32, 33, 64][lanes_i];
            let sigma = [1.0, 0.0, 4.0, -1.0, f64::NAN][sigma_i] * DEFAULT_ADC_NOISE_SIGMA;
            let mut rng = StdRng::seed_from_u64(seed);
            let adc = AdcModel {
                bits: 8,
                full_scale_ones: if scale_i == 0 { 0 } else { rng.gen_range(1..=176 * 256) },
                relative_noise_sigma: sigma,
            };
            let (full, step) = (adc.full_scale_ones as f64, adc.step_ones());
            let rail = |rng: &mut StdRng| match rng.gen_range(0..5) {
                0 => 0.0,
                1 => full,
                2 => full + rng.gen_range(1..=1 + adc.full_scale_ones) as f64,
                3 => (rng.gen_range(0..256u64) as f64 + 0.5) * step,
                _ => rng.gen_range(0..=adc.full_scale_ones) as f64,
            };
            let rails: Vec<[f64; 2]> = (0..lanes).map(|_| [rail(&mut rng), rail(&mut rng)]).collect();
            let words: Vec<[u64; 2]> = (0..lanes)
                .map(|i| match i % 2 {
                    0 => [bucket0_word(&mut rng), rng.gen_range(0..=u64::MAX)],
                    _ => [rng.gen_range(0..=u64::MAX), rng.gen_range(0..=u64::MAX)],
                })
                .collect();
            let draws: Vec<[f64; 2]> =
                words.iter().map(|&w| box_muller_uniforms(&mut Replay(w, 0))).collect();
            let mut got = rails.clone();
            let exact = adc.convert_pairs(&mut got, |i| draws[i]);
            let mut exact_one_by_one = 0;
            for (i, (&[pos, neg], &w)) in rails.iter().zip(&words).enumerate() {
                let (want_pos, want_neg) = adc.convert_pair_reference(pos, neg, &mut Replay(w, 0));
                proptest::prop_assert_eq!(
                    got[i].map(f64::to_bits),
                    [want_pos.to_bits(), want_neg.to_bits()],
                    "lane {} of {}: {:?} rails {:?} words {:?}", i, lanes, adc, rails[i], w
                );
                exact_one_by_one += adc.convert_pairs(&mut [rails[i]], |_| draws[i]);
            }
            // Batching changes no lane's verdict, and a model outside the
            // certifiable range sends every lane to the exact transform.
            proptest::prop_assert_eq!(exact, exact_one_by_one);
            if sigma < 0.0 || sigma.is_nan() || scale_i == 0 {
                proptest::prop_assert_eq!(exact, lanes);
            }
        }
    }

    #[test]
    fn certify_share_stays_above_99_percent() {
        // The exact-lane count comes from `convert_pairs` itself, so a
        // change that quietly sends lanes to the exact transform fails
        // here rather than only slowing the benchmark. Range-matched
        // S = 9 and full N = 176 models, rails at 10–100 % of full scale.
        let mut rng = StdRng::seed_from_u64(0xCE27_5A4E);
        for len in [9u64, 176] {
            let adc = AdcModel {
                full_scale_ones: len * 256,
                ..AdcModel::sconna_default()
            };
            let fs = adc.full_scale_ones;
            let (mut exact, mut lanes) = (0, 0);
            for _ in 0..500 {
                let mut rails: Vec<[f64; 2]> = (0..64)
                    .map(|_| [0, 1].map(|_| rng.gen_range(fs / 10..=fs) as f64))
                    .collect();
                let draws: Vec<[f64; 2]> = (0..64).map(|_| box_muller_uniforms(&mut rng)).collect();
                exact += adc.convert_pairs(&mut rails, |i| draws[i]);
                lanes += rails.len();
            }
            let certified = 1.0 - exact as f64 / lanes as f64;
            assert!(
                certified >= 0.99,
                "S = {len}: {:.3} % certified",
                100.0 * certified
            );
        }
    }

    #[test]
    fn paired_conversion_is_deterministic_and_independent_per_rail() {
        let adc = AdcModel::sconna_default();
        let a = convert_one(&adc, [20000.0, 18000.0], &mut StdRng::seed_from_u64(7));
        let b = convert_one(&adc, [20000.0, 18000.0], &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
        // The two rails must not share one noise value: across a batch of
        // draws the multiplicative errors must differ somewhere.
        let mut rng = StdRng::seed_from_u64(9);
        let diverged = (0..64).any(|_| {
            let [p, n] = convert_one(&adc, [30000.0, 30000.0], &mut rng);
            p != n
        });
        assert!(diverged, "rails always drew identical noise");
    }
}
