//! The SCONNA execution engine: a [`VdpEngine`] that computes every inner
//! product exactly the way the hardware does — OSM stochastic multiplies,
//! sign-steered PCA accumulation per DKV chunk, and ADC conversion with
//! the calibrated 1.3 % MAPE error (Sections IV and V-C).
//!
//! The engine is **lock-free**: ADC noise is derived from a counter-keyed
//! deterministic stream seeded by `(engine seed, caller key, chunk index)`,
//! so every conversion's noise is a pure function of *what* is converted
//! and *where* it sits in the computation — bit-identical across call
//! orders, thread counts and interleavings. No rail index is keyed: the
//! positive and negative rails take the `cos` and `sin` projections of
//! the chunk's one Box-Muller draw.
//!
//! OSM products come from the precomputed weight-major [`OsmProductLut`]
//! (the in-simulator mirror of the paper's offline DPU conversion LUT,
//! Section II-B). Tiles run **weight-stationary**, like the DKV-programmed
//! OSM whose weight stream stays in the ring while input streams flow
//! past it (Section IV, Fig. 5): each weight's product row stays resident
//! while every patch of the tile streams through it into per-patch rail
//! counters. The per-pair [`VdpEngine::vdp_keyed`] path is the oracle the
//! tile kernel is property-tested against; both read the same table.

use rand::RngCore;
use sconna_photonics::pca::AdcModel;
use sconna_sc::lut::OsmProductLut;
use sconna_sc::multiply::osm_product_debiased;
use sconna_sc::Precision;
use sconna_tensor::engine::{
    combine_keys, mix_key, PatchMatrix, PreparedWeights, VdpEngine, WeightMatrix,
};

/// Patches per tile-kernel block, so its scratch stays in L1.
const PATCH_BLOCK: usize = 64;

/// Counter-based deterministic noise stream (SplitMix64): constructed
/// per chunk's rail-pair conversion from the chunk's coordinates, never
/// shared, never locked. Both conversion paths draw the same two
/// uniforms from it: the tile kernel's certified
/// [`AdcModel::convert_pair`] and the oracle's
/// [`AdcModel::convert_pair_reference`].
struct KeyedAdcStream {
    state: u64,
}

impl KeyedAdcStream {
    /// Seeds the stream for one chunk's rail-pair conversion: `seed` is
    /// the engine seed, `key` the caller's accumulator key, and `lane`
    /// the chunk index within the vector. [`combine_keys`] keeps the
    /// mixing non-commutative, so `(seed = A, key = B)` and
    /// `(seed = B, key = A)` draw unrelated streams.
    #[inline]
    fn new(seed: u64, key: u64, lane: u64) -> Self {
        Self {
            state: combine_keys(combine_keys(seed, key), lane),
        }
    }
}

impl RngCore for KeyedAdcStream {
    fn next_u64(&mut self) -> u64 {
        // SplitMix64: increment by the golden-ratio constant, finalize.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix_key(self.state)
    }
}

/// Sign-steered rail accumulation of one VDPE chunk: every element's
/// debiased OSM product (from `product(i, |w|, osm_index)`) lands on the
/// positive or negative rail by its weight's sign bit. Returns
/// `(positive, negative)` ones counts.
#[inline]
fn accumulate_rails(
    ichunk: &[u32],
    wchunk: &[i32],
    qmax: u32,
    product: impl Fn(u32, u32, usize) -> u32,
) -> (u64, u64) {
    let (mut pos, mut neg) = (0u64, 0u64);
    for (k, (&i, &w)) in ichunk.iter().zip(wchunk).enumerate() {
        let p = product(i.min(qmax), w.unsigned_abs().min(qmax), k) as u64;
        if w < 0 {
            neg += p;
        } else {
            pos += p;
        }
    }
    (pos, neg)
}

/// [`SconnaEngine`]'s prepared weight form — everything the stochastic
/// pipeline derives from a weight matrix per call, hoisted to model-load
/// time:
///
/// * the clamped weight magnitudes, i.e. the binary operands the offline
///   DKV conversion turns into weight-stream LUT addresses (`Wb`,
///   Section II-B) — each selects one row of the weight-major table;
/// * the sign steering bits that route each OSM product onto the
///   positive or negative PCA rail (the filter MRR's sign bit);
/// * the range-matched per-chunk ADC models (the TIR amplifier gain is a
///   function of chunk occupancy only, so it is a property of the layer
///   geometry, not of any individual call).
///
/// The fingerprint fields pin the engine configuration the handle was
/// derived for; an engine with a different precision, VDPE size or ADC
/// re-prepares from the raw weights.
#[derive(Debug)]
struct SconnaPrepared {
    /// Clamped magnitudes (LUT weight-row addresses), row-major.
    mags: Vec<u16>,
    /// Sign steering bits, row-major; `true` lands on the negative rail.
    negs: Vec<bool>,
    /// Range-matched ADC per VDPE chunk of one kernel vector; empty when
    /// the engine runs without an ADC model.
    ranged: Vec<AdcModel>,
    /// Precision fingerprint: largest representable magnitude.
    qmax: u32,
    /// VDPE-size fingerprint (chunk decomposition).
    vdpe_size: usize,
    /// ADC fingerprint: `(bits, relative noise sigma)`, if any.
    adc: Option<(u8, f64)>,
}

/// SCONNA stochastic VDP engine.
pub struct SconnaEngine {
    /// Stream precision (B = 8 in the paper).
    pub precision: Precision,
    /// VDPE size N: vectors longer than this are chunked and the chunk
    /// results accumulated after conversion.
    pub vdpe_size: usize,
    /// ADC model applied to each rail of each chunk; `None` isolates pure
    /// SC rounding error.
    pub adc: Option<AdcModel>,
    seed: u64,
    /// Product table; `None` above [`OsmProductLut::MAX_BITS`], where
    /// the closed form takes over.
    lut: Option<std::sync::Arc<OsmProductLut>>,
}

impl SconnaEngine {
    /// The paper's operating point: B = 8, N = 176, ADC with the 1.3 %
    /// MAPE calibration.
    pub fn paper_default(seed: u64) -> Self {
        Self::new(Precision::B8, 176, Some(AdcModel::sconna_default()), seed)
    }

    /// ADC-noise-free variant (pure stochastic rounding error).
    pub fn noiseless() -> Self {
        Self::new(Precision::B8, 176, None, 0)
    }

    /// Custom configuration.
    pub fn new(precision: Precision, vdpe_size: usize, adc: Option<AdcModel>, seed: u64) -> Self {
        assert!(vdpe_size > 0, "VDPE size must be positive");
        Self {
            precision,
            vdpe_size,
            adc,
            seed,
            lut: OsmProductLut::shared(precision),
        }
    }

    /// The ADC range-matched to a chunk's occupancy. The TIR's amplifier
    /// gain (Section V-C: a configurable voltage amplifier) is assumed
    /// range-matched to the pass's occupancy: a chunk driving only
    /// `chunk_len` of the N wavelengths is amplified so the ADC's 8 bits
    /// span `chunk_len · 2^B` ones instead of the full `N · 2^B` — the
    /// standard programmable-gain idiom, without which short (e.g.
    /// depthwise, S = 9) vectors would be quantized into oblivion.
    #[inline]
    fn ranged_adc(&self, adc: &AdcModel, chunk_len: usize) -> AdcModel {
        AdcModel {
            full_scale_ones: (chunk_len * self.precision.stream_len()) as u64,
            ..*adc
        }
    }

    /// Converts one chunk's rail pair through the range-matched ADC (if
    /// the engine has one), noise keyed by `(engine seed, accumulator
    /// key, chunk)`. The rails share one Box-Muller draw but receive its
    /// two independent Gaussian projections. `convert` is the tile
    /// kernel's certified [`AdcModel::convert_pair`] or the oracle's
    /// plain [`AdcModel::convert_pair_reference`]; the two are
    /// bit-identical.
    #[inline]
    fn convert_rails(
        &self,
        ranged: Option<&AdcModel>,
        pos: u64,
        neg: u64,
        key: u64,
        chunk: usize,
        convert: impl Fn(&AdcModel, f64, f64, &mut KeyedAdcStream) -> (f64, f64),
    ) -> (f64, f64) {
        match ranged {
            Some(adc) => {
                let mut stream = KeyedAdcStream::new(self.seed, key, chunk as u64);
                convert(adc, pos as f64, neg as f64, &mut stream)
            }
            None => (pos as f64, neg as f64),
        }
    }

    /// One accumulator, pair by pair: chunked OSM products, sign-steered
    /// rail counts, keyed ADC conversion. This is the oracle the tile
    /// kernel must match bit for bit, and the whole computation above
    /// [`OsmProductLut::MAX_BITS`], where products come from the closed
    /// form.
    fn vdp_core(&self, inputs: &[u32], weights: &[i32], key: u64) -> f64 {
        let scale = self.precision.stream_len() as f64;
        let qmax = self.precision.max_value();
        let mut total = 0.0f64;
        for (chunk, (ichunk, wchunk)) in inputs
            .chunks(self.vdpe_size)
            .zip(weights.chunks(self.vdpe_size))
            .enumerate()
        {
            // One VDPE pass: OSM multiplies (alternating LUT pairings to
            // cancel encoding bias) + sign-steered accumulation. One
            // accumulation loop, two monomorphized product sources — the
            // clamping and rail steering can never diverge between the
            // LUT and closed-form precisions.
            let (pos, neg) = match &self.lut {
                Some(lut) => {
                    accumulate_rails(ichunk, wchunk, qmax, |i, mag, k| lut.product(i, mag, k))
                }
                None => accumulate_rails(ichunk, wchunk, qmax, |i, mag, k| {
                    osm_product_debiased(i, mag, self.precision, k)
                }),
            };
            // Each rail's PCA digitizes independently (independent noise
            // projections of one keyed draw), through the plain
            // Box-Muller transform.
            let ranged = self.adc.map(|adc| self.ranged_adc(&adc, ichunk.len()));
            let (pos, neg) = self.convert_rails(
                ranged.as_ref(),
                pos,
                neg,
                key,
                chunk,
                AdcModel::convert_pair_reference,
            );
            // Counts are Σ i·w / 2^B; rescale to integer-product units.
            total += (pos - neg) * scale;
        }
        total
    }

    /// The offline DKV conversion of a weight matrix (see
    /// [`SconnaPrepared`]).
    fn prepare(&self, weights: &WeightMatrix<'_>) -> SconnaPrepared {
        let qmax = self.precision.max_value();
        let mags = weights
            .as_slice()
            .iter()
            .map(|w| w.unsigned_abs().min(qmax) as u16)
            .collect();
        let negs = weights.as_slice().iter().map(|&w| w < 0).collect();
        let ranged = match &self.adc {
            Some(adc) => (0..weights.cols())
                .step_by(self.vdpe_size)
                .map(|start| self.ranged_adc(adc, self.vdpe_size.min(weights.cols() - start)))
                .collect(),
            None => Vec::new(),
        };
        SconnaPrepared {
            mags,
            negs,
            ranged,
            qmax,
            vdpe_size: self.vdpe_size,
            adc: self.adc.as_ref().map(|a| (a.bits, a.relative_noise_sigma)),
        }
    }

    /// Whether a prepared payload was derived for this engine's exact
    /// configuration (precision clamp, chunk decomposition, ADC).
    fn accepts(&self, prep: &SconnaPrepared, cols: usize) -> bool {
        prep.qmax == self.precision.max_value()
            && prep.vdpe_size == self.vdpe_size
            && prep.adc == self.adc.as_ref().map(|a| (a.bits, a.relative_noise_sigma))
            && (self.adc.is_none() || prep.ranged.len() == cols.div_ceil(self.vdpe_size))
    }

    /// The weight-stationary tile kernel. Per block of patches it clamps
    /// and transposes the inputs once to column-major; per kernel and
    /// VDPE chunk it streams every patch through each element's resident
    /// product row (rail by the sign bit, OSM parity by the index within
    /// the chunk) into per-patch u64 rail counters, then converts and
    /// accumulates each patch's rails exactly as [`SconnaEngine::vdp_core`]
    /// does — same key, chunk index and ascending chunk order — through
    /// the certified [`AdcModel::convert_pair`].
    fn tile(
        &self,
        lut: &OsmProductLut,
        patches: &PatchMatrix,
        prep: &SconnaPrepared,
        kernels: usize,
        keys: &[u64],
    ) -> Vec<f64> {
        let (rows, cols) = (patches.rows(), patches.cols());
        let (scale, qmask) = (self.precision.stream_len() as f64, prep.qmax as usize);
        let mut out = vec![0.0f64; rows * kernels];
        let mut xt = vec![0u16; PATCH_BLOCK * cols];
        let mut rails = [vec![0u64; PATCH_BLOCK], vec![0u64; PATCH_BLOCK]];
        for p0 in (0..rows).step_by(PATCH_BLOCK) {
            let pb = PATCH_BLOCK.min(rows - p0);
            for p in 0..pb {
                for (c, &x) in patches.row(p0 + p).iter().enumerate() {
                    xt[c * pb + p] = x.min(prep.qmax) as u16;
                }
            }
            for k in 0..kernels {
                let mags = &prep.mags[k * cols..(k + 1) * cols];
                let negs = &prep.negs[k * cols..(k + 1) * cols];
                for (chunk, start) in (0..cols).step_by(self.vdpe_size).enumerate() {
                    let end = cols.min(start + self.vdpe_size);
                    rails.iter_mut().for_each(|r| r[..pb].fill(0));
                    for c in start..end {
                        // qmax = 2^B - 1 is all ones and inputs are clamped to it: the
                        // mask changes no index, it only drops the bounds check.
                        let row = &lut.weight_row(mags[c] as u32, c - start)[..=qmask];
                        let rail = &mut rails[negs[c] as usize][..pb];
                        for (acc, &x) in rail.iter_mut().zip(&xt[c * pb..(c + 1) * pb]) {
                            *acc += row[x as usize & qmask] as u64;
                        }
                    }
                    let ranged = prep.ranged.get(chunk);
                    for p in 0..pb {
                        let key = combine_keys(keys[p0 + p], k as u64);
                        let (pos, neg) = self.convert_rails(
                            ranged,
                            rails[0][p],
                            rails[1][p],
                            key,
                            chunk,
                            AdcModel::convert_pair,
                        );
                        out[(p0 + p) * kernels + k] += (pos - neg) * scale;
                    }
                }
            }
        }
        out
    }
}

impl VdpEngine for SconnaEngine {
    fn vdp_keyed(&self, inputs: &[u32], weights: &[i32], key: u64) -> f64 {
        assert_eq!(inputs.len(), weights.len(), "vector length mismatch");
        self.vdp_core(inputs, weights, key)
    }

    /// Prepare-then-run, through the same tile kernel as a prepared call.
    fn vdp_batch(
        &self,
        patches: &PatchMatrix,
        weights: &WeightMatrix<'_>,
        keys: &[u64],
    ) -> Vec<f64> {
        self.vdp_batch_prepared(patches, &self.prepare_weights(weights), keys)
    }

    /// Derives the weight-stationary form the hardware mapping assumes:
    /// the offline DKV conversion of every weight to its clamped LUT
    /// stream address, the per-element sign steering bit, and the
    /// range-matched ADC of every VDPE chunk — computed once per layer
    /// instead of on every tile call.
    fn prepare_weights(&self, weights: &WeightMatrix<'_>) -> PreparedWeights {
        PreparedWeights::with_payload(self.name(), weights, self.prepare(weights))
    }

    /// The weight-stationary tile kernel, bit-identical to per-pair
    /// [`VdpEngine::vdp_keyed`] under [`combine_keys`] (property-tested
    /// in `tests/batch_parity.rs`). A foreign handle, or one derived for
    /// a differently configured SCONNA engine, is re-prepared from the
    /// raw weights; above [`OsmProductLut::MAX_BITS`] every pair runs
    /// the closed-form oracle.
    fn vdp_batch_prepared(
        &self,
        patches: &PatchMatrix,
        weights: &PreparedWeights,
        keys: &[u64],
    ) -> Vec<f64> {
        let (kernels, cols) = (weights.rows(), weights.cols());
        assert_eq!(patches.cols(), cols, "patch/kernel vector length mismatch");
        assert_eq!(keys.len(), patches.rows(), "one noise key per patch");
        let wm = weights.as_matrix();
        let Some(lut) = &self.lut else {
            return (0..patches.rows() * kernels)
                .map(|i| (i / kernels, i % kernels))
                .map(|(p, k)| {
                    self.vdp_core(patches.row(p), wm.row(k), combine_keys(keys[p], k as u64))
                })
                .collect();
        };
        match weights.payload::<SconnaPrepared>() {
            Some(prep) if self.accepts(prep, cols) => self.tile(lut, patches, prep, kernels, keys),
            _ => self.tile(lut, patches, &self.prepare(&wm), kernels, keys),
        }
    }

    fn name(&self) -> &'static str {
        "sconna-stochastic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sconna_tensor::engine::{combine_keys, ExactEngine, PatchMatrix, WeightMatrix};

    fn test_vectors(len: usize) -> (Vec<u32>, Vec<i32>) {
        let inputs: Vec<u32> = (0..len).map(|k| ((k * 37) % 256) as u32).collect();
        let weights: Vec<i32> = (0..len).map(|k| ((k * 53) % 255) as i32 - 127).collect();
        (inputs, weights)
    }

    #[test]
    fn noiseless_engine_tracks_exact_engine() {
        let (inputs, weights) = test_vectors(500);
        let exact = ExactEngine.vdp(&inputs, &weights);
        let sc = SconnaEngine::noiseless().vdp(&inputs, &weights);
        // Per-element SC error ≤ B counts, scaled by 256.
        let bound = 500.0 * 8.0 * 256.0;
        assert!((sc - exact).abs() <= bound, "sc {sc} exact {exact}");
        // And it should be much better than the bound in practice.
        let rel = (sc - exact).abs() / exact.abs().max(1.0);
        assert!(rel < 0.25, "relative error {rel}");
    }

    #[test]
    fn chunking_handles_vectors_longer_than_n() {
        let (inputs, weights) = test_vectors(4608);
        let sc = SconnaEngine::noiseless().vdp(&inputs, &weights);
        let exact = ExactEngine.vdp(&inputs, &weights);
        let rel = (sc - exact).abs() / exact.abs().max(1.0);
        assert!(rel < 0.25, "relative error {rel} on 27-chunk vector");
    }

    #[test]
    fn zero_inputs_give_zero() {
        let e = SconnaEngine::paper_default(1);
        assert_eq!(e.vdp(&[0; 64], &[5; 64]), 0.0);
        assert_eq!(e.vdp(&[], &[]), 0.0);
    }

    #[test]
    fn noisy_engine_is_seed_deterministic() {
        let (inputs, weights) = test_vectors(300);
        let a = SconnaEngine::paper_default(42).vdp(&inputs, &weights);
        let b = SconnaEngine::paper_default(42).vdp(&inputs, &weights);
        assert_eq!(a, b);
        // A single VDP can quantize identically across seeds (the ADC
        // step is coarse); across a batch the seeds must diverge
        // somewhere.
        let e42 = SconnaEngine::paper_default(42);
        let e43 = SconnaEngine::paper_default(43);
        let diverged = (0..20).any(|k| {
            let (i, w) = test_vectors(100 + 7 * k);
            e42.vdp(&i, &w) != e43.vdp(&i, &w)
        });
        assert!(diverged, "different seeds never diverged across a batch");
    }

    #[test]
    fn distinct_keys_decorrelate_noise() {
        // The keyed scheme must give different noise draws for different
        // accumulator keys somewhere across a batch of vectors (a single
        // pair can collapse onto the same coarse ADC code).
        let e = SconnaEngine::paper_default(7);
        let diverged = (0..20).any(|k| {
            let (i, w) = test_vectors(150 + 11 * k);
            e.vdp_keyed(&i, &w, 1) != e.vdp_keyed(&i, &w, 2)
        });
        assert!(diverged, "keys 1 and 2 never diverged");
        // And the same key is always bit-identical.
        let (i, w) = test_vectors(352);
        assert_eq!(e.vdp_keyed(&i, &w, 99), e.vdp_keyed(&i, &w, 99));
    }

    #[test]
    fn lut_path_matches_closed_form_path() {
        // B12 exceeds the LUT bound, so the engine runs the closed form;
        // B8 runs the tables. On common ground (operands ≤ B8 max, same
        // chunking, no ADC) the noiseless results must agree exactly.
        let (inputs, weights) = test_vectors(400);
        let b8 = SconnaEngine::new(Precision::B8, 176, None, 0);
        assert!(b8.lut.is_some(), "B8 must use the product LUT");
        let closed = {
            let mut e = SconnaEngine::new(Precision::B8, 176, None, 0);
            e.lut = None;
            e
        };
        assert_eq!(
            b8.vdp(&inputs, &weights),
            closed.vdp(&inputs, &weights),
            "LUT and closed form diverged"
        );
    }

    #[test]
    fn adc_noise_increases_error_over_noiseless() {
        let (inputs, weights) = test_vectors(352);
        let exact = ExactEngine.vdp(&inputs, &weights);
        let trials = 50;
        let mut noiseless_err = 0.0;
        let mut noisy_err = 0.0;
        for seed in 0..trials {
            noiseless_err += (SconnaEngine::noiseless().vdp(&inputs, &weights) - exact).abs();
            noisy_err += (SconnaEngine::paper_default(seed).vdp(&inputs, &weights) - exact).abs();
        }
        assert!(
            noisy_err >= noiseless_err,
            "ADC noise must not reduce error: {noisy_err} vs {noiseless_err}"
        );
    }

    #[test]
    fn sign_symmetry() {
        let (inputs, weights) = test_vectors(200);
        let neg: Vec<i32> = weights.iter().map(|w| -w).collect();
        let e = SconnaEngine::noiseless();
        assert_eq!(e.vdp(&inputs, &weights), -e.vdp(&inputs, &neg));
    }

    #[test]
    fn prepared_tile_is_bit_identical_to_raw_tile() {
        // The weight-stationary kernel, fed a prepared or a raw matrix,
        // must reproduce the per-pair oracle bit for bit: across patch
        // blocks (rows > 2 blocks), ragged tail chunks (cols 180 = one
        // full 176-chunk + a 4-wide tail), an odd VDPE size (OSM parity
        // follows the index within the chunk, not the column), and
        // operands the B-bit registers must clamp (inputs above qmax,
        // weights beyond ±qmax including i32::MIN).
        let (rows, kernels, cols) = (2 * PATCH_BLOCK + 5, 4, 180);
        let patches = PatchMatrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|i| ((i * 29) % 300) as u32).collect(),
        );
        let mut wdata: Vec<i32> = (0..kernels * cols)
            .map(|i| ((i * 43) % 401) as i32 - 200)
            .collect();
        wdata[3] = i32::MIN;
        wdata[cols + 7] = i32::MAX;
        let wm = WeightMatrix::new(&wdata, kernels, cols);
        let keys: Vec<u64> = (0..rows as u64).map(|p| p * 7 + 5).collect();
        let odd = SconnaEngine::new(Precision::B8, 7, Some(AdcModel::sconna_default()), 3);
        for engine in [
            SconnaEngine::paper_default(11),
            SconnaEngine::noiseless(),
            odd,
        ] {
            let prepared = engine.prepare_weights(&wm);
            let raw = engine.vdp_batch(&patches, &wm, &keys);
            let fast = engine.vdp_batch_prepared(&patches, &prepared, &keys);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&raw), bits(&fast), "{}", engine.name());
            for p in 0..rows {
                for k in 0..kernels {
                    let key = combine_keys(keys[p], k as u64);
                    let want = engine.vdp_keyed(patches.row(p), wm.row(k), key);
                    assert_eq!(
                        fast[p * kernels + k].to_bits(),
                        want.to_bits(),
                        "p={p} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn closed_form_precision_tile_runs_the_oracle() {
        // Above the table bound there is no product table: the tile is
        // the per-pair closed-form oracle, pair by pair.
        let cols = 20;
        let patches = PatchMatrix::from_vec(
            3,
            cols,
            (0..3 * cols).map(|i| ((i * 389) % 4096) as u32).collect(),
        );
        let wdata: Vec<i32> = (0..2 * cols)
            .map(|i| ((i * 97) % 4095) as i32 - 2047)
            .collect();
        let wm = WeightMatrix::new(&wdata, 2, cols);
        let e = SconnaEngine::new(Precision::new(12), 6, Some(AdcModel::sconna_default()), 9);
        assert!(e.lut.is_none(), "B12 must run the closed form");
        let got = e.vdp_batch_prepared(&patches, &e.prepare_weights(&wm), &[1, 2, 3]);
        for p in 0..3 {
            for k in 0..2 {
                let want = e.vdp_keyed(
                    patches.row(p),
                    wm.row(k),
                    combine_keys(p as u64 + 1, k as u64),
                );
                assert_eq!(got[p * 2 + k].to_bits(), want.to_bits(), "p={p} k={k}");
            }
        }
    }

    #[test]
    fn prepared_handle_from_mismatched_config_falls_back() {
        // A handle derived at B8 handed to a B6 engine must not poison
        // the result: the B6 engine recomputes from the raw weights.
        let cols = 24;
        let patches = PatchMatrix::from_vec(
            2,
            cols,
            (0..2 * cols).map(|i| ((i * 13) % 64) as u32).collect(),
        );
        let wdata: Vec<i32> = (0..2 * cols).map(|i| ((i * 7) % 127) as i32 - 63).collect();
        let wm = WeightMatrix::new(&wdata, 2, cols);
        let b8 = SconnaEngine::paper_default(3);
        let b6 = SconnaEngine::new(Precision::new(6), 176, Some(AdcModel::sconna_default()), 3);
        let foreign = b8.prepare_weights(&wm);
        assert_eq!(
            b6.vdp_batch_prepared(&patches, &foreign, &[1, 2]),
            b6.vdp_batch(&patches, &wm, &[1, 2]),
        );
        // And an exact-engine handle handed to SCONNA also falls back.
        let exact_handle = ExactEngine.prepare_weights(&wm);
        assert_eq!(
            b8.vdp_batch_prepared(&patches, &exact_handle, &[1, 2]),
            b8.vdp_batch(&patches, &wm, &[1, 2]),
        );
    }

    #[test]
    fn batch_tile_matches_per_vector_calls() {
        // The tile path must honor the vdp_batch contract bit for bit,
        // including ADC noise keying and ragged tail chunks (vector
        // length 180 = one full 176-chunk + a 4-wide tail).
        let cols = 180;
        let patches = PatchMatrix::from_vec(
            3,
            cols,
            (0..3 * cols).map(|i| ((i * 31) % 256) as u32).collect(),
        );
        let wdata: Vec<i32> = (0..5 * cols)
            .map(|i| ((i * 41) % 255) as i32 - 127)
            .collect();
        let wm = WeightMatrix::new(&wdata, 5, cols);
        let keys = [3u64, 99, 12345];
        let e = SconnaEngine::paper_default(11);
        let got = e.vdp_batch(&patches, &wm, &keys);
        for p in 0..3 {
            for k in 0..5u64 {
                assert_eq!(
                    got[p * 5 + k as usize].to_bits(),
                    e.vdp_keyed(patches.row(p), wm.row(k as usize), combine_keys(keys[p], k))
                        .to_bits(),
                    "p={p} k={k}"
                );
            }
        }
    }
}
