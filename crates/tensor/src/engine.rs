//! Pluggable vector-dot-product engines and the batched matrix API.
//!
//! Every quantized layer reduces to VDP operations between an unsigned
//! input vector and a signed weight vector (Section II-B). The engine
//! trait abstracts *how* that VDP is computed: exactly in binary integer
//! arithmetic (the functional reference), or through the SCONNA stochastic
//! pipeline with its rounding and ADC error (implemented in
//! `sconna-accel`, which layers the photonics models on top).
//!
//! Three API levels exist:
//!
//! * [`VdpEngine::vdp_keyed`] — one vector pair, plus a caller-supplied
//!   **noise key**. Engines with stochastic error (the ADC model) derive
//!   their noise deterministically from the key, so a call's result is a
//!   pure function of `(inputs, weights, key)` — independent of call
//!   order, thread interleaving, and any other call's existence.
//! * [`VdpEngine::vdp_batch`] — a whole patch-matrix × kernel-matrix
//!   tile. This is the inference hot path: `im2col`-gathered patches hit
//!   every kernel of a layer in one call, letting engines run blocked
//!   GEMM (exact) or amortize per-call setup over the tile (SCONNA).
//!   The contract is bit-exact equivalence with per-pair `vdp_keyed`
//!   under [`combine_keys`], property-tested in `tests/`.
//! * [`VdpEngine::vdp_batch_prepared`] — the same tile against a
//!   [`PreparedWeights`] handle built once by
//!   [`VdpEngine::prepare_weights`] at model load. This is the
//!   **weight-stationary** API the hardware mapping assumes: whatever
//!   per-call derivation an engine performs on the weight matrix (the
//!   exact engine's narrow-GEMM i16 form and overflow bound, the SCONNA
//!   engine's clamped product-table row addresses, sign steering bits and
//!   range-matched ADC parameters) is hoisted into the handle, so a
//!   layer's weights are transformed once and then hit by every row
//!   block of every request. The contract is bit-exact equivalence with
//!   [`VdpEngine::vdp_batch`] on the same raw weights.
//!
//! Engines return `f64` because hardware engines produce estimates; the
//! exact engine's result is integral by construction.
//!
//! ```
//! use sconna_tensor::engine::{ExactEngine, PatchMatrix, PreparedWeights, VdpEngine, WeightMatrix};
//!
//! let weights = vec![1i32, -2, 3, 4, 5, -6];
//! let wm = WeightMatrix::new(&weights, 2, 3);
//! let prepared: PreparedWeights = ExactEngine.prepare_weights(&wm);   // once, at model load
//! let patches = PatchMatrix::from_vec(1, 3, vec![7, 8, 9]);
//! let fast = ExactEngine.vdp_batch_prepared(&patches, &prepared, &[0]); // per row block
//! assert_eq!(fast, ExactEngine.vdp_batch(&patches, &wm, &[0]));
//! ```

/// Dense row-major matrix of unsigned operand vectors — the product of an
/// im2col gather: row `p` is the flattened input patch of one output
/// position.
#[derive(Debug, Clone, Default)]
pub struct PatchMatrix {
    rows: usize,
    cols: usize,
    data: Vec<u32>,
}

impl PatchMatrix {
    /// Creates a zero-filled matrix of `rows` patches of length `cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Wraps a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if the buffer length is not `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<u32>) -> Self {
        assert_eq!(data.len(), rows * cols, "patch buffer length mismatch");
        Self { rows, cols, data }
    }

    /// Re-shapes the matrix in place to `rows × cols`, zero-filled —
    /// observationally identical to a fresh [`PatchMatrix::zeros`], but
    /// reusing the retained buffer capacity (the arena-reuse hook of
    /// [`crate::arena::ConvScratch`]).
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0);
    }

    /// Number of patches.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Patch (vector) length.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of patch `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[u32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of patch `r` (filled by the im2col gather).
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [u32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat row-major view of all patches.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.data
    }
}

/// Borrowed row-major view of signed kernel vectors: row `k` is one
/// kernel's flattened weights. Borrowing (rather than owning) lets conv
/// layers alias their weight tensor directly — kernels of one group are
/// contiguous in the `[L, D/g, K, K]` layout.
#[derive(Debug, Clone, Copy)]
pub struct WeightMatrix<'a> {
    rows: usize,
    cols: usize,
    data: &'a [i32],
}

impl<'a> WeightMatrix<'a> {
    /// Wraps a flat row-major weight slice.
    ///
    /// # Panics
    /// Panics if the slice length is not `rows * cols`.
    pub fn new(data: &'a [i32], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "weight buffer length mismatch");
        Self { rows, cols, data }
    }

    /// Number of kernel vectors.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Kernel (vector) length.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of kernel `k`.
    #[inline]
    pub fn row(&self, k: usize) -> &'a [i32] {
        &self.data[k * self.cols..(k + 1) * self.cols]
    }

    /// Flat row-major view of all kernels.
    #[inline]
    pub fn as_slice(&self) -> &'a [i32] {
        self.data
    }
}

/// A per-layer weight matrix transformed once into an engine's preferred
/// execution form — the weight-stationary handle of the batched API.
///
/// The handle always owns the raw signed weight matrix (so any engine can
/// fall back to the generic path), plus an opaque engine-specific payload
/// stamped with the preparing engine's [`VdpEngine::name`]:
///
/// * [`ExactEngine`] stores the narrowed `i16` weight form and the
///   worst-case weight magnitude of its overflow guard, so the blocked
///   GEMM never re-derives them per row-block call.
/// * The SCONNA engine (in `sconna-accel`) stores the clamped weight
///   magnitudes (the DKV-converted `Wb` operands, each addressing one
///   row of its weight-major product table), the sign steering bits,
///   and the range-matched per-chunk ADC models. Its weight-stationary
///   tile kernel streams every patch through each weight's product row;
///   a handle it did not prepare for its own configuration is
///   re-prepared from the raw weights and runs the same kernel.
///
/// Handles are built by [`VdpEngine::prepare_weights`] and consumed by
/// [`VdpEngine::vdp_batch_prepared`]; an engine handed a foreign handle
/// (different `engine_name`) must ignore the payload and compute from the
/// raw weights, so results never depend on which engine prepared the
/// handle.
pub struct PreparedWeights {
    rows: usize,
    cols: usize,
    weights: Vec<i32>,
    engine_name: &'static str,
    payload: Option<Box<dyn std::any::Any + Send + Sync>>,
}

impl std::fmt::Debug for PreparedWeights {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedWeights")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("engine_name", &self.engine_name)
            .field("has_payload", &self.payload.is_some())
            .finish()
    }
}

impl PreparedWeights {
    /// Wraps a weight matrix with no engine-specific payload — what the
    /// default [`VdpEngine::prepare_weights`] produces.
    pub fn raw(engine_name: &'static str, weights: &WeightMatrix<'_>) -> Self {
        Self {
            rows: weights.rows(),
            cols: weights.cols(),
            weights: weights.as_slice().to_vec(),
            engine_name,
            payload: None,
        }
    }

    /// Wraps a weight matrix together with an engine-specific payload.
    pub fn with_payload(
        engine_name: &'static str,
        weights: &WeightMatrix<'_>,
        payload: impl std::any::Any + Send + Sync,
    ) -> Self {
        Self {
            payload: Some(Box::new(payload)),
            ..Self::raw(engine_name, weights)
        }
    }

    /// Number of kernel vectors.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Kernel (vector) length.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Name of the engine that built the handle.
    pub fn engine_name(&self) -> &'static str {
        self.engine_name
    }

    /// Borrowed view of the raw weight matrix — the generic fallback any
    /// engine can execute.
    pub fn as_matrix(&self) -> WeightMatrix<'_> {
        WeightMatrix::new(&self.weights, self.rows, self.cols)
    }

    /// Downcasts the engine payload, if one of type `T` is present.
    pub fn payload<T: std::any::Any>(&self) -> Option<&T> {
        self.payload.as_ref()?.downcast_ref::<T>()
    }
}

/// SplitMix64 finalizer: the bijective avalanche mix used everywhere a
/// structured index (layer, pixel, kernel, chunk) must become a
/// decorrelated noise-stream key.
#[inline]
pub fn mix_key(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Combines a patch-level key with a kernel-row index (or any two key
/// components) into one noise key. Non-commutative and collision-resistant
/// for the index ranges layers produce. [`VdpEngine::vdp_batch`] derives
/// each pair's key as `combine_keys(keys[p], k)` — overrides must do the
/// same to stay bit-compatible with the per-vector path.
#[inline]
pub fn combine_keys(a: u64, b: u64) -> u64 {
    mix_key(a ^ b.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// Computes vector dot products between quantized operand vectors.
pub trait VdpEngine: Sync {
    /// Estimates `Σ inputs[k] · weights[k]` in integer-product units,
    /// deriving any stochastic error (e.g. ADC noise) deterministically
    /// from `key`: the result is a pure function of
    /// `(inputs, weights, key)`, independent of call order or thread
    /// interleaving.
    ///
    /// # Panics
    /// Implementations panic if the slices differ in length.
    fn vdp_keyed(&self, inputs: &[u32], weights: &[i32], key: u64) -> f64;

    /// Estimates `Σ inputs[k] · weights[k]` with the default key.
    ///
    /// # Panics
    /// Implementations panic if the slices differ in length.
    fn vdp(&self, inputs: &[u32], weights: &[i32]) -> f64 {
        self.vdp_keyed(inputs, weights, 0)
    }

    /// Batched matrix VDP over a patch × kernel tile: returns the
    /// `patches.rows() × weights.rows()` accumulator matrix row-major by
    /// patch, where entry `(p, k)` **must** equal
    /// `vdp_keyed(patches.row(p), weights.row(k), combine_keys(keys[p], k))`
    /// bit for bit — overrides exist for speed, never for different
    /// results.
    ///
    /// # Panics
    /// Panics if the inner dimensions differ or `keys` is not one key per
    /// patch.
    fn vdp_batch(
        &self,
        patches: &PatchMatrix,
        weights: &WeightMatrix<'_>,
        keys: &[u64],
    ) -> Vec<f64> {
        assert_eq!(
            patches.cols(),
            weights.cols(),
            "patch/kernel vector length mismatch"
        );
        assert_eq!(keys.len(), patches.rows(), "one noise key per patch");
        let mut out = Vec::with_capacity(patches.rows() * weights.rows());
        for (p, &pkey) in keys.iter().enumerate() {
            let prow = patches.row(p);
            for k in 0..weights.rows() {
                out.push(self.vdp_keyed(prow, weights.row(k), combine_keys(pkey, k as u64)));
            }
        }
        out
    }

    /// Transforms a weight matrix into this engine's execution form
    /// **once**, at model load. The default keeps only the raw weights;
    /// engines override it to hoist whatever per-call weight derivation
    /// their [`VdpEngine::vdp_batch`] performs.
    fn prepare_weights(&self, weights: &WeightMatrix<'_>) -> PreparedWeights {
        PreparedWeights::raw(self.name(), weights)
    }

    /// [`VdpEngine::vdp_batch`] against a prepared handle: entry `(p, k)`
    /// **must** equal `vdp_batch(patches, &weights.as_matrix(), keys)`
    /// bit for bit — preparation exists to move work, never to change
    /// results. Engines handed a handle they did not prepare (foreign
    /// [`PreparedWeights::engine_name`]) must fall back to the raw
    /// matrix.
    ///
    /// # Panics
    /// Panics if the inner dimensions differ or `keys` is not one key per
    /// patch.
    fn vdp_batch_prepared(
        &self,
        patches: &PatchMatrix,
        weights: &PreparedWeights,
        keys: &[u64],
    ) -> Vec<f64> {
        self.vdp_batch(patches, &weights.as_matrix(), keys)
    }

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// Bit-exact binary reference engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactEngine;

/// [`ExactEngine`]'s prepared weight form: the narrowed i16 copy and the
/// worst-case weight magnitude of the overflow guard, derived once per
/// layer instead of per row-block call.
#[derive(Debug)]
struct ExactPrepared {
    /// i16 weight copy; present iff every weight fits i16.
    w16: Option<Vec<i16>>,
    /// Largest |w| — the weight side of the i32-accumulator guard.
    max_w: i64,
}

impl ExactPrepared {
    fn derive(weights: &WeightMatrix<'_>) -> Self {
        let max_w = weights
            .as_slice()
            .iter()
            .map(|w| w.unsigned_abs() as i64)
            .max()
            .unwrap_or(0);
        let w16 = (max_w <= i16::MAX as i64)
            .then(|| weights.as_slice().iter().map(|&x| x as i16).collect());
        Self { w16, max_w }
    }
}

impl ExactEngine {
    /// Dispatches one tile to the narrow or wide micro-kernel. The narrow
    /// path runs iff every operand fits i16 **and** the worst-case
    /// accumulator `max_i · max_w · s` fits i32; both paths produce the
    /// same exact integers, so the choice can never change a result.
    fn gemm_tile(
        patches: &PatchMatrix,
        weights: &WeightMatrix<'_>,
        prep: &ExactPrepared,
        out: &mut [f64],
    ) {
        let (pr, kr, s) = (patches.rows(), weights.rows(), patches.cols());
        if pr == 0 || kr == 0 {
            return;
        }
        let max_i = patches.as_slice().iter().copied().max().unwrap_or(0) as i64;
        let narrow = max_i <= i16::MAX as i64
            && prep.w16.is_some()
            && (max_i * prep.max_w)
                .checked_mul(s as i64)
                .is_some_and(|v| v <= i32::MAX as i64);
        match (&prep.w16, narrow) {
            (Some(w16), true) => {
                let p16: Vec<i16> = patches.as_slice().iter().map(|&x| x as i16).collect();
                gemm_narrow(&p16, w16, pr, kr, s, out);
            }
            _ => gemm_wide(patches, weights, out),
        }
    }
}

impl VdpEngine for ExactEngine {
    fn vdp_keyed(&self, inputs: &[u32], weights: &[i32], _key: u64) -> f64 {
        assert_eq!(inputs.len(), weights.len(), "vector length mismatch");
        inputs
            .iter()
            .zip(weights)
            .map(|(&i, &w)| i as i64 * w as i64)
            .sum::<i64>() as f64
    }

    /// Blocked integer GEMM with a guarded narrow fast path.
    ///
    /// When every operand fits in i16 and the worst-case accumulator
    /// fits in i32 — true for every 8-bit-quantized CNN layer — the
    /// 1×4 micro-kernel runs `i32 += i16·i16`, the multiply-add shape
    /// the auto-vectorizer turns into `pmaddwd`-class SIMD on baseline
    /// x86-64. Otherwise it falls back to the same micro-kernel over
    /// i64. Both are exactly equal to the per-vector path — integer
    /// addition is associative and no product or sum can overflow its
    /// accumulator under the guard.
    ///
    /// This unprepared entry point re-derives the i16 weight form per
    /// call; [`VdpEngine::vdp_batch_prepared`] hoists that into a
    /// once-per-layer [`PreparedWeights`] handle.
    fn vdp_batch(
        &self,
        patches: &PatchMatrix,
        weights: &WeightMatrix<'_>,
        keys: &[u64],
    ) -> Vec<f64> {
        assert_eq!(
            patches.cols(),
            weights.cols(),
            "patch/kernel vector length mismatch"
        );
        assert_eq!(keys.len(), patches.rows(), "one noise key per patch");
        let mut out = vec![0.0f64; patches.rows() * weights.rows()];
        Self::gemm_tile(patches, weights, &ExactPrepared::derive(weights), &mut out);
        out
    }

    fn prepare_weights(&self, weights: &WeightMatrix<'_>) -> PreparedWeights {
        PreparedWeights::with_payload(self.name(), weights, ExactPrepared::derive(weights))
    }

    /// The weight-stationary GEMM: the i16 weight form and guard bound
    /// come from the handle; only the (per-call) patch side is inspected
    /// and narrowed here.
    fn vdp_batch_prepared(
        &self,
        patches: &PatchMatrix,
        weights: &PreparedWeights,
        keys: &[u64],
    ) -> Vec<f64> {
        let wm = weights.as_matrix();
        let Some(prep) = weights.payload::<ExactPrepared>() else {
            // Foreign or payload-free handle: generic path on raw weights.
            return self.vdp_batch(patches, &wm, keys);
        };
        assert_eq!(
            patches.cols(),
            wm.cols(),
            "patch/kernel vector length mismatch"
        );
        assert_eq!(keys.len(), patches.rows(), "one noise key per patch");
        let mut out = vec![0.0f64; patches.rows() * wm.rows()];
        Self::gemm_tile(patches, &wm, prep, &mut out);
        out
    }

    fn name(&self) -> &'static str {
        "exact"
    }
}

/// 1×4 i16 → i32 micro-kernel (see [`ExactEngine::vdp_batch`] for the
/// overflow guard that makes i32 accumulation exact).
fn gemm_narrow(p16: &[i16], w16: &[i16], pr: usize, kr: usize, s: usize, out: &mut [f64]) {
    for pi in 0..pr {
        let prow = &p16[pi * s..(pi + 1) * s];
        let orow = &mut out[pi * kr..(pi + 1) * kr];
        let mut k = 0;
        while k + 4 <= kr {
            let w0 = &w16[k * s..(k + 1) * s];
            let w1 = &w16[(k + 1) * s..(k + 2) * s];
            let w2 = &w16[(k + 2) * s..(k + 3) * s];
            let w3 = &w16[(k + 3) * s..(k + 4) * s];
            let (mut a0, mut a1, mut a2, mut a3) = (0i32, 0i32, 0i32, 0i32);
            for (idx, &x) in prow.iter().enumerate() {
                let x = x as i32;
                a0 += x * w0[idx] as i32;
                a1 += x * w1[idx] as i32;
                a2 += x * w2[idx] as i32;
                a3 += x * w3[idx] as i32;
            }
            orow[k] = a0 as f64;
            orow[k + 1] = a1 as f64;
            orow[k + 2] = a2 as f64;
            orow[k + 3] = a3 as f64;
            k += 4;
        }
        while k < kr {
            let wrow = &w16[k * s..(k + 1) * s];
            let mut acc = 0i32;
            for (idx, &x) in prow.iter().enumerate() {
                acc += x as i32 * wrow[idx] as i32;
            }
            orow[k] = acc as f64;
            k += 1;
        }
    }
}

/// 1×4 i64 fallback for operands outside the narrow guard.
fn gemm_wide(patches: &PatchMatrix, weights: &WeightMatrix<'_>, out: &mut [f64]) {
    let (pr, kr) = (patches.rows(), weights.rows());
    for pi in 0..pr {
        let prow = patches.row(pi);
        let orow = &mut out[pi * kr..(pi + 1) * kr];
        let mut k = 0;
        while k + 4 <= kr {
            let w0 = weights.row(k);
            let w1 = weights.row(k + 1);
            let w2 = weights.row(k + 2);
            let w3 = weights.row(k + 3);
            let (mut a0, mut a1, mut a2, mut a3) = (0i64, 0i64, 0i64, 0i64);
            for (idx, &x) in prow.iter().enumerate() {
                let x = x as i64;
                a0 += x * w0[idx] as i64;
                a1 += x * w1[idx] as i64;
                a2 += x * w2[idx] as i64;
                a3 += x * w3[idx] as i64;
            }
            orow[k] = a0 as f64;
            orow[k + 1] = a1 as f64;
            orow[k + 2] = a2 as f64;
            orow[k + 3] = a3 as f64;
            k += 4;
        }
        while k < kr {
            let wrow = weights.row(k);
            let mut acc = 0i64;
            for (idx, &x) in prow.iter().enumerate() {
                acc += x as i64 * wrow[idx] as i64;
            }
            orow[k] = acc as f64;
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_engine_small_cases() {
        let e = ExactEngine;
        assert_eq!(e.vdp(&[], &[]), 0.0);
        assert_eq!(e.vdp(&[1, 2, 3], &[4, -5, 6]), (4 - 10 + 18) as f64);
        assert_eq!(e.vdp(&[255; 4], &[-127; 4]), -4.0 * 255.0 * 127.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn exact_engine_length_mismatch() {
        let _ = ExactEngine.vdp(&[1], &[1, 2]);
    }

    #[test]
    fn exact_engine_key_is_irrelevant() {
        let (i, w) = (vec![7u32, 9, 200], vec![3i32, -4, 11]);
        assert_eq!(
            ExactEngine.vdp_keyed(&i, &w, 0),
            ExactEngine.vdp_keyed(&i, &w, u64::MAX)
        );
    }

    fn test_tile(rows: usize, kernels: usize, cols: usize) -> (PatchMatrix, Vec<i32>, Vec<u64>) {
        let patches = PatchMatrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|i| ((i * 37) % 256) as u32).collect(),
        );
        let weights: Vec<i32> = (0..kernels * cols)
            .map(|i| ((i * 53) % 255) as i32 - 127)
            .collect();
        let keys: Vec<u64> = (0..rows as u64).map(mix_key).collect();
        (patches, weights, keys)
    }

    #[test]
    fn exact_gemm_matches_per_vector_path() {
        // Covers the 4-wide micro-kernel and the ragged kernel tail.
        for kernels in [1usize, 3, 4, 5, 8, 11] {
            let (patches, weights, keys) = test_tile(5, kernels, 37);
            let wm = WeightMatrix::new(&weights, kernels, 37);
            let got = ExactEngine.vdp_batch(&patches, &wm, &keys);
            for p in 0..5 {
                for k in 0..kernels {
                    assert_eq!(
                        got[p * kernels + k],
                        ExactEngine.vdp(patches.row(p), wm.row(k)),
                        "p={p} k={k} kernels={kernels}"
                    );
                }
            }
        }
    }

    #[test]
    fn default_batch_impl_applies_combined_keys() {
        // A probe engine that returns its key, to pin the key-derivation
        // contract the default impl (and every override) must follow.
        struct KeyProbe;
        impl VdpEngine for KeyProbe {
            fn vdp_keyed(&self, _i: &[u32], _w: &[i32], key: u64) -> f64 {
                key as f64
            }
            fn name(&self) -> &'static str {
                "probe"
            }
        }
        let (patches, weights, keys) = test_tile(3, 2, 4);
        let wm = WeightMatrix::new(&weights, 2, 4);
        let got = KeyProbe.vdp_batch(&patches, &wm, &keys);
        for p in 0..3 {
            for k in 0..2u64 {
                assert_eq!(
                    got[p * 2 + k as usize],
                    combine_keys(keys[p], k) as f64,
                    "p={p} k={k}"
                );
            }
        }
    }

    #[test]
    fn exact_gemm_wide_operands_match_per_vector_path() {
        // Operands outside the narrow i16/i32 guard must take the i64
        // fallback and still agree with the per-vector path exactly.
        let cols = 6;
        let patches = PatchMatrix::from_vec(
            2,
            cols,
            vec![u32::MAX, 70_000, 3, 0, 255, 1, 9, 40_000, 2, 255, 0, 77],
        );
        let weights: Vec<i32> = vec![
            i32::MAX,
            -40_000,
            5,
            -1,
            2,
            7, //
            -3,
            90_000,
            i32::MIN + 1,
            4,
            -255,
            0,
        ];
        let wm = WeightMatrix::new(&weights, 2, cols);
        let got = ExactEngine.vdp_batch(&patches, &wm, &[0, 1]);
        for p in 0..2 {
            for k in 0..2 {
                assert_eq!(got[p * 2 + k], ExactEngine.vdp(patches.row(p), wm.row(k)));
            }
        }
    }

    #[test]
    fn narrow_guard_accounts_for_accumulator_magnitude() {
        // Operands individually fit i16 but the worst-case sum overflows
        // i32 — the guard must reject the narrow path, and the result
        // must still be exact. 8192 elements of 32767 × 32767 sums to
        // ~8.8e12, far past i32 but exact in i64 → f64.
        let s = 8192usize;
        let patches = PatchMatrix::from_vec(1, s, vec![32_767u32; s]);
        let weights = vec![32_767i32; s];
        let wm = WeightMatrix::new(&weights, 1, s);
        let got = ExactEngine.vdp_batch(&patches, &wm, &[0]);
        assert_eq!(got[0], s as f64 * 32_767.0 * 32_767.0);
    }

    #[test]
    fn prepared_batch_matches_unprepared_batch() {
        for (rows, kernels, cols) in [(5usize, 7usize, 37usize), (1, 1, 0), (3, 4, 8)] {
            let (patches, weights, keys) = test_tile(rows, kernels, cols);
            let wm = WeightMatrix::new(&weights, kernels, cols);
            let prepared = ExactEngine.prepare_weights(&wm);
            assert_eq!(prepared.engine_name(), "exact");
            assert_eq!(prepared.rows(), kernels);
            assert_eq!(prepared.cols(), cols);
            assert_eq!(prepared.as_matrix().as_slice(), wm.as_slice());
            assert_eq!(
                ExactEngine.vdp_batch_prepared(&patches, &prepared, &keys),
                ExactEngine.vdp_batch(&patches, &wm, &keys),
                "rows={rows} kernels={kernels} cols={cols}"
            );
        }
    }

    #[test]
    fn prepared_wide_weights_skip_the_narrow_form() {
        // Weights outside i16 must prepare without a narrow copy and
        // still agree with the unprepared path.
        let cols = 4;
        let weights = vec![i32::MAX, -70_000, 3, 1, 9, 40_000, i32::MIN + 1, 2];
        let wm = WeightMatrix::new(&weights, 2, cols);
        let prepared = ExactEngine.prepare_weights(&wm);
        assert!(prepared
            .payload::<ExactPrepared>()
            .expect("payload")
            .w16
            .is_none());
        let patches = PatchMatrix::from_vec(2, cols, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(
            ExactEngine.vdp_batch_prepared(&patches, &prepared, &[0, 1]),
            ExactEngine.vdp_batch(&patches, &wm, &[0, 1])
        );
    }

    #[test]
    fn prepared_guard_still_tracks_patch_magnitude() {
        // Narrow weight form present, but huge *inputs* must push the
        // prepared path onto the wide kernel — and stay exact.
        let s = 8192usize;
        let weights = vec![32_767i32; s];
        let wm = WeightMatrix::new(&weights, 1, s);
        let prepared = ExactEngine.prepare_weights(&wm);
        assert!(prepared
            .payload::<ExactPrepared>()
            .expect("payload")
            .w16
            .is_some());
        let patches = PatchMatrix::from_vec(1, s, vec![32_767u32; s]);
        let got = ExactEngine.vdp_batch_prepared(&patches, &prepared, &[0]);
        assert_eq!(got[0], s as f64 * 32_767.0 * 32_767.0);
    }

    #[test]
    fn foreign_prepared_handle_falls_back_to_raw_weights() {
        // A handle prepared by some other engine (no ExactPrepared
        // payload) must still execute correctly on the raw matrix.
        let (patches, weights, keys) = test_tile(2, 3, 9);
        let wm = WeightMatrix::new(&weights, 3, 9);
        let foreign = PreparedWeights::raw("someone-else", &wm);
        assert_eq!(
            ExactEngine.vdp_batch_prepared(&patches, &foreign, &keys),
            ExactEngine.vdp_batch(&patches, &wm, &keys)
        );
    }

    #[test]
    fn combine_keys_separates_neighbours() {
        // Adjacent indices must land on unrelated keys, and the
        // combination must be order-sensitive.
        assert_ne!(combine_keys(0, 0), combine_keys(0, 1));
        assert_ne!(combine_keys(0, 1), combine_keys(1, 0));
        assert_ne!(combine_keys(1, 2), combine_keys(2, 1));
        assert_ne!(mix_key(41), mix_key(42));
    }

    #[test]
    #[should_panic(expected = "one noise key per patch")]
    fn batch_rejects_wrong_key_count() {
        let (patches, weights, _) = test_tile(2, 2, 3);
        let wm = WeightMatrix::new(&weights, 2, 3);
        let _ = ExactEngine.vdp_batch(&patches, &wm, &[0]);
    }

    #[test]
    #[should_panic(expected = "vector length mismatch")]
    fn batch_rejects_dimension_mismatch() {
        let (patches, _, keys) = test_tile(2, 2, 3);
        let weights = vec![1i32; 8];
        let wm = WeightMatrix::new(&weights, 2, 4);
        let _ = ExactEngine.vdp_batch(&patches, &wm, &keys);
    }

    #[test]
    fn zero_length_vectors_are_allowed() {
        let patches = PatchMatrix::zeros(2, 0);
        let weights: Vec<i32> = Vec::new();
        let wm = WeightMatrix::new(&weights, 3, 0);
        let out = ExactEngine.vdp_batch(&patches, &wm, &[0, 1]);
        assert_eq!(out, vec![0.0; 6]);
    }
}
