//! The OSM peripheral: offline-generated bit-vector LUT plus serializers
//! (Fig. 5 of the paper).
//!
//! Section IV-B stores, for `B`-bit precision, `2^B` LUT entries, each
//! holding **two `2^B`-bit vectors** — the uncorrelated encoding of a value
//! as an input stream `Iv` and as a weight stream `Wv`. At run time the OSM
//! fetches `Iv` from the entry addressed by `Ib`, `Wv` from the entry
//! addressed by `Wb`, and pushes both through high-speed serializers into
//! the optical AND gate.
//!
//! The paper compresses the two fetches into one via an `Ib ⊕ Wb` hash; the
//! hash aliases distinct operand pairs onto one entry, so we model both the
//! collision-free two-fetch LUT (`PairLut`) and the hashed variant
//! (`XorHashedLut`) and quantify the hash's aliasing error in the SNG
//! ablation.

use crate::bitstream::PackedBitstream;
use crate::format::Precision;
use crate::multiply::{multiply_streams, osm_product_debiased};
use crate::sng::{LdsSng, StochasticNumberGenerator, ThermometerSng};

/// Offline-generated LUT of uncorrelated stream pairs: entry `k` stores
/// `(Iv(k), Wv(k))` where `Iv` is the low-discrepancy encoding and `Wv` the
/// thermometer encoding — a combination whose AND is the bounded-error
/// product (see [`crate::multiply`]).
#[derive(Debug, Clone)]
pub struct PairLut {
    precision: Precision,
    entries: Vec<(PackedBitstream, PackedBitstream)>,
}

impl PairLut {
    /// Generates the LUT offline for the given precision (`2^B + 1` entries
    /// so the full-scale value `2^B` is also encodable).
    pub fn generate(precision: Precision) -> Self {
        let l = precision.stream_len() as u32;
        let entries = (0..=l)
            .map(|k| {
                (
                    LdsSng.generate(k, precision),
                    ThermometerSng.generate(k, precision),
                )
            })
            .collect();
        Self { precision, entries }
    }

    /// Precision the LUT was generated for.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Fetches the input-side stream for binary value `ib`.
    ///
    /// # Panics
    /// Panics if `ib` is out of range.
    pub fn input_stream(&self, ib: u32) -> &PackedBitstream {
        &self.entries[ib as usize].0
    }

    /// Fetches the weight-side stream for binary value `wb`.
    ///
    /// # Panics
    /// Panics if `wb` is out of range.
    pub fn weight_stream(&self, wb: u32) -> &PackedBitstream {
        &self.entries[wb as usize].1
    }

    /// Full OSM data path: fetch both streams and AND them, returning the
    /// product ones-count.
    pub fn multiply(&self, ib: u32, wb: u32) -> u32 {
        multiply_streams(self.input_stream(ib), self.weight_stream(wb)) as u32
    }

    /// Storage footprint in bits: entries × two vectors × stream length —
    /// the eDRAM sizing quoted in Section IV-B ("2^B entries, each entry
    /// storing two 2^B-bits long bit-vectors").
    pub fn storage_bits(&self) -> usize {
        self.entries.len() * 2 * self.precision.stream_len()
    }
}

/// The paper's single-fetch variant: one `2^B`-entry table addressed by the
/// XOR hash `Ib ⊕ Wb`. Since the hash is lossy, the entry stores the pair
/// generated for the *representative* operand pair `(h, h)` of each hash
/// bucket; any other `(Ib, Wb)` in the bucket reads streams encoding the
/// wrong values. This type exists to measure that aliasing cost — the
/// collision-free [`PairLut`] is what the rest of the system uses.
#[derive(Debug, Clone)]
pub struct XorHashedLut {
    lut: PairLut,
}

impl XorHashedLut {
    /// Builds the hashed LUT on top of the canonical pair table.
    pub fn generate(precision: Precision) -> Self {
        Self {
            lut: PairLut::generate(precision),
        }
    }

    /// Hash index for an operand pair.
    #[inline]
    pub fn index(ib: u32, wb: u32) -> u32 {
        ib ^ wb
    }

    /// Single-fetch multiply: both streams come from the hashed entry.
    /// Exact when `ib == wb` (hash 0 bucket aside) and increasingly wrong
    /// as the operands diverge.
    pub fn multiply(&self, ib: u32, wb: u32) -> u32 {
        let h = Self::index(ib, wb) & (self.lut.precision.stream_len() as u32 - 1);
        multiply_streams(self.lut.input_stream(h), self.lut.weight_stream(h)) as u32
    }
}

/// Precomputed table of the **debiased OSM product** for every operand
/// pair — the in-simulator mirror of the paper's offline DPU conversion
/// LUT (Section II-B): just as the hardware converts binary operands to
/// streams offline so the online datapath is a fetch + AND, the simulator
/// converts the `O(B)` closed form into a table offline.
///
/// The layout is **weight-major**, `[w][parity][i]`: row
/// [`weight_row(w, parity)`](Self::weight_row) holds one weight
/// magnitude's products against every input value under the ceil
/// (parity 0) or floor (parity 1) pairing of [`osm_product_debiased`], so
/// a tile kernel keeps a weight's row resident while every patch streams
/// through it, as the DKV-programmed OSM holds its weight stream. At B = 8
/// this is `256 × 2` rows of 256 u16 products (256 KiB, 512 B per row).
/// The domain is `[0, 2^B)`; the engines clamp operands first, exactly as
/// the hardware's `B`-bit registers do.
#[derive(Debug, Clone)]
pub struct OsmProductLut {
    precision: Precision,
    bits: u32,
    table: Vec<u16>,
}

impl OsmProductLut {
    /// Largest precision the table form supports: above B = 10 the
    /// `(2^B)^2 × 2` u16 grid outgrows any cache level that would make
    /// it faster than the closed form.
    pub const MAX_BITS: u8 = 10;

    /// Generates the weight-major product table for `precision`, or
    /// `None` when the precision exceeds [`Self::MAX_BITS`] (callers
    /// fall back to the closed form).
    pub fn try_generate(precision: Precision) -> Option<Self> {
        if precision.bits() > Self::MAX_BITS {
            return None;
        }
        let l = precision.stream_len() as u32;
        let mut table = Vec::with_capacity((l as usize) * (l as usize) * 2);
        for w in 0..l {
            for parity in 0..2 {
                table.extend((0..l).map(|i| osm_product_debiased(i, w, precision, parity) as u16));
            }
        }
        Some(Self {
            precision,
            bits: precision.bits() as u32,
            table,
        })
    }

    /// Generates the table.
    ///
    /// # Panics
    /// Panics if `precision` exceeds [`Self::MAX_BITS`].
    pub fn generate(precision: Precision) -> Self {
        Self::try_generate(precision)
            .unwrap_or_else(|| panic!("OsmProductLut supports at most B{}", Self::MAX_BITS))
    }

    /// Process-wide shared table for `precision` (generated once,
    /// then handed out as `Arc` clones): engines are constructed per
    /// serving instance and per experiment, and the table is immutable,
    /// so there is no reason to regenerate them. The lock guards
    /// construction only — the hot path holds a plain `Arc`.
    pub fn shared(precision: Precision) -> Option<std::sync::Arc<Self>> {
        // sconna-lint: allow-file(no-unordered-report-iteration) -- cache is keyed get/insert only (entry API below), never iterated, so its order cannot reach any report
        use std::collections::HashMap;
        use std::sync::{Arc, Mutex, OnceLock};
        static CACHE: OnceLock<Mutex<HashMap<u8, Arc<OsmProductLut>>>> = OnceLock::new();
        if precision.bits() > Self::MAX_BITS {
            return None;
        }
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        // A poisoned cache still holds only fully-built Arc entries
        // (the entry API inserts after `generate` returns), so recover
        // the guard instead of panicking every later engine build.
        let mut map = cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Some(
            map.entry(precision.bits())
                .or_insert_with(|| Arc::new(Self::generate(precision)))
                .clone(),
        )
    }

    /// Precision the table was generated for.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The contiguous row of weight magnitude `w`'s products against
    /// every input `0..2^B` under OSM pairing `parity` (low bit only).
    /// Panics if `w` is outside `[0, 2^B)`.
    #[inline]
    pub fn weight_row(&self, w: u32, parity: usize) -> &[u16] {
        let len = 1usize << self.bits;
        let start = ((w as usize) << 1 | (parity & 1)) * len;
        &self.table[start..start + len]
    }

    /// Debiased OSM product by table load — equals
    /// [`osm_product_debiased`] for every operand pair in `[0, 2^B)`
    /// (property-tested); either operand outside that range panics.
    #[inline]
    pub fn product(&self, i: u32, w: u32, osm_index: usize) -> u32 {
        self.weight_row(w, osm_index)[i as usize] as u32
    }
}

/// A serializer models the LUT-to-OAG path: it drains a fetched bit-vector
/// one bit per `1/bitrate` interval (Section IV-B drives the OAG PN
/// junctions at up to 40 Gb/s). The iterator yields `(time_ps, bit)` pairs.
#[derive(Debug, Clone)]
pub struct Serializer {
    /// Serialization bitrate in bits per second.
    pub bitrate_hz: f64,
}

impl Serializer {
    /// Creates a serializer at the given bitrate.
    ///
    /// # Panics
    /// Panics if the bitrate is not positive.
    pub fn new(bitrate_hz: f64) -> Self {
        assert!(bitrate_hz > 0.0, "bitrate must be positive");
        Self { bitrate_hz }
    }

    /// Bit interval in picoseconds.
    pub fn bit_period_ps(&self) -> f64 {
        1e12 / self.bitrate_hz
    }

    /// Serializes a stream into `(time_ps, bit)` events.
    pub fn serialize<'a>(
        &'a self,
        stream: &'a PackedBitstream,
    ) -> impl Iterator<Item = (f64, bool)> + 'a {
        let period = self.bit_period_ps();
        stream
            .iter()
            .enumerate()
            .map(move |(t, b)| (t as f64 * period, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiply::{ideal_product, lds_product, osm_product_debiased};

    #[test]
    fn pair_lut_matches_closed_form_b4() {
        let p = Precision::B4;
        let lut = PairLut::generate(p);
        for i in 0..=16u32 {
            for w in 0..=16u32 {
                assert_eq!(lut.multiply(i, w), lds_product(i, w, p), "i={i} w={w}");
            }
        }
    }

    #[test]
    fn pair_lut_storage_matches_paper_sizing() {
        let p = Precision::B8;
        let lut = PairLut::generate(p);
        // Paper: 2^B entries × two 2^B-bit vectors = 256 * 2 * 256 bits
        // (plus our one extra full-scale entry).
        assert_eq!(lut.storage_bits(), 257 * 2 * 256);
    }

    #[test]
    fn xor_hash_is_exact_on_diagonal() {
        let p = Precision::B4;
        let hashed = XorHashedLut::generate(p);
        for v in 1..16u32 {
            // On the diagonal the hash is 0, so the fetched entry encodes
            // (0,0) — demonstrating that even the diagonal aliases under a
            // pure XOR index. This documents why the collision-free LUT is
            // the faithful model.
            assert_eq!(hashed.multiply(v, v), 0);
        }
    }

    #[test]
    fn xor_hash_error_is_nonzero_off_diagonal() {
        let p = Precision::B4;
        let hashed = XorHashedLut::generate(p);
        let mut total_err = 0u64;
        for i in 0..=15u32 {
            for w in 0..=15u32 {
                let got = hashed.multiply(i, w) as i64;
                let want = ideal_product(i, w, p) as i64;
                total_err += got.abs_diff(want);
            }
        }
        assert!(total_err > 0, "XOR hashing should show aliasing error");
    }

    #[test]
    fn serializer_timing() {
        let s = Serializer::new(30e9); // SCONNA's 30 Gb/s
        assert!((s.bit_period_ps() - 33.333).abs() < 0.01);
    }

    #[test]
    fn serializer_emits_all_bits_in_order() {
        let s = Serializer::new(10e9);
        let stream = PackedBitstream::from_bits([true, false, true, true]);
        let events: Vec<(f64, bool)> = s.serialize(&stream).collect();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0], (0.0, true));
        assert!((events[1].0 - 100.0).abs() < 1e-9);
        assert!(!events[1].1);
        assert!(events[3].1);
    }

    #[test]
    #[should_panic(expected = "bitrate must be positive")]
    fn serializer_rejects_zero_bitrate() {
        let _ = Serializer::new(0.0);
    }

    /// Asserts every `(i, w, parity)` of the given operand lists: the
    /// weight row, and the per-pair `product` reading it, equal the
    /// closed form.
    fn assert_rows_match_closed_form(lut: &OsmProductLut, is: &[u32], ws: &[u32]) {
        let p = lut.precision();
        for &w in ws {
            for parity in 0..4 {
                let row = lut.weight_row(w, parity);
                assert_eq!(row.len(), p.stream_len());
                for &i in is {
                    let want = osm_product_debiased(i, w, p, parity);
                    assert_eq!(row[i as usize] as u32, want, "i={i} w={w} parity={parity}");
                    assert_eq!(
                        lut.product(i, w, parity),
                        want,
                        "i={i} w={w} parity={parity}"
                    );
                }
            }
        }
    }

    #[test]
    fn product_lut_matches_closed_form_exhaustive_b4() {
        let all: Vec<u32> = (0..16).collect();
        assert_rows_match_closed_form(&OsmProductLut::generate(Precision::B4), &all, &all);
    }

    #[test]
    fn product_lut_matches_closed_form_sampled_b8() {
        let is: Vec<u32> = (0..256).step_by(7).chain([255]).collect();
        let ws: Vec<u32> = (0..256).step_by(5).chain([1, 254]).collect();
        assert_rows_match_closed_form(&OsmProductLut::generate(Precision::B8), &is, &ws);
    }

    #[test]
    fn product_lut_matches_closed_form_at_b10_corners() {
        // The largest table: first, second, middle and last rows and
        // columns, where an off-by-one in the row stride would show.
        let corners = [0u32, 1, 2, 511, 512, 1022, 1023];
        assert_rows_match_closed_form(
            &OsmProductLut::generate(Precision::new(10)),
            &corners,
            &corners,
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn product_lut_rejects_weight_outside_domain() {
        let _ = OsmProductLut::generate(Precision::B4).weight_row(16, 0);
    }

    #[test]
    fn product_lut_b8_sizing() {
        let lut = OsmProductLut::generate(Precision::B8);
        // [w][parity][i] = 256 weights × 2 pairings × 256 inputs: the
        // last row exists and spans every input.
        assert_eq!(lut.weight_row(255, 1).len(), 256);
        assert_eq!(lut.precision(), Precision::B8);
    }

    #[test]
    fn product_lut_refuses_oversized_precision() {
        assert!(OsmProductLut::try_generate(Precision::new(10)).is_some());
        assert!(OsmProductLut::try_generate(Precision::new(11)).is_none());
    }
}
