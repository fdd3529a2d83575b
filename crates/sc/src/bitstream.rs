//! Packed stochastic bit-streams.
//!
//! A stochastic number (SN) is a bit-stream of length `L` whose value is the
//! fraction of `1` bits (unipolar format, Section II-D of the SCONNA paper).
//! Streams are stored packed into `u64` words so that the bit-wise operations
//! an optical AND gate (or any SC logic gate) performs map onto whole-word
//! integer operations plus a final `popcount`.

use std::fmt;

/// Number of bits per storage word.
const WORD_BITS: usize = 64;

/// A fixed-length bit-stream packed into `u64` words, LSB-first within each
/// word (bit `t` of the stream lives at `words[t / 64] >> (t % 64) & 1`).
///
/// Lengths need not be multiples of 64; bits past `len` in the final word are
/// kept zero as an invariant so that [`PackedBitstream::count_ones`] never
/// needs masking.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PackedBitstream {
    words: Vec<u64>,
    len: usize,
}

impl PackedBitstream {
    /// Creates an all-zero stream of `len` bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Creates an all-one stream of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut s = Self {
            words: vec![u64::MAX; len.div_ceil(WORD_BITS)],
            len,
        };
        s.mask_tail();
        s
    }

    /// Builds a stream from an iterator of booleans; the iterator's length
    /// defines the stream length.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut words = Vec::new();
        let mut len = 0usize;
        let mut cur = 0u64;
        for b in bits {
            if b {
                cur |= 1u64 << (len % WORD_BITS);
            }
            len += 1;
            if len.is_multiple_of(WORD_BITS) {
                words.push(cur);
                cur = 0;
            }
        }
        if !len.is_multiple_of(WORD_BITS) {
            words.push(cur);
        }
        Self { words, len }
    }

    /// Stream length in bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the stream holds zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `t`.
    ///
    /// # Panics
    /// Panics if `t >= len`.
    #[inline]
    pub fn get(&self, t: usize) -> bool {
        assert!(t < self.len, "bit index {t} out of range {}", self.len);
        (self.words[t / WORD_BITS] >> (t % WORD_BITS)) & 1 == 1
    }

    /// Writes bit `t`.
    ///
    /// # Panics
    /// Panics if `t >= len`.
    #[inline]
    pub fn set(&mut self, t: usize, v: bool) {
        assert!(t < self.len, "bit index {t} out of range {}", self.len);
        let w = &mut self.words[t / WORD_BITS];
        let mask = 1u64 << (t % WORD_BITS);
        if v {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Number of `1` bits — the numerator of the unipolar value.
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Unipolar value `count_ones / len` in `[0, 1]`.
    pub fn unipolar_value(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        self.count_ones() as f64 / self.len as f64
    }

    /// Bit-wise AND (the stochastic unipolar multiplier, Fig. 3 of the
    /// paper).
    ///
    /// # Panics
    /// Panics if the streams differ in length.
    pub fn and(&self, other: &Self) -> Self {
        assert_eq!(self.len, other.len, "stream length mismatch");
        Self {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
            len: self.len,
        }
    }

    /// Bit-wise NOT (unipolar complement `1 - v`).
    pub fn not(&self) -> Self {
        let mut out = Self {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        out.mask_tail();
        out
    }

    /// Number of positions where both streams are `1`; the AND-overlap count
    /// used by correlation metrics without materializing the AND stream.
    ///
    /// # Panics
    /// Panics if the streams differ in length.
    pub fn overlap(&self, other: &Self) -> usize {
        assert_eq!(self.len, other.len, "stream length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Iterates over the bits in stream order (what a serializer emits to
    /// the optical AND gate, Section IV-B).
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |t| self.get(t))
    }

    /// Raw packed words (tail bits beyond `len` are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    fn mask_tail(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

impl fmt::Debug for PackedBitstream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PackedBitstream[{}; ", self.len)?;
        let shown = self.len.min(64);
        for t in 0..shown {
            write!(f, "{}", u8::from(self.get(t)))?;
        }
        if self.len > shown {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Asserts the storage invariant: exactly `ceil(len/64)` words, and
    /// every bit at position ≥ `len` in the final word is zero.
    fn assert_tail_clear(s: &PackedBitstream) {
        assert_eq!(
            s.words().len(),
            s.len().div_ceil(WORD_BITS),
            "word count for len {}",
            s.len()
        );
        let rem = s.len() % WORD_BITS;
        if rem != 0 {
            let last = *s.words().last().unwrap();
            assert_eq!(
                last & !((1u64 << rem) - 1),
                0,
                "bits leak past len {} (last word {last:#018x})",
                s.len()
            );
        }
    }

    #[test]
    fn tail_invariant_holds_at_every_boundary_length() {
        // Fuzzed lengths 0..=256 cover the 63/64/65 and 127/128/129 word
        // boundaries the packing arithmetic pivots on.
        for len in 0..=256usize {
            let ones = PackedBitstream::ones(len);
            assert_eq!(ones.count_ones(), len, "ones({len})");
            assert_tail_clear(&ones);

            let from = PackedBitstream::from_bits((0..len).map(|_| true));
            assert_eq!(from.count_ones(), len, "from_bits all-true len {len}");
            assert_tail_clear(&from);
            assert_eq!(from, ones, "from_bits(true;{len}) == ones({len})");

            let complement = PackedBitstream::zeros(len).not();
            assert_eq!(complement.count_ones(), len, "not(zeros({len}))");
            assert_tail_clear(&complement);
        }
    }

    proptest! {
        #[test]
        fn prop_tail_never_leaks(len in 0usize..=256, seed in 0u64..=(u64::MAX - 1)) {
            // A cheap deterministic bit pattern from the seed.
            let mut state = seed | 1;
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state & 1 == 1
            };
            let bits: Vec<bool> = (0..len).map(|_| next()).collect();
            let s = PackedBitstream::from_bits(bits.iter().copied());
            let expected = bits.iter().filter(|&&b| b).count();
            prop_assert_eq!(s.len(), len);
            prop_assert_eq!(s.count_ones(), expected);
            assert_tail_clear(&s);

            // Every operator preserves the invariant and the complement
            // identity count(s) + count(!s) == len.
            let n = s.not();
            assert_tail_clear(&n);
            prop_assert_eq!(s.count_ones() + n.count_ones(), len);
            assert_tail_clear(&s.and(&n));
            prop_assert_eq!(s.and(&n).count_ones(), 0);
        }
    }

    #[test]
    fn zeros_and_ones_counts() {
        assert_eq!(PackedBitstream::zeros(100).count_ones(), 0);
        assert_eq!(PackedBitstream::ones(100).count_ones(), 100);
        assert_eq!(PackedBitstream::ones(64).count_ones(), 64);
        assert_eq!(PackedBitstream::ones(65).count_ones(), 65);
    }

    #[test]
    fn from_bits_roundtrip() {
        let bits: Vec<bool> = (0..130).map(|t| t % 3 == 0).collect();
        let s = PackedBitstream::from_bits(bits.iter().copied());
        assert_eq!(s.len(), 130);
        for (t, &b) in bits.iter().enumerate() {
            assert_eq!(s.get(t), b, "bit {t}");
        }
    }

    #[test]
    fn set_get() {
        let mut s = PackedBitstream::zeros(70);
        s.set(0, true);
        s.set(63, true);
        s.set(64, true);
        s.set(69, true);
        assert_eq!(s.count_ones(), 4);
        s.set(63, false);
        assert_eq!(s.count_ones(), 3);
        assert!(!s.get(63));
    }

    #[test]
    fn and_is_multiplication_of_example_from_paper() {
        // Fig. 3: I = 4/8, W = 6/8, overlap chosen so A = 3/8.
        let i = PackedBitstream::from_bits([true, false, true, false, true, false, true, false]);
        let w = PackedBitstream::from_bits([true, true, true, true, true, true, false, false]);
        let a = i.and(&w);
        assert_eq!(a.count_ones(), 3);
        assert!((a.unipolar_value() - 0.375).abs() < 1e-12);
    }

    #[test]
    fn not_complements_value() {
        let s = PackedBitstream::from_bits((0..100).map(|t| t < 30));
        let n = s.not();
        assert_eq!(n.count_ones(), 70);
        assert_eq!(n.len(), 100);
    }

    #[test]
    fn overlap_matches_and_popcount() {
        let a = PackedBitstream::from_bits((0..200).map(|t| t % 2 == 0));
        let b = PackedBitstream::from_bits((0..200).map(|t| t % 3 == 0));
        assert_eq!(a.overlap(&b), a.and(&b).count_ones());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn and_length_mismatch_panics() {
        let a = PackedBitstream::zeros(8);
        let b = PackedBitstream::zeros(9);
        let _ = a.and(&b);
    }
}
