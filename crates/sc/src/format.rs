//! Precision of stochastic numbers.
//!
//! SCONNA uses the **unipolar** format: a `B`-bit unsigned integer `n` is
//! encoded as a stream of `L = 2^B` bits containing exactly `n` ones, i.e.
//! the value `n / 2^B ∈ [0, 1)`. Weights carry a separate sign bit that the
//! filter MRRs use to steer products to the positive or negative
//! accumulator (Section IV-A), so magnitude streams are always unipolar.

use serde::{Deserialize, Serialize};

/// Precision descriptor: `B` bits of binary precision, stream length
/// `L = 2^B`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Precision {
    bits: u8,
}

impl Precision {
    /// Creates a precision of `bits` binary bits.
    ///
    /// # Panics
    /// Panics if `bits == 0` or `bits > 16` (streams longer than 65536 bits
    /// are outside any regime the paper considers and would make LUTs
    /// enormous).
    pub fn new(bits: u8) -> Self {
        assert!(
            (1..=16).contains(&bits),
            "precision must be in 1..=16, got {bits}"
        );
        Self { bits }
    }

    /// The paper's operating point: 8-bit integer quantization, 256-bit
    /// streams.
    pub const B8: Self = Self { bits: 8 };

    /// 4-bit precision (the operating point the analog baselines are stuck
    /// at).
    pub const B4: Self = Self { bits: 4 };

    /// Number of binary bits `B`.
    #[inline]
    pub fn bits(self) -> u8 {
        self.bits
    }

    /// Stream length `L = 2^B`.
    #[inline]
    pub fn stream_len(self) -> usize {
        1usize << self.bits
    }

    /// Largest representable magnitude `2^B - 1`.
    #[inline]
    pub fn max_value(self) -> u32 {
        (1u32 << self.bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_basics() {
        let p = Precision::B8;
        assert_eq!(p.bits(), 8);
        assert_eq!(p.stream_len(), 256);
        assert_eq!(p.max_value(), 255);
    }

    #[test]
    #[should_panic(expected = "precision must be in 1..=16")]
    fn precision_zero_rejected() {
        let _ = Precision::new(0);
    }
}
