//! # sconna-sc — stochastic computing substrate
//!
//! Implements the stochastic-computing layer of the SCONNA reproduction
//! (Sri Vatsavai et al., IPDPS 2023): unipolar stochastic numbers as packed
//! bit-streams, the stochastic number generators behind the paper's offline
//! LUT, the AND-gate multiplication an Optical Stochastic Multiplier (OSM)
//! performs, and the ones-counting accumulation a Photo-Charge Accumulator
//! (PCA) performs.
//!
//! Two equivalent computation paths are provided and property-tested
//! against each other:
//!
//! * **bit-stream path** — materialize `2^B`-bit streams, AND them, count
//!   ones (what the hardware physically does);
//! * **closed-form path** — `O(B)` integer arithmetic producing the exact
//!   same counts ([`multiply::lds_product`]), which makes simulating
//!   billion-multiply CNN inferences tractable.
//!
//! ```
//! use sconna_sc::{Precision, multiply::osm_product, accumulate::stochastic_vdp};
//!
//! let p = Precision::B8;
//! // One OSM multiply: 128/256 × 64/256 ≈ 32/256.
//! assert_eq!(osm_product(128, 64, p), 32);
//! // One VDPE: signed dot product in ones-count units.
//! let acc = stochastic_vdp(&[100, 200], &[50, -30], p);
//! assert!((acc as f64 - (100.0 * 50.0 - 200.0 * 30.0) / 256.0).abs() <= 16.0);
//! ```

pub mod accumulate;
pub mod bitstream;
pub mod error;
pub mod format;
pub mod lut;
pub mod multiply;
pub mod sng;

pub use bitstream::PackedBitstream;
pub use format::Precision;
pub use lut::{OsmProductLut, PairLut};
