//! # sconna — Rust reproduction of the SCONNA optical accelerator
//!
//! SCONNA (Sri Vatsavai et al., IPDPS 2023) is a **S**tochastic
//! **C**omputing based **O**ptical **N**eural **N**etwork **A**ccelerator:
//! it replaces the analog vector-dot-product cores of photonic CNN
//! accelerators with microring-based *optical stochastic multipliers* and
//! *photo-charge accumulators*, escaping the precision-vs-size trade-off
//! that caps analog VDP cores at 44 points and reaching 176-point VDP
//! elements at 8-bit precision.
//!
//! This crate re-exports the whole reproduction stack:
//!
//! * [`sc`] — stochastic computing: bit-streams, SNGs, the OSM multiply,
//!   PCA-style accumulation;
//! * [`photonics`] — device/link models: MRRs, the optical AND gate,
//!   photodetector noise, the power-budget scalability solvers, the PCA
//!   circuit;
//! * [`tensor`] — CNN substrate: int8 quantized layers over a pluggable
//!   VDP engine, the four evaluated architectures, a trainable small CNN;
//! * [`sim`] — event-driven simulator substrate;
//! * [`accel`] — the SCONNA system model and the MAM/AMM analog baselines,
//!   performance + accuracy evaluation.
//!
//! ```
//! use sconna::accel::{simulate_inference, AcceleratorConfig};
//! use sconna::tensor::models::resnet50;
//!
//! let sconna = simulate_inference(&AcceleratorConfig::sconna(), &resnet50());
//! let mam = simulate_inference(&AcceleratorConfig::mam(), &resnet50());
//! assert!(sconna.fps > 10.0 * mam.fps);
//! ```

pub use sconna_accel as accel;
pub use sconna_photonics as photonics;
pub use sconna_sc as sc;
pub use sconna_sim as sim;
pub use sconna_tensor as tensor;

/// Compiles and runs the README's `rust` snippets as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
