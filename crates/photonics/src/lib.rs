//! # sconna-photonics — photonic device and link models
//!
//! The device-level half of the SCONNA reproduction (Sections IV–V of the
//! paper): microring resonators, the MRR-based Optical AND Gate that makes
//! an Optical Stochastic Multiplier, photodetector noise and resolution
//! (Eq. 2/3), the DWDM link power budget (Eq. 4, Table III), the VDPC
//! scalability solvers (Table I, the `N = 176` anchor), and the
//! Photo-Charge Accumulator circuit (Fig. 4(b), Fig. 7(b)).
//!
//! Where the paper relied on Lumerical/MultiSim device simulation, this
//! crate substitutes calibrated analytic models; every calibration is
//! listed under "Substitutions and calibrations" in `ARCHITECTURE.md` and
//! asserted by unit tests against the paper's anchor numbers.
//!
//! ```
//! use sconna_photonics::scalability::sconna_scalability_default;
//!
//! // Section V-B: a SCONNA VDPC supports N = M = 176 OSMs per VDPE.
//! assert_eq!(sconna_scalability_default().achievable_n, 176);
//! ```

pub mod link;
pub mod mrr;
pub mod oag;
pub mod pca;
pub mod photodetector;
pub mod scalability;
pub mod spectrum;
pub mod thermal;
pub mod units;

pub use link::LinkParameters;
pub use mrr::Mrr;
pub use oag::OpticalAndGate;
pub use pca::{AdcModel, PcaCircuit};
pub use photodetector::Photodetector;
