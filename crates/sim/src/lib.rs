//! # sconna-sim — transaction-level, event-driven simulator substrate
//!
//! Rust rebuild of the simulation vehicle the SCONNA paper evaluates on
//! (Section VI-B describes a "custom, transaction-level, event-driven
//! python-based simulator"): a deterministic discrete-event queue,
//! picosecond simulated time, an energy/power/area ledger fed from
//! Table IV-style component specs, utilization, latency, queue-depth and
//! goodput statistics, plus a fork-join parallel map for parameter
//! sweeps. Memory traffic is modelled analytically in `sconna-accel`'s
//! `perf` module and the mesh routers appear there only as power/area
//! entries (`peripherals`).
//!
//! The accelerator-specific models (SCONNA itself and the analog
//! baselines) live in `sconna-accel`; this crate is architecture-neutral.
//!
//! ```
//! use sconna_sim::{event::EventQueue, time::SimTime};
//!
//! let mut q = EventQueue::new();
//! q.schedule_at(SimTime::from_ns(2), "psum");
//! q.schedule_at(SimTime::from_ns(1), "vdp");
//! let (t, what) = q.pop().unwrap();
//! assert_eq!((t, what), (SimTime::from_ns(1), "vdp"));
//! ```

pub mod energy;
pub mod event;
pub mod parallel;
pub mod stats;
pub mod time;

pub use energy::{ComponentSpec, EnergyLedger};
pub use event::EventQueue;
pub use stats::gmean;
pub use time::SimTime;
