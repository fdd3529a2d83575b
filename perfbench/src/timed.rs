//! A timing decorator over any [`VdpEngine`]: forwards every trait
//! method to the wrapped engine and counts calls, MACs, rail
//! conversions and busy time with relaxed atomics (statistics only —
//! they publish no other data).
//!
//! Every method is forwarded explicitly. Leaving `vdp_batch_prepared` or
//! `prepare_weights` to the trait defaults would silently run the raw,
//! unprepared path and time a different program.

use crate::clock::now_ns;
use crate::trace::Tracer;
use sconna_accel::engine::SconnaEngine;
use sconna_tensor::engine::{PatchMatrix, PreparedWeights, VdpEngine, WeightMatrix};
use std::sync::atomic::{AtomicU64, Ordering};

/// Vector lengths up to this fill at most a quarter of one 176-wide
/// VDPE chunk; longer vectors are the LUT-gather-bound class.
pub const SHORT_VECTOR: usize = 44;

/// Counters of one vector-length class.
#[derive(Default)]
pub struct ClassCounters {
    pub busy_ns: AtomicU64,
    pub macs: AtomicU64,
}

/// Everything the decorator counts.
#[derive(Default)]
pub struct Counters {
    pub calls: AtomicU64,
    pub macs: AtomicU64,
    pub busy_ns: AtomicU64,
    pub conversions: AtomicU64,
    pub prepare_calls: AtomicU64,
    pub prepare_ns: AtomicU64,
    /// Tiles with vector length `<= SHORT_VECTOR`.
    pub short: ClassCounters,
    /// Tiles with vector length `> SHORT_VECTOR`.
    pub long: ClassCounters,
}

/// A plain-integer copy of [`Counters`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub calls: u64,
    pub macs: u64,
    pub busy_ns: u64,
    pub conversions: u64,
    pub prepare_calls: u64,
    pub prepare_ns: u64,
    pub short_busy_ns: u64,
    pub short_macs: u64,
    pub long_busy_ns: u64,
    pub long_macs: u64,
}

impl Counters {
    pub fn tally(&self) -> Tally {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        Tally {
            calls: get(&self.calls),
            macs: get(&self.macs),
            busy_ns: get(&self.busy_ns),
            conversions: get(&self.conversions),
            prepare_calls: get(&self.prepare_calls),
            prepare_ns: get(&self.prepare_ns),
            short_busy_ns: get(&self.short.busy_ns),
            short_macs: get(&self.short.macs),
            long_busy_ns: get(&self.long.busy_ns),
            long_macs: get(&self.long.macs),
        }
    }
}

impl std::ops::Add for Tally {
    type Output = Tally;
    fn add(self, o: Tally) -> Tally {
        Tally {
            calls: self.calls + o.calls,
            macs: self.macs + o.macs,
            busy_ns: self.busy_ns + o.busy_ns,
            conversions: self.conversions + o.conversions,
            prepare_calls: self.prepare_calls + o.prepare_calls,
            prepare_ns: self.prepare_ns + o.prepare_ns,
            short_busy_ns: self.short_busy_ns + o.short_busy_ns,
            short_macs: self.short_macs + o.short_macs,
            long_busy_ns: self.long_busy_ns + o.long_busy_ns,
            long_macs: self.long_macs + o.long_macs,
        }
    }
}

/// The decorator. `rail_chunk` is the VDPE width when the engine
/// converts every chunk's rail pair through an ADC (`None` otherwise);
/// it turns tile shapes into conversion counts.
pub struct Timed<'t, E> {
    inner: E,
    rail_chunk: Option<usize>,
    tracer: Option<&'t Tracer>,
    pub counters: Counters,
}

impl<'t> Timed<'t, SconnaEngine> {
    /// Wraps a SCONNA engine; rail conversions are counted when it has
    /// an ADC model.
    pub fn sconna(inner: SconnaEngine, tracer: Option<&'t Tracer>) -> Self {
        let rail_chunk = inner.adc.map(|_| inner.vdpe_size);
        Self {
            inner,
            rail_chunk,
            tracer,
            counters: Counters::default(),
        }
    }
}

impl<E: VdpEngine> Timed<'_, E> {
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Times one tile call and attributes it to its vector-length class.
    fn tile<R>(&self, pairs: usize, cols: usize, f: impl FnOnce() -> R) -> R {
        let _span = self.tracer.map(|t| t.span("accel.engine.tile", None));
        let start = now_ns();
        let out = f();
        let busy = now_ns() - start;
        let macs = (pairs * cols) as u64;
        let c = &self.counters;
        c.calls.fetch_add(1, Ordering::Relaxed);
        c.macs.fetch_add(macs, Ordering::Relaxed);
        c.busy_ns.fetch_add(busy, Ordering::Relaxed);
        if let Some(chunk) = self.rail_chunk {
            let rails = 2 * pairs * cols.div_ceil(chunk);
            c.conversions.fetch_add(rails as u64, Ordering::Relaxed);
        }
        let class = if cols <= SHORT_VECTOR {
            &c.short
        } else {
            &c.long
        };
        class.busy_ns.fetch_add(busy, Ordering::Relaxed);
        class.macs.fetch_add(macs, Ordering::Relaxed);
        out
    }
}

impl<E: VdpEngine> VdpEngine for Timed<'_, E> {
    fn vdp_keyed(&self, inputs: &[u32], weights: &[i32], key: u64) -> f64 {
        self.tile(1, inputs.len(), || {
            self.inner.vdp_keyed(inputs, weights, key)
        })
    }

    fn vdp(&self, inputs: &[u32], weights: &[i32]) -> f64 {
        self.tile(1, inputs.len(), || self.inner.vdp(inputs, weights))
    }

    fn vdp_batch(
        &self,
        patches: &PatchMatrix,
        weights: &WeightMatrix<'_>,
        keys: &[u64],
    ) -> Vec<f64> {
        self.tile(patches.rows() * weights.rows(), patches.cols(), || {
            self.inner.vdp_batch(patches, weights, keys)
        })
    }

    fn prepare_weights(&self, weights: &WeightMatrix<'_>) -> PreparedWeights {
        let _span = self.tracer.map(|t| t.span("accel.engine.prepare", None));
        let start = now_ns();
        let out = self.inner.prepare_weights(weights);
        let c = &self.counters;
        c.prepare_calls.fetch_add(1, Ordering::Relaxed);
        c.prepare_ns.fetch_add(now_ns() - start, Ordering::Relaxed);
        out
    }

    fn vdp_batch_prepared(
        &self,
        patches: &PatchMatrix,
        weights: &PreparedWeights,
        keys: &[u64],
    ) -> Vec<f64> {
        self.tile(patches.rows() * weights.rows(), patches.cols(), || {
            self.inner.vdp_batch_prepared(patches, weights, keys)
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overload;
    use crate::rng::SplitMix;

    fn tile(rng: &mut SplitMix, rows: usize, cols: usize) -> PatchMatrix {
        PatchMatrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|_| rng.below(256) as u32).collect(),
        )
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn wrapped_tiles_are_bit_identical_and_counted() {
        let mut rng = SplitMix::new(3);
        // One short (S = 27) and one long, ragged (S = 180) geometry.
        for cols in [27usize, 180] {
            let (p, k) = (5, 4);
            let patches = tile(&mut rng, p, cols);
            let w: Vec<i32> = (0..k * cols).map(|_| rng.below(255) as i32 - 127).collect();
            let wm = WeightMatrix::new(&w, k, cols);
            let keys: Vec<u64> = (0..p as u64).map(|i| i * 31 + 1).collect();
            let bare = SconnaEngine::paper_default(9);
            let wrapped = Timed::sconna(SconnaEngine::paper_default(9), None);
            let bare_prep = bare.prepare_weights(&wm);
            let wrapped_prep = wrapped.prepare_weights(&wm);
            assert_eq!(
                bits(&bare.vdp_batch_prepared(&patches, &bare_prep, &keys)),
                bits(&wrapped.vdp_batch_prepared(&patches, &wrapped_prep, &keys))
            );
            assert_eq!(
                bits(&bare.vdp_batch(&patches, &wm, &keys)),
                bits(&wrapped.vdp_batch(&patches, &wm, &keys))
            );
            assert_eq!(
                bare.vdp_keyed(patches.row(1), wm.row(2), 77).to_bits(),
                wrapped.vdp_keyed(patches.row(1), wm.row(2), 77).to_bits()
            );
            let t = wrapped.counters.tally();
            assert_eq!(t.calls, 3);
            assert_eq!(t.prepare_calls, 1);
            assert_eq!(t.macs, (2 * p * k * cols + cols) as u64);
            let chunks = cols.div_ceil(176) as u64;
            assert_eq!(t.conversions, 2 * chunks * (2 * p * k + 1) as u64);
            let class = if cols <= SHORT_VECTOR {
                t.short_macs
            } else {
                t.long_macs
            };
            assert_eq!(class, t.macs);
        }
    }

    #[test]
    fn the_prepared_path_runs_the_engines_own_preparation() {
        // The prepared handle carries the inner engine's name, so the
        // engine accepts its own payload instead of falling back.
        let wrapped = Timed::sconna(SconnaEngine::paper_default(1), None);
        let w = vec![3i32; 8];
        let prep = wrapped.prepare_weights(&WeightMatrix::new(&w, 2, 4));
        assert_eq!(prep.engine_name(), SconnaEngine::paper_default(1).name());
    }

    #[test]
    fn wrapped_and_bare_fleets_predict_identically() {
        let seed = 5;
        let bare = overload::run_small(seed, false);
        let wrapped = overload::run_small(seed, true);
        assert_eq!(bare, wrapped);
    }
}
