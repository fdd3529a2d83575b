//! Arena-reused scratch buffers for the batched inference hot path.
//!
//! At datacenter scale every serving batch used to pay a fresh round of
//! heap traffic: one im2col [`PatchMatrix`] + key vector per (row block,
//! layer) and one activation tensor per (image, layer). A [`BatchArena`]
//! recycles both — worker threads check scratch out of lock-free pools
//! and return it after the tile, so steady-state serving allocates only
//! on high-water-mark growth.
//!
//! Reuse is **observationally pure**: recycled buffers are re-zeroed to
//! exactly the state a fresh `zeros` allocation would have, and every
//! accumulator's noise key depends only on its (image, layer, group,
//! output position) coordinates — never on which buffer the patch
//! happened to land in — so a long-lived, dirty arena yields the same
//! bits as a fresh one (property-tested against the per-pair oracle in
//! `tests/batch_parity.rs`).

use crate::engine::PatchMatrix;
use crate::tensor::Tensor;
use crossbeam::queue::SegQueue;

/// Per-tile im2col scratch: the stacked patch matrix and its parallel
/// per-patch noise-key vector, checked out of a [`BatchArena`] by one
/// worker for the duration of one row block.
#[derive(Default)]
pub struct ConvScratch {
    /// Stacked im2col patches (all images of the batch, image-major).
    pub patches: PatchMatrix,
    /// Per-patch noise keys, aligned with `patches` rows.
    pub keys: Vec<u64>,
}

impl ConvScratch {
    /// Re-shapes the scratch for a tile of `rows` patches of length
    /// `cols`, zero-filled — indistinguishable from freshly allocated
    /// buffers, but reusing the retained capacity.
    pub fn prepare(&mut self, rows: usize, cols: usize) {
        self.patches.reset(rows, cols);
        self.keys.clear();
        self.keys.resize(rows, 0);
    }
}

/// Lock-free pools of reusable inference buffers, shared by every worker
/// of a batched forward and across calls when threaded through
/// [`PreparedNetwork::forward_batch`](crate::network::PreparedNetwork::forward_batch)
/// (a serving fleet's functional report runs on one arena).
#[derive(Default)]
pub struct BatchArena {
    scratch: SegQueue<ConvScratch>,
    tensors: SegQueue<Vec<u32>>,
}

impl BatchArena {
    /// An empty arena; pools grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks an im2col scratch out of the pool (or grows the pool).
    pub fn scratch(&self) -> ConvScratch {
        self.scratch.pop().unwrap_or_default()
    }

    /// Returns an im2col scratch to the pool.
    pub fn release_scratch(&self, scratch: ConvScratch) {
        self.scratch.push(scratch);
    }

    /// A zero-filled activation tensor of `dims`, reusing pooled storage
    /// when available — same observable state as [`Tensor::zeros`].
    pub fn tensor(&self, dims: &[usize]) -> Tensor<u32> {
        let len = dims.iter().product();
        let mut data = self.tensors.pop().unwrap_or_default();
        data.clear();
        data.resize(len, 0);
        Tensor::from_vec(dims, data)
    }

    /// Recycles an activation tensor's storage into the pool.
    pub fn recycle(&self, tensor: Tensor<u32>) {
        self.tensors.push(tensor.into_vec());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycled_tensor_is_indistinguishable_from_zeros() {
        let arena = BatchArena::new();
        let mut t = arena.tensor(&[2, 3]);
        t.as_mut_slice().copy_from_slice(&[1, 2, 3, 4, 5, 6]);
        arena.recycle(t);
        // Smaller, larger and equal shapes must all come back zeroed.
        for dims in [&[1, 2][..], &[4, 5][..], &[2, 3][..]] {
            let t = arena.tensor(dims);
            assert_eq!(t.dims(), dims);
            assert!(t.as_slice().iter().all(|&v| v == 0));
            arena.recycle(t);
        }
    }

    #[test]
    fn scratch_prepare_matches_fresh_buffers() {
        let arena = BatchArena::new();
        let mut s = arena.scratch();
        s.prepare(3, 4);
        s.patches.row_mut(1).copy_from_slice(&[9, 9, 9, 9]);
        s.keys[2] = 77;
        arena.release_scratch(s);
        let mut s = arena.scratch();
        s.prepare(5, 2);
        assert_eq!((s.patches.rows(), s.patches.cols()), (5, 2));
        assert!(s.patches.as_slice().iter().all(|&v| v == 0));
        assert_eq!(s.keys, vec![0; 5]);
    }

    #[test]
    fn pool_grows_under_concurrent_checkout() {
        let arena = BatchArena::new();
        let a = arena.scratch();
        let b = arena.scratch(); // pool empty: must grow, not block
        arena.release_scratch(a);
        arena.release_scratch(b);
    }
}
