//! Synthetic classification dataset.
//!
//! Substitution for ImageNet (see "Substitutions and calibrations" in
//! ARCHITECTURE.md): the accuracy experiment
//! needs a dataset on which a CNN can be trained in-repo and whose
//! accuracy under SCONNA's error injection can be compared against exact
//! int8 inference. Each class is a smooth random template; samples are the
//! template plus pixel noise, so class separation (and hence the
//! difficulty of the task) is controlled by the noise level.

use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A labelled sample: single-channel image plus class index.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Image, rank-3 `[1, H, W]`, values in `[0, 1]`.
    pub image: Tensor<f32>,
    /// Ground-truth class.
    pub label: usize,
}

/// Synthetic dataset generator.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// Class templates, each `[1, H, W]`.
    pub templates: Vec<Tensor<f32>>,
    /// Image side length.
    pub size: usize,
    /// Pixel noise amplitude.
    pub noise: f32,
}

impl SyntheticDataset {
    /// Creates `classes` random smooth templates of `size`×`size` pixels.
    ///
    /// # Panics
    /// Panics if `classes == 0` or `size < 4`.
    pub fn new(classes: usize, size: usize, noise: f32, seed: u64) -> Self {
        assert!(classes > 0, "need at least one class");
        assert!(size >= 4, "image side must be at least 4");
        let mut rng = StdRng::seed_from_u64(seed);
        let templates = (0..classes)
            .map(|_| {
                // Coarse random grid upsampled 4x => smooth blobs that a
                // small CNN can separate but that overlap pixel-wise.
                let coarse: Vec<f32> = (0..(size / 4 + 1) * (size / 4 + 1))
                    .map(|_| rng.gen_range(0.0..1.0))
                    .collect();
                let cw = size / 4 + 1;
                Tensor::from_fn(&[1, size, size], |i| {
                    let (y, x) = (i / size, i % size);
                    coarse[(y / 4) * cw + x / 4]
                })
            })
            .collect();
        Self {
            templates,
            size,
            noise,
        }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.templates.len()
    }

    /// Draws one noisy sample of class `label`.
    ///
    /// # Panics
    /// Panics if `label` is out of range.
    pub fn sample<R: Rng + ?Sized>(&self, label: usize, rng: &mut R) -> Sample {
        assert!(label < self.classes(), "class {label} out of range");
        let t = &self.templates[label];
        let image = Tensor::from_fn(&[1, self.size, self.size], |i| {
            let noise = self.noise * (rng.gen_range(0.0f32..1.0) - 0.5) * 2.0;
            (t.as_slice()[i] + noise).clamp(0.0, 1.0)
        });
        Sample { image, label }
    }

    /// Draws a balanced batch of `per_class` samples per class.
    pub fn batch(&self, per_class: usize, seed: u64) -> Vec<Sample> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(per_class * self.classes());
        for label in 0..self.classes() {
            for _ in 0..per_class {
                out.push(self.sample(label, &mut rng));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_under_seed() {
        let a = SyntheticDataset::new(4, 16, 0.1, 7);
        let b = SyntheticDataset::new(4, 16, 0.1, 7);
        for (ta, tb) in a.templates.iter().zip(&b.templates) {
            assert_eq!(ta.as_slice(), tb.as_slice());
        }
    }

    #[test]
    fn templates_differ_between_classes() {
        let d = SyntheticDataset::new(4, 16, 0.1, 7);
        let t0 = d.templates[0].as_slice();
        let t1 = d.templates[1].as_slice();
        let diff: f32 = t0.iter().zip(t1).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1.0, "templates must be distinguishable, diff {diff}");
    }

    #[test]
    fn samples_stay_in_unit_range() {
        let d = SyntheticDataset::new(3, 12, 0.5, 1);
        let batch = d.batch(5, 99);
        assert_eq!(batch.len(), 15);
        for s in &batch {
            assert!(s.image.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
            assert!(s.label < 3);
        }
    }

    #[test]
    fn noise_perturbs_but_preserves_class_structure() {
        let d = SyntheticDataset::new(2, 16, 0.1, 3);
        let mut rng = StdRng::seed_from_u64(5);
        let s = d.sample(0, &mut rng);
        // Sample is closer to its own template than to the other class.
        let dist = |t: &Tensor<f32>| -> f32 {
            t.as_slice()
                .iter()
                .zip(s.image.as_slice())
                .map(|(a, b)| (a - b) * (a - b))
                .sum()
        };
        assert!(dist(&d.templates[0]) < dist(&d.templates[1]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sample_bad_label_panics() {
        let d = SyntheticDataset::new(2, 8, 0.1, 0);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = d.sample(2, &mut rng);
    }
}
