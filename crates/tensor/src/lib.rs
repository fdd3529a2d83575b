//! # sconna-tensor — CNN inference substrate
//!
//! The neural-network half of the SCONNA reproduction: dense tensors,
//! 8-bit integer quantization matching the paper's unsigned-input /
//! sign-magnitude-weight convention, convolution / pooling /
//! fully-connected layers that route every inner product through a
//! pluggable [`engine::VdpEngine`], layer-accurate workload tables for the
//! four evaluated CNNs (GoogleNet, ResNet50, MobileNet_V2,
//! ShuffleNet_V2), and a small CNN trained in-repo on a synthetic dataset
//! for the accuracy study.
//!
//! ```
//! use sconna_tensor::models::resnet50;
//!
//! // ResNet50's largest kernel vector is 3·3·512 = 4608 points — the
//! // number the paper's Section II-B quotes.
//! assert_eq!(resnet50().max_vector_len(), 4608);
//! ```

pub mod arena;
pub mod dataset;
pub mod engine;
pub mod fp;
pub mod layers;
pub mod models;
pub mod network;
pub mod quant;
pub mod smallcnn;
pub mod tensor;

pub use engine::{ExactEngine, VdpEngine};
pub use models::{CnnModel, VdpWorkload};
pub use network::{QLayer, QuantizedNetwork};
pub use tensor::Tensor;
