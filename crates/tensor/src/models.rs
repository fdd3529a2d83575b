//! Workload descriptions of the four CNNs the paper evaluates
//! (Section VI-B): GoogleNet, ResNet50, MobileNet_V2 and ShuffleNet_V2.
//!
//! Each architecture is transcribed layer by layer from its original
//! paper at the 224×224×3 ImageNet input size. What the accelerator
//! simulation needs from a network is, per multiplying layer, the VDP
//! geometry: the flattened vector length `S = K·K·D/groups`, the number
//! of kernel vectors `L`, and how many VDP operations each kernel
//! performs (`H_out · W_out`). Residual adds, concatenations and channel
//! shuffles move no multiplies, so they appear only through their effect
//! on downstream channel counts.

use serde::{Deserialize, Serialize};

/// One multiplying layer's VDP geometry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VdpWorkload {
    /// Layer name (unique within a model).
    pub layer: String,
    /// Flattened vector length `S = K·K·D/groups`.
    pub vector_len: usize,
    /// Number of kernel vectors `L`.
    pub kernels: usize,
    /// VDP operations per kernel (`H_out · W_out`; 1 for FC rows).
    pub ops_per_kernel: usize,
}

impl VdpWorkload {
    /// Total VDP operations of this layer.
    pub fn vdp_ops(&self) -> usize {
        self.kernels * self.ops_per_kernel
    }

    /// Total scalar multiply-accumulates.
    pub fn macs(&self) -> usize {
        self.vdp_ops() * self.vector_len
    }

    /// The workload of `batch` images of this layer processed
    /// back-to-back under a weight-stationary mapping: the kernel set and
    /// vector geometry are unchanged, each kernel just slides over `batch`
    /// feature maps instead of one.
    ///
    /// # Panics
    /// Panics if `batch` is zero.
    pub fn batched(&self, batch: usize) -> VdpWorkload {
        assert!(batch > 0, "batch must be positive");
        VdpWorkload {
            layer: self.layer.clone(),
            vector_len: self.vector_len,
            kernels: self.kernels,
            ops_per_kernel: self.ops_per_kernel * batch,
        }
    }
}

/// A CNN as the accelerators see it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CnnModel {
    /// Model name.
    pub name: String,
    /// Multiplying layers in execution order.
    pub workloads: Vec<VdpWorkload>,
}

impl CnnModel {
    /// Total multiply-accumulates per inference.
    pub fn total_macs(&self) -> usize {
        self.workloads.iter().map(VdpWorkload::macs).sum()
    }

    /// Largest VDP vector length in the model.
    pub fn max_vector_len(&self) -> usize {
        self.workloads
            .iter()
            .map(|w| w.vector_len)
            .max()
            .unwrap_or(0)
    }

    /// Kernel census against a size threshold: `(at_or_below, above)` —
    /// the Table II buckets (threshold 44).
    pub fn kernel_census(&self, threshold: usize) -> (usize, usize) {
        let mut small = 0;
        let mut large = 0;
        for w in &self.workloads {
            if w.vector_len <= threshold {
                small += w.kernels;
            } else {
                large += w.kernels;
            }
        }
        (small, large)
    }

    /// Census over convolution kernels only (the paper's Table II counts
    /// conv kernel tensors; FC rows are excluded there).
    pub fn conv_kernel_census(&self, threshold: usize) -> (usize, usize) {
        let mut small = 0;
        let mut large = 0;
        for w in self.workloads.iter().filter(|w| w.ops_per_kernel > 1) {
            if w.vector_len <= threshold {
                small += w.kernels;
            } else {
                large += w.kernels;
            }
        }
        (small, large)
    }
}

/// Shape-tracking builder used by the per-architecture constructors.
struct Builder {
    name: String,
    h: usize,
    w: usize,
    c: usize,
    workloads: Vec<VdpWorkload>,
}

impl Builder {
    fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            h: 224,
            w: 224,
            c: 3,
            workloads: Vec::new(),
        }
    }

    fn out_hw(h: usize, w: usize, k: usize, s: usize, p: usize) -> (usize, usize) {
        ((h + 2 * p - k) / s + 1, (w + 2 * p - k) / s + 1)
    }

    /// Standard convolution; updates the tracked shape.
    fn conv(&mut self, layer: &str, out_c: usize, k: usize, s: usize, p: usize) {
        self.conv_grouped(layer, out_c, k, s, p, 1);
    }

    /// Grouped convolution (`groups == channels` is depthwise).
    fn conv_grouped(
        &mut self,
        layer: &str,
        out_c: usize,
        k: usize,
        s: usize,
        p: usize,
        groups: usize,
    ) {
        assert!(
            self.c.is_multiple_of(groups),
            "{layer}: channels {} not divisible by groups {groups}",
            self.c
        );
        assert!(
            out_c.is_multiple_of(groups),
            "{layer}: kernels {out_c} not divisible by groups {groups}"
        );
        let (h, w) = Self::out_hw(self.h, self.w, k, s, p);
        self.workloads.push(VdpWorkload {
            layer: layer.to_string(),
            vector_len: k * k * self.c / groups,
            kernels: out_c,
            ops_per_kernel: h * w,
        });
        self.h = h;
        self.w = w;
        self.c = out_c;
    }

    /// Depthwise convolution.
    fn dwconv(&mut self, layer: &str, k: usize, s: usize, p: usize) {
        self.conv_grouped(layer, self.c, k, s, p, self.c);
    }

    /// Pooling only changes the tracked spatial size.
    fn pool(&mut self, k: usize, s: usize, p: usize) {
        let (h, w) = Self::out_hw(self.h, self.w, k, s, p);
        self.h = h;
        self.w = w;
    }

    fn global_pool(&mut self) {
        self.h = 1;
        self.w = 1;
    }

    /// Fully-connected head.
    fn fc(&mut self, layer: &str, out: usize) {
        self.workloads.push(VdpWorkload {
            layer: layer.to_string(),
            vector_len: self.c * self.h * self.w,
            kernels: out,
            ops_per_kernel: 1,
        });
        self.c = out;
        self.h = 1;
        self.w = 1;
    }

    /// Overrides the tracked channel count (concat / split bookkeeping).
    fn set_channels(&mut self, c: usize) {
        self.c = c;
    }

    fn finish(self) -> CnnModel {
        CnnModel {
            name: self.name,
            workloads: self.workloads,
        }
    }
}

/// GoogleNet (Inception v1, Szegedy et al. 2014).
pub fn googlenet() -> CnnModel {
    let mut b = Builder::new("GoogleNet");
    b.conv("conv1", 64, 7, 2, 3);
    b.pool(3, 2, 1);
    b.conv("conv2_reduce", 64, 1, 1, 0);
    b.conv("conv2", 192, 3, 1, 1);
    b.pool(3, 2, 1);

    // (c1, c3r, c3, c5r, c5, pool_proj)
    let blocks: [(&str, [usize; 6]); 9] = [
        ("3a", [64, 96, 128, 16, 32, 32]),
        ("3b", [128, 128, 192, 32, 96, 64]),
        ("4a", [192, 96, 208, 16, 48, 64]),
        ("4b", [160, 112, 224, 24, 64, 64]),
        ("4c", [128, 128, 256, 24, 64, 64]),
        ("4d", [112, 144, 288, 32, 64, 64]),
        ("4e", [256, 160, 320, 32, 128, 128]),
        ("5a", [256, 160, 320, 32, 128, 128]),
        ("5b", [384, 192, 384, 48, 128, 128]),
    ];
    for (name, [c1, c3r, c3, c5r, c5, pp]) in blocks {
        if name == "4a" || name == "5a" {
            b.pool(3, 2, 1); // max pool between inception stages
        }
        let in_c = b.c;
        // Branch 1: 1x1.
        b.conv(&format!("inception_{name}/1x1"), c1, 1, 1, 0);
        b.set_channels(in_c);
        // Branch 2: 1x1 reduce + 3x3.
        b.conv(&format!("inception_{name}/3x3_reduce"), c3r, 1, 1, 0);
        b.conv(&format!("inception_{name}/3x3"), c3, 3, 1, 1);
        b.set_channels(in_c);
        // Branch 3: 1x1 reduce + 5x5.
        b.conv(&format!("inception_{name}/5x5_reduce"), c5r, 1, 1, 0);
        b.conv(&format!("inception_{name}/5x5"), c5, 5, 1, 2);
        b.set_channels(in_c);
        // Branch 4: 3x3 maxpool (same size) + 1x1 projection.
        b.conv(&format!("inception_{name}/pool_proj"), pp, 1, 1, 0);
        // Concatenate branches.
        b.set_channels(c1 + c3 + c5 + pp);
    }
    b.global_pool();
    b.fc("fc", 1000);
    b.finish()
}

/// ResNet50 (He et al. 2015), v1.5 variant (stride in the 3×3).
pub fn resnet50() -> CnnModel {
    let mut b = Builder::new("ResNet50");
    b.conv("conv1", 64, 7, 2, 3);
    b.pool(3, 2, 1);

    let stages: [(&str, usize, usize, usize, usize); 4] = [
        ("layer1", 64, 256, 3, 1),
        ("layer2", 128, 512, 4, 2),
        ("layer3", 256, 1024, 6, 2),
        ("layer4", 512, 2048, 3, 2),
    ];
    for (stage, mid, out, blocks, first_stride) in stages {
        for blk in 0..blocks {
            let stride = if blk == 0 { first_stride } else { 1 };
            let in_c = b.c;
            b.conv(&format!("{stage}.{blk}.conv1"), mid, 1, 1, 0);
            b.conv(&format!("{stage}.{blk}.conv2"), mid, 3, stride, 1);
            b.conv(&format!("{stage}.{blk}.conv3"), out, 1, 1, 0);
            if blk == 0 {
                // Downsample shortcut runs on the block input.
                let (h_out, w_out) = (b.h, b.w);
                b.workloads.push(VdpWorkload {
                    layer: format!("{stage}.{blk}.downsample"),
                    vector_len: in_c,
                    kernels: out,
                    ops_per_kernel: h_out * w_out,
                });
            }
        }
    }
    b.global_pool();
    b.fc("fc", 1000);
    b.finish()
}

/// MobileNet_V2 (Sandler et al. 2018), width 1.0.
pub fn mobilenet_v2() -> CnnModel {
    let mut b = Builder::new("MobileNet_V2");
    b.conv("conv_stem", 32, 3, 2, 1);

    // (expansion t, output channels c, repeats n, first stride s)
    let cfg: [(usize, usize, usize, usize); 7] = [
        (1, 16, 1, 1),
        (6, 24, 2, 2),
        (6, 32, 3, 2),
        (6, 64, 4, 2),
        (6, 96, 3, 1),
        (6, 160, 3, 2),
        (6, 320, 1, 1),
    ];
    let mut idx = 0;
    for (t, c_out, n, s) in cfg {
        for rep in 0..n {
            let stride = if rep == 0 { s } else { 1 };
            let in_c = b.c;
            let hidden = in_c * t;
            if t != 1 {
                b.conv(&format!("block{idx}.expand"), hidden, 1, 1, 0);
            }
            b.dwconv(&format!("block{idx}.dw"), 3, stride, 1);
            b.conv(&format!("block{idx}.project"), c_out, 1, 1, 0);
            idx += 1;
        }
    }
    b.conv("conv_head", 1280, 1, 1, 0);
    b.global_pool();
    b.fc("fc", 1000);
    b.finish()
}

/// ShuffleNet_V2 (Ma et al. 2018), width 1.0.
pub fn shufflenet_v2() -> CnnModel {
    let mut b = Builder::new("ShuffleNet_V2");
    b.conv("conv1", 24, 3, 2, 1);
    b.pool(3, 2, 1);

    // (stage name, output channels, units)
    let stages: [(&str, usize, usize); 3] =
        [("stage2", 116, 4), ("stage3", 232, 8), ("stage4", 464, 4)];
    for (stage, out_c, units) in stages {
        let half = out_c / 2;
        for unit in 0..units {
            if unit == 0 {
                // Spatial-down unit: both branches process the full input.
                let in_c = b.c;
                // Branch 1: dw 3x3 s2 + 1x1.
                b.set_channels(in_c);
                b.dwconv(&format!("{stage}.0.branch1.dw"), 3, 2, 1);
                b.conv(&format!("{stage}.0.branch1.pw"), half, 1, 1, 0);
                let (h, w) = (b.h, b.w);
                // Branch 2: 1x1 + dw 3x3 s2 + 1x1 (replay from the unit
                // input shape).
                b.h *= 2;
                b.w *= 2;
                b.set_channels(in_c);
                b.conv(&format!("{stage}.0.branch2.pw1"), half, 1, 1, 0);
                b.dwconv(&format!("{stage}.0.branch2.dw"), 3, 2, 1);
                b.conv(&format!("{stage}.0.branch2.pw2"), half, 1, 1, 0);
                assert_eq!((b.h, b.w), (h, w), "branch shapes must agree");
                b.set_channels(out_c);
            } else {
                // Basic unit: channel split, one branch computes.
                b.set_channels(half);
                b.conv(&format!("{stage}.{unit}.pw1"), half, 1, 1, 0);
                b.dwconv(&format!("{stage}.{unit}.dw"), 3, 1, 1);
                b.conv(&format!("{stage}.{unit}.pw2"), half, 1, 1, 0);
                b.set_channels(out_c);
            }
        }
    }
    b.conv("conv5", 1024, 1, 1, 0);
    b.global_pool();
    b.fc("fc", 1000);
    b.finish()
}

/// VGG16 (Simonyan & Zisserman 2014) — used by the paper's Table II
/// kernel census.
pub fn vgg16() -> CnnModel {
    let mut b = Builder::new("VGG16");
    let stages: [(&str, usize, usize); 5] = [
        ("conv1", 64, 2),
        ("conv2", 128, 2),
        ("conv3", 256, 3),
        ("conv4", 512, 3),
        ("conv5", 512, 3),
    ];
    for (stage, channels, repeats) in stages {
        for rep in 0..repeats {
            b.conv(&format!("{stage}_{}", rep + 1), channels, 3, 1, 1);
        }
        b.pool(2, 2, 0);
    }
    b.fc("fc6", 4096);
    b.fc("fc7", 4096);
    b.fc("fc8", 1000);
    b.finish()
}

/// DenseNet-121 (Huang et al. 2017) — used by the paper's Table II
/// kernel census. Growth rate 32, bottleneck width 4·k.
pub fn densenet121() -> CnnModel {
    let mut b = Builder::new("DenseNet121");
    const GROWTH: usize = 32;
    b.conv("conv1", 64, 7, 2, 3);
    b.pool(3, 2, 1);

    let blocks: [(&str, usize); 4] = [
        ("denseblock1", 6),
        ("denseblock2", 12),
        ("denseblock3", 24),
        ("denseblock4", 16),
    ];
    for (bi, (name, layers)) in blocks.iter().enumerate() {
        let mut channels = b.c;
        for l in 0..*layers {
            // Bottleneck: 1x1 to 4k channels, then 3x3 to k channels,
            // concatenated onto the running feature map.
            b.set_channels(channels);
            b.conv(&format!("{name}.{l}.conv1x1"), 4 * GROWTH, 1, 1, 0);
            b.conv(&format!("{name}.{l}.conv3x3"), GROWTH, 3, 1, 1);
            channels += GROWTH;
        }
        b.set_channels(channels);
        if bi < 3 {
            // Transition: 1x1 halving channels + 2x2 average pool.
            b.conv(&format!("transition{}", bi + 1), channels / 2, 1, 1, 0);
            b.pool(2, 2, 0);
        }
    }
    b.global_pool();
    b.fc("fc", 1000);
    b.finish()
}

/// All four evaluated models in the paper's reporting order.
pub fn all_models() -> Vec<CnnModel> {
    vec![googlenet(), resnet50(), mobilenet_v2(), shufflenet_v2()]
}

/// The Table II census set: the two evaluated large CNNs plus VGG16 and
/// DenseNet, matching the paper's table.
pub fn census_models() -> Vec<CnnModel> {
    vec![resnet50(), googlenet(), vgg16(), densenet121()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet50_conv_kernel_count_matches_architecture() {
        // Known closed-form: 64 + Σ stages = 26560 conv kernels
        // (paper Table II reports 26563 total across both buckets).
        let m = resnet50();
        let conv_kernels: usize = m
            .workloads
            .iter()
            .filter(|w| w.layer != "fc")
            .map(|w| w.kernels)
            .sum();
        assert_eq!(conv_kernels, 26560);
    }

    #[test]
    fn resnet50_max_vector_is_4608() {
        // Section II-B: ResNet50's largest kernel vector is
        // 3·3·512 = 4608 points.
        assert_eq!(resnet50().max_vector_len(), 4608);
    }

    #[test]
    fn resnet50_macs_magnitude() {
        // ~4.1 GMACs at 224² (well-known figure; v1.5 is ~4.1e9).
        let macs = resnet50().total_macs();
        assert!(
            (3.5e9..4.5e9).contains(&(macs as f64)),
            "ResNet50 MACs = {macs}"
        );
    }

    #[test]
    fn googlenet_macs_magnitude() {
        // ~1.5 GMACs.
        let macs = googlenet().total_macs();
        assert!(
            (1.3e9..1.7e9).contains(&(macs as f64)),
            "GoogleNet MACs = {macs}"
        );
    }

    #[test]
    fn mobilenet_v2_macs_magnitude() {
        // ~300 MMACs.
        let macs = mobilenet_v2().total_macs();
        assert!(
            (2.5e8..3.6e8).contains(&(macs as f64)),
            "MobileNet_V2 MACs = {macs}"
        );
    }

    #[test]
    fn shufflenet_v2_macs_magnitude() {
        // ~146 MMACs.
        let macs = shufflenet_v2().total_macs();
        assert!(
            (1.2e8..1.8e8).contains(&(macs as f64)),
            "ShuffleNet_V2 MACs = {macs}"
        );
    }

    #[test]
    fn census_large_kernels_dominate_big_cnns() {
        // Table II: >98 % of kernels have S > 44 across all four CNNs for
        // the big models; the small models keep their depthwise kernels
        // (S = 9) in the small bucket.
        for m in [googlenet(), resnet50()] {
            let (small, large) = m.kernel_census(44);
            let frac = large as f64 / (small + large) as f64;
            assert!(frac > 0.98, "{}: large fraction {frac}", m.name);
        }
        for m in [mobilenet_v2(), shufflenet_v2()] {
            let (small, large) = m.kernel_census(44);
            assert!(small > 0, "{} must have depthwise kernels ≤ 44", m.name);
            let frac = large as f64 / (small + large) as f64;
            assert!(frac > 0.5, "{}: large fraction {frac}", m.name);
        }
    }

    #[test]
    fn depthwise_layers_have_s9() {
        let m = mobilenet_v2();
        let dw: Vec<&VdpWorkload> = m
            .workloads
            .iter()
            .filter(|w| w.layer.ends_with(".dw"))
            .collect();
        assert_eq!(dw.len(), 17, "17 inverted-residual blocks");
        assert!(dw.iter().all(|w| w.vector_len == 9));
    }

    #[test]
    fn spatial_bookkeeping_ends_at_7x7() {
        // All four nets end their conv trunk at 7×7 before global pooling;
        // check via the last conv workload's ops_per_kernel.
        for m in all_models() {
            let last_conv = m
                .workloads
                .iter()
                .rev()
                .find(|w| w.ops_per_kernel > 1)
                .unwrap();
            assert_eq!(
                last_conv.ops_per_kernel, 49,
                "{}: last conv at {} positions",
                m.name, last_conv.ops_per_kernel
            );
        }
    }

    #[test]
    fn fc_heads_are_1000_way() {
        for m in all_models() {
            let fc = m.workloads.last().unwrap();
            assert_eq!(fc.kernels, 1000, "{}", m.name);
            assert_eq!(fc.ops_per_kernel, 1);
        }
    }

    #[test]
    fn vgg16_macs_magnitude() {
        // ~15.5 GMACs — the classic figure.
        let macs = vgg16().total_macs();
        assert!(
            (14.5e9..16.0e9).contains(&(macs as f64)),
            "VGG16 MACs = {macs}"
        );
    }

    #[test]
    fn vgg16_conv_kernel_count() {
        // 2·64 + 2·128 + 3·256 + 6·512 = 4224 conv kernels (paper's
        // Table II total for VGG16 is 69 + 4168 = 4237, from Keras'
        // including-biases accounting).
        let (small, large) = vgg16().conv_kernel_census(44);
        assert_eq!(small + large, 4224);
        // conv1_1 kernels are 3·3·3 = 27 ≤ 44.
        assert_eq!(small, 64);
    }

    #[test]
    fn densenet121_kernel_count_matches_paper() {
        // Paper Table II: 1 + 10242 = 10243 DenseNet kernels; our
        // bias-free transcription counts 10240 conv kernels.
        let (small, large) = densenet121().conv_kernel_census(44);
        assert_eq!(small + large, 10240);
        assert!(
            large as f64 / (small + large) as f64 > 0.98,
            "DenseNet is dominated by S>44 kernels"
        );
    }

    #[test]
    fn densenet121_channel_bookkeeping() {
        // Final dense block ends at 1024 channels before the classifier.
        let m = densenet121();
        let fc = m.workloads.last().unwrap();
        assert_eq!(fc.vector_len, 1024);
        // ~2.9 GMACs.
        let macs = m.total_macs();
        assert!(
            (2.5e9..3.3e9).contains(&(macs as f64)),
            "DenseNet121 MACs = {macs}"
        );
    }

    #[test]
    fn census_models_are_the_table_ii_set() {
        let names: Vec<String> = census_models().into_iter().map(|m| m.name).collect();
        assert_eq!(names, vec!["ResNet50", "GoogleNet", "VGG16", "DenseNet121"]);
    }

    #[test]
    fn workload_arithmetic() {
        let w = VdpWorkload {
            layer: "t".into(),
            vector_len: 10,
            kernels: 4,
            ops_per_kernel: 25,
        };
        assert_eq!(w.vdp_ops(), 100);
        assert_eq!(w.macs(), 1000);
    }

    #[test]
    fn batched_workload_scales_ops_not_weights() {
        let w = VdpWorkload {
            layer: "t".into(),
            vector_len: 10,
            kernels: 4,
            ops_per_kernel: 25,
        };
        let b = w.batched(8);
        assert_eq!(b.vector_len, 10);
        assert_eq!(b.kernels, 4);
        assert_eq!(b.ops_per_kernel, 200);
        assert_eq!(b.vdp_ops(), 8 * w.vdp_ops());
        assert_eq!(b.macs(), 8 * w.macs());
        assert_eq!(w.batched(1).ops_per_kernel, w.ops_per_kernel);
    }

    #[test]
    #[should_panic(expected = "batch must be positive")]
    fn batched_zero_panics() {
        let w = VdpWorkload {
            layer: "t".into(),
            vector_len: 1,
            kernels: 1,
            ops_per_kernel: 1,
        };
        let _ = w.batched(0);
    }
}
