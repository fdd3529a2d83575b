//! Table II: kernel census by DKV size (S ≤ 44 vs S > 44), from our
//! transcribed architectures vs the paper's Keras-derived counts.
//!
//! The paper's Table II lists ResNet50 / GoogleNet / VGG16 / DenseNet;
//! the evaluation (Fig. 9) runs GoogleNet / ResNet50 / MobileNet_V2 /
//! ShuffleNet_V2. Both sets are censused here.

use sconna_tensor::models::{all_models, census_models, CnnModel};

/// The paper's published (S ≤ 44, S > 44) counts.
const PAPER: [(&str, usize, usize); 4] = [
    ("ResNet50", 1, 26562),
    ("GoogleNet", 13, 7554),
    ("VGG16", 69, 4168),
    ("DenseNet121", 1, 10242),
];

fn print_row(m: &CnnModel) {
    let (small, large) = m.conv_kernel_census(44);
    let frac = large as f64 / (small + large) as f64;
    let paper = PAPER.iter().find(|(name, _, _)| *name == m.name);
    let (ps, pl) = paper.map_or(("-".into(), "-".into()), |(_, s, l)| {
        (s.to_string(), l.to_string())
    });
    println!(
        "{:<16}{:>12}{:>12}{:>11.1}%{:>14}{:>14}",
        m.name,
        small,
        large,
        100.0 * frac,
        ps,
        pl
    );
}

pub fn run() {
    println!(
        "{:<16}{:>12}{:>12}{:>12}{:>14}{:>14}",
        "model", "S<=44", "S>44", ">44 frac", "paper S<=44", "paper S>44"
    );
    println!("-- the paper's Table II set:");
    for m in census_models() {
        print_row(&m);
    }
    println!("-- the Fig. 9 evaluation set:");
    for m in all_models() {
        print_row(&m);
    }
    println!();
    println!("(conv kernels only, matching the paper's convention; our");
    println!(" GoogleNet transcription runs inference-mode — no auxiliary");
    println!(" classifiers — hence the ~4% kernel-count gap vs Keras, and");
    println!(" DenseNet lands within 3 kernels of the published total.");
    println!(" MobileNet/ShuffleNet keep their depthwise kernels (S = 9)");
    println!(" in the small bucket — exactly why Fig. 9's gains are");
    println!(" smaller on them.)");
}
