//! Fig. 6(c): transient analysis of the Optical AND Gate — two
//! pseudo-random operand streams at 10 Gb/s, drop-port optical power, and
//! the recovered AND decisions.

use sconna_photonics::oag::{transient, OpticalAndGate};
use sconna_photonics::units::watts_to_dbm;
use sconna_sc::format::Precision;
use sconna_sc::sng::{LfsrSng, StochasticNumberGenerator};

pub fn run() {
    let gate = OpticalAndGate::new(0.8e-9, 50e-9, 1e-3);
    let p = Precision::new(5); // 32-bit PRBS excerpt
    let i = LfsrSng::new(0b10110).generate(20, p);
    let w = LfsrSng::new(0b01101).generate(18, p);
    let result = transient(&gate, &i, &w, 10e9, 2e-12, 16);

    println!("bit   I  W  I&W  out  P_drop(mid-bit)");
    let expected: Vec<bool> = i.iter().zip(w.iter()).map(|(a, b)| a && b).collect();
    let mut errors = 0;
    for (k, (&exp, &got)) in expected.iter().zip(&result.decisions).enumerate() {
        let mid = &result.samples[k * 16 + 8];
        println!(
            "{:>3}   {}  {}   {}    {}   {:>8.2} dBm",
            k,
            u8::from(i.get(k)),
            u8::from(w.get(k)),
            u8::from(exp),
            u8::from(got),
            watts_to_dbm(mid.output_w.max(1e-15))
        );
        if exp != got {
            errors += 1;
        }
    }
    println!();
    println!("decision errors: {errors} / {} bits", expected.len());
    println!(
        "T(lambda_in) = I AND W  =>  {}",
        if errors == 0 { "VALIDATED" } else { "FAILED" }
    );

    // ASCII eye view of the output waveform.
    println!();
    println!("drop-port waveform (one char per sample, 16/bit):");
    let max = result.samples.iter().fold(0f64, |m, s| m.max(s.output_w));
    let glyphs = [' ', '.', ':', '-', '=', '+', '*', '#'];
    let line: String = result
        .samples
        .iter()
        .map(|s| glyphs[((s.output_w / max) * 7.0).round() as usize])
        .collect();
    for chunk in line.as_bytes().chunks(96) {
        println!("{}", String::from_utf8_lossy(chunk));
    }
    assert_eq!(errors, 0, "OAG transient must decode as AND");
}
