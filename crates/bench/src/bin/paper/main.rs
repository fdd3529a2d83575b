//! The paper's evaluation: Tables I, II and V, Figs. 6(c), 7(a), 7(b)
//! and 9, the mapping and Section V-B scalability reports, and the six
//! ablations, one module each.
//!
//! Run with: `cargo run --release -p sconna-bench --bin paper [-- NAME...]`.
//! With no argument it runs every experiment in list order; otherwise
//! it runs the named ones in the order given. An unknown name lists the
//! valid ones and exits non-zero before anything runs.

mod ablation_adc;
mod ablation_batch;
mod ablation_n;
mod ablation_precision;
mod ablation_sng;
mod ablation_thermal;
mod fig6c;
mod fig7a;
mod fig7b;
mod fig9;
mod mapping;
mod scalability;
mod table1;
mod table2;
mod table5;

use sconna_bench::banner;

/// One paper experiment: its name on the command line, the title and
/// paper reference of its banner, and its body.
struct Experiment {
    name: &'static str,
    title: &'static str,
    paper_ref: &'static str,
    run: fn(),
}

/// Every experiment, in the order a bare `paper` runs them.
static EXPERIMENTS: [Experiment; 15] = [
    Experiment {
        name: "table1",
        title: "Table I — analog VDPE size N vs precision and data rate",
        paper_ref: "SCONNA paper, Section III-A, Table I (values from [21])",
        run: table1::run,
    },
    Experiment {
        name: "table2",
        title: "Table II — kernel tensors by DKV size S (threshold 44)",
        paper_ref: "SCONNA paper, Section III-B, Table II",
        run: table2::run,
    },
    Experiment {
        name: "table5",
        title: "Table V — inference accuracy under SCONNA's error sources",
        paper_ref: "SCONNA paper, Section VI-D, Table V",
        run: table5::run,
    },
    Experiment {
        name: "fig6c",
        title: "Fig. 6(c) — OAG transient analysis at 10 Gb/s",
        paper_ref: "SCONNA paper, Section IV-B, Fig. 6(c)",
        run: fig6c::run,
    },
    Experiment {
        name: "fig7a",
        title: "Fig. 7(a) — OAG bitrate vs FWHM at OMA = -28 dBm",
        paper_ref: "SCONNA paper, Section V-A, Fig. 7(a)",
        run: fig7a::run,
    },
    Experiment {
        name: "fig7b",
        title: "Fig. 7(b) — PCA output voltage vs alpha",
        paper_ref: "SCONNA paper, Section V-C, Fig. 7(b)",
        run: fig7b::run,
    },
    Experiment {
        name: "fig9",
        title: "Fig. 9 — FPS / FPS/W / FPS/W/mm2 comparison",
        paper_ref: "SCONNA paper, Section VI-C, Fig. 9(a)(b)(c)",
        run: fig9::run,
    },
    Experiment {
        name: "mapping",
        title: "Weight-stationary mapping report",
        paper_ref: "Fig. 8 preprocessing-and-mapping unit",
        run: mapping::run,
    },
    Experiment {
        name: "scalability",
        title: "SCONNA VDPC scalability (N = M solve)",
        paper_ref: "SCONNA paper, Section V-B",
        run: scalability::run,
    },
    Experiment {
        name: "ablation_adc",
        title: "Ablation A4 — accuracy vs ADC noise level",
        paper_ref: "SCONNA paper, Section V-C / VI-D error model",
        run: ablation_adc::run,
    },
    Experiment {
        name: "ablation_batch",
        title: "Ablation A5 — FPS vs batch size (ResNet50)",
        paper_ref: "robustness of the Fig. 9 comparison beyond batch 1",
        run: ablation_batch::run,
    },
    Experiment {
        name: "ablation_n",
        title: "Ablation A1 — SCONNA FPS vs VDPE size N",
        paper_ref: "design choice behind Section V-B's N = 176",
        run: ablation_n::run,
    },
    Experiment {
        name: "ablation_precision",
        title: "Ablation A2 — precision vs stream length vs error",
        paper_ref: "SCONNA paper, Section III-B precision-flexibility claim",
        run: ablation_precision::run,
    },
    Experiment {
        name: "ablation_sng",
        title: "Ablation A3 — SNG strategy vs multiplication error",
        paper_ref: "SCONNA paper, Section IV-B LUT design rationale",
        run: ablation_sng::run,
    },
    Experiment {
        name: "ablation_thermal",
        title: "Ablation A6 — thermal tuning of the MRR banks",
        paper_ref: "grounding for the analog DKV reprogramming calibration",
        run: ablation_thermal::run,
    },
];

/// The experiments `names` asks for, in the order given; every one when
/// `names` is empty. An unknown name selects nothing and is an error
/// that lists the valid names.
fn select(names: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if names.is_empty() {
        return Ok(EXPERIMENTS.iter().collect());
    }
    names
        .iter()
        .map(|name| {
            EXPERIMENTS.iter().find(|e| e.name == name).ok_or_else(|| {
                let valid: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
                format!(
                    "unknown experiment `{name}`; valid names: {}",
                    valid.join(" ")
                )
            })
        })
        .collect()
}

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let experiments = select(&names).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    for e in experiments {
        print!("{}", banner(e.title, e.paper_ref));
        (e.run)();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(names: &[&str]) -> Vec<String> {
        names.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn no_names_selects_all_in_list_order() {
        let all = select(&[]).expect("no names is valid");
        assert_eq!(all.len(), 15);
        for (picked, e) in all.iter().zip(&EXPERIMENTS) {
            assert!(std::ptr::eq(*picked, e), "{} out of order", picked.name);
        }
    }

    #[test]
    fn named_experiments_run_in_the_order_given() {
        let picked = select(&args(&["fig9", "table1", "ablation_sng"])).expect("valid names");
        let names: Vec<&str> = picked.iter().map(|e| e.name).collect();
        assert_eq!(names, ["fig9", "table1", "ablation_sng"]);
    }

    #[test]
    fn unknown_name_lists_the_valid_ones_and_selects_nothing() {
        let err = select(&args(&["table1", "no_such_name"]))
            .err()
            .expect("unknown name");
        assert!(err.contains("`no_such_name`"), "{err}");
        for e in &EXPERIMENTS {
            assert!(err.contains(e.name), "{err} omits {}", e.name);
        }
    }

    #[test]
    fn names_are_unique() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|p| p.name != e.name),
                "duplicate {}",
                e.name
            );
        }
    }
}
