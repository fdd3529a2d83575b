//! Ablation A6: thermal tuning. Grounds the analog baselines' DKV
//! reprogramming latency in a heater model, Monte-Carlos the
//! fabrication-variation tuning power, and sweeps the reprogramming
//! latency to show how the Fig. 9 gap responds.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sconna_accel::organization::AcceleratorConfig;
use sconna_accel::perf::simulate_inference;
use sconna_photonics::thermal::{tuning_power_analysis, FabricationVariation, HeaterModel};
use sconna_sim::time::SimTime;
use sconna_tensor::models::resnet50;

pub fn run() {
    let heater = HeaterModel::default();
    println!(
        "heater: {:.2} nm/mW, tau = {:.1} us, reach = {:.1} nm",
        heater.efficiency_nm_per_mw,
        heater.time_constant_s * 1e6,
        heater.reach_nm()
    );
    for tol in [0.1f64, 0.01, 0.001] {
        println!(
            "  settle to {:>5.1}% of step: {:>6.1} us",
            tol * 100.0,
            heater.settle_time_s(tol) * 1e6
        );
    }
    println!("=> the 20 us DKV reprogramming calibration = settle to ~1%.");

    println!();
    println!("fabrication-variation tuning power (Monte-Carlo, 10k rings):");
    for sigma in [0.2f64, 0.5, 0.8] {
        let a = tuning_power_analysis(
            &heater,
            &FabricationVariation { sigma_nm: sigma },
            10_000,
            50.0,
            &mut StdRng::seed_from_u64(42),
        );
        println!(
            "  sigma = {sigma} nm: mean {:.2} mW/ring, worst {:.2} mW, \
             {:.0}% re-assigned to adjacent channels",
            a.mean_power_mw,
            a.max_power_mw,
            100.0 * a.wrap_fraction
        );
    }

    println!();
    println!("sensitivity of the ResNet50 FPS gap to the reprogramming latency:");
    let model = resnet50();
    let sconna_fps = simulate_inference(&AcceleratorConfig::sconna(), &model).fps;
    println!("{:>14}{:>14}{:>16}", "t_prog (us)", "MAM FPS", "SCONNA/MAM");
    for t_us in [2u64, 10, 20, 50, 100] {
        let cfg = AcceleratorConfig {
            dkv_reprogram: SimTime::from_ps(t_us * 1_000_000),
            ..AcceleratorConfig::mam()
        };
        let fps = simulate_inference(&cfg, &model).fps;
        println!("{:>14}{:>14.2}{:>15.1}x", t_us, fps, sconna_fps / fps);
    }
    println!();
    println!("below ~10 us the analog baseline becomes purely psum-bound and");
    println!("the gap stops depending on the thermal calibration at all.");
}
