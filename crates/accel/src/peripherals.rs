//! Table IV peripheral parameters.
//!
//! Power in watts, area in mm², latency as [`SimTime`]. The serializer and
//! LUT areas in the published table are clearly in different units than
//! the rest (5.9 mm² *per OSM* would dwarf the die); we interpret them as
//! 10⁻³ mm² class figures, which matches the cited sources (a 45 nm SerDes
//! lane and a gain-cell eDRAM macro), and list the reinterpretation under
//! "Substitutions and calibrations" in ARCHITECTURE.md.

use sconna_sim::time::SimTime;

/// One Table IV row.
#[derive(Debug, Clone, Copy)]
pub struct PeripheralSpec {
    /// Active power, W.
    pub power_w: f64,
    /// Area, mm².
    pub area_mm2: f64,
    /// Operation latency.
    pub latency: SimTime,
}

/// Tile-level psum reduction network (per reduction lane).
pub const REDUCTION_NETWORK: PeripheralSpec = PeripheralSpec {
    power_w: 0.05e-3,
    area_mm2: 3.0e-5,
    latency: SimTime::from_ps(3_125),
};

/// Activation unit.
pub const ACTIVATION_UNIT: PeripheralSpec = PeripheralSpec {
    power_w: 0.52e-3,
    area_mm2: 6.0e-4,
    latency: SimTime::from_ps(780),
};

/// IO interface (per tile).
pub const IO_INTERFACE: PeripheralSpec = PeripheralSpec {
    power_w: 140.18e-3,
    area_mm2: 2.44e-2,
    latency: SimTime::from_ps(780),
};

/// Pooling unit.
pub const POOLING_UNIT: PeripheralSpec = PeripheralSpec {
    power_w: 0.4e-3,
    area_mm2: 2.4e-4,
    latency: SimTime::from_ps(3_125),
};

/// eDRAM scratchpad (per tile).
pub const EDRAM: PeripheralSpec = PeripheralSpec {
    power_w: 41.1e-3,
    area_mm2: 1.66e-1,
    latency: SimTime::from_ps(1_560),
};

/// Shared bus (per tile); latency is 5 cycles at the 1.25 GHz tile clock.
pub const BUS: PeripheralSpec = PeripheralSpec {
    power_w: 7e-3,
    area_mm2: 9.0e-3,
    latency: SimTime::from_ps(4_000),
};

/// Mesh router (per tile); latency is 2 cycles.
pub const ROUTER: PeripheralSpec = PeripheralSpec {
    power_w: 42e-3,
    area_mm2: 0.151,
    latency: SimTime::from_ps(1_600),
};

/// 4-bit 10 GS/s DAC used by the analog baselines (per modulator MRR).
pub const ANALOG_DAC: PeripheralSpec = PeripheralSpec {
    power_w: 30e-3,
    area_mm2: 0.034,
    latency: SimTime::from_ps(780),
};

/// 5 GS/s SAR ADC used by the analog baselines (per summation element).
pub const ANALOG_ADC: PeripheralSpec = PeripheralSpec {
    power_w: 29e-3,
    area_mm2: 0.103,
    latency: SimTime::from_ps(780),
};

/// 8-bit 1 GS/s SAR-flash ADC used by SCONNA's PCA (per VDPE rail pair).
pub const SCONNA_ADC: PeripheralSpec = PeripheralSpec {
    power_w: 2.55e-3,
    area_mm2: 0.002,
    latency: SimTime::from_ps(780),
};

/// High-speed serializer, one per OSM operand stream (area reinterpreted
/// as 5.9·10⁻³ mm², see module docs).
pub const SERIALIZER: PeripheralSpec = PeripheralSpec {
    power_w: 5e-3,
    area_mm2: 5.9e-3,
    latency: SimTime::from_ps(30),
};

/// eDRAM bit-vector LUT, one per OSM (area reinterpreted as
/// 0.09·10⁻¹ mm² = 9·10⁻³ mm² class, see module docs).
pub const OSM_LUT: PeripheralSpec = PeripheralSpec {
    power_w: 0.06e-3,
    area_mm2: 9.0e-3,
    latency: SimTime::from_ps(2_000),
};

/// PCA analog front-end (photodetector + dual TIR + amplifier), per rail.
pub const PCA: PeripheralSpec = PeripheralSpec {
    power_w: 0.02e-3,
    area_mm2: 0.28e-1,
    latency: SimTime::ZERO,
};

/// Laser diode electrical wall-plug power: 10 dBm optical at 10 % WPE.
pub const LASER_WALL_PLUG_W: f64 = 0.1;

/// Single MRR footprint (OAG, filter or modulator ring), mm² — 20 µm pitch
/// square.
pub const MRR_AREA_MM2: f64 = 4.0e-4;

/// Scratchpad operand buffer access latency (Section V-A: 2 ns).
pub const BUFFER_LATENCY: SimTime = SimTime::from_ps(2_000);

/// Per-tile eDRAM sustained bandwidth, bytes/s (CACTI-class 64 GB/s).
pub const EDRAM_BANDWIDTH_BPS: f64 = 64e9;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_match_table_iv() {
        assert_eq!(REDUCTION_NETWORK.latency, SimTime::from_ps(3_125));
        assert_eq!(ACTIVATION_UNIT.latency, SimTime::from_ps(780));
        assert_eq!(OSM_LUT.latency, SimTime::from_ns(2));
    }

    #[test]
    fn sconna_adc_is_an_order_cheaper_than_analog_adc() {
        // The 1-bit detection payoff: SCONNA's 8b 1 GS/s ADC draws
        // ~11x less power than the analog baselines' 5 GS/s ADC.
        let power_ratio = ANALOG_ADC.power_w / SCONNA_ADC.power_w;
        let area_ratio = ANALOG_ADC.area_mm2 / SCONNA_ADC.area_mm2;
        assert!(power_ratio > 10.0, "power ratio {power_ratio}");
        assert!(area_ratio > 50.0, "area ratio {area_ratio}");
    }

    #[test]
    fn laser_wall_plug_consistent_with_table_iii() {
        let optical_w = 10e-3; // 10 dBm
        let wpe = 0.1;
        assert!((LASER_WALL_PLUG_W - optical_w / wpe).abs() < 1e-12);
    }
}
