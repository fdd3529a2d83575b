//! Energy, power and area accounting.
//!
//! Table IV of the paper gives each peripheral a power, an area and a
//! latency; accelerator energy is `Σ static power × makespan + Σ dynamic
//! energy per operation`, and area efficiency needs the total die area.
//! The ledger here tracks all three per named component class.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Static + per-operation power/energy/area description of one component
/// class (one Table IV row).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComponentSpec {
    /// Power drawn whenever the accelerator is on, watts.
    pub static_power_w: f64,
    /// Energy consumed per operation, joules.
    pub energy_per_op_j: f64,
    /// Die area per instance, mm².
    pub area_mm2: f64,
    /// Latency per operation.
    pub latency: SimTime,
}

impl ComponentSpec {
    /// A component with only static power (e.g. a laser diode).
    pub fn static_only(static_power_w: f64, area_mm2: f64) -> Self {
        Self {
            static_power_w,
            energy_per_op_j: 0.0,
            area_mm2,
            latency: SimTime::ZERO,
        }
    }
}

/// Aggregated usage of one component class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ComponentUsage {
    /// Number of physical instances (for static power and area).
    pub instances: u64,
    /// Dynamic operations performed.
    pub ops: u64,
}

/// One registered component class.
#[derive(Debug, Clone)]
struct Row {
    name: String,
    spec: ComponentSpec,
    usage: ComponentUsage,
}

/// Energy/area ledger across component classes.
///
/// The classes are one name-sorted list of rows, so every total adds its
/// per-class terms in name order. A hot caller books operations by row
/// index ([`EnergyLedger::index_of`], [`EnergyLedger::record_ops_at`])
/// instead of by name; an index is stable once every class is
/// registered.
#[derive(Debug, Clone, Default)]
pub struct EnergyLedger {
    rows: Vec<Row>,
}

impl EnergyLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// The row of `name`, or where it would be inserted.
    fn find(&self, name: &str) -> Result<usize, usize> {
        self.rows
            .binary_search_by(|row| row.name.as_str().cmp(name))
    }

    /// Registers `instances` physical copies of a component class.
    /// Registering a new class shifts the row index of every class named
    /// after it.
    ///
    /// # Panics
    /// Panics if the class was already registered with a different spec.
    pub fn register(&mut self, name: &str, spec: ComponentSpec, instances: u64) {
        match self.find(name) {
            Ok(i) => {
                let row = &mut self.rows[i];
                assert_eq!(
                    row.spec, spec,
                    "component {name} re-registered with different spec"
                );
                row.usage.instances += instances;
            }
            Err(i) => self.rows.insert(
                i,
                Row {
                    name: name.to_string(),
                    spec,
                    usage: ComponentUsage { instances, ops: 0 },
                },
            ),
        }
    }

    /// The row index of a class, if registered.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.find(name).ok()
    }

    /// Records `ops` dynamic operations on a component class.
    ///
    /// # Panics
    /// Panics if the class is unknown.
    pub fn record_ops(&mut self, name: &str, ops: u64) {
        let index = self
            .index_of(name)
            .unwrap_or_else(|| panic!("unknown component {name}"));
        self.record_ops_at(index, ops);
    }

    /// Records `ops` dynamic operations on the class at row `index`
    /// ([`EnergyLedger::index_of`]).
    ///
    /// # Panics
    /// Panics if `index` is not a row.
    pub fn record_ops_at(&mut self, index: usize, ops: u64) {
        self.rows[index].usage.ops += ops;
    }

    /// The usage of a class, if registered.
    pub fn usage(&self, name: &str) -> Option<&ComponentUsage> {
        self.index_of(name).map(|i| &self.rows[i].usage)
    }

    /// Total static power of all registered instances, watts.
    pub fn static_power_w(&self) -> f64 {
        self.rows
            .iter()
            .map(|row| row.spec.static_power_w * row.usage.instances as f64)
            .sum()
    }

    /// Total dynamic energy of all recorded operations, joules.
    pub fn dynamic_energy_j(&self) -> f64 {
        self.rows
            .iter()
            .map(|row| row.spec.energy_per_op_j * row.usage.ops as f64)
            .sum()
    }

    /// Total energy over a run of length `makespan`, joules.
    pub fn total_energy_j(&self, makespan: SimTime) -> f64 {
        self.static_power_w() * makespan.as_secs_f64() + self.dynamic_energy_j()
    }

    /// Average power over a run of length `makespan`, watts.
    ///
    /// # Panics
    /// Panics if the makespan is zero.
    pub fn average_power_w(&self, makespan: SimTime) -> f64 {
        assert!(makespan > SimTime::ZERO, "makespan must be positive");
        self.total_energy_j(makespan) / makespan.as_secs_f64()
    }

    /// Total die area of all registered instances, mm².
    pub fn total_area_mm2(&self) -> f64 {
        self.rows
            .iter()
            .map(|row| row.spec.area_mm2 * row.usage.instances as f64)
            .sum()
    }

    /// Per-class energy breakdown over a run, sorted by name.
    pub fn breakdown_j(&self, makespan: SimTime) -> Vec<(String, f64)> {
        self.rows
            .iter()
            .map(|row| {
                let (spec, u) = (&row.spec, row.usage);
                let e = spec.static_power_w * u.instances as f64 * makespan.as_secs_f64()
                    + spec.energy_per_op_j * u.ops as f64;
                (row.name.clone(), e)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(stat: f64, dyn_j: f64, area: f64) -> ComponentSpec {
        ComponentSpec {
            static_power_w: stat,
            energy_per_op_j: dyn_j,
            area_mm2: area,
            latency: SimTime::from_ns(1),
        }
    }

    #[test]
    fn static_power_scales_with_instances() {
        let mut l = EnergyLedger::new();
        l.register("laser", ComponentSpec::static_only(0.1, 0.0), 176);
        assert!((l.static_power_w() - 17.6).abs() < 1e-9);
    }

    #[test]
    fn dynamic_energy_scales_with_ops() {
        let mut l = EnergyLedger::new();
        l.register("adc", spec(0.0, 2e-12, 0.002), 4);
        l.record_ops("adc", 1000);
        assert!((l.dynamic_energy_j() - 2e-9).abs() < 1e-18);
    }

    #[test]
    fn total_energy_combines_both() {
        let mut l = EnergyLedger::new();
        l.register("x", spec(1.0, 1e-9, 0.5), 2);
        l.record_ops("x", 3);
        let makespan = SimTime::from_secs_f64(1e-3);
        // 2 W × 1 ms + 3 × 1 nJ = 2e-3 + 3e-9.
        let e = l.total_energy_j(makespan);
        assert!((e - (2e-3 + 3e-9)).abs() < 1e-12);
        assert!((l.average_power_w(makespan) - e / 1e-3).abs() < 1e-12);
    }

    #[test]
    fn area_sums_instances() {
        let mut l = EnergyLedger::new();
        l.register("router", spec(0.042, 0.0, 0.151), 16);
        l.register("edram", spec(0.0411, 0.0, 0.166), 4);
        assert!((l.total_area_mm2() - (16.0 * 0.151 + 4.0 * 0.166)).abs() < 1e-9);
    }

    #[test]
    fn register_twice_accumulates_instances() {
        let mut l = EnergyLedger::new();
        let s = spec(0.5, 0.0, 1.0);
        l.register("tile", s, 2);
        l.register("tile", s, 3);
        assert_eq!(l.usage("tile").unwrap().instances, 5);
    }

    #[test]
    fn breakdown_covers_all_components() {
        let mut l = EnergyLedger::new();
        l.register("a", spec(1.0, 0.0, 0.0), 1);
        l.register("b", spec(0.0, 1e-9, 0.0), 1);
        l.record_ops("b", 2);
        let bd = l.breakdown_j(SimTime::from_secs_f64(1.0));
        assert_eq!(bd.len(), 2);
        let total: f64 = bd.iter().map(|(_, e)| e).sum();
        assert!((total - l.total_energy_j(SimTime::from_secs_f64(1.0))).abs() < 1e-12);
    }

    #[test]
    fn rows_sort_by_name_and_book_by_index() {
        let mut l = EnergyLedger::new();
        l.register("pca", spec(0.0, 1e-9, 0.0), 1);
        l.register("adc", spec(0.0, 2e-12, 0.0), 1);
        let names: Vec<String> = l
            .breakdown_j(SimTime::ZERO)
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(names, ["adc", "pca"]);
        assert_eq!(l.index_of("ghost"), None);
        let adc = l.index_of("adc").unwrap();
        l.record_ops_at(adc, 3);
        l.record_ops("adc", 2);
        assert_eq!(l.usage("adc").unwrap().ops, 5);
        assert_eq!(l.usage("pca").unwrap().ops, 0);
    }

    #[test]
    #[should_panic(expected = "unknown component")]
    fn record_unknown_panics() {
        let mut l = EnergyLedger::new();
        l.record_ops("ghost", 1);
    }

    #[test]
    #[should_panic(expected = "different spec")]
    fn conflicting_reregistration_panics() {
        let mut l = EnergyLedger::new();
        l.register("x", spec(1.0, 0.0, 0.0), 1);
        l.register("x", spec(2.0, 0.0, 0.0), 1);
    }
}
