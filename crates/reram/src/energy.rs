//! Per-component energy accounting.
//!
//! Every architecture model in the workspace (DARTH-PUM itself, the CPU and
//! GPU baselines, the app accelerators) charges energy into an
//! [`EnergyMeter`] keyed by component name, so Figure 16 / Figure 17b /
//! Figure 18b can report both totals and breakdowns from the same source.

use crate::units::PicoJoules;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// An accumulating energy meter with named components.
///
/// Component keys are free-form; conventionally they follow the rows of
/// Table 3 (`"dce.array"`, `"ace.sar_adc"`, `"front_end"`, …).
///
/// # Example
///
/// ```
/// use darth_reram::{energy::EnergyMeter, units::PicoJoules};
///
/// let mut meter = EnergyMeter::new();
/// meter.add("ace.sar_adc", PicoJoules::new(1.5));
/// meter.add("ace.sar_adc", PicoJoules::new(1.5));
/// meter.add("dce.array", PicoJoules::new(8.0));
/// assert!((meter.total().get() - 11.0).abs() < 1e-12);
/// assert!((meter.component("ace.sar_adc").get() - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyMeter {
    components: BTreeMap<String, PicoJoules>,
}

impl EnergyMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        EnergyMeter::default()
    }

    /// Charges `energy` against `component`.
    pub fn add(&mut self, component: &str, energy: PicoJoules) {
        // Only a component's first charge allocates its key; it still
        // starts from zero, so every total keeps its bits.
        match self.components.get_mut(component) {
            Some(total) => *total += energy,
            None => {
                self.components
                    .insert(component.to_owned(), PicoJoules::ZERO + energy);
            }
        }
    }

    /// Total energy across all components.
    pub fn total(&self) -> PicoJoules {
        self.components.values().copied().sum()
    }

    /// Energy charged to a single component (zero if never charged).
    pub fn component(&self, name: &str) -> PicoJoules {
        self.components
            .get(name)
            .copied()
            .unwrap_or(PicoJoules::ZERO)
    }

    /// Iterates `(component, energy)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, PicoJoules)> {
        self.components.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Merges another meter into this one, component by component.
    pub fn merge(&mut self, other: &EnergyMeter) {
        for (name, energy) in other.iter() {
            self.add(name, energy);
        }
    }

    /// Fraction of total energy attributed to components whose name starts
    /// with `prefix` (used for the §7.3 observation that Boolean PUM ops are
    /// >88% of DARTH-PUM energy).
    pub fn fraction_with_prefix(&self, prefix: &str) -> f64 {
        let total = self.total().get();
        if total == 0.0 {
            return 0.0;
        }
        let part: f64 = self
            .components
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, e)| e.get())
            .sum();
        part / total
    }

    /// Resets the meter to empty.
    pub fn clear(&mut self) {
        self.components.clear();
    }

    /// True when nothing has been charged.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }
}

impl fmt::Display for EnergyMeter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.components.is_empty() {
            return write!(f, "EnergyMeter(empty)");
        }
        writeln!(f, "EnergyMeter(total = {}):", self.total())?;
        for (name, energy) in self.iter() {
            writeln!(f, "  {name:<24} {energy}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_meter_totals_zero() {
        let m = EnergyMeter::new();
        assert_eq!(m.total(), PicoJoules::ZERO);
        assert!(m.is_empty());
        assert_eq!(m.component("anything"), PicoJoules::ZERO);
    }

    #[test]
    fn components_accumulate() {
        let mut m = EnergyMeter::new();
        m.add("a", PicoJoules::new(1.0));
        m.add("a", PicoJoules::new(2.0));
        m.add("b", PicoJoules::new(4.0));
        assert!((m.component("a").get() - 3.0).abs() < 1e-12);
        assert!((m.total().get() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_by_component() {
        let mut a = EnergyMeter::new();
        a.add("x", PicoJoules::new(1.0));
        let mut b = EnergyMeter::new();
        b.add("x", PicoJoules::new(2.0));
        b.add("y", PicoJoules::new(3.0));
        a.merge(&b);
        assert!((a.component("x").get() - 3.0).abs() < 1e-12);
        assert!((a.component("y").get() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn prefix_fraction() {
        let mut m = EnergyMeter::new();
        m.add("dce.array", PicoJoules::new(88.0));
        m.add("ace.adc", PicoJoules::new(12.0));
        assert!((m.fraction_with_prefix("dce.") - 0.88).abs() < 1e-12);
        assert_eq!(EnergyMeter::new().fraction_with_prefix("dce."), 0.0);
    }

    #[test]
    fn clear_empties_the_meter() {
        let mut m = EnergyMeter::new();
        m.add("a", PicoJoules::new(1.0));
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn display_lists_components() {
        let mut m = EnergyMeter::new();
        m.add("dce.array", PicoJoules::new(8.0));
        let s = format!("{m}");
        assert!(s.contains("dce.array"));
        assert!(!format!("{}", EnergyMeter::new()).is_empty());
    }

    #[test]
    fn iter_is_name_ordered() {
        let mut m = EnergyMeter::new();
        m.add("zeta", PicoJoules::new(1.0));
        m.add("alpha", PicoJoules::new(1.0));
        let names: Vec<&str> = m.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
