//! Standard-cell electrical library.
//!
//! Associates every [`CellKind`] with the electrical quantities the power
//! model needs: input-pin capacitance, internal (self-load) switching energy
//! per output transition, and — for sequential cells — the energy burnt by
//! the clock pin every cycle regardless of data activity.
//!
//! The default library, [`CellLibrary::calibrated_018um`], stands in for
//! the paper's Synopsys 0.18 µm flow. Its per-cell capacitances follow the
//! ratios of typical standard-cell libraries, at a scale chosen so one gate
//! transition costs roughly 25–90 fJ at 3.3 V. A net's load is only the
//! input pins it drives: no wiring inside a switch is charged. It is not
//! fitted to Table 1, and it does not reach it: `conform` reads 28 fJ for
//! the crosspoint against the paper's 220, and 0.13–0.44× the paper over
//! all nine Table 1 entries, with a ratio that differs by class. The
//! ledger's reasons `[1]` (the 2×2 switches and the crosspoint) and `[2]`
//! (the MUXes) give the suspected cause, the missing wire loads. ROADMAP
//! item 15 (where each switch's energy goes) and item 8 (a wire-load-aware
//! library) are the work that would find it.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use fabric_power_tech::units::{Capacitance, Energy, Voltage};

use crate::cells::CellKind;

/// Electrical parameters of one standard cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellParameters {
    /// Capacitance presented by each input pin.
    pub input_capacitance: Capacitance,
    /// Energy dissipated inside the cell (short-circuit + internal nodes +
    /// self-load) for one output transition.
    pub internal_energy: Energy,
    /// Energy dissipated by the clock pin every clock cycle (sequential cells
    /// only; zero for combinational cells).
    pub clock_energy: Energy,
    /// Static leakage energy per clock cycle.
    pub leakage_energy_per_cycle: Energy,
}

/// A complete standard-cell library: parameters for every [`CellKind`].
///
/// # Examples
///
/// ```
/// use fabric_power_netlist::cells::CellKind;
/// use fabric_power_netlist::library::CellLibrary;
///
/// let lib = CellLibrary::calibrated_018um();
/// let and = lib.parameters(CellKind::And2);
/// assert!(and.internal_energy.as_femtojoules() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellLibrary {
    /// Part of the library's canonical JSON, and so of every derived
    /// model's cache key.
    name: String,
    /// Rail-to-rail supply voltage the energies were computed at.
    supply_voltage: Voltage,
    cells: BTreeMap<CellKind, CellParameters>,
}

impl CellLibrary {
    /// Builds a library from an explicit cell map.
    ///
    /// # Panics
    ///
    /// Panics if any [`CellKind`] is missing from `cells`; a partial library
    /// would make netlist power estimation silently wrong.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        supply_voltage: Voltage,
        cells: BTreeMap<CellKind, CellParameters>,
    ) -> Self {
        for kind in CellKind::ALL {
            assert!(
                cells.contains_key(&kind),
                "cell library is missing parameters for {kind}"
            );
        }
        Self {
            name: name.into(),
            supply_voltage,
            cells,
        }
    }

    /// The calibrated 0.18 µm / 3.3 V library used by default throughout the
    /// workspace (the stand-in for the paper's Synopsys flow).
    #[must_use]
    pub fn calibrated_018um() -> Self {
        let vdd = Voltage::from_volts(3.3);
        // Effective switched capacitance per cell, in fF, of a minimum-size
        // 0.18um gate; chosen so one gate transition costs ~25-90 fJ at
        // 3.3V. Not fitted to Table 1 (see the module doc). Ratios follow
        // typical standard-cell libraries: XNOR/MUX cost more than AND/OR,
        // flip-flops dominate.
        let combinational: &[(CellKind, f64, f64)] = &[
            // (kind, input pin cap fF, internal switched cap fF)
            (CellKind::Inv, 1.8, 3.0),
            (CellKind::Buf, 1.8, 4.5),
            (CellKind::And2, 2.0, 5.5),
            (CellKind::Or2, 2.0, 5.7),
            (CellKind::Xnor2, 3.0, 8.5),
            (CellKind::Mux2, 2.4, 7.5),
            (CellKind::PassGate, 1.5, 2.5),
        ];
        let sequential: &[(CellKind, f64, f64, f64)] = &[
            // (kind, input pin cap fF, internal switched cap fF, clock cap fF)
            (CellKind::Dff, 2.2, 14.0, 3.0),
        ];

        let energy = |cap_ff: f64| Capacitance::from_femtofarads(cap_ff).switching_energy(vdd);
        // Leakage at 0.18um is negligible next to dynamic energy; keep a tiny
        // non-zero value so the accounting path is exercised.
        let leakage = energy(0.002);

        let mut cells = BTreeMap::new();
        for &(kind, pin, internal) in combinational {
            cells.insert(
                kind,
                CellParameters {
                    input_capacitance: Capacitance::from_femtofarads(pin),
                    internal_energy: energy(internal),
                    clock_energy: Energy::ZERO,
                    leakage_energy_per_cycle: leakage,
                },
            );
        }
        for &(kind, pin, internal, clock) in sequential {
            cells.insert(
                kind,
                CellParameters {
                    input_capacitance: Capacitance::from_femtofarads(pin),
                    internal_energy: energy(internal),
                    clock_energy: energy(clock),
                    leakage_energy_per_cycle: leakage,
                },
            );
        }
        Self::new("calibrated 0.18um 3.3V", vdd, cells)
    }

    /// Parameters of one cell kind.
    ///
    /// # Panics
    ///
    /// Never panics for libraries built through [`CellLibrary::new`], which
    /// enforces completeness.
    #[must_use]
    pub fn parameters(&self, kind: CellKind) -> CellParameters {
        self.cells[&kind]
    }

    /// Energy to charge or discharge `fanout` input pins of cell kind `load`
    /// once (used by the simulator for net-load energy).
    #[must_use]
    pub(crate) fn pin_load_energy(&self, load: CellKind, fanout: usize) -> Energy {
        let pin = self.parameters(load).input_capacitance;
        (pin * fanout as f64).switching_energy(self.supply_voltage)
    }
}

impl Default for CellLibrary {
    fn default() -> Self {
        Self::calibrated_018um()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_library_covers_every_cell() {
        let lib = CellLibrary::default();
        for kind in CellKind::ALL {
            let p = lib.parameters(kind);
            assert!(p.input_capacitance.as_farads() > 0.0, "{kind} pin cap");
            assert!(p.internal_energy.as_joules() > 0.0, "{kind} energy");
        }
    }

    #[test]
    fn sequential_cells_have_clock_energy() {
        let lib = CellLibrary::default();
        assert!(lib.parameters(CellKind::Dff).clock_energy > Energy::ZERO);
        assert_eq!(lib.parameters(CellKind::And2).clock_energy, Energy::ZERO);
    }

    #[test]
    fn xor_costs_more_than_nand() {
        let lib = CellLibrary::default();
        assert!(
            lib.parameters(CellKind::Xnor2).internal_energy
                > lib.parameters(CellKind::And2).internal_energy
        );
        assert!(
            lib.parameters(CellKind::Dff).internal_energy
                > lib.parameters(CellKind::Mux2).internal_energy
        );
        assert!(
            lib.parameters(CellKind::PassGate).internal_energy
                < lib.parameters(CellKind::Buf).internal_energy
        );
    }

    #[test]
    fn energies_are_in_the_tens_of_femtojoule_range() {
        let lib = CellLibrary::default();
        let and = lib.parameters(CellKind::And2).internal_energy;
        assert!(and.as_femtojoules() > 5.0, "{and}");
        assert!(and.as_femtojoules() < 200.0, "{and}");
    }

    #[test]
    fn pin_load_energy_scales_with_fanout() {
        let lib = CellLibrary::default();
        let one = lib.pin_load_energy(CellKind::Inv, 1);
        let four = lib.pin_load_energy(CellKind::Inv, 4);
        assert!((four.as_joules() - 4.0 * one.as_joules()).abs() < 1e-27);
        assert_eq!(lib.pin_load_energy(CellKind::Inv, 0), Energy::ZERO);
    }

    #[test]
    #[should_panic(expected = "missing parameters")]
    fn incomplete_library_panics() {
        let _ = CellLibrary::new("broken", Voltage::from_volts(1.0), BTreeMap::new());
    }
}
