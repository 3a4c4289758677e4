//! Switching-energy accounting for cycle-driven logic simulation.
//!
//! This is the stand-in for the paper's Synopsys Power Compiler runs: the
//! netlist is evaluated one clock cycle at a time, every net toggle is
//! counted, and each toggle is charged with the driving cell's internal
//! energy plus the energy to (dis)charge the input pins it fans out to.
//! Sequential cells additionally burn clock-pin energy every cycle and every
//! cell contributes its (tiny) leakage energy.
//!
//! Characterization runs on the bit-parallel
//! [`crate::packed::PackedSimulator`].  The crate's tests check it lane by
//! lane against a scalar, one-bool-per-net reference simulator that walks
//! every cell in topological order every cycle; that oracle is compiled
//! only into the tests.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use fabric_power_tech::units::Energy;

use crate::cells::CellKind;
use crate::library::CellLibrary;
use crate::netlist::{Driver, Netlist};

/// Breakdown of the energy consumed during a simulation run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Energy dissipated inside cells when their outputs toggle.
    pub internal: Energy,
    /// Energy dissipated charging and discharging input-pin loads.
    pub net_load: Energy,
    /// Clock-tree energy of sequential cells (every cycle).
    pub clock: Energy,
    /// Leakage energy (every cycle, all cells).
    pub leakage: Energy,
}

impl EnergyBreakdown {
    /// Total energy across all categories.
    #[must_use]
    pub fn total(&self) -> Energy {
        self.internal + self.net_load + self.clock + self.leakage
    }
}

/// Result of simulating a netlist over a number of cycles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivityReport {
    /// Number of simulated clock cycles.
    pub cycles: u64,
    /// Total number of net toggles observed.
    pub toggles: u64,
    /// Energy broken down by mechanism.
    pub energy: EnergyBreakdown,
    /// Toggle counts per cell kind (driver of the toggling net).
    pub toggles_by_kind: BTreeMap<CellKind, u64>,
}

/// Per-net energy accounting tables, precomputed once per `(netlist,
/// library)` pair so the simulation hot paths never touch the library again.
///
/// The bit-parallel [`crate::packed::PackedSimulator`] and the tests'
/// scalar oracle charge energy through these tables:
///
/// * `internal(net)` — the driving cell's internal energy, charged once per
///   toggle of the net (zero when no cell drives it);
/// * `load(net)` — the pre-summed energy of (dis)charging every input pin
///   the net fans out to, charged once per toggle;
/// * `per_cycle_clock` / `per_cycle_leakage` — constants charged per
///   simulated cycle (per lane-cycle in the packed engine).
///
/// `EnergyTables::report_from_counts` turns integer per-net toggle counts
/// into an [`ActivityReport`] deterministically (ascending net order, one
/// multiply per net), which is what makes packed-vs-scalar energy agreement
/// bit-exact: identical counts are guaranteed to produce identical floats.
#[derive(Debug, Clone)]
pub struct EnergyTables {
    /// Internal energy charged per toggle, indexed by net.
    net_internal: Vec<Energy>,
    /// Summed fanout pin-load energy charged per toggle, indexed by net.
    net_load: Vec<Energy>,
    /// Driving cell kind as `CellKind::ALL` index (`None` for primary
    /// inputs), indexed by net.
    net_kind: Vec<Option<u8>>,
    /// Clock energy of all sequential cells, per cycle.
    per_cycle_clock: Energy,
    /// Leakage energy of all cells, per cycle.
    per_cycle_leakage: Energy,
}

impl EnergyTables {
    /// Precomputes the tables for one netlist/library pair.
    #[must_use]
    pub fn new(netlist: &Netlist, library: &CellLibrary) -> Self {
        let mut per_cycle_clock = Energy::ZERO;
        let mut per_cycle_leakage = Energy::ZERO;
        for (_, cell) in netlist.cells() {
            let params = library.parameters(cell.kind());
            per_cycle_clock += params.clock_energy;
            per_cycle_leakage += params.leakage_energy_per_cycle;
        }
        let mut net_internal = vec![Energy::ZERO; netlist.net_count()];
        let mut net_load = vec![Energy::ZERO; netlist.net_count()];
        let mut net_kind = vec![None; netlist.net_count()];
        for (net_id, net) in netlist.nets() {
            if let Some(Driver::Cell(cell_id)) = net.driver() {
                let kind = netlist.cell(cell_id).kind();
                net_internal[net_id.index()] = library.parameters(kind).internal_energy;
                net_kind[net_id.index()] =
                    Some(u8::try_from(kind.index()).expect("fewer than 256 cell kinds"));
            }
            let mut load = Energy::ZERO;
            for &(load_cell, _pin) in net.loads() {
                load += library.pin_load_energy(netlist.cell(load_cell).kind(), 1);
            }
            net_load[net_id.index()] = load;
        }
        Self {
            net_internal,
            net_load,
            net_kind,
            per_cycle_clock,
            per_cycle_leakage,
        }
    }

    /// Computes the full [`ActivityReport`] from integer activity counts:
    /// the `n`-th of `net_toggles` is the toggles observed on net `n` (any
    /// exact-size iterator of `&u64`, such as `&[u64]`), and `cycles` the
    /// simulated (lane-)cycles.
    ///
    /// The summation order is fixed (ascending net index) and each net
    /// contributes exactly one `count × energy` product per category, so two
    /// engines that agree on the integer counts agree on every output float
    /// bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `net_toggles` yields a count for other than every net of
    /// the netlist.
    #[must_use]
    pub(crate) fn report_from_counts<'c, I>(&self, net_toggles: I, cycles: u64) -> ActivityReport
    where
        I: IntoIterator<Item = &'c u64>,
        I::IntoIter: ExactSizeIterator,
    {
        let net_toggles = net_toggles.into_iter();
        assert_eq!(
            net_toggles.len(),
            self.net_internal.len(),
            "toggle counts must cover every net"
        );
        let mut energy = EnergyBreakdown {
            clock: self.per_cycle_clock * cycles as f64,
            leakage: self.per_cycle_leakage * cycles as f64,
            ..EnergyBreakdown::default()
        };
        let mut toggles = 0_u64;
        let mut by_kind = [0_u64; CellKind::ALL.len()];
        for (net, &count) in net_toggles.enumerate() {
            if count == 0 {
                continue;
            }
            toggles += count;
            energy.internal += self.net_internal[net] * count as f64;
            energy.net_load += self.net_load[net] * count as f64;
            if let Some(kind) = self.net_kind[net] {
                by_kind[kind as usize] += count;
            }
        }
        ActivityReport {
            cycles,
            toggles,
            energy,
            toggles_by_kind: CellKind::ALL
                .into_iter()
                .filter(|kind| by_kind[kind.index()] > 0)
                .map(|kind| (kind, by_kind[kind.index()]))
                .collect(),
        }
    }
}

impl ActivityReport {
    /// Total energy of the run.
    #[must_use]
    pub(crate) fn total_energy(&self) -> Energy {
        self.energy.total()
    }
}

#[cfg(test)]
pub(crate) use oracle::{simulate, Simulator};

/// The scalar reference oracle of the packed engine.
#[cfg(test)]
mod oracle {
    use crate::library::CellLibrary;
    use crate::netlist::{CellId, Driver, NetId, Netlist, NetlistError};

    use super::{ActivityReport, EnergyTables};

    /// Cycle-driven scalar simulator for one [`Netlist`].
    #[derive(Debug, Clone)]
    pub(crate) struct Simulator<'a> {
        netlist: &'a Netlist,
        /// Combinational evaluation order.
        order: Vec<CellId>,
        /// Current logic value of every net.
        net_values: Vec<bool>,
        /// Stored state of sequential cells, indexed by cell id.
        state: Vec<bool>,
        /// Simulated cycles since the last counter reset.
        cycles: u64,
        /// Toggles observed per net since the last counter reset.  Energy is
        /// derived from these integer counts at [`Simulator::report`] time via
        /// the precomputed [`EnergyTables`] — the hot path never touches the
        /// cell library or a map.
        net_toggles: Vec<u64>,
        /// Per-net energy tables, precomputed in [`Simulator::new`].
        tables: EnergyTables,
    }

    impl<'a> Simulator<'a> {
        /// Creates a simulator, validating the netlist in the process.
        ///
        /// All nets start at logic `0`, all flip-flops start cleared.
        ///
        /// # Errors
        ///
        /// Propagates any [`NetlistError`] from [`Netlist::validate`].
        pub(crate) fn new(
            netlist: &'a Netlist,
            library: &CellLibrary,
        ) -> Result<Self, NetlistError> {
            let order = netlist.validate()?;
            Ok(Self {
                netlist,
                order,
                net_values: vec![false; netlist.net_count()],
                state: vec![false; netlist.cell_count()],
                cycles: 0,
                net_toggles: vec![0; netlist.net_count()],
                tables: EnergyTables::new(netlist, library),
            })
        }

        /// Simulates one clock cycle with the given primary-input values.
        ///
        /// The order of `inputs` matches [`Netlist::primary_inputs`].
        ///
        /// # Panics
        ///
        /// Panics if `inputs.len()` differs from the number of primary inputs.
        pub(crate) fn step(&mut self, inputs: &[bool]) {
            assert_eq!(
                inputs.len(),
                self.netlist.primary_inputs().len(),
                "expected {} primary-input values, got {}",
                self.netlist.primary_inputs().len(),
                inputs.len()
            );
            self.cycles += 1;

            // Copy the netlist reference out of `self` so the shared borrow of the
            // netlist data does not conflict with `&mut self` calls below.
            let netlist = self.netlist;

            // 1. Drive primary inputs and sequential outputs.
            for (net_id, net) in netlist.nets() {
                match net.driver() {
                    Some(Driver::PrimaryInput(pi)) => {
                        self.update_net(net_id.index(), inputs[pi]);
                    }
                    Some(Driver::Cell(cell_id)) if netlist.cell(cell_id).kind().is_sequential() => {
                        let q = self.state[cell_id.index()];
                        self.update_net(net_id.index(), q);
                    }
                    _ => {}
                }
            }

            // 2. Evaluate combinational logic in topological order.
            let mut scratch_inputs = Vec::with_capacity(3);
            for idx in 0..self.order.len() {
                let cell_id = self.order[idx];
                let cell = netlist.cell(cell_id);
                scratch_inputs.clear();
                scratch_inputs.extend(cell.inputs().iter().map(|n| self.net_values[n.index()]));
                let previous = self.net_values[cell.output().index()];
                let value = cell.kind().evaluate(&scratch_inputs, previous);
                self.update_net(cell.output().index(), value);
            }

            // 3. Capture the next state of sequential cells (D sampled at the end
            //    of the cycle, visible on Q at the start of the next cycle).
            for (cell_id, cell) in netlist.cells() {
                if cell.kind().is_sequential() {
                    self.state[cell_id.index()] = self.net_values[cell.inputs()[0].index()];
                }
            }
        }

        /// Simulates one cycle per entry of `vectors`.
        pub(crate) fn run<I, V>(&mut self, vectors: I)
        where
            I: IntoIterator<Item = V>,
            V: AsRef<[bool]>,
        {
            for vector in vectors {
                self.step(vector.as_ref());
            }
        }

        fn update_net(&mut self, net_index: usize, value: bool) {
            if self.net_values[net_index] == value {
                return;
            }
            self.net_values[net_index] = value;
            self.net_toggles[net_index] += 1;
        }

        /// Current logic values of the primary outputs, in declaration order.
        #[must_use]
        pub(crate) fn output_values(&self) -> Vec<bool> {
            self.netlist
                .primary_outputs()
                .iter()
                .map(|&n| self.net_value(n))
                .collect()
        }

        /// Current logic value of an arbitrary net.
        #[must_use]
        pub(crate) fn net_value(&self, net: NetId) -> bool {
            self.net_values[net.index()]
        }

        /// Snapshot of the accumulated activity and energy.
        #[must_use]
        pub(crate) fn report(&self) -> ActivityReport {
            self.tables
                .report_from_counts(&self.net_toggles, self.cycles)
        }

        /// Toggle counts per net since the last counter reset, indexed by net.
        ///
        /// This is the integer quantity the equivalence contract with the packed
        /// engine is stated in: identical per-net counts imply bit-identical
        /// energies through [`EnergyTables::report_from_counts`].
        #[must_use]
        pub(crate) fn net_toggle_counts(&self) -> &[u64] {
            &self.net_toggles
        }

        /// The precomputed per-net energy tables used by this simulator.
        #[must_use]
        pub(crate) fn energy_tables(&self) -> &EnergyTables {
            &self.tables
        }

        /// Resets activity counters (but keeps the current logic state), so a
        /// warm-up phase can be excluded from measurements.
        pub(crate) fn reset_counters(&mut self) {
            self.cycles = 0;
            self.net_toggles.fill(0);
        }
    }

    /// Convenience: simulate `vectors` on a fresh simulator and return the report.
    ///
    /// # Errors
    ///
    /// Propagates netlist validation errors.
    pub(crate) fn simulate<V: AsRef<[bool]>>(
        netlist: &Netlist,
        library: &CellLibrary,
        vectors: impl IntoIterator<Item = V>,
    ) -> Result<ActivityReport, NetlistError> {
        let mut sim = Simulator::new(netlist, library)?;
        sim.run(vectors);
        Ok(sim.report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::CellKind;

    /// One two-input `kind` gate `y = kind(a, b)`.
    fn gate_netlist(kind: CellKind) -> Netlist {
        let mut n = Netlist::new();
        let a = n.add_input();
        let b = n.add_input();
        let y = n.add_net();
        n.add_cell(kind, &[a, b], y).unwrap();
        n.mark_output(y).unwrap();
        n
    }

    #[test]
    fn xor_evaluates_correctly_over_cycles() {
        let n = gate_netlist(CellKind::Xnor2);
        let lib = CellLibrary::default();
        let mut sim = Simulator::new(&n, &lib).unwrap();
        sim.step(&[false, false]);
        assert_eq!(sim.output_values(), vec![true]);
        sim.step(&[true, false]);
        assert_eq!(sim.output_values(), vec![false]);
        sim.step(&[true, true]);
        assert_eq!(sim.output_values(), vec![true]);
    }

    #[test]
    fn constant_inputs_consume_only_clock_and_leakage() {
        let n = gate_netlist(CellKind::Or2);
        let lib = CellLibrary::default();
        let mut sim = Simulator::new(&n, &lib).unwrap();
        // Same vector repeatedly: after the first cycle nothing toggles.
        sim.run(std::iter::repeat_n([false, false], 10));
        let report = sim.report();
        assert_eq!(report.toggles, 0);
        assert_eq!(report.energy.internal, Energy::ZERO);
        assert_eq!(report.energy.net_load, Energy::ZERO);
        assert!(report.energy.leakage > Energy::ZERO);
        assert_eq!(report.cycles, 10);
    }

    #[test]
    fn toggling_inputs_accumulate_energy() {
        let n = gate_netlist(CellKind::Or2);
        let lib = CellLibrary::default();
        let mut sim = Simulator::new(&n, &lib).unwrap();
        for i in 0..100_u32 {
            sim.step(&[i % 2 == 0, false]);
        }
        let report = sim.report();
        assert!(report.energy.internal > Energy::ZERO);
        assert!(report.energy.net_load > Energy::ZERO);
        assert!(report.toggles >= 100);
        assert!(report.toggles_by_kind[&CellKind::Or2] > 0);
    }

    #[test]
    fn dff_delays_data_by_one_cycle() {
        let mut n = Netlist::new();
        let d = n.add_input();
        let q = n.add_net();
        n.add_cell(CellKind::Dff, &[d], q).unwrap();
        n.mark_output(q).unwrap();
        let lib = CellLibrary::default();
        let mut sim = Simulator::new(&n, &lib).unwrap();
        sim.step(&[true]);
        // Q still shows the reset value during the first cycle.
        assert_eq!(sim.output_values(), vec![false]);
        sim.step(&[false]);
        // Now Q shows the value captured at the end of cycle 1.
        assert_eq!(sim.output_values(), vec![true]);
        sim.step(&[false]);
        assert_eq!(sim.output_values(), vec![false]);
    }

    #[test]
    fn sequential_cells_burn_clock_energy_every_cycle() {
        let mut n = Netlist::new();
        let d = n.add_input();
        let q = n.add_net();
        n.add_cell(CellKind::Dff, &[d], q).unwrap();
        n.mark_output(q).unwrap();
        let lib = CellLibrary::default();
        let report = simulate(&n, &lib, std::iter::repeat_n([false], 50)).unwrap();
        let expected = lib.parameters(CellKind::Dff).clock_energy * 50.0;
        assert!((report.energy.clock.as_joules() - expected.as_joules()).abs() < 1e-24);
    }

    #[test]
    fn tri_state_bus_holds_value() {
        let mut n = Netlist::new();
        let a = n.add_input();
        let en = n.add_input();
        let y = n.add_net();
        n.add_cell(CellKind::PassGate, &[a, en], y).unwrap();
        n.mark_output(y).unwrap();
        let lib = CellLibrary::default();
        let mut sim = Simulator::new(&n, &lib).unwrap();
        sim.step(&[true, true]);
        assert_eq!(sim.output_values(), vec![true]);
        // Disable: output holds even though A falls.
        sim.step(&[false, false]);
        assert_eq!(sim.output_values(), vec![true]);
    }

    #[test]
    fn reset_counters_keeps_state() {
        let n = gate_netlist(CellKind::Or2);
        let lib = CellLibrary::default();
        let mut sim = Simulator::new(&n, &lib).unwrap();
        sim.step(&[true, false]);
        sim.reset_counters();
        assert_eq!(sim.report().cycles, 0);
        assert_eq!(sim.report().total_energy(), Energy::ZERO);
        // State preserved: stepping with the same vector causes no toggles.
        sim.step(&[true, false]);
        assert_eq!(sim.report().toggles, 0);
    }

    #[test]
    fn empty_report_is_zero() {
        let report = ActivityReport {
            cycles: 0,
            toggles: 0,
            energy: EnergyBreakdown::default(),
            toggles_by_kind: BTreeMap::new(),
        };
        assert_eq!(report.total_energy(), Energy::ZERO);
    }

    #[test]
    #[should_panic(expected = "primary-input values")]
    fn wrong_input_vector_length_panics() {
        let n = gate_netlist(CellKind::Or2);
        let lib = CellLibrary::default();
        let mut sim = Simulator::new(&n, &lib).unwrap();
        sim.step(&[true]);
    }
}
