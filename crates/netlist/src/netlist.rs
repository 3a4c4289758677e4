//! Gate-level netlist graph.
//!
//! A [`Netlist`] is a directed graph of standard cells connected by nets.
//! Circuit generators in [`crate::circuits`] build netlists programmatically;
//! [`crate::schedule::EvalSchedule`] compiles them for the packed engine,
//! which evaluates them cycle by cycle and accumulates switching energy.

use std::collections::BTreeMap;
use std::fmt;

use crate::cells::CellKind;

/// Identifier of a net within one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) usize);

impl NetId {
    /// The raw index of the net (stable for the lifetime of the netlist).
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of a cell instance within one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub(crate) usize);

impl CellId {
    /// The raw index of the cell (stable for the lifetime of the netlist).
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// What drives a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// The net is the `index`-th primary input.
    PrimaryInput(usize),
    /// The net is driven by the output of a cell.
    Cell(CellId),
}

/// One net (wire) of the netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    driver: Option<Driver>,
    /// `(cell, input-pin index)` pairs loading this net.
    loads: Vec<(CellId, usize)>,
}

impl Net {
    /// The driver of this net, if any has been connected yet.
    #[must_use]
    pub(crate) fn driver(&self) -> Option<Driver> {
        self.driver
    }

    /// The `(cell, pin)` loads attached to this net.
    #[must_use]
    pub fn loads(&self) -> &[(CellId, usize)] {
        &self.loads
    }
}

/// One standard-cell instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    kind: CellKind,
    inputs: Vec<NetId>,
    output: NetId,
}

impl Cell {
    /// The standard-cell kind.
    #[must_use]
    pub fn kind(&self) -> CellKind {
        self.kind
    }

    /// Input nets in pin order.
    #[must_use]
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Output net.
    #[must_use]
    pub fn output(&self) -> NetId {
        self.output
    }
}

/// Errors raised while constructing, validating or characterizing a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A cell was connected with the wrong number of input pins.
    WrongInputCount {
        /// Cell kind being instantiated.
        kind: CellKind,
        /// Number of inputs the kind expects.
        expected: usize,
        /// Number of inputs supplied.
        found: usize,
    },
    /// Two drivers were connected to the same net.
    MultipleDrivers {
        /// The doubly-driven net.
        net: NetId,
    },
    /// A net used as a cell input or primary output has no driver.
    UndrivenNet {
        /// The floating net.
        net: NetId,
    },
    /// The combinational logic contains a cycle (not broken by a flip-flop).
    CombinationalLoop {
        /// One net on the cycle, for diagnostics.
        net: NetId,
    },
    /// A referenced net does not belong to this netlist.
    UnknownNet {
        /// The out-of-range net id.
        net: NetId,
    },
    /// A characterization was asked to measure zero cycles, which leaves
    /// its per-bit-slot energies without a denominator.
    ZeroMeasureCycles,
    /// A characterization was asked for a zero-bit payload bus, which
    /// leaves its per-bit-slot energies without a denominator.
    ZeroBusWidth,
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::WrongInputCount {
                kind,
                expected,
                found,
            } => write!(
                f,
                "cell {kind} expects {expected} inputs but {found} were connected"
            ),
            Self::MultipleDrivers { net } => {
                write!(f, "net #{} already has a driver", net.index())
            }
            Self::UndrivenNet { net } => write!(f, "net #{} has no driver", net.index()),
            Self::CombinationalLoop { net } => {
                write!(f, "combinational loop through net #{}", net.index())
            }
            Self::UnknownNet { net } => write!(f, "net #{} does not exist", net.index()),
            Self::ZeroMeasureCycles => {
                f.write_str("characterization needs at least one measure cycle, got 0")
            }
            Self::ZeroBusWidth => {
                f.write_str("characterization needs a payload bus of at least one bit, got 0")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

/// A gate-level netlist.
///
/// # Examples
///
/// Build a tiny 2:1 mux circuit and inspect it:
///
/// ```
/// use fabric_power_netlist::cells::CellKind;
/// use fabric_power_netlist::netlist::Netlist;
///
/// # fn main() -> Result<(), fabric_power_netlist::netlist::NetlistError> {
/// let mut n = Netlist::new();
/// let a = n.add_input();
/// let b = n.add_input();
/// let sel = n.add_input();
/// let y = n.add_net();
/// n.add_cell(CellKind::Mux2, &[a, b, sel], y)?;
/// n.mark_output(y)?;
/// n.validate()?;
/// assert_eq!(n.cell_count(), 1);
/// assert_eq!(n.primary_inputs().len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Netlist {
    nets: Vec<Net>,
    cells: Vec<Cell>,
    primary_inputs: Vec<NetId>,
    primary_outputs: Vec<NetId>,
}

impl Netlist {
    /// Creates an empty netlist.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a primary-input net and returns its id.
    pub fn add_input(&mut self) -> NetId {
        let id = NetId(self.nets.len());
        let index = self.primary_inputs.len();
        self.nets.push(Net {
            driver: Some(Driver::PrimaryInput(index)),
            loads: Vec::new(),
        });
        self.primary_inputs.push(id);
        id
    }

    /// Adds an internal net with no driver yet and returns its id.
    pub fn add_net(&mut self) -> NetId {
        let id = NetId(self.nets.len());
        self.nets.push(Net {
            driver: None,
            loads: Vec::new(),
        });
        id
    }

    /// Instantiates a cell of `kind` driving `output` from `inputs`.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::WrongInputCount`] if `inputs.len()` does not match the
    ///   cell kind.
    /// * [`NetlistError::UnknownNet`] if any referenced net does not exist.
    /// * [`NetlistError::MultipleDrivers`] if `output` is already driven.
    pub fn add_cell(
        &mut self,
        kind: CellKind,
        inputs: &[NetId],
        output: NetId,
    ) -> Result<CellId, NetlistError> {
        if inputs.len() != kind.input_count() {
            return Err(NetlistError::WrongInputCount {
                kind,
                expected: kind.input_count(),
                found: inputs.len(),
            });
        }
        for &net in inputs.iter().chain(std::iter::once(&output)) {
            if net.index() >= self.nets.len() {
                return Err(NetlistError::UnknownNet { net });
            }
        }
        if self.nets[output.index()].driver.is_some() {
            return Err(NetlistError::MultipleDrivers { net: output });
        }
        let id = CellId(self.cells.len());
        for (pin, &net) in inputs.iter().enumerate() {
            self.nets[net.index()].loads.push((id, pin));
        }
        self.nets[output.index()].driver = Some(Driver::Cell(id));
        self.cells.push(Cell {
            kind,
            inputs: inputs.to_vec(),
            output,
        });
        Ok(id)
    }

    /// Marks a net as a primary output.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNet`] if the net does not exist.
    pub fn mark_output(&mut self, net: NetId) -> Result<(), NetlistError> {
        if net.index() >= self.nets.len() {
            return Err(NetlistError::UnknownNet { net });
        }
        self.primary_outputs.push(net);
        Ok(())
    }

    /// All primary-input nets, in declaration order.
    #[must_use]
    pub fn primary_inputs(&self) -> &[NetId] {
        &self.primary_inputs
    }

    /// Position of `net` among [`Netlist::primary_inputs`], if the net is a
    /// primary input.
    #[must_use]
    pub(crate) fn primary_input_position(&self, net: NetId) -> Option<usize> {
        match self.nets.get(net.index())?.driver {
            Some(Driver::PrimaryInput(position)) => Some(position),
            _ => None,
        }
    }

    /// Number of cell instances.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets (including primary inputs).
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// A cell by id.
    #[must_use]
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Iterates over all cells with their ids.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &Cell)> + '_ {
        self.cells.iter().enumerate().map(|(i, c)| (CellId(i), c))
    }

    /// Iterates over all nets with their ids.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> + '_ {
        self.nets.iter().enumerate().map(|(i, n)| (NetId(i), n))
    }

    /// Histogram of cell kinds, useful for design reports and tests.
    #[must_use]
    pub fn cell_histogram(&self) -> BTreeMap<CellKind, usize> {
        let mut histogram = BTreeMap::new();
        for cell in &self.cells {
            *histogram.entry(cell.kind).or_insert(0) += 1;
        }
        histogram
    }

    /// Checks structural legality: every used net is driven and the
    /// combinational logic is acyclic. Returns the evaluation order of the
    /// combinational cells on success (sequential cells are excluded; their
    /// outputs act as sources).
    ///
    /// # Errors
    ///
    /// * [`NetlistError::UndrivenNet`] for floating nets used as inputs or outputs.
    /// * [`NetlistError::CombinationalLoop`] if a cycle exists that is not
    ///   broken by a flip-flop.
    pub fn validate(&self) -> Result<Vec<CellId>, NetlistError> {
        self.check_structure()?;
        self.combinational_order()
    }

    /// The structural half of [`Netlist::validate`]: every read net is
    /// driven.  Does *not* check for combinational loops — callers that
    /// compute levels or an evaluation order anyway get that check for free
    /// there.  The load lists need no check: [`Netlist::add_cell`] is their
    /// only writer and records each input pin as it connects it.
    pub(crate) fn check_structure(&self) -> Result<(), NetlistError> {
        // Every cell input and every primary output must be driven.
        for cell in &self.cells {
            for &net in &cell.inputs {
                if self.nets[net.index()].driver.is_none() {
                    return Err(NetlistError::UndrivenNet { net });
                }
            }
        }
        for &net in &self.primary_outputs {
            if self.nets[net.index()].driver.is_none() {
                return Err(NetlistError::UndrivenNet { net });
            }
        }
        Ok(())
    }

    /// [`Netlist::validate`] plus the requirement that *every* net has a
    /// driver, even nets nothing reads.  Circuit generators run this under
    /// `debug_assertions`: a floating net in a generated circuit is a
    /// generator bug, even when no simulation would ever notice it.
    ///
    /// # Errors
    ///
    /// Everything [`Netlist::validate`] raises, plus
    /// [`NetlistError::UndrivenNet`] for any driverless net.
    #[cfg(any(debug_assertions, test))]
    pub(crate) fn validate_strict(&self) -> Result<Vec<CellId>, NetlistError> {
        for (net_idx, net) in self.nets.iter().enumerate() {
            if net.driver.is_none() {
                return Err(NetlistError::UndrivenNet {
                    net: NetId(net_idx),
                });
            }
        }
        self.validate()
    }

    /// Assigns a combinational level to every cell: sequential cells and
    /// cells fed only by primary inputs and sequential outputs
    /// are level 0; every other combinational cell is one more than the
    /// deepest combinational cell feeding it.  Sequential cells report
    /// `None` (they evaluate outside the combinational schedule).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalLoop`] if the combinational logic
    /// contains a cycle.
    pub(crate) fn combinational_levels(&self) -> Result<Vec<Option<u32>>, NetlistError> {
        // in-degree of each combinational cell = number of inputs driven by
        // other combinational cells.  The fanout edges live in one flat
        // array with per-cell ranges (counting pass + prefix sums) instead
        // of one heap allocation per cell.
        let mut indegree = vec![0_usize; self.cells.len()];
        let mut edge_counts = vec![0_usize; self.cells.len()];
        let comb_source = |input: NetId| -> Option<usize> {
            if let Some(Driver::Cell(src)) = self.nets[input.index()].driver {
                if !self.cells[src.index()].kind.is_sequential() {
                    return Some(src.index());
                }
            }
            None
        };
        for cell in &self.cells {
            if cell.kind.is_sequential() {
                continue;
            }
            for &input in &cell.inputs {
                if let Some(src) = comb_source(input) {
                    edge_counts[src] += 1;
                }
            }
        }
        let mut edge_start = Vec::with_capacity(self.cells.len() + 1);
        let mut total = 0_usize;
        for &count in &edge_counts {
            edge_start.push(total);
            total += count;
        }
        edge_start.push(total);
        let mut edges = vec![0_usize; total];
        let mut cursor = edge_start.clone();
        for (idx, cell) in self.cells.iter().enumerate() {
            if cell.kind.is_sequential() {
                continue;
            }
            for &input in &cell.inputs {
                if let Some(src) = comb_source(input) {
                    indegree[idx] += 1;
                    edges[cursor[src]] = idx;
                    cursor[src] += 1;
                }
            }
        }
        let mut levels: Vec<Option<u32>> = vec![None; self.cells.len()];
        let mut ready: Vec<usize> = Vec::new();
        for idx in 0..self.cells.len() {
            if !self.cells[idx].kind.is_sequential() && indegree[idx] == 0 {
                levels[idx] = Some(0);
                ready.push(idx);
            }
        }
        let mut resolved = 0_usize;
        while let Some(idx) = ready.pop() {
            resolved += 1;
            let level = levels[idx].expect("ready cells have a level");
            for &dep in &edges[edge_start[idx]..edge_start[idx + 1]] {
                let dep_level = levels[dep].get_or_insert(0);
                *dep_level = (*dep_level).max(level + 1);
                indegree[dep] -= 1;
                if indegree[dep] == 0 {
                    ready.push(dep);
                }
            }
        }
        let combinational_total = self
            .cells
            .iter()
            .filter(|c| !c.kind.is_sequential())
            .count();
        if resolved != combinational_total {
            // Find a cell still blocked to report a net on the cycle.
            let blocked = (0..self.cells.len())
                .find(|&i| !self.cells[i].kind.is_sequential() && indegree[i] > 0)
                .expect("some combinational cell must remain blocked");
            return Err(NetlistError::CombinationalLoop {
                net: self.cells[blocked].output,
            });
        }
        Ok(levels)
    }

    /// Topologically sorts the combinational cells by `(level, cell id)` —
    /// the level assignment of [`Netlist::combinational_levels`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalLoop`] if the combinational logic
    /// contains a cycle.
    pub(crate) fn combinational_order(&self) -> Result<Vec<CellId>, NetlistError> {
        let levels = self.combinational_levels()?;
        let mut order: Vec<CellId> = (0..self.cells.len())
            .filter(|&i| !self.cells[i].kind.is_sequential())
            .map(CellId)
            .collect();
        order.sort_by_key(|&c| (levels[c.index()], c.index()));
        Ok(order)
    }
}

#[cfg(test)]
impl Netlist {
    /// All primary-output nets, in declaration order.
    pub(crate) fn primary_outputs(&self) -> &[NetId] {
        &self.primary_outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn and_or_netlist() -> (Netlist, NetId, NetId) {
        let mut n = Netlist::new();
        let a = n.add_input();
        let b = n.add_input();
        let c = n.add_input();
        let ab = n.add_net();
        let y = n.add_net();
        n.add_cell(CellKind::And2, &[a, b], ab).unwrap();
        n.add_cell(CellKind::Or2, &[ab, c], y).unwrap();
        n.mark_output(y).unwrap();
        (n, ab, y)
    }

    #[test]
    fn build_and_validate_simple_netlist() {
        let (n, _, y) = and_or_netlist();
        let order = n.validate().expect("valid netlist");
        assert_eq!(order.len(), 2);
        assert_eq!(n.cell_count(), 2);
        assert_eq!(n.net_count(), 5);
        assert_eq!(n.primary_outputs(), &[y]);
        // AND must evaluate before OR.
        let and_pos = order
            .iter()
            .position(|&c| n.cell(c).kind() == CellKind::And2)
            .unwrap();
        let or_pos = order
            .iter()
            .position(|&c| n.cell(c).kind() == CellKind::Or2)
            .unwrap();
        assert!(and_pos < or_pos);
    }

    #[test]
    fn wrong_input_count_is_rejected() {
        let mut n = Netlist::new();
        let a = n.add_input();
        let y = n.add_net();
        let err = n.add_cell(CellKind::And2, &[a], y).unwrap_err();
        assert!(matches!(err, NetlistError::WrongInputCount { .. }));
    }

    #[test]
    fn double_driver_is_rejected() {
        let mut n = Netlist::new();
        let a = n.add_input();
        let y = n.add_net();
        n.add_cell(CellKind::Inv, &[a], y).unwrap();
        let err = n.add_cell(CellKind::Buf, &[a], y).unwrap_err();
        assert_eq!(err, NetlistError::MultipleDrivers { net: y });
    }

    #[test]
    fn unknown_net_is_rejected() {
        let mut n = Netlist::new();
        let a = n.add_input();
        let bogus = NetId(42);
        let y = n.add_net();
        assert!(matches!(
            n.add_cell(CellKind::Inv, &[bogus], y),
            Err(NetlistError::UnknownNet { .. })
        ));
        assert!(matches!(
            n.add_cell(CellKind::Inv, &[a], bogus),
            Err(NetlistError::UnknownNet { .. })
        ));
        assert!(n.mark_output(bogus).is_err());
    }

    #[test]
    fn undriven_net_fails_validation() {
        let mut n = Netlist::new();
        let floating = n.add_net();
        let y = n.add_net();
        n.add_cell(CellKind::Inv, &[floating], y).unwrap();
        n.mark_output(y).unwrap();
        assert_eq!(
            n.validate().unwrap_err(),
            NetlistError::UndrivenNet { net: floating }
        );
    }

    #[test]
    fn combinational_loop_is_detected() {
        let mut n = Netlist::new();
        let a = n.add_input();
        let x = n.add_net();
        let y = n.add_net();
        n.add_cell(CellKind::And2, &[a, y], x).unwrap();
        n.add_cell(CellKind::Buf, &[x], y).unwrap();
        assert!(matches!(
            n.validate(),
            Err(NetlistError::CombinationalLoop { .. })
        ));
    }

    #[test]
    fn flip_flop_breaks_cycles() {
        let mut n = Netlist::new();
        let q = n.add_net();
        let d = n.add_net();
        n.add_cell(CellKind::Inv, &[q], d).unwrap();
        n.add_cell(CellKind::Dff, &[d], q).unwrap();
        n.mark_output(q).unwrap();
        let order = n.validate().expect("dff breaks the loop");
        assert_eq!(order.len(), 1); // only the inverter is combinational
    }

    #[test]
    fn histogram_counts_cell_kinds() {
        let (n, _, _) = and_or_netlist();
        let h = n.cell_histogram();
        assert_eq!(h[&CellKind::And2], 1);
        assert_eq!(h[&CellKind::Or2], 1);
        assert_eq!(h.values().sum::<usize>(), 2);
    }

    #[test]
    fn loads_record_pin_indices() {
        let (n, ab, _) = and_or_netlist();
        let (_, net) = n.nets().find(|&(id, _)| id == ab).unwrap();
        let loads = net.loads();
        assert_eq!(loads.len(), 1);
        assert_eq!(loads[0].1, 0); // ab feeds pin 0 of the OR gate
    }

    #[test]
    fn combinational_levels_assign_depths() {
        let (n, _, _) = and_or_netlist();
        let levels = n.combinational_levels().unwrap();
        let and_cell = n
            .cells()
            .find(|(_, c)| c.kind() == CellKind::And2)
            .unwrap()
            .0;
        let or_cell = n
            .cells()
            .find(|(_, c)| c.kind() == CellKind::Or2)
            .unwrap()
            .0;
        assert_eq!(levels[and_cell.index()], Some(0));
        assert_eq!(levels[or_cell.index()], Some(1));
    }

    #[test]
    fn sequential_cells_have_no_level_and_reset_depth() {
        let mut n = Netlist::new();
        let d = n.add_input();
        let q = n.add_net();
        let y = n.add_net();
        n.add_cell(CellKind::Dff, &[d], q).unwrap();
        n.add_cell(CellKind::Inv, &[q], y).unwrap();
        n.mark_output(y).unwrap();
        let levels = n.combinational_levels().unwrap();
        // The flip-flop has no combinational level; the inverter it feeds
        // restarts at level 0 (sequential outputs act as sources).
        assert_eq!(levels, vec![None, Some(0)]);
    }

    #[test]
    fn validate_strict_rejects_any_floating_net() {
        let (mut n, _, _) = and_or_netlist();
        assert!(n.validate_strict().is_ok());
        // A floating net nothing reads passes validate() but not strict.
        let floating = n.add_net();
        assert!(n.validate().is_ok());
        assert_eq!(
            n.validate_strict().unwrap_err(),
            NetlistError::UndrivenNet { net: floating }
        );
    }

    #[test]
    fn error_display_messages() {
        let err = NetlistError::WrongInputCount {
            kind: CellKind::Mux2,
            expected: 3,
            found: 2,
        };
        assert!(err.to_string().contains("MUX2"));
        assert!(NetlistError::UndrivenNet { net: NetId(7) }
            .to_string()
            .contains("#7"));
    }
}
