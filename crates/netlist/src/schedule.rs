//! Levelization: compile a netlist into a flat, level-ordered evaluation
//! schedule.
//!
//! The schedule replaces a per-cycle walk over the netlist graph with
//! precomputed drive lists and a dense array of cells sorted by
//! combinational level.  In that order every cell comes after the cells
//! that drive its inputs, so the packed engine settles a whole cycle with
//! one linear pass over the array.
//!
//! A compiled schedule is self-contained: the packed engine runs from it
//! (and the netlist's energy tables) without the netlist, so
//! characterization can drop a generated circuit once it is compiled.  It
//! maps each primary-input position to its net, so a step writes an input
//! straight into that net's word.
//!
//! `EvalSchedule::compile_held` compiles against primary inputs that keep
//! one value for the simulator's whole life, and drops every cell that only
//! forwards an input while they hold (a buffer, a 2:1 mux with a held
//! select, a pass gate with a held-high enable): its consumers
//! read the forwarded net directly.  A dense per-net source table maps each
//! dropped net to the net it forwards and every other net to itself, which
//! is where the packed engine reads a net's word and toggle counts.
//! Characterization holds the crosspoint enable and the MUX selects this
//! way.
//!
//! The schedule also carries the netlist's *settle depth*
//! ([`EvalSchedule::settle_cycles`]): how many cycles the engines need
//! before their state stops depending on where it started, which bounds
//! the warm-up a measurement actually has to simulate.

use crate::cells::CellKind;
use crate::netlist::{CellId, Netlist, NetlistError};

/// One cell of the flat evaluation array: everything the simulator needs,
/// with pre-resolved net indices.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScheduledCell {
    /// The cell kind to evaluate.
    pub(crate) kind: CellKind,
    /// Number of live entries in `inputs`.
    pub(crate) arity: u8,
    /// Input net indices, `inputs[..arity]` live.
    pub(crate) inputs: [u32; 3],
    /// Output net index.
    pub(crate) output: u32,
}

impl ScheduledCell {
    /// The live input net indices, `inputs[..arity]`.
    #[inline]
    pub(crate) fn live_inputs(&self) -> &[u32] {
        &self.inputs[..usize::from(self.arity)]
    }
}

/// A compiled evaluation schedule for one netlist: drive lists, levelled
/// combinational cells and the per-net source table.
///
/// Every vector is sized exactly: the compiled-switch memo keeps schedules
/// for the life of the process.
#[derive(Debug, Clone)]
pub struct EvalSchedule {
    /// The net of each primary-input position.
    pub(crate) input_nets: Vec<u32>,
    /// `(primary-input position, value)` for every held input, in the
    /// order [`EvalSchedule::compile_held`] was given them; empty for
    /// [`EvalSchedule::compile`].
    pub(crate) held_inputs: Vec<(u32, bool)>,
    /// `(net, state slot)` for every sequential-cell output net.
    pub(crate) seq_drives: Vec<(u32, u32)>,
    /// `(state slot, D-input net)` captured at the end of every cycle.
    pub(crate) seq_captures: Vec<(u32, u32)>,
    /// The combinational cells the compile kept, sorted by level,
    /// id-ordered within one.
    pub(crate) cells: Vec<ScheduledCell>,
    /// Per net: the net whose word and toggles it carries, its source if
    /// the compile dropped its cell, else the net itself.  A source is
    /// never itself dropped.
    pub(crate) source: Vec<u32>,
    /// Number of combinational levels.
    level_count: usize,
    /// See [`EvalSchedule::settle_cycles`].
    settle_cycles: Option<u64>,
}

impl EvalSchedule {
    /// Validates `netlist` and compiles its schedule, one scheduled cell
    /// per combinational cell.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::UndrivenNet`] for a floating net that a cell or a
    ///   primary output reads (see [`Netlist::validate`]);
    /// * [`NetlistError::CombinationalLoop`] if the combinational logic
    ///   contains a cycle.
    pub fn compile(netlist: &Netlist) -> Result<Self, NetlistError> {
        Self::compile_with(netlist, None)
    }

    /// Validates `netlist` and compiles its schedule for a simulator whose
    /// primary input at each position in `held` carries the paired value in
    /// every lane on every step, and drops every combinational cell that
    /// only forwards one of its inputs while those inputs hold:
    ///
    /// * a `Buf`;
    /// * a `Mux2` with a held select (it forwards `A` or `B`);
    /// * a `PassGate` with a held-high enable (it forwards `A`).
    ///
    /// A net is held when it is a held input, when every
    /// input of the non-hold combinational cell driving it is held, or when
    /// it is a dropped net whose source is held.  Hold cells and
    /// sequential cells pass nothing on: their outputs start from the reset
    /// word, not from the held value.
    ///
    /// The dropped cell's consumers and flip-flop captures read its
    /// forwarded net instead, and the dropped net records that net as its
    /// source ([`PackedSimulator`](crate::packed::PackedSimulator) reports
    /// the source's word and toggle counts for it).  This is exact: a held
    /// net keeps one value from the first step on, so a dropped net equals
    /// its source after every step from reset, and both toggle in the same
    /// lanes of the same steps.  [`PackedSimulator::step`] checks after its
    /// drive that every held input carries its value.
    ///
    /// [`PackedSimulator::step`]: crate::packed::PackedSimulator::step
    ///
    /// # Errors
    ///
    /// As [`EvalSchedule::compile`].
    ///
    /// # Panics
    ///
    /// Panics if a held position is not a primary-input position.
    pub(crate) fn compile_held(
        netlist: &Netlist,
        held: &[(usize, bool)],
    ) -> Result<Self, NetlistError> {
        Self::compile_with(netlist, Some(held))
    }

    /// [`EvalSchedule::compile`] (`held` is `None`) and
    /// [`EvalSchedule::compile_held`].
    fn compile_with(
        netlist: &Netlist,
        held: Option<&[(usize, bool)]>,
    ) -> Result<Self, NetlistError> {
        netlist.check_structure()?;
        let cell_levels = netlist.combinational_levels()?;
        let level_count = cell_levels
            .iter()
            .flatten()
            .max()
            .map_or(0, |&deepest| deepest as usize + 1);

        let input_nets: Vec<u32> = netlist
            .primary_inputs()
            .iter()
            .map(|net| net.index() as u32)
            .collect();

        // Per net: the net whose word it carries (itself unless its cell is
        // dropped), and its held value, if any.
        let mut source: Vec<u32> = (0..netlist.net_count() as u32).collect();
        let mut held_value: Vec<Option<bool>> = vec![None; netlist.net_count()];
        let mut held_inputs = Vec::with_capacity(held.map_or(0, <[_]>::len));
        if let Some(held) = held {
            for &(position, value) in held {
                assert!(
                    position < input_nets.len(),
                    "held position {position} is not one of the {} primary inputs",
                    input_nets.len()
                );
                held_value[input_nets[position] as usize] = Some(value);
                held_inputs.push((position as u32, value));
            }
        }

        // Combinational cells in `(level, id)` order; sequential cells have
        // no level and evaluate outside the schedule.
        let mut order: Vec<usize> = (0..cell_levels.len())
            .filter(|&idx| cell_levels[idx].is_some())
            .collect();
        order.sort_by_key(|&idx| (cell_levels[idx], idx));
        let mut cells = Vec::with_capacity(order.len());
        for &idx in &order {
            let cell = netlist.cell(CellId(idx));
            let (kind, output) = (cell.kind(), cell.output().index());
            let mut inputs = [u32::MAX; 3];
            for (slot, net) in inputs.iter_mut().zip(cell.inputs()) {
                *slot = source[net.index()];
            }
            let arity = cell.inputs().len();
            if held.is_some() {
                // Consumers read a dropped net's source, so its held value
                // is the source's.
                if let Some(pin) = forwarded_pin(kind, &inputs, &held_value) {
                    source[output] = inputs[pin];
                    continue;
                }
                if !kind.holds_output_when_disabled() {
                    let values: Option<Vec<bool>> = inputs[..arity]
                        .iter()
                        .map(|&net| held_value[net as usize])
                        .collect();
                    held_value[output] = values.map(|values| kind.evaluate(&values, false));
                }
            }
            cells.push(ScheduledCell {
                kind,
                arity: arity as u8,
                inputs,
                output: output as u32,
            });
        }
        cells.shrink_to_fit();

        let sequential = netlist
            .cells()
            .filter(|(_, cell)| cell.kind().is_sequential())
            .count();
        let mut seq_drives = Vec::with_capacity(sequential);
        let mut seq_captures = Vec::with_capacity(sequential);
        for (_, cell) in netlist.cells() {
            if cell.kind().is_sequential() {
                let slot = seq_drives.len() as u32;
                seq_drives.push((cell.output().index() as u32, slot));
                seq_captures.push((slot, source[cell.inputs()[0].index()]));
            }
        }

        let settle_cycles = settle_depth(netlist.net_count(), &cells, &seq_drives, &seq_captures);
        Ok(Self {
            input_nets,
            held_inputs,
            seq_drives,
            seq_captures,
            cells,
            source,
            level_count,
            settle_cycles,
        })
    }

    /// Number of combinational levels of the compiled netlist, dropped
    /// cells included.
    #[must_use]
    pub fn level_count(&self) -> usize {
        self.level_count
    }

    /// Number of sequential state slots.
    #[must_use]
    pub(crate) fn state_slots(&self) -> usize {
        self.seq_drives.len()
    }

    /// Number of nets of the compiled netlist.
    pub(crate) fn net_count(&self) -> usize {
        self.source.len()
    }

    /// Cycles after which the simulation state no longer depends on where
    /// it started, or `None` when no such bound exists.
    ///
    /// Both engines capture every flip-flop's D input at the end of every
    /// cycle, so a flip-flop delays its input by exactly one cycle and
    /// forgets everything older.  With `L` the longest chain of
    /// sequential cells, each feeding the next's D input through
    /// combinational logic, every captured state is a function of the last
    /// `L` cycles' inputs and every net word one of the last `1 + L`: two
    /// simulators fed the same `1 + L` input cycles agree on every net and
    /// every state from then on, whatever their histories.  A purely
    /// combinational netlist settles in one cycle.  A hold cell (the
    /// `PassGate`) keeps its output for as long as it stays disabled, and a
    /// loop through sequential cells recirculates state, so either makes
    /// the depth unbounded.
    #[must_use]
    pub fn settle_cycles(&self) -> Option<u64> {
        self.settle_cycles
    }
}

#[cfg(test)]
impl EvalSchedule {
    /// `(name, length, capacity)` of every vector the schedule keeps.
    pub(crate) fn vector_sizes(&self) -> Vec<(&'static str, usize, usize)> {
        macro_rules! sizes {
            ($($field:ident),*) => {
                vec![$((stringify!($field), self.$field.len(), self.$field.capacity())),*]
            };
        }
        sizes!(
            input_nets,
            held_inputs,
            seq_drives,
            seq_captures,
            cells,
            source
        )
    }
}

/// The input pin a `kind` cell with `inputs` forwards while the nets of
/// `held` keep their values, or `None` when its output may depend on an
/// input that changes.
fn forwarded_pin(kind: CellKind, inputs: &[u32; 3], held: &[Option<bool>]) -> Option<usize> {
    match kind {
        CellKind::Buf => Some(0),
        // Y = S ? B : A.
        CellKind::Mux2 => held[inputs[2] as usize].map(usize::from),
        // Y = EN ? A : Y_prev.
        CellKind::PassGate => (held[inputs[1] as usize] == Some(true)).then_some(0),
        _ => None,
    }
}

/// `1 +` the longest chain of sequential cells (see
/// [`EvalSchedule::settle_cycles`]), or `None` for a netlist with a hold
/// cell or a loop through sequential cells.
fn settle_depth(
    net_count: usize,
    cells: &[ScheduledCell],
    seq_drives: &[(u32, u32)],
    seq_captures: &[(u32, u32)],
) -> Option<u64> {
    if cells
        .iter()
        .any(|cell| cell.kind.holds_output_when_disabled())
    {
        return None;
    }
    // Per state slot, the longest chain found so far that ends in it.  Each
    // round pushes every chain through one more sequential cell, so an
    // acyclic netlist stops growing after `L` rounds; a chain longer than
    // the slot count must visit some slot twice, which is a loop.
    let slots = seq_drives.len() as u64;
    let mut chain = vec![1_u64; seq_drives.len()];
    // Per net, the longest chain reaching it; primary inputs
    // stay 0.
    let mut net_chain = vec![0_u64; net_count];
    loop {
        for &(net, slot) in seq_drives {
            net_chain[net as usize] = chain[slot as usize];
        }
        for cell in cells {
            net_chain[cell.output as usize] = cell
                .live_inputs()
                .iter()
                .map(|&net| net_chain[net as usize])
                .max()
                .unwrap_or(0);
        }
        let mut grew = false;
        for &(slot, d) in seq_captures {
            let through = 1 + net_chain[d as usize];
            if through > chain[slot as usize] {
                chain[slot as usize] = through;
                grew = true;
            }
        }
        if !grew {
            return Some(1 + chain.iter().max().copied().unwrap_or(0));
        }
        if chain.iter().any(|&length| length > slots) {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits::{
        banyan_binary_switch, batcher_sorting_switch, crossbar_crosspoint, n_input_mux,
    };

    #[test]
    fn schedule_levels_and_drives_are_complete() {
        let mut n = Netlist::new();
        let a = n.add_input();
        let b = n.add_input();
        let c = n.add_input();
        let ab = n.add_net();
        let gated = n.add_net();
        let q = n.add_net();
        n.add_cell(CellKind::And2, &[a, b], ab).unwrap();
        n.add_cell(CellKind::Or2, &[ab, c], gated).unwrap();
        n.add_cell(CellKind::Dff, &[gated], q).unwrap();
        n.mark_output(q).unwrap();

        let schedule = EvalSchedule::compile(&n).unwrap();
        assert_eq!(schedule.level_count(), 2);
        assert_eq!(schedule.cells.len(), 2);
        assert_eq!(schedule.state_slots(), 1);
        assert_eq!(
            schedule.input_nets,
            vec![a.index() as u32, b.index() as u32, c.index() as u32]
        );
        assert_eq!(schedule.seq_drives, vec![(q.index() as u32, 0)]);
        assert_eq!(schedule.seq_captures, vec![(0, gated.index() as u32)]);
    }

    #[test]
    fn cycle_is_rejected() {
        let mut n = Netlist::new();
        let a = n.add_input();
        let x = n.add_net();
        let y = n.add_net();
        n.add_cell(CellKind::And2, &[a, y], x).unwrap();
        n.add_cell(CellKind::Buf, &[x], y).unwrap();
        assert!(matches!(
            EvalSchedule::compile(&n),
            Err(NetlistError::CombinationalLoop { .. })
        ));
    }

    /// The settle depth of a netlist compiled on its own.
    fn settle(netlist: &Netlist) -> Option<u64> {
        EvalSchedule::compile(netlist).unwrap().settle_cycles()
    }

    #[test]
    fn generated_classes_settle_after_their_register_stages() {
        // The crosspoint's pass gates hold their output while disabled.
        assert_eq!(settle(&crossbar_crosspoint(8).unwrap().netlist), None);
        // Input registers feed output registers: a chain of two.
        assert_eq!(settle(&banyan_binary_switch(8).unwrap().netlist), Some(3));
        for address_bits in 1..=5 {
            let circuit = batcher_sorting_switch(8, address_bits).unwrap();
            assert_eq!(
                settle(&circuit.netlist),
                Some(3),
                "{address_bits} address bits"
            );
        }
        // One output register stage behind the MUX tree.
        for inputs in [2, 4, 8, 16, 32] {
            let circuit = n_input_mux(inputs, 4).unwrap();
            assert_eq!(settle(&circuit.netlist), Some(2), "mux{inputs}");
        }
    }

    #[test]
    fn combinational_netlist_settles_in_one_cycle() {
        let mut n = Netlist::new();
        let a = n.add_input();
        let b = n.add_input();
        let ab = n.add_net();
        let y = n.add_net();
        n.add_cell(CellKind::And2, &[a, b], ab).unwrap();
        n.add_cell(CellKind::Xnor2, &[ab, a], y).unwrap();
        n.mark_output(y).unwrap();
        assert_eq!(settle(&n), Some(1));
    }

    #[test]
    fn three_flip_flop_pipeline_settles_in_four_cycles() {
        let mut n = Netlist::new();
        let mut d = n.add_input();
        for _ in 0..3 {
            let q = n.add_net();
            n.add_cell(CellKind::Dff, &[d], q).unwrap();
            d = q;
        }
        n.mark_output(d).unwrap();
        assert_eq!(settle(&n), Some(4));
    }

    #[test]
    fn flip_flop_loop_never_settles() {
        // A toggle flip-flop: Q feeds its own D through an inverter.
        let mut n = Netlist::new();
        let d = n.add_net();
        let q = n.add_net();
        n.add_cell(CellKind::Dff, &[d], q).unwrap();
        n.add_cell(CellKind::Inv, &[q], d).unwrap();
        n.mark_output(q).unwrap();
        assert_eq!(settle(&n), None);
    }

    #[test]
    fn lone_tri_state_buffer_never_settles() {
        let mut n = Netlist::new();
        let a = n.add_input();
        let en = n.add_input();
        let y = n.add_net();
        n.add_cell(CellKind::PassGate, &[a, en], y).unwrap();
        n.mark_output(y).unwrap();
        assert_eq!(settle(&n), None);
    }

    #[test]
    fn every_generated_class_compiles() {
        let circuits = [
            crossbar_crosspoint(8).unwrap(),
            banyan_binary_switch(8).unwrap(),
            batcher_sorting_switch(8, 4).unwrap(),
            n_input_mux(8, 8).unwrap(),
        ];
        for circuit in &circuits {
            let netlist = &circuit.netlist;
            let schedule = EvalSchedule::compile(netlist).unwrap();
            let sequential = netlist
                .cells()
                .filter(|(_, cell)| cell.kind().is_sequential())
                .count();
            assert!(schedule.level_count() > 0);
            assert_eq!(schedule.cells.len() + sequential, netlist.cell_count());
            assert_eq!(schedule.state_slots(), sequential);
            assert_eq!(schedule.input_nets.len(), netlist.primary_inputs().len());
        }
    }
}
