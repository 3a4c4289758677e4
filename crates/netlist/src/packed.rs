//! Bit-parallel (bit-sliced) gate-level simulation: 64 lanes per `u64`.
//!
//! [`PackedSimulator`] evaluates 64 *independent* simulations of the same
//! netlist at once by packing one lane per bit of a `u64` word per net.
//! Every [`CellKind`](crate::cells::CellKind) evaluates as word-wide boolean
//! operations, tri-state and flip-flop state are held as per-lane words, and
//! toggle activity is accumulated per net with `(prev ^ new).count_ones()`.
//!
//! The simulator runs from a compiled [`EvalSchedule`] alone: it borrows the
//! schedule and the netlist's [`EnergyTables`] and never reads the
//! [`Netlist`](crate::netlist::Netlist) they came from, so one compiled pair
//! can serve any number of simulators (characterization shares them across
//! every stimulus seed through [`crate::compiled`]).  Steps skip every cell
//! none of whose inputs has ever changed (see
//! [`PackedSimulator::step_masked`]).  A schedule compiled against held
//! inputs ([`EvalSchedule::compile_held`]) has no cell for a net it dropped;
//! the simulator reports that net's source word and toggle counts, which
//! are the net's own.
//!
//! Energy accounting goes through the same [`EnergyTables`] as the scalar
//! [`crate::sim::Simulator`]: integer per-net toggle counts are converted to
//! energies in one deterministic pass, so a packed run and the sum of the
//! equivalent per-lane scalar runs produce **bit-identical** energy numbers.
//!
//! Lanes are numbered from bit 0: lane `L` of net `n` is
//! `(word(n) >> L) & 1`. A *lane-cycle* is one lane advancing one clock
//! cycle; a full-mask [`PackedSimulator::step`] contributes [`LANES`]
//! lane-cycles. Per-cycle clock and leakage energy are charged per
//! lane-cycle, which keeps totals comparable with a scalar run of the same
//! number of (scalar) cycles.

use std::borrow::Cow;

use crate::netlist::NetId;
use crate::schedule::{EvalSchedule, ScheduledCell};
use crate::sim::{ActivityReport, EnergyTables};

/// Lanes every [`PackedSimulator`] step advances: one per bit of a `u64`.
pub const LANES: u32 = 64;

/// Bit-parallel simulator holding one `u64` of lane values per net.
///
/// # Examples
///
/// ```
/// use fabric_power_netlist::cells::CellKind;
/// use fabric_power_netlist::library::CellLibrary;
/// use fabric_power_netlist::netlist::Netlist;
/// use fabric_power_netlist::packed::PackedSimulator;
/// use fabric_power_netlist::schedule::EvalSchedule;
/// use fabric_power_netlist::sim::EnergyTables;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut n = Netlist::new("inv");
/// let a = n.add_input("a");
/// let y = n.add_net("y");
/// n.add_cell("u_inv", CellKind::Inv, &[a], y)?;
/// n.mark_output(y)?;
///
/// let schedule = EvalSchedule::compile(&n)?;
/// let tables = EnergyTables::new(&n, &CellLibrary::calibrated_018um());
/// let mut sim = PackedSimulator::new(&schedule, &tables);
/// // Lane 0 drives a=1, every other lane drives a=0.
/// sim.step(&[0b01]);
/// assert_eq!(sim.net_word(y), !0b01_u64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PackedSimulator<'a> {
    schedule: &'a EvalSchedule,
    /// Per-net energy tables shared with the scalar engine.
    tables: &'a EnergyTables,
    /// Current lane words and activity bookkeeping of every net.
    nets: NetState,
    /// Stored per-lane state of sequential cells, by schedule state slot.
    state: Vec<u64>,
    /// Scheduled cells that have ever seen an input change (in any lane),
    /// sorted by index (index order is level order).  The steady-state
    /// sweep evaluates exactly these; cells of cones that never toggled
    /// cost nothing.
    active_cells: Vec<u32>,
    /// Whether the first full-evaluation step has run.  Not reset by
    /// [`PackedSimulator::reset_counters`]: the circuit stays settled.
    settled: bool,
    /// Measured lane-cycles since the last counter reset.
    lane_cycles: u64,
}

/// The per-net half of the engine state, kept apart from the schedule so a
/// step can walk the schedule while writing nets.
#[derive(Debug, Clone)]
struct NetState {
    /// Lane values of every net, one bit per lane.
    words: Vec<u64>,
    /// Toggles observed per net (summed over counted lanes) since the last
    /// counter reset.
    toggles: Vec<u64>,
    /// Per net: all of the net's consumer cells are already active, so a
    /// flip needs no activation walk (set the first time the net flips,
    /// which activates every consumer).
    fanout_active: Vec<bool>,
    /// Per scheduled cell: member of `active_cells` or `newly`.
    is_active: Vec<bool>,
    /// Cells activated since the last merge into `active_cells`.  Non-empty
    /// only on the rare steps when a previously quiet net first toggles.
    newly: Vec<u32>,
}

impl NetState {
    /// Writes `word` to `net`, crediting counted-lane toggles and
    /// activating the net's consumer cells on its first flip.
    #[inline(always)]
    fn write(&mut self, schedule: &EvalSchedule, count_mask: u64, net: u32, word: u64) {
        let idx = net as usize;
        let flipped = self.words[idx] ^ word;
        if flipped == 0 {
            return;
        }
        self.words[idx] = word;
        self.toggles[idx] += u64::from((flipped & count_mask).count_ones());
        if !self.fanout_active[idx] {
            self.fanout_active[idx] = true;
            for &cell in schedule.load_cells(idx) {
                let c = cell as usize;
                if !self.is_active[c] {
                    self.is_active[c] = true;
                    self.newly.push(cell);
                }
            }
        }
    }

    /// Evaluates one scheduled cell word-wide and writes its output.
    #[inline(always)]
    fn evaluate(&mut self, schedule: &EvalSchedule, count_mask: u64, cell: ScheduledCell) {
        let arity = cell.arity as usize;
        let mut words = [0_u64; 3];
        for (slot, &net) in words.iter_mut().zip(&cell.inputs[..arity]) {
            *slot = self.words[net as usize];
        }
        let previous = self.words[cell.output as usize];
        let value = cell.kind.evaluate_word(&words[..arity], previous);
        self.write(schedule, count_mask, cell.output, value);
    }
}

impl<'a> PackedSimulator<'a> {
    /// Creates a packed simulator over a compiled schedule and the energy
    /// tables of the same netlist.
    ///
    /// All nets start at logic `0` in every lane, all flip-flops start
    /// cleared.  [`PackedSimulator::report`] panics when `tables` covers a
    /// different number of nets than `schedule`.
    #[must_use]
    pub fn new(schedule: &'a EvalSchedule, tables: &'a EnergyTables) -> Self {
        let net_count = schedule.net_count();
        Self {
            schedule,
            tables,
            nets: NetState {
                words: vec![0; net_count],
                toggles: vec![0; net_count],
                fanout_active: vec![false; net_count],
                is_active: vec![false; schedule.cell_count()],
                newly: Vec::new(),
            },
            state: vec![0; schedule.state_slots()],
            active_cells: Vec::new(),
            settled: false,
            lane_cycles: 0,
        }
    }

    /// The compiled netlist's settle depth (see
    /// [`EvalSchedule::settle_cycles`]).
    #[must_use]
    pub fn settle_cycles(&self) -> Option<u64> {
        self.schedule.settle_cycles()
    }

    /// Measured lane-cycles since the last counter reset (the sum over
    /// steps of the number of counted lanes in that step).
    #[must_use]
    pub fn lane_cycles(&self) -> u64 {
        self.lane_cycles
    }

    /// Simulates one clock cycle in every lane, counting activity in all of
    /// them.
    ///
    /// The order of `inputs` matches the compiled netlist's
    /// [`primary_inputs`](crate::netlist::Netlist::primary_inputs); bit `L`
    /// of `inputs[i]` is the value of primary input `i` in lane `L`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of primary inputs,
    /// or if a held input (see [`EvalSchedule::compile_held`]) does not
    /// carry its value in every lane.
    pub fn step(&mut self, inputs: &[u64]) {
        self.step_masked(inputs, !0);
    }

    /// Simulates one clock cycle in every lane, but only counts toggles,
    /// lane-cycles, clock and leakage for lanes selected by `count_mask`.
    ///
    /// All lanes still *evolve* (state advances) regardless of the mask;
    /// masking only excludes lanes from the measurement. This is how a
    /// measurement total that is not a multiple of [`LANES`] is realised: a
    /// final partial step counts only the remainder lanes.
    ///
    /// The first step evaluates every scheduled cell (the all-zero reset
    /// words are not yet consistent with the cell functions).  Later steps
    /// sweep only the *active* cells — those that have ever seen an input
    /// change in any lane — in level order; quiet cones are never visited.
    /// On the rare step that activates a new cell, the sweep stops and one
    /// full level-ordered pass over the schedule follows, which is
    /// idempotent for every cell already evaluated this step (unchanged
    /// inputs reproduce the same word, so no toggle is double-counted).
    ///
    /// # Panics
    ///
    /// As [`PackedSimulator::step`].
    pub fn step_masked(&mut self, inputs: &[u64], count_mask: u64) {
        assert_eq!(
            inputs.len(),
            self.schedule.input_count,
            "expected {} primary-input words, got {}",
            self.schedule.input_count,
            inputs.len()
        );
        for &(position, value) in &self.schedule.held_inputs {
            assert_eq!(
                inputs[position as usize],
                if value { !0 } else { 0 },
                "primary input {position} is held at {value}"
            );
        }
        self.lane_cycles += u64::from(count_mask.count_ones());
        let schedule = self.schedule;
        let nets = &mut self.nets;

        // 1. Drive primary inputs, constants and sequential outputs.
        for &(net, pi) in &schedule.input_drives {
            nets.write(schedule, count_mask, net, inputs[pi as usize]);
        }
        for &(net, value) in &schedule.constant_drives {
            nets.write(schedule, count_mask, net, if value { !0 } else { 0 });
        }
        for &(net, slot) in &schedule.seq_drives {
            nets.write(schedule, count_mask, net, self.state[slot as usize]);
        }

        // 2. Evaluate combinational logic word-wide, in level order.
        let mut full_pass = !self.settled || !nets.newly.is_empty();
        self.settled = true;
        if !full_pass {
            for &cell in &self.active_cells {
                nets.evaluate(schedule, count_mask, schedule.cells[cell as usize]);
                // A quiet net toggled for the first time: its newly
                // activated consumers sit at strictly higher levels than
                // everything swept so far, so every evaluation up to here
                // used correct inputs.  Stop and catch up with a full pass.
                if !nets.newly.is_empty() {
                    full_pass = true;
                    break;
                }
            }
        }
        if full_pass {
            for &cell in &schedule.cells {
                nets.evaluate(schedule, count_mask, cell);
            }
        }
        if !nets.newly.is_empty() {
            self.active_cells.append(&mut nets.newly);
            self.active_cells.sort_unstable();
        }

        // 3. Capture the next state of sequential cells (D sampled at the
        //    end of the cycle, visible on Q at the start of the next cycle).
        for &(slot, d) in &schedule.seq_captures {
            self.state[slot as usize] = nets.words[d as usize];
        }
    }

    /// Current lane word of an arbitrary net (of its source, for a net
    /// whose cell the schedule dropped).
    #[must_use]
    pub fn net_word(&self, net: NetId) -> u64 {
        self.nets.words[self.schedule.source(net.index())]
    }

    /// Toggle counts per net (summed over counted lanes) since the last
    /// counter reset, indexed by net; a net whose cell the schedule dropped
    /// has its source's counts.
    #[must_use]
    pub fn net_toggle_counts(&self) -> Cow<'_, [u64]> {
        if self.schedule.forwarded.is_empty() {
            return Cow::Borrowed(&self.nets.toggles);
        }
        let mut counts = self.nets.toggles.clone();
        for &(dropped, source) in &self.schedule.forwarded {
            counts[dropped as usize] = counts[source as usize];
        }
        Cow::Owned(counts)
    }

    /// Snapshot of the accumulated activity and energy.
    ///
    /// `cycles` in the returned report is the number of measured
    /// *lane-cycles*, so per-cycle clock/leakage totals line up with a
    /// scalar run of the same total cycle count.
    #[must_use]
    pub fn report(&self) -> ActivityReport {
        self.tables
            .report_from_counts(&self.net_toggle_counts(), self.lane_cycles)
    }

    /// Resets activity counters (but keeps the current logic state), so a
    /// warm-up phase can be excluded from measurements.
    pub fn reset_counters(&mut self) {
        self.lane_cycles = 0;
        self.nets.toggles.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::CellKind;
    use crate::library::CellLibrary;
    use crate::netlist::Netlist;
    use crate::sim::Simulator;

    /// The schedule and default-library energy tables of `n`.
    fn compile(n: &Netlist) -> (EvalSchedule, EnergyTables) {
        let schedule = EvalSchedule::compile(n).unwrap();
        (schedule, EnergyTables::new(n, &CellLibrary::default()))
    }

    fn xor_netlist() -> Netlist {
        let mut n = Netlist::new("xor");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let y = n.add_net("y");
        n.add_cell("u_xor", CellKind::Xor2, &[a, b], y).unwrap();
        n.mark_output(y).unwrap();
        n
    }

    #[test]
    fn packed_xor_matches_scalar_lanes() {
        let n = xor_netlist();
        let lib = CellLibrary::default();
        let (schedule, tables) = compile(&n);
        let mut packed = PackedSimulator::new(&schedule, &tables);
        let vectors: Vec<[u64; 2]> = vec![[0b1010_1010, 0b0110_0110], [0b0011_1100, 0b1111_0000]];
        for v in &vectors {
            packed.step(v);
        }

        let mut summed = vec![0_u64; n.net_count()];
        let mut scalar_cycles = 0_u64;
        for lane in 0..LANES {
            let mut scalar = Simulator::new(&n, &lib).unwrap();
            for v in &vectors {
                let bits: Vec<bool> = v.iter().map(|word| (word >> lane) & 1 == 1).collect();
                scalar.step(&bits);
            }
            for (acc, &c) in summed.iter_mut().zip(scalar.net_toggle_counts()) {
                *acc += c;
            }
            scalar_cycles += scalar.report().cycles;
        }

        assert_eq!(packed.net_toggle_counts(), &summed[..]);
        assert_eq!(packed.lane_cycles(), scalar_cycles);
        // Identical counts ⇒ bit-identical energies through the shared tables.
        let oracle = packed.tables.report_from_counts(&summed, scalar_cycles);
        assert_eq!(packed.report(), oracle);
    }

    #[test]
    fn dff_state_is_per_lane() {
        let mut n = Netlist::new("pipe");
        let d = n.add_input("d");
        let q = n.add_net("q");
        n.add_cell("u_ff", CellKind::Dff, &[d], q).unwrap();
        n.mark_output(q).unwrap();
        let (schedule, tables) = compile(&n);
        let mut sim = PackedSimulator::new(&schedule, &tables);
        sim.step(&[0b0101]);
        // Q still shows the reset value during the first cycle.
        assert_eq!(sim.net_word(q), 0);
        sim.step(&[0b0000]);
        // Now Q shows the per-lane values captured at the end of cycle 1.
        assert_eq!(sim.net_word(q), 0b0101);
        sim.step(&[0b0000]);
        assert_eq!(sim.net_word(q), 0);
    }

    #[test]
    fn tri_state_holds_per_lane() {
        let mut n = Netlist::new("bus");
        let a = n.add_input("a");
        let en = n.add_input("en");
        let y = n.add_net("y");
        n.add_cell("u_tri", CellKind::TriBuf, &[a, en], y).unwrap();
        n.mark_output(y).unwrap();
        let (schedule, tables) = compile(&n);
        let mut sim = PackedSimulator::new(&schedule, &tables);
        // Lane 0: enabled with a=1. Lane 1: enabled with a=0.
        sim.step(&[0b01, 0b11]);
        assert_eq!(sim.net_word(y), 0b01);
        // Both lanes disabled with a flipped: outputs hold.
        sim.step(&[0b10, 0b00]);
        assert_eq!(sim.net_word(y), 0b01);
    }

    #[test]
    fn masked_lanes_evolve_but_do_not_count() {
        let n = xor_netlist();
        let (schedule, tables) = compile(&n);
        let mut sim = PackedSimulator::new(&schedule, &tables);
        // Count only lane 0; lane 1 toggles a and y but must not be counted.
        sim.step_masked(&[0b10, 0b00], 0b01);
        assert_eq!(sim.lane_cycles(), 1);
        let toggles: u64 = sim.net_toggle_counts().iter().sum();
        assert_eq!(toggles, 0, "lane 1 activity leaked into the counts");
        // Lane 1's state did evolve: its output is high.
        assert_eq!(sim.net_word(n.primary_outputs()[0]), 0b10);
        // A fully counted step that returns lane 1 to 0 counts those toggles.
        sim.step(&[0b00, 0b00]);
        assert_eq!(sim.lane_cycles(), 1 + u64::from(LANES));
        let toggles: u64 = sim.net_toggle_counts().iter().sum();
        assert_eq!(toggles, 2, "a and y fall in lane 1");
    }

    #[test]
    fn reset_counters_keeps_state() {
        let n = xor_netlist();
        let (schedule, tables) = compile(&n);
        let mut sim = PackedSimulator::new(&schedule, &tables);
        sim.step(&[!0_u64, 0]);
        sim.reset_counters();
        assert_eq!(sim.lane_cycles(), 0);
        assert_eq!(sim.report().toggles, 0);
        // State preserved: same vector again causes no toggles.
        sim.step(&[!0_u64, 0]);
        assert_eq!(sim.report().toggles, 0);
    }
}
