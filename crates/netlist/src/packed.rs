//! Bit-parallel (bit-sliced) gate-level simulation: 64 lanes per `u64`.
//!
//! [`PackedSimulator`] evaluates 64 *independent* simulations of the same
//! netlist at once by packing one lane per bit of a `u64` word per net.
//! Every [`CellKind`](crate::cells::CellKind) evaluates as word-wide boolean
//! operations, pass-gate and flip-flop state are held as per-lane words, and
//! toggle activity is accumulated per net with `(prev ^ new).count_ones()`.
//!
//! The simulator runs from a compiled [`EvalSchedule`] alone: it borrows the
//! schedule and the netlist's [`EnergyTables`] and never reads the
//! [`Netlist`](crate::netlist::Netlist) they came from, so one compiled pair
//! can serve any number of simulators (characterization shares them across
//! every stimulus seed through [`crate::compiled`]).  Each step evaluates
//! every scheduled cell once, in level order (see
//! [`PackedSimulator::step`]).
//!
//! # Inputs
//!
//! Primary inputs persist from step to step: each one is its net's word,
//! all-zero until first written.  A step takes a drive closure that writes
//! only the inputs that change, through [`PackedInputs::set`] or, for
//! consecutive positions, `PackedInputs::set_run`, straight into the net
//! words.  An input the closure leaves alone keeps its word and costs
//! nothing.
//!
//! # State layout
//!
//! Each net has one slot holding its lane word and its toggle count, so a
//! write touches one cache line.  A schedule compiled against held inputs
//! (`EvalSchedule::compile_held`) has no cell for a net it dropped; its
//! dense source table maps that net to the slot of the net it forwards,
//! whose word and toggle counts are the dropped net's own.
//!
//! Energy accounting goes through the same [`EnergyTables`] as the tests'
//! scalar oracle: integer per-net toggle counts are converted to energies
//! in one deterministic pass, so a packed run and the sum of the equivalent
//! per-lane scalar runs produce **bit-identical** energy numbers.
//!
//! Lanes are numbered from bit 0: lane `L` of net `n` is
//! `(word(n) >> L) & 1`. A *lane-cycle* is one lane advancing one clock
//! cycle; a step with the full count mask contributes `LANES`
//! lane-cycles. Per-cycle clock and leakage energy are charged per
//! lane-cycle, which keeps totals comparable with a scalar run of the same
//! number of (scalar) cycles.

use crate::netlist::NetId;
use crate::schedule::{EvalSchedule, ScheduledCell};
use crate::sim::{ActivityReport, EnergyTables};

/// Lanes every [`PackedSimulator`] step advances: one per bit of a `u64`.
pub(crate) const LANES: u32 = 64;

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
/// let mut n = Netlist::new();
/// let a = n.add_input();
/// let y = n.add_net();
/// n.add_cell(CellKind::Inv, &[a], y)?;
/// n.mark_output(y)?;
///
/// let schedule = EvalSchedule::compile(&n)?;
/// let tables = EnergyTables::new(&n, &CellLibrary::calibrated_018um());
/// let mut sim = PackedSimulator::new(&schedule, &tables);
/// // Lane 0 drives a=1, every other lane drives a=0; every lane counts.
/// sim.step(!0, |inputs| inputs.set(0, 0b01));
/// assert_eq!(sim.net_word(y), !0b01_u64);
/// // Inputs persist: a step that writes none keeps `a`, so `y` holds.
/// sim.step(!0, |_| {});
/// assert_eq!(sim.net_word(y), !0b01_u64);
/// // `a` rose in lane 0 and `y` in the other 63 lanes, both on the first step.
/// assert_eq!(sim.report().toggles, 1 + 63);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PackedSimulator<'a> {
    schedule: &'a EvalSchedule,
    /// Per-net energy tables shared with the scalar engine.
    tables: &'a EnergyTables,
    /// Lane word and toggle count of every net, by net index.
    slots: Vec<Slot>,
    /// Stored per-lane state of sequential cells, by schedule state slot.
    state: Vec<u64>,
    /// Measured lane-cycles since the last counter reset.
    lane_cycles: u64,
}

/// One net's state: its lane word and the toggles observed on it (summed
/// over counted lanes) since the last counter reset.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    word: u64,
    toggles: u64,
}

/// Writes `word` to `net`'s slot and credits the toggles of the counted
/// lanes.
#[inline(always)]
fn write(slots: &mut [Slot], count_mask: u64, net: u32, word: u64) {
    let slot = &mut slots[net as usize];
    slot.toggles += u64::from(((slot.word ^ word) & count_mask).count_ones());
    slot.word = word;
}

/// Evaluates one scheduled cell word-wide and writes its output.
#[inline(always)]
fn evaluate(slots: &mut [Slot], count_mask: u64, cell: ScheduledCell) {
    let arity = usize::from(cell.arity);
    let mut words = [0_u64; 3];
    for (word, &net) in words.iter_mut().zip(&cell.inputs[..arity]) {
        *word = slots[net as usize].word;
    }
    let previous = slots[cell.output as usize].word;
    let value = cell.kind.evaluate_word(&words[..arity], previous);
    write(slots, count_mask, cell.output, value);
}

/// The primary inputs of one [`PackedSimulator::step`], as its drive
/// closure writes them.
///
/// Every input keeps its word from the previous step (all-zero before its
/// first write), so a drive writes only the inputs that change.  Bit `L` of
/// a word is the input's value in lane `L`; positions follow the compiled
/// netlist's
/// [`primary_inputs`](crate::netlist::Netlist::primary_inputs).  Write each
/// input at most once per step: a second write counts the toggles of both.
#[derive(Debug)]
pub struct PackedInputs<'s> {
    slots: &'s mut [Slot],
    /// The net of each primary-input position.
    input_nets: &'s [u32],
    count_mask: u64,
}

impl PackedInputs<'_> {
    /// Sets the primary input at `position` to `word`.
    ///
    /// # Panics
    ///
    /// Panics if `position` is not a primary-input position.
    #[inline]
    pub fn set(&mut self, position: usize, word: u64) {
        write(self.slots, self.count_mask, self.input_nets[position], word);
    }

    /// Sets the primary inputs at positions `first`, `first + 1`, … to
    /// `words`, in order.
    ///
    /// # Panics
    ///
    /// Panics if the run extends past the last primary input.
    #[inline]
    pub(crate) fn set_run<I>(&mut self, first: usize, words: I)
    where
        I: IntoIterator<Item = u64>,
        I::IntoIter: ExactSizeIterator,
    {
        let words = words.into_iter();
        let nets = &self.input_nets[first..first + words.len()];
        for (&net, word) in nets.iter().zip(words) {
            write(self.slots, self.count_mask, net, word);
        }
    }
}

impl<'a> PackedSimulator<'a> {
    /// Creates a packed simulator over a compiled schedule and the energy
    /// tables of the same netlist.
    ///
    /// All nets and primary inputs start at logic `0` in every lane, all
    /// flip-flops start cleared.  [`PackedSimulator::report`] panics when
    /// `tables` covers a different number of nets than `schedule`.
    #[must_use]
    pub fn new(schedule: &'a EvalSchedule, tables: &'a EnergyTables) -> Self {
        Self {
            schedule,
            tables,
            slots: vec![Slot::default(); schedule.net_count()],
            state: vec![0; schedule.state_slots()],
            lane_cycles: 0,
        }
    }

    /// The compiled netlist's settle depth (see
    /// [`EvalSchedule::settle_cycles`]).
    #[must_use]
    pub fn settle_cycles(&self) -> Option<u64> {
        self.schedule.settle_cycles()
    }

    /// Simulates one clock cycle in every lane after `drive` has written
    /// the primary inputs that change, and counts toggles, lane-cycles,
    /// clock and leakage only for the lanes selected by `count_mask` (`!0`
    /// counts all of them).
    ///
    /// Inputs `drive` does not write keep their words (see
    /// [`PackedInputs`]).  All lanes still *evolve* (state advances)
    /// regardless of the mask; masking only excludes lanes from the
    /// measurement.  This is how a measurement total that is not a multiple
    /// of `LANES` is realised: a final partial step counts only the
    /// remainder lanes.
    ///
    /// Every step evaluates every scheduled cell once, in level order, so
    /// each cell reads inputs already final for this cycle.  A cell whose
    /// inputs did not change re-evaluates to the word it holds and adds no
    /// toggle.
    ///
    /// # Panics
    ///
    /// Panics if `drive` writes a position that is not a primary input, or
    /// if, after `drive`, a held input (see `EvalSchedule::compile_held`)
    /// does not carry its value in every lane: a drive that writes one
    /// with another word, or never writes a held-high one, fails here.
    pub fn step(&mut self, count_mask: u64, drive: impl FnOnce(&mut PackedInputs<'_>)) {
        let schedule = self.schedule;
        self.lane_cycles += u64::from(count_mask.count_ones());
        let slots = &mut self.slots[..];

        // 1. Drive the changed primary inputs and check the held ones.
        drive(&mut PackedInputs {
            slots: &mut *slots,
            input_nets: &schedule.input_nets,
            count_mask,
        });
        for &(position, value) in &schedule.held_inputs {
            let net = schedule.input_nets[position as usize];
            assert_eq!(
                slots[net as usize].word,
                if value { !0 } else { 0 },
                "primary input {position} is held at {value}"
            );
        }

        // 2. Drive the sequential outputs.
        for &(net, slot) in &schedule.seq_drives {
            write(slots, count_mask, net, self.state[slot as usize]);
        }

        // 3. Evaluate combinational logic word-wide, in level order.
        for &cell in &schedule.cells {
            evaluate(slots, count_mask, cell);
        }

        // 4. Capture the next state of sequential cells (D sampled at the
        //    end of the cycle, visible on Q at the start of the next cycle).
        for &(slot, d) in &schedule.seq_captures {
            self.state[slot as usize] = slots[d as usize].word;
        }
    }

    /// Current lane word of an arbitrary net (of its source, for a net
    /// whose cell the schedule dropped).
    #[must_use]
    pub fn net_word(&self, net: NetId) -> u64 {
        self.slots[self.schedule.source[net.index()] as usize].word
    }

    /// Snapshot of the accumulated activity and energy.
    ///
    /// `cycles` in the returned report is the number of measured
    /// *lane-cycles*, so per-cycle clock/leakage totals line up with a
    /// scalar run of the same total cycle count.
    #[must_use]
    pub fn report(&self) -> ActivityReport {
        let counts = self
            .schedule
            .source
            .iter()
            .map(|&source| &self.slots[source as usize].toggles);
        self.tables.report_from_counts(counts, self.lane_cycles)
    }

    /// Resets activity counters (but keeps the current logic state), so a
    /// warm-up phase can be excluded from measurements.
    pub(crate) fn reset_counters(&mut self) {
        self.lane_cycles = 0;
        for slot in &mut self.slots {
            slot.toggles = 0;
        }
    }
}

#[cfg(test)]
impl PackedSimulator<'_> {
    /// Toggle counts per net (summed over counted lanes) since the last
    /// counter reset, indexed by net; a net whose cell the schedule dropped
    /// has its source's counts.
    pub(crate) fn net_toggle_counts(&self) -> Vec<u64> {
        self.schedule
            .source
            .iter()
            .map(|&source| self.slots[source as usize].toggles)
            .collect()
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

    /// One two-input `kind` gate `y = kind(a, b)`; with `b` low, an
    /// `Or2` passes `a`.
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
    fn packed_xor_matches_scalar_lanes() {
        let n = gate_netlist(CellKind::Xnor2);
        let lib = CellLibrary::default();
        let (schedule, tables) = compile(&n);
        let mut packed = PackedSimulator::new(&schedule, &tables);
        let vectors: Vec<[u64; 2]> = vec![[0b1010_1010, 0b0110_0110], [0b0011_1100, 0b1111_0000]];
        for v in &vectors {
            packed.step(!0, |inputs| inputs.set_run(0, v.iter().copied()));
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
        assert_eq!(packed.lane_cycles, scalar_cycles);
        // Identical counts ⇒ bit-identical energies through the shared tables.
        let oracle = packed.tables.report_from_counts(&summed, scalar_cycles);
        assert_eq!(packed.report(), oracle);
    }

    #[test]
    fn dff_state_is_per_lane() {
        let mut n = Netlist::new();
        let d = n.add_input();
        let q = n.add_net();
        n.add_cell(CellKind::Dff, &[d], q).unwrap();
        n.mark_output(q).unwrap();
        let (schedule, tables) = compile(&n);
        let mut sim = PackedSimulator::new(&schedule, &tables);
        sim.step(!0, |inputs| inputs.set(0, 0b0101));
        // Q still shows the reset value during the first cycle.
        assert_eq!(sim.net_word(q), 0);
        sim.step(!0, |inputs| inputs.set(0, 0b0000));
        // Now Q shows the per-lane values captured at the end of cycle 1.
        assert_eq!(sim.net_word(q), 0b0101);
        sim.step(!0, |inputs| inputs.set(0, 0b0000));
        assert_eq!(sim.net_word(q), 0);
    }

    #[test]
    fn tri_state_holds_per_lane() {
        let mut n = Netlist::new();
        let a = n.add_input();
        let en = n.add_input();
        let y = n.add_net();
        n.add_cell(CellKind::PassGate, &[a, en], y).unwrap();
        n.mark_output(y).unwrap();
        let (schedule, tables) = compile(&n);
        let mut sim = PackedSimulator::new(&schedule, &tables);
        // Lane 0: enabled with a=1. Lane 1: enabled with a=0.
        sim.step(!0, |inputs| inputs.set_run(0, [0b01, 0b11]));
        assert_eq!(sim.net_word(y), 0b01);
        // Both lanes disabled with a flipped: outputs hold.
        sim.step(!0, |inputs| inputs.set_run(0, [0b10, 0b00]));
        assert_eq!(sim.net_word(y), 0b01);
    }

    #[test]
    fn masked_lanes_evolve_but_do_not_count() {
        let n = gate_netlist(CellKind::Or2);
        let (schedule, tables) = compile(&n);
        let mut sim = PackedSimulator::new(&schedule, &tables);
        // Count only lane 0; lane 1 toggles a and y but must not be counted.
        sim.step(0b01, |inputs| inputs.set_run(0, [0b10, 0b00]));
        assert_eq!(sim.lane_cycles, 1);
        let toggles: u64 = sim.net_toggle_counts().iter().sum();
        assert_eq!(toggles, 0, "lane 1 activity leaked into the counts");
        // Lane 1's state did evolve: its output is high.
        assert_eq!(sim.net_word(n.primary_outputs()[0]), 0b10);
        // A fully counted step that returns lane 1 to 0 counts those toggles.
        sim.step(!0, |inputs| inputs.set_run(0, [0b00, 0b00]));
        assert_eq!(sim.lane_cycles, 1 + u64::from(LANES));
        let toggles: u64 = sim.net_toggle_counts().iter().sum();
        assert_eq!(toggles, 2, "a and y fall in lane 1");
    }

    #[test]
    fn inputs_keep_their_words_between_steps() {
        let n = gate_netlist(CellKind::Or2);
        let (schedule, tables) = compile(&n);
        let mut sim = PackedSimulator::new(&schedule, &tables);
        let y = n.primary_outputs()[0];
        sim.step(!0, |inputs| inputs.set_run(0, [0b0110, 0b0011]));
        assert_eq!(sim.net_word(y), 0b0111);
        // Rewriting only `b` leaves `a` at 0b0110.
        sim.step(!0, |inputs| inputs.set(1, 0b1111));
        assert_eq!(sim.net_word(y), 0b1111);
        sim.step(!0, |_| {});
        assert_eq!(sim.net_word(y), 0b1111);
        // a: 2 rises; b: 2 rises, then 2 more; y: 3 rises, then 1 more.
        assert_eq!(sim.report().toggles, 2 + 4 + 4);
    }

    /// The OR netlist compiled with input `b` (position 1) held at `value`.
    fn held_b(n: &Netlist, value: bool) -> (EvalSchedule, EnergyTables) {
        let schedule = EvalSchedule::compile_held(n, &[(1, value)]).unwrap();
        (schedule, EnergyTables::new(n, &CellLibrary::default()))
    }

    #[test]
    #[should_panic(expected = "primary input 1 is held at true")]
    fn driving_a_held_input_with_another_word_panics() {
        let n = gate_netlist(CellKind::Or2);
        let (schedule, tables) = held_b(&n, true);
        let mut sim = PackedSimulator::new(&schedule, &tables);
        sim.step(!0, |inputs| inputs.set_run(0, [0b01, !0]));
        sim.step(!0, |inputs| inputs.set(1, !0b10));
    }

    #[test]
    #[should_panic(expected = "primary input 1 is held at true")]
    fn leaving_a_held_high_input_undriven_panics() {
        let n = gate_netlist(CellKind::Or2);
        let (schedule, tables) = held_b(&n, true);
        let mut sim = PackedSimulator::new(&schedule, &tables);
        sim.step(!0, |inputs| inputs.set(0, 0b01));
    }

    #[test]
    fn a_held_low_input_may_stay_undriven() {
        let n = gate_netlist(CellKind::Or2);
        let (schedule, tables) = held_b(&n, false);
        let mut sim = PackedSimulator::new(&schedule, &tables);
        sim.step(!0, |inputs| inputs.set(0, 0b01));
        sim.step(!0, |_| {});
        assert_eq!(sim.net_word(n.primary_outputs()[0]), 0b01);
    }

    #[test]
    fn reset_counters_keeps_state() {
        let n = gate_netlist(CellKind::Or2);
        let (schedule, tables) = compile(&n);
        let mut sim = PackedSimulator::new(&schedule, &tables);
        sim.step(!0, |inputs| inputs.set_run(0, [!0_u64, 0]));
        sim.reset_counters();
        assert_eq!(sim.lane_cycles, 0);
        assert_eq!(sim.report().toggles, 0);
        // State preserved: same vector again causes no toggles.
        sim.step(!0, |inputs| inputs.set_run(0, [!0_u64, 0]));
        assert_eq!(sim.report().toggles, 0);
    }
}
