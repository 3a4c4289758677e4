//! Switch circuits compiled for characterization, and the process-wide memo
//! that compiles each one once.
//!
//! Characterizing a switch reads three things from its generated circuit:
//! the [`EvalSchedule`] the packed engine sweeps, the [`EnergyTables`] that
//! price its toggles under one [`CellLibrary`], and the primary-input
//! positions the stimulus writes.  A [`CompiledSwitch`] holds exactly those,
//! with the payload positions as runs of consecutive positions (a generated
//! switch's whole payload is one run; a caller-built circuit may have any
//! number).
//! The generated [`Netlist`](crate::netlist::Netlist), with its nets and
//! cells, is dropped once it is compiled: keeping the netlists of the
//! ten Table 1 circuits of a 32-bit bus as well costs about 1.5 MB of peak
//! memory, against about 0.17 MB of heap for the compiled switches.
//!
//! The schedule is compiled against the routing controls a characterization
//! holds for its whole run (`held_controls`: the crosspoint's configuration
//! bit at 1, every MUX select line at 0, none for the Banyan and Batcher
//! switches), through `EvalSchedule::compile_held`.  Every cell that only
//! forwards an input while those controls hold is dropped: on a 32-bit bus
//! all 992 `Mux2` cells of the 32-input MUX go, the crosspoint keeps its
//! enable gate and 32 pass gates but loses its 32 input buffers (65 cells to
//! 33), and the Banyan and Batcher schedules keep every cell.  The
//! characterization writes the held values from the schedule's own list,
//! so the compile and the stimulus cannot disagree.
//!
//! None of a compiled switch depends on the stimulus seed, so
//! [`compiled_switch`] keeps one per circuit and library for the life of
//! the process.  An entry is keyed by class, bus width, address bits and
//! library.  Only the Batcher sorting switch reads its address bits (raised
//! to at least 1, as [`switch_circuit`] does); every other class ignores
//! them, so its entry is shared across fabric sizes.  [`CellLibrary`] is
//! not `Hash`, so each entry keeps its library and is found by equality.

use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::circuits::{switch_circuit, SwitchCircuit, SwitchClass};
use crate::library::CellLibrary;
use crate::netlist::{NetId, NetlistError};
use crate::schedule::EvalSchedule;
use crate::sim::EnergyTables;

/// A switch circuit compiled for one cell library: its evaluation
/// schedule, its energy tables and the primary-input positions of its
/// interface nets.
#[derive(Debug)]
pub struct CompiledSwitch {
    /// Which switch this is.
    pub(crate) class: SwitchClass,
    /// Number of input ports.
    pub(crate) ports: usize,
    /// Payload bus width in bits.
    pub(crate) bus_width: usize,
    /// The level-ordered schedule the packed engine sweeps.
    pub(crate) schedule: EvalSchedule,
    /// Per-net energies under the library the switch was compiled for.
    pub(crate) tables: EnergyTables,
    /// Primary-input position of each port's presence flag.
    pub(crate) presence: Vec<usize>,
    /// Primary-input positions of the routing-control nets.
    pub(crate) control: Vec<usize>,
    /// The payload buses' primary-input positions as `(first position,
    /// length)` runs of consecutive positions, in payload-entry order (see
    /// [`CompiledSwitch::payload_runs`]).
    payload: Vec<(usize, usize)>,
}

impl CompiledSwitch {
    /// Compiles `circuit`'s schedule against the routing controls its class
    /// holds ([`held_controls`]) and its energy tables under `library`, and
    /// resolves its interface nets to primary-input positions.
    ///
    /// # Errors
    ///
    /// Propagates any [`NetlistError`] from [`EvalSchedule::compile_held`].
    ///
    /// # Panics
    ///
    /// Panics unless the circuit has one payload bus of `bus_width` inputs
    /// per port: the stimulus addresses port `p`'s bus as payload entries
    /// `p * bus_width..(p + 1) * bus_width`.
    pub(crate) fn compile(
        circuit: &SwitchCircuit,
        library: &CellLibrary,
    ) -> Result<Self, NetlistError> {
        assert!(
            circuit.data_inputs.len() == circuit.ports
                && circuit
                    .data_inputs
                    .iter()
                    .all(|bus| bus.len() == circuit.bus_width),
            "a switch circuit needs one payload bus of {} inputs per port, {} ports",
            circuit.bus_width,
            circuit.ports
        );
        let position = |net: &NetId| {
            circuit
                .netlist
                .primary_input_position(*net)
                .expect("switch circuit interface net must be a primary input")
        };
        let control: Vec<usize> = circuit.control_inputs.iter().map(position).collect();
        let schedule =
            EvalSchedule::compile_held(&circuit.netlist, &held_controls(circuit.class, &control))?;
        Ok(Self {
            class: circuit.class,
            ports: circuit.ports,
            bus_width: circuit.bus_width,
            schedule,
            tables: EnergyTables::new(&circuit.netlist, library),
            presence: circuit.presence_inputs.iter().map(position).collect(),
            control,
            payload: runs(circuit.data_inputs.iter().flatten().map(position)),
        })
    }

    /// Calls `run(first position, length)` for each run of consecutive
    /// primary-input positions that covers the payload entries `entries`,
    /// in entry order.  The payload entries are port-major, bits
    /// low-to-high: port `p`'s bus is entries `p * bus_width..(p + 1) *
    /// bus_width`.
    pub(crate) fn payload_runs(&self, entries: Range<usize>, mut run: impl FnMut(usize, usize)) {
        let mut start = 0;
        for &(first, len) in &self.payload {
            let end = start + len;
            let (from, to) = (start.max(entries.start), end.min(entries.end));
            if from < to {
                run(first + (from - start), to - from);
            }
            if end >= entries.end {
                return;
            }
            start = end;
        }
    }
}

/// The maximal runs of consecutive values in `positions`, as `(first,
/// length)`, in order.
fn runs(positions: impl IntoIterator<Item = usize>) -> Vec<(usize, usize)> {
    let mut runs: Vec<(usize, usize)> = Vec::new();
    for position in positions {
        match runs.last_mut() {
            Some((first, len)) if *first + *len == position => *len += 1,
            _ => runs.push((position, 1)),
        }
    }
    runs.shrink_to_fit();
    runs
}

/// The routing controls a characterization holds for its whole run, as
/// `(primary-input position, value)`, given the positions of `class`'s
/// control inputs: the crosspoint's configuration bit is asserted, and every
/// MUX select line is 0, so input 0 is selected (a real fabric changes the
/// selects at packet rate; holding them isolates the datapath cost, which
/// the paper observes is nearly vector-independent).  The Banyan and Batcher
/// switches draw their controls per cycle and hold none.  Presence flags
/// follow the occupancy, so they are never held.
fn held_controls(class: SwitchClass, control: &[usize]) -> Vec<(usize, bool)> {
    match class {
        SwitchClass::CrossbarCrosspoint => vec![(control[0], true)],
        SwitchClass::Mux { .. } => control.iter().map(|&pos| (pos, false)).collect(),
        SwitchClass::BanyanBinary | SwitchClass::BatcherSorting => Vec::new(),
    }
}

/// One memo entry: the key a lookup compares, and the shared switch.
struct Entry {
    class: SwitchClass,
    bus_width: usize,
    /// Batcher: the address bits, raised to at least 1.  Others: 0.
    address_bits: usize,
    library: CellLibrary,
    compiled: Arc<CompiledSwitch>,
}

/// The process-wide memo, in insertion order.  It holds a few entries (ten
/// for the paper's Table 1 sizes), so a linear scan finds one.
static MEMO: Mutex<Vec<Entry>> = Mutex::new(Vec::new());

/// Locks the memo.  Entries are pushed whole, so a panic elsewhere while
/// it was held cannot leave one half-written.
fn memo() -> MutexGuard<'static, Vec<Entry>> {
    MEMO.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The standard circuit of `class`, compiled for `library`: built and
/// compiled on the first request for its key, shared after that.
///
/// `address_bits` only matters for the Batcher sorting switch (see
/// [`switch_circuit`]).  The lock is held only to look up and to insert:
/// two threads that race on a cold key may both compile it, and both get
/// the entry inserted first.
///
/// # Errors
///
/// Propagates [`NetlistError`] from circuit generation or compilation.
pub fn compiled_switch(
    class: SwitchClass,
    bus_width: usize,
    address_bits: usize,
    library: &CellLibrary,
) -> Result<Arc<CompiledSwitch>, NetlistError> {
    let address_bits = match class {
        SwitchClass::BatcherSorting => address_bits.max(1),
        _ => 0,
    };
    let find = |entries: &[Entry]| {
        entries
            .iter()
            .find(|entry| {
                entry.class == class
                    && entry.bus_width == bus_width
                    && entry.address_bits == address_bits
                    && entry.library == *library
            })
            .map(|entry| Arc::clone(&entry.compiled))
    };
    if let Some(hit) = find(&memo()) {
        return Ok(hit);
    }
    // The generated circuit is a temporary: its netlist is dropped as soon
    // as it is compiled.
    let compiled = Arc::new(CompiledSwitch::compile(
        &switch_circuit(class, bus_width, address_bits)?,
        library,
    )?);
    let mut entries = memo();
    if let Some(raced) = find(&entries) {
        return Ok(raced);
    }
    entries.push(Entry {
        class,
        bus_width,
        address_bits,
        library: library.clone(),
        compiled: Arc::clone(&compiled),
    });
    Ok(compiled)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ten circuits `table1-mc` characterizes on a 32-bit bus, with the
    /// address bits each is requested at.
    const TABLE1_MC_CIRCUITS: [(SwitchClass, usize); 10] = [
        (SwitchClass::CrossbarCrosspoint, 5),
        (SwitchClass::BanyanBinary, 5),
        (SwitchClass::BatcherSorting, 2),
        (SwitchClass::BatcherSorting, 3),
        (SwitchClass::BatcherSorting, 4),
        (SwitchClass::BatcherSorting, 5),
        (SwitchClass::Mux { inputs: 4 }, 2),
        (SwitchClass::Mux { inputs: 8 }, 3),
        (SwitchClass::Mux { inputs: 16 }, 4),
        (SwitchClass::Mux { inputs: 32 }, 5),
    ];

    #[test]
    fn memo_entries_hold_no_spare_capacity() {
        let library = CellLibrary::calibrated_018um();
        for (class, address_bits) in TABLE1_MC_CIRCUITS {
            let switch = compiled_switch(class, 32, address_bits, &library).unwrap();
            // A generated switch's payload positions are one run.
            assert_eq!(
                switch.payload,
                vec![(switch.payload[0].0, switch.ports * 32)]
            );
            let own = [
                (
                    "presence",
                    switch.presence.len(),
                    switch.presence.capacity(),
                ),
                ("control", switch.control.len(), switch.control.capacity()),
                ("payload", switch.payload.len(), switch.payload.capacity()),
            ];
            for (name, len, capacity) in switch.schedule.vector_sizes().into_iter().chain(own) {
                assert_eq!(
                    capacity, len,
                    "{class} at {address_bits} address bits: `{name}`"
                );
            }
        }
    }

    #[test]
    fn held_controls_collapse_the_mux_tree_and_the_crosspoint_buffers() {
        // (class, scheduled cells with the controls held, without, settle
        // depth of both).  The crosspoint keeps its enable gate and pass
        // gates (presence is not held), so it still never settles.
        let expected = [
            (SwitchClass::CrossbarCrosspoint, 33, 65, None),
            (SwitchClass::BanyanBinary, 140, 140, Some(3)),
            (SwitchClass::BatcherSorting, 167, 167, Some(3)),
            (SwitchClass::Mux { inputs: 4 }, 0, 96, Some(2)),
            (SwitchClass::Mux { inputs: 32 }, 0, 992, Some(2)),
        ];
        for (class, held, plain, settle) in expected {
            let circuit = switch_circuit(class, 32, 5).unwrap();
            let compiled = CompiledSwitch::compile(&circuit, &CellLibrary::default()).unwrap();
            let full = EvalSchedule::compile(&circuit.netlist).unwrap();
            assert_eq!(compiled.schedule.cells.len(), held, "{class}");
            assert_eq!(full.cells.len(), plain, "{class}");
            assert_eq!(compiled.schedule.settle_cycles(), settle, "{class}");
            assert_eq!(full.settle_cycles(), settle, "{class}");
        }
    }
}
