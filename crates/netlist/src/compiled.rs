//! Switch circuits compiled for characterization, and the process-wide memo
//! that compiles each one once.
//!
//! Characterizing a switch reads three things from its generated circuit:
//! the [`EvalSchedule`] the packed engine sweeps, the [`EnergyTables`] that
//! price its toggles under one [`CellLibrary`], and the primary-input
//! positions the stimulus writes.  A [`CompiledSwitch`] holds exactly those.
//! The generated [`Netlist`](crate::netlist::Netlist), with its named nets
//! and cells, is dropped once it is compiled: keeping the netlists of the
//! ten Table 1 circuits of a 32-bit bus as well costs about 1.5 MB of peak
//! memory, against about 0.3 MB for the compiled switches.
//!
//! None of a compiled switch depends on the stimulus seed, so
//! [`compiled_switch`] keeps one per circuit and library for the life of
//! the process.  An entry is keyed by class, bus width, address bits and
//! library.  Only the Batcher sorting switch reads its address bits (raised
//! to at least 1, as [`switch_circuit`] does); every other class ignores
//! them, so its entry is shared across fabric sizes.  [`CellLibrary`] is
//! not `Hash`, so each entry keeps its library and is found by equality.

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
    /// Primary-input positions of the payload buses, port-major, bits
    /// low-to-high: port `p`'s bus is `data[p * bus_width..][..bus_width]`.
    pub(crate) data: Vec<usize>,
}

impl CompiledSwitch {
    /// Compiles `circuit`'s schedule and its energy tables under `library`,
    /// and resolves its interface nets to primary-input positions.
    ///
    /// # Errors
    ///
    /// Propagates any [`NetlistError`] from [`EvalSchedule::compile`].
    pub(crate) fn compile(
        circuit: &SwitchCircuit,
        library: &CellLibrary,
    ) -> Result<Self, NetlistError> {
        let position = |net: &NetId| {
            circuit
                .netlist
                .primary_input_position(*net)
                .expect("switch circuit interface net must be a primary input")
        };
        Ok(Self {
            class: circuit.class,
            ports: circuit.ports,
            bus_width: circuit.bus_width,
            schedule: EvalSchedule::compile(&circuit.netlist)?,
            tables: EnergyTables::new(&circuit.netlist, library),
            presence: circuit.presence_inputs.iter().map(position).collect(),
            control: circuit.control_inputs.iter().map(position).collect(),
            data: circuit.data_inputs.iter().flatten().map(position).collect(),
        })
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
