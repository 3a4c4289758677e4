//! Input-vector power characterization of node-switch circuits.
//!
//! This is the programmatic replacement for the paper's Synopsys Power
//! Compiler flow (§5.1): each generated switch circuit is simulated at the
//! gate level under every packet-occupancy state, with random payload words
//! driven into the active ports, and the average energy per bit slot is
//! recorded into a [`SwitchEnergyLut`].
//!
//! # Bit-parallel measurement
//!
//! Measurements run on the bit-parallel [`PackedSimulator`]: [`LANES`]
//! independent Monte-Carlo streams advance simultaneously, one bit per lane
//! in a `u64` word per net.  The stimulus is drawn *net-major* from one
//! `StimulusRng` stream per measurement, seeded with
//! `seed ^ active_ports`: every bus cycle consumes one `u64` word per driven
//! input net, in a fixed order (routing control first, then each active
//! port's payload bits low-to-high), and bit `L` of every drawn word belongs
//! to lane `L`.  The packed engine writes the draws verbatim; the scalar
//! [`crate::sim::Simulator`] oracle for lane `L` reads bit `L` of the very
//! same draws — that shared-draw decomposition is what makes the packed
//! measurement equal the sum of the per-lane scalar measurements
//! bit-exactly (both engines reduce integer per-net toggle counts through
//! the same [`crate::sim::EnergyTables`]).  The `measure_cycles` budget is
//! split across lanes: each lane measures `measure_cycles / LANES` cycles and
//! the first `measure_cycles % LANES` lanes measure one more in a final
//! partially-masked step, so exactly `measure_cycles` lane-cycles are
//! counted.
//!
//! # Warm-up
//!
//! Only the warm-up cycles that can still reach the measurement are
//! simulated.  A circuit's settle depth
//! ([`crate::schedule::EvalSchedule::settle_cycles`]) bounds how many
//! cycles its nets and flip-flops remember, so of `warmup_cycles` only the
//! last `settle` run; the stimulus stream skips the draws of the others in
//! O(1) (`StimulusRng::advance`).  The state entering the measurement is
//! the one the full warm-up reaches, so every LUT bit is the same.  Circuits
//! with hold cells (the crosspoint's pass gates) have no settle depth and
//! simulate every warm-up cycle.
//!
//! # Compiled switches
//!
//! A measurement reads only a [`CompiledSwitch`]: the circuit's evaluation
//! schedule, its energy tables and the primary-input positions the
//! stimulus writes.  [`characterize_class`] takes it from the process-wide
//! memo ([`compiled_switch`]), so each circuit is generated and compiled
//! once per process, however many seeds it is characterized at.
//! [`characterize_switch`] compiles the circuit it is given.  Both run the
//! same occupancy sweep, so they agree bit for bit.

use serde::{Deserialize, Serialize};

use crate::circuits::{SwitchCircuit, SwitchClass};
use crate::compiled::{compiled_switch, CompiledSwitch};
use crate::library::CellLibrary;
use crate::lut::{LutSource, SwitchEnergyLut};
use crate::netlist::NetlistError;
use crate::packed::{PackedSimulator, LANES};
use crate::sim::ActivityReport;

/// Parameters of a characterization run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CharacterizationConfig {
    /// Cycles of stimulus applied (and discarded) before measurement
    /// starts, so the result is not skewed by the all-zero reset state.
    /// Every lane warms up for this many cycles.  Only the last cycles
    /// that can still reach the measurement (the circuit's settle depth)
    /// are simulated; the result is the same as simulating them all.
    pub warmup_cycles: u64,
    /// Total measured lane-cycles over which energy is averaged (split
    /// across the [`LANES`] lanes).
    pub measure_cycles: u64,
    /// Seed of the payload random number generator (reproducible runs).
    pub seed: u64,
}

impl Default for CharacterizationConfig {
    fn default() -> Self {
        Self {
            warmup_cycles: 16,
            measure_cycles: 512,
            seed: 0xDAC_2002,
        }
    }
}

impl CharacterizationConfig {
    /// A faster, coarser configuration for unit tests and examples.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            warmup_cycles: 4,
            measure_cycles: 64,
            seed: 0xDAC_2002,
        }
    }
}

/// The SplitMix64 finalizer: a 64-bit mixing bijection.
#[inline]
fn splitmix_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The payload stimulus generator: SplitMix64, one shared net-major stream
/// per measurement.
///
/// Characterization needs reproducible, statistically well-distributed
/// Monte-Carlo payload words at gate-evaluation speed — nothing adversarial
/// ever sees these streams, so a cryptographic generator would spend more
/// time keying blocks than the simulator spends evaluating the cells it
/// feeds.  SplitMix64 passes BigCrush, costs a handful of ALU ops per word,
/// and its outputs are equidistributed bit-position by bit-position, which
/// is what the net-major protocol leans on: each drawn word feeds one input
/// net across all 64 lanes at once, so lane `L`'s per-net bit stream is bit
/// `L` of the shared draw sequence.  The seed is run through the finalizer
/// once at construction so the structured seeds produced by
/// `seed ^ active_ports` start from well-separated stream positions.
#[derive(Debug, Clone)]
struct StimulusRng(u64);

impl StimulusRng {
    /// Golden-ratio increment of the SplitMix64 state sequence.
    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    fn seed_from_u64(seed: u64) -> Self {
        Self(splitmix_finalize(seed))
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(Self::GAMMA);
        splitmix_finalize(self.0)
    }

    /// Skips `draws` outputs in O(1): the state only ever adds `GAMMA`.
    fn advance(&mut self, draws: u64) {
        self.0 = self.0.wrapping_add(draws.wrapping_mul(Self::GAMMA));
    }
}

/// Characterizes one already-built switch circuit into a [`SwitchEnergyLut`].
///
/// For each active-port count `k` the first `k` ports are driven with fresh
/// random payload words every cycle (the routing control is set up so that
/// the packets do not collide inside the switch); the remaining ports are held
/// idle.  The LUT entry is the measured energy divided by
/// `measure_cycles × bus_width`, i.e. the energy per bit slot.
///
/// The circuit is compiled for this call alone; [`characterize_class`]
/// runs the same occupancy sweep on a compiled switch shared across calls.
///
/// # Errors
///
/// Propagates [`NetlistError`] if the generated circuit fails validation.
pub fn characterize_switch(
    circuit: &SwitchCircuit,
    library: &CellLibrary,
    config: &CharacterizationConfig,
) -> Result<SwitchEnergyLut, NetlistError> {
    Ok(sweep_occupancies(
        &CompiledSwitch::compile(circuit, library)?,
        config,
    ))
}

/// Characterizes the standard circuit for a [`SwitchClass`].
///
/// `bus_width` is the payload bus width; `address_bits` is only used by the
/// Batcher sorting switch, which compares that many destination-address
/// bits.  Every caller in this workspace passes `log2(N)` of the fabric it
/// models, so 5 for the paper's 32×32 fabrics (`FabricEnergyModel::derived`,
/// the `conform` ledger's Table 1 and `fabric-power netlist-stats`).  A
/// reading that the paper compares 6-bit addresses at 32×32 is unconfirmed:
/// no text in this repository supports it.
///
/// The circuit is generated and compiled once per process for each class,
/// bus width, address bits and library ([`compiled_switch`]); the result
/// equals [`characterize_switch`] on a freshly generated circuit bit for
/// bit.
///
/// # Errors
///
/// Propagates [`NetlistError`] from circuit generation or validation.
pub fn characterize_class(
    class: SwitchClass,
    bus_width: usize,
    address_bits: usize,
    library: &CellLibrary,
    config: &CharacterizationConfig,
) -> Result<SwitchEnergyLut, NetlistError> {
    let switch = compiled_switch(class, bus_width, address_bits, library)?;
    Ok(sweep_occupancies(&switch, config))
}

/// The occupancy sweep both entry points run: one simulator serves every
/// occupancy measurement, in ascending order.
fn sweep_occupancies(switch: &CompiledSwitch, config: &CharacterizationConfig) -> SwitchEnergyLut {
    let mut sim = PackedSimulator::new(&switch.schedule, &switch.tables);
    let bit_slots = config.measure_cycles as f64 * switch.bus_width as f64;
    let by_active_count = (0..=switch.ports)
        .map(|active| measure(switch, &mut sim, config, active).total_energy() / bit_slots)
        .collect();
    SwitchEnergyLut::from_active_counts(
        switch.class,
        switch.ports,
        by_active_count,
        LutSource::Characterized,
    )
}

/// One occupancy measurement on the bit-parallel [`PackedSimulator`].
///
/// The net-major draws are written verbatim as the engine's 64-lane net
/// words; lane `L` thereby consumes exactly the vector stream a scalar run
/// reading bit `L` of the same draws would, so summing per-lane scalar
/// toggle counts reproduces this measurement bit-exactly.  Each lane warms
/// up for `warmup_cycles`; the measured budget is `measure_cycles / LANES`
/// full-mask steps plus, when it does not divide evenly, one final step
/// counting only the first `measure_cycles % LANES` lanes — masked lanes
/// still evolve, they are just not measured.
///
/// Of the warm-up only the last [`PackedSimulator::settle_cycles`] cycles
/// are simulated, after the stream has skipped the draws of the earlier
/// ones: the state they lead to is the one the full warm-up reaches.
///
/// Measurements warm-start: each call continues from whatever state the
/// simulator reached before (the characterization protocol sweeps
/// occupancies in ascending order on one simulator).  The warm-up cycles
/// wash in the new static configuration before counters are reset, and the
/// per-lane oracle equivalence holds against scalar runs carried through
/// the same occupancy sequence.  Warm-starting keeps the engine in its
/// steady-state sweep instead of paying a full schedule pass per
/// occupancy.
fn measure(
    switch: &CompiledSwitch,
    sim: &mut PackedSimulator<'_>,
    config: &CharacterizationConfig,
    active_ports: usize,
) -> ActivityReport {
    let mut rng = StimulusRng::seed_from_u64(config.seed ^ active_ports as u64);
    let layout = StimulusLayout::new(switch, active_ports);

    let mut words = vec![0_u64; switch.schedule.input_count];
    write_static_inputs(switch, active_ports, &mut |pos, value| {
        words[pos] = if value { !0 } else { 0 };
    });

    let simulated = sim.settle_cycles().map_or(config.warmup_cycles, |settle| {
        settle.min(config.warmup_cycles)
    });
    rng.advance((config.warmup_cycles - simulated).wrapping_mul(layout.draws_per_cycle()));
    for _ in 0..simulated {
        layout.drive(&mut rng, &mut |pos, word| words[pos] = word);
        sim.step(&words);
    }
    sim.reset_counters();
    let full_steps = config.measure_cycles / u64::from(LANES);
    let remainder_lanes = config.measure_cycles % u64::from(LANES);
    for _ in 0..full_steps {
        layout.drive(&mut rng, &mut |pos, word| words[pos] = word);
        sim.step(&words);
    }
    if remainder_lanes > 0 {
        layout.drive(&mut rng, &mut |pos, word| words[pos] = word);
        sim.step_masked(&words, (1_u64 << remainder_lanes) - 1);
    }
    sim.report()
}

/// Writes the inputs that stay constant for a whole measurement through
/// `set(primary-input position, value)`:
///
/// * presence flags for the first `active_ports` ports;
/// * crosspoint: the configuration bit is asserted;
/// * MUX: input 0 is selected (the select lines change at packet rate in a
///   real fabric; keeping them stable isolates the datapath cost, which the
///   paper observes is nearly vector-independent).
fn write_static_inputs(
    switch: &CompiledSwitch,
    active_ports: usize,
    set: &mut impl FnMut(usize, bool),
) {
    for (port, &pos) in switch.presence.iter().enumerate() {
        set(pos, port < active_ports);
    }
    match switch.class {
        SwitchClass::CrossbarCrosspoint => set(switch.control[0], true),
        SwitchClass::Mux { .. } => {
            for &pos in &switch.control {
                set(pos, false);
            }
        }
        SwitchClass::BanyanBinary | SwitchClass::BatcherSorting => {}
    }
}

/// The per-measurement stimulus layout: the compiled switch's primary-input
/// positions of the per-cycle nets, plus the class and occupancy that fix
/// the net-major draw order.
///
/// One cycle of stimulus ([`StimulusLayout::drive`]) consumes the shared
/// [`StimulusRng`] in a fixed net-major order — routing control first, then
/// `bus_width` payload words per active port, bit positions low-to-high.
/// Every drawn `u64` feeds one input net across all 64 lanes (bit `L` is
/// lane `L`'s value); idle ports' nets are held at zero and consume no
/// draws.
///
/// * binary switch: one draw — per lane, straight (0→0, 1→1) or crossed
///   (0→1, 1→0) configuration, never conflicting, a fresh header per packet;
/// * sorting switch: `address_bits` draws per active input port — a fresh
///   random destination address per lane and cycle (the compare-exchange
///   logic is exercised exactly once per packet).
///
/// The packed simulator writes the words verbatim, the per-lane scalar
/// oracle extracts its lane's bit.  Identical RNG states thus yield
/// identical vector streams — and identical toggle counts — across the
/// two engines.
struct StimulusLayout<'a> {
    class: SwitchClass,
    active_ports: usize,
    /// Primary-input positions of the routing-control nets.
    control_positions: &'a [usize],
    /// Primary-input positions of the active ports' payload buses,
    /// port-major, bits low-to-high.
    data_positions: &'a [usize],
}

impl<'a> StimulusLayout<'a> {
    fn new(switch: &'a CompiledSwitch, active_ports: usize) -> Self {
        Self {
            class: switch.class,
            active_ports,
            control_positions: &switch.control,
            data_positions: &switch.data[..active_ports * switch.bus_width],
        }
    }

    /// Draws one bus cycle of net-major stimulus through
    /// `set(primary-input position, 64-lane word)`.
    fn drive(&self, rng: &mut StimulusRng, set: &mut impl FnMut(usize, u64)) {
        match self.class {
            SwitchClass::BanyanBinary => {
                let crossed = rng.next_u64();
                set(self.control_positions[0], crossed);
                set(self.control_positions[1], !crossed);
            }
            SwitchClass::BatcherSorting => {
                let address_bits = self.control_positions.len() / 2;
                for port in 0..2 {
                    for bit in 0..address_bits {
                        let word = if port < self.active_ports {
                            rng.next_u64()
                        } else {
                            0
                        };
                        set(self.control_positions[port * address_bits + bit], word);
                    }
                }
            }
            SwitchClass::CrossbarCrosspoint | SwitchClass::Mux { .. } => {}
        }
        for &pos in self.data_positions {
            set(pos, rng.next_u64());
        }
    }

    /// The number of [`StimulusRng`] draws one [`StimulusLayout::drive`]
    /// call consumes.
    fn draws_per_cycle(&self) -> u64 {
        let control = match self.class {
            SwitchClass::BanyanBinary => 1,
            SwitchClass::BatcherSorting => {
                self.active_ports.min(2) * (self.control_positions.len() / 2)
            }
            SwitchClass::CrossbarCrosspoint | SwitchClass::Mux { .. } => 0,
        };
        (control + self.data_positions.len()) as u64
    }
}

/// The result of characterizing the full standard switch set at one bus width
/// (the programmatic equivalent of the paper's Table 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1 {
    /// Crossbar crosspoint LUT.
    pub crosspoint: SwitchEnergyLut,
    /// Banyan 2×2 binary switch LUT.
    pub banyan_binary: SwitchEnergyLut,
    /// Batcher 2×2 sorting switch LUT.
    pub batcher_sorting: SwitchEnergyLut,
    /// N-input MUX LUTs for N = 4, 8, 16, 32.
    pub muxes: Vec<SwitchEnergyLut>,
}

impl Table1 {
    /// Characterizes every switch of the paper's Table 1 with the generated
    /// circuits and the given cell library.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] from circuit generation.
    pub fn characterize(
        bus_width: usize,
        address_bits: usize,
        library: &CellLibrary,
        config: &CharacterizationConfig,
    ) -> Result<Self, NetlistError> {
        Ok(Self {
            crosspoint: characterize_class(
                SwitchClass::CrossbarCrosspoint,
                bus_width,
                address_bits,
                library,
                config,
            )?,
            banyan_binary: characterize_class(
                SwitchClass::BanyanBinary,
                bus_width,
                address_bits,
                library,
                config,
            )?,
            batcher_sorting: characterize_class(
                SwitchClass::BatcherSorting,
                bus_width,
                address_bits,
                library,
                config,
            )?,
            muxes: [4, 8, 16, 32]
                .into_iter()
                .map(|inputs| {
                    characterize_class(
                        SwitchClass::Mux { inputs },
                        bus_width,
                        address_bits,
                        library,
                        config,
                    )
                })
                .collect::<Result<Vec<_>, _>>()?,
        })
    }

    /// The paper's published Table 1 packaged in the same structure.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            crosspoint: SwitchEnergyLut::paper_crossbar_crosspoint(),
            banyan_binary: SwitchEnergyLut::paper_banyan_binary(),
            batcher_sorting: SwitchEnergyLut::paper_batcher_sorting(),
            muxes: vec![
                SwitchEnergyLut::paper_mux(4),
                SwitchEnergyLut::paper_mux(8),
                SwitchEnergyLut::paper_mux(16),
                SwitchEnergyLut::paper_mux(32),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits::{
        banyan_binary_switch, batcher_sorting_switch, crossbar_crosspoint, n_input_mux,
    };
    use crate::sim::Simulator;

    fn quick() -> CharacterizationConfig {
        CharacterizationConfig::quick()
    }

    #[test]
    fn crosspoint_characterization_orders_by_occupancy() {
        let circuit = crossbar_crosspoint(16).unwrap();
        let lib = CellLibrary::calibrated_018um();
        let lut = characterize_switch(&circuit, &lib, &quick()).unwrap();
        assert_eq!(lut.ports(), 1);
        assert_eq!(lut.source(), LutSource::Characterized);
        // An active crosspoint costs far more than an idle one.
        assert!(lut.single_active() > lut.energy_for_active_count(0) * 5.0);
    }

    #[test]
    fn binary_switch_shows_economy_of_scale() {
        let circuit = banyan_binary_switch(16).unwrap();
        let lib = CellLibrary::calibrated_018um();
        let lut = characterize_switch(&circuit, &lib, &quick()).unwrap();
        let one = lut.energy_for_active_count(1);
        let two = lut.energy_for_active_count(2);
        // Two packets cost more than one, but less than twice as much
        // (the paper's observation about input-state dependence).
        assert!(two > one);
        assert!(two < one * 2.0);
    }

    #[test]
    fn sorting_switch_costs_more_than_binary_switch_when_loaded() {
        let lib = CellLibrary::calibrated_018um();
        let binary = characterize_class(SwitchClass::BanyanBinary, 16, 4, &lib, &quick()).unwrap();
        let sorting =
            characterize_class(SwitchClass::BatcherSorting, 16, 4, &lib, &quick()).unwrap();
        // Table 1's [1,1] ordering (2025 fJ > 1821 fJ): with both inputs busy
        // the compare-exchange and header-forwarding logic make the sorting
        // switch strictly costlier.
        assert!(
            sorting.energy_for_active_count(2) > binary.energy_for_active_count(2),
            "sorting {} !> binary {}",
            sorting.energy_for_active_count(2),
            binary.energy_for_active_count(2)
        );
        // With a single packet the two implementations are within the same
        // band (the paper's 1253 fJ vs 1080 fJ gap is ~16 %); we only require
        // that ours does not invert the relation by more than 25 %.
        assert!(sorting.single_active() > binary.single_active() * 0.75);
    }

    #[test]
    fn crosspoint_is_the_cheapest_switch() {
        let lib = CellLibrary::calibrated_018um();
        let crosspoint =
            characterize_class(SwitchClass::CrossbarCrosspoint, 16, 4, &lib, &quick()).unwrap();
        let binary = characterize_class(SwitchClass::BanyanBinary, 16, 4, &lib, &quick()).unwrap();
        assert!(crosspoint.single_active() < binary.single_active());
    }

    #[test]
    fn mux_energy_grows_with_input_count() {
        let lib = CellLibrary::calibrated_018um();
        let m4 = characterize_class(SwitchClass::Mux { inputs: 4 }, 8, 2, &lib, &quick())
            .unwrap()
            .energy_for_active_count(4);
        let m8 = characterize_class(SwitchClass::Mux { inputs: 8 }, 8, 3, &lib, &quick())
            .unwrap()
            .energy_for_active_count(8);
        assert!(m8 > m4, "{m8} !> {m4}");
    }

    #[test]
    fn packed_measurement_matches_scalar_per_lane_oracle_bit_exactly() {
        // measure_cycles = 81 exercises the remainder mask: one full-mask
        // step plus one final step counting only lanes 0–16.  The packed
        // engine sweeps its compiled schedule, skipping quiet cells, and
        // simulates only the last settle-depth warm-up cycles, while the
        // per-lane oracle walks every cell of every warm-up cycle.  A
        // 3-cycle warm-up skips one cycle on the MUX; the 16-cycle ones (the
        // default) skip 13 on the binary and sorting switches, 14 on the
        // MUX and none on the crosspoint.
        let lib = CellLibrary::calibrated_018um();
        let circuits = [
            crossbar_crosspoint(8).unwrap(),
            banyan_binary_switch(8).unwrap(),
            batcher_sorting_switch(4, 3).unwrap(),
            n_input_mux(4, 4).unwrap(),
        ];
        for (warmup_cycles, seed) in [(3, 0xDAC_2002), (16, 0xDAC_2002), (16, 7)] {
            let config = CharacterizationConfig {
                warmup_cycles,
                measure_cycles: 81,
                seed,
            };
            for circuit in &circuits {
                oracle_matches_packed(circuit, &lib, &config);
            }
        }
    }

    /// Runs every occupancy of `circuit` through [`measure`] and through 64
    /// scalar per-lane oracles that simulate the full warm-up, and requires
    /// identical reports.
    fn oracle_matches_packed(
        circuit: &SwitchCircuit,
        lib: &CellLibrary,
        config: &CharacterizationConfig,
    ) {
        // One reused simulator across occupancies, exactly like
        // `sweep_occupancies`.  Measurements warm-start, so the per-lane
        // oracle simulators are carried across occupancies too (lane `L`
        // of the packed run reads bit `L` of the same shared net-major
        // draws through the same ascending occupancy sequence).
        let switch = CompiledSwitch::compile(circuit, lib).unwrap();
        let mut packed_sim = PackedSimulator::new(&switch.schedule, &switch.tables);
        let mut oracle_sims: Vec<Simulator<'_>> = (0..LANES)
            .map(|_| Simulator::new(&circuit.netlist, lib).unwrap())
            .collect();
        for active in 0..=circuit.ports {
            let packed = measure(&switch, &mut packed_sim, config, active);

            let tables = Simulator::new(&circuit.netlist, lib)
                .unwrap()
                .energy_tables()
                .clone();
            // The oracle lanes run in lockstep, consuming the one shared
            // draw sequence: each cycle's words are drawn once and lane
            // `L` applies bit `L` of every word.
            let mut rng = StimulusRng::seed_from_u64(config.seed ^ active as u64);
            let layout = StimulusLayout::new(&switch, active);
            let mut vectors: Vec<Vec<bool>> = oracle_sims
                .iter()
                .map(|_| {
                    let mut vector = circuit.blank_input_vector();
                    write_static_inputs(&switch, active, &mut |pos, v| vector[pos] = v);
                    vector
                })
                .collect();
            let mut drives: Vec<(usize, u64)> = Vec::new();
            let cycle = |rng: &mut StimulusRng,
                         sims: &mut [Simulator<'_>],
                         vectors: &mut [Vec<bool>],
                         drives: &mut Vec<(usize, u64)>| {
                drives.clear();
                layout.drive(rng, &mut |pos, word| drives.push((pos, word)));
                for (lane, (sim, vector)) in sims.iter_mut().zip(vectors).enumerate() {
                    for &(pos, word) in drives.iter() {
                        vector[pos] = (word >> lane) & 1 == 1;
                    }
                    sim.step(vector);
                }
            };
            for _ in 0..config.warmup_cycles {
                cycle(&mut rng, &mut oracle_sims, &mut vectors, &mut drives);
            }
            for sim in &mut oracle_sims {
                sim.reset_counters();
            }
            let full_steps = config.measure_cycles / u64::from(LANES);
            let remainder = config.measure_cycles % u64::from(LANES);
            for _ in 0..full_steps {
                cycle(&mut rng, &mut oracle_sims, &mut vectors, &mut drives);
            }
            let mut summed = vec![0_u64; circuit.netlist.net_count()];
            let mut total_cycles = 0_u64;
            let collect = |sim: &Simulator<'_>, summed: &mut [u64]| {
                for (acc, &count) in summed.iter_mut().zip(sim.net_toggle_counts()) {
                    *acc += count;
                }
            };
            if remainder > 0 {
                // The packed engine's remainder step advances masked
                // lanes too (uncounted); collect their counts first,
                // then step everyone for state carry into the next
                // occupancy.
                for (lane, sim) in oracle_sims.iter().enumerate() {
                    if lane as u64 >= remainder {
                        collect(sim, &mut summed);
                        total_cycles += full_steps;
                    }
                }
                cycle(&mut rng, &mut oracle_sims, &mut vectors, &mut drives);
                for (lane, sim) in oracle_sims.iter().enumerate() {
                    if (lane as u64) < remainder {
                        collect(sim, &mut summed);
                        total_cycles += full_steps + 1;
                    }
                }
            } else {
                for sim in &oracle_sims {
                    collect(sim, &mut summed);
                    total_cycles += full_steps;
                }
            }
            assert_eq!(total_cycles, config.measure_cycles);
            let oracle = tables.report_from_counts(&summed, total_cycles);
            assert_eq!(
                packed, oracle,
                "packed vs scalar-oracle mismatch for {} with {active} active port(s) \
                 under {config:?}",
                circuit.class
            );
        }
    }

    #[test]
    fn advancing_the_stream_skips_exactly_the_draws_of_drive() {
        let circuits = [
            crossbar_crosspoint(8).unwrap(),
            banyan_binary_switch(8).unwrap(),
            batcher_sorting_switch(4, 3).unwrap(),
            n_input_mux(4, 4).unwrap(),
            n_input_mux(8, 2).unwrap(),
        ];
        for circuit in &circuits {
            let switch = CompiledSwitch::compile(circuit, &CellLibrary::default()).unwrap();
            for active in 0..=circuit.ports {
                let layout = StimulusLayout::new(&switch, active);
                for cycles in [1, 3] {
                    let mut driven = StimulusRng::seed_from_u64(0xDAC_2002 ^ active as u64);
                    let mut skipped = driven.clone();
                    for _ in 0..cycles {
                        layout.drive(&mut driven, &mut |_, _| {});
                    }
                    skipped.advance(cycles * layout.draws_per_cycle());
                    assert_eq!(
                        skipped.0, driven.0,
                        "{} with {active} active port(s), {cycles} cycle(s)",
                        circuit.class
                    );
                }
            }
        }
    }

    #[test]
    fn characterization_is_deterministic_for_a_fixed_seed() {
        let circuit = banyan_binary_switch(8).unwrap();
        let lib = CellLibrary::calibrated_018um();
        let a = characterize_switch(&circuit, &lib, &quick()).unwrap();
        let b = characterize_switch(&circuit, &lib, &quick()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn characterized_energies_are_in_the_paper_order_of_magnitude() {
        let lib = CellLibrary::calibrated_018um();
        let lut = characterize_class(SwitchClass::BanyanBinary, 32, 5, &lib, &quick()).unwrap();
        let fj = lut.single_active().as_femtojoules();
        // Paper: 1080 fJ. Accept a generous band — the point is the scale.
        assert!(
            fj > 100.0,
            "binary switch energy {fj} fJ is implausibly low"
        );
        assert!(
            fj < 10_000.0,
            "binary switch energy {fj} fJ is implausibly high"
        );
    }

    #[test]
    fn paper_table1_structure_is_complete() {
        let table = Table1::paper();
        assert_eq!(table.muxes.len(), 4);
        assert!(table.batcher_sorting.single_active() > table.banyan_binary.single_active());
    }
}
