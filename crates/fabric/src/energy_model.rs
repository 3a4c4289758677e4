//! Assembly of the three bit-energy components into one per-fabric model.
//!
//! A [`FabricEnergyModel`] bundles everything the analytic equations and the
//! bit-level simulator need to charge energy:
//!
//! * `E_S_bit` — node-switch look-up tables per switch class ([`SwitchEnergyLut`]);
//! * `E_B_bit` — internal-buffer access energy for the fabric's shared SRAM;
//! * `E_T_bit` — interconnect energy per Thompson grid and polarity flip.
//!
//! Two stock constructors mirror the two data sources available in this
//! reproduction: [`FabricEnergyModel::paper`] uses the published Table 1 /
//! Table 2 / 87 fJ values verbatim, while [`FabricEnergyModel::derived`]
//! recomputes every component from the structural models in the substrate
//! crates (gate-level characterization, SRAM model, wire model).

use serde::{Deserialize, Serialize};

use fabric_power_memory::buffers::BufferConfig;
use fabric_power_memory::sram::MemoryModelError;
use fabric_power_netlist::characterize::CharacterizationConfig;
use fabric_power_netlist::library::CellLibrary;
use fabric_power_netlist::lut::SwitchEnergyLut;
use fabric_power_netlist::netlist::NetlistError;
use fabric_power_netlist::{characterize_class, SwitchClass};
use fabric_power_tech::units::Energy;
use fabric_power_tech::{Technology, WireModel};

/// Errors raised while building a [`FabricEnergyModel`].
#[derive(Debug)]
pub enum EnergyModelError {
    /// The port count is not a power of two of at least 2.
    InvalidPortCount {
        /// The rejected port count.
        ports: usize,
    },
    /// Building the shared-buffer memory model failed.
    Memory(MemoryModelError),
    /// Generating or simulating a node-switch circuit failed.
    Netlist(NetlistError),
}

impl std::fmt::Display for EnergyModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidPortCount { ports } => {
                write!(f, "port count {ports} must be a power of two of at least 2")
            }
            Self::Memory(e) => write!(f, "buffer memory model: {e}"),
            Self::Netlist(e) => write!(f, "switch characterization: {e}"),
        }
    }
}

impl std::error::Error for EnergyModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::InvalidPortCount { .. } => None,
            Self::Memory(e) => Some(e),
            Self::Netlist(e) => Some(e),
        }
    }
}

impl From<MemoryModelError> for EnergyModelError {
    fn from(e: MemoryModelError) -> Self {
        Self::Memory(e)
    }
}

impl From<NetlistError> for EnergyModelError {
    fn from(e: NetlistError) -> Self {
        Self::Netlist(e)
    }
}

/// The per-fabric-size bundle of bit-energy components.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricEnergyModel {
    ports: usize,
    bus_width_bits: u32,
    crosspoint: SwitchEnergyLut,
    banyan_binary: SwitchEnergyLut,
    batcher_sorting: SwitchEnergyLut,
    mux: SwitchEnergyLut,
    buffer_bit_energy: Energy,
    grid_bit_energy: Energy,
}

impl FabricEnergyModel {
    /// Builds the model from the paper's published values: Table 1 switch
    /// LUTs, Table 2 buffer energies and the 87 fJ Thompson-grid wire energy.
    ///
    /// For port counts outside the published set the buffer energy is
    /// computed from the structural SRAM model and the MUX LUT from the
    /// power-law fit, so the model extrapolates cleanly.
    ///
    /// # Errors
    ///
    /// Returns [`EnergyModelError::InvalidPortCount`] unless `ports` is a
    /// power of two ≥ 2, or a memory-model error for extrapolated sizes.
    pub fn paper(ports: usize) -> Result<Self, EnergyModelError> {
        Self::check_ports(ports)?;
        let buffer_bit_energy = match fabric_power_memory::Table2::paper().bit_energy(ports) {
            Some(energy) => energy,
            None => BufferConfig::paper_default(ports)
                .memory_model()?
                .buffer_bit_energy(),
        };
        Ok(Self {
            ports,
            bus_width_bits: Technology::tsmc180().bus_width_bits(),
            crosspoint: SwitchEnergyLut::paper_crossbar_crosspoint(),
            banyan_binary: SwitchEnergyLut::paper_banyan_binary(),
            batcher_sorting: SwitchEnergyLut::paper_batcher_sorting(),
            mux: SwitchEnergyLut::paper_mux(ports),
            buffer_bit_energy,
            grid_bit_energy: Energy::from_femtojoules(
                fabric_power_tech::constants::PAPER_GRID_BIT_ENERGY_FJ,
            ),
        })
    }

    /// Rebuilds every component from the structural substrate models: the
    /// gate-level characterization engine for the switch LUTs, the SRAM model
    /// for the buffer energy and the wire model for the grid energy.
    ///
    /// This is the "fully derived" mode used to check that the paper's
    /// conclusions survive when its published numbers are replaced by our
    /// from-scratch models.
    ///
    /// # Errors
    ///
    /// Propagates characterization and memory-model failures and rejects
    /// invalid port counts.
    pub fn derived(
        ports: usize,
        technology: &Technology,
        library: &CellLibrary,
        config: &CharacterizationConfig,
    ) -> Result<Self, EnergyModelError> {
        Self::check_ports(ports)?;
        let bus_width = technology.bus_width_bits() as usize;
        let address_bits = (ports.trailing_zeros() as usize).max(1);
        let buffer = BufferConfig::paper_default(ports).memory_model()?;
        Ok(Self {
            ports,
            bus_width_bits: technology.bus_width_bits(),
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
            mux: characterize_class(
                SwitchClass::Mux { inputs: ports },
                bus_width,
                address_bits,
                library,
                config,
            )?,
            buffer_bit_energy: buffer.buffer_bit_energy(),
            grid_bit_energy: WireModel::new(technology.clone()).grid_bit_energy(),
        })
    }

    /// Serializes the model to its canonical compact JSON form.
    ///
    /// The serializer keeps field declaration order and renders floats with
    /// shortest-round-trip formatting, so the same model always produces the
    /// same bytes — the property the content-addressed on-disk cache in
    /// [`crate::provider`] relies on.
    ///
    /// # Errors
    ///
    /// Propagates serializer errors.
    pub fn to_canonical_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    fn check_ports(ports: usize) -> Result<(), EnergyModelError> {
        if ports >= 2 && ports.is_power_of_two() {
            Ok(())
        } else {
            Err(EnergyModelError::InvalidPortCount { ports })
        }
    }

    /// Number of fabric ports this model was built for.
    #[must_use]
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Width of the payload data bus in bits.
    #[must_use]
    pub fn bus_width_bits(&self) -> u32 {
        self.bus_width_bits
    }

    /// The node-switch LUT of one switch class.
    ///
    /// # Panics
    ///
    /// Panics if a MUX LUT for a different input count than the fabric's port
    /// count is requested — the fully-connected fabric always uses N-input
    /// MUXes.
    #[must_use]
    pub fn switch_lut(&self, class: SwitchClass) -> &SwitchEnergyLut {
        match class {
            SwitchClass::CrossbarCrosspoint => &self.crosspoint,
            SwitchClass::BanyanBinary => &self.banyan_binary,
            SwitchClass::BatcherSorting => &self.batcher_sorting,
            SwitchClass::Mux { inputs } => {
                assert_eq!(
                    inputs, self.ports,
                    "the fully-connected fabric uses {}-input MUXes",
                    self.ports
                );
                &self.mux
            }
        }
    }

    /// Per-bit node-switch energy for a switch of `class` with
    /// `active_inputs` packets present (`E_S_bit`).
    #[must_use]
    pub fn switch_bit_energy(&self, class: SwitchClass, active_inputs: usize) -> Energy {
        self.switch_lut(class)
            .energy_for_active_count(active_inputs.min(self.switch_lut(class).ports()))
    }

    /// Per-bit internal-buffer energy (`E_B_bit`, one access).
    #[must_use]
    pub fn buffer_bit_energy(&self) -> Energy {
        self.buffer_bit_energy
    }

    /// Per-bit, per-polarity-flip energy of a one-grid interconnect
    /// (`E_T_bit`).
    #[must_use]
    pub fn grid_bit_energy(&self) -> Energy {
        self.grid_bit_energy
    }

    /// Per-bit wire energy over a run of `grids` Thompson grids.
    #[must_use]
    pub fn wire_bit_energy(&self, grids: u64) -> Energy {
        self.grid_bit_energy * grids as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_reproduces_published_components() {
        let model = FabricEnergyModel::paper(16).unwrap();
        assert_eq!(model.ports(), 16);
        assert_eq!(model.bus_width_bits(), 32);
        assert!((model.grid_bit_energy().as_femtojoules() - 87.0).abs() < 1e-9);
        assert!((model.buffer_bit_energy().as_picojoules() - 154.0).abs() < 1e-9);
        assert!(
            (model
                .switch_bit_energy(SwitchClass::BanyanBinary, 1)
                .as_femtojoules()
                - 1080.0)
                .abs()
                < 1e-9
        );
        assert!(
            (model
                .switch_bit_energy(SwitchClass::Mux { inputs: 16 }, 1)
                .as_femtojoules()
                - 1350.0)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn paper_model_extrapolates_beyond_published_sizes() {
        let model = FabricEnergyModel::paper(64).unwrap();
        // 64x64 is not in Table 2: the buffer energy comes from the SRAM
        // model and must exceed the published 32x32 value.
        assert!(model.buffer_bit_energy().as_picojoules() > 200.0);
        assert!(
            model.switch_bit_energy(SwitchClass::Mux { inputs: 64 }, 1)
                > model.switch_bit_energy(SwitchClass::BanyanBinary, 1)
        );
    }

    #[test]
    fn invalid_port_counts_are_rejected() {
        assert!(matches!(
            FabricEnergyModel::paper(0),
            Err(EnergyModelError::InvalidPortCount { ports: 0 })
        ));
        assert!(matches!(
            FabricEnergyModel::paper(12),
            Err(EnergyModelError::InvalidPortCount { ports: 12 })
        ));
        let message = FabricEnergyModel::paper(12).unwrap_err().to_string();
        assert!(message.contains("12"));
    }

    #[test]
    fn wire_energy_scales_with_grid_count() {
        let model = FabricEnergyModel::paper(8).unwrap();
        let one = model.wire_bit_energy(1);
        let thirty_two = model.wire_bit_energy(32);
        assert!((thirty_two.as_joules() - one.as_joules() * 32.0).abs() < 1e-24);
        assert_eq!(model.wire_bit_energy(0), Energy::ZERO);
    }

    #[test]
    fn buffer_energy_dominates_switch_and_wire_energy() {
        // The "buffer penalty" the paper highlights: E_B is in picojoules while
        // E_S and E_T are in femtojoules.
        let model = FabricEnergyModel::paper(8).unwrap();
        assert!(
            model.buffer_bit_energy()
                > model.switch_bit_energy(SwitchClass::BanyanBinary, 2) * 10.0
        );
        assert!(model.buffer_bit_energy() > model.wire_bit_energy(8) * 10.0);
    }

    #[test]
    fn derived_model_preserves_the_key_orderings() {
        let model = FabricEnergyModel::derived(
            4,
            &Technology::tsmc180(),
            &CellLibrary::calibrated_018um(),
            &CharacterizationConfig::quick(),
        )
        .unwrap();
        // Crosspoint is the cheapest switch; buffers dwarf wires.
        assert!(
            model.switch_bit_energy(SwitchClass::CrossbarCrosspoint, 1)
                < model.switch_bit_energy(SwitchClass::BanyanBinary, 1)
        );
        assert!(model.buffer_bit_energy() > model.wire_bit_energy(1) * 10.0);
        assert!(model.grid_bit_energy().as_femtojoules() > 10.0);
    }

    #[test]
    fn canonical_json_round_trips_and_is_deterministic() {
        let model = FabricEnergyModel::paper(8).unwrap();
        let json = model.to_canonical_json().unwrap();
        assert_eq!(json, model.to_canonical_json().unwrap());
        let back: FabricEnergyModel = serde_json::from_str(&json).unwrap();
        assert_eq!(model, back);
        assert!(serde_json::from_str::<FabricEnergyModel>("{ not json").is_err());
    }

    #[test]
    #[should_panic(expected = "uses 8-input MUXes")]
    fn mismatched_mux_size_panics() {
        let model = FabricEnergyModel::paper(8).unwrap();
        let _ = model.switch_lut(SwitchClass::Mux { inputs: 4 });
    }
}
