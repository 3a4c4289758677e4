//! Interconnect-wire bit-energy model (paper §3.3–3.4).
//!
//! A bit transmitted on an interconnect wire dissipates energy only when its
//! polarity flips relative to the previously transmitted bit; each flip costs
//! `E_W_bit = ½·C_W·V²` where `C_W = C_wire + C_input` is the total load the
//! flipping bit has to (dis)charge (paper Eq. 2).
//!
//! Wire length is counted in **Thompson grids** (see the
//! `fabric-power-thompson` crate): a wire that spans `m` grids costs
//! `m · E_T_bit`, where `E_T_bit` is the bit energy of a single-grid wire.
//! With the paper's parameters (32-bit bus at 1 µm pitch → 32 µm grid,
//! 0.50 fF/µm, 3.3 V) this evaluates to ≈87 fJ, matching §5.1.

use serde::{Deserialize, Serialize};

use crate::params::Technology;
use crate::units::{Capacitance, Energy, Length};

/// Wire bit-energy calculator bound to a [`Technology`].
///
/// # Examples
///
/// ```
/// use fabric_power_tech::params::Technology;
/// use fabric_power_tech::wire::WireModel;
///
/// let wires = WireModel::new(Technology::tsmc180());
/// // The paper's E_T_bit is "around 87e-15 J".
/// let e_t = wires.grid_bit_energy();
/// assert!((e_t.as_femtojoules() - 87.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireModel {
    technology: Technology,
}

impl WireModel {
    /// Creates a wire model for the given technology.
    #[must_use]
    pub fn new(technology: Technology) -> Self {
        Self { technology }
    }

    /// The technology this model was built from.
    #[must_use]
    pub fn technology(&self) -> &Technology {
        &self.technology
    }

    /// Total load capacitance of a wire of physical length `length` driving
    /// `fanout` gate inputs: `C_W = C_wire + fanout · C_input`.
    #[must_use]
    pub fn load_capacitance(&self, length: Length, fanout: u32) -> Capacitance {
        self.technology.wire_capacitance(length)
            + self.technology.gate_input_capacitance() * f64::from(fanout)
    }

    /// Bit energy of one polarity flip on a wire of physical length `length`
    /// driving `fanout` gate inputs (paper Eq. 2).
    #[must_use]
    pub fn bit_energy(&self, length: Length, fanout: u32) -> Energy {
        self.load_capacitance(length, fanout)
            .switching_energy(self.technology.supply_voltage())
    }

    /// `E_T_bit`: bit energy of a wire exactly one Thompson grid long with no
    /// explicit gate load (the paper folds receiver load into the grid count).
    #[must_use]
    pub fn grid_bit_energy(&self) -> Energy {
        self.bit_energy(self.technology.thompson_grid_length(), 0)
    }

    /// Bit energy of a wire spanning `grids` Thompson grids:
    /// `E_W_bit = m · E_T_bit`.
    #[must_use]
    pub fn grids_bit_energy(&self, grids: u64) -> Energy {
        self.grid_bit_energy() * grids as f64
    }

    /// Physical length corresponding to `grids` Thompson grids.
    #[must_use]
    pub fn grids_to_length(&self, grids: u64) -> Length {
        Length::from_meters(self.technology.thompson_grid_length().as_meters() * grids as f64)
    }
}

impl Default for WireModel {
    fn default() -> Self {
        Self::new(Technology::tsmc180())
    }
}

/// Counts polarity flips between two consecutive words on a bus.
///
/// Only bits whose value differs from the previously transmitted bit dissipate
/// wire energy (`E_0→0 = E_1→1 = 0`). This helper is the single place the
/// "switching activity" of a bus is defined, so the simulator and analytic
/// model agree.
///
/// # Examples
///
/// ```
/// use fabric_power_tech::wire::polarity_flips;
///
/// assert_eq!(polarity_flips(0b1010, 0b1010), 0);
/// assert_eq!(polarity_flips(0b1010, 0b0101), 4);
/// assert_eq!(polarity_flips(0b0000, 0b1111), 4);
/// ```
#[must_use]
pub fn polarity_flips(previous: u64, current: u64) -> u32 {
    (previous ^ current).count_ones()
}

/// Expected number of polarity flips for a random word of `bits` bits
/// following another independent random word: each bit flips with
/// probability ½.
#[must_use]
pub fn expected_random_flips(bits: u32) -> f64 {
    f64::from(bits) * 0.5
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Voltage;

    #[test]
    fn paper_grid_bit_energy_is_about_87_femtojoules() {
        let wires = WireModel::default();
        let e = wires.grid_bit_energy();
        // 0.5 * (32 um * 0.5 fF/um) * (3.3 V)^2 = 87.12 fJ
        assert!((e.as_femtojoules() - 87.12).abs() < 0.01);
    }

    #[test]
    fn grid_energy_scales_linearly_with_grid_count() {
        let wires = WireModel::default();
        let one = wires.grid_bit_energy();
        let eight = wires.grids_bit_energy(8);
        assert!((eight.as_joules() - 8.0 * one.as_joules()).abs() < 1e-24);
        assert_eq!(wires.grids_bit_energy(0), Energy::ZERO);
    }

    #[test]
    fn fanout_adds_gate_input_capacitance() {
        let wires = WireModel::default();
        let bare = wires.bit_energy(Length::from_micrometers(32.0), 0);
        let loaded = wires.bit_energy(Length::from_micrometers(32.0), 4);
        // 4 gate inputs * 2 fF = 8 fF extra on top of 16 fF wire cap.
        let extra = Capacitance::from_femtofarads(8.0).switching_energy(Voltage::from_volts(3.3));
        assert!((loaded.as_joules() - bare.as_joules() - extra.as_joules()).abs() < 1e-24);
    }

    #[test]
    fn grids_to_length_uses_grid_side() {
        let wires = WireModel::default();
        assert!((wires.grids_to_length(4).as_micrometers() - 128.0).abs() < 1e-9);
    }

    #[test]
    fn polarity_flip_counting() {
        assert_eq!(polarity_flips(0, 0), 0);
        assert_eq!(polarity_flips(u64::MAX, u64::MAX), 0);
        assert_eq!(polarity_flips(0, u64::MAX), 64);
        assert_eq!(polarity_flips(0b1100, 0b1010), 2);
    }

    #[test]
    fn expected_flips_is_half_the_bus_width() {
        assert_eq!(expected_random_flips(32), 16.0);
        assert_eq!(expected_random_flips(0), 0.0);
    }
}
