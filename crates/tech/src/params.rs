//! Process-technology and router-level parameters.
//!
//! The paper's case study is a 0.18 µm, 3.3 V technology with 32-bit-wide
//! global buses, a ~1 µm global-wire pitch, ~0.50 fF/µm global-wire
//! capacitance and a 133 MHz memory/operating clock.  [`Technology::tsmc180`]
//! captures exactly those numbers; any other process can be loaded from JSON
//! (the type is `Deserialize`), and the whole framework re-scales
//! consistently.

use serde::{Deserialize, Serialize};

use crate::units::{Capacitance, Frequency, Length, Voltage};

/// A complete description of the process technology and router-level bus
/// parameters that the bit-energy model depends on.
///
/// Construct via [`Technology::tsmc180`] (the paper's case study) or
/// deserialization.
///
/// # Examples
///
/// ```
/// use fabric_power_tech::params::Technology;
///
/// let tech = Technology::tsmc180();
/// assert_eq!(tech.bus_width_bits(), 32);
/// assert!((tech.supply_voltage().as_volts() - 3.3).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Technology {
    /// Human-readable name, e.g. `"0.18um generic"`.
    name: String,
    /// Drawn feature size of the process.
    feature_size: Length,
    /// Rail-to-rail supply voltage (the paper assumes full-swing switching).
    supply_voltage: Voltage,
    /// Capacitance per unit length of a global interconnect wire.
    wire_capacitance_per_length: Capacitance,
    /// Reference length for `wire_capacitance_per_length` (1 µm in the paper).
    wire_capacitance_reference: Length,
    /// Pitch between adjacent global bus wires.
    wire_pitch: Length,
    /// Width of the parallel data bus in bits (the ingress unit parallelizes
    /// the serial line into this width).
    bus_width_bits: u32,
    /// Average input capacitance presented by one gate input attached to a wire.
    gate_input_capacitance: Capacitance,
    /// Operating clock frequency of the fabric and its buffers.
    clock: Frequency,
}

impl Technology {
    /// The 0.18 µm / 3.3 V case-study technology used throughout the paper.
    ///
    /// * global wire capacitance 0.50 fF/µm ([Ho, Mai, Horowitz 2001] as cited),
    /// * 1 µm global bus pitch, 32-bit buses (so one Thompson grid ≈ 32 µm),
    /// * 133 MHz operation (the SRAM datasheet operating point).
    #[must_use]
    pub fn tsmc180() -> Self {
        Self {
            name: "0.18um 3.3V case study".to_owned(),
            feature_size: Length::from_micrometers(0.18),
            supply_voltage: Voltage::from_volts(3.3),
            wire_capacitance_per_length: Capacitance::from_femtofarads(0.50),
            wire_capacitance_reference: Length::from_micrometers(1.0),
            wire_pitch: Length::from_micrometers(1.0),
            bus_width_bits: 32,
            // A small 0.18um gate input is a few fF; 2 fF is a typical
            // minimum-size inverter input load.
            gate_input_capacitance: Capacitance::from_femtofarads(2.0),
            clock: Frequency::from_megahertz(133.0),
        }
    }

    /// Rail-to-rail supply voltage.
    #[must_use]
    pub fn supply_voltage(&self) -> Voltage {
        self.supply_voltage
    }

    /// Width of the parallel data bus in bits.
    #[must_use]
    pub fn bus_width_bits(&self) -> u32 {
        self.bus_width_bits
    }

    /// Average gate input capacitance loading an interconnect wire.
    #[must_use]
    pub(crate) fn gate_input_capacitance(&self) -> Capacitance {
        self.gate_input_capacitance
    }

    /// Operating clock frequency.
    #[must_use]
    pub fn clock(&self) -> Frequency {
        self.clock
    }

    /// Capacitance of a wire of the given length (linear in length).
    ///
    /// # Examples
    ///
    /// ```
    /// use fabric_power_tech::params::Technology;
    /// use fabric_power_tech::units::Length;
    ///
    /// let tech = Technology::tsmc180();
    /// let c = tech.wire_capacitance(Length::from_micrometers(32.0));
    /// assert!((c.as_farads() - 16e-15).abs() < 1e-24);
    /// ```
    #[must_use]
    pub fn wire_capacitance(&self, length: Length) -> Capacitance {
        let per_meter = self.wire_capacitance_per_length.as_farads()
            / self.wire_capacitance_reference.as_meters();
        Capacitance::from_farads(per_meter * length.as_meters())
    }

    /// Side length of one Thompson grid square: the width of a full bus,
    /// i.e. `bus_width_bits × wire_pitch` (≈32 µm in the paper).
    #[must_use]
    pub fn thompson_grid_length(&self) -> Length {
        Length::from_meters(self.wire_pitch.as_meters() * f64::from(self.bus_width_bits))
    }
}

impl Default for Technology {
    fn default() -> Self {
        Self::tsmc180()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_technology_parameters() {
        let tech = Technology::tsmc180();
        assert_eq!(tech.bus_width_bits(), 32);
        assert!((tech.supply_voltage().as_volts() - 3.3).abs() < 1e-12);
        assert_eq!(tech.clock(), Frequency::from_megahertz(133.0));
    }

    #[test]
    fn thompson_grid_is_32_micrometers() {
        let tech = Technology::tsmc180();
        assert!((tech.thompson_grid_length().as_meters() - 32e-6).abs() < 1e-15);
    }

    #[test]
    fn wire_capacitance_scales_linearly_with_length() {
        let tech = Technology::tsmc180();
        let c1 = tech.wire_capacitance(Length::from_micrometers(10.0));
        let c2 = tech.wire_capacitance(Length::from_micrometers(20.0));
        assert!((c2 / c1 - 2.0).abs() < 1e-12);
        assert!((c1.as_farads() - 5e-15).abs() < 1e-24);
    }

    #[test]
    fn default_is_the_paper_technology() {
        assert_eq!(Technology::default(), Technology::tsmc180());
    }

    #[test]
    fn serde_round_trip() {
        let tech = Technology::tsmc180();
        let json = serde_json::to_string(&tech).expect("serialize");
        let back: Technology = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(tech, back);
    }
}
