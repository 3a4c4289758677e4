//! # fabric-power-tech
//!
//! Physical units, process-technology parameters and the interconnect-wire
//! bit-energy model shared by every crate in the `fabric-power` workspace —
//! a Rust reproduction of *"Analysis of Power Consumption on Switch Fabrics
//! in Network Routers"* (Ye, Benini, De Micheli, DAC 2002).
//!
//! The crate provides three things:
//!
//! 1. **Units** ([`units`]): strongly-typed energy, capacitance, voltage,
//!    power, time and length quantities so the rest of the workspace cannot
//!    mix them up.
//! 2. **Technology parameters** ([`params`]): the 0.18 µm / 3.3 V case-study
//!    process used in the paper.
//! 3. **Wire bit-energy model** ([`wire`]): `E_W_bit = ½·C_W·V²` per polarity
//!    flip, with wire lengths measured in Thompson grids, reproducing the
//!    paper's `E_T_bit ≈ 87 fJ`.
//!
//! # Examples
//!
//! ```
//! use fabric_power_tech::params::Technology;
//! use fabric_power_tech::wire::WireModel;
//!
//! let tech = Technology::tsmc180();
//! // One Thompson grid is the width of a full 32-bit bus: 32 um.
//! assert!((tech.thompson_grid_length().as_meters() - 32e-6).abs() < 1e-15);
//!
//! let wires = WireModel::new(tech);
//! // A bit that flips polarity on a wire one grid long: the paper's E_T_bit.
//! let e = wires.grid_bit_energy();
//! assert!(e.as_femtojoules() > 80.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod constants;
pub mod params;
pub mod units;
pub mod wire;

pub use params::Technology;
pub use units::{Energy, Frequency, Power};
pub use wire::{polarity_flips, WireModel};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexports_are_usable_together() {
        let tech = Technology::default();
        let wires = WireModel::new(tech);
        let total: Energy = (0..4).map(|_| wires.grid_bit_energy()).sum();
        assert!(total > Energy::ZERO);
    }

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Technology>();
        assert_send_sync::<WireModel>();
        assert_send_sync::<Energy>();
        assert_send_sync::<Power>();
    }
}
