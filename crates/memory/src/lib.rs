//! # fabric-power-memory
//!
//! The internal-buffer energy model of a switch fabric: the `E_B_bit =
//! E_access + E_ref` component of the bit-energy model (paper §3.2, Eq. 1)
//! and the shared-SRAM sizing that produces the paper's Table 2.  The
//! buffer is an SRAM, so `E_ref` is zero.
//!
//! * [`sram`] — a structural SRAM access-energy model of the off-the-shelf
//!   0.18 µm 3.3 V part the paper reads its numbers from; it is that part
//!   whatever technology a derived model is built for;
//! * [`buffers`] — 4 Kbit-per-switch shared-buffer sizing for Banyan fabrics
//!   and the [`buffers::Table2`] dataset (computed and as published).
//!
//! # Examples
//!
//! ```
//! use fabric_power_memory::buffers::{shared_buffer_bits, Table2};
//! use fabric_power_memory::MemoryModel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The shared buffer of a 16x16 Banyan fabric: 32 switches x 4 Kbit.
//! let bits = shared_buffer_bits(16);
//! assert_eq!(bits, 128 * 1024);
//!
//! let memory = MemoryModel::shared_buffer(bits)?;
//! let paper = Table2::paper().bit_energy(16).expect("published value");
//! // Our structural model lands in the same order of magnitude as the paper.
//! let ratio = memory.buffer_bit_energy() / paper;
//! assert!(ratio > 0.5 && ratio < 2.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod buffers;
pub mod sram;

pub use buffers::{banyan_switch_count, shared_buffer_bits, Table2};
pub use sram::MemoryModel;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MemoryModel>();
        assert_send_sync::<Table2>();
    }
}
