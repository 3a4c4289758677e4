//! Named constants quoted directly from the DAC 2002 paper.
//!
//! These are the published case-study numbers; the rest of the workspace can
//! either re-derive them from first principles (see [`crate::wire::WireModel`]
//! and the `fabric-power-netlist` / `fabric-power-memory` crates) or use them
//! verbatim as a reference dataset.

/// `E_T_bit`: bit energy of a one-Thompson-grid interconnect wire, in
/// femtojoules (paper §5.1, "around 87 × 10⁻¹⁵ joule").
pub const PAPER_GRID_BIT_ENERGY_FJ: f64 = 87.0;

/// Theoretical maximum egress throughput of an input-buffered router under
/// uniform random traffic (paper §6, the classic 58.6 % head-of-line
/// blocking limit).
pub const INPUT_BUFFER_SATURATION_THROUGHPUT: f64 = 0.586;

/// Buffer capacity provisioned at each Banyan node switch, in bits
/// (paper §5.1: "we use 4K bit buffer queue for each Banyan node switch").
pub const BANYAN_NODE_BUFFER_BITS: u64 = 4 * 1024;

/// The port counts evaluated in the paper (4×4, 8×8, 16×16, 32×32).
pub const PAPER_PORT_COUNTS: [usize; 4] = [4, 8, 16, 32];

/// Offered load used in Figure 10 (power vs. number of ports).
pub const FIGURE10_THROUGHPUT: f64 = 0.50;

/// Relative power gap between the fully-connected fabric and Batcher-Banyan
/// at 4×4, 50 % load (paper §6: "decreases from 37 % in 4×4 switches …").
pub const PAPER_FC_VS_BATCHER_GAP_4X4: f64 = 0.37;

/// Relative power gap between the fully-connected fabric and Batcher-Banyan
/// at 32×32, 50 % load (paper §6: "… to 20 % in 32×32 switches").
pub const PAPER_FC_VS_BATCHER_GAP_32X32: f64 = 0.20;

/// Offered load below which the 32×32 Banyan is the lowest-power fabric
/// (paper §6 observation 1: "less than 35 %").
pub const PAPER_BANYAN_32X32_CROSSOVER: f64 = 0.35;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)] // sanity-pins published values
    fn constants_are_in_sane_ranges() {
        assert!(PAPER_GRID_BIT_ENERGY_FJ > 0.0);
        assert!(INPUT_BUFFER_SATURATION_THROUGHPUT > 0.5);
        assert!(INPUT_BUFFER_SATURATION_THROUGHPUT < 0.6);
        assert_eq!(BANYAN_NODE_BUFFER_BITS, 4096);
        assert!(FIGURE10_THROUGHPUT <= INPUT_BUFFER_SATURATION_THROUGHPUT);
        assert!(PAPER_FC_VS_BATCHER_GAP_32X32 < PAPER_FC_VS_BATCHER_GAP_4X4);
    }

    #[test]
    fn paper_port_counts_are_powers_of_two() {
        for n in PAPER_PORT_COUNTS {
            assert!(n.is_power_of_two(), "{n} is not a power of two");
        }
    }
}
