//! Shared-buffer sizing for Banyan fabrics and the paper's Table 2.
//!
//! The Banyan network needs a buffer at every internal node switch to absorb
//! interconnect contention (internal blocking).  The paper provisions 4 Kbit
//! per node switch and implements the buffers as one shared SRAM per fabric,
//! so the shared memory size — and therefore the per-bit access energy —
//! grows with the fabric size (Table 2: 16 K → 320 K bits, 140 → 222 pJ/bit).

use serde::{Deserialize, Serialize};

use fabric_power_tech::constants::BANYAN_NODE_BUFFER_BITS;
use fabric_power_tech::units::Energy;

use crate::sram::{MemoryModel, MemoryModelError};

/// Number of 2×2 node switches in an `N × N` Banyan network:
/// `(N/2) · log2(N)` (paper §4.3).
///
/// # Panics
///
/// Panics if `ports` is not a power of two or is smaller than 2.
#[must_use]
pub fn banyan_switch_count(ports: usize) -> usize {
    assert!(
        ports >= 2 && ports.is_power_of_two(),
        "a Banyan network needs a power-of-two port count >= 2, got {ports}"
    );
    ports / 2 * ports.trailing_zeros() as usize
}

/// Shared-SRAM capacity of an `N × N` Banyan fabric, in bits: the paper's
/// 4 Kbit per node switch ([`BANYAN_NODE_BUFFER_BITS`]) times
/// [`banyan_switch_count`].
///
/// # Panics
///
/// Panics if `ports` is not a power of two or is smaller than 2.
#[must_use]
pub fn shared_buffer_bits(ports: usize) -> u64 {
    banyan_switch_count(ports) as u64 * BANYAN_NODE_BUFFER_BITS
}

/// One row of Table 2: the shared-buffer energy of an `N × N` Banyan fabric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BufferEnergyRow {
    /// Fabric port count (`N` of `N × N`).
    pub ports: usize,
    /// Number of internal node switches.
    pub switches: usize,
    /// Shared SRAM capacity in bits.
    pub shared_sram_bits: u64,
    /// Per-bit buffer energy `E_B_bit`.
    pub bit_energy: Energy,
}

/// The full Table 2: buffer bit energy for the paper's four fabric sizes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2 {
    /// One row per fabric size, smallest first.
    pub rows: Vec<BufferEnergyRow>,
}

impl Table2 {
    /// Computes Table 2 from the structural SRAM model for the given port
    /// counts (use [`fabric_power_tech::constants::PAPER_PORT_COUNTS`] for the
    /// paper's set).
    ///
    /// # Errors
    ///
    /// Propagates [`MemoryModelError`] from the memory model construction.
    pub fn compute(port_counts: &[usize]) -> Result<Self, MemoryModelError> {
        let mut rows = Vec::with_capacity(port_counts.len());
        for &ports in port_counts {
            let shared_sram_bits = shared_buffer_bits(ports);
            rows.push(BufferEnergyRow {
                ports,
                switches: banyan_switch_count(ports),
                shared_sram_bits,
                bit_energy: MemoryModel::shared_buffer(shared_sram_bits)?.buffer_bit_energy(),
            });
        }
        Ok(Self { rows })
    }

    /// The paper's published Table 2 values.
    #[must_use]
    pub fn paper() -> Self {
        let published = [
            (4_usize, 4_usize, 16_u64, 140.0),
            (8, 12, 48, 140.0),
            (16, 32, 128, 154.0),
            (32, 80, 320, 222.0),
        ];
        Self {
            rows: published
                .into_iter()
                .map(|(ports, switches, kbits, pj)| BufferEnergyRow {
                    ports,
                    switches,
                    shared_sram_bits: kbits * 1024,
                    bit_energy: Energy::from_picojoules(pj),
                })
                .collect(),
        }
    }

    /// Looks up the row for a given port count.
    #[must_use]
    pub fn row(&self, ports: usize) -> Option<&BufferEnergyRow> {
        self.rows.iter().find(|r| r.ports == ports)
    }

    /// The buffer bit energy for a port count, if present.
    #[must_use]
    pub fn bit_energy(&self, ports: usize) -> Option<Energy> {
        self.row(ports).map(|r| r.bit_energy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_power_tech::constants::PAPER_PORT_COUNTS;

    #[test]
    fn banyan_switch_counts_match_the_formula() {
        assert_eq!(banyan_switch_count(2), 1);
        assert_eq!(banyan_switch_count(4), 4);
        assert_eq!(banyan_switch_count(8), 12);
        assert_eq!(banyan_switch_count(16), 32);
        assert_eq!(banyan_switch_count(32), 80);
        assert_eq!(banyan_switch_count(64), 192);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_port_count_panics() {
        let _ = banyan_switch_count(6);
    }

    #[test]
    fn shared_capacities_match_paper_table2() {
        assert_eq!(shared_buffer_bits(4), 16 * 1024);
        assert_eq!(shared_buffer_bits(8), 48 * 1024);
        assert_eq!(shared_buffer_bits(16), 128 * 1024);
        assert_eq!(shared_buffer_bits(32), 320 * 1024);
    }

    #[test]
    fn computed_table2_tracks_paper_shape() {
        let computed = Table2::compute(&PAPER_PORT_COUNTS).unwrap();
        let paper = Table2::paper();
        assert_eq!(computed.rows.len(), paper.rows.len());
        // Monotonically non-decreasing bit energy with fabric size.
        for pair in computed.rows.windows(2) {
            assert!(pair[1].bit_energy >= pair[0].bit_energy);
        }
        // Each computed value within 2x of the published one.
        for (ours, theirs) in computed.rows.iter().zip(&paper.rows) {
            assert_eq!(ours.ports, theirs.ports);
            assert_eq!(ours.shared_sram_bits, theirs.shared_sram_bits);
            let ratio = ours.bit_energy / theirs.bit_energy;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "N={}: ours {} vs paper {} (ratio {ratio:.2})",
                ours.ports,
                ours.bit_energy,
                theirs.bit_energy
            );
        }
    }

    #[test]
    fn paper_table2_lookup() {
        let table = Table2::paper();
        assert!((table.bit_energy(32).unwrap().as_picojoules() - 222.0).abs() < 1e-9);
        assert!(table.bit_energy(64).is_none());
        assert_eq!(table.row(16).unwrap().switches, 32);
    }

    #[test]
    fn bigger_fabric_has_costlier_buffer_bit() {
        let energy = |ports| {
            MemoryModel::shared_buffer(shared_buffer_bits(ports))
                .unwrap()
                .buffer_bit_energy()
        };
        let (small, large) = (energy(4), energy(32));
        assert!(large > small);
    }

    #[test]
    fn structural_sram_bit_energies_are_pinned() {
        // `E_B_bit` of the structural SRAM at every size a model can ask
        // for, as f64 bits: 4 and 8 ports reach documents only through the
        // `derived-quick` digest, 128 through the 128-port document, and
        // `conform` prints Table 2 at 0 decimals.
        let pinned: [(usize, u64); 7] = [
            (2, 0x3de1_d48d_1ca8_cc5a),
            (4, 0x3de3_14fd_d838_9db1),
            (8, 0x3de5_035d_7a79_edca),
            (16, 0x3de7_be1e_5b74_dc9a),
            (32, 0x3dec_0eea_0f38_6adc),
            (64, 0x3df1_2783_afd8_0117),
            (128, 0x3df5_de67_ff56_de40),
        ];
        let ports: Vec<usize> = pinned.iter().map(|&(ports, _)| ports).collect();
        let computed = Table2::compute(&ports).unwrap();
        for (row, (ports, bits)) in computed.rows.iter().zip(pinned) {
            assert_eq!(row.ports, ports);
            assert_eq!(
                row.bit_energy.as_joules().to_bits(),
                bits,
                "{ports} ports: {}",
                row.bit_energy
            );
        }
    }
}
