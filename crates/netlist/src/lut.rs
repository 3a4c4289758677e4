//! Bit-energy look-up tables keyed by active-port count (paper §3.1, Table 1).
//!
//! The bit energy of a node switch depends on which of its input ports carry
//! packets.  The paper pre-computes a look-up table per switch with Synopsys
//! Power Compiler; here the table is either produced by
//! [`crate::characterize`] (gate-level simulation of our generated circuits)
//! or loaded from the paper's published Table 1 values so experiments can be
//! reproduced with the original numbers.
//!
//! For every switch in the paper the published energies are symmetric in the
//! port permutation (e.g. `[0,1]` and `[1,0]` are both 1080 fJ), so the table
//! is keyed by the *number* of active ports, which also keeps it tractable
//! for 32-input MUXes where a dense 2³²-entry table would be absurd.

use serde::{Deserialize, Serialize};

use fabric_power_tech::units::Energy;

use crate::circuits::SwitchClass;

/// Bit-energy look-up table for one node-switch class, indexed by the number
/// of active input ports.
///
/// The stored value is the energy the switch consumes **per bit slot** (one
/// bit lane for one clock cycle) while operating with that many packets at
/// its inputs; see [`SwitchEnergyLut::energy_for_active_count`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwitchEnergyLut {
    class: SwitchClass,
    ports: usize,
    /// `by_active_count[k]` = per-bit energy with `k` packets present.
    by_active_count: Vec<Energy>,
    /// Where the numbers came from (characterization vs. paper).
    source: LutSource,
}

/// Provenance of the values in a [`SwitchEnergyLut`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LutSource {
    /// Produced by gate-level characterization of a generated circuit.
    Characterized,
    /// Published Table 1 values from the paper.
    PaperTable1,
}

impl SwitchEnergyLut {
    /// Builds a LUT from per-active-count energies.
    ///
    /// `by_active_count` must contain `ports + 1` entries (0 … all ports
    /// active).
    ///
    /// # Panics
    ///
    /// Panics if the entry count does not match `ports + 1`.
    #[must_use]
    pub(crate) fn from_active_counts(
        class: SwitchClass,
        ports: usize,
        by_active_count: Vec<Energy>,
        source: LutSource,
    ) -> Self {
        assert_eq!(
            by_active_count.len(),
            ports + 1,
            "expected {} entries for a {}-port switch",
            ports + 1,
            ports
        );
        Self {
            class,
            ports,
            by_active_count,
            source,
        }
    }

    /// Number of input ports of the switch.
    #[must_use]
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Per-bit energy given only the number of active ports.
    ///
    /// # Panics
    ///
    /// Panics if `active > ports`.
    #[must_use]
    pub fn energy_for_active_count(&self, active: usize) -> Energy {
        assert!(
            active <= self.ports,
            "{active} active ports exceeds the switch's {} ports",
            self.ports
        );
        self.by_active_count[active]
    }

    /// All stored energies, indexed by active-port count.
    #[must_use]
    pub fn entries(&self) -> &[Energy] {
        &self.by_active_count
    }

    // --- paper reference data ------------------------------------------------

    /// Paper Table 1: crossbar crosspoint, `[0]` → 0 fJ, `[1]` → 220 fJ.
    #[must_use]
    pub fn paper_crossbar_crosspoint() -> Self {
        Self::from_active_counts(
            SwitchClass::CrossbarCrosspoint,
            1,
            vec![Energy::ZERO, Energy::from_femtojoules(220.0)],
            LutSource::PaperTable1,
        )
    }

    /// Paper Table 1: Banyan 2×2 binary switch, 0 / 1080 / 1821 fJ.
    #[must_use]
    pub fn paper_banyan_binary() -> Self {
        Self::from_active_counts(
            SwitchClass::BanyanBinary,
            2,
            vec![
                Energy::ZERO,
                Energy::from_femtojoules(1080.0),
                Energy::from_femtojoules(1821.0),
            ],
            LutSource::PaperTable1,
        )
    }

    /// Paper Table 1: Batcher 2×2 sorting switch, 0 / 1253 / 2025 fJ.
    #[must_use]
    pub fn paper_batcher_sorting() -> Self {
        Self::from_active_counts(
            SwitchClass::BatcherSorting,
            2,
            vec![
                Energy::ZERO,
                Energy::from_femtojoules(1253.0),
                Energy::from_femtojoules(2025.0),
            ],
            LutSource::PaperTable1,
        )
    }

    /// Paper Table 1: N-input MUX bit energy.
    ///
    /// The paper reports 431 / 782 / 1350 / 2515 fJ for N = 4 / 8 / 16 / 32
    /// and notes the value is nearly independent of the input vector; other
    /// port counts are interpolated with the power law fitted through the
    /// published points (`E ≈ 132.9 · N^0.849` fJ).
    ///
    /// # Panics
    ///
    /// Panics if `inputs < 2` or `inputs` is not a power of two.
    #[must_use]
    pub fn paper_mux(inputs: usize) -> Self {
        assert!(
            inputs >= 2 && inputs.is_power_of_two(),
            "the fully-connected MUX requires a power-of-two input count >= 2"
        );
        let femtojoules = match inputs {
            4 => 431.0,
            8 => 782.0,
            16 => 1350.0,
            32 => 2515.0,
            n => 132.9 * (n as f64).powf(0.8485),
        };
        let value = Energy::from_femtojoules(femtojoules);
        // Nearly vector-independent: idle is zero, any occupancy costs the same.
        let mut by_active_count = vec![value; inputs + 1];
        by_active_count[0] = Energy::ZERO;
        Self::from_active_counts(
            SwitchClass::Mux { inputs },
            inputs,
            by_active_count,
            LutSource::PaperTable1,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_banyan_values_match_table1() {
        let lut = SwitchEnergyLut::paper_banyan_binary();
        assert_eq!(lut.energy_for_active_count(0), Energy::ZERO);
        assert!((lut.energy_for_active_count(1).as_femtojoules() - 1080.0).abs() < 1e-9);
        let both = lut.energy_for_active_count(2);
        assert!((both.as_femtojoules() - 1821.0).abs() < 1e-9);
        // Economy of scale: two packets cost less than twice one packet.
        assert!(both < lut.energy_for_active_count(1) * 2.0);
        assert_eq!(lut.source, LutSource::PaperTable1);
    }

    #[test]
    fn paper_batcher_is_costlier_than_banyan() {
        let banyan = SwitchEnergyLut::paper_banyan_binary();
        let batcher = SwitchEnergyLut::paper_batcher_sorting();
        assert!(batcher.energy_for_active_count(1) > banyan.energy_for_active_count(1));
        assert!(batcher.energy_for_active_count(2) > banyan.energy_for_active_count(2));
    }

    #[test]
    fn paper_mux_published_points_and_interpolation() {
        assert!(
            (SwitchEnergyLut::paper_mux(4)
                .energy_for_active_count(1)
                .as_femtojoules()
                - 431.0)
                .abs()
                < 1e-9
        );
        assert!(
            (SwitchEnergyLut::paper_mux(32)
                .energy_for_active_count(1)
                .as_femtojoules()
                - 2515.0)
                .abs()
                < 1e-9
        );
        // Interpolated value lands between the published neighbours.
        let e64 = SwitchEnergyLut::paper_mux(64).energy_for_active_count(1);
        assert!(e64.as_femtojoules() > 2515.0);
        let e2 = SwitchEnergyLut::paper_mux(2).energy_for_active_count(1);
        assert!(e2.as_femtojoules() > 0.0 && e2.as_femtojoules() < 431.0);
        // Monotone in N.
        let mut previous = Energy::ZERO;
        for n in [2, 4, 8, 16, 32, 64, 128] {
            let e = SwitchEnergyLut::paper_mux(n).energy_for_active_count(1);
            assert!(e > previous, "MUX energy must grow with N");
            previous = e;
        }
    }

    #[test]
    fn paper_table1_has_seven_rows() {
        let table = crate::characterize::Table1::paper();
        assert_eq!(3 + table.muxes.len(), 7);
        assert_eq!(table.crosspoint.class, SwitchClass::CrossbarCrosspoint);
        assert_eq!(table.muxes[3].class, SwitchClass::Mux { inputs: 32 });
    }

    #[test]
    fn crosspoint_single_active_is_220_femtojoules() {
        let lut = SwitchEnergyLut::paper_crossbar_crosspoint();
        assert!((lut.energy_for_active_count(1).as_femtojoules() - 220.0).abs() < 1e-9);
        assert_eq!(lut.ports(), 1);
    }

    #[test]
    #[should_panic(expected = "expected 3 entries")]
    fn wrong_entry_count_panics() {
        let _ = SwitchEnergyLut::from_active_counts(
            SwitchClass::BanyanBinary,
            2,
            vec![Energy::ZERO],
            LutSource::PaperTable1,
        );
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn too_many_active_ports_panics() {
        let lut = SwitchEnergyLut::paper_crossbar_crosspoint();
        let _ = lut.energy_for_active_count(2);
    }

    #[test]
    fn serde_round_trip() {
        let lut = SwitchEnergyLut::paper_banyan_binary();
        let json = serde_json::to_string(&lut).expect("serialize");
        let back: SwitchEnergyLut = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(lut, back);
    }
}
