//! Closed-form worst-case bit-energy equations (paper §4, Eq. 3–6).
//!
//! These are the analytical counterparts of the bit-level simulation: the
//! energy one bit consumes end-to-end through each fabric, assuming the
//! worst-case (longest) interconnect path and — for the Banyan — an explicit
//! choice of which stages suffer contention (the `qᵢ` indicators of Eq. 5).

use serde::{Deserialize, Serialize};

use fabric_power_netlist::SwitchClass;
use fabric_power_tech::units::Energy;
use fabric_power_thompson::wirelength;

use crate::architecture::Architecture;
use crate::energy_model::FabricEnergyModel;

/// Eq. 3 — crossbar worst-case bit energy:
/// `E = N·E_S_bit + 8N·E_T_bit`.
#[must_use]
pub fn crossbar_bit_energy(model: &FabricEnergyModel) -> Energy {
    let n = model.ports();
    model.switch_bit_energy(SwitchClass::CrossbarCrosspoint, 1) * n as f64
        + model.wire_bit_energy(wirelength::crossbar_bit_wire_grids(n))
}

/// Eq. 4 — fully-connected worst-case bit energy:
/// `E = E_S_bit(MUX_N) + ½·N²·E_T_bit`.
#[must_use]
pub fn fully_connected_bit_energy(model: &FabricEnergyModel) -> Energy {
    let n = model.ports();
    model.switch_bit_energy(SwitchClass::Mux { inputs: n }, 1)
        + model.wire_bit_energy(wirelength::fully_connected_bit_wire_grids(n))
}

/// Eq. 5 — Banyan worst-case bit energy:
/// `E = Σ qᵢ·E_B_bit + 4·Σ 2ⁱ·E_T_bit + n·E_S_bit`,
/// where `qᵢ = 1` when the bit's packet is buffered at stage `i`.
///
/// `contended_stages` is the number of stages at which the packet loses
/// arbitration (0 ≤ `contended_stages` ≤ `log2(N)`); Eq. 5's `qᵢ` sum is
/// simply that count.
///
/// # Panics
///
/// Panics if `contended_stages` exceeds the number of stages.
#[must_use]
pub fn banyan_bit_energy(model: &FabricEnergyModel, contended_stages: u32) -> Energy {
    let n = model.ports();
    let stages = wirelength::banyan_stages(n);
    assert!(
        contended_stages <= stages,
        "a {n}-port Banyan has only {stages} stages"
    );
    model.buffer_bit_energy() * f64::from(contended_stages)
        + model.wire_bit_energy(wirelength::banyan_bit_wire_grids(n))
        + model.switch_bit_energy(SwitchClass::BanyanBinary, 1) * f64::from(stages)
}

/// Eq. 6 — Batcher-Banyan worst-case bit energy:
/// `E = 4·ΣΣ 2ⁱ·E_T + 4·Σ 2ⁱ·E_T + ½·n(n+1)·E_SS_bit + n·E_SB_bit`.
#[must_use]
pub fn batcher_banyan_bit_energy(model: &FabricEnergyModel) -> Energy {
    let n = model.ports();
    let stages = wirelength::banyan_stages(n);
    model.wire_bit_energy(wirelength::batcher_banyan_bit_wire_grids(n))
        + model.switch_bit_energy(SwitchClass::BatcherSorting, 1)
            * wirelength::batcher_sorting_stages(n) as f64
        + model.switch_bit_energy(SwitchClass::BanyanBinary, 1) * f64::from(stages)
}

/// Dispatches the worst-case bit energy of any architecture.
///
/// `banyan_contended_stages` is only used by [`Architecture::Banyan`].
#[must_use]
pub fn worst_case_bit_energy(
    architecture: Architecture,
    model: &FabricEnergyModel,
    banyan_contended_stages: u32,
) -> Energy {
    match architecture {
        Architecture::Crossbar => crossbar_bit_energy(model),
        Architecture::FullyConnected => fully_connected_bit_energy(model),
        Architecture::Banyan => banyan_bit_energy(model, banyan_contended_stages),
        Architecture::BatcherBanyan => batcher_banyan_bit_energy(model),
    }
}

/// One row of the analytic-model comparison: the worst-case bit energy of
/// every architecture at one port count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalyticRow {
    /// Fabric port count.
    pub ports: usize,
    /// Crossbar bit energy (Eq. 3).
    pub crossbar: Energy,
    /// Fully-connected bit energy (Eq. 4).
    pub fully_connected: Energy,
    /// Banyan bit energy without contention (Eq. 5, all `qᵢ = 0`).
    pub banyan_uncontended: Energy,
    /// Banyan bit energy with every stage contended (Eq. 5, all `qᵢ = 1`).
    pub banyan_fully_contended: Energy,
    /// Batcher-Banyan bit energy (Eq. 6).
    pub batcher_banyan: Energy,
}

/// Computes the analytic comparison for a list of port counts using the
/// paper-reference energy model, obtained through the process-wide shared
/// [`crate::provider::ModelProvider`].
///
/// # Errors
///
/// Propagates [`crate::energy_model::EnergyModelError`] for invalid port
/// counts.
pub fn analytic_table(
    port_counts: &[usize],
) -> Result<Vec<AnalyticRow>, crate::energy_model::EnergyModelError> {
    analytic_table_with_provider(port_counts, &crate::provider::ModelProvider::shared())
}

/// [`analytic_table`] with an explicit model provider — the entry point for
/// callers that share a provider (and possibly an on-disk model cache)
/// across several experiments.
///
/// # Errors
///
/// Propagates [`crate::energy_model::EnergyModelError`] for invalid port
/// counts.
pub(crate) fn analytic_table_with_provider(
    port_counts: &[usize],
    provider: &crate::provider::ModelProvider,
) -> Result<Vec<AnalyticRow>, crate::energy_model::EnergyModelError> {
    port_counts
        .iter()
        .map(|&ports| {
            let model = provider.get(&crate::provider::ModelSpec::paper(ports))?;
            let stages = wirelength::banyan_stages(ports);
            Ok(AnalyticRow {
                ports,
                crossbar: crossbar_bit_energy(&model),
                fully_connected: fully_connected_bit_energy(&model),
                banyan_uncontended: banyan_bit_energy(&model, 0),
                banyan_fully_contended: banyan_bit_energy(&model, stages),
                batcher_banyan: batcher_banyan_bit_energy(&model),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(ports: usize) -> FabricEnergyModel {
        FabricEnergyModel::paper(ports).unwrap()
    }

    #[test]
    fn crossbar_matches_hand_computation() {
        // N = 4: 4·220 fJ + 32·87 fJ = 880 + 2784 = 3664 fJ.
        let e = crossbar_bit_energy(&model(4));
        assert!((e.as_femtojoules() - 3664.0).abs() < 1e-6);
    }

    #[test]
    fn fully_connected_matches_hand_computation() {
        // N = 4: 431 fJ + 8·87 fJ = 1127 fJ.
        let e = fully_connected_bit_energy(&model(4));
        assert!((e.as_femtojoules() - 1127.0).abs() < 1e-6);
    }

    #[test]
    fn banyan_matches_hand_computation() {
        // N = 4, no contention: 12·87 + 2·1080 = 1044 + 2160 = 3204 fJ.
        let e = banyan_bit_energy(&model(4), 0);
        assert!((e.as_femtojoules() - 3204.0).abs() < 1e-6);
        // Each contended stage adds one 140 pJ buffer access — the buffer
        // penalty dwarfs everything else.
        let contended = banyan_bit_energy(&model(4), 1);
        assert!((contended.as_picojoules() - (3.204 + 140.0)).abs() < 1e-3);
    }

    #[test]
    fn batcher_banyan_matches_hand_computation() {
        // N = 4: wires (16+12)·87 = 2436 fJ; switches 3·1253 + 2·1080 = 5919 fJ.
        let e = batcher_banyan_bit_energy(&model(4));
        assert!((e.as_femtojoules() - (2436.0 + 5919.0)).abs() < 1e-6);
    }

    #[test]
    fn uncontended_banyan_is_cheapest_multihop_fabric() {
        for ports in [4, 8, 16, 32] {
            let m = model(ports);
            let banyan = banyan_bit_energy(&m, 0);
            assert!(banyan < batcher_banyan_bit_energy(&m));
            assert!(banyan < crossbar_bit_energy(&m));
        }
    }

    #[test]
    fn contention_erases_the_banyan_advantage() {
        // One buffered stage already makes the Banyan the most expensive path
        // — the paper's central observation about the buffer penalty.
        let m = model(16);
        assert!(banyan_bit_energy(&m, 1) > crossbar_bit_energy(&m));
        assert!(banyan_bit_energy(&m, 1) > batcher_banyan_bit_energy(&m));
    }

    #[test]
    fn fully_connected_beats_batcher_banyan_at_every_size() {
        for ports in [4, 8, 16, 32] {
            let m = model(ports);
            let fully = fully_connected_bit_energy(&m);
            assert!(fully < batcher_banyan_bit_energy(&m));
        }
    }

    #[test]
    fn fully_connected_vs_crossbar_crossover_in_the_worst_case_model() {
        // The fully-connected ½·N² wire term overtakes the crossbar's 8N at
        // N = 32: beyond that size the broadcast-bus wiring dominates, which
        // is exactly the paper's §6 remark that interconnect power gradually
        // dominates for large fabrics.
        for ports in [4, 8, 16] {
            let m = model(ports);
            assert!(fully_connected_bit_energy(&m) < crossbar_bit_energy(&m));
        }
        let m32 = model(32);
        assert!(fully_connected_bit_energy(&m32) > crossbar_bit_energy(&m32));
    }

    #[test]
    fn fully_connected_vs_batcher_gap_narrows_with_ports() {
        // Paper §6 observation 2: the relative gap shrinks as N grows because
        // interconnect power starts to dominate.
        let gap = |ports: usize| {
            let m = model(ports);
            let fully = fully_connected_bit_energy(&m);
            let batcher = batcher_banyan_bit_energy(&m);
            (batcher - fully) / batcher
        };
        assert!(gap(4) > gap(32));
    }

    #[test]
    fn dispatcher_agrees_with_direct_calls() {
        let m = model(8);
        assert_eq!(
            worst_case_bit_energy(Architecture::Crossbar, &m, 0),
            crossbar_bit_energy(&m)
        );
        assert_eq!(
            worst_case_bit_energy(Architecture::Banyan, &m, 2),
            banyan_bit_energy(&m, 2)
        );
        assert_eq!(
            worst_case_bit_energy(Architecture::BatcherBanyan, &m, 0),
            batcher_banyan_bit_energy(&m)
        );
    }

    #[test]
    fn analytic_table_covers_all_requested_sizes() {
        let table = analytic_table(&[4, 8, 16, 32]).unwrap();
        assert_eq!(table.len(), 4);
        for row in &table {
            assert!(row.banyan_fully_contended > row.banyan_uncontended);
            assert!(row.fully_connected < row.batcher_banyan);
        }
        assert!(analytic_table(&[5]).is_err());
    }

    #[test]
    fn analytic_table_reuses_one_model_per_size_via_the_provider() {
        let provider = crate::provider::ModelProvider::in_memory();
        let first = analytic_table_with_provider(&[4, 8], &provider).unwrap();
        let second = analytic_table_with_provider(&[4, 8], &provider).unwrap();
        assert_eq!(first, second);
        let stats = provider.stats();
        assert_eq!(stats.builds, 2, "one build per unique size");
        assert_eq!(stats.memory_hits, 2, "the second table is all memo hits");
    }

    #[test]
    #[should_panic(expected = "has only")]
    fn too_many_contended_stages_panics() {
        let _ = banyan_bit_energy(&model(4), 3);
    }
}
