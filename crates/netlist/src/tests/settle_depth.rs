//! Property test of the settle depth
//! ([`PackedSimulator::settle_cycles`]): over random netlists without hold
//! cells, two packed simulators with different histories, fed the same
//! `settle` input cycles, agree on every net word — and again one step
//! later, once the sequential state captured during those cycles has
//! reached the nets.  This is what lets characterization skip all but the
//! last `settle` warm-up cycles.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use super::random_netlist;
use crate::cells::CellKind;
use crate::library::CellLibrary;
use crate::netlist::Netlist;
use crate::packed::PackedSimulator;
use crate::schedule::EvalSchedule;
use crate::sim::EnergyTables;

/// One fully counted step that writes every primary input's word.
fn drive_all(sim: &mut PackedSimulator<'_>, words: &[u64]) {
    sim.step(!0, |inputs| inputs.set_run(0, words.iter().copied()));
}

/// Every net's lane word, in net order.
fn net_words(netlist: &Netlist, sim: &PackedSimulator<'_>) -> Vec<u64> {
    netlist.nets().map(|(net, _)| sim.net_word(net)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn simulators_with_different_histories_agree_after_the_settle_depth(
        seed in any::<u64>(),
        cells in 15_usize..48,
        history_a in 0_usize..8,
        history_b in 1_usize..8,
    ) {
        let kinds: Vec<CellKind> = CellKind::ALL
            .into_iter()
            .filter(|kind| !kind.holds_output_when_disabled())
            .collect();
        let netlist = random_netlist(seed, cells, &kinds);
        let library = CellLibrary::calibrated_018um();
        let pi_count = netlist.primary_inputs().len();
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5E77_1E00);
        let mut random_inputs = || -> Vec<u64> { (0..pi_count).map(|_| rng.gen()).collect() };

        let schedule = EvalSchedule::compile(&netlist).unwrap();
        let tables = EnergyTables::new(&netlist, &library);
        let mut a = PackedSimulator::new(&schedule, &tables);
        let mut b = PackedSimulator::new(&schedule, &tables);
        let settle = a
            .settle_cycles()
            .expect("a netlist without hold cells or sequential loops settles");
        // `a` may still be in its reset state; `b` has seen at least one
        // cycle of its own random inputs.
        for _ in 0..history_a {
            drive_all(&mut a, &random_inputs());
        }
        for _ in 0..history_b {
            drive_all(&mut b, &random_inputs());
        }
        for _ in 0..settle {
            let inputs = random_inputs();
            drive_all(&mut a, &inputs);
            drive_all(&mut b, &inputs);
        }
        prop_assert_eq!(net_words(&netlist, &a), net_words(&netlist, &b));
        // One more shared step drives the sequential outputs from the state
        // both captured at the end of the last settle cycle.
        let inputs = random_inputs();
        drive_all(&mut a, &inputs);
        drive_all(&mut b, &inputs);
        prop_assert_eq!(net_words(&netlist, &a), net_words(&netlist, &b));
    }
}
