//! Property tests of the netlist engines on random netlists: the packed
//! engine against the scalar oracle ([`crate::sim::Simulator`]), the held
//! compile against the plain one, a partial input drive against a full one,
//! and the settle depth.

mod held_collapse;
mod packed_equivalence;
mod partial_drive;
mod passes_equivalence;
mod settle_depth;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::cells::CellKind;
use crate::library::CellLibrary;
use crate::lut::SwitchEnergyLut;
use crate::netlist::{NetId, Netlist};
use crate::sim::ActivityReport;

#[test]
fn public_types_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Netlist>();
    assert_send_sync::<CellLibrary>();
    assert_send_sync::<SwitchEnergyLut>();
    assert_send_sync::<ActivityReport>();
}

/// Builds a random acyclic netlist with `cells` cells of the given `kinds`.
/// The input pool holds four primary inputs; about one cell in four
/// duplicates the previous cell's kind and inputs; three nets are neither
/// driven nor read.  The cells cycle through `kinds`, so any netlist with
/// at least `kinds.len()` cells covers all of them (pass [`CellKind::ALL`]
/// for the whole cell vocabulary); inputs are drawn only from
/// already-created nets, which keeps the graph, sequential cells included,
/// a DAG.
pub(crate) fn random_netlist(seed: u64, cells: usize, kinds: &[CellKind]) -> Netlist {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut n = Netlist::new();
    let mut nets: Vec<NetId> = (0..4).map(|_| n.add_input()).collect();
    for _ in 0..3 {
        n.add_net();
    }
    let mut previous: Option<(CellKind, Vec<NetId>)> = None;
    for i in 0..cells {
        let (kind, inputs) = match &previous {
            Some((kind, inputs)) if rng.gen::<u64>() % 4 == 0 => (*kind, inputs.clone()),
            _ => {
                let kind = kinds[i % kinds.len()];
                let inputs: Vec<NetId> = (0..kind.input_count())
                    .map(|_| nets[rng.gen::<u64>() as usize % nets.len()])
                    .collect();
                (kind, inputs)
            }
        };
        let out = n.add_net();
        n.add_cell(kind, &inputs, out).unwrap();
        previous = Some((kind, inputs));
        nets.push(out);
    }
    for net in nets.iter().rev().take(3) {
        n.mark_output(*net).unwrap();
    }
    n
}
