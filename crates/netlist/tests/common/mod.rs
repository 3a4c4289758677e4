//! Random netlist generator shared by the engine-equivalence property tests.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use fabric_power_netlist::cells::CellKind;
use fabric_power_netlist::netlist::{NetId, Netlist};

/// Builds a random acyclic netlist with `cells` cells of the given `kinds`.
/// The input pool holds four primary inputs and two constant nets; about
/// one cell in four duplicates the previous cell's kind and inputs; three
/// nets are neither driven nor read.  The cells cycle through `kinds`, so
/// any netlist with at least `kinds.len()` cells covers all of them (pass
/// [`CellKind::ALL`] for the whole cell vocabulary); inputs are drawn only
/// from already-created nets, which keeps the graph, sequential cells
/// included, a DAG.
pub fn random_netlist(seed: u64, cells: usize, kinds: &[CellKind]) -> Netlist {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut n = Netlist::new("prop");
    let mut nets: Vec<NetId> = (0..4).map(|i| n.add_input(format!("pi{i}"))).collect();
    nets.push(n.add_constant("tie0", false));
    nets.push(n.add_constant("tie1", true));
    for i in 0..3 {
        n.add_net(format!("floating{i}"));
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
        let out = n.add_net(format!("n{i}"));
        n.add_cell(format!("c{i}"), kind, &inputs, out).unwrap();
        previous = Some((kind, inputs));
        nets.push(out);
    }
    for net in nets.iter().rev().take(3) {
        n.mark_output(*net).unwrap();
    }
    n
}
