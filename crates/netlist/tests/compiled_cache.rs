//! The process-wide compiled-switch memo (`compiled_switch`) behind
//! `characterize_class`: a cached characterization must equal a fresh
//! `characterize_switch` on a newly generated circuit bit for bit, an entry
//! must belong to one library, only the Batcher switch's entries depend on
//! the address bits, and threads racing on a cold entry must agree.
//!
//! Every test here runs in one process and shares the memo, so the tests
//! that need a cold entry use keys no other test requests.

use std::sync::{Arc, Barrier};

use fabric_power_netlist::circuits::switch_circuit;
use fabric_power_netlist::{
    characterize_class, characterize_switch, compiled_switch, CellKind, CellLibrary,
    CharacterizationConfig, SwitchClass, SwitchEnergyLut,
};
use fabric_power_tech::units::Voltage;

/// The ten circuits `table1-mc` characterizes on a 32-bit bus, with the
/// address bits each is requested at: the crosspoint, Banyan and MUXes of
/// the 32-port model, and the Batcher switch of every fabric size.
const TABLE1_MC_CIRCUITS: [(SwitchClass, usize); 10] = [
    (SwitchClass::CrossbarCrosspoint, 5),
    (SwitchClass::BanyanBinary, 5),
    (SwitchClass::BatcherSorting, 2),
    (SwitchClass::BatcherSorting, 3),
    (SwitchClass::BatcherSorting, 4),
    (SwitchClass::BatcherSorting, 5),
    (SwitchClass::Mux { inputs: 4 }, 2),
    (SwitchClass::Mux { inputs: 8 }, 3),
    (SwitchClass::Mux { inputs: 16 }, 4),
    (SwitchClass::Mux { inputs: 32 }, 5),
];

/// Every LUT entry's bit pattern.
fn bits(lut: &SwitchEnergyLut) -> Vec<u64> {
    lut.entries()
        .iter()
        .map(|energy| energy.as_joules().to_bits())
        .collect()
}

/// `characterize_switch` on a freshly generated circuit.
fn fresh(
    class: SwitchClass,
    bus_width: usize,
    address_bits: usize,
    library: &CellLibrary,
    config: &CharacterizationConfig,
) -> SwitchEnergyLut {
    let circuit = switch_circuit(class, bus_width, address_bits).unwrap();
    characterize_switch(&circuit, library, config).unwrap()
}

#[test]
fn cached_characterization_equals_a_fresh_circuit_for_the_table1_mc_set() {
    let library = CellLibrary::calibrated_018um();
    for seed in [0xDAC_2002, 7] {
        let config = CharacterizationConfig {
            seed,
            ..CharacterizationConfig::default()
        };
        for (class, address_bits) in TABLE1_MC_CIRCUITS {
            let expected = fresh(class, 32, address_bits, &library, &config);
            // The first call may compile the entry, the second reads it.
            for call in 1..=2 {
                let cached = characterize_class(class, 32, address_bits, &library, &config)
                    .expect("characterize from the memo");
                assert_eq!(
                    cached, expected,
                    "{class} at {address_bits} address bits, seed {seed:#x}, call {call}"
                );
                assert_eq!(bits(&cached), bits(&expected));
            }
        }
    }
}

#[test]
fn each_library_gets_its_own_entry() {
    let config = CharacterizationConfig::default();
    let calibrated = CellLibrary::calibrated_018um();
    // The same cells at another supply voltage: every pin load costs less.
    let generic = CellLibrary::new(
        "calibrated cells at 1.2 V",
        Voltage::from_volts(1.2),
        CellKind::ALL
            .into_iter()
            .map(|kind| (kind, calibrated.parameters(kind)))
            .collect(),
    );
    let class = SwitchClass::BanyanBinary;
    let ours = characterize_class(class, 32, 5, &calibrated, &config).unwrap();
    let theirs = characterize_class(class, 32, 5, &generic, &config).unwrap();
    assert_eq!(
        bits(&ours),
        bits(&fresh(class, 32, 5, &calibrated, &config))
    );
    assert_eq!(bits(&theirs), bits(&fresh(class, 32, 5, &generic, &config)));
    assert_ne!(bits(&ours), bits(&theirs));
}

#[test]
fn only_the_batcher_entry_depends_on_the_address_bits() {
    let library = CellLibrary::calibrated_018um();
    let entry = |class, address_bits| compiled_switch(class, 32, address_bits, &library).unwrap();
    for class in [
        SwitchClass::CrossbarCrosspoint,
        SwitchClass::BanyanBinary,
        SwitchClass::Mux { inputs: 4 },
    ] {
        assert!(
            Arc::ptr_eq(&entry(class, 2), &entry(class, 5)),
            "{class} must share one entry across address bits"
        );
    }
    let batcher = SwitchClass::BatcherSorting;
    assert!(!Arc::ptr_eq(&entry(batcher, 2), &entry(batcher, 5)));
    // Zero address bits build the one-bit switch, as `switch_circuit` does.
    assert!(Arc::ptr_eq(&entry(batcher, 0), &entry(batcher, 1)));
}

#[test]
fn threads_racing_on_a_cold_entry_get_identical_luts() {
    // An 11-bit bus: no other test requests this key.
    let class = SwitchClass::Mux { inputs: 8 };
    let library = CellLibrary::calibrated_018um();
    let config = CharacterizationConfig::quick();
    let start = Barrier::new(4);
    let raced: Vec<_> = std::thread::scope(|scope| {
        let racers: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    let lut = characterize_class(class, 11, 3, &library, &config).unwrap();
                    (lut, compiled_switch(class, 11, 3, &library).unwrap())
                })
            })
            .collect();
        racers
            .into_iter()
            .map(|racer| racer.join().unwrap())
            .collect()
    });
    let expected = bits(&fresh(class, 11, 3, &library, &config));
    for (lut, entry) in &raced {
        assert_eq!(bits(lut), expected);
        // Whoever compiled, one entry was kept.
        assert!(Arc::ptr_eq(entry, &raced[0].1));
    }
}
