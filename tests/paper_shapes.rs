//! The qualitative shapes of the paper's evaluation (§6, Figures 9 and 10):
//! who wins, how curves grow, and how the ordering changes with fabric size.
//! Absolute numbers are not compared — the substrate is a simulator, not the
//! authors' testbed — but every published observation must hold.

use fabric_power_core::prelude::*;
use fabric_power_tech::constants::{PAPER_FC_VS_BATCHER_GAP_32X32, PAPER_FC_VS_BATCHER_GAP_4X4};

fn shape_config(port_counts: Vec<usize>, offered_loads: Vec<f64>) -> ExperimentConfig {
    ExperimentConfig {
        port_counts,
        offered_loads,
        warmup_cycles: 200,
        measure_cycles: 1500,
        ..ExperimentConfig::paper()
    }
}

#[test]
fn observation1_banyan_buffer_penalty_grows_superlinearly() {
    let config = shape_config(vec![16], vec![0.10, 0.30, 0.50]);
    let sweep = ThroughputSweep::run(&config).expect("sweep");
    let curve = sweep.curve(Architecture::Banyan, 16);

    // The Banyan's power grows faster than linearly with *measured*
    // throughput (Figure 9's x-axis), driven by the buffer share of the
    // energy.  Offered load cannot be the x-axis here: at 50% offered load
    // the 16x16 Banyan already saturates (internal blocking caps the egress
    // throughput below the offered rate), which flattens power per unit of
    // offered load even while the cost per delivered word keeps climbing.
    let p10 = curve[0].power.as_watts();
    let p30 = curve[1].power.as_watts();
    let p50 = curve[2].power.as_watts();
    let t10 = curve[0].measured_throughput;
    let t30 = curve[1].measured_throughput;
    let t50 = curve[2].measured_throughput;
    // Guard the slope denominators: if throughput ever plateaus (or dips)
    // between these loads, the slope comparison below would be
    // ill-conditioned rather than meaningfully failing.
    assert!(
        t10 < t30 && t30 < t50,
        "throughput must still increase between these loads: {t10:.3}, {t30:.3}, {t50:.3}"
    );
    let low_slope = (p30 - p10) / (t30 - t10);
    let high_slope = (p50 - p30) / (t50 - t30);
    assert!(
        high_slope > low_slope,
        "banyan power growth per unit throughput should accelerate: \
         {low_slope:.1} W vs {high_slope:.1} W per unit throughput \
         (powers {p10}, {p30}, {p50} at throughputs {t10:.3}, {t30:.3}, {t50:.3})"
    );
    let share = |point: &SweepPoint| {
        point.buffer_energy / (point.buffer_energy + point.switch_energy + point.wire_energy)
    };
    assert!(share(curve[2]) > share(curve[0]));
    assert!(curve[2].buffered_words > curve[0].buffered_words);
}

#[test]
fn observation1_banyan_ranking_flips_between_low_and_high_load_at_32x32() {
    // Paper §6: at 32x32 the Banyan is the cheapest fabric at low throughput
    // and loses that lead as the buffer penalty sets in. Our streaming
    // contention model buffers a larger fraction of words at a given
    // offered load than the paper's platform, so the crossover happens at a
    // lower load: the ledger's `§6 obs. 1` row (`conform`, tests/conform.rs)
    // records the 32x32 Banyan as cheapest at no load of the 10-50% grid,
    // with its suspected cause. The ranking flip itself must be there:
    // at 5% load the Banyan beats the multistage and MUX fabrics, at 50% it
    // is the most expensive fabric of all four.
    let config = ExperimentConfig {
        port_counts: vec![32],
        offered_loads: vec![0.05, 0.50],
        warmup_cycles: 150,
        measure_cycles: 900,
        ..ExperimentConfig::paper()
    };
    let sweep = ThroughputSweep::run(&config).expect("sweep");
    let power = |architecture, load| {
        sweep
            .power(architecture, 32, load)
            .expect("simulated point")
            .as_watts()
    };
    assert!(power(Architecture::Banyan, 0.05) < power(Architecture::FullyConnected, 0.05));
    assert!(power(Architecture::Banyan, 0.05) < power(Architecture::BatcherBanyan, 0.05));
    for other in [
        Architecture::Crossbar,
        Architecture::FullyConnected,
        Architecture::BatcherBanyan,
    ] {
        assert!(
            power(Architecture::Banyan, 0.50) > power(other, 0.50),
            "at 50% load the Banyan must be the most expensive fabric (vs {other})"
        );
    }
}

#[test]
fn observation2_fully_connected_wins_and_gap_to_batcher_narrows() {
    let config = shape_config(vec![4, 16], vec![0.50]);
    let sweep = PortSweep {
        offered_load: 0.50,
        points: ThroughputSweep::run(&config).expect("sweep").points,
    };

    for &ports in &[4, 16] {
        let fully = sweep
            .power(Architecture::FullyConnected, ports)
            .expect("fully connected");
        let batcher = sweep
            .power(Architecture::BatcherBanyan, ports)
            .expect("batcher");
        let crossbar = sweep
            .power(Architecture::Crossbar, ports)
            .expect("crossbar");
        assert!(
            fully < batcher,
            "{ports} ports: FC {fully} vs Batcher {batcher}"
        );
        assert!(
            fully < crossbar,
            "{ports} ports: FC {fully} vs Crossbar {crossbar}"
        );
    }

    let gap_small = sweep.fully_connected_vs_batcher_gap(4).expect("gap at 4");
    let gap_large = sweep.fully_connected_vs_batcher_gap(16).expect("gap at 16");
    assert!(
        gap_small > gap_large,
        "gap should narrow with size: {gap_small:.2} -> {gap_large:.2} (paper: {PAPER_FC_VS_BATCHER_GAP_4X4:.2} -> {PAPER_FC_VS_BATCHER_GAP_32X32:.2})"
    );
}

#[test]
fn observation3_contention_free_fabrics_grow_roughly_linearly() {
    let config = shape_config(vec![8], vec![0.10, 0.30, 0.50]);
    let sweep = ThroughputSweep::run(&config).expect("sweep");
    for architecture in [
        Architecture::Crossbar,
        Architecture::FullyConnected,
        Architecture::BatcherBanyan,
    ] {
        let curve = sweep.curve(architecture, 8);
        let p10 = curve[0].power.as_watts();
        let p30 = curve[1].power.as_watts();
        let p50 = curve[2].power.as_watts();
        // Linear growth: the 10%→30% increment and the 30%→50% increment are
        // within 40% of each other, and power at 50% is roughly 5x power at 10%.
        let first = p30 - p10;
        let second = p50 - p30;
        assert!(
            (second - first).abs() < 0.4 * first.max(second),
            "{architecture}: increments {first} vs {second}"
        );
        let ratio = p50 / p10;
        assert!(
            (3.0..=7.5).contains(&ratio),
            "{architecture}: p50/p10 = {ratio:.2}"
        );
    }
}

#[test]
fn buffer_penalty_vs_wire_energy_scale() {
    // Table 2 vs the 87 fJ grid energy: storing a bit costs three orders of
    // magnitude more than moving it across one Thompson grid — the root cause
    // of every Banyan observation.
    let model = FabricEnergyModel::paper(32).expect("model");
    let ratio = model.buffer_bit_energy() / model.grid_bit_energy();
    assert!(ratio > 1000.0, "buffer/wire ratio {ratio}");
}

#[test]
fn banyan_advantage_extends_to_higher_loads_at_larger_sizes() {
    // Paper: at 32x32 the Banyan stays the cheapest fabric up to ~35% load
    // because the other fabrics' interconnect energy grows faster with N than
    // the Banyan's buffer penalty. We check the direction of the effect by
    // comparing the highest load at which the Banyan is still cheapest for a
    // small and a larger fabric.
    let config = shape_config(vec![4, 16], vec![0.10, 0.20, 0.30, 0.40, 0.50]);
    let sweep = ThroughputSweep::run(&config).expect("sweep");
    let highest_cheapest_load = |ports: usize| -> f64 {
        config
            .offered_loads
            .iter()
            .copied()
            .filter(|&load| sweep.cheapest(ports, load) == Some(Architecture::Banyan))
            .fold(0.0, f64::max)
    };
    let small = highest_cheapest_load(4);
    let large = highest_cheapest_load(16);
    assert!(
        large >= small,
        "banyan should stay cheapest to higher loads as the fabric grows: {small} vs {large}"
    );
}
