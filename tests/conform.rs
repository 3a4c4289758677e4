//! The paper-conformance ledger (`fabric_power_core::paper`), which the
//! `conform` binary prints and turns into its exit status.
//!
//! The ledger is evaluated once per test binary: it characterizes Table 1
//! at eight stimulus seeds and sweeps the `paper-fig9` grid at five traffic
//! seeds.

use std::sync::OnceLock;

use fabric_power_core::paper::{published_fc_vs_batcher_gap, Ledger, Row};
use fabric_power_fabric::provider::stable_hash_hex;
use fabric_power_sweep::{PortSweep, ScenarioRegistry, ThroughputSweep};
use fabric_power_tech::constants::FIGURE10_THROUGHPUT;

fn ledger() -> &'static Ledger {
    static LEDGER: OnceLock<Ledger> = OnceLock::new();
    LEDGER.get_or_init(|| Ledger::evaluate().expect("ledger"))
}

fn rows(source: &str) -> Vec<&'static Row> {
    ledger()
        .rows
        .iter()
        .filter(|row| row.source == source)
        .collect()
}

#[test]
fn every_row_is_in_its_band_at_every_seed() {
    let ledger = ledger();
    assert_eq!(ledger.rows.len(), 19);
    for row in &ledger.rows {
        let (low, high) = row.band;
        for &ours in &row.ours {
            assert!(
                low <= ours && ours <= high,
                "{}: {ours} is outside {low}..={high}",
                row.label
            );
        }
        let least = row.ours.iter().copied().fold(f64::INFINITY, f64::min);
        let most = row.ours.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            low <= least && most <= high,
            "{}: the band {low}..={high} does not contain the spread {least}..={most}",
            row.label
        );
        assert!(row.holds(), "{}", row.label);
    }
    assert!(ledger.holds());
    // Table 1 over the default stimulus seed and seeds 1-7, the simulated
    // rows over the default traffic seed and seeds 1-4.
    let seeds = |source| {
        rows(source)
            .iter()
            .map(|row| row.ours.len())
            .collect::<Vec<_>>()
    };
    assert_eq!(seeds("Table 1"), [8; 9]);
    assert_eq!(seeds("Table 2"), [1; 4]);
    assert_eq!(seeds("§5.1"), [1]);
    assert_eq!(seeds("Fig. 10"), [5; 2]);
    assert_eq!(seeds("§6 obs. 1"), [5]);
    assert_eq!(seeds("§6 obs. 2"), [5]);
    assert_eq!(seeds("§6"), [5]);
}

/// `conform`'s stdout is the ledger's `Display`; its digest is pinned in
/// `tests/golden/scenario_digests.json` next to the scenario documents'.
#[test]
fn conform_stdout_is_pinned() {
    #[derive(serde::Deserialize)]
    struct Pins {
        conform_stdout: String,
    }
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/scenario_digests.json"
    ))
    .expect("read the golden");
    let pinned = serde_json::from_str::<Pins>(&golden)
        .expect("parse the golden")
        .conform_stdout;
    let stdout = ledger().to_string();
    let digest = stable_hash_hex(stdout.as_bytes());
    if digest != pinned {
        let fresh = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("conform_stdout.txt");
        std::fs::write(&fresh, &stdout).expect("write the fresh stdout");
        panic!(
            "conform's stdout drifted: its digest is {digest} (pinned {pinned}); \
             the fresh stdout is in {}",
            fresh.display()
        );
    }
}

#[test]
fn every_band_that_leaves_out_the_paper_gives_a_reason() {
    for row in &ledger().rows {
        let (low, high) = row.band;
        if !(low <= row.paper && row.paper <= high) {
            assert!(!row.reason.trim().is_empty(), "{}", row.label);
            assert!(row.reason.contains("ROADMAP item 3"), "{}", row.label);
        }
    }
}

#[test]
fn deterministic_rows_print_what_the_table_binaries_printed() {
    // The `table1` binary at the default stimulus seed.
    const TABLE1: &str = "\
crosspoint [1]                       28            220         0.13
banyan 2x2 [0,1]                    279           1080         0.26
banyan 2x2 [1,1]                    368           1821         0.20
batcher 2x2 [0,1]                   240           1253         0.19
batcher 2x2 [1,1]                   412           2025         0.20
4-input MUX                         161            431         0.37
8-input MUX                         295            782         0.38
16-input MUX                        562           1350         0.42
32-input MUX                       1097           2515         0.44
";
    let table1: String = rows("Table 1")
        .iter()
        .map(|row| {
            format!(
                "{:<28} {:>10.0} {:>14.0} {:>12.2}\n",
                row.label,
                row.ours[0],
                row.paper,
                row.ours[0] / row.paper
            )
        })
        .collect();
    assert_eq!(table1, TABLE1);

    // The `table2` binary: N, switches, SRAM Kbit, ours, paper, ratio.
    const TABLE2: &str = "\
     4          4           16            139            140     0.99
     8         12           48            153            140     1.09
    16         32          128            173            154     1.12
    32         80          320            204            222     0.92
";
    let table2 = rows("Table 2");
    assert_eq!(table2.len(), 4);
    for (row, line) in table2.iter().zip(TABLE2.lines()) {
        let columns: Vec<&str> = line.split_whitespace().collect();
        let [ports, switches, kbit, ours, paper, ratio] = columns[..] else {
            panic!("{line}");
        };
        assert_eq!(
            row.label,
            format!("{ports}x{ports}: {switches} switches, {kbit} Kbit")
        );
        assert_eq!(format!("{:.0}", row.ours[0]), ours);
        assert_eq!(format!("{:.0}", row.paper), paper);
        assert_eq!(format!("{:.2}", row.ours[0] / row.paper), ratio);
    }

    // The `wire_energy` binary's E_T_bit line and wire-length table, and
    // the `analytic_model` binary's Eq. 3-6 table, byte for byte.
    let wire = rows("§5.1");
    assert_eq!(
        format!(
            "  E_T_bit              : {:.2} fJ (paper: {} fJ)",
            wire[0].ours[0], wire[0].paper
        ),
        "  E_T_bit              : 87.12 fJ (paper: 87 fJ)"
    );
    let printed = ledger().to_string();
    for block in [
        "\
Worst-case wire lengths per bit, in Thompson grids:
     N   crossbar   fully connected     banyan   batcher-banyan
     4         32                 8         12               28
     8         64                32         28               72
    16        128               128         60              164
    32        256               512        124              352
",
        "\
Worst-case bit energy per architecture (Eq. 3-6), in pJ/bit
     N     crossbar  fully connected       banyan (q=0)       banyan (all q=1)   batcher-banyan
     4         3.66             1.13               3.20                 283.20             8.36
     8         7.33             3.57               5.68                 425.68            17.02
    16        14.66            12.49               9.54                 625.54            31.12
    32        29.31            47.06              16.19                1126.19            54.82
    64        58.62           182.71              28.40                1526.18            96.48
   128       117.25           720.86              51.76                2279.38           172.80
",
    ] {
        assert!(printed.contains(block), "missing:\n{block}\nin:\n{printed}");
    }
}

#[test]
fn figure10_rows_equal_the_registered_paper_fig10_gaps() {
    let registry = ScenarioRegistry::builtin();
    let scenario = registry.get("paper-fig10").expect("registered");
    // The scenario runs the 50% load alone.
    let sweep = PortSweep {
        offered_load: FIGURE10_THROUGHPUT,
        points: ThroughputSweep::run(&scenario.config)
            .expect("sweep")
            .points,
    };
    let figure10 = rows("Fig. 10");
    for (row, ports) in figure10.iter().zip([4, 32]) {
        let gap = sweep.fully_connected_vs_batcher_gap(ports).expect("gap");
        assert_eq!(row.ours[0], gap, "{}", row.label);
        assert_eq!(Some(row.paper), published_fc_vs_batcher_gap(ports));
    }
    // What `report` prints for the default-seed paper-fig10 document.
    let printed: Vec<String> = figure10
        .iter()
        .map(|row| format!("{:.0}%", 100.0 * row.ours[0]))
        .collect();
    assert_eq!(printed, ["88%", "33%"]);
}

#[test]
fn a_row_out_of_its_band_fails_the_verdict() {
    let mut fabricated = ledger().clone();
    assert!(fabricated.holds());
    let row = &mut fabricated.rows[0];
    row.band = (row.ours[0] + 1.0, row.ours[0] + 2.0);
    assert!(!row.holds());
    assert!(!fabricated.holds());
    assert!(fabricated.to_string().contains("FAILS"));

    // A band that leaves out the paper's value needs a reason.
    let mut unexplained = ledger().clone();
    let row = (unexplained.rows.iter_mut())
        .find(|row| row.source == "Table 1")
        .expect("a Table 1 row");
    row.reason = "";
    assert!(!row.holds());
    assert!(!unexplained.holds());
}
