//! Plain-text rendering of the reproduced tables.
//!
//! The `fabric-power-bench` binaries print Table 1, Table 2 and the Eq. 3–6
//! worst-case energies through these helpers, so every table has one
//! canonical textual form.  Figures 9 and 10 are sweep documents, rendered
//! by `fabric_power_sweep::report::format_document` (`fabric-power report`).

use std::fmt::Write as _;

use fabric_power_fabric::AnalyticRow;
use fabric_power_memory::Table2;
use fabric_power_netlist::Table1;

/// Renders Table 1 (node-switch bit energy per input vector) side by side
/// with the paper's published values.
#[must_use]
pub fn format_table1(ours: &Table1, paper: &Table1) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1 — node-switch bit energy (fJ per bit slot), characterized vs. paper"
    );
    let _ = writeln!(
        out,
        "{:<28} {:>10} {:>14} {:>12}",
        "switch / input vector", "ours (fJ)", "paper (fJ)", "ratio"
    );
    let mut row = |label: &str, ours_fj: f64, paper_fj: f64| {
        let ratio = if paper_fj > 0.0 {
            ours_fj / paper_fj
        } else {
            f64::NAN
        };
        let _ = writeln!(
            out,
            "{label:<28} {ours_fj:>10.0} {paper_fj:>14.0} {ratio:>12.2}"
        );
    };
    row(
        "crosspoint [1]",
        ours.crosspoint.single_active().as_femtojoules(),
        paper.crosspoint.single_active().as_femtojoules(),
    );
    row(
        "banyan 2x2 [0,1]",
        ours.banyan_binary.single_active().as_femtojoules(),
        paper.banyan_binary.single_active().as_femtojoules(),
    );
    row(
        "banyan 2x2 [1,1]",
        ours.banyan_binary
            .energy_for_active_count(2)
            .as_femtojoules(),
        paper
            .banyan_binary
            .energy_for_active_count(2)
            .as_femtojoules(),
    );
    row(
        "batcher 2x2 [0,1]",
        ours.batcher_sorting.single_active().as_femtojoules(),
        paper.batcher_sorting.single_active().as_femtojoules(),
    );
    row(
        "batcher 2x2 [1,1]",
        ours.batcher_sorting
            .energy_for_active_count(2)
            .as_femtojoules(),
        paper
            .batcher_sorting
            .energy_for_active_count(2)
            .as_femtojoules(),
    );
    for (ours_mux, paper_mux) in ours.muxes.iter().zip(&paper.muxes) {
        let inputs = ours_mux.ports();
        row(
            &format!("{inputs}-input MUX"),
            ours_mux.energy_for_active_count(inputs).as_femtojoules(),
            paper_mux.single_active().as_femtojoules(),
        );
    }
    out
}

/// Renders Table 2 (Banyan shared-buffer bit energy) computed vs. paper.
#[must_use]
pub fn format_table2(computed: &Table2, paper: &Table2) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 2 — Banyan shared-buffer bit energy, computed vs. paper"
    );
    let _ = writeln!(
        out,
        "{:>6} {:>10} {:>12} {:>14} {:>14} {:>8}",
        "N", "switches", "SRAM (Kbit)", "ours (pJ)", "paper (pJ)", "ratio"
    );
    for (ours, theirs) in computed.rows.iter().zip(&paper.rows) {
        let ratio = ours.bit_energy / theirs.bit_energy;
        let _ = writeln!(
            out,
            "{:>6} {:>10} {:>12} {:>14.0} {:>14.0} {:>8.2}",
            ours.ports,
            ours.switches,
            ours.shared_sram_bits / 1024,
            ours.bit_energy.as_picojoules(),
            theirs.bit_energy.as_picojoules(),
            ratio
        );
    }
    out
}

/// Renders the analytic worst-case bit-energy comparison (Eq. 3–6).
#[must_use]
pub fn format_analytic_table(rows: &[AnalyticRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Worst-case bit energy per architecture (Eq. 3-6), in pJ/bit"
    );
    let _ = writeln!(
        out,
        "{:>6} {:>12} {:>16} {:>18} {:>22} {:>16}",
        "N", "crossbar", "fully connected", "banyan (q=0)", "banyan (all q=1)", "batcher-banyan"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:>6} {:>12.2} {:>16.2} {:>18.2} {:>22.2} {:>16.2}",
            row.ports,
            row.crossbar.as_picojoules(),
            row.fully_connected.as_picojoules(),
            row.banyan_uncontended.as_picojoules(),
            row.banyan_fully_contended.as_picojoules(),
            row.batcher_banyan.as_picojoules()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_power_fabric::analytic::analytic_table;

    #[test]
    fn table_renderers_include_headline_values() {
        let paper = Table1::paper();
        let table1 = format_table1(&paper, &paper);
        assert!(table1.contains("1080"));
        assert!(table1.contains("32-input MUX"));

        let table2 = format_table2(&Table2::paper(), &Table2::paper());
        assert!(table2.contains("222"));
        assert!(table2.contains("320"));
    }

    #[test]
    fn analytic_table_renders_every_size() {
        let rows = analytic_table(&[4, 8, 16, 32]).unwrap();
        let text = format_analytic_table(&rows);
        assert!(text.contains("32"));
        assert!(text.contains("batcher-banyan"));
    }
}
