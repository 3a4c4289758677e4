//! The paper-conformance ledger: each number Ye, Benini and De Micheli
//! (DAC 2002) publish, next to ours over fixed seeds (the default first).
//! A band on ours must hold every seed; a band that leaves out the paper's
//! value gives a reason, and nothing is rescaled. The `conform` binary
//! prints the ledger and exits 1 unless it [holds](Ledger::holds).

use std::error::Error;
use std::fmt;

use fabric_power_fabric::analytic::{analytic_table, AnalyticRow};
use fabric_power_fabric::Architecture;
use fabric_power_memory::Table2;
use fabric_power_netlist::{CellLibrary, CharacterizationConfig, Table1};
use fabric_power_sweep::{ExperimentConfig, PortSweep, SweepPoint, ThroughputSweep};
use fabric_power_tech::constants::*;
use fabric_power_tech::{Technology, WireModel};
use fabric_power_thompson::wirelength;

/// The published fully-connected vs. Batcher-Banyan power gaps at 50 % load.
#[must_use]
pub fn published_fc_vs_batcher_gap(ports: usize) -> Option<f64> {
    match ports {
        4 => Some(PAPER_FC_VS_BATCHER_GAP_4X4),
        32 => Some(PAPER_FC_VS_BATCHER_GAP_32X32),
        _ => None,
    }
}

/// Table 1's stimulus seeds and the simulated rows' traffic seeds after the default.
const TABLE1_SEEDS: std::ops::RangeInclusive<u64> = 1..=7;
const TRAFFIC_SEEDS: std::ops::RangeInclusive<u64> = 1..=4;

const TABLE1_REASON: &str = "suspected cause: a net's load is only the input pins it drives, \
    with no wiring; the ratio differs by class, widest at the crosspoint (ROADMAP item 3)";
const MUX_REASON: &str = "ours is the all-active vector (32-input MUX: 1,097-1,103 fJ, and \
    194-197 fJ with one input active); the paper gives one value, nearly independent of the \
    vector, so the all-active comparison is kept; suspected cause of the rest: input-pin-only \
    loads (ROADMAP item 3)";
const GAP_REASON: &str = "suspected cause: the switch terms; Eq. 4 and 6 on the paper's own \
    Table 1 give 0.86 at 4x4 and 0.14 at 32x32 (the Eq. 3-6 table): a 4x4 Batcher-Banyan bit \
    crosses five 2x2 switches (5.9 pJ), a fully-connected bit one 431 fJ MUX (ROADMAP item 3)";
const CROSSOVER_REASON: &str = "suspected cause: a blocked flow keeps streaming into the Banyan \
    buffer, charged per blocked cycle where Eq. 5 charges one access per contended stage; at \
    10% load the 32x32 Banyan draws 501-624 mW, the crossbar 243-253 mW (ROADMAP item 3)";
const CLAIM2_REASON: &str = "at 32x32, 50% load the crossbar (1,213-1,254 mW) undercuts \
    fully-connected (1,656-1,710 mW); suspected cause: the full N^2/2 broadcast bus charged \
    per bit, 512 grids against the crossbar's 256 (the wire-length table; ROADMAP item 3)";

/// The closed interval, `(low, high)`, that ours must lie in at every seed.
pub(crate) type Band = (f64, f64);

/// The rows with a fixed label and published value, in [`fixed_values`]
/// order: source, label, unit, decimals, paper, band, reason. `E_T_bit`'s
/// band is the paper's value ±1%, the saturation row's ±5%. Traffic seeds
/// 0xDAC_2002 and 1-4 give gaps of 0.882-0.884 and 0.332-0.334, no grid load
/// with the 32x32 Banyan cheapest, and a saturation of 0.587-0.600.
#[rustfmt::skip]
const FIXED: [(&str, &str, &str, usize, f64, Band, &str); 6] = [
    ("§5.1", "E_T_bit, one Thompson grid", "fJ", 2, PAPER_GRID_BIT_ENERGY_FJ, (86.13, 87.87), ""),
    ("Fig. 10", "FC vs Batcher-Banyan gap, 4x4, 50% load", "frac", 2, PAPER_FC_VS_BATCHER_GAP_4X4, (0.86, 0.91), GAP_REASON),
    ("Fig. 10", "FC vs Batcher-Banyan gap, 32x32, 50% load", "frac", 2, PAPER_FC_VS_BATCHER_GAP_32X32, (0.32, 0.35), GAP_REASON),
    ("§6 obs. 1", "highest load with the 32x32 Banyan cheapest", "load", 2, PAPER_BANYAN_32X32_CROSSOVER, (0.0, 0.0), CROSSOVER_REASON),
    ("§6 obs. 2", "sizes with fully-connected cheapest, 50% load", "of 4", 0, PAPER_PORT_COUNTS.len() as f64, (3.0, 3.0), CLAIM2_REASON),
    ("§6", "32x32 crossbar throughput, 95% offered", "frac", 3, INPUT_BUFFER_SATURATION_THROUGHPUT, (0.557, 0.615), ""),
];

/// One published number against ours.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Where the paper publishes it (`Table 1`, `Fig. 10`, `§6`, ...).
    pub source: &'static str,
    /// What is compared: switch and input vector, size, or claim.
    pub label: String,
    /// Unit of ours, the paper's value and the band.
    pub unit: &'static str,
    /// Decimals printed for ours, the paper's value and the band.
    pub decimals: usize,
    /// Ours at each seed, the default seed first; one value if deterministic.
    pub ours: Vec<f64>,
    /// The published value.
    pub paper: f64,
    /// The band on ours.
    pub band: Band,
    /// Why the band leaves out the paper's value; empty if it does not.
    pub reason: &'static str,
}

impl Row {
    /// Whether the row conforms: ours lies in the band at every seed, and
    /// the band holds the paper's value or gives a reason.
    #[must_use]
    pub fn holds(&self) -> bool {
        let inside = |v: f64| self.band.0 <= v && v <= self.band.1;
        self.ours.iter().all(|&v| inside(v)) && (inside(self.paper) || !self.reason.is_empty())
    }
}

/// Every published number next to ours, and the Eq. 3–6 derivation.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// Table 1 (9 rows), Table 2 (4), `E_T_bit`, Figure 10 (2) and §6 (3).
    pub rows: Vec<Row>,
    /// The worst-case bit energies of Eq. 3–6 at 4 to 128 ports.
    pub analytic: Vec<AnalyticRow>,
}

impl Ledger {
    /// Characterizes, computes and simulates every row at its seeds.
    ///
    /// # Errors
    ///
    /// Propagates characterization, memory-model and simulation errors.
    pub fn evaluate() -> Result<Self, Box<dyn Error>> {
        let default = CharacterizationConfig::default();
        let tables = (std::iter::once(default.seed).chain(TABLE1_SEEDS))
            .map(|seed| {
                let config = CharacterizationConfig { seed, ..default };
                Table1::characterize(32, 5, &CellLibrary::calibrated_018um(), &config)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut rows = table1_rows(&tables);
        let computed = Table2::compute(&PAPER_PORT_COUNTS)?;
        for (ours, paper) in computed.rows.iter().zip(Table2::paper().rows) {
            let (n, kbit) = (ours.ports, ours.shared_sram_bits / 1024);
            let paper = paper.bit_energy.as_picojoules();
            rows.push(Row {
                source: "Table 2",
                label: format!("{n}x{n}: {} switches, {kbit} Kbit", ours.switches),
                unit: "pJ",
                decimals: 0,
                ours: vec![ours.bit_energy.as_picojoules()],
                paper,
                band: (0.85 * paper, 1.15 * paper),
                reason: "",
            });
        }
        let fixed = FIXED.into_iter().zip(fixed_values()?);
        rows.extend(fixed.map(
            |((source, label, unit, decimals, paper, band, reason), ours)| Row {
                source,
                label: label.into(),
                unit,
                decimals,
                ours,
                paper,
                band,
                reason,
            },
        ));
        let analytic = analytic_table(&[4, 8, 16, 32, 64, 128])?;
        Ok(Self { rows, analytic })
    }

    /// Whether every row holds; `conform` exits 1 when it does not.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.rows.iter().all(Row::holds)
    }
}

/// The Table 1 rows of `tables` (one per stimulus seed, the default first),
/// labelled with their input vector; a MUX row is all inputs active.
#[must_use]
pub fn table1_rows(tables: &[Table1]) -> Vec<Row> {
    // Seeds 0xDAC_2002 and 1-7 spread each entry by 0.6-2.0%; each band is
    // that spread widened by about 3% on either side.
    #[rustfmt::skip]
    const BANDS: [Band; 9] = [
        (27.0, 29.0), (268.0, 290.0), (357.0, 382.0), (228.0, 247.0), (396.0, 425.0),
        (155.0, 166.0), (285.0, 305.0), (545.0, 582.0), (1064.0, 1136.0),
    ];
    let entries = |table: &Table1| {
        let mut luts = vec![
            ("crosspoint [1]".to_string(), &table.crosspoint, 1),
            ("banyan 2x2 [0,1]".into(), &table.banyan_binary, 1),
            ("banyan 2x2 [1,1]".into(), &table.banyan_binary, 2),
            ("batcher 2x2 [0,1]".into(), &table.batcher_sorting, 1),
            ("batcher 2x2 [1,1]".into(), &table.batcher_sorting, 2),
        ];
        for mux in &table.muxes {
            luts.push((format!("{}-input MUX", mux.ports()), mux, mux.ports()));
        }
        (luts.into_iter())
            .map(|(label, lut, active)| (label, lut.energy_for_active_count(active)))
            .collect::<Vec<_>>()
    };
    let ours: Vec<_> = tables.iter().map(entries).collect();
    let rows = entries(&Table1::paper()).into_iter().zip(BANDS).enumerate();
    rows.map(|(i, ((label, paper), band))| {
        let mux = label.ends_with("MUX");
        Row {
            source: "Table 1",
            label,
            unit: "fJ",
            decimals: 0,
            ours: ours.iter().map(|seed| seed[i].1.as_femtojoules()).collect(),
            paper: paper.as_femtojoules(),
            band,
            reason: if mux { MUX_REASON } else { TABLE1_REASON },
        }
    })
    .collect()
}

/// Ours for the [`FIXED`] rows: `E_T_bit`, then per traffic seed the
/// `paper-fig9` grid's 50% column (which is `paper-fig10`), its 32×32
/// size, and a 32×32 crossbar offered 95% load.
fn fixed_values() -> Result<Vec<Vec<f64>>, Box<dyn Error>> {
    let wire = WireModel::new(Technology::tsmc180()).grid_bit_energy();
    let mut ours = vec![vec![wire.as_femtojoules()]];
    ours.resize(FIXED.len(), Vec::new());
    let grid = ExperimentConfig::paper();
    for seed in std::iter::once(grid.seed).chain(TRAFFIC_SEEDS) {
        let mut config = grid.clone();
        config.seed = seed;
        let sweep = ThroughputSweep::run(&config)?;
        let at_half = |p: &&SweepPoint| (FIGURE10_THROUGHPUT - p.offered_load).abs() < 1e-9;
        let points = sweep.points.iter().filter(at_half).cloned().collect();
        let fig10 = PortSweep {
            offered_load: FIGURE10_THROUGHPUT,
            points,
        };
        let gap = |n| fig10.fully_connected_vs_batcher_gap(n).unwrap_or(f64::NAN);
        let cheapest = |ports, load, arch| sweep.cheapest(ports, load) == Some(arch);
        let crossover = (config.offered_loads.iter().copied())
            .filter(|&load| cheapest(32, load, Architecture::Banyan))
            .fold(0.0, f64::max);
        let fc_cheapest = (PAPER_PORT_COUNTS.iter())
            .filter(|&&n| cheapest(n, FIGURE10_THROUGHPUT, Architecture::FullyConnected))
            .count();
        config.port_counts = vec![32];
        config.offered_loads = vec![0.95];
        config.architectures = vec![Architecture::Crossbar];
        let saturated = ThroughputSweep::run(&config)?.points[0].measured_throughput;
        let values = [gap(4), gap(32), crossover, fc_cheapest as f64, saturated];
        for (row, value) in ours[1..].iter_mut().zip(values) {
            row.push(value);
        }
    }
    Ok(ours)
}

/// `low` alone when both print the same, else `low-high`.
fn span(low: f64, high: f64, decimals: usize) -> String {
    let (low, high) = (format!("{low:.decimals$}"), format!("{high:.decimals$}"));
    if low == high {
        return low;
    }
    format!("{low}-{high}")
}

/// Writes `cells` right-aligned in columns of `widths`, one space apart.
fn columns<T: fmt::Display>(
    f: &mut fmt::Formatter<'_>,
    widths: &[usize],
    cells: impl IntoIterator<Item = T>,
) -> fmt::Result {
    for (i, (cell, width)) in cells.into_iter().zip(widths).enumerate() {
        write!(f, "{}{cell:>width$}", if i == 0 { "" } else { " " })?;
    }
    writeln!(f)
}

impl fmt::Display for Ledger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Paper conformance vs. Ye, Benini, De Micheli (DAC 2002); ours is the min-max over \
             Table 1's default stimulus seed and {TABLE1_SEEDS:?}, and the paper-fig9 grid's seed \
             and {TRAFFIC_SEEDS:?}\n\
             source     row                                             unit        ours   \
             paper     ratio        band  verdict"
        )?;
        let mut reasons: Vec<&str> = Vec::new();
        for row in &self.rows {
            if !row.reason.is_empty() && !reasons.contains(&row.reason) {
                reasons.push(row.reason);
            }
            let note = (reasons.iter().position(|&r| r == row.reason))
                .map_or(String::new(), |i| format!(", deviates [{}]", i + 1));
            let low = row.ours.iter().copied().fold(f64::INFINITY, f64::min);
            let high = row.ours.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let d = row.decimals;
            writeln!(
                f,
                "{:<10} {:<46} {:>5} {:>11} {:>7.d$} {:>9} {:>11}  {}{note}",
                row.source,
                row.label,
                row.unit,
                span(low, high, d),
                row.paper,
                span(low / row.paper, high / row.paper, 2),
                span(row.band.0, row.band.1, d),
                if row.holds() { "ok" } else { "FAILS" },
            )?;
        }
        for (i, reason) in reasons.iter().enumerate() {
            writeln!(f, "[{}] {reason}", i + 1)?;
        }

        writeln!(f, "\nWorst-case wire lengths per bit, in Thompson grids:")?;
        let widths = [6, 10, 17, 10, 16];
        let header = "N,crossbar,fully connected,banyan,batcher-banyan";
        columns(f, &widths, header.split(','))?;
        let wires = [
            wirelength::crossbar_bit_wire_grids,
            wirelength::fully_connected_bit_wire_grids,
            wirelength::banyan_bit_wire_grids,
            wirelength::batcher_banyan_bit_wire_grids,
        ];
        for n in PAPER_PORT_COUNTS {
            let cells = std::iter::once(n as u64).chain(wires.map(|grids| grids(n)));
            columns(f, &widths, cells)?;
        }

        let title = "Worst-case bit energy per architecture (Eq. 3-6), in pJ/bit";
        writeln!(f, "\n{title}")?;
        let widths = [6, 12, 16, 18, 22, 16];
        let header = "N,crossbar,fully connected,banyan (q=0),banyan (all q=1),batcher-banyan";
        columns(f, &widths, header.split(','))?;
        for row in &self.analytic {
            let energies = [
                row.crossbar,
                row.fully_connected,
                row.banyan_uncontended,
                row.banyan_fully_contended,
                row.batcher_banyan,
            ];
            let pj = energies.map(|e| format!("{:.2}", e.as_picojoules()));
            columns(f, &widths, std::iter::once(row.ports.to_string()).chain(pj))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_values_are_consistent() {
        assert_eq!(published_fc_vs_batcher_gap(4), Some(0.37));
        assert_eq!(published_fc_vs_batcher_gap(32), Some(0.20));
        assert_eq!(published_fc_vs_batcher_gap(8), None);
    }
}
