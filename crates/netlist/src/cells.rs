//! Standard-cell primitives.
//!
//! The paper characterizes its node switches with Synopsys Power Compiler on
//! a 0.18 µm standard-cell library.  We replace that flow with an explicit,
//! minimal standard-cell set: exactly the kinds the circuit generators in
//! [`crate::circuits`] instantiate for the four Table 1 switches, no more.
//! A kind comes back together with the generator that needs it, and with
//! its row in [`crate::library::CellLibrary::calibrated_018um`].
//!
//! A cell is purely a *kind*; its electrical properties (input capacitance,
//! internal switching energy, clock-pin energy) live in
//! [`crate::library::CellLibrary`] so alternative calibrations can be swapped
//! in without touching netlists.

use serde::{Deserialize, Serialize};

/// The set of standard cells the circuit generators instantiate.
///
/// Every kind drives exactly one output net. Sequential behaviour exists only
/// in [`CellKind::Dff`], which samples its `D` input on the (implicit) rising
/// clock edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CellKind {
    /// Inverter: `Y = !A`.
    Inv,
    /// Non-inverting buffer: `Y = A`.
    Buf,
    /// 2-input AND: `Y = A & B`.
    And2,
    /// 2-input OR: `Y = A | B`.
    Or2,
    /// 2-input XNOR: `Y = !(A ^ B)`.
    Xnor2,
    /// 2:1 multiplexer: `Y = S ? B : A` (inputs ordered `[A, B, S]`).
    Mux2,
    /// CMOS pass gate: `Y = EN ? A : Y_prev` (inputs ordered `[A, EN]`).
    ///
    /// When disabled the output holds its previous value, modelling the
    /// charge-retaining behaviour of a bus crosspoint.
    PassGate,
    /// Rising-edge D flip-flop: `Q <= D` (input ordered `[D]`).
    Dff,
}

impl CellKind {
    /// All cell kinds, useful for exhaustive library definitions and tests.
    pub const ALL: [CellKind; 8] = [
        CellKind::Inv,
        CellKind::Buf,
        CellKind::And2,
        CellKind::Or2,
        CellKind::Xnor2,
        CellKind::Mux2,
        CellKind::PassGate,
        CellKind::Dff,
    ];

    /// Number of input pins the cell expects (excluding the implicit clock).
    #[must_use]
    pub(crate) fn input_count(self) -> usize {
        match self {
            CellKind::Inv | CellKind::Buf | CellKind::Dff => 1,
            CellKind::And2 | CellKind::Or2 | CellKind::Xnor2 | CellKind::PassGate => 2,
            CellKind::Mux2 => 3,
        }
    }

    /// Whether the cell holds state across clock cycles.
    #[must_use]
    pub(crate) fn is_sequential(self) -> bool {
        self == CellKind::Dff
    }

    /// Whether the cell may keep its previous output when not driven
    /// (pass-gate behaviour).
    #[must_use]
    pub(crate) fn holds_output_when_disabled(self) -> bool {
        self == CellKind::PassGate
    }

    /// Evaluates the cell's combinational function.
    ///
    /// `previous_output` supplies the retained value for the pass gate and
    /// the stored state for the flip-flop (which is *not* updated here —
    /// the simulator commits flip-flop state at clock edges).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from `CellKind::input_count`.
    #[must_use]
    pub fn evaluate(self, inputs: &[bool], previous_output: bool) -> bool {
        assert_eq!(
            inputs.len(),
            self.input_count(),
            "cell {self:?} expects {} inputs, got {}",
            self.input_count(),
            inputs.len()
        );
        match self {
            CellKind::Inv => !inputs[0],
            CellKind::Buf => inputs[0],
            CellKind::And2 => inputs[0] & inputs[1],
            CellKind::Or2 => inputs[0] | inputs[1],
            CellKind::Xnor2 => !(inputs[0] ^ inputs[1]),
            CellKind::Mux2 => {
                if inputs[2] {
                    inputs[1]
                } else {
                    inputs[0]
                }
            }
            CellKind::PassGate => {
                if inputs[1] {
                    inputs[0]
                } else {
                    previous_output
                }
            }
            // Combinational view of the flip-flop: the simulator overrides
            // this at clock edges; between edges it holds.
            CellKind::Dff => previous_output,
        }
    }

    /// Evaluates the cell's combinational function on 64 independent lanes
    /// at once: bit `L` of every word is lane `L`'s logic value, so one call
    /// does the work of 64 [`CellKind::evaluate`] calls.
    ///
    /// `previous_output` supplies the per-lane retained values for the pass
    /// gate and the stored state words for the flip-flop, exactly like the
    /// scalar form.  Bits above the caller's active lane count are
    /// evaluated too (they're free); callers mask them out when counting.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from `CellKind::input_count`.
    #[must_use]
    pub(crate) fn evaluate_word(self, inputs: &[u64], previous_output: u64) -> u64 {
        assert_eq!(
            inputs.len(),
            self.input_count(),
            "cell {self:?} expects {} inputs, got {}",
            self.input_count(),
            inputs.len()
        );
        match self {
            CellKind::Inv => !inputs[0],
            CellKind::Buf => inputs[0],
            CellKind::And2 => inputs[0] & inputs[1],
            CellKind::Or2 => inputs[0] | inputs[1],
            CellKind::Xnor2 => !(inputs[0] ^ inputs[1]),
            // Y = S ? B : A, per lane.
            CellKind::Mux2 => (inputs[2] & inputs[1]) | (!inputs[2] & inputs[0]),
            // Y = EN ? A : Y_prev, per lane.
            CellKind::PassGate => (inputs[1] & inputs[0]) | (!inputs[1] & previous_output),
            CellKind::Dff => previous_output,
        }
    }

    /// The position of this kind in [`CellKind::ALL`], usable as a dense
    /// array index (the simulators keep per-kind toggle counters in a `Vec`
    /// instead of a map on the hot path).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            CellKind::Inv => 0,
            CellKind::Buf => 1,
            CellKind::And2 => 2,
            CellKind::Or2 => 3,
            CellKind::Xnor2 => 4,
            CellKind::Mux2 => 5,
            CellKind::PassGate => 6,
            CellKind::Dff => 7,
        }
    }

    /// A short library-style cell name (e.g. `"AND2"`).
    #[must_use]
    pub(crate) fn short_name(self) -> &'static str {
        match self {
            CellKind::Inv => "INV",
            CellKind::Buf => "BUF",
            CellKind::And2 => "AND2",
            CellKind::Or2 => "OR2",
            CellKind::Xnor2 => "XNOR2",
            CellKind::Mux2 => "MUX2",
            CellKind::PassGate => "PASSGATE",
            CellKind::Dff => "DFF",
        }
    }
}

impl std::fmt::Display for CellKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_counts_match_evaluation_arity() {
        for kind in CellKind::ALL {
            let inputs = vec![false; kind.input_count()];
            // Must not panic.
            let _ = kind.evaluate(&inputs, false);
        }
    }

    #[test]
    fn combinational_truth_tables() {
        use CellKind::*;
        assert!(Inv.evaluate(&[false], false));
        assert!(!Inv.evaluate(&[true], false));
        assert!(Buf.evaluate(&[true], false));
        assert!(And2.evaluate(&[true, true], false));
        assert!(!And2.evaluate(&[true, false], false));
        assert!(Or2.evaluate(&[false, true], false));
        assert!(Xnor2.evaluate(&[true, true], false));
        assert!(!Xnor2.evaluate(&[true, false], false));
    }

    #[test]
    fn mux2_selects_between_inputs() {
        // inputs = [A, B, S]
        assert!(!CellKind::Mux2.evaluate(&[false, true, false], false));
        assert!(CellKind::Mux2.evaluate(&[false, true, true], false));
        assert!(CellKind::Mux2.evaluate(&[true, false, false], false));
        assert!(!CellKind::Mux2.evaluate(&[true, false, true], false));
    }

    #[test]
    fn tristate_holds_previous_value_when_disabled() {
        // inputs = [A, EN]
        assert!(CellKind::PassGate.evaluate(&[true, true], false));
        assert!(!CellKind::PassGate.evaluate(&[false, true], true));
        // Disabled: keeps previous output.
        assert!(CellKind::PassGate.evaluate(&[false, false], true));
        assert!(!CellKind::PassGate.evaluate(&[true, false], false));
    }

    #[test]
    fn sequential_cells_hold_between_edges() {
        assert!(CellKind::Dff.evaluate(&[false], true));
        assert!(!CellKind::Dff.evaluate(&[true], false));
    }

    #[test]
    fn sequential_flags() {
        assert!(CellKind::Dff.is_sequential());
        assert!(!CellKind::Mux2.is_sequential());
        assert!(CellKind::PassGate.holds_output_when_disabled());
        assert!(!CellKind::And2.holds_output_when_disabled());
    }

    #[test]
    #[should_panic(expected = "expects 2 inputs")]
    fn wrong_arity_panics() {
        let _ = CellKind::And2.evaluate(&[true], false);
    }

    #[test]
    fn index_matches_position_in_all() {
        for (position, kind) in CellKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), position, "{kind}");
        }
    }

    #[test]
    fn evaluate_word_matches_scalar_evaluate_lane_by_lane() {
        // Exhaustive over every kind, every input combination, and both
        // previous-output values, replicated across a few lane positions.
        for kind in CellKind::ALL {
            let arity = kind.input_count();
            for combo in 0..(1_u32 << arity) {
                for previous in [false, true] {
                    let scalar_inputs: Vec<bool> =
                        (0..arity).map(|i| combo >> i & 1 == 1).collect();
                    let expected = kind.evaluate(&scalar_inputs, previous);
                    for lane in [0_usize, 1, 31, 63] {
                        let word_inputs: Vec<u64> = scalar_inputs
                            .iter()
                            .map(|&b| u64::from(b) << lane)
                            .collect();
                        let prev_word = u64::from(previous) << lane;
                        let out = kind.evaluate_word(&word_inputs, prev_word);
                        assert_eq!(
                            out >> lane & 1 == 1,
                            expected,
                            "{kind} combo {combo:b} prev {previous} lane {lane}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "expects 2 inputs")]
    fn evaluate_word_wrong_arity_panics() {
        let _ = CellKind::Xnor2.evaluate_word(&[0], 0);
    }

    #[test]
    fn display_uses_short_names() {
        assert_eq!(CellKind::Xnor2.to_string(), "XNOR2");
        assert_eq!(CellKind::Dff.to_string(), "DFF");
        // Every name is unique.
        let mut names: Vec<_> = CellKind::ALL.iter().map(|k| k.short_name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CellKind::ALL.len());
    }
}
