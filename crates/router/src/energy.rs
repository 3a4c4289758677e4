//! Energy bookkeeping for the simulation platform.
//!
//! The three components of the bit-energy model (node switches, internal
//! buffers, interconnect wires — paper §3) are accumulated separately so the
//! experiments can show which one dominates under which conditions.

use serde::{Deserialize, Serialize};

use fabric_power_tech::units::{Energy, Power, TimeSpan};

/// Accumulated energy, broken down by the paper's three components.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyAccount {
    /// Energy consumed inside node switches (`E_S`).
    pub switches: Energy,
    /// Energy consumed by internal-buffer accesses (`E_B`).
    pub buffers: Energy,
    /// Energy consumed on interconnect wires (`E_W`).
    pub wires: Energy,
}

impl EnergyAccount {
    /// An empty account.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total energy across the three components.
    #[must_use]
    pub fn total(&self) -> Energy {
        self.switches + self.buffers + self.wires
    }

    /// Fraction of the total contributed by internal buffers (the "buffer
    /// penalty" indicator). Zero when nothing has been accumulated.
    #[must_use]
    pub fn buffer_fraction(&self) -> f64 {
        let total = self.total();
        if total.is_zero() {
            0.0
        } else {
            self.buffers / total
        }
    }

    /// Average power when this energy is spent over `cycles` cycles of
    /// duration `cycle_time` each.
    #[must_use]
    pub fn average_power(&self, cycles: u64, cycle_time: TimeSpan) -> Power {
        self.total().over(TimeSpan::from_seconds(
            cycle_time.as_seconds() * cycles as f64,
        ))
    }

    /// Adds another account component-wise.
    pub fn merge(&mut self, other: &EnergyAccount) {
        self.switches += other.switches;
        self.buffers += other.buffers;
        self.wires += other.wires;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_fractions() {
        let account = EnergyAccount {
            switches: Energy::from_picojoules(1.0),
            buffers: Energy::from_picojoules(3.0),
            wires: Energy::from_picojoules(1.0),
        };
        assert!((account.total().as_picojoules() - 5.0).abs() < 1e-12);
        assert!((account.buffer_fraction() - 0.6).abs() < 1e-12);
        assert_eq!(EnergyAccount::new().buffer_fraction(), 0.0);
    }

    #[test]
    fn merge_accumulates_componentwise() {
        let mut a = EnergyAccount {
            switches: Energy::from_picojoules(1.0),
            buffers: Energy::ZERO,
            wires: Energy::from_picojoules(2.0),
        };
        let b = EnergyAccount {
            switches: Energy::from_picojoules(0.5),
            buffers: Energy::from_picojoules(1.5),
            wires: Energy::ZERO,
        };
        a.merge(&b);
        assert!((a.total().as_picojoules() - 5.0).abs() < 1e-12);
        assert!((a.buffers.as_picojoules() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn average_power_uses_total_duration() {
        let account = EnergyAccount {
            switches: Energy::from_picojoules(100.0),
            buffers: Energy::ZERO,
            wires: Energy::ZERO,
        };
        let power = account.average_power(100, TimeSpan::from_seconds(10.0e-9));
        // 100 pJ over 1 us = 0.1 mW.
        assert!((power.as_milliwatts() - 0.1).abs() < 1e-9);
    }
}
