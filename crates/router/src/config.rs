//! Simulation configuration and result reporting.

use serde::{Deserialize, Serialize};

use fabric_power_fabric::Architecture;
use fabric_power_tech::units::{Power, TimeSpan};
use fabric_power_tech::Technology;

use crate::energy::EnergyAccount;
use crate::metrics::SparseLatencyHistogram;
use crate::sim::SimulationError;
use crate::traffic::TrafficPattern;

/// Configuration of one simulation run.
///
/// Defaults mirror the paper's setup: 32-bit bus words, 16-word packets
/// (one 64-byte TCP/IP-sized payload) and uniform random destinations.
/// The clock is the technology's ([`Technology::clock`], 133 MHz).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// The fabric architecture being simulated.
    pub architecture: Architecture,
    /// Number of ingress/egress ports.
    pub ports: usize,
    /// Offered load per ingress port, as a fraction of line rate (0, 1].
    pub offered_load: f64,
    /// Payload words per packet.
    pub packet_words: usize,
    /// Cycles simulated before measurement starts.
    pub warmup_cycles: u64,
    /// Cycles over which throughput and energy are measured.
    pub measure_cycles: u64,
    /// Random seed (traffic and payload bits).
    pub seed: u64,
    /// Destination distribution.
    pub pattern: TrafficPattern,
}

impl SimulationConfig {
    /// Creates a configuration with the paper's defaults for the given
    /// architecture, size and offered load.
    #[must_use]
    pub fn new(architecture: Architecture, ports: usize, offered_load: f64) -> Self {
        Self {
            architecture,
            ports,
            offered_load,
            packet_words: 16,
            warmup_cycles: 500,
            measure_cycles: 4000,
            seed: 0xDAC_2002,
            pattern: TrafficPattern::UniformRandom,
        }
    }

    /// Overrides the traffic pattern.
    #[must_use]
    pub fn with_pattern(mut self, pattern: TrafficPattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Duration of one clock cycle of the technology's clock.
    #[must_use]
    pub fn cycle_time(&self) -> TimeSpan {
        Technology::tsmc180().clock().period()
    }

    /// Checks the measurement window, which every simulator does before it
    /// builds anything: a run that measures no cycle has no power or
    /// throughput to report.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::ZeroMeasureCycles`] when `measure_cycles`
    /// is 0.
    pub fn check_window(&self) -> Result<(), SimulationError> {
        if self.measure_cycles == 0 {
            return Err(SimulationError::ZeroMeasureCycles);
        }
        Ok(())
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationReport {
    /// The architecture that was simulated.
    pub architecture: Architecture,
    /// Number of ports.
    pub ports: usize,
    /// Offered load per port requested by the configuration.
    pub offered_load: f64,
    /// Cycles in the measurement window.
    pub measured_cycles: u64,
    /// Payload words delivered at egress ports during measurement.
    pub words_delivered: u64,
    /// Packets fully delivered during measurement.
    pub packets_delivered: u64,
    /// Words written to (and later read from) internal buffers because of
    /// interconnect contention.
    pub buffered_words: u64,
    /// Mean packet latency (arrival to last word delivered), in cycles.
    pub average_latency_cycles: f64,
    /// Median (50th-percentile) packet latency in cycles, from the
    /// simulator's fixed-bin latency histogram (nearest-rank method).
    /// Defaults keep reports serialized before the percentile fields
    /// existed parseable (they read back as 0).
    #[serde(default)]
    pub latency_p50: f64,
    /// 95th-percentile packet latency in cycles.
    #[serde(default)]
    pub latency_p95: f64,
    /// 99th-percentile packet latency in cycles.
    #[serde(default)]
    pub latency_p99: f64,
    /// The full latency distribution, sparse over non-zero bins — the
    /// summary percentiles above are derived from exactly this.  Defaults
    /// (to empty) keep reports serialized before the field existed
    /// parseable.
    #[serde(default)]
    pub latency_histogram: SparseLatencyHistogram,
    /// Accumulated energy, by component.
    pub energy: EnergyAccount,
    /// Duration of one clock cycle (for power computation).
    pub cycle_time: TimeSpan,
}

impl SimulationReport {
    /// Measured egress throughput as a fraction of aggregate line rate:
    /// `words delivered / (cycles × ports)` (the paper measures throughput at
    /// the egress process units).
    #[must_use]
    pub fn measured_throughput(&self) -> f64 {
        if self.measured_cycles == 0 {
            0.0
        } else {
            self.words_delivered as f64 / (self.measured_cycles * self.ports as u64) as f64
        }
    }

    /// Average fabric power over the measurement window.
    #[must_use]
    pub fn average_power(&self) -> Power {
        self.energy
            .average_power(self.measured_cycles, self.cycle_time)
    }

    /// Average energy per delivered payload bit (a size-independent figure of
    /// merit).
    #[must_use]
    pub fn energy_per_delivered_bit(&self, bus_width: u32) -> fabric_power_tech::units::Energy {
        let bits = self.words_delivered * u64::from(bus_width);
        if bits == 0 {
            fabric_power_tech::units::Energy::ZERO
        } else {
            self.energy.total() / bits as f64
        }
    }
}

#[cfg(test)]
impl SimulationConfig {
    /// A shorter run for unit tests: 100 warm-up and 800 measured cycles.
    pub(crate) fn quick(architecture: Architecture, ports: usize, offered_load: f64) -> Self {
        Self {
            warmup_cycles: 100,
            measure_cycles: 800,
            ..Self::new(architecture, ports, offered_load)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_power_tech::units::Energy;

    #[test]
    fn defaults_follow_the_paper() {
        let config = SimulationConfig::new(Architecture::Banyan, 16, 0.3);
        assert_eq!(config.packet_words, 16);
        assert_eq!(config.pattern, TrafficPattern::UniformRandom);
        // One cycle of the 133 MHz clock.
        assert!((config.cycle_time().as_seconds() - 1.0 / 133e6).abs() < 1e-21);
    }

    #[test]
    fn builder_style_overrides() {
        let config = SimulationConfig::quick(Architecture::Crossbar, 4, 0.5)
            .with_pattern(TrafficPattern::Permutation { shift: 1 });
        assert_eq!(config.pattern, TrafficPattern::Permutation { shift: 1 });
    }

    #[test]
    fn report_derived_metrics() {
        let report = SimulationReport {
            architecture: Architecture::Crossbar,
            ports: 4,
            offered_load: 0.5,
            measured_cycles: 1000,
            words_delivered: 1000,
            packets_delivered: 62,
            buffered_words: 0,
            average_latency_cycles: 20.0,
            latency_p50: 19.0,
            latency_p95: 28.0,
            latency_p99: 31.0,
            latency_histogram: SparseLatencyHistogram::default(),
            energy: EnergyAccount {
                switches: Energy::from_joules(1.0e-9),
                buffers: Energy::ZERO,
                wires: Energy::from_joules(1.0e-9),
            },
            cycle_time: TimeSpan::from_seconds(10.0e-9),
        };
        assert!((report.measured_throughput() - 0.25).abs() < 1e-12);
        // 2 nJ over 10 us = 0.2 mW.
        assert!((report.average_power().as_milliwatts() - 0.2).abs() < 1e-9);
        assert!(report.energy_per_delivered_bit(32).as_picojoules() > 0.0);
    }

    #[test]
    fn zero_cycle_report_is_safe() {
        let report = SimulationReport {
            architecture: Architecture::Banyan,
            ports: 4,
            offered_load: 0.1,
            measured_cycles: 0,
            words_delivered: 0,
            packets_delivered: 0,
            buffered_words: 0,
            average_latency_cycles: 0.0,
            latency_p50: 0.0,
            latency_p95: 0.0,
            latency_p99: 0.0,
            latency_histogram: SparseLatencyHistogram::default(),
            energy: EnergyAccount::new(),
            cycle_time: TimeSpan::from_seconds(10.0e-9),
        };
        assert_eq!(report.measured_throughput(), 0.0);
        assert_eq!(report.energy_per_delivered_bit(32), Energy::ZERO);
    }
}
