//! Traffic generation (paper §5.2).
//!
//! The paper drives its platform with TCP/IP-like packets whose destinations
//! are uniformly random and whose payloads are random bits; the offered load
//! is set by adjusting the packet-generation intervals.  [`TrafficGenerator`]
//! reproduces that: each idle ingress port starts a new packet per cycle with
//! probability `offered_load / packet_words`, so the average offered word
//! rate per port equals the requested load fraction.
//!
//! # Per-cycle cost
//!
//! The generator runs once per port per cycle, so it keeps that path free
//! of floating point and allocation:
//!
//! * **Integer thresholds.**  Each probability the generator tests — the
//!   start chance `load / packet_words`, [`TrafficPattern::Bursty`]'s ON
//!   and OFF start chances and its `1 / mean_burst` state flip, and the
//!   hot-spot fraction — becomes an integer threshold `⌈p·2⁵³⌉` computed
//!   once.  The vendored `rng.gen::<f64>() < p` is `(x >> 11)·2⁻⁵³ < p`
//!   for the drawn `x`, which holds exactly when `x >> 11 < ⌈p·2⁵³⌉`, so
//!   the integer test makes the same decisions from the same draws and
//!   every statistic downstream is unchanged.  The test is inlined into
//!   the caller's per-port loop; only a port that starts a packet makes a
//!   call.
//! * **Recycled payloads.**  The single-router driver hands each completed
//!   packet's payload back (`TrafficGenerator::recycle`), and the
//!   generator refills it in place for a later packet, so in steady state
//!   generating traffic allocates nothing.  A mesh drops its ejected
//!   packets instead: a node ejects what other nodes injected, so a
//!   hot-spot node's pool would grow without bound.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::packet::Packet;

/// Destination distribution of the generated traffic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TrafficPattern {
    /// Every destination equally likely, excluding the source port
    /// (self-traffic never crosses the fabric).
    UniformRandom,
    /// A fraction of the traffic targets one hot-spot port; the rest is
    /// uniform. An extension beyond the paper, useful for ablations.
    Hotspot {
        /// The egress port that attracts extra traffic.
        port: usize,
        /// Fraction (0..=1) of packets aimed at the hot-spot.
        fraction: f64,
    },
    /// A fixed permutation: input `i` always sends to `(i + shift) mod N`.
    /// This is destination-contention-free, so it isolates the fabric's
    /// interconnect contention from head-of-line blocking.
    Permutation {
        /// Constant offset applied to the source port.
        shift: usize,
    },
    /// The tornado permutation: input `i` always sends to
    /// `(i + N/2) mod N`, the maximum-distance destination.  A classic
    /// adversarial pattern for multistage interconnects; like
    /// [`TrafficPattern::Permutation`] it is destination-contention-free.
    Tornado,
    /// The bit-complement permutation: input `i` sends to `(N - 1) - i`,
    /// i.e. every bit of the port index inverted (for power-of-two `N`).
    /// Also destination-contention-free.
    BitComplement,
    /// The matrix-transpose permutation: for a perfect-square port count
    /// `N = k²`, input `i = r·k + c` sends to `c·k + r` (row/column swapped).
    /// Diagonal sources (`r == c`) would self-address, so they fall back to a
    /// uniform destination, as does any non-square port count.  The classic
    /// adversarial pattern for dimension-order-routed meshes.
    Transpose,
    /// Two-state on/off (bursty) traffic with uniform random destinations.
    ///
    /// Each ingress port alternates independently between an ON state
    /// offering `on_load` and an OFF state offering `off_load`; state dwell
    /// times are geometrically distributed with mean `mean_burst` cycles.
    /// The `offered_load` passed to the generator is ignored while this
    /// pattern is active — the two state loads define the traffic — so the
    /// long-run average load is `(on_load + off_load) / 2`.
    Bursty {
        /// Offered load per port while the port is in the ON state (0, 1].
        on_load: f64,
        /// Offered load per port while the port is in the OFF state [0, 1].
        off_load: f64,
        /// Mean dwell time of each state, in cycles (must be ≥ 1).
        mean_burst: f64,
    },
}

impl TrafficPattern {
    /// The deterministic destination this pattern assigns to `source`, for
    /// the fixed-permutation patterns ([`TrafficPattern::Permutation`],
    /// [`TrafficPattern::Tornado`], [`TrafficPattern::BitComplement`],
    /// [`TrafficPattern::Transpose`]).
    ///
    /// Returns `None` for the stochastic patterns, and for fixed mappings
    /// that would self-address (the bit-complement middle port of an odd
    /// `N`, transpose diagonal sources, transpose on a non-square `N`) —
    /// the generator falls back to a uniform destination in those cases.
    /// `Permutation`/`Tornado` keep their raw modular arithmetic even when
    /// a degenerate `shift` self-addresses, matching the simulator.
    #[must_use]
    pub fn fixed_destination(self, source: usize, ports: usize) -> Option<usize> {
        match self {
            Self::Permutation { shift } => Some((source + shift) % ports),
            Self::Tornado => Some((source + ports / 2) % ports),
            Self::BitComplement => {
                let destination = (ports - 1) - source;
                (destination != source).then_some(destination)
            }
            Self::Transpose => {
                let side = exact_square_side(ports)?;
                let destination = (source % side) * side + source / side;
                (destination != source).then_some(destination)
            }
            Self::UniformRandom | Self::Hotspot { .. } | Self::Bursty { .. } => None,
        }
    }
}

/// The integer `k` with `k² == n`, if `n` is a perfect square.
fn exact_square_side(n: usize) -> Option<usize> {
    let side = (n as f64).sqrt().round() as usize;
    (side * side == n).then_some(side)
}

/// Whether `load` is a valid offered load: in `(0, 1]`, so not NaN.
fn is_load(load: f64) -> bool {
    load > 0.0 && load <= 1.0
}

/// A probability `p` as the integer threshold `⌈p·2⁵³⌉` on a draw's top
/// 53 bits: [`Chance::draw`] is true exactly when `rng.gen::<f64>() < p`
/// would be, for the same draw.
#[derive(Debug, Clone, Copy)]
struct Chance(u64);

impl Chance {
    fn new(p: f64) -> Self {
        // Scaling by a power of two is exact, and so is `ceil`; the cast
        // saturates, which keeps the equivalence for p outside [0, 1].
        Self((p * (1_u64 << 53) as f64).ceil() as u64)
    }

    #[inline]
    fn draw<R: RngCore + ?Sized>(self, rng: &mut R) -> bool {
        rng.next_u64() >> 11 < self.0
    }
}

/// A traffic parameter outside its range, found when a
/// [`TrafficGenerator`] is built.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficError {
    /// Fewer than two ports (or, in a network, nodes) to send between.
    TooFewPorts(usize),
    /// The offered load is outside `(0, 1]`.
    OfferedLoad(f64),
    /// Packets have no words.
    EmptyPackets,
    /// The [`TrafficPattern::Hotspot`] port is not below the port count.
    HotspotPort {
        /// The configured hot-spot port.
        port: usize,
        /// The port count it must stay below.
        ports: usize,
    },
    /// The [`TrafficPattern::Hotspot`] fraction is outside `[0, 1]`.
    HotspotFraction(f64),
    /// The [`TrafficPattern::Bursty`] ON-state load is outside `(0, 1]`.
    BurstyOnLoad(f64),
    /// The [`TrafficPattern::Bursty`] OFF-state load is outside `[0, 1]`.
    BurstyOffLoad(f64),
    /// The [`TrafficPattern::Bursty`] mean dwell time is below one cycle.
    BurstyMeanBurst(f64),
}

impl std::fmt::Display for TrafficError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooFewPorts(ports) => {
                write!(f, "traffic needs at least two ports, got {ports}")
            }
            Self::OfferedLoad(load) => write!(f, "offered load must be in (0, 1], got {load}"),
            Self::EmptyPackets => write!(f, "packets need at least one word"),
            Self::HotspotPort { port, ports } => write!(
                f,
                "hot-spot port must be below the port count {ports}, got {port}"
            ),
            Self::HotspotFraction(fraction) => {
                write!(f, "hot-spot fraction must be in [0, 1], got {fraction}")
            }
            Self::BurstyOnLoad(load) => write!(f, "bursty on-load must be in (0, 1], got {load}"),
            Self::BurstyOffLoad(load) => {
                write!(f, "bursty off-load must be in [0, 1], got {load}")
            }
            Self::BurstyMeanBurst(mean_burst) => write!(
                f,
                "bursty mean burst must be at least one cycle, got {mean_burst}"
            ),
        }
    }
}

impl std::error::Error for TrafficError {}

/// Generates packet arrivals for every ingress port.
#[derive(Debug, Clone)]
pub struct TrafficGenerator {
    ports: usize,
    packet_words: usize,
    pattern: TrafficPattern,
    rng: ChaCha8Rng,
    next_packet_id: u64,
    /// Chance a port starts a packet in a cycle: at the offered load, or
    /// at the ON-state load for [`TrafficPattern::Bursty`].
    start: Chance,
    /// [`TrafficPattern::Bursty`] only: the OFF-state start chance and the
    /// per-cycle chance of a port flipping state.
    start_off: Chance,
    flip: Chance,
    /// Per-port ON/OFF state, used only by [`TrafficPattern::Bursty`]
    /// (`true` = ON).  All ports start ON.
    burst_on: Vec<bool>,
    /// Payload buffers handed back through [`TrafficGenerator::recycle`].
    spare_payloads: Vec<Vec<u64>>,
}

impl TrafficGenerator {
    /// Creates a generator.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError`] if `ports < 2`, `offered_load` is outside
    /// `(0.0, 1.0]`, `packet_words == 0`, a [`TrafficPattern::Hotspot`]
    /// port is not below `ports` or its fraction is outside `[0, 1]`, or a
    /// [`TrafficPattern::Bursty`] load or dwell time is out of range.
    pub fn new(
        ports: usize,
        offered_load: f64,
        packet_words: usize,
        pattern: TrafficPattern,
        seed: u64,
    ) -> Result<Self, TrafficError> {
        if ports < 2 {
            return Err(TrafficError::TooFewPorts(ports));
        }
        if !is_load(offered_load) {
            return Err(TrafficError::OfferedLoad(offered_load));
        }
        if packet_words == 0 {
            return Err(TrafficError::EmptyPackets);
        }
        let words = packet_words as f64;
        let never = Chance::new(0.0);
        let (start, start_off, flip) = match pattern {
            TrafficPattern::Hotspot { port, fraction } => {
                if port >= ports {
                    return Err(TrafficError::HotspotPort { port, ports });
                }
                if !(0.0..=1.0).contains(&fraction) {
                    return Err(TrafficError::HotspotFraction(fraction));
                }
                (Chance::new(offered_load / words), never, never)
            }
            TrafficPattern::Bursty {
                on_load,
                off_load,
                mean_burst,
            } => {
                if !is_load(on_load) {
                    return Err(TrafficError::BurstyOnLoad(on_load));
                }
                if !(0.0..=1.0).contains(&off_load) {
                    return Err(TrafficError::BurstyOffLoad(off_load));
                }
                if !(1.0..).contains(&mean_burst) {
                    return Err(TrafficError::BurstyMeanBurst(mean_burst));
                }
                (
                    Chance::new(on_load / words),
                    Chance::new(off_load / words),
                    Chance::new(1.0 / mean_burst),
                )
            }
            _ => (Chance::new(offered_load / words), never, never),
        };
        Ok(Self {
            ports,
            packet_words,
            pattern,
            rng: ChaCha8Rng::seed_from_u64(seed),
            next_packet_id: 0,
            start,
            start_off,
            flip,
            burst_on: vec![true; ports],
            spare_payloads: Vec::new(),
        })
    }

    /// Produces the packets arriving at `port` during `cycle` (zero or one).
    ///
    /// Most port-cycles start no packet, so this test inlines into the
    /// caller's loop and only a starting packet pays for a call.
    #[inline]
    pub fn arrivals(&mut self, port: usize, cycle: u64) -> Option<Packet> {
        if !self.start_chance(port).draw(&mut self.rng) {
            return None;
        }
        Some(self.start_packet(port, cycle))
    }

    /// The packet `port` starts in `cycle`: its destination, id and payload.
    #[inline(never)]
    fn start_packet(&mut self, port: usize, cycle: u64) -> Packet {
        let destination = self.pick_destination(port);
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        let payload = self.spare_payloads.pop().unwrap_or_default();
        Packet::random(
            &mut self.rng,
            id,
            port,
            destination,
            self.packet_words,
            cycle,
            payload,
        )
    }

    /// Hands back a finished packet's payload buffer, to be refilled for a
    /// later packet instead of allocating a new one.
    pub(crate) fn recycle(&mut self, payload: Vec<u64>) {
        self.spare_payloads.push(payload);
    }

    /// The start chance in effect for `port` this cycle.  For
    /// [`TrafficPattern::Bursty`] this also advances the port's two-state
    /// Markov chain (one transition draw per call, i.e. per cycle).
    #[inline]
    fn start_chance(&mut self, port: usize) -> Chance {
        if !matches!(self.pattern, TrafficPattern::Bursty { .. }) {
            return self.start;
        }
        // Geometric dwell time with mean `mean_burst`: leave the current
        // state with probability 1/mean_burst each cycle.
        if self.flip.draw(&mut self.rng) {
            self.burst_on[port] = !self.burst_on[port];
        }
        if self.burst_on[port] {
            self.start
        } else {
            self.start_off
        }
    }

    fn uniform_excluding_source(&mut self, source: usize) -> usize {
        loop {
            let candidate = self.rng.gen_range(0..self.ports);
            if candidate != source {
                return candidate;
            }
        }
    }

    fn pick_destination(&mut self, source: usize) -> usize {
        if let Some(destination) = self.pattern.fixed_destination(source, self.ports) {
            return destination;
        }
        match self.pattern {
            TrafficPattern::Hotspot { port, fraction } => {
                if Chance::new(fraction).draw(&mut self.rng) && port != source {
                    port
                } else {
                    self.uniform_excluding_source(source)
                }
            }
            _ => self.uniform_excluding_source(source),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A generator that returns one fixed word forever.
    struct Fixed(u64);

    impl RngCore for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn integer_chance_matches_the_float_draw() {
        let mut probabilities = vec![0.0, 1.0, f64::MIN_POSITIVE, 1.0 / (1_u64 << 60) as f64];
        // Every start chance the scenarios and goldens use: their loads
        // (bursty ON/OFF loads included) over every packet length in use.
        for load in [
            0.05, 0.1, 0.2, 0.3, 0.4, 0.425, 0.5, 0.6, 0.8, 0.9, 0.95, 1.0,
        ] {
            for words in [1, 4, 8, 16] {
                probabilities.push(load / f64::from(words));
            }
        }
        // Hot-spot fractions and bursty flip chances.
        probabilities.extend([0.3, 0.5, 0.7, 0.8]);
        probabilities.extend([25.0, 50.0, 400.0, 500.0].map(|mean_burst: f64| 1.0 / mean_burst));
        let mut rng = ChaCha8Rng::seed_from_u64(0xC4A2CE);
        probabilities.extend((0..1_000).map(|_| 1.0 - rng.gen::<f64>()));

        for p in probabilities {
            let chance = Chance::new(p);
            let boundary = i128::from(chance.0) << 11;
            let near = [-2049, -2048, -2047, -1, 0, 1, 2047, 2048].map(|offset| boundary + offset);
            for x in near.into_iter().chain([0, i128::from(u64::MAX)]) {
                let Ok(x) = u64::try_from(x) else {
                    continue;
                };
                assert_eq!(
                    chance.draw(&mut Fixed(x)),
                    Fixed(x).gen::<f64>() < p,
                    "p {p}, x {x:#x}"
                );
            }
        }
    }

    /// Panics with the error `result` holds, or fails if it holds a value.
    /// The rejection tests below match the error's message.
    fn panic_with_error<T, E: std::fmt::Display>(result: Result<T, E>) {
        match result {
            Ok(_) => panic!("the parameters were accepted"),
            Err(error) => panic!("{error}"),
        }
    }

    #[test]
    #[should_panic(expected = "traffic: hot-spot port must be below the port count 8, got 9")]
    fn out_of_range_hotspot_port_is_rejected() {
        let pattern = TrafficPattern::Hotspot {
            port: 9,
            fraction: 0.5,
        };
        let config =
            crate::SimulationConfig::quick(fabric_power_fabric::Architecture::Crossbar, 8, 0.3)
                .with_pattern(pattern);
        let model = fabric_power_fabric::FabricEnergyModel::paper(8).expect("paper model");
        panic_with_error(crate::RouterSimulator::with_shared_model(
            config,
            std::sync::Arc::new(model),
        ));
    }

    #[test]
    #[should_panic(expected = "hot-spot fraction must be in [0, 1], got NaN")]
    fn nan_hotspot_fraction_is_rejected() {
        let pattern = TrafficPattern::Hotspot {
            port: 0,
            fraction: f64::NAN,
        };
        panic_with_error(TrafficGenerator::new(8, 0.3, 16, pattern, 0));
    }

    #[test]
    fn offered_load_controls_the_arrival_rate() {
        let cycles = 20_000_u64;
        for &load in &[0.1, 0.3, 0.5] {
            let mut generator =
                TrafficGenerator::new(8, load, 16, TrafficPattern::UniformRandom, 1).unwrap();
            let mut words = 0_u64;
            for cycle in 0..cycles {
                for port in 0..8 {
                    if let Some(packet) = generator.arrivals(port, cycle) {
                        words += packet.words() as u64;
                    }
                }
            }
            let measured = words as f64 / (cycles * 8) as f64;
            assert!(
                (measured - load).abs() < 0.05,
                "offered {load}, measured {measured}"
            );
        }
    }

    #[test]
    fn uniform_destinations_exclude_the_source_and_cover_all_ports() {
        let mut generator =
            TrafficGenerator::new(4, 1.0, 1, TrafficPattern::UniformRandom, 2).unwrap();
        let mut seen = std::collections::HashSet::new();
        for cycle in 0..2000 {
            if let Some(packet) = generator.arrivals(0, cycle) {
                assert_ne!(packet.destination, 0);
                seen.insert(packet.destination);
            }
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn hotspot_biases_destinations() {
        let mut generator = TrafficGenerator::new(
            8,
            1.0,
            1,
            TrafficPattern::Hotspot {
                port: 5,
                fraction: 0.7,
            },
            3,
        )
        .unwrap();
        let mut hot = 0;
        let mut total = 0;
        for cycle in 0..5000 {
            if let Some(packet) = generator.arrivals(0, cycle) {
                total += 1;
                if packet.destination == 5 {
                    hot += 1;
                }
            }
        }
        let fraction = f64::from(hot) / f64::from(total);
        assert!(fraction > 0.6, "hot-spot fraction {fraction}");
    }

    #[test]
    fn permutation_is_deterministic_per_source() {
        let mut generator =
            TrafficGenerator::new(8, 1.0, 1, TrafficPattern::Permutation { shift: 3 }, 4).unwrap();
        for cycle in 0..100 {
            if let Some(packet) = generator.arrivals(2, cycle) {
                assert_eq!(packet.destination, 5);
            }
        }
    }

    #[test]
    fn generation_is_reproducible_per_seed() {
        let run = |seed| {
            let mut generator =
                TrafficGenerator::new(4, 0.5, 4, TrafficPattern::UniformRandom, seed).unwrap();
            let mut ids = Vec::new();
            for cycle in 0..200 {
                for port in 0..4 {
                    if let Some(p) = generator.arrivals(port, cycle) {
                        ids.push((cycle, port, p.destination));
                    }
                }
            }
            ids
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    #[should_panic(expected = "offered load must be in (0, 1], got 0")]
    fn zero_load_is_rejected() {
        panic_with_error(TrafficGenerator::new(
            4,
            0.0,
            16,
            TrafficPattern::UniformRandom,
            0,
        ));
    }

    #[test]
    fn tornado_sends_to_the_half_span_destination() {
        let mut generator = TrafficGenerator::new(8, 1.0, 1, TrafficPattern::Tornado, 5).unwrap();
        for source in 0..8 {
            for cycle in 0..50 {
                if let Some(packet) = generator.arrivals(source, cycle) {
                    assert_eq!(packet.destination, (source + 4) % 8);
                    assert_ne!(packet.destination, source);
                }
            }
        }
    }

    #[test]
    fn bit_complement_inverts_the_port_index() {
        let mut generator =
            TrafficGenerator::new(8, 1.0, 1, TrafficPattern::BitComplement, 6).unwrap();
        for source in 0..8 {
            for cycle in 0..50 {
                if let Some(packet) = generator.arrivals(source, cycle) {
                    assert_eq!(packet.destination, 7 - source);
                    assert_ne!(packet.destination, source);
                }
            }
        }
    }

    #[test]
    fn bit_complement_is_a_permutation_without_destination_contention() {
        // Every source maps to a distinct destination, so the pattern is
        // contention-free at the arbiter (like Permutation and Tornado).
        let destinations: Vec<usize> = (0..8).map(|s| 7 - s).collect();
        let mut sorted = destinations.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn bursty_traffic_modulates_the_arrival_rate() {
        // ON at 0.8, OFF at 0.0, long dwell times: the long-run average load
        // must sit between the two state loads, well below the ON rate and
        // well above the OFF rate.
        let pattern = TrafficPattern::Bursty {
            on_load: 0.8,
            off_load: 0.0,
            mean_burst: 500.0,
        };
        let mut generator = TrafficGenerator::new(8, 0.5, 16, pattern, 7).unwrap();
        let cycles = 40_000_u64;
        let mut words = 0_u64;
        for cycle in 0..cycles {
            for port in 0..8 {
                if let Some(packet) = generator.arrivals(port, cycle) {
                    words += packet.words() as u64;
                }
            }
        }
        let measured = words as f64 / (cycles * 8) as f64;
        assert!(
            measured > 0.25 && measured < 0.55,
            "long-run bursty load {measured} should be near (0.8 + 0.0) / 2"
        );
    }

    #[test]
    fn bursty_destinations_are_uniform_excluding_source() {
        let pattern = TrafficPattern::Bursty {
            on_load: 1.0,
            off_load: 0.5,
            mean_burst: 50.0,
        };
        let mut generator = TrafficGenerator::new(4, 0.5, 1, pattern, 8).unwrap();
        let mut seen = std::collections::HashSet::new();
        for cycle in 0..2000 {
            if let Some(packet) = generator.arrivals(0, cycle) {
                assert_ne!(packet.destination, 0);
                seen.insert(packet.destination);
            }
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    #[should_panic(expected = "bursty mean burst must be at least one cycle, got 0.5")]
    fn bursty_sub_cycle_dwell_is_rejected() {
        panic_with_error(TrafficGenerator::new(
            4,
            0.5,
            16,
            TrafficPattern::Bursty {
                on_load: 0.8,
                off_load: 0.1,
                mean_burst: 0.5,
            },
            0,
        ));
    }
}
