//! Packets and their bit-level payload.
//!
//! The simulation platform traces energy with bit-level accuracy, so packets
//! carry their actual payload words: wire energy is charged only for the bits
//! that flip polarity relative to the previous word on the same link
//! (paper §3.3), which requires knowing the real bit patterns.

use rand::RngCore;
use serde::{Deserialize, Serialize};

/// A fixed-size packet travelling through the router.
///
/// The ingress process unit has already parallelized the serial line into
/// `bus width`-bit words and translated the IP destination into an egress
/// port index (paper §5.2), so the packet here is simply a destination plus a
/// list of payload words.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// Packet identifier, unique among the packets in flight.  The
    /// single-router generator numbers its packets in order; a mesh reuses
    /// the id of a packet it ejected.
    pub id: u64,
    /// Ingress port the packet arrived on.
    pub source: usize,
    /// Egress port the packet must leave on.
    pub destination: usize,
    /// Payload words (one word crosses the fabric per clock cycle).
    pub payload: Vec<u64>,
    /// Cycle at which the packet arrived at the ingress queue.
    pub arrival_cycle: u64,
}

impl Packet {
    /// Number of payload words (equals the number of cycles the packet needs
    /// on a contention-free path).
    #[must_use]
    pub fn words(&self) -> usize {
        self.payload.len()
    }

    /// Generates a packet with `words` uniformly random payload words,
    /// written into `payload` after clearing it, so a finished packet's
    /// buffer can carry the next one.
    pub fn random<R: RngCore + ?Sized>(
        rng: &mut R,
        id: u64,
        source: usize,
        destination: usize,
        words: usize,
        arrival_cycle: u64,
        mut payload: Vec<u64>,
    ) -> Self {
        payload.clear();
        payload.extend((0..words).map(|_| rng.next_u64()));
        Self {
            id,
            source,
            destination,
            payload,
            arrival_cycle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn random_packet_has_requested_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let packet = Packet::random(&mut rng, 42, 1, 3, 16, 100, Vec::new());
        assert_eq!(packet.id, 42);
        assert_eq!(packet.source, 1);
        assert_eq!(packet.destination, 3);
        assert_eq!(packet.words(), 16);
        assert_eq!(packet.arrival_cycle, 100);
    }

    #[test]
    fn random_payload_is_reproducible_per_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(1);
        let pa = Packet::random(&mut a, 0, 0, 0, 8, 0, Vec::new());
        // A recycled buffer, longer and full of stale words, gives the same
        // packet and keeps its allocation.
        let recycled = vec![u64::MAX; 12];
        let allocation = recycled.as_ptr();
        let pb = Packet::random(&mut b, 0, 0, 0, 8, 0, recycled);
        assert_eq!(pa, pb);
        assert_eq!(pb.payload.as_ptr(), allocation);
        let mut c = ChaCha8Rng::seed_from_u64(2);
        let pc = Packet::random(&mut c, 0, 0, 0, 8, 0, Vec::new());
        assert_ne!(pa.payload, pc.payload);
    }

    #[test]
    fn payload_words_are_not_all_identical() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let packet = Packet::random(&mut rng, 0, 0, 0, 32, 0, Vec::new());
        let first = packet.payload[0];
        assert!(packet.payload.iter().any(|&w| w != first));
    }
}
