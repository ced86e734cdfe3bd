//! The packet record carried from a sensor to its cluster head.

use caem_simcore::time::SimTime;
use serde::{Deserialize, Serialize};

/// Globally unique packet identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PacketId(pub u64);

/// A sensed-data packet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Packet {
    /// Unique identifier.
    pub id: PacketId,
    /// Index of the sensor node that generated the packet.
    pub source_node: usize,
    /// Virtual time at which the packet was generated (enqueue time).
    pub created_at: SimTime,
    /// Payload size in bits (Table II: 2 kbit).
    pub size_bits: u64,
}

impl Packet {
    /// Create a packet with the paper's default 2-kbit payload.
    pub fn new(id: PacketId, source_node: usize, created_at: SimTime) -> Self {
        Packet {
            id,
            source_node,
            created_at,
            size_bits: 2_000,
        }
    }

    /// Create a packet with an explicit size.
    pub fn with_size(
        id: PacketId,
        source_node: usize,
        created_at: SimTime,
        size_bits: u64,
    ) -> Self {
        Packet {
            id,
            source_node,
            created_at,
            size_bits,
        }
    }

    /// Queueing + transmission delay if the packet is delivered at `now`.
    pub fn delay_at(&self, now: SimTime) -> caem_simcore::time::Duration {
        now.saturating_since(self.created_at)
    }
}

/// Monotonic packet-id allocator shared by all sources in a scenario.
#[derive(Debug, Clone, Default)]
pub struct PacketIdAllocator {
    next: u64,
}

impl PacketIdAllocator {
    /// Create an allocator starting at id 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate the next id.
    pub fn allocate(&mut self) -> PacketId {
        let id = PacketId(self.next);
        self.next += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caem_simcore::time::Duration;

    #[test]
    fn default_packet_is_2_kbit() {
        let p = Packet::new(PacketId(1), 7, SimTime::from_secs(3));
        assert_eq!(p.size_bits, 2_000);
        assert_eq!(p.source_node, 7);
    }

    #[test]
    fn delay_computation() {
        let p = Packet::new(PacketId(1), 0, SimTime::from_millis(100));
        assert_eq!(
            p.delay_at(SimTime::from_millis(350)),
            Duration::from_millis(250)
        );
        // Delivery "before" creation (cannot happen, but must not underflow).
        assert_eq!(p.delay_at(SimTime::from_millis(50)), Duration::ZERO);
    }

    #[test]
    fn id_allocator_is_monotonic_and_unique() {
        let mut alloc = PacketIdAllocator::new();
        let ids: Vec<PacketId> = (0..100).map(|_| alloc.allocate()).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 100);
        assert_eq!(ids[0], PacketId(0));
        assert_eq!(ids[99], PacketId(99));
    }

    #[test]
    fn custom_size_packet() {
        let p = Packet::with_size(PacketId(2), 1, SimTime::ZERO, 512);
        assert_eq!(p.size_bits, 512);
    }
}
