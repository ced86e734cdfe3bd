//! Bounded per-node packet buffer.
//!
//! Table II fixes the buffer size at 50 packets.  The buffer is the object
//! CAEM's threshold adjustment watches: its instantaneous length `V(t_i)`
//! sampled every K arrivals feeds the ΔV traffic predictor, and overflow
//! (drops) is the failure mode Scheme 1 exists to avoid.  For the fairness
//! experiment (Fig. 12) the paper instead makes the buffer "substantially
//! large" so the queue-length standard deviation is measured without drops —
//! [`PacketBuffer::unbounded`] covers that configuration.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

use crate::packet::Packet;

/// The paper's buffer capacity (Table II): 50 packets.
pub const PAPER_BUFFER_CAPACITY: usize = 50;

/// A FIFO of packets awaiting transmission.
///
/// The capacity is scenario-wide, so it is not stored per buffer: every
/// call that depends on it takes it as an argument (`None` = unbounded).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PacketBuffer {
    queue: VecDeque<Packet>,
}

impl PacketBuffer {
    /// An empty buffer.
    ///
    /// Backing storage grows on first use: a million-node deployment holds a
    /// million buffers, most of them empty most of the time, so eagerly
    /// reserving capacity for each would dominate resident memory for no
    /// behavioral difference.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current queue length.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Heap bytes held by the backing storage (its capacity, not its length).
    pub fn heap_bytes(&self) -> usize {
        self.queue.capacity() * std::mem::size_of::<Packet>()
    }

    /// Is the buffer at `capacity`?
    pub fn is_full(&self, capacity: Option<usize>) -> bool {
        match capacity {
            Some(c) => self.queue.len() >= c,
            None => false,
        }
    }

    /// Fraction of `capacity` in use (0.0 for unbounded buffers).
    pub fn occupancy(&self, capacity: Option<usize>) -> f64 {
        match capacity {
            Some(c) => self.queue.len() as f64 / c as f64,
            None => 0.0,
        }
    }

    /// Try to enqueue a packet.  Returns `false` (the packet is dropped) when
    /// the buffer is at `capacity`.
    pub fn enqueue(&mut self, capacity: Option<usize>, packet: Packet) -> bool {
        if self.is_full(capacity) {
            return false;
        }
        self.queue.push_back(packet);
        true
    }

    /// Peek at the head-of-line packet.
    pub fn peek(&self) -> Option<&Packet> {
        self.queue.front()
    }

    /// Dequeue the head-of-line packet.
    pub fn dequeue(&mut self) -> Option<Packet> {
        self.queue.pop_front()
    }

    /// Dequeue up to `count` packets (one MAC burst).
    pub fn dequeue_burst(&mut self, count: usize) -> Vec<Packet> {
        let mut out = Vec::with_capacity(count.min(self.queue.len()));
        self.dequeue_burst_into(count, &mut out);
        out
    }

    /// Dequeue up to `count` packets, appending them to `out`.
    ///
    /// The buffer-reusing variant of [`PacketBuffer::dequeue_burst`]: the
    /// simulator keeps a pool of burst vectors so the per-burst allocation
    /// disappears from the event loop.
    pub fn dequeue_burst_into(&mut self, count: usize, out: &mut Vec<Packet>) {
        let take = count.min(self.queue.len());
        out.reserve(take);
        for _ in 0..take {
            out.push(self.queue.pop_front().expect("length checked"));
        }
    }

    /// Push packets back at the *front* of the queue (a burst aborted by a
    /// collision returns its unsent packets without reordering).
    pub fn requeue_front(&mut self, mut packets: Vec<Packet>) {
        self.requeue_front_drain(&mut packets);
    }

    /// Like [`PacketBuffer::requeue_front`], but drains the given vector in
    /// place so the caller can reuse its allocation.
    pub fn requeue_front_drain(&mut self, packets: &mut Vec<Packet>) {
        for p in packets.drain(..).rev() {
            self.queue.push_front(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketId;
    use caem_simcore::time::SimTime;

    const PAPER: Option<usize> = Some(PAPER_BUFFER_CAPACITY);

    fn pkt(id: u64) -> Packet {
        Packet::new(PacketId(id), 0, SimTime::from_millis(id))
    }

    #[test]
    fn paper_default_capacity() {
        let mut b = PacketBuffer::new();
        assert!(b.is_empty());
        assert!(!b.is_full(PAPER));
        for i in 0..50 {
            assert!(b.enqueue(PAPER, pkt(i)));
        }
        assert!(b.is_full(PAPER));
        assert!(!b.enqueue(PAPER, pkt(50)));
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut b = PacketBuffer::new();
        for i in 0..5 {
            assert!(b.enqueue(Some(10), pkt(i)));
        }
        assert_eq!(b.len(), 5);
        assert_eq!(b.peek().unwrap().id, PacketId(0));
        for i in 0..5 {
            assert_eq!(b.dequeue().unwrap().id, PacketId(i));
        }
        assert!(b.dequeue().is_none());
    }

    #[test]
    fn overflow_drops_and_counts() {
        let mut b = PacketBuffer::new();
        let rejected = (0..5).filter(|&i| !b.enqueue(Some(3), pkt(i))).count();
        assert_eq!(b.len(), 3);
        assert!(b.is_full(Some(3)));
        assert_eq!(rejected, 2);
        assert!((b.occupancy(Some(3)) - 1.0).abs() < 1e-12);
        // The survivors are the first three arrivals.
        assert_eq!(b.peek().unwrap().id, PacketId(0));
    }

    #[test]
    fn unbounded_never_drops() {
        let mut b = PacketBuffer::new();
        for i in 0..10_000 {
            assert!(b.enqueue(None, pkt(i)));
        }
        assert_eq!(b.len(), 10_000);
        assert!(!b.is_full(None));
        assert_eq!(b.occupancy(None), 0.0);
    }

    #[test]
    fn burst_dequeue_takes_at_most_count() {
        let mut b = PacketBuffer::new();
        for i in 0..6 {
            b.enqueue(Some(20), pkt(i));
        }
        let burst = b.dequeue_burst(8);
        assert_eq!(burst.len(), 6);
        assert_eq!(b.len(), 0);
        let mut b2 = PacketBuffer::new();
        for i in 0..12 {
            b2.enqueue(Some(20), pkt(i));
        }
        let burst = b2.dequeue_burst(8);
        assert_eq!(burst.len(), 8);
        assert_eq!(burst[0].id, PacketId(0));
        assert_eq!(b2.len(), 4);
        assert_eq!(b2.peek().unwrap().id, PacketId(8));
    }

    #[test]
    fn aborted_burst_requeues_in_order() {
        let mut b = PacketBuffer::new();
        for i in 0..6 {
            b.enqueue(Some(20), pkt(i));
        }
        let mut burst = b.dequeue_burst(4);
        // Two of the four were sent before the collision; the rest go back.
        let unsent: Vec<Packet> = burst.split_off(2);
        b.requeue_front(unsent);
        assert_eq!(b.len(), 4);
        let order: Vec<u64> = (0..4).map(|_| b.dequeue().unwrap().id.0).collect();
        assert_eq!(order, vec![2, 3, 4, 5]);
    }

    #[test]
    fn heap_bytes_follow_capacity_not_length() {
        let mut b = PacketBuffer::new();
        assert_eq!(b.heap_bytes(), 0, "an unused buffer owns no heap");
        for i in 0..7 {
            b.enqueue(None, pkt(i));
        }
        let grown = b.heap_bytes();
        assert!(grown >= 7 * std::mem::size_of::<Packet>());
        b.dequeue_burst(7);
        assert_eq!(b.heap_bytes(), grown, "draining keeps the allocation");
    }
}
