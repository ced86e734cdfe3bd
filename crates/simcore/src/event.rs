//! Pending-event set for the discrete-event simulator.
//!
//! The queue is a *monotone radix queue*: it relies on the discrete-event
//! invariant that no event is ever scheduled before the instant the loop is
//! currently processing, and in exchange orders events with a few bit
//! operations instead of key comparisons.  Events scheduled for the same
//! instant are delivered in FIFO (scheduling) order.  FIFO tie-breaking
//! matters for protocol correctness: e.g. a tone-pulse "collision"
//! notification scheduled before a sensor's "retry" decision at the same
//! instant must be observed first.

use crate::time::SimTime;

/// One radix bucket per bit of a nanosecond timestamp.
const BUCKETS: usize = u64::BITS as usize;

/// A bucket emptied by redistribution keeps its buffer for reuse only up
/// to this many entries; larger buffers are freed, so a transient burst of
/// pending events does not pin its peak allocation in every bucket.
const RETAINED_BUCKET_CAPACITY: usize = 4096;

/// A time-ordered pending-event set.
///
/// Generic over the event payload type so protocol crates can embed their own
/// event enums without boxing.
///
/// Events at the current instant (the last popped one) sit in their own FIFO
/// buffer.  Every other pending event sits in radix bucket `b`, where `b` is
/// the highest bit in which its time differs from the current instant.  A
/// refill takes the lowest non-empty bucket (one `trailing_zeros` over an
/// occupancy mask), makes its minimum time the new current instant, and
/// redistributes the bucket's events, in order, into strictly lower buckets.
/// Buckets are only ever appended to in scheduling order and split stably,
/// so events at one instant come out in exactly the order they were
/// scheduled without any sequence numbers; each event is moved at most once
/// per bit of its scheduling distance.
///
/// **Contract:** [`EventQueue::push`] panics if `time` is before the last
/// popped instant.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The last popped instant, in nanoseconds.
    now: u64,
    /// Events at `now`, in scheduling order.
    current: Vec<E>,
    /// `buckets[b]` holds events whose time differs from `now` first in bit `b`.
    buckets: [Vec<(u64, E)>; BUCKETS],
    /// Bit `b` is set iff `buckets[b]` is non-empty.
    occupied: u64,
    len: usize,
    high_watermark: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue whose current instant is [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            now: 0,
            current: Vec::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            len: 0,
            high_watermark: 0,
        }
    }

    /// Schedule `event` to fire at absolute time `time`.
    ///
    /// Panics if `time` is before the last popped instant: a discrete-event
    /// simulation never schedules into the past, and the bucket structure
    /// depends on it.
    #[inline]
    pub fn push(&mut self, time: SimTime, event: E) {
        let t = time.as_nanos();
        assert!(
            t >= self.now,
            "event scheduled at {time}, before the current instant {}",
            SimTime::from_nanos(self.now)
        );
        if t == self.now {
            self.current.push(event);
        } else {
            let b = bucket_of(t, self.now);
            self.buckets[b].push((t, event));
            self.occupied |= 1 << b;
        }
        self.len += 1;
        self.high_watermark = self.high_watermark.max(self.len);
    }

    /// Move *every* event scheduled for the earliest pending instant into
    /// `out` (cleared first), provided that instant is at or before
    /// `deadline`.  Returns the batch's timestamp, or `None` — leaving the
    /// queue untouched — when nothing fires by the deadline.
    ///
    /// Events appear in `out` in FIFO scheduling order.  Events a handler
    /// schedules *for the same instant* while processing the batch are not
    /// part of it: they form the next batch at the same timestamp, which is
    /// exactly when a one-at-a-time loop would deliver them.
    pub fn pop_batch_at_or_before(
        &mut self,
        deadline: SimTime,
        out: &mut Vec<E>,
    ) -> Option<SimTime> {
        out.clear();
        let deadline = deadline.as_nanos();
        if self.current.is_empty() {
            if self.occupied == 0 {
                return None;
            }
            let b = self.occupied.trailing_zeros() as usize;
            let next = self.buckets[b]
                .iter()
                .map(|&(t, _)| t)
                .min()
                .expect("occupied bucket is non-empty");
            if next > deadline {
                return None;
            }
            self.advance_to(b, next);
        } else if self.now > deadline {
            return None;
        }
        std::mem::swap(out, &mut self.current);
        self.len -= out.len();
        Some(SimTime::from_nanos(self.now))
    }

    /// Make `next`, the minimum time in the lowest occupied bucket `b`, the
    /// current instant and split that bucket stably below it.  Every event in
    /// a higher bucket agrees with `next` on all bits above its own bucket
    /// index, so only bucket `b` moves.
    fn advance_to(&mut self, b: usize, next: u64) {
        self.now = next;
        self.occupied &= !(1 << b);
        let mut spilled = std::mem::take(&mut self.buckets[b]);
        for (t, event) in spilled.drain(..) {
            if t == next {
                self.current.push(event);
            } else {
                let lower = bucket_of(t, next);
                self.buckets[lower].push((t, event));
                self.occupied |= 1 << lower;
            }
        }
        if spilled.capacity() <= RETAINED_BUCKET_CAPACITY {
            self.buckets[b] = spilled;
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The largest number of events that were ever pending simultaneously.
    pub fn high_watermark(&self) -> usize {
        self.high_watermark
    }
}

/// The radix bucket of a pending time `t > now`: the index of the highest
/// bit in which the two differ.
#[inline]
fn bucket_of(t: u64, now: u64) -> usize {
    (u64::BITS - 1 - (t ^ now).leading_zeros()) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Drain the whole queue batch by batch, tagging each event with its
    /// batch timestamp.
    fn drain<E>(q: &mut EventQueue<E>) -> Vec<(SimTime, E)> {
        let mut drained = Vec::new();
        let mut batch = Vec::new();
        while let Some(at) = q.pop_batch_at_or_before(SimTime::MAX, &mut batch) {
            drained.extend(batch.drain(..).map(|e| (at, e)));
        }
        drained
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), "c");
        q.push(SimTime::from_millis(10), "a");
        q.push(SimTime::from_millis(20), "b");
        let order: Vec<_> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100u32 {
            q.push(t, i);
        }
        let order: Vec<_> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
        let expected: Vec<u32> = (0..100).collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        let mut q = EventQueue::new();
        let mut batch = Vec::new();
        let forever = SimTime::MAX;
        q.push(SimTime::from_millis(10), 1u64);
        q.push(SimTime::from_millis(5), 2u64);
        assert_eq!(
            q.pop_batch_at_or_before(forever, &mut batch),
            Some(SimTime::from_millis(5))
        );
        assert_eq!(batch, vec![2]);
        q.push(SimTime::from_millis(7), 3u64);
        q.pop_batch_at_or_before(forever, &mut batch);
        assert_eq!(batch, vec![3]);
        q.pop_batch_at_or_before(forever, &mut batch);
        assert_eq!(batch, vec![1]);
        assert!(q.pop_batch_at_or_before(forever, &mut batch).is_none());
    }

    #[test]
    fn high_watermark_is_tracked() {
        let mut q = EventQueue::new();
        let mut batch = Vec::new();
        assert!(q.is_empty());
        assert_eq!(q.high_watermark(), 0);
        for i in 0..40u64 {
            q.push(SimTime::from_millis(i), i);
        }
        // Pop the ten instants 0..10 ms, one event each.
        for _ in 0..10 {
            q.pop_batch_at_or_before(SimTime::MAX, &mut batch);
        }
        for i in 0..20u64 {
            q.push(SimTime::from_millis(100 + i), i);
        }
        // Peak was max(40, 30 + 20) = 50 pending events.
        assert_eq!(q.high_watermark(), 50);
        assert_eq!(q.len(), 50);
    }

    #[test]
    fn heap_orders_adversarial_interleavings() {
        // Pseudo-random pushes at or after the current instant, interleaved
        // with batch pops, must always drain in (time, insertion) order —
        // exercises bucket splits across every bit position of the gaps.
        let mut q = EventQueue::new();
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut step = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut now = 0u64;
        let mut pushed = 0u64;
        let mut drained: Vec<(SimTime, u64)> = Vec::new();
        let mut batch = Vec::new();
        for round in 0..50 {
            for _ in 0..(round % 7) + 1 {
                q.push(SimTime::from_nanos(now + step() % 1000), pushed);
                pushed += 1;
            }
            if round % 3 == 0 {
                if let Some(at) = q.pop_batch_at_or_before(SimTime::MAX, &mut batch) {
                    now = at.as_nanos();
                    drained.extend(batch.drain(..).map(|seq| (at, seq)));
                }
            }
        }
        drained.extend(drain(&mut q));
        assert_eq!(drained.len(), (0..50).map(|r| (r % 7) + 1).sum::<usize>());
        // Pushes never precede the current instant, so the whole drain is
        // globally sorted by (time, insertion).
        let mut sorted = drained.clone();
        sorted.sort();
        assert_eq!(drained, sorted);
    }

    #[test]
    fn batch_pop_drains_one_instant_in_fifo_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(10);
        q.push(t, 0u64);
        q.push(SimTime::from_millis(20), 99u64);
        q.push(t, 1u64);
        q.push(t, 2u64);
        let mut batch = Vec::new();
        assert_eq!(
            q.pop_batch_at_or_before(SimTime::from_secs(1), &mut batch),
            Some(t)
        );
        assert_eq!(batch, vec![0, 1, 2]);
        assert_eq!(q.len(), 1);
        // The next batch is the later instant.
        assert_eq!(
            q.pop_batch_at_or_before(SimTime::from_secs(1), &mut batch),
            Some(SimTime::from_millis(20))
        );
        assert_eq!(batch.len(), 1);
        assert!(q
            .pop_batch_at_or_before(SimTime::from_secs(1), &mut batch)
            .is_none());
        assert!(batch.is_empty(), "a failed batch pop clears the buffer");
    }

    #[test]
    fn batch_pop_respects_the_deadline() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), ());
        let mut batch = vec![];
        assert!(q
            .pop_batch_at_or_before(SimTime::from_millis(29), &mut batch)
            .is_none());
        assert_eq!(q.len(), 1, "past-deadline events stay queued");
        assert_eq!(
            q.pop_batch_at_or_before(SimTime::from_millis(30), &mut batch),
            Some(SimTime::from_millis(30))
        );
    }

    #[test]
    fn batch_pop_matches_single_pop_sequence_exactly() {
        // The one-at-a-time schedule is (time, insertion) order; batches
        // must reproduce it exactly, with the batch stamp on every event.
        let mut q = EventQueue::new();
        let mut expected = Vec::new();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..500u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = SimTime::from_nanos((state >> 33) % 64);
            q.push(t, i);
            expected.push((t, i));
        }
        expected.sort();
        assert_eq!(drain(&mut q), expected);
    }

    #[test]
    fn events_at_the_current_instant_form_the_next_batch() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(3);
        let mut batch = Vec::new();
        q.push(t, 0u64);
        q.push(SimTime::from_millis(4), 9u64);
        assert_eq!(q.pop_batch_at_or_before(t, &mut batch), Some(t));
        // A handler of the batch at `t` schedules two more events at `t`.
        q.push(t, 1u64);
        q.push(t, 2u64);
        assert_eq!(q.pop_batch_at_or_before(t, &mut batch), Some(t));
        assert_eq!(batch, vec![1, 2]);
        assert!(q.pop_batch_at_or_before(t, &mut batch).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "before the current instant")]
    fn pushing_before_the_last_popped_instant_panics() {
        let mut q = EventQueue::new();
        let mut batch = Vec::new();
        q.push(SimTime::from_millis(10), ());
        q.pop_batch_at_or_before(SimTime::MAX, &mut batch);
        q.push(SimTime::from_nanos(9_999_999), ());
    }

    /// The reference model: a binary heap over `(time, sequence)` keys that
    /// drains every event of the earliest instant as one batch.
    #[derive(Default)]
    struct Model {
        heap: BinaryHeap<Reverse<(u64, u64)>>,
        sequence: u64,
    }

    impl Model {
        fn push(&mut self, t: u64) -> u64 {
            let id = self.sequence;
            self.heap.push(Reverse((t, id)));
            self.sequence += 1;
            id
        }

        fn head(&self) -> Option<u64> {
            self.heap.peek().map(|Reverse((t, _))| *t)
        }

        fn pop_batch(&mut self, deadline: u64) -> Option<(u64, Vec<u64>)> {
            let at = self.head().filter(|&t| t <= deadline)?;
            let mut batch = Vec::new();
            while self.head() == Some(at) {
                let Reverse((_, id)) = self.heap.pop().expect("head exists");
                batch.push(id);
            }
            Some((at, batch))
        }
    }

    /// A gap from the current instant: zero (a tie with the current
    /// instant), a few nanoseconds, or a power of two up to 2^62 with jitter.
    fn gap(raw: u64) -> u64 {
        match raw % 4 {
            0 => 0,
            1 => (raw >> 2) % 4,
            2 => 1 + (raw >> 2) % 64,
            _ => {
                let bits = (raw >> 2) % 63;
                (1u64 << bits) + (raw >> 8) % (1u64 << bits)
            }
        }
    }

    proptest! {
        /// Random monotone interleavings of pushes and deadline-bounded
        /// batch pops: the radix queue must return exactly the model's
        /// batches and timestamps, and a refused pop must change nothing.
        #[test]
        fn radix_queue_matches_the_reference_heap(
            ops in prop::collection::vec(any::<u64>(), 1..400),
        ) {
            let mut q = EventQueue::new();
            let mut model = Model::default();
            let mut batch = Vec::new();
            let mut now = 0u64;
            // Recently used future instants, reused to build same-instant ties.
            let mut instants: Vec<u64> = Vec::new();
            for op in ops {
                match op % 8 {
                    0..=4 => {
                        let reused = instants
                            .iter()
                            .rev()
                            .copied()
                            .filter(|&t| t >= now)
                            .nth(((op >> 20) % 4) as usize);
                        let t = match (op % 3, reused) {
                            (0, Some(t)) => t,
                            _ => now.saturating_add(gap(op >> 3)).min(u64::MAX - 1),
                        };
                        instants.push(t);
                        q.push(SimTime::from_nanos(t), model.push(t));
                    }
                    _ => {
                        let head = model.head();
                        let deadline = match (head, (op >> 3) % 4) {
                            (None, _) => now.saturating_add(op >> 40),
                            (Some(h), 0) => h.saturating_sub(1 + (op >> 40) % 8),
                            (Some(h), 1) => h,
                            (Some(h), 2) => h.saturating_add(1 + (op >> 40)),
                            (Some(_), _) => u64::MAX - 1,
                        };
                        let expected = model.pop_batch(deadline);
                        let got = q.pop_batch_at_or_before(SimTime::from_nanos(deadline), &mut batch);
                        prop_assert_eq!(got.map(SimTime::as_nanos), expected.as_ref().map(|e| e.0));
                        match expected {
                            Some((at, ids)) => {
                                prop_assert_eq!(&batch, &ids);
                                now = at;
                            }
                            None => {
                                prop_assert!(batch.is_empty());
                                prop_assert_eq!(q.len(), model.heap.len());
                                // The refusal left the current instant alone:
                                // the next instant after the deadline is
                                // still schedulable.
                                if deadline >= now && head.is_some() {
                                    let t = deadline + 1;
                                    q.push(SimTime::from_nanos(t), model.push(t));
                                }
                            }
                        }
                    }
                }
                prop_assert_eq!(q.len(), model.heap.len());
            }
            // The final drain agrees too.
            while let Some((at, ids)) = model.pop_batch(u64::MAX) {
                prop_assert_eq!(q.pop_batch_at_or_before(SimTime::MAX, &mut batch), Some(SimTime::from_nanos(at)));
                prop_assert_eq!(&batch, &ids);
            }
            prop_assert!(q.pop_batch_at_or_before(SimTime::MAX, &mut batch).is_none());
            prop_assert!(q.is_empty());
        }
    }
}
