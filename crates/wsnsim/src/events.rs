//! The typed events driving the network simulation.

/// One event in the network simulation.
///
/// Node and burst references are compact `u32` indices (no simulated
/// network approaches 4 billion nodes or concurrent bursts), which keeps the
/// enum at 8 bytes and one pending-event entry (nanosecond time plus
/// payload) at 16.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkEvent {
    /// A LEACH round boundary: elect heads, re-form clusters.
    RoundStart,
    /// A sensor generates a packet.
    PacketArrival {
        /// Generating node index.
        node: u32,
    },
    /// A monitoring sensor samples the tone channel.
    SenseChannel {
        /// Sensing node index.
        node: u32,
    },
    /// A sensor's MAC backoff timer expired.
    BackoffExpired {
        /// Node whose backoff expired.
        node: u32,
    },
    /// A data burst finished (delivery or collision cleanup happens here).
    TransmissionComplete {
        /// Slab id of the burst that ended (its sender is stored with it).
        burst: u32,
    },
    /// A node fails for a non-energy reason (churn injection): it drops out
    /// of the network exactly as if its battery had died.
    NodeFailure {
        /// Failing node index.
        node: u32,
    },
    /// Periodic network-wide energy snapshot (Fig. 8 sampling).
    EnergySnapshot,
    /// Periodic queue-length snapshot (Fig. 12 sampling).
    FairnessSnapshot,
}

/// The payload-free discriminant of a [`NetworkEvent`].
///
/// The batched event loop partitions each same-instant batch into runs of
/// consecutive equal kinds and dispatches one run at a time, so the handler
/// branch is perfectly predicted inside a run while the FIFO delivery order
/// (and therefore every RNG draw sequence) stays untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Round boundary.
    RoundStart,
    /// Packet generation.
    PacketArrival,
    /// Tone-channel observation.
    SenseChannel,
    /// Backoff expiry.
    BackoffExpired,
    /// Burst completion.
    TransmissionComplete,
    /// Churn failure.
    NodeFailure,
    /// Energy sampling.
    EnergySnapshot,
    /// Queue-length sampling.
    FairnessSnapshot,
}

impl NetworkEvent {
    /// This event's [`EventKind`] discriminant.
    #[inline]
    pub fn kind(&self) -> EventKind {
        match self {
            NetworkEvent::RoundStart => EventKind::RoundStart,
            NetworkEvent::PacketArrival { .. } => EventKind::PacketArrival,
            NetworkEvent::SenseChannel { .. } => EventKind::SenseChannel,
            NetworkEvent::BackoffExpired { .. } => EventKind::BackoffExpired,
            NetworkEvent::TransmissionComplete { .. } => EventKind::TransmissionComplete,
            NetworkEvent::NodeFailure { .. } => EventKind::NodeFailure,
            NetworkEvent::EnergySnapshot => EventKind::EnergySnapshot,
            NetworkEvent::FairnessSnapshot => EventKind::FairnessSnapshot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caem_simcore::event::EventQueue;
    use caem_simcore::time::SimTime;

    #[test]
    fn events_carry_their_indices() {
        let e = NetworkEvent::PacketArrival { node: 7 };
        match e {
            NetworkEvent::PacketArrival { node } => assert_eq!(node, 7),
            _ => unreachable!(),
        }
    }

    #[test]
    fn every_event_maps_to_its_kind() {
        let pairs = [
            (NetworkEvent::RoundStart, EventKind::RoundStart),
            (
                NetworkEvent::PacketArrival { node: 1 },
                EventKind::PacketArrival,
            ),
            (
                NetworkEvent::SenseChannel { node: 1 },
                EventKind::SenseChannel,
            ),
            (
                NetworkEvent::BackoffExpired { node: 1 },
                EventKind::BackoffExpired,
            ),
            (
                NetworkEvent::TransmissionComplete { burst: 1 },
                EventKind::TransmissionComplete,
            ),
            (
                NetworkEvent::NodeFailure { node: 1 },
                EventKind::NodeFailure,
            ),
            (NetworkEvent::EnergySnapshot, EventKind::EnergySnapshot),
            (NetworkEvent::FairnessSnapshot, EventKind::FairnessSnapshot),
        ];
        for (event, kind) in pairs {
            assert_eq!(event.kind(), kind);
        }
        // Kinds ignore the payload: same-kind events with different nodes
        // land in the same dispatch run.
        assert_eq!(
            NetworkEvent::PacketArrival { node: 1 }.kind(),
            NetworkEvent::PacketArrival { node: 2 }.kind()
        );
    }

    #[test]
    fn events_stay_eight_bytes_and_queue_entries_sixteen() {
        // The radix queue stores `(nanos, event)` pairs: a payload wider
        // than a `u32` would grow every pending entry.
        assert_eq!(std::mem::size_of::<NetworkEvent>(), 8);
        assert_eq!(std::mem::size_of::<(u64, NetworkEvent)>(), 16);
    }

    #[test]
    fn events_queue_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(20), NetworkEvent::RoundStart);
        q.push(
            SimTime::from_millis(10),
            NetworkEvent::SenseChannel { node: 3 },
        );
        let mut batch = Vec::new();
        q.pop_batch_at_or_before(SimTime::MAX, &mut batch);
        assert_eq!(batch, vec![NetworkEvent::SenseChannel { node: 3 }]);
        q.pop_batch_at_or_before(SimTime::MAX, &mut batch);
        assert_eq!(batch, vec![NetworkEvent::RoundStart]);
    }
}
