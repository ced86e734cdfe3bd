//! Model-based test for the structure-of-arrays [`NodeTable`].
//!
//! The table's hot columns (`queue_len`, `remaining_j`, `alive`) are
//! *mirrors* of state owned by cold objects (packet buffers, batteries), so
//! the property that matters is: under any operation trace, the mirrors
//! never drift from the values a plain array-of-structs implementation
//! would hold.  Each case drives the same random operation sequence
//! through a `NodeTable` and through a reference AoS model built from the
//! very same `Battery`/`PacketBuffer` primitives, comparing every column
//! bit-for-bit after every operation.

use caem::policy::PolicyKind;
use caem_energy::battery::{Battery, EnergyCategory};
use caem_simcore::rng::RngStream;
use caem_simcore::time::SimTime;
use caem_traffic::buffer::PacketBuffer;
use caem_wsnsim::table::NodeTable;
use caem_wsnsim::ScenarioConfig;
use proptest::prelude::*;

const NODES: usize = 8;

/// The reference: one heavyweight struct per node, exactly the shape the
/// pre-refactor runner kept.
struct RefNode {
    alive: bool,
    is_head: bool,
    cluster: Option<usize>,
    battery: Battery,
    buffer: PacketBuffer,
}

fn build_pair(cfg: &ScenarioConfig) -> (NodeTable, Vec<RefNode>) {
    let streams = RngStream::new(cfg.seed);
    let table = NodeTable::deploy(cfg, &streams);
    let model = (0..cfg.node_count)
        .map(|_| RefNode {
            alive: true,
            is_head: false,
            cluster: None,
            battery: Battery::new(cfg.initial_energy_j),
            buffer: PacketBuffer::new(),
        })
        .collect();
    (table, model)
}

fn assert_same(table: &NodeTable, model: &[RefNode]) {
    table.assert_mirrors_consistent();
    let mut alive = 0usize;
    for (i, m) in model.iter().enumerate() {
        assert_eq!(table.is_alive(i), m.alive, "alive drifted at node {i}");
        assert_eq!(table.is_head(i), m.is_head, "is_head drifted at node {i}");
        assert_eq!(table.cluster(i), m.cluster, "cluster drifted at node {i}");
        assert_eq!(
            table.queue_len(i),
            m.buffer.len(),
            "queue_len drifted at node {i}"
        );
        assert_eq!(
            table.remaining(i).to_bits(),
            m.battery.remaining().to_bits(),
            "remaining_j drifted at node {i}"
        );
        if m.alive {
            alive += 1;
        }
    }
    assert_eq!(table.alive_count(), alive, "alive_count drifted");
}

proptest! {
    #[test]
    fn hot_columns_never_drift_from_the_aos_model(
        ops in prop::collection::vec(any::<u64>(), 1..200),
    ) {
        let mut cfg = ScenarioConfig::small(PolicyKind::PureLeach, 5.0, 7);
        cfg.node_count = NODES;
        // Small batteries so depletion edges are actually exercised.
        cfg.initial_energy_j = 0.08;
        let (mut table, mut model) = build_pair(&cfg);
        let mut next_packet = 0u64;
        let mut scratch: Vec<SimTime> = Vec::new();

        for word in ops {
            let node = (word % NODES as u64) as usize;
            let op = (word >> 3) % 6;
            let value = word >> 6;
            let m = &mut model[node];
            match op {
                // Energy draw (possibly the depletion edge).
                0 => {
                    let joules = (value % 100) as f64 * 0.001;
                    let died = table.draw_energy(node, EnergyCategory::DataTransmit, joules);
                    let mut model_died = false;
                    if m.alive {
                        model_died = m.battery.draw(EnergyCategory::DataTransmit, joules);
                        if model_died {
                            m.alive = false;
                        }
                    }
                    prop_assert_eq!(died, model_died);
                }
                // Churn kill: alive flips, battery keeps its charge.
                1 => {
                    let was_alive = table.fail_node(node);
                    prop_assert_eq!(was_alive, m.alive);
                    m.alive = false;
                }
                // Enqueue a packet (refused on overflow).  Creation times
                // are distinct, so they name the packet.
                2 => {
                    let p = SimTime::from_millis(next_packet);
                    next_packet += 1;
                    let accepted = table.enqueue(node, p);
                    let model_accepted = m.buffer.enqueue(cfg.buffer_capacity, p);
                    prop_assert_eq!(accepted, model_accepted);
                }
                // Single dequeue.
                3 => {
                    let a = table.dequeue(node);
                    let b = m.buffer.dequeue();
                    prop_assert_eq!(a, b);
                }
                // Burst dequeue, half of it delivered, rest requeued at the
                // front (the collision-abort path).
                4 => {
                    let burst = (value % 6) as usize;
                    scratch.clear();
                    table.dequeue_burst_into(node, burst, &mut scratch);
                    let mut model_burst = m.buffer.dequeue_burst(burst);
                    prop_assert_eq!(scratch.len(), model_burst.len());
                    let sent = scratch.len() / 2;
                    prop_assert_eq!(&scratch, &model_burst);
                    let mut unsent: Vec<SimTime> = scratch.split_off(sent);
                    let model_unsent: Vec<SimTime> = model_burst.split_off(sent);
                    table.requeue_front_drain(node, &mut unsent);
                    m.buffer.requeue_front(model_unsent);
                }
                // Round boundary for this node.
                _ => {
                    let is_head = value % 3 == 0;
                    let cluster = if value % 5 == 0 { None } else { Some((value % 4) as usize) };
                    table.begin_round(node, is_head, cluster);
                    m.is_head = is_head;
                    m.cluster = cluster;
                }
            }
            assert_same(&table, &model);
        }
    }

    #[test]
    fn deploy_columns_match_scenario_deployment(seed in any::<u64>()) {
        // Deployment itself: every node starts alive, unassigned, with an
        // empty queue and a full battery, and the heterogeneity spread
        // diversifies charge without touching liveness or queues.
        let mut cfg = ScenarioConfig::small(PolicyKind::Scheme1Adaptive, 5.0, seed);
        cfg.node_count = NODES;
        cfg.initial_energy_spread = 0.4;
        let streams = RngStream::new(cfg.seed);
        let table = NodeTable::deploy(&cfg, &streams);
        table.assert_mirrors_consistent();
        prop_assert_eq!(table.len(), NODES);
        prop_assert_eq!(table.alive_count(), NODES);
        for i in 0..NODES {
            prop_assert!(table.is_alive(i));
            prop_assert!(!table.is_head(i));
            prop_assert_eq!(table.cluster(i), None);
            prop_assert_eq!(table.queue_len(i), 0);
            let lo = cfg.initial_energy_j * 0.6 - 1e-9;
            let hi = cfg.initial_energy_j * 1.4 + 1e-9;
            let r = table.remaining(i);
            prop_assert!(r >= lo && r <= hi, "charge {r} outside spread band");
        }
        // Deterministic: a second deploy from the same seed is bit-equal.
        let again = NodeTable::deploy(&cfg, &RngStream::new(cfg.seed));
        for i in 0..NODES {
            prop_assert_eq!(table.remaining(i).to_bits(), again.remaining(i).to_bits());
            prop_assert_eq!(table.positions()[i].x.to_bits(), again.positions()[i].x.to_bits());
            prop_assert_eq!(table.positions()[i].y.to_bits(), again.positions()[i].y.to_bits());
        }
    }

    #[test]
    fn depletion_edge_is_reported_once_without_a_flag(pieces in 1u32..16, exponent in 0i32..8) {
        // The battery keeps no depletion flag: `drawn >= initial` is the
        // state.  Power-of-two pieces sum exactly, so the last piece lands
        // on `drawn == initial` bit for bit — the boundary a flagless
        // battery must still report exactly once.
        let piece = 2f64.powi(-exponent);
        let mut cfg = ScenarioConfig::small(PolicyKind::PureLeach, 5.0, 3);
        cfg.node_count = 2;
        cfg.initial_energy_spread = 0.0;
        cfg.initial_energy_j = piece * pieces as f64;
        let streams = RngStream::new(cfg.seed);
        let mut table = NodeTable::deploy(&cfg, &streams);
        let mut battery = Battery::new(cfg.initial_energy_j);
        for k in 1..=pieces {
            let last = k == pieces;
            prop_assert_eq!(table.draw_energy(0, EnergyCategory::Sleep, piece), last);
            prop_assert_eq!(battery.draw(EnergyCategory::Sleep, piece), last);
            table.assert_mirrors_consistent();
        }
        prop_assert_eq!(battery.drawn().to_bits(), battery.initial().to_bits());
        prop_assert!(battery.is_depleted());
        prop_assert!(!table.is_alive(0));
        prop_assert_eq!(table.alive_count(), 1);
        prop_assert_eq!(table.remaining(0), 0.0);

        // Later draws — zero-joule ones included — report nothing and leave
        // both ledgers untouched.
        let table_ledger = table.merged_ledger().total().to_bits();
        let battery_ledger = battery.ledger().total().to_bits();
        for joules in [0.0, piece, 0.0, 3.0 * piece] {
            prop_assert!(!table.draw_energy(0, EnergyCategory::DataTransmit, joules));
            prop_assert!(!battery.draw(EnergyCategory::DataTransmit, joules));
            table.assert_mirrors_consistent();
            prop_assert_eq!(table.merged_ledger().total().to_bits(), table_ledger);
            prop_assert_eq!(battery.ledger().total().to_bits(), battery_ledger);
            prop_assert_eq!(battery.drawn().to_bits(), battery.initial().to_bits());
        }
        prop_assert_eq!(table.alive_count(), 1, "the edge is not reported twice");
        prop_assert!(table.is_alive(1));
    }
}
