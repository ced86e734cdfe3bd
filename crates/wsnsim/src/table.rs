//! Structure-of-arrays per-node state.
//!
//! [`NodeTable`] replaces the former `Vec<SensorNode>` (one heavyweight
//! struct per node) with parallel columns split by access pattern:
//!
//! * **Hot columns** — liveness, head flag, cluster index, queue length,
//!   remaining energy and the per-node packet counters — are what the event
//!   loop and the per-round snapshots touch for *every* node.  Packed
//!   contiguously they stream through cache, and the metric trackers
//!   consume them as plain slices with no per-round copies into scratch
//!   buffers.
//! * **Cold columns** — position, battery ledger, MAC state machine,
//!   threshold policy, traffic state and link channel — are only touched by the single node an event addresses, so they no
//!   longer ride along every cache line of the hot path.
//!
//! A column holds per-node state only.  Every scenario-wide constant (MAC,
//! link and CAEM parameters, buffer capacity, traffic rates) is
//! stored once, in [`NodeParams`], and the table passes it by reference to
//! the component method that reads it.
//! [`NodeTable::column_bytes_per_node`] reports what each column costs per
//! node, and a unit test pins the inline part exactly.
//!
//! The queue-length and remaining-energy columns are *mirrors* of state
//! owned by the cold buffers and batteries.  Every mutation of a buffer or
//! battery therefore goes through a table method that updates the mirror in
//! the same breath; buffers and batteries are never handed out mutably.  The
//! model-based test in `crates/wsnsim/tests/node_table_model.rs` drives
//! random operation traces against a reference array-of-structs
//! implementation to pin the mirrors bit-exactly.

use std::mem::size_of;

use caem::config::CaemConfig;
use caem::policy::Policy;
use caem_channel::fading::FadingConfig;
use caem_channel::geometry::Position;
use caem_channel::link::{LinkChannel, LinkParams};
use caem_energy::battery::{Battery, EnergyCategory, EnergyLedger};
use caem_mac::sensor::{SensorAction, SensorMac, SensorMacConfig};
use caem_simcore::rng::{components, RngStream};
use caem_simcore::time::SimTime;
use caem_traffic::buffer::PacketBuffer;
use caem_traffic::profile::DiurnalCycle;
use caem_traffic::source::{BurstySource, CbrSource, PoissonSource, TrafficSource, TrafficState};

use crate::config::{ScenarioConfig, TrafficModel, TrafficProfile};

/// Sentinel in the cluster column: the node is not assigned this round.
const NO_CLUSTER: u32 = u32::MAX;

/// Inline bytes per node of every column: the `size_of` of its element.
/// Scenario-wide parameters live once in [`NodeParams`] and are not counted.
const INLINE_COLUMN_BYTES: [(&str, usize); 15] = [
    ("alive", size_of::<bool>()),
    ("is_head", size_of::<bool>()),
    ("cluster", size_of::<u32>()),
    ("queue_len", size_of::<u32>()),
    ("remaining_j", size_of::<f64>()),
    ("generated", size_of::<u64>()),
    ("delivered", size_of::<u64>()),
    ("dropped", size_of::<u64>()),
    ("positions", size_of::<Position>()),
    ("batteries", size_of::<Battery>()),
    ("buffers", size_of::<PacketBuffer>()),
    ("macs", size_of::<SensorMac>()),
    ("policies", size_of::<Policy>()),
    ("traffic", size_of::<TrafficState>()),
    ("links", size_of::<LinkChannel>()),
];

/// The scenario-wide parameters every node's cold state is read against.
///
/// One copy per table: the component methods take the part they need by
/// reference, so no node carries a copy of a scenario constant.
#[derive(Debug, Clone)]
pub struct NodeParams {
    /// Backoff and burst-sizing parameters of the sensor MAC.
    pub mac: SensorMacConfig,
    /// Link budget and propagation models.
    pub link: LinkParams,
    /// CAEM threshold-adjustment parameters.
    pub caem: CaemConfig,
    /// Packet-buffer capacity (`None` = unbounded).
    pub buffer_capacity: Option<usize>,
    /// The traffic source every node runs.
    pub traffic: TrafficSource,
}

impl NodeParams {
    /// The node parameters of scenario `cfg`.
    fn new(cfg: &ScenarioConfig) -> Self {
        NodeParams {
            mac: SensorMacConfig {
                backoff: cfg.backoff,
                burst: cfg.burst,
            },
            link: LinkParams {
                budget: cfg.link_budget,
                path_loss: cfg.path_loss,
                shadowing: cfg.shadowing,
                fading: FadingConfig::default(),
            },
            caem: cfg.caem,
            buffer_capacity: cfg.buffer_capacity,
            traffic: traffic_source(cfg.traffic, cfg.traffic_profile),
        }
    }
}

/// A scenario's traffic source from its traffic model and time-of-day
/// profile.  A [`TrafficProfile::Diurnal`] profile wraps the base source in
/// a deterministic time warp; [`TrafficProfile::Constant`] returns the base
/// source untouched, so the paper's stationary scenarios build bit-identical
/// sources.
fn traffic_source(model: TrafficModel, profile: TrafficProfile) -> TrafficSource {
    let base = match model {
        TrafficModel::Poisson { rate_pps } => TrafficSource::Poisson(PoissonSource::new(rate_pps)),
        TrafficModel::Cbr { rate_pps } => TrafficSource::Cbr(CbrSource::new(rate_pps)),
        TrafficModel::Bursty {
            quiet_rate_pps,
            burst_rate_pps,
            mean_quiet_s,
            mean_burst_s,
        } => TrafficSource::Bursty(BurstySource::new(
            quiet_rate_pps,
            burst_rate_pps,
            mean_quiet_s,
            mean_burst_s,
        )),
    };
    match profile {
        TrafficProfile::Constant => base,
        TrafficProfile::Diurnal {
            period_s,
            relative_amplitude,
        } => TrafficSource::Diurnal(
            Box::new(base),
            DiurnalCycle::trough_start(period_s, relative_amplitude),
        ),
    }
}

/// All per-node simulation state, as parallel hot/cold columns.
pub struct NodeTable {
    // ---- hot columns: touched by the event loop and round snapshots ----
    /// Liveness mask (battery depleted or churn-failed ⇒ `false`).
    alive: Vec<bool>,
    /// Cluster-head flag for the current round.
    is_head: Vec<bool>,
    /// Cluster index for the current round (`NO_CLUSTER` = unassigned).
    cluster: Vec<u32>,
    /// Mirror of each node's packet-buffer length.
    queue_len: Vec<u32>,
    /// Mirror of each node's remaining battery energy (J).
    remaining_j: Vec<f64>,
    /// Packets generated per node.
    generated: Vec<u64>,
    /// Packets delivered per node (burst deliveries + head self-delivery).
    delivered: Vec<u64>,
    /// Packets dropped per node (overflow + abandoned retries).
    dropped: Vec<u64>,
    /// Number of `true` entries in `alive`.
    alive_count: usize,

    // ---- cold columns: touched only by the owning node's events ----
    positions: Vec<Position>,
    batteries: Vec<Battery>,
    buffers: Vec<PacketBuffer>,
    macs: Vec<SensorMac>,
    policies: Vec<Policy>,
    traffic: Vec<TrafficState>,
    links: Vec<LinkChannel>,

    /// The scenario constants the cold columns are read against.
    params: NodeParams,
}

impl NodeTable {
    /// Deploy `cfg.node_count` nodes: place them with the scenario topology,
    /// seed every per-node random stream and charge the (possibly
    /// heterogeneous) batteries.
    ///
    /// Stream derivation is a pure function of `(component, node)`, so
    /// building column-by-column consumes exactly the random numbers the
    /// node-by-node constructor did.
    pub fn deploy(cfg: &ScenarioConfig, streams: &RngStream) -> Self {
        // Deployment happens before the run owns a profiling shard, so its
        // span lands directly in the process-wide profile.
        let span = caem_metrics::prof::Span::start();
        let n = cfg.node_count;
        let params = NodeParams::new(cfg);
        let mut placement_rng = streams.derive(components::PLACEMENT, 0);
        let positions = cfg.topology.generate(&cfg.field, n, &mut placement_rng);

        let batteries: Vec<Battery> = (0..n)
            .map(|id| {
                // Heterogeneous initial charge: each node draws its spread
                // factor from its own stream, so adding heterogeneity never
                // perturbs placement or any other random sequence.
                let initial_energy = if cfg.initial_energy_spread > 0.0 {
                    let spread = cfg.initial_energy_spread;
                    let mut rng = streams.derive(components::HETEROGENEITY, id as u64);
                    cfg.initial_energy_j * (1.0 + rng.uniform(-spread, spread))
                } else {
                    cfg.initial_energy_j
                };
                Battery::new(initial_energy)
            })
            .collect();
        let remaining_j: Vec<f64> = batteries.iter().map(|b| b.remaining()).collect();

        let macs = (0..n)
            .map(|id| SensorMac::new(streams.derive(components::BACKOFF, id as u64)))
            .collect();
        let policies = (0..n)
            .map(|_| Policy::new(cfg.policy, &params.caem))
            .collect();
        let traffic = (0..n)
            .map(|id| {
                params
                    .traffic
                    .new_state(streams.derive(components::TRAFFIC, id as u64))
            })
            .collect();
        let links = (0..n)
            .map(|id| {
                LinkChannel::with_distance(
                    &params.link,
                    cfg.field.diagonal(),
                    streams.derive(components::SHADOWING, id as u64),
                    streams.derive(components::FADING, id as u64),
                )
            })
            .collect();

        let table = NodeTable {
            alive: vec![true; n],
            is_head: vec![false; n],
            cluster: vec![NO_CLUSTER; n],
            queue_len: vec![0; n],
            remaining_j,
            generated: vec![0; n],
            delivered: vec![0; n],
            dropped: vec![0; n],
            alive_count: n,
            positions,
            batteries,
            buffers: (0..n).map(|_| PacketBuffer::new()).collect(),
            macs,
            policies,
            traffic,
            links,
            params,
        };
        span.stop_global(caem_metrics::prof::ProfKey::Deploy, n as u64);
        table
    }

    /// The scenario constants every node's cold state is read against.
    #[inline]
    pub fn params(&self) -> &NodeParams {
        &self.params
    }

    /// Bytes per node of every column: the inline size of its element, plus
    /// for the packet buffers the heap capacity they hold, averaged over the
    /// nodes.  Sums to the table's whole per-node footprint.
    pub fn column_bytes_per_node(&self) -> Vec<(&'static str, f64)> {
        let heap: usize = self.buffers.iter().map(PacketBuffer::heap_bytes).sum();
        let heap_per_node = heap as f64 / self.len().max(1) as f64;
        INLINE_COLUMN_BYTES
            .iter()
            .map(|&(name, inline)| {
                let extra = if name == "buffers" {
                    heap_per_node
                } else {
                    0.0
                };
                (name, inline as f64 + extra)
            })
            .collect()
    }

    /// Number of nodes (alive or dead).
    pub fn len(&self) -> usize {
        self.alive.len()
    }

    /// True when the table holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.alive.is_empty()
    }

    /// Number of live nodes.
    #[inline]
    pub fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// Is `node` alive?
    #[inline]
    pub fn is_alive(&self, node: usize) -> bool {
        self.alive[node]
    }

    /// The liveness column — feeds the LEACH election and cluster formation
    /// directly, with no per-round copy.
    #[inline]
    pub fn alive_slice(&self) -> &[bool] {
        &self.alive
    }

    /// Every node's position (cold, but contiguous by construction).
    #[inline]
    pub fn positions(&self) -> &[Position] {
        &self.positions
    }

    /// Is `node` serving as cluster head this round?
    #[inline]
    pub fn is_head(&self, node: usize) -> bool {
        self.is_head[node]
    }

    /// The cluster `node` belongs to this round, if any.
    #[inline]
    pub fn cluster(&self, node: usize) -> Option<usize> {
        let c = self.cluster[node];
        (c != NO_CLUSTER).then_some(c as usize)
    }

    /// Mirror of `node`'s packet-buffer length.
    #[inline]
    pub fn queue_len(&self, node: usize) -> usize {
        self.queue_len[node] as usize
    }

    /// The queue-length column (fairness snapshots read it wholesale).
    #[inline]
    pub fn queue_len_slice(&self) -> &[u32] {
        &self.queue_len
    }

    /// The head-flag column.
    #[inline]
    pub fn is_head_slice(&self) -> &[bool] {
        &self.is_head
    }

    /// Mirror of `node`'s remaining battery energy (J).
    #[inline]
    pub fn remaining(&self, node: usize) -> f64 {
        self.remaining_j[node]
    }

    /// The remaining-energy column — the energy tracker snapshots it
    /// directly, with no per-snapshot copy.
    #[inline]
    pub fn remaining_slice(&self) -> &[f64] {
        &self.remaining_j
    }

    // ------------------------------------------------------------------
    // Round bookkeeping
    // ------------------------------------------------------------------

    /// Install `node`'s role for a new round: head flag, cluster assignment
    /// and policy round notification.
    pub fn begin_round(&mut self, node: usize, is_head: bool, cluster: Option<usize>) {
        self.is_head[node] = is_head;
        self.cluster[node] = match cluster {
            Some(c) => c as u32,
            None => NO_CLUSTER,
        };
        self.policies[node].on_round_change(&self.params.caem);
    }

    // ------------------------------------------------------------------
    // Battery (with remaining-energy mirror)
    // ------------------------------------------------------------------

    /// Draw `joules` from `node`'s battery.  Returns `true` when this draw
    /// depleted the battery (the node is marked dead); the caller records
    /// the death time.  Draws on dead nodes are ignored.
    pub fn draw_energy(&mut self, node: usize, category: EnergyCategory, joules: f64) -> bool {
        if !self.alive[node] {
            return false;
        }
        let died = self.batteries[node].draw(category, joules);
        self.remaining_j[node] = self.batteries[node].remaining();
        if died {
            self.alive[node] = false;
            self.alive_count -= 1;
        }
        died
    }

    /// Kill `node` for a non-energy reason (churn): the battery keeps its
    /// charge, the node simply stops participating.  Returns `true` when the
    /// node was alive.
    pub fn fail_node(&mut self, node: usize) -> bool {
        if !self.alive[node] {
            return false;
        }
        self.alive[node] = false;
        self.alive_count -= 1;
        true
    }

    /// Merge every node's energy ledger into one network-wide ledger.
    pub fn merged_ledger(&self) -> EnergyLedger {
        let mut ledger = EnergyLedger::new();
        for battery in &self.batteries {
            ledger.merge(battery.ledger());
        }
        ledger
    }

    // ------------------------------------------------------------------
    // Packet buffer (with queue-length mirror)
    // ------------------------------------------------------------------

    /// Try to enqueue a packet created at `created_at` on `node`'s buffer.
    /// Returns `false` on overflow.
    pub fn enqueue(&mut self, node: usize, created_at: SimTime) -> bool {
        let accepted = self.buffers[node].enqueue(self.params.buffer_capacity, created_at);
        self.queue_len[node] = self.buffers[node].len() as u32;
        accepted
    }

    /// Dequeue `node`'s head-of-line packet (its creation time).
    pub fn dequeue(&mut self, node: usize) -> Option<SimTime> {
        let p = self.buffers[node].dequeue();
        self.queue_len[node] = self.buffers[node].len() as u32;
        p
    }

    /// Dequeue up to `count` packets from `node`, appending them to `out`.
    pub fn dequeue_burst_into(&mut self, node: usize, count: usize, out: &mut Vec<SimTime>) {
        self.buffers[node].dequeue_burst_into(count, out);
        self.queue_len[node] = self.buffers[node].len() as u32;
    }

    /// Return an aborted burst's packets to the *front* of `node`'s buffer,
    /// draining `packets` in place.
    pub fn requeue_front_drain(&mut self, node: usize, packets: &mut Vec<SimTime>) {
        self.buffers[node].requeue_front_drain(packets);
        self.queue_len[node] = self.buffers[node].len() as u32;
    }

    // ------------------------------------------------------------------
    // Per-node packet counters
    // ------------------------------------------------------------------

    /// Count one generated packet.
    #[inline]
    pub fn record_generated(&mut self, node: usize) {
        self.generated[node] += 1;
    }

    /// Count one packet delivered over the air.
    #[inline]
    pub fn record_delivered(&mut self, node: usize) {
        self.delivered[node] += 1;
    }

    /// Count `count` packets a serving head sank for free (its own data
    /// reaches the sink without using the shared channel).
    #[inline]
    pub fn record_self_delivered(&mut self, node: usize, count: u64) {
        self.delivered[node] += count;
    }

    /// Count one dropped packet (overflow or abandoned retry).
    #[inline]
    pub fn record_dropped(&mut self, node: usize) {
        self.dropped[node] += 1;
    }

    /// Packets generated by `node`.
    #[inline]
    pub fn generated(&self, node: usize) -> u64 {
        self.generated[node]
    }

    /// Packets delivered by `node`.
    #[inline]
    pub fn delivered(&self, node: usize) -> u64 {
        self.delivered[node]
    }

    /// Packets dropped by `node`.
    #[inline]
    pub fn dropped(&self, node: usize) -> u64 {
        self.dropped[node]
    }

    // ------------------------------------------------------------------
    // Cold-state accessors
    // ------------------------------------------------------------------

    /// `node`'s MAC state machine (read-only).
    #[inline]
    pub fn mac(&self, node: usize) -> &SensorMac {
        &self.macs[node]
    }

    /// `node`'s MAC state machine, for the transitions that read no
    /// scenario parameter.
    #[inline]
    pub fn mac_mut(&mut self, node: usize) -> &mut SensorMac {
        &mut self.macs[node]
    }

    /// `node`'s MAC and link channel together, with the scenario parameters
    /// — the lazy-CSI observation closures borrow the link while the MAC
    /// decides, which the split columns permit without any
    /// struct-destructuring dance.
    #[inline]
    pub fn mac_link_mut(&mut self, node: usize) -> (&mut SensorMac, &mut LinkChannel, &NodeParams) {
        (&mut self.macs[node], &mut self.links[node], &self.params)
    }

    /// A collision aborted `node`'s burst: see
    /// [`SensorMac::collision_detected`].
    #[inline]
    pub fn collision_detected(&mut self, node: usize) -> (SensorAction, bool) {
        self.macs[node].collision_detected(&self.params.mac)
    }

    /// `node`'s threshold policy (read-only).
    #[inline]
    pub fn policy(&self, node: usize) -> &Policy {
        &self.policies[node]
    }

    /// `node`'s threshold policy, with the CAEM parameters it reads.
    #[inline]
    pub fn policy_mut(&mut self, node: usize) -> (&mut Policy, &CaemConfig) {
        (&mut self.policies[node], &self.params.caem)
    }

    /// Draw `node`'s next packet arrival after `now`.
    #[inline]
    pub fn next_arrival(&mut self, node: usize, now: SimTime) -> SimTime {
        self.params
            .traffic
            .next_arrival(&mut self.traffic[node], now)
    }

    /// The data-channel SNR of `node`'s link at `now` (memoised per instant).
    #[inline]
    pub fn snr_db(&mut self, node: usize, now: SimTime) -> f64 {
        self.links[node].snr_db(&self.params.link, now)
    }

    /// Re-home `node`'s link to a head `distance_m` away.
    #[inline]
    pub fn set_link_distance(&mut self, node: usize, distance_m: f64) {
        self.links[node].set_distance(&self.params.link, distance_m);
    }

    /// Check every mirror column against the cold state it shadows.
    /// Test-support: the model-based suite calls this after each operation.
    pub fn assert_mirrors_consistent(&self) {
        let mut live = 0usize;
        for i in 0..self.len() {
            assert_eq!(
                self.queue_len[i] as usize,
                self.buffers[i].len(),
                "queue_len mirror drifted at node {i}"
            );
            assert_eq!(
                self.remaining_j[i].to_bits(),
                self.batteries[i].remaining().to_bits(),
                "remaining_j mirror drifted at node {i}"
            );
            if self.alive[i] {
                live += 1;
                assert!(
                    !self.batteries[i].is_depleted(),
                    "node {i} alive with a depleted battery"
                );
            }
        }
        assert_eq!(live, self.alive_count, "alive_count drifted");
    }
}

impl std::fmt::Debug for NodeTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeTable")
            .field("nodes", &self.len())
            .field("alive", &self.alive_count)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caem::policy::PolicyKind;
    use caem_simcore::rng::StreamRng;

    /// The exact inline bytes of every column on 64-bit targets, so any
    /// growth of a per-node type fails deterministically on every host,
    /// whatever its timing noise.  Shrinking a column updates this table.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn inline_bytes_per_node_are_pinned() {
        let expected: [(&str, usize); 15] = [
            ("alive", 1),
            ("is_head", 1),
            ("cluster", 4),
            ("queue_len", 4),
            ("remaining_j", 8),
            ("generated", 8),
            ("delivered", 8),
            ("dropped", 8),
            ("positions", 16),
            ("batteries", 88),
            ("buffers", 32),
            ("macs", 56),
            ("policies", 48),
            ("traffic", 56),
            ("links", 168),
        ];
        assert_eq!(INLINE_COLUMN_BYTES, expected);
        let total: usize = INLINE_COLUMN_BYTES.iter().map(|&(_, bytes)| bytes).sum();
        assert_eq!(total, 506);
    }

    #[test]
    fn column_footprint_adds_buffer_heap_to_the_inline_bytes() {
        let mut cfg = ScenarioConfig::small(PolicyKind::Scheme1Adaptive, 5.0, 1);
        cfg.node_count = 4;
        let mut table = NodeTable::deploy(&cfg, &RngStream::new(cfg.seed));
        let inline: Vec<(&str, f64)> = INLINE_COLUMN_BYTES
            .iter()
            .map(|&(name, bytes)| (name, bytes as f64))
            .collect();
        // Freshly deployed buffers own no heap.
        assert_eq!(table.column_bytes_per_node(), inline);
        assert!(table.enqueue(0, SimTime::ZERO));
        let heap = table.buffers[0].heap_bytes() as f64 / 4.0;
        assert!(heap > 0.0);
        for ((name, bytes), (_, inline_bytes)) in
            table.column_bytes_per_node().into_iter().zip(inline)
        {
            let extra = if name == "buffers" { heap } else { 0.0 };
            assert_eq!(bytes, inline_bytes + extra, "{name}");
        }
    }

    fn rng() -> StreamRng {
        StreamRng::from_seed_u64(1)
    }

    #[test]
    fn source_factory_builds_all_models() {
        let constant = TrafficProfile::Constant;
        let p = traffic_source(TrafficModel::Poisson { rate_pps: 5.0 }, constant);
        let c = traffic_source(TrafficModel::Cbr { rate_pps: 5.0 }, constant);
        let b = traffic_source(
            TrafficModel::Bursty {
                quiet_rate_pps: 1.0,
                burst_rate_pps: 10.0,
                mean_quiet_s: 5.0,
                mean_burst_s: 1.0,
            },
            constant,
        );
        for s in [&p, &c, &b] {
            let t = s.next_arrival(&mut s.new_state(rng()), SimTime::ZERO);
            assert!(t > SimTime::ZERO);
            assert!(s.mean_rate() > 0.0);
        }
        assert_eq!(c.mean_rate(), 5.0);
        assert!(matches!(c.new_state(rng()), TrafficState::Cbr));
    }

    #[test]
    fn diurnal_profile_wraps_the_base_source_and_keeps_its_mean_rate() {
        let diurnal = TrafficProfile::Diurnal {
            period_s: 300.0,
            relative_amplitude: 0.7,
        };
        let warped = traffic_source(TrafficModel::Poisson { rate_pps: 5.0 }, diurnal);
        assert!(matches!(warped, TrafficSource::Diurnal(..)));
        assert_eq!(warped.mean_rate(), 5.0);
        // The warp keeps the base source's per-node state.
        assert!(matches!(warped.new_state(rng()), TrafficState::Poisson(_)));
        // A constant profile builds the bare source — the paper's scenarios
        // take the exact pre-profile code path.
        let plain = traffic_source(
            TrafficModel::Poisson { rate_pps: 5.0 },
            TrafficProfile::Constant,
        );
        assert!(matches!(plain, TrafficSource::Poisson(_)));
    }
}
