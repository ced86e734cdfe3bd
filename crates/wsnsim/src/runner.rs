//! The discrete-event network simulation loop.
//!
//! One [`SimulationRun`] owns the [`NodeTable`] (every node's state as
//! hot/cold parallel columns), the LEACH election state, one data channel
//! per cluster, the bursts on the air and the metric trackers, and
//! processes a typed [`NetworkEvent`] queue until the configured horizon.
//! All stochastic components draw from independent streams derived from the
//! scenario seed, so a run is exactly reproducible and protocol comparisons
//! use common random numbers.
//!
//! Events are drained one *instant* at a time: every event scheduled for
//! the current timestamp is popped into a reusable batch buffer (in FIFO
//! delivery order, so the schedule is bit-identical to a one-at-a-time
//! loop) and dispatched in runs of consecutive equal [`EventKind`]s.  The
//! queue hands over a whole instant in one buffer swap, and the dispatch
//! branch stays predicted within a run.
//!
//! Burst state follows the paper's model, where each cluster has one data
//! channel: the bursts on the air live in a `BurstSlab` whose size is
//! bounded by the concurrent bursts (about one per cluster), not by the
//! node count.  A burst is named by its slab id, both by its cluster's
//! `ClusterChannel` and by the `TransmissionComplete` event that ends it.

use caem_cluster::election::{ElectionConfig, LeachElection};
use caem_cluster::formation::ClusterFormation;
use caem_cluster::rounds::RoundClock;
use caem_energy::battery::EnergyCategory;
use caem_mac::sensor::{SensorAction, SensorMacState};
use caem_mac::tone::ChannelState;
use caem_metrics::energy::EnergyTracker;
use caem_metrics::fairness::QueueFairness;
use caem_metrics::lifetime::LifetimeTracker;
use caem_metrics::perf::NetworkPerformance;
use caem_metrics::prof::{self, ProfKey, Profile, Span};
use caem_phy::ber::packet_error_rate;
use caem_phy::mode::TransmissionMode;
use caem_simcore::event::EventQueue;
use caem_simcore::rng::{components, RngStream, StreamRng};
use caem_simcore::time::{Duration, SimTime};

use crate::config::{ConfigError, ScenarioConfig};
use crate::events::{EventKind, NetworkEvent};
use crate::result::{NodeSummary, SimulationResult};
use crate::table::NodeTable;

/// The profile slot each event kind's dispatch runs are attributed to.
fn event_key(kind: EventKind) -> ProfKey {
    match kind {
        EventKind::RoundStart => ProfKey::EvRoundStart,
        EventKind::PacketArrival => ProfKey::EvPacketArrival,
        EventKind::SenseChannel => ProfKey::EvSenseChannel,
        EventKind::BackoffExpired => ProfKey::EvBackoffExpired,
        EventKind::TransmissionComplete => ProfKey::EvTransmissionComplete,
        EventKind::NodeFailure => ProfKey::EvNodeFailure,
        EventKind::EnergySnapshot => ProfKey::EvEnergySnapshot,
        EventKind::FairnessSnapshot => ProfKey::EvFairnessSnapshot,
    }
}

/// A burst currently on the air.
#[derive(Debug)]
struct OngoingBurst {
    /// The sending node.
    node: usize,
    /// When the cluster head starts advertising `receive` tones for this
    /// burst (commit time + head detection delay).  Until then other sensors
    /// still see `idle` — the collision vulnerability window.
    advertised_from: SimTime,
    /// Transmission end.
    end: SimTime,
    /// Set when a later burst collided with this one.
    collided: bool,
    /// Creation times of the packets carried by the burst.
    packets: Vec<SimTime>,
    /// ABICM mode the burst uses.
    mode: TransmissionMode,
    /// The cluster head the burst is addressed to.
    head: usize,
    /// Cluster index (of the round the burst started in).
    cluster: usize,
}

/// The bursts on the air, in reusable slots named by a `u32` id.
///
/// A completed burst's slot goes on a free list and is reused by the next
/// burst, so the slab never holds more slots than the most bursts that
/// were ever on the air at once.
#[derive(Debug, Default)]
struct BurstSlab {
    slots: Vec<Option<OngoingBurst>>,
    free: Vec<u32>,
}

impl BurstSlab {
    /// Store `burst` and return its id.
    fn insert(&mut self, burst: OngoingBurst) -> u32 {
        match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = Some(burst);
                id
            }
            None => {
                self.slots.push(Some(burst));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// The burst with id `id`, if it is still on the air.
    fn get(&self, id: u32) -> Option<&OngoingBurst> {
        self.slots.get(id as usize)?.as_ref()
    }

    /// The burst with id `id`, if it is still on the air.
    fn get_mut(&mut self, id: u32) -> Option<&mut OngoingBurst> {
        self.slots.get_mut(id as usize)?.as_mut()
    }

    /// Take the burst with id `id` off the air and free its slot.
    fn remove(&mut self, id: u32) -> Option<OngoingBurst> {
        let burst = self.slots.get_mut(id as usize)?.take()?;
        self.free.push(id);
        Some(burst)
    }
}

/// One cluster's data channel in the current round.
#[derive(Debug, Clone, Copy, Default)]
struct ClusterChannel {
    /// The burst that last claimed the channel, until it completes or the
    /// round ends.
    on_air: Option<u32>,
}

/// A fully-initialised simulation ready to run.
pub struct SimulationRun {
    cfg: ScenarioConfig,
    now: SimTime,
    queue: EventQueue<NetworkEvent>,
    /// Every node's state, hot/cold split into parallel columns.
    table: NodeTable,
    election: LeachElection,
    round_clock: RoundClock,
    formation: Option<ClusterFormation>,
    /// Each cluster's data channel, indexed by the current round's cluster.
    channels: Vec<ClusterChannel>,
    /// Every burst on the air (at most one per node).  A burst can outlive
    /// the round it started in, and with it its cluster's channel entry.
    burst_slab: BurstSlab,
    election_rng: StreamRng,
    error_rng: StreamRng,
    /// Jitter for tone-observation scheduling: each sensor locks onto its own
    /// pulse phase, so waiting contenders are not synchronised.
    jitter_rng: StreamRng,
    // Metrics.
    energy: EnergyTracker,
    lifetime: LifetimeTracker,
    perf: NetworkPerformance,
    fairness: QueueFairness,
    collisions: u64,
    bursts: u64,
    node_failures: u64,
    events_processed: u64,
    /// Per-run profiling shard: wall time + event counts per subsystem and
    /// per event kind.  Empty unless `caem_metrics::prof` is enabled; never
    /// feeds back into simulation state, so profiled runs stay bit-identical.
    prof: Profile,
    // ---- hot-path hoisted constants (derived from `cfg` once) ----
    /// Energy of one tone-channel observation window.
    tone_observation_energy_j: f64,
    /// Energy of acquiring the tone channel after wake-up.
    sensing_energy_j: f64,
    /// Reusable same-instant batch buffer for the event loop.
    batch: Vec<NetworkEvent>,
    /// Retired burst vectors, recycled by `start_burst` so steady-state burst
    /// traffic performs no allocations.
    burst_buffer_pool: Vec<Vec<SimTime>>,
}

impl SimulationRun {
    /// Deploy the network described by `cfg` and prime the event queue.
    ///
    /// Panics when `cfg` is invalid — use [`SimulationRun::try_new`] to
    /// surface the typed [`ConfigError`] when the configuration comes from
    /// user input rather than code.
    pub fn new(cfg: ScenarioConfig) -> Self {
        match Self::try_new(cfg) {
            Ok(run) => run,
            Err(e) => panic!("invalid scenario configuration: {e}"),
        }
    }

    /// Deploy the network described by `cfg` and prime the event queue,
    /// surfacing validation failures as a typed [`ConfigError`] instead of
    /// panicking.
    pub fn try_new(cfg: ScenarioConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let streams = RngStream::new(cfg.seed);
        let table = NodeTable::deploy(&cfg, &streams);

        let mut queue = EventQueue::new();
        queue.push(SimTime::ZERO, NetworkEvent::RoundStart);
        queue.push(SimTime::ZERO, NetworkEvent::EnergySnapshot);
        queue.push(SimTime::ZERO, NetworkEvent::FairnessSnapshot);

        // Constants consumed on every hot-path event, derived from the
        // scenario once instead of being recomputed per observation.
        let idle_pulse = cfg.tone.pulse_for(ChannelState::Idle).duration;
        // Wake a little early and stay a little late to be sure of catching
        // the pulse: charge one-and-a-half pulse-durations of receive power.
        let tone_observation_energy_j = cfg.power.tone_rx_w * idle_pulse.as_secs_f64() * 1.5;
        let sensing_energy_j = cfg.power.tone_rx_w * cfg.sensing_delay.as_secs_f64();

        let mut run = SimulationRun {
            election: LeachElection::new(
                cfg.node_count,
                ElectionConfig {
                    ch_probability: cfg.ch_probability,
                },
            ),
            round_clock: RoundClock::new(cfg.round),
            formation: None,
            channels: Vec::new(),
            burst_slab: BurstSlab::default(),
            election_rng: streams.derive(components::ELECTION, 0),
            error_rng: streams.derive(components::PACKET_ERROR, 0),
            jitter_rng: streams.derive(components::MISC, 0),
            energy: EnergyTracker::new(cfg.node_count),
            lifetime: LifetimeTracker::new(cfg.node_count),
            perf: NetworkPerformance::new(),
            fairness: QueueFairness::new(),
            collisions: 0,
            bursts: 0,
            node_failures: 0,
            events_processed: 0,
            prof: Profile::new(),
            tone_observation_energy_j,
            sensing_energy_j,
            batch: Vec::new(),
            burst_buffer_pool: Vec::new(),
            table,
            now: SimTime::ZERO,
            queue,
            cfg,
        };
        // Prime the traffic: one pending arrival per node.
        for id in 0..run.cfg.node_count {
            let first = run.table.next_arrival(id, SimTime::ZERO);
            run.schedule(first, NetworkEvent::PacketArrival { node: id as u32 });
        }
        // Churn injection: every node draws one exponential failure time
        // from its own stream; failures beyond the horizon are dropped by
        // `schedule`, so light churn costs nothing in the event loop.
        if let Some(churn) = run.cfg.churn {
            for id in 0..run.cfg.node_count {
                let mut rng = streams.derive(components::CHURN, id as u64);
                let at = SimTime::from_secs_f64(rng.exponential_mean(churn.mean_time_to_failure_s));
                run.schedule(at, NetworkEvent::NodeFailure { node: id as u32 });
            }
        }
        Ok(run)
    }

    /// The scenario this run simulates.
    pub fn config(&self) -> &ScenarioConfig {
        &self.cfg
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Read-only access to the per-node state columns.
    pub fn table(&self) -> &NodeTable {
        &self.table
    }

    fn schedule(&mut self, at: SimTime, event: NetworkEvent) {
        if at <= SimTime::ZERO + self.cfg.duration {
            self.queue.push(at.max(self.now), event);
        }
    }

    /// Draw energy from a node's battery, handling the death edge.
    fn draw_energy(&mut self, node: usize, category: EnergyCategory, joules: f64) {
        if joules <= 0.0 {
            return;
        }
        if self.table.draw_energy(node, category, joules) {
            self.lifetime.record_death(node, self.now);
        }
    }

    /// The advertised state of a cluster's data channel.
    ///
    /// The head only advertises `receive` once it has detected the incoming
    /// burst, so a second sensor that checks the channel inside that
    /// detection window still sees `idle` — that window is exactly where
    /// collisions come from.
    fn channel_state(&self, cluster: usize) -> ChannelState {
        match self
            .channels
            .get(cluster)
            .and_then(|c| self.burst_slab.get(c.on_air?))
        {
            Some(burst) if burst.advertised_from <= self.now && burst.end > self.now => {
                ChannelState::Receive
            }
            _ => ChannelState::Idle,
        }
    }

    /// The live cluster head currently serving `node`, if any.
    fn head_of(&self, node: usize) -> Option<usize> {
        let formation = self.formation.as_ref()?;
        let head = formation.head_of(node)?;
        self.table.is_alive(head).then_some(head)
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn handle_round_start(&mut self) {
        if self.table.alive_count() == 0 {
            return; // whole network dead — no further rounds
        }
        // The election and the formation consume the table's hot columns
        // directly: no per-round copies into scratch buffers.
        let span = Span::start();
        let heads = self
            .election
            .elect_round(self.table.alive_slice(), &mut self.election_rng);
        span.stop(&mut self.prof, ProfKey::ClusterElection, 1);
        let span = Span::start();
        let formation = ClusterFormation::nearest_head(
            self.table.positions(),
            &heads,
            self.table.alive_slice(),
        );
        self.channels.clear();
        self.channels
            .resize(formation.cluster_count(), ClusterChannel::default());

        for id in 0..self.table.len() {
            if !self.table.is_alive(id) {
                continue;
            }
            let is_head = formation.is_head(id);
            let cluster = formation.cluster_of(id);
            let distance = formation
                .head_of(id)
                .map(|h| {
                    let positions = self.table.positions();
                    positions[id].distance_to(&positions[h])
                })
                .unwrap_or(0.0);
            self.table.begin_round(id, is_head, cluster);
            if !is_head {
                self.table.set_link_distance(id, distance.max(1.0));
            }
            // A node that just became head drains its backlog straight into
            // its own aggregation queue: those packets have reached a sink.
            if is_head {
                let mut backlog = self.burst_buffer_pool.pop().unwrap_or_default();
                self.table
                    .dequeue_burst_into(id, usize::MAX >> 1, &mut backlog);
                for &created_at in &backlog {
                    self.perf.record_delivered(
                        self.now.saturating_since(created_at),
                        self.cfg.frame.payload_bits,
                    );
                }
                self.recycle_burst_buffer(backlog);
            }
        }
        self.formation = Some(formation);
        span.stop(&mut self.prof, ProfKey::ClusterFormation, 1);
        let next = self.round_clock.next_round_start(self.now);
        self.schedule(next, NetworkEvent::RoundStart);
    }

    fn handle_packet_arrival(&mut self, node: usize) {
        if !self.table.is_alive(node) {
            return;
        }
        // Schedule the next arrival first so the source keeps flowing.
        let next = self.table.next_arrival(node, self.now);
        self.schedule(next, NetworkEvent::PacketArrival { node: node as u32 });

        self.perf.record_generated();

        if self.table.is_head(node) {
            // The head is the sink of its own cluster: its data is delivered
            // without using the shared data channel.
            self.perf
                .record_delivered(Duration::ZERO, self.cfg.frame.payload_bits);
            return;
        }

        let accepted = self.table.enqueue(node, self.now);
        if !accepted {
            self.perf.record_dropped_overflow();
        }
        let queue_len = self.table.queue_len(node);
        let (policy, caem) = self.table.policy_mut(node);
        policy.on_packet_arrival(caem, queue_len);

        // Wake the MAC only when a transmission could actually be worth the
        // radio start-up (enough packets, or overflow pressure).
        let urgent = policy.is_urgent(caem, queue_len);
        if self.table.mac(node).state() == SensorMacState::Sleep
            && self.cfg.burst.should_transmit(queue_len, urgent)
        {
            let action = self.table.mac_mut(node).packets_pending(queue_len);
            if action == SensorAction::StartSensing {
                // Acquiring the tone channel costs the sensing delay with the
                // tone radio fully on.
                let sensing_energy = self.sensing_energy_j;
                self.draw_energy(node, EnergyCategory::ToneReceive, sensing_energy);
                self.schedule(
                    self.now + self.cfg.sensing_delay,
                    NetworkEvent::SenseChannel { node: node as u32 },
                );
            }
        }
    }

    /// The CSI-free observation context of one tone sample: advertised
    /// channel state (`None` when the node has no live cluster head) plus the
    /// policy's current inputs.  Deliberately does **not** touch the link
    /// model — the expensive CSI derivation happens lazily inside the MAC,
    /// and only on the branches whose decision depends on it.
    fn observation_context(&self, node: usize) -> (Option<ChannelState>, f64, usize, bool) {
        let state = match (self.head_of(node), self.table.cluster(node)) {
            (Some(_), Some(cluster)) => Some(self.channel_state(cluster)),
            _ => None,
        };
        let queue_len = self.table.queue_len(node);
        let policy = self.table.policy(node);
        let caem = &self.table.params().caem;
        let threshold = policy.required_snr_db(caem);
        let urgent = policy.is_urgent(caem, queue_len);
        (state, threshold, queue_len, urgent)
    }

    fn handle_sense_channel(&mut self, node: usize) {
        if !self.table.is_alive(node)
            || self.table.is_head(node)
            || self.table.mac(node).state() != SensorMacState::Sensing
        {
            return; // dead, promoted to head, or stale event
        }
        let observation_energy = self.tone_observation_energy_j;
        self.draw_energy(node, EnergyCategory::ToneReceive, observation_energy);
        if !self.table.is_alive(node) {
            return;
        }

        let (state, threshold, queue_len, urgent) = self.observation_context(node);
        let observed_state = state;
        let now = self.now;
        // Per-event subsystem attribution: the MAC decision is timed as a
        // whole, the lazy CSI closure separately — channel time is carved
        // out of the MAC slice so the two shares stay disjoint.  All timers
        // only *read* clocks; the simulation state is untouched.
        let chan_nanos = std::cell::Cell::new(0u64);
        let mac_clock = prof::clock();
        let (mac, link, params) = self.table.mac_link_mut(node);
        let action = mac.observe_tone_lazy(
            &params.mac,
            state,
            || {
                let t0 = prof::clock();
                let snr_db = link.snr_db(&params.link, now);
                if let Some(t0) = t0 {
                    chan_nanos.set(t0.elapsed().as_nanos() as u64);
                }
                snr_db
            },
            threshold,
            queue_len,
            urgent,
        );
        if let Some(t0) = mac_clock {
            let total = t0.elapsed().as_nanos() as u64;
            let chan = chan_nanos.get();
            self.prof.add(ProfKey::Mac, 1, total.saturating_sub(chan));
            if chan > 0 {
                self.prof.add(ProfKey::Channel, 1, chan);
            }
        }
        match action {
            SensorAction::StartBackoff(backoff) => {
                // Tone radio stays fully on through the backoff.
                let energy = self.cfg.power.tone_rx_w * backoff.as_secs_f64();
                self.draw_energy(node, EnergyCategory::ToneReceive, energy);
                self.schedule(
                    self.now + backoff,
                    NetworkEvent::BackoffExpired { node: node as u32 },
                );
            }
            SensorAction::None => {
                // Keep monitoring: the next observation follows the pulse
                // cadence of the advertised state — a busy channel announces
                // itself every 10 ms (receive pulses), an idle one every
                // 50 ms, so waiting senders re-check the channel promptly
                // after a burst ends.  A per-observation jitter models each
                // sensor locking onto its own pulse phase; without it every
                // waiting contender would probe at the same instants and
                // collide far more often than the paper's protocol does.
                let interval = self
                    .cfg
                    .tone
                    .pulse_for(observed_state.unwrap_or(ChannelState::Idle))
                    .interval;
                let jitter = interval.mul_f64(self.jitter_rng.next_f64() * 0.5);
                self.schedule(
                    self.now + interval + jitter,
                    NetworkEvent::SenseChannel { node: node as u32 },
                );
            }
            SensorAction::EnterSleep => {}
            _ => {}
        }
    }

    fn handle_backoff_expired(&mut self, node: usize) {
        if !self.table.is_alive(node)
            || self.table.is_head(node)
            || self.table.mac(node).state() != SensorMacState::Backoff
        {
            return; // dead, promoted to head, or stale event
        }
        let (state, threshold, queue_len, urgent) = self.observation_context(node);
        let now = self.now;
        let chan_nanos = std::cell::Cell::new(0u64);
        let mac_clock = prof::clock();
        let (mac, link, params) = self.table.mac_link_mut(node);
        let action = mac.backoff_expired_lazy(
            &params.mac,
            state,
            || {
                let t0 = prof::clock();
                let snr_db = link.snr_db(&params.link, now);
                if let Some(t0) = t0 {
                    chan_nanos.set(t0.elapsed().as_nanos() as u64);
                }
                snr_db
            },
            threshold,
            queue_len,
            urgent,
        );
        if let Some(t0) = mac_clock {
            let total = t0.elapsed().as_nanos() as u64;
            let chan = chan_nanos.get();
            self.prof.add(ProfKey::Mac, 1, total.saturating_sub(chan));
            if chan > 0 {
                self.prof.add(ProfKey::Channel, 1, chan);
            }
        }
        match action {
            SensorAction::StartTransmission { burst_size } => {
                self.start_burst(node, burst_size);
            }
            SensorAction::None => {
                let interval = self.cfg.tone.pulse_for(ChannelState::Idle).interval;
                self.schedule(
                    self.now + interval,
                    NetworkEvent::SenseChannel { node: node as u32 },
                );
            }
            SensorAction::EnterSleep => {}
            _ => {}
        }
    }

    /// Return a finished burst's packet vector to the reuse pool.
    fn recycle_burst_buffer(&mut self, mut packets: Vec<SimTime>) {
        packets.clear();
        self.burst_buffer_pool.push(packets);
    }

    fn abort_after_collision(&mut self, node: usize, resume_at: SimTime) {
        let (_, may_retry) = self.table.collision_detected(node);
        if !may_retry && self.table.dequeue(node).is_some() {
            self.perf.record_dropped_abandoned();
        }
        if self.table.is_alive(node) && self.table.queue_len(node) > 0 {
            self.schedule(resume_at, NetworkEvent::SenseChannel { node: node as u32 });
        }
    }

    fn start_burst(&mut self, node: usize, burst_size: usize) {
        // The data radio start-up transient is paid before any bit moves.
        let startup_energy = self.cfg.power.startup_energy();
        self.draw_energy(node, EnergyCategory::Startup, startup_energy);
        if !self.table.is_alive(node) {
            return;
        }
        let begin = self.now + self.cfg.power.startup_time;

        let t0 = prof::clock();
        let snr_db = self.table.snr_db(node, self.now);
        if let Some(t0) = t0 {
            self.prof
                .add(ProfKey::Channel, 1, t0.elapsed().as_nanos() as u64);
        }
        let t0 = prof::clock();
        let selected = TransmissionMode::best_for_snr(snr_db);
        if let Some(t0) = t0 {
            self.prof
                .add(ProfKey::Phy, 1, t0.elapsed().as_nanos() as u64);
        }
        let Some(mode) = selected else {
            // The channel collapsed below the lowest mode between the check
            // and the start-up: treat as a failed access attempt.
            self.abort_after_collision(node, begin + Duration::from_millis(20));
            return;
        };

        let (Some(cluster), Some(head)) = (self.table.cluster(node), self.head_of(node)) else {
            self.abort_after_collision(node, begin + Duration::from_millis(20));
            return;
        };

        let mut packets = self.burst_buffer_pool.pop().unwrap_or_default();
        self.table
            .dequeue_burst_into(node, burst_size, &mut packets);
        if packets.is_empty() {
            // Nothing to send after all (racing round change drained the
            // buffer); put the MAC back to sleep via burst completion.
            self.burst_buffer_pool.push(packets);
            let _ = self.table.mac_mut(node).burst_complete(0);
            return;
        }
        let airtime = self.cfg.frame.burst_airtime(mode, packets.len() as u64);
        let frame_airtime = self.cfg.frame.airtime(mode);
        let end = begin + airtime;

        // Collision detection: is another burst occupying this cluster's
        // channel during our interval?  If so, it is marked collided too.
        let occupant = self.channels.get(cluster).and_then(|c| c.on_air);
        let collides = match occupant.and_then(|id| self.burst_slab.get_mut(id)) {
            Some(other) if other.end > begin => {
                other.collided = true;
                true
            }
            _ => false,
        };
        if collides {
            self.collisions += 1;
            // The colliding sender burns roughly one frame before the head's
            // collision tone stops it; the head wastes the same receive time.
            let tx_waste = self.cfg.power.transmit_energy(frame_airtime)
                + self.cfg.power.tone_rx_w * frame_airtime.as_secs_f64();
            self.draw_energy(node, EnergyCategory::CollisionWaste, tx_waste);
            let rx_waste = self.cfg.power.receive_energy(frame_airtime);
            self.draw_energy(head, EnergyCategory::CollisionWaste, rx_waste);
            self.table.requeue_front_drain(node, &mut packets);
            self.burst_buffer_pool.push(packets);
            self.abort_after_collision(node, begin + frame_airtime + Duration::from_millis(20));
            return;
        }

        // Clear channel: commit the burst.
        self.bursts += 1;
        let coded_bits_per_frame = self.cfg.frame.coded_bits(mode);
        let total_coded_bits = coded_bits_per_frame * packets.len() as u64;
        let tx_energy = self.cfg.power.transmit_energy(airtime)
            + self.cfg.power.tone_rx_w * airtime.as_secs_f64()
            + self.cfg.codec.encode_energy(total_coded_bits);
        self.draw_energy(node, EnergyCategory::DataTransmit, tx_energy);
        let codec_rx = self.cfg.codec.decode_energy(total_coded_bits);
        if codec_rx > 0.0 {
            self.draw_energy(head, EnergyCategory::Codec, codec_rx);
        }
        let rx_energy = self.cfg.power.receive_energy(airtime);
        self.draw_energy(head, EnergyCategory::DataReceive, rx_energy);

        let id = self.burst_slab.insert(OngoingBurst {
            node,
            advertised_from: self.now + self.cfg.ch_detection_delay,
            end,
            collided: false,
            packets,
            mode,
            head,
            cluster,
        });
        if let Some(channel) = self.channels.get_mut(cluster) {
            channel.on_air = Some(id);
        }
        self.schedule(end, NetworkEvent::TransmissionComplete { burst: id });
    }

    fn handle_transmission_complete(&mut self, id: u32) {
        // Each burst schedules exactly one completion, and only that
        // completion frees its slot.
        let burst = self.burst_slab.remove(id).expect("a burst completes once");
        let node = burst.node;
        // A burst that straddled a round boundary may find its index naming
        // a newer burst of the new round: only clear the channel it holds.
        if let Some(channel) = self.channels.get_mut(burst.cluster) {
            if channel.on_air == Some(id) {
                channel.on_air = None;
            }
        }
        if !self.table.is_alive(node) {
            // Died mid-burst; the energy is already spent, data lost.
            self.recycle_burst_buffer(burst.packets);
            return;
        }
        if burst.collided {
            let mut packets = burst.packets;
            self.table.requeue_front_drain(node, &mut packets);
            self.burst_buffer_pool.push(packets);
            self.abort_after_collision(node, self.now + Duration::from_millis(20));
            return;
        }
        // Per-packet channel-error draw at the SNR seen during the burst.
        let head_alive = self.table.is_alive(burst.head);
        let t0 = prof::clock();
        let snr_db = self.table.snr_db(node, self.now);
        if let Some(t0) = t0 {
            self.prof
                .add(ProfKey::Channel, 1, t0.elapsed().as_nanos() as u64);
        }
        let t0 = prof::clock();
        let per = packet_error_rate(
            burst.mode.modulation(),
            burst.mode.code_rate(),
            snr_db,
            self.cfg.frame.payload_bits,
        );
        for &created_at in &burst.packets {
            let corrupted = self.error_rng.bernoulli(per);
            if head_alive && !corrupted {
                self.perf.record_delivered(
                    self.now.saturating_since(created_at),
                    self.cfg.frame.payload_bits,
                );
            }
        }
        if let Some(t0) = t0 {
            self.prof.add(
                ProfKey::Phy,
                burst.packets.len() as u64,
                t0.elapsed().as_nanos() as u64,
            );
        }
        self.recycle_burst_buffer(burst.packets);
        let queue_len = self.table.queue_len(node);
        let (policy, caem) = self.table.policy_mut(node);
        policy.on_packets_sent(caem, queue_len);
        let action = self.table.mac_mut(node).burst_complete(queue_len);
        if action == SensorAction::StartSensing {
            self.schedule(
                self.now + self.cfg.sensing_delay,
                NetworkEvent::SenseChannel { node: node as u32 },
            );
        }
    }

    /// Churn injection: the node leaves the network for a non-energy reason.
    /// Its leftover charge stays in the battery (the hardware failed, the
    /// cell did not), it simply stops participating — any burst it had on
    /// the air is cleaned up by the usual stale-event paths.
    fn handle_node_failure(&mut self, node: usize) {
        if self.table.fail_node(node) {
            self.node_failures += 1;
            self.lifetime.record_death(node, self.now);
        }
    }

    fn handle_energy_snapshot(&mut self) {
        let span = Span::start();
        let interval = self.cfg.energy_snapshot_interval;
        // Baseline costs accrued over the past interval: data-radio sleep for
        // every live node, tone broadcasts for the current cluster heads.
        let sleep_energy = self.cfg.power.data_sleep_w * interval.as_secs_f64();
        let idle_duty = self.cfg.tone.duty_cycle(ChannelState::Idle);
        let head_tone_energy = self.cfg.power.tone_tx_w * idle_duty * interval.as_secs_f64();
        for id in 0..self.table.len() {
            if self.table.is_alive(id) {
                self.draw_energy(id, EnergyCategory::Sleep, sleep_energy);
                if self.table.is_head(id) {
                    self.draw_energy(id, EnergyCategory::ToneTransmit, head_tone_energy);
                }
            }
        }
        // The remaining-energy column is read after the draws, so a node
        // dying of its sleep cost snapshots as empty — and the tracker takes
        // the hot column directly, with no per-snapshot copy.
        self.energy.snapshot(self.now, self.table.remaining_slice());
        if self.table.alive_count() > 0 {
            self.schedule(self.now + interval, NetworkEvent::EnergySnapshot);
        }
        span.stop(&mut self.prof, ProfKey::StatsSnapshot, 1);
    }

    fn handle_fairness_snapshot(&mut self) {
        let span = Span::start();
        // The fairness tracker reads the hot queue-length column through the
        // alive/is-head masks directly — no filtered copy.
        self.fairness.snapshot_masked(
            self.table.queue_len_slice(),
            self.table.alive_slice(),
            self.table.is_head_slice(),
        );
        if self.table.alive_count() > 0 {
            self.schedule(
                self.now + self.cfg.fairness_snapshot_interval,
                NetworkEvent::FairnessSnapshot,
            );
        }
        span.stop(&mut self.prof, ProfKey::StatsSnapshot, 1);
    }

    /// Dispatch one same-instant batch: consecutive events of equal kind are
    /// grouped into runs and dispatched together, preserving the exact FIFO
    /// delivery order within the instant.
    fn dispatch_batch(&mut self, batch: &[NetworkEvent]) {
        let mut i = 0;
        while i < batch.len() {
            let kind = batch[i].kind();
            let mut j = i + 1;
            while j < batch.len() && batch[j].kind() == kind {
                j += 1;
            }
            let run = &batch[i..j];
            self.events_processed += run.len() as u64;
            let span = Span::start();
            match kind {
                EventKind::PacketArrival => {
                    for &e in run {
                        let NetworkEvent::PacketArrival { node } = e else {
                            unreachable!("kind-grouped run");
                        };
                        self.handle_packet_arrival(node as usize);
                    }
                }
                EventKind::SenseChannel => {
                    for &e in run {
                        let NetworkEvent::SenseChannel { node } = e else {
                            unreachable!("kind-grouped run");
                        };
                        self.handle_sense_channel(node as usize);
                    }
                }
                EventKind::BackoffExpired => {
                    for &e in run {
                        let NetworkEvent::BackoffExpired { node } = e else {
                            unreachable!("kind-grouped run");
                        };
                        self.handle_backoff_expired(node as usize);
                    }
                }
                EventKind::TransmissionComplete => {
                    for &e in run {
                        let NetworkEvent::TransmissionComplete { burst } = e else {
                            unreachable!("kind-grouped run");
                        };
                        self.handle_transmission_complete(burst);
                    }
                }
                EventKind::NodeFailure => {
                    for &e in run {
                        let NetworkEvent::NodeFailure { node } = e else {
                            unreachable!("kind-grouped run");
                        };
                        self.handle_node_failure(node as usize);
                    }
                }
                EventKind::RoundStart => {
                    for _ in run {
                        self.handle_round_start();
                    }
                }
                EventKind::EnergySnapshot => {
                    for _ in run {
                        self.handle_energy_snapshot();
                    }
                }
                EventKind::FairnessSnapshot => {
                    for _ in run {
                        self.handle_fairness_snapshot();
                    }
                }
            }
            span.stop(&mut self.prof, event_key(kind), run.len() as u64);
            i = j;
        }
    }

    /// Process events up to (and including) `until`, clamped to the
    /// scenario horizon.  Returns the number of events processed by this
    /// call.  Scale benchmarks step a run tick by tick through this method;
    /// [`SimulationRun::run`] is one call over the whole horizon.
    pub fn run_until(&mut self, until: SimTime) -> u64 {
        let deadline = until.min(SimTime::ZERO + self.cfg.duration);
        let before = self.events_processed;
        let mut batch = std::mem::take(&mut self.batch);
        while let Some(at) = self.queue.pop_batch_at_or_before(deadline, &mut batch) {
            debug_assert!(at >= self.now);
            self.now = at;
            self.dispatch_batch(&batch);
        }
        self.batch = batch;
        self.events_processed - before
    }

    /// Run the simulation to the configured horizon and collect the result.
    pub fn run(mut self) -> SimulationResult {
        self.run_until(SimTime::ZERO + self.cfg.duration);
        self.finish()
    }

    /// Collect the result of a run stepped via [`SimulationRun::run_until`].
    /// Advances the clock to the horizon (pending events past it are
    /// discarded, exactly as [`SimulationRun::run`] leaves them).
    pub fn finish(mut self) -> SimulationResult {
        let horizon = SimTime::ZERO + self.cfg.duration;
        self.now = self.now.max(horizon);
        // Final energy snapshot so the Fig. 8 curve reaches the horizon.
        self.energy.snapshot(self.now, self.table.remaining_slice());
        self.perf.set_horizon(self.now);

        // Fold this run's profiling shard into the process-wide accumulator
        // (commutative adds — safe from parallel experiment workers) and
        // hand the shard itself to the result.
        if prof::enabled() {
            prof::global().add_profile(&self.prof);
        }

        let ledger = self.table.merged_ledger();
        let head_counts = self.election.head_counts().to_vec();
        let nodes: Vec<NodeSummary> = (0..self.table.len())
            .map(|id| NodeSummary {
                id,
                remaining_energy_j: self.table.remaining(id),
                death_time: self.lifetime.death_times()[id],
                head_terms: head_counts[id],
            })
            .collect();

        SimulationResult {
            policy: self.cfg.policy,
            traffic_rate_pps: self.cfg.traffic.mean_rate_pps(),
            seed: self.cfg.seed,
            end_time: self.now,
            energy: self.energy,
            lifetime: self.lifetime,
            perf: self.perf,
            fairness: self.fairness,
            ledger,
            nodes,
            collisions: self.collisions,
            bursts: self.bursts,
            node_failures: self.node_failures,
            events_processed: self.events_processed,
            queue_high_watermark: self.queue.high_watermark(),
            profile: std::mem::take(&mut self.prof),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caem::policy::PolicyKind;

    fn small_run(policy: PolicyKind, seed: u64) -> SimulationResult {
        SimulationRun::new(ScenarioConfig::small(policy, 5.0, seed)).run()
    }

    #[test]
    fn small_scenario_runs_to_horizon() {
        let r = small_run(PolicyKind::Scheme1Adaptive, 1);
        assert_eq!(r.end_time, SimTime::from_secs(60));
        assert!(
            r.perf.generated() > 1_000,
            "generated {}",
            r.perf.generated()
        );
        assert!(r.perf.delivered() > 0);
        assert!(r.bursts > 0);
        assert_eq!(r.nodes.len(), 20);
    }

    #[test]
    fn try_new_surfaces_typed_errors_instead_of_panicking() {
        let mut cfg = ScenarioConfig::small(PolicyKind::PureLeach, 5.0, 1);
        cfg.node_count = 0;
        let err = match SimulationRun::try_new(cfg) {
            Ok(_) => panic!("zero nodes must be rejected"),
            Err(e) => e,
        };
        let msg = err.to_string();
        assert!(msg.contains("node_count"), "unexpected error: {msg}");
    }

    #[test]
    fn stepped_run_matches_one_shot_run() {
        // run_until in arbitrary increments + finish must be bit-identical
        // to a single run() over the same scenario.
        let cfg = ScenarioConfig::small(PolicyKind::Scheme1Adaptive, 5.0, 31);
        let one_shot = SimulationRun::new(cfg.clone()).run();
        let mut stepped = SimulationRun::new(cfg);
        let mut total = 0;
        for tick in [7u64, 13, 25, 40, 59, 60, 61] {
            total += stepped.run_until(SimTime::from_secs(tick));
        }
        let r = stepped.finish();
        assert_eq!(total, r.events_processed);
        assert_eq!(r.events_processed, one_shot.events_processed);
        assert_eq!(r.perf.delivered(), one_shot.perf.delivered());
        assert_eq!(r.collisions, one_shot.collisions);
        assert_eq!(
            r.ledger.total().to_bits(),
            one_shot.ledger.total().to_bits()
        );
        for (a, b) in r.nodes.iter().zip(&one_shot.nodes) {
            assert_eq!(
                a.remaining_energy_j.to_bits(),
                b.remaining_energy_j.to_bits()
            );
        }
    }

    #[test]
    fn energy_only_decreases() {
        let r = small_run(PolicyKind::PureLeach, 2);
        let samples = r.energy.series().samples();
        assert!(samples.len() > 5);
        for w in samples.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-9, "energy increased: {w:?}");
        }
        // Something was actually consumed.
        assert!(samples.last().unwrap().1 < samples[0].1);
    }

    #[test]
    fn delivery_is_counted_against_generation() {
        let r = small_run(PolicyKind::PureLeach, 3);
        assert!(r.perf.delivered() <= r.perf.generated());
        assert!(
            r.delivery_rate() > 0.3,
            "delivery rate {}",
            r.delivery_rate()
        );
    }

    #[test]
    fn event_queue_is_sized_from_the_scenario_and_never_regrows() {
        for rate in [5.0, 30.0] {
            let cfg = ScenarioConfig::small(PolicyKind::Scheme1Adaptive, rate, 5);
            let capacity = cfg.initial_queue_capacity();
            let r = SimulationRun::new(cfg).run();
            assert!(
                r.queue_high_watermark <= capacity,
                "at {rate} pkt/s the queue peaked at {} pending but was sized for {capacity}",
                r.queue_high_watermark,
            );
            // The bound is not wildly loose either: the peak should reach a
            // meaningful fraction of it.
            assert!(
                r.queue_high_watermark * 8 >= capacity,
                "queue sized for {capacity} but peaked at only {}",
                r.queue_high_watermark
            );
        }
    }

    #[test]
    fn runs_are_reproducible_per_seed() {
        let a = small_run(PolicyKind::Scheme1Adaptive, 7);
        let b = small_run(PolicyKind::Scheme1Adaptive, 7);
        assert_eq!(a.perf.generated(), b.perf.generated());
        assert_eq!(a.perf.delivered(), b.perf.delivered());
        assert_eq!(a.bursts, b.bursts);
        assert_eq!(a.collisions, b.collisions);
        assert!((a.ledger.total() - b.ledger.total()).abs() < 1e-9);
        let c = small_run(PolicyKind::Scheme1Adaptive, 8);
        assert_ne!(a.perf.delivered(), c.perf.delivered());
    }

    #[test]
    fn channel_adaptation_saves_energy_per_packet() {
        // The paper's central claim, on a small network: Scheme 1 spends less
        // energy per delivered packet than pure LEACH.
        let leach = small_run(PolicyKind::PureLeach, 11);
        let scheme1 = small_run(PolicyKind::Scheme1Adaptive, 11);
        let e_leach = leach.per_packet_energy().joules_per_packet().unwrap();
        let e_caem = scheme1.per_packet_energy().joules_per_packet().unwrap();
        assert!(
            e_caem < e_leach,
            "Scheme 1 ({e_caem} J/pkt) should beat pure LEACH ({e_leach} J/pkt)"
        );
    }

    #[test]
    fn scheme2_delivers_less_but_spends_less() {
        let scheme1 = small_run(PolicyKind::Scheme1Adaptive, 13);
        let scheme2 = small_run(PolicyKind::Scheme2Fixed, 13);
        // The fixed 2 Mbps threshold defers more traffic...
        assert!(scheme2.delivery_rate() <= scheme1.delivery_rate() + 0.05);
        // ...and consumes no more total energy.
        assert!(scheme2.ledger.total() <= scheme1.ledger.total() * 1.05);
    }

    #[test]
    fn ledger_total_matches_battery_drawdown() {
        let r = small_run(PolicyKind::Scheme1Adaptive, 17);
        let consumed_via_batteries: f64 = r.nodes.iter().map(|n| 10.0 - n.remaining_energy_j).sum();
        // Drawn energy can exceed initial-remaining only by the final draws
        // that crossed zero; on a 60 s run nothing should be near depletion.
        assert!((r.ledger.total() - consumed_via_batteries).abs() < 1e-6);
    }

    #[test]
    fn churn_injection_kills_nodes_without_draining_batteries() {
        let cfg = ScenarioConfig::small(PolicyKind::PureLeach, 5.0, 21)
            .with_duration(Duration::from_secs(30))
            .with_churn_mttf_s(20.0);
        let r = SimulationRun::new(cfg.clone()).run();
        assert!(
            r.node_failures > 0,
            "mttf 20s over 30s must fail some nodes"
        );
        assert!(r.lifetime.dead_count() as u64 >= r.node_failures);
        // Churned nodes leave their charge behind: some dead node still
        // holds most of its 10 J battery.
        assert!(r
            .nodes
            .iter()
            .any(|n| n.death_time.is_some() && n.remaining_energy_j > 5.0));
        // Churn draws come from their own stream: the injection is
        // reproducible bit-for-bit.
        let again = SimulationRun::new(cfg).run();
        assert_eq!(r.node_failures, again.node_failures);
        assert_eq!(r.perf.delivered(), again.perf.delivered());
    }

    #[test]
    fn energy_spread_diversifies_initial_charge_deterministically() {
        let cfg = ScenarioConfig::small(PolicyKind::PureLeach, 5.0, 22)
            .with_duration(Duration::from_secs(5))
            .with_energy_spread(0.5);
        let a = SimulationRun::new(cfg.clone()).run();
        let b = SimulationRun::new(cfg).run();
        for (x, y) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(
                x.remaining_energy_j.to_bits(),
                y.remaining_energy_j.to_bits()
            );
        }
        let min = a
            .nodes
            .iter()
            .map(|n| n.remaining_energy_j)
            .fold(f64::INFINITY, f64::min);
        let max = a
            .nodes
            .iter()
            .map(|n| n.remaining_energy_j)
            .fold(0.0, f64::max);
        assert!(
            max - min > 2.0,
            "spread 0.5 on 10 J must diversify charge, got {min:.2}..{max:.2}"
        );
    }

    #[test]
    fn every_topology_runs_to_horizon() {
        use crate::config::Topology;
        for topology in [
            Topology::Grid { jitter_m: 2.0 },
            Topology::GaussianClusters {
                clusters: 3,
                sigma_m: 10.0,
            },
            Topology::Corridor {
                width_fraction: 0.3,
            },
        ] {
            let cfg = ScenarioConfig::small(PolicyKind::Scheme1Adaptive, 5.0, 23)
                .with_duration(Duration::from_secs(10))
                .with_topology(topology);
            let r = SimulationRun::new(cfg).run();
            assert_eq!(r.end_time, SimTime::from_secs(10), "{topology:?}");
            assert!(r.perf.generated() > 0, "{topology:?}");
            assert!(r.perf.delivered() > 0, "{topology:?}");
        }
    }

    #[test]
    fn diurnal_traffic_reshapes_arrivals_deterministically() {
        let constant = ScenarioConfig::small(PolicyKind::PureLeach, 5.0, 29)
            .with_duration(Duration::from_secs(40));
        // A period that does not divide the horizon: over whole periods the
        // warp is a bijection and counts would match exactly.
        let diurnal = constant.clone().with_diurnal_traffic(25.0, 0.9);
        let c = SimulationRun::new(constant).run();
        let d = SimulationRun::new(diurnal.clone()).run();
        // Modulation reshapes when packets arrive (so counts differ from the
        // stationary run) without moving the long-run offered load much.
        assert_ne!(c.perf.generated(), d.perf.generated());
        let (cg, dg) = (c.perf.generated() as f64, d.perf.generated() as f64);
        assert!(
            (dg - cg).abs() / cg < 0.15,
            "mean load preserved: {cg} vs {dg}"
        );
        // And the warp is bit-reproducible per seed.
        let again = SimulationRun::new(diurnal).run();
        assert_eq!(d.perf.generated(), again.perf.generated());
        assert_eq!(d.perf.delivered(), again.perf.delivered());
        assert_eq!(d.collisions, again.collisions);
    }

    #[test]
    fn a_burst_straddling_a_round_boundary_completes_through_its_id() {
        // Short rounds under heavy load put bursts on the air at round starts.
        let mut cfg = ScenarioConfig::small(PolicyKind::PureLeach, 30.0, 37)
            .with_duration(Duration::from_secs(20));
        cfg.round.round_duration = Duration::from_millis(250);
        cfg.round.setup_duration = Duration::from_millis(10);
        let round = cfg.round.round_duration;
        let mut run = SimulationRun::new(cfg);
        let just_before = |t: SimTime| SimTime::from_nanos(t.as_nanos() - 1);

        let mut boundary = SimTime::ZERO;
        loop {
            boundary += round;
            assert!(
                boundary < SimTime::from_secs(19),
                "no straddling burst saw a newer burst claim its channel"
            );
            run.run_until(just_before(boundary));
            let straddler = (0..run.burst_slab.slots.len() as u32).find_map(|id| {
                let b = run.burst_slab.get(id)?;
                (b.end > boundary).then_some((id, b.node, b.cluster, b.end))
            });
            run.run_until(boundary);
            // A sender that is no head in the new round, in a cluster index
            // the round has.
            let Some((id, node, cluster, end)) = straddler.filter(|&(_, node, cluster, _)| {
                cluster < run.channels.len() && !run.table.is_head(node)
            }) else {
                continue;
            };

            // The round start reset every channel: none names the old burst,
            // and its cluster index reads idle in the new round.
            assert!(run.burst_slab.get(id).is_some());
            assert!(run.channels.iter().all(|c| c.on_air != Some(id)));
            assert_eq!(run.channel_state(cluster), ChannelState::Idle);

            run.run_until(just_before(end));
            let claimed = run.channels[cluster].on_air;
            // The old burst's completion is the one delivery at `end`.
            let delivered_before = run.perf.delivered();
            run.run_until(end);
            // The old burst completed through its id and freed its sender.
            assert_ne!(run.table.mac(node).state(), SensorMacState::Transmitting);
            // Its completion leaves a newer burst's claim on the index alone.
            assert_eq!(run.channels[cluster].on_air, claimed);
            if claimed.is_some() {
                assert!(run.perf.delivered() > delivered_before);
                break;
            }
        }
    }

    #[test]
    fn heads_rotate_across_rounds() {
        let r = small_run(PolicyKind::PureLeach, 19);
        let nodes_with_head_terms = r.nodes.iter().filter(|n| n.head_terms > 0).count();
        // 60 s = 3 rounds ⇒ at least 3 distinct heads (usually more).
        assert!(nodes_with_head_terms >= 3, "{nodes_with_head_terms}");
    }
}
