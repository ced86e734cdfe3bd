//! Always-compiled, runtime-gated time-breakdown profiler.
//!
//! `netperf` used to report a single events/sec figure per scenario, which
//! says nothing about *where* the time goes — PHY error draws, MAC tone
//! observations, channel CSI derivation, cluster election/formation at
//! round boundaries, or the snapshot trackers.  This module attributes
//! wall time and event counts to a fixed [`ProfKey`] vocabulary (one slot
//! per subsystem and one per `EventKind`) with the cheapest machinery that
//! still sums exactly:
//!
//! * **Fixed arrays, no allocation.** A [`Profile`] is two `[u64; N]`
//!   arrays indexed by `ProfKey as usize` — no `HashMap`, no heap traffic
//!   on the hot path.
//! * **One branch when disabled.** Every instrumentation site starts with
//!   [`clock`] / [`Span::start`], which reads one relaxed [`AtomicBool`]
//!   and returns `None` when profiling is off; the `Instant` syscalls and
//!   the array adds are never reached.  Simulation state (RNG streams,
//!   event order) is **never** touched either way, so a profiled run is
//!   bit-identical to a clean run — only wall clocks are read.
//! * **One exact fold.** Each run fills its own `Profile` shard and, when
//!   it finishes, adds it into the process-wide [`SharedProfile`] behind
//!   [`global`] with relaxed atomic adds.  Every slot is an independent
//!   integer sum, so shards from concurrent runs fold in any order into the
//!   same totals and no cross-field race can corrupt a count.
//!
//! Reporting is carcara-style: a [`Breakdown`] folds one labelled
//! [`Profile`] observation per scenario into per-key share statistics
//! (mean ± σ plus min/max *with the offending scenario label*), rendered
//! as aligned text by [`Breakdown::render`] and serialized by the bench
//! layer into the `time_breakdown` section of `BENCH_netperf.json`.
//!
//! For single runs, [`start_trace`] additionally records every [`Span`]
//! (event-kind dispatch runs, election/formation, snapshots, collector
//! batches — the coarse spans, not the per-event subsystem slices) into a
//! bounded buffer exported as Chrome trace-event JSON
//! (`chrome://tracing` / Perfetto) by [`stop_trace_json`].
//!
//! Timing columns are measurements and vary run to run; the **count**
//! columns are derived from the deterministic event schedule and are
//! reproducible bit-for-bit, which is what the CI regression gate's
//! schema checks key on.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use caem_simcore::stats::RunningStats;

// ---------------------------------------------------------------------------
// The key vocabulary.
// ---------------------------------------------------------------------------

/// One slot of the profile: a simulator subsystem or an `EventKind`.
///
/// Subsystem spans are *nested inside* event-kind spans (a MAC slice runs
/// inside a `sense_channel` dispatch run), so the two groups are separate
/// dimensions of the same wall time, not a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum ProfKey {
    /// Node-table deployment (positions, batteries, per-node state columns).
    Deploy = 0,
    /// LEACH head election at a round boundary.
    ClusterElection,
    /// Cluster formation (nearest-head assignment + per-node round setup).
    ClusterFormation,
    /// Tone-MAC state machinery (observations, backoff decisions).
    Mac,
    /// Channel CSI derivation (path loss, shadowing, fading measurement).
    Channel,
    /// PHY work (mode selection, packet-error draws).
    Phy,
    /// Metric snapshot trackers (energy + fairness sampling).
    StatsSnapshot,
    /// Record aggregation (folding job records into a report).  Its label
    /// stays `"collector"`: perfbench names its `prof.collector_*` metrics
    /// from it.
    Collector,
    /// `RoundStart` dispatch runs.
    EvRoundStart,
    /// `PacketArrival` dispatch runs.
    EvPacketArrival,
    /// `SenseChannel` dispatch runs.
    EvSenseChannel,
    /// `BackoffExpired` dispatch runs.
    EvBackoffExpired,
    /// `TransmissionComplete` dispatch runs.
    EvTransmissionComplete,
    /// `NodeFailure` dispatch runs.
    EvNodeFailure,
    /// `EnergySnapshot` dispatch runs.
    EvEnergySnapshot,
    /// `FairnessSnapshot` dispatch runs.
    EvFairnessSnapshot,
}

/// Every [`ProfKey`], in slot order.
pub const PROF_KEYS: [ProfKey; ProfKey::COUNT] = [
    ProfKey::Deploy,
    ProfKey::ClusterElection,
    ProfKey::ClusterFormation,
    ProfKey::Mac,
    ProfKey::Channel,
    ProfKey::Phy,
    ProfKey::StatsSnapshot,
    ProfKey::Collector,
    ProfKey::EvRoundStart,
    ProfKey::EvPacketArrival,
    ProfKey::EvSenseChannel,
    ProfKey::EvBackoffExpired,
    ProfKey::EvTransmissionComplete,
    ProfKey::EvNodeFailure,
    ProfKey::EvEnergySnapshot,
    ProfKey::EvFairnessSnapshot,
];

impl ProfKey {
    /// Number of profile slots.
    const COUNT: usize = 16;
    /// First event-kind slot; everything below is a subsystem.
    const EVENT_BASE: usize = 8;

    /// This key's fixed array slot.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Whether this key names a subsystem (as opposed to an `EventKind`).
    #[inline]
    pub const fn is_subsystem(self) -> bool {
        (self as usize) < Self::EVENT_BASE
    }

    /// Stable snake-case label, used in tables, JSON and benchmark metric names.
    pub const fn label(self) -> &'static str {
        match self {
            ProfKey::Deploy => "deploy",
            ProfKey::ClusterElection => "cluster_election",
            ProfKey::ClusterFormation => "cluster_formation",
            ProfKey::Mac => "mac",
            ProfKey::Channel => "channel",
            ProfKey::Phy => "phy",
            ProfKey::StatsSnapshot => "stats_snapshot",
            ProfKey::Collector => "collector",
            ProfKey::EvRoundStart => "round_start",
            ProfKey::EvPacketArrival => "packet_arrival",
            ProfKey::EvSenseChannel => "sense_channel",
            ProfKey::EvBackoffExpired => "backoff_expired",
            ProfKey::EvTransmissionComplete => "transmission_complete",
            ProfKey::EvNodeFailure => "node_failure",
            ProfKey::EvEnergySnapshot => "energy_snapshot",
            ProfKey::EvFairnessSnapshot => "fairness_snapshot",
        }
    }
}

// ---------------------------------------------------------------------------
// The runtime gate.
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether profiling is currently enabled (one relaxed load).
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn the profiler on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// `Some(now)` when profiling is enabled, `None` (no syscall) otherwise.
/// The manual counterpart of [`Span`] for untraced per-event slices.
#[inline(always)]
pub fn clock() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// The shard type.
// ---------------------------------------------------------------------------

/// One profiling shard: event counts and wall nanoseconds per [`ProfKey`].
///
/// Plain data: [`SharedProfile::add_profile`] folds finished shards into
/// one total by exact integer addition per slot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Profile {
    counts: [u64; ProfKey::COUNT],
    nanos: [u64; ProfKey::COUNT],
}

impl Profile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attribute `count` events and `nanos` wall nanoseconds to `key`.
    #[inline]
    pub fn add(&mut self, key: ProfKey, count: u64, nanos: u64) {
        let i = key.index();
        self.counts[i] += count;
        self.nanos[i] += nanos;
    }

    /// Events attributed to `key`.
    #[inline]
    pub fn count(&self, key: ProfKey) -> u64 {
        self.counts[key.index()]
    }

    /// Wall nanoseconds attributed to `key`.
    #[inline]
    pub fn nanos(&self, key: ProfKey) -> u64 {
        self.nanos[key.index()]
    }

    /// Total wall nanoseconds across the event-kind slots — the event
    /// loop's attributed dispatch time.
    pub fn total_event_nanos(&self) -> u64 {
        PROF_KEYS
            .iter()
            .filter(|k| !k.is_subsystem())
            .map(|&k| self.nanos(k))
            .sum()
    }

    /// Total attributed wall nanoseconds: the event-loop time plus the
    /// out-of-loop subsystems (deploy, record aggregation).  The share denominator.
    fn attributed_nanos(&self) -> u64 {
        self.total_event_nanos() + self.nanos(ProfKey::Deploy) + self.nanos(ProfKey::Collector)
    }

    /// `key`'s fraction of the attributed wall time (0 when nothing was
    /// attributed).  Subsystem slices nest inside event spans, so shares
    /// do not sum to 1 across both groups.
    pub fn share(&self, key: ProfKey) -> f64 {
        let total = self.attributed_nanos();
        if total == 0 {
            0.0
        } else {
            self.nanos(key) as f64 / total as f64
        }
    }

    /// Whether nothing was ever attributed (the disabled-profiler case).
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0) && self.nanos.iter().all(|&n| n == 0)
    }
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

/// A coarse timed region: holds the start instant only while profiling is
/// enabled, attributes its wall time on [`Span::stop`], and feeds the
/// Chrome trace buffer when tracing is active.
#[must_use = "a span only records when stopped"]
pub struct Span {
    start: Option<Instant>,
}

impl Span {
    /// Open a span (one branch + no syscall when profiling is disabled).
    #[inline]
    pub fn start() -> Self {
        Span { start: clock() }
    }

    /// Close the span into a local shard.
    #[inline]
    pub fn stop(self, profile: &mut Profile, key: ProfKey, count: u64) {
        if let Some(t0) = self.start {
            let nanos = t0.elapsed().as_nanos() as u64;
            profile.add(key, count, nanos);
            trace_record(key, t0, nanos);
        }
    }

    /// Close the span straight into the process-wide [`global`] profile —
    /// for sites without a local shard (collector drainer, deployment).
    #[inline]
    pub fn stop_global(self, key: ProfKey, count: u64) {
        if let Some(t0) = self.start {
            let nanos = t0.elapsed().as_nanos() as u64;
            global().add(key, count, nanos);
            trace_record(key, t0, nanos);
        }
    }
}

// ---------------------------------------------------------------------------
// The process-wide accumulator.
// ---------------------------------------------------------------------------

/// A `Profile` whose slots are relaxed atomics: finished shards and
/// cross-thread sites fold into it concurrently.  Each slot is an
/// independent commutative sum, so concurrent adds cannot corrupt it:
/// every interleaving adds the same multiset of contributions.
pub struct SharedProfile {
    counts: [AtomicU64; ProfKey::COUNT],
    nanos: [AtomicU64; ProfKey::COUNT],
}

impl SharedProfile {
    /// A zeroed accumulator.
    pub const fn new() -> Self {
        SharedProfile {
            counts: [const { AtomicU64::new(0) }; ProfKey::COUNT],
            nanos: [const { AtomicU64::new(0) }; ProfKey::COUNT],
        }
    }

    /// Attribute `count` events and `nanos` wall nanoseconds to `key`.
    #[inline]
    pub fn add(&self, key: ProfKey, count: u64, nanos: u64) {
        let i = key.index();
        self.counts[i].fetch_add(count, Ordering::Relaxed);
        self.nanos[i].fetch_add(nanos, Ordering::Relaxed);
    }

    /// Fold a finished shard in (commutative, any thread).
    pub fn add_profile(&self, shard: &Profile) {
        for &key in &PROF_KEYS {
            let (c, n) = (shard.count(key), shard.nanos(key));
            if c > 0 || n > 0 {
                self.add(key, c, n);
            }
        }
    }

    /// A plain-data copy of the current totals.
    pub fn snapshot(&self) -> Profile {
        let mut p = Profile::new();
        for i in 0..ProfKey::COUNT {
            p.counts[i] = self.counts[i].load(Ordering::Relaxed);
            p.nanos[i] = self.nanos[i].load(Ordering::Relaxed);
        }
        p
    }

    /// Zero every slot (test isolation).
    pub fn reset(&self) {
        for i in 0..ProfKey::COUNT {
            self.counts[i].store(0, Ordering::Relaxed);
            self.nanos[i].store(0, Ordering::Relaxed);
        }
    }
}

impl Default for SharedProfile {
    fn default() -> Self {
        Self::new()
    }
}

static GLOBAL: SharedProfile = SharedProfile::new();

/// The process-wide profile: every finished run's shard folds in here,
/// plus the cross-thread sites (collector drainer, deployment).
pub fn global() -> &'static SharedProfile {
    &GLOBAL
}

// ---------------------------------------------------------------------------
// Chrome trace-event export.
// ---------------------------------------------------------------------------

/// One recorded span, relative to the trace epoch.
#[derive(Debug, Clone, Copy)]
struct TraceSpan {
    key: ProfKey,
    start_ns: u64,
    dur_ns: u64,
}

struct TraceBuf {
    epoch: Instant,
    spans: Vec<TraceSpan>,
    capacity: usize,
    dropped: u64,
}

static TRACING: AtomicBool = AtomicBool::new(false);
static TRACE: Mutex<Option<TraceBuf>> = Mutex::new(None);

/// Start recording [`Span`]s (capacity-bounded; spans beyond `capacity`
/// are counted as dropped).  Tracing rides on the profiler, so the
/// profiler must also be enabled for spans to exist at all.
pub fn start_trace(capacity: usize) {
    let mut slot = TRACE.lock().expect("trace buffer poisoned");
    *slot = Some(TraceBuf {
        epoch: Instant::now(),
        spans: Vec::with_capacity(capacity.min(1 << 20)),
        capacity,
        dropped: 0,
    });
    TRACING.store(true, Ordering::Relaxed);
}

/// Stop recording and render the buffer as Chrome trace-event JSON
/// (`{"traceEvents":[...]}`, complete `ph:"X"` events, microsecond
/// timestamps).  Returns `(json, recorded, dropped)`; `None` when no trace
/// was active.
pub fn stop_trace_json() -> Option<(String, usize, u64)> {
    TRACING.store(false, Ordering::Relaxed);
    let buf = TRACE.lock().expect("trace buffer poisoned").take()?;
    let mut out = String::with_capacity(buf.spans.len() * 96 + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, s) in buf.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1}}",
            s.key.label(),
            if s.key.is_subsystem() { "subsystem" } else { "event" },
            s.start_ns as f64 / 1_000.0,
            s.dur_ns as f64 / 1_000.0,
        ));
    }
    out.push_str("]}\n");
    Some((out, buf.spans.len(), buf.dropped))
}

/// Record one finished span into the trace buffer, if tracing is active.
#[inline]
fn trace_record(key: ProfKey, start: Instant, dur_ns: u64) {
    if !TRACING.load(Ordering::Relaxed) {
        return;
    }
    let mut slot = TRACE.lock().expect("trace buffer poisoned");
    if let Some(buf) = slot.as_mut() {
        if buf.spans.len() < buf.capacity {
            let start_ns = start
                .checked_duration_since(buf.epoch)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0);
            buf.spans.push(TraceSpan {
                key,
                start_ns,
                dur_ns,
            });
        } else {
            buf.dropped += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Carcara-style breakdown statistics.
// ---------------------------------------------------------------------------

/// Per-key share statistics across labelled observations: mean ± σ plus
/// min/max with the label (scenario) that produced each extreme.
#[derive(Debug, Clone)]
pub struct KeyStats {
    share: RunningStats,
    min_label: Option<String>,
    max_label: Option<String>,
    total_nanos: u64,
    total_count: u64,
}

impl Default for KeyStats {
    fn default() -> Self {
        KeyStats {
            // NOT RunningStats::default(): the derived Default zeroes the
            // min/max accumulators instead of seeding them with ±infinity.
            share: RunningStats::new(),
            min_label: None,
            max_label: None,
            total_nanos: 0,
            total_count: 0,
        }
    }
}

impl KeyStats {
    /// Mean share across observations.
    pub fn mean_share(&self) -> f64 {
        self.share.mean()
    }

    /// Standard deviation of the share across observations.
    pub fn stddev_share(&self) -> f64 {
        self.share.std_dev()
    }

    /// Smallest observed share (0 when nothing was observed).
    pub fn min_share(&self) -> f64 {
        self.share.min().unwrap_or(0.0)
    }

    /// Largest observed share (0 when nothing was observed).
    pub fn max_share(&self) -> f64 {
        self.share.max().unwrap_or(0.0)
    }

    /// Label of the observation with the smallest share.
    pub fn min_label(&self) -> Option<&str> {
        self.min_label.as_deref()
    }

    /// Label of the observation with the largest share.
    pub fn max_label(&self) -> Option<&str> {
        self.max_label.as_deref()
    }

    /// Wall nanoseconds summed across observations.
    pub fn total_nanos(&self) -> u64 {
        self.total_nanos
    }

    /// Events summed across observations.
    pub fn total_count(&self) -> u64 {
        self.total_count
    }

    fn observe(&mut self, label: &str, share: f64, nanos: u64, count: u64) {
        let better_min = self.share.min().is_none_or(|m| share < m);
        let better_max = self.share.max().is_none_or(|m| share > m);
        self.share.push(share);
        if better_min {
            self.min_label = Some(label.to_string());
        }
        if better_max {
            self.max_label = Some(label.to_string());
        }
        self.total_nanos += nanos;
        self.total_count += count;
    }
}

/// Share statistics per [`ProfKey`] across labelled profile observations
/// (one per scenario), carcara-style.
#[derive(Debug, Clone)]
pub struct Breakdown {
    keys: Vec<KeyStats>,
    observations: u64,
}

impl Default for Breakdown {
    fn default() -> Self {
        Self::new()
    }
}

impl Breakdown {
    /// An empty breakdown.
    pub fn new() -> Self {
        Breakdown {
            keys: (0..ProfKey::COUNT).map(|_| KeyStats::default()).collect(),
            observations: 0,
        }
    }

    /// Fold one labelled profile in (one observation per key).
    pub fn observe(&mut self, label: &str, profile: &Profile) {
        if profile.is_empty() {
            return;
        }
        for &key in &PROF_KEYS {
            self.keys[key.index()].observe(
                label,
                profile.share(key),
                profile.nanos(key),
                profile.count(key),
            );
        }
        self.observations += 1;
    }

    /// Number of observations folded in.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Whether nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.observations == 0
    }

    /// The statistics of one key.
    pub fn key_stats(&self, key: ProfKey) -> &KeyStats {
        &self.keys[key.index()]
    }

    /// Render the two-group breakdown (subsystems, then event kinds) as an
    /// aligned text table: mean ± σ share, min/max with offending label,
    /// total milliseconds and event counts.
    pub fn render(&self, title: &str) -> String {
        let mut out = format!(
            "== time breakdown: {title} ({} observation{}) ==\n",
            self.observations,
            if self.observations == 1 { "" } else { "s" }
        );
        for (header, subsystem) in [("subsystems", true), ("event kinds", false)] {
            out.push_str(&format!("-- {header} (share of attributed wall time) --\n"));
            out.push_str(&format!(
                "{:<22} {:>7} {:>7} {:>7} {:<26} {:>7} {:<26} {:>12} {:>12}\n",
                "key",
                "mean%",
                "sd%",
                "min%",
                "@scenario",
                "max%",
                "@scenario",
                "total_ms",
                "events"
            ));
            for &key in PROF_KEYS.iter().filter(|k| k.is_subsystem() == subsystem) {
                let s = self.key_stats(key);
                if s.total_count() == 0 && s.total_nanos() == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "{:<22} {:>7.2} {:>7.2} {:>7.2} {:<26} {:>7.2} {:<26} {:>12.3} {:>12}\n",
                    key.label(),
                    100.0 * s.mean_share(),
                    100.0 * s.stddev_share(),
                    100.0 * s.min_share(),
                    s.min_label().unwrap_or("-"),
                    100.0 * s.max_share(),
                    s.max_label().unwrap_or("-"),
                    s.total_nanos() as f64 / 1e6,
                    s.total_count(),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests that flip the global gate serialize here so parallel test
    /// threads cannot observe each other's profiler state.
    static GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn keys_cover_every_slot_in_order() {
        assert_eq!(PROF_KEYS.len(), ProfKey::COUNT);
        for (i, key) in PROF_KEYS.iter().enumerate() {
            assert_eq!(key.index(), i);
            // Labels name JSON keys and benchmark metrics: no two collide.
            assert!(PROF_KEYS[..i].iter().all(|k| k.label() != key.label()));
        }
        assert_eq!(PROF_KEYS.iter().filter(|k| k.is_subsystem()).count(), 8);
    }

    #[test]
    fn profile_accumulates_and_merges_exactly() {
        let mut p = Profile::new();
        p.add(ProfKey::Mac, 10, 1_000);
        p.add(ProfKey::EvSenseChannel, 10, 3_000);
        p.add(ProfKey::Mac, 5, 500);
        p.add(ProfKey::EvRoundStart, 1, 7_000);
        assert_eq!(p.count(ProfKey::Mac), 15);
        assert_eq!(p.nanos(ProfKey::Mac), 1_500);
        assert_eq!(p.total_event_nanos(), 10_000);
        assert_eq!(p.attributed_nanos(), 10_000);
        assert!((p.share(ProfKey::EvRoundStart) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn empty_profile_has_zero_shares() {
        let p = Profile::new();
        assert!(p.is_empty());
        assert_eq!(p.share(ProfKey::Mac), 0.0);
        assert_eq!(p.attributed_nanos(), 0);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _gate = GATE.lock().unwrap();
        set_enabled(false);
        let mut p = Profile::new();
        let span = Span::start();
        span.stop(&mut p, ProfKey::Mac, 3);
        assert!(p.is_empty());
        assert!(clock().is_none());
    }

    #[test]
    fn enabled_spans_record_counts_and_time() {
        let _gate = GATE.lock().unwrap();
        set_enabled(true);
        let mut p = Profile::new();
        let span = Span::start();
        std::hint::black_box(0u64);
        span.stop(&mut p, ProfKey::ClusterElection, 2);
        set_enabled(false);
        assert_eq!(p.count(ProfKey::ClusterElection), 2);
        // Zero-duration spans are possible on coarse clocks; the count is
        // the deterministic part.
        assert!(!p.is_empty());
    }

    #[test]
    fn shared_profile_snapshots_folded_shards() {
        let shared = SharedProfile::new();
        let mut shard = Profile::new();
        shard.add(ProfKey::Collector, 4, 400);
        shared.add_profile(&shard);
        shared.add_profile(&shard);
        shared.add(ProfKey::Deploy, 1, 50);
        let snap = shared.snapshot();
        assert_eq!(snap.count(ProfKey::Collector), 8);
        assert_eq!(snap.nanos(ProfKey::Collector), 800);
        assert_eq!(snap.count(ProfKey::Deploy), 1);
        shared.reset();
        assert!(shared.snapshot().is_empty());
    }

    #[test]
    fn breakdown_tracks_offending_labels() {
        let mut bd = Breakdown::new();
        let mut hot = Profile::new();
        hot.add(ProfKey::Mac, 1, 900);
        hot.add(ProfKey::EvSenseChannel, 1, 1_000);
        let mut cold = Profile::new();
        cold.add(ProfKey::Mac, 1, 100);
        cold.add(ProfKey::EvSenseChannel, 1, 1_000);
        bd.observe("hotspots", &hot);
        bd.observe("uniform", &cold);
        let s = bd.key_stats(ProfKey::Mac);
        assert_eq!(s.max_label(), Some("hotspots"));
        assert_eq!(s.min_label(), Some("uniform"));
        assert_eq!(s.total_count(), 2);
        assert!((s.max_share() - 0.9).abs() < 1e-12);
        let text = bd.render("test");
        assert!(text.contains("hotspots"));
        assert!(text.contains("mac"));
        assert!(text.contains("event kinds"));
    }

    #[test]
    fn trace_buffer_records_and_renders_chrome_json() {
        let _gate = GATE.lock().unwrap();
        set_enabled(true);
        start_trace(8);
        let mut p = Profile::new();
        let span = Span::start();
        span.stop(&mut p, ProfKey::ClusterFormation, 1);
        let (json, recorded, dropped) = stop_trace_json().expect("trace was active");
        set_enabled(false);
        assert_eq!(recorded, 1);
        assert_eq!(dropped, 0);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"cluster_formation\""));
        assert!(json.contains("\"ph\":\"X\""));
        // A second stop without a start is None.
        assert!(stop_trace_json().is_none());
    }

    #[test]
    fn trace_capacity_counts_drops() {
        let _gate = GATE.lock().unwrap();
        set_enabled(true);
        start_trace(1);
        let mut p = Profile::new();
        for _ in 0..3 {
            let span = Span::start();
            span.stop(&mut p, ProfKey::Mac, 1);
        }
        let (_, recorded, dropped) = stop_trace_json().expect("trace was active");
        set_enabled(false);
        assert_eq!(recorded, 1);
        assert_eq!(dropped, 2);
    }
}
