//! Property-based tests (proptest) on the core data structures and protocol
//! invariants that the whole evaluation rests on.

use caem_suite::caem::config::CaemConfig;
use caem_suite::caem::policy::{AdaptiveThreshold, PolicyKind, ThresholdPolicy};
use caem_suite::caem::predictor::QueuePredictor;
use caem_suite::mac::backoff::{BackoffConfig, BackoffScheduler};
use caem_suite::mac::burst::BurstPolicy;
use caem_suite::metrics::Commute;
use caem_suite::phy::frame::FrameSpec;
use caem_suite::phy::mode::{TransmissionMode, ALL_MODES};
use caem_suite::simcore::rng::StreamRng;
use caem_suite::simcore::stats::RunningStats;
use caem_suite::simcore::time::{Duration, SimTime};
use caem_suite::traffic::buffer::PacketBuffer;
use caem_suite::traffic::packet::{Packet, PacketId};
use caem_suite::wsnsim::experiment::{ExperimentReport, METRIC_NAMES};
use caem_suite::wsnsim::JobRecord;
use proptest::prelude::*;

/// A deterministic Fisher–Yates permutation of `0..n`, driven by the
/// simulator's own seeded RNG so proptest can explore orderings.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StreamRng::from_seed_u64(seed);
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = ((rng.next_f64() * (i + 1) as f64) as usize).min(i);
        idx.swap(i, j);
    }
    idx
}

/// Fold per-chunk summaries with a random binary merge tree: repeatedly pick
/// two summaries (position driven by `seed`) and commute them until one
/// remains.
fn merge_random_tree(mut parts: Vec<RunningStats>, seed: u64) -> RunningStats {
    let mut rng = StreamRng::from_seed_u64(seed);
    while parts.len() > 1 {
        let a = ((rng.next_f64() * parts.len() as f64) as usize).min(parts.len() - 1);
        let picked = parts.swap_remove(a);
        let b = ((rng.next_f64() * parts.len() as f64) as usize).min(parts.len() - 1);
        parts[b].commute(picked);
    }
    parts.pop().expect("non-empty partition")
}

/// A synthetic but fully populated job record at the given grid coordinates,
/// with metric values derived from `x`.
fn synthetic_record(scenario_index: usize, policy: PolicyKind, seed: u64, x: f64) -> JobRecord {
    let policy_index = match policy {
        PolicyKind::PureLeach => 0,
        PolicyKind::Scheme1Adaptive => 1,
        PolicyKind::Scheme2Fixed => 2,
    };
    JobRecord {
        scenario_index,
        scenario: format!("scenario_{scenario_index}"),
        policy_index,
        policy,
        seed,
        config_hash: 0xfeed_beef,
        metrics: (0..METRIC_NAMES.len())
            .map(|m| Some(x + m as f64 * 0.25))
            .collect(),
        generated: 1_000 + seed,
        delivered: 900,
        events_processed: 50_000,
        end_time_nanos: 400_000_000_000,
        delay_p50_ms: Some(x.abs() + 1.0),
        delay_p95_ms: Some(x.abs() + 5.0),
        delay_p99_ms: None,
    }
}

const POLICIES: [PolicyKind; 3] = [
    PolicyKind::PureLeach,
    PolicyKind::Scheme1Adaptive,
    PolicyKind::Scheme2Fixed,
];

proptest! {
    /// Mode selection is monotone in SNR: more SNR never selects a slower mode.
    #[test]
    fn mode_selection_is_monotone_in_snr(a in -10.0f64..45.0, b in -10.0f64..45.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let m_lo = TransmissionMode::best_for_snr(lo);
        let m_hi = TransmissionMode::best_for_snr(hi);
        match (m_lo, m_hi) {
            (Some(l), Some(h)) => prop_assert!(h.class_index() <= l.class_index()),
            (Some(_), None) => prop_assert!(false, "higher SNR lost the link"),
            _ => {}
        }
    }

    /// Frame airtime is monotone: a faster mode never takes longer on air,
    /// and airtime scales linearly with burst size.
    #[test]
    fn airtime_monotone_and_linear(count in 1u64..=32) {
        let frame = FrameSpec::paper_default();
        for pair in ALL_MODES.windows(2) {
            prop_assert!(frame.airtime(pair[0]) <= frame.airtime(pair[1]));
        }
        for mode in ALL_MODES {
            let one = frame.airtime(mode);
            prop_assert_eq!(frame.burst_airtime(mode, count), one * count);
        }
    }

    /// The adaptive threshold always stays within the four ABICM classes and
    /// snaps back to the top once the queue drains below the activation
    /// threshold, no matter what queue trajectory it observes.
    #[test]
    fn adaptive_threshold_invariants(queue_trace in prop::collection::vec(0usize..80, 1..200)) {
        let mut policy = AdaptiveThreshold::new(CaemConfig::paper_default());
        for &q in &queue_trace {
            policy.on_packet_arrival(q);
            let t = policy.current_threshold().expect("scheme 1 always has a threshold");
            prop_assert!(t.class_index() < 4);
        }
        // Draining below Q_threshold forces the energy-optimal threshold.
        policy.on_packets_sent(0);
        prop_assert_eq!(policy.current_threshold(), Some(TransmissionMode::Mbps2));
    }

    /// The ΔV predictor samples exactly every K arrivals and its delta equals
    /// the difference of the sampled queue lengths.
    #[test]
    fn predictor_samples_every_k(k in 1u32..=10, lens in prop::collection::vec(0usize..100, 1..120)) {
        let mut p = QueuePredictor::new(k);
        let mut samples: Vec<usize> = Vec::new();
        let mut deltas_seen = 0;
        for (i, &q) in lens.iter().enumerate() {
            let out = p.on_arrival(q);
            if (i as u32 + 1).is_multiple_of(k) {
                samples.push(q);
                if samples.len() >= 2 {
                    deltas_seen += 1;
                    let expected = samples[samples.len() - 1] as i64 - samples[samples.len() - 2] as i64;
                    prop_assert_eq!(out, Some(expected));
                } else {
                    prop_assert_eq!(out, None);
                }
            } else {
                prop_assert_eq!(out, None);
            }
        }
        prop_assert_eq!(p.samples_taken(), samples.len() as u64);
        let _ = deltas_seen;
    }

    /// Backoff samples always lie inside the window defined by the paper's
    /// formula, for any retry count.
    #[test]
    fn backoff_within_window(seed in any::<u64>(), failures in 0u32..10) {
        let config = BackoffConfig::paper_default();
        let mut s = BackoffScheduler::new(config, StreamRng::from_seed_u64(seed));
        for _ in 0..failures {
            s.record_failure();
        }
        let bound = config.max_backoff(failures);
        for _ in 0..50 {
            prop_assert!(s.next_backoff() <= bound);
        }
    }

    /// The packet buffer preserves FIFO order and never exceeds its capacity;
    /// enqueued == dequeued + still-queued + (for bounded buffers) drops are
    /// consistent.
    #[test]
    fn buffer_fifo_and_capacity(capacity in 1usize..60, ops in prop::collection::vec(0u8..3, 1..300)) {
        let mut buf = PacketBuffer::with_capacity(capacity);
        let mut next_id = 0u64;
        let mut expected_front = 0u64;
        for op in ops {
            match op {
                0 | 1 => {
                    let p = Packet::new(PacketId(next_id), 0, SimTime::from_millis(next_id));
                    let accepted = buf.enqueue(p);
                    if accepted {
                        next_id += 1;
                    } else {
                        prop_assert!(buf.is_full());
                        next_id += 1;
                        // Dropped packets never appear later: bump expectation only
                        // for accepted ids, so track via stats below instead.

                    }
                }
                _ => {
                    if let Some(p) = buf.dequeue() {
                        prop_assert!(p.id.0 >= expected_front);
                        expected_front = p.id.0 + 1;
                    }
                }
            }
            prop_assert!(buf.len() <= capacity);
        }
        let stats = buf.stats();
        prop_assert_eq!(stats.enqueued, stats.dequeued + buf.len() as u64);
    }

    /// Burst sizing never exceeds the configured cap and never invents
    /// packets that are not queued.
    #[test]
    fn burst_size_bounds(min in 1usize..5, extra in 0usize..20, queued in 0usize..200) {
        let policy = BurstPolicy::new(min, min + extra);
        let size = policy.burst_size(queued);
        prop_assert!(size <= min + extra);
        prop_assert!(size <= queued);
        if policy.should_transmit(queued, false) {
            prop_assert!(queued >= min);
        }
    }

    /// SimTime / Duration arithmetic: ordering is consistent with addition
    /// and subtraction saturates instead of wrapping.
    #[test]
    fn time_arithmetic_consistency(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(a);
        let d = Duration::from_nanos(b);
        let later = t + d;
        prop_assert!(later >= t);
        prop_assert_eq!(later - t, d);
        prop_assert_eq!(t - later, Duration::ZERO);
    }

    /// Welford running statistics agree with the naive two-pass computation.
    #[test]
    fn running_stats_match_naive(values in prop::collection::vec(-1e3f64..1e3, 2..200)) {
        let mut stats = RunningStats::new();
        stats.extend(values.iter().copied());
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((stats.mean() - mean).abs() < 1e-6);
        prop_assert!((stats.variance() - var).abs() < 1e-6 * var.max(1.0));
    }

    /// The merge law, commutativity half: merging A into B and B into A give
    /// the same summary — count/min/max bit-for-bit (exact grade), mean and
    /// variance to within float rounding (analytic grade).
    #[test]
    fn stats_merge_commutes(
        xs in prop::collection::vec(-1e3f64..1e3, 1..80),
        ys in prop::collection::vec(-1e3f64..1e3, 1..80),
    ) {
        let mut a = RunningStats::new();
        a.extend(xs.iter().copied());
        let mut b = RunningStats::new();
        b.extend(ys.iter().copied());
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab.count(), ba.count());
        prop_assert_eq!(ab.min(), ba.min());
        prop_assert_eq!(ab.max(), ba.max());
        prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9 * ab.mean().abs().max(1.0));
        prop_assert!((ab.variance() - ba.variance()).abs() < 1e-7 * ab.variance().max(1.0));
    }

    /// The merge law, associativity half: any partition of the observations
    /// into chunks, merged through any random binary merge tree, summarizes
    /// like one sequential accumulator over the whole multiset.
    #[test]
    fn stats_merge_tree_matches_sequential(
        values in prop::collection::vec(-1e3f64..1e3, 1..300),
        chunk in 1usize..40,
        tree_seed in any::<u64>(),
    ) {
        let mut whole = RunningStats::new();
        whole.extend(values.iter().copied());
        let parts: Vec<RunningStats> = values
            .chunks(chunk)
            .map(|c| {
                let mut s = RunningStats::new();
                s.extend(c.iter().copied());
                s
            })
            .collect();
        let merged = merge_random_tree(parts, tree_seed);
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert_eq!(merged.min(), whole.min());
        prop_assert_eq!(merged.max(), whole.max());
        prop_assert!((merged.mean() - whole.mean()).abs() < 1e-9 * whole.mean().abs().max(1.0));
        prop_assert!((merged.variance() - whole.variance()).abs() < 1e-7 * whole.variance().max(1.0));
    }

    /// The report boundary is bit-for-bit order-independent: shuffling and
    /// re-partitioning the record multiset arbitrarily before
    /// `ExperimentReport::from_records` yields byte-identical JSON, because
    /// the canonical (scenario, policy, seed) sort fixes the fold order.
    #[test]
    fn report_bytes_survive_any_record_ordering(
        cells in prop::collection::vec(any::<u64>(), 1..60),
        order_seed in any::<u64>(),
    ) {
        // Decode each raw u64 into grid coordinates (the vendored proptest
        // has no tuple strategies).  The metric value is derived from the
        // job key, not the raw u64: records sharing a key must be identical,
        // because the store's last-record-wins dedupe is an *append-order*
        // semantic — only the deduplicated multiset is order-independent.
        let records: Vec<JobRecord> = cells
            .iter()
            .map(|&c| {
                let s = (c % 3) as usize;
                let p = ((c / 3) % 3) as usize;
                let seed = (c / 9) % 6;
                let x = (s * 61 + p * 17) as f64 + seed as f64 * 3.5 - 50.0;
                synthetic_record(s, POLICIES[p], seed, x)
            })
            .collect();
        let baseline = ExperimentReport::from_records(records.clone());
        let shuffled: Vec<JobRecord> = permutation(records.len(), order_seed)
            .into_iter()
            .map(|i| records[i].clone())
            .collect();
        let reordered = ExperimentReport::from_records(shuffled);
        let a = serde_json::to_string_pretty(&baseline.to_json()).unwrap();
        let b = serde_json::to_string_pretty(&reordered.to_json()).unwrap();
        prop_assert_eq!(a, b);
    }
}
