//! Criterion micro-benchmarks of the hot substrate components: channel CSI
//! sampling, PHY mode selection / PER evaluation, and the pending-event set.
//! These dominate the per-event cost of the network simulator.

use caem_channel::link::{LinkChannel, LinkParams};
use caem_mac::tone::{ChannelState, ToneSchedule};
use caem_phy::ber::packet_error_rate;
use caem_phy::frame::FrameSpec;
use caem_phy::mode::TransmissionMode;
use caem_simcore::event::EventQueue;
use caem_simcore::rng::{components, RngStream};
use caem_simcore::time::{Duration, SimTime};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_channel_sampling(c: &mut Criterion) {
    let streams = RngStream::new(1);
    let params = LinkParams::default();
    let mut link = LinkChannel::with_distance(
        &params,
        40.0,
        streams.derive(components::SHADOWING, 0),
        streams.derive(components::FADING, 0),
    );
    let mut t = SimTime::ZERO;
    c.bench_function("link_csi_measure", |b| {
        b.iter(|| {
            t += Duration::from_millis(10);
            black_box(link.snr_db(&params, t))
        })
    });
}

fn bench_phy(c: &mut Criterion) {
    c.bench_function("mode_selection_from_snr", |b| {
        let mut snr = 0.0f64;
        b.iter(|| {
            snr = (snr + 0.37) % 40.0;
            black_box(TransmissionMode::best_for_snr(black_box(snr)))
        })
    });
    c.bench_function("packet_error_rate_2kbit", |b| {
        let frame = FrameSpec::paper_default();
        let mut snr = 0.0f64;
        b.iter(|| {
            snr = (snr + 0.53) % 30.0;
            let mode = TransmissionMode::Kbps450;
            black_box(packet_error_rate(
                mode.modulation(),
                mode.code_rate(),
                black_box(snr),
                frame.payload_bits,
            ))
        })
    });
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1_000u64 {
                q.push(SimTime::from_micros((i * 7919) % 100_000), i);
            }
            let mut sum = 0u64;
            let mut batch = Vec::new();
            while q.pop_batch_at_or_before(SimTime::MAX, &mut batch).is_some() {
                sum = batch.iter().fold(sum, |s, &e| s.wrapping_add(e));
            }
            black_box(sum)
        })
    });
}

fn bench_tone_classification(c: &mut Criterion) {
    let schedule = ToneSchedule::paper_default();
    c.bench_function("tone_interval_classification", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let state = ChannelState::ALL[(i % 4) as usize];
            let interval = schedule.pulse_for(state).interval;
            black_box(schedule.classify_interval(black_box(interval), 0.2))
        })
    });
}

criterion_group!(
    benches,
    bench_channel_sampling,
    bench_phy,
    bench_event_queue,
    bench_tone_classification
);
criterion_main!(benches);
