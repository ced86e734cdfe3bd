//! Cross-layer integration tests below the full simulator: channel + PHY +
//! MAC components wired together the way the runner wires them.

use caem_suite::channel::link::{LinkChannel, LinkParams};
use caem_suite::channel::{Field, Position};
use caem_suite::cluster::election::{ElectionConfig, LeachElection};
use caem_suite::cluster::formation::ClusterFormation;
use caem_suite::mac::sensor::{SensorAction, SensorMac, SensorMacConfig};
use caem_suite::mac::tone::{ChannelState, ToneSignal};
use caem_suite::phy::ber::packet_error_rate;
use caem_suite::phy::frame::FrameSpec;
use caem_suite::phy::mode::TransmissionMode;
use caem_suite::simcore::rng::{components, RngStream, StreamRng};
use caem_suite::simcore::time::{Duration, SimTime};

fn make_link(distance: f64, seed: u64) -> LinkChannel {
    let streams = RngStream::new(seed);
    LinkChannel::with_distance(
        &LinkParams::default(),
        distance,
        streams.derive(components::SHADOWING, 0),
        streams.derive(components::FADING, 0),
    )
}

#[test]
fn good_links_deliver_at_their_selected_mode() {
    // Sample a short link repeatedly; whenever a mode is selected for the
    // measured SNR, the packet error rate at that SNR must be usable.
    let mut link = make_link(12.0, 3);
    let frame = FrameSpec::paper_default();
    let mut usable = 0;
    for i in 0..500 {
        let snr = link.snr_db(&LinkParams::default(), SimTime::from_millis(i * 120));
        if let Some(mode) = TransmissionMode::best_for_snr(snr) {
            let per =
                packet_error_rate(mode.modulation(), mode.code_rate(), snr, frame.payload_bits);
            assert!(
                per < 0.12,
                "mode {mode} selected at {snr:.1} dB but PER = {per}"
            );
            usable += 1;
        }
    }
    assert!(usable > 450, "a 12 m link should almost always be usable");
}

#[test]
fn waiting_for_a_better_channel_reduces_airtime() {
    // The CAEM premise quantified end to end: on a mid-distance link, the
    // airtime of packets sent only when the 2 Mbps threshold is met is
    // strictly smaller than the airtime of packets sent unconditionally.
    let frame = FrameSpec::paper_default();
    let mut link = make_link(40.0, 7);
    let mut unconditional = Duration::ZERO;
    let mut unconditional_count = 0u64;
    let mut thresholded = Duration::ZERO;
    let mut thresholded_count = 0u64;
    for i in 0..5_000u64 {
        let snr = link.snr_db(&LinkParams::default(), SimTime::from_millis(i * 150));
        if let Some(mode) = TransmissionMode::best_for_snr(snr) {
            unconditional += frame.airtime(mode);
            unconditional_count += 1;
            if mode == TransmissionMode::Mbps2 {
                thresholded += frame.airtime(mode);
                thresholded_count += 1;
            }
        }
    }
    assert!(unconditional_count > 0 && thresholded_count > 0);
    let avg_uncond = unconditional.as_secs_f64() / unconditional_count as f64;
    let avg_thresh = thresholded.as_secs_f64() / thresholded_count as f64;
    assert!(
        avg_thresh < avg_uncond,
        "thresholded airtime {avg_thresh} should beat unconditional {avg_uncond}"
    );
}

#[test]
fn mac_driven_by_real_channel_measurements_transmits_eventually() {
    // Drive the sensor MAC with CSI from a real fading link and an idle
    // channel; with the Scheme 2 threshold it must eventually transmit, and
    // never before the measured SNR satisfies the threshold.
    let mut link = make_link(30.0, 11);
    let config = SensorMacConfig::default();
    let mut mac = SensorMac::new(StreamRng::from_seed_u64(5));
    let threshold = TransmissionMode::Mbps2.required_snr_db();
    assert_eq!(mac.packets_pending(6), SensorAction::StartSensing);
    let mut transmitted = false;
    let mut t = SimTime::ZERO;
    for _ in 0..20_000 {
        t += Duration::from_millis(50);
        let snr = link.snr_db(&LinkParams::default(), t);
        let signal = Some(ToneSignal {
            state: ChannelState::Idle,
            tone_snr_db: snr,
        });
        match mac.observe_tone(&config, signal, threshold, 6, false) {
            SensorAction::StartBackoff(d) => {
                assert!(snr >= threshold, "backoff started below the threshold");
                t += d;
                let snr2 = link.snr_db(&LinkParams::default(), t);
                let signal2 = Some(ToneSignal {
                    state: ChannelState::Idle,
                    tone_snr_db: snr2,
                });
                if let SensorAction::StartTransmission { burst_size } =
                    mac.backoff_expired(&config, signal2, threshold, 6, false)
                {
                    assert!((1..=8).contains(&burst_size));
                    transmitted = true;
                    break;
                }
            }
            SensorAction::None => {}
            other => panic!("unexpected action {other:?}"),
        }
    }
    assert!(transmitted, "a 30 m link should eventually satisfy 2 Mbps");
}

#[test]
fn leach_plus_formation_covers_every_live_node() {
    let field = Field::paper_default();
    let streams = RngStream::new(21);
    let mut placement = streams.derive(components::PLACEMENT, 0);
    let positions: Vec<Position> = field.random_deployment(60, &mut placement);
    let mut election = LeachElection::new(60, ElectionConfig::default());
    let mut rng = streams.derive(components::ELECTION, 0);
    let mut alive = vec![true; 60];
    for round in 0..40 {
        // Kill a couple of nodes along the way.
        if round == 10 {
            alive[3] = false;
            alive[40] = false;
        }
        let heads = election.elect_round(&alive, &mut rng);
        assert!(!heads.is_empty());
        let formation = ClusterFormation::nearest_head(&positions, &heads, &alive);
        for (node, &is_alive) in alive.iter().enumerate() {
            if is_alive {
                let head = formation.head_of(node).expect("live node must have a head");
                assert!(alive[head], "assigned head must be alive");
            } else {
                assert_eq!(formation.head_of(node), None);
            }
        }
    }
}
