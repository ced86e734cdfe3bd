//! Wire-protocol contracts of the experiment service.
//!
//! Three properties pin the protocol down:
//!
//! 1. **Round trip**: `decode ∘ encode` is the identity on every message
//!    variant — asserted on the re-encoded bytes, which is stronger than
//!    structural equality (it also pins the canonical field order, with
//!    `"type"` first, that frame-kind sniffing reads).
//! 2. **Totality**: torn frames, truncated payloads, flipped bytes,
//!    oversized length prefixes and unknown message types all decode to a
//!    *typed* [`ProtoError`], never a panic.
//! 3. **Merge invariance**: record batches that arrive duplicated and
//!    reordered aggregate byte-identically to the canonical single-process
//!    report via `ExperimentReport::from_records`.  Links never repeat a
//!    frame, but a shard re-granted after its worker died or went silent
//!    is run again, so its jobs' lines can reach the daemon twice, from
//!    two workers, in any interleaving.

use std::sync::OnceLock;

use caem_suite::caem::policy::PolicyKind;
use caem_suite::simcore::time::Duration;
use caem_suite::wsnsim::experiment::{
    ExperimentJob, ExperimentReport, ExperimentSpec, ScenarioSpec,
};
use caem_suite::wsnsim::persist::{JobKey, JobRecord};
use caem_suite::wsnsim::serve::proto::{decode_frame, encode_frame};
use caem_suite::wsnsim::serve::{
    loopback_pair, run_socket_worker, FrameLink, GridProgress, LoopbackLink, Message, ProtoError,
    SocketWorkerOptions, TcpLink, MAX_FRAME_BYTES,
};
use caem_suite::wsnsim::spec::GridSpec;
use caem_suite::wsnsim::ScenarioConfig;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Fixtures.
// ---------------------------------------------------------------------------

/// A tiny one-scenario grid; its spec and job keys give the `grant`
/// variant realistic payloads without fabricating a scenario config field
/// by field.
fn tiny_spec() -> &'static ExperimentSpec {
    static SPEC: OnceLock<ExperimentSpec> = OnceLock::new();
    SPEC.get_or_init(|| {
        let base = ScenarioConfig::small(PolicyKind::PureLeach, 8.0, 1)
            .with_duration(Duration::from_secs(5));
        ExperimentSpec::paper_policies(vec![ScenarioSpec::new("tiny", base)], 11, 2)
    })
}

/// Every job key of [`tiny_spec`], in enumeration order.
fn tiny_keys() -> Vec<JobKey> {
    tiny_spec()
        .enumerate_jobs()
        .iter()
        .map(ExperimentJob::key)
        .collect()
}

/// The tiny grid's simulated records, computed once (simulation is the
/// expensive part; the proptests only permute them).
fn tiny_records() -> &'static Vec<JobRecord> {
    static RECORDS: OnceLock<Vec<JobRecord>> = OnceLock::new();
    RECORDS.get_or_init(|| {
        let spec = tiny_spec();
        spec.enumerate_jobs()
            .iter()
            .map(|job| spec.run_job(job))
            .collect()
    })
}

fn text_from(n: u64) -> String {
    // Printable, varied-length strings including JSON-hostile characters.
    let specials = [
        "",
        "plain",
        "with \"quotes\"",
        "back\\slash",
        "new\nline",
        "ünïcode",
    ];
    format!("{}_{n}", specials[(n % specials.len() as u64) as usize])
}

/// Deterministically build one of every message variant from a handful of
/// sampled knobs.
fn arbitrary_message(choice: u8, a: u64, b: u64, flag: bool) -> Message {
    let seq = a % 1_000 + 1;
    let text = text_from(a ^ b);
    match choice % 17 {
        0 => Message::Hello {
            seq,
            protocol: b % 5,
            worker: text,
            expect_hash: flag.then_some(b),
        },
        1 => Message::HelloAck {
            seq,
            heartbeat_ms: a,
        },
        2 => Message::Reject { seq, reason: text },
        3 => Message::Claim { seq },
        4 => Message::Grant {
            seq,
            grid: a,
            shard: b % 16,
            spec: tiny_spec().clone(),
            jobs: tiny_keys()[..(b % 4) as usize].to_vec(),
        },
        5 => Message::NoWork {
            seq,
            retry_ms: b % 5_000,
        },
        6 => Message::Records {
            grid: a,
            shard: b % 16,
            lines: (0..b % 4).map(|i| text_from(a + i)).collect(),
        },
        7 => Message::Heartbeat {
            grid: a,
            shard: b % 16,
        },
        8 => Message::ShardDone {
            seq,
            grid: a,
            shard: b % 16,
            sent: b,
        },
        9 => Message::DoneAck { seq },
        10 => Message::Submit {
            seq,
            spec: text,
            quick: flag,
            seed: b,
        },
        11 => Message::SubmitAck {
            seq,
            grid: a,
            name: text,
            jobs: b,
        },
        12 => Message::SubmitErr { seq, reason: text },
        13 => Message::Status { seq },
        14 => Message::StatusReply {
            seq,
            queued: a % 9,
            active: flag.then(|| GridProgress {
                name: text.clone(),
                jobs: b,
                settled: b / 2,
                quarantined: b % 3,
                shards_done: a % 8,
                shard_count: 8,
            }),
            completed: a % 5,
            workers: b % 7,
            events: flag.then(|| format!("{text} events")),
        },
        15 => Message::Fetch { seq },
        _ => Message::FetchReply {
            seq,
            ready: flag,
            report: text,
        },
    }
}

// ---------------------------------------------------------------------------
// 1. Round trip.
// ---------------------------------------------------------------------------

proptest! {
    /// Every variant survives encode → decode → encode with identical
    /// bytes, and the decoded message keeps its kind and sequence number.
    #[test]
    fn every_message_round_trips_byte_identically(
        choice in 0u8..255,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        flag in any::<bool>(),
    ) {
        let msg = arbitrary_message(choice, a, b, flag);
        let bytes = msg.encode();
        let decoded = Message::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(decoded.kind(), msg.kind());
        prop_assert_eq!(decoded.seq(), msg.seq());
        prop_assert_eq!(decoded.encode(), bytes);
    }
}

/// A grant is sized by the grid's spec, not by its jobs' configs: a
/// 1,000-job shard of an 8k-job grid shaped like the benchmark's served grid
/// (12 nodes, 5 s, two topologies, 15-digit seeds) fits in 64 KiB.
#[test]
fn a_thousand_job_grant_fits_in_64_kib() {
    let spec = GridSpec::parse(
        r#"{
          "caem_grid_spec": 1,
          "base_seed": 211106232532992,
          "replicates": 1333,
          "duration_s": 5.0,
          "node_count": 12,
          "scenarios": [
            { "label": "uniform_5pps", "rate_pps": 5.0 },
            { "label": "grid_5pps", "rate_pps": 5.0, "topology": { "grid": { "jitter_m": 3.0 } } }
          ]
        }"#,
    )
    .expect("spec parses")
    .resolve(1, false)
    .expect("spec resolves")
    .spec;
    // Shard 0 of 8: every eighth job in enumeration order.
    let jobs: Vec<_> = spec
        .enumerate_jobs()
        .iter()
        .step_by(8)
        .map(ExperimentJob::key)
        .collect();
    assert_eq!(jobs.len(), 1_000);
    let grant = Message::Grant {
        seq: 1,
        grid: spec.hash(),
        shard: 0,
        spec,
        jobs,
    };
    let bytes = grant.encode().len();
    assert!(
        bytes <= 64 * 1024,
        "a 1,000-job grant encodes to {bytes} bytes"
    );
}

/// A worker refuses a grant whose spec does not hash to the grid the grant
/// names, with a typed error, before running (or sending) anything.
#[test]
fn a_grant_whose_spec_misses_its_grid_hash_is_refused() {
    let (mut daemon, mut worker_link) = loopback_pair();
    let worker = std::thread::spawn(move || {
        run_socket_worker(&mut worker_link, &SocketWorkerOptions::new("w"))
    });
    let next = |link: &mut LoopbackLink| {
        let frame = link
            .recv(Some(std::time::Duration::from_secs(60)))
            .expect("worker link open")
            .expect("worker request");
        Message::decode(&frame).expect("well-formed request")
    };
    let hello = next(&mut daemon);
    assert_eq!(hello.kind(), "hello");
    let ack = Message::HelloAck {
        seq: hello.seq(),
        heartbeat_ms: 1_000,
    };
    daemon.send(&ack.encode()).expect("worker listens");
    let claim = next(&mut daemon);
    assert_eq!(claim.kind(), "claim");
    let grid_hash = tiny_spec().hash();
    let grant = Message::Grant {
        seq: claim.seq(),
        grid: grid_hash ^ 1,
        shard: 0,
        spec: tiny_spec().clone(),
        jobs: tiny_keys(),
    };
    daemon.send(&grant.encode()).expect("worker listens");
    match worker.join().expect("worker thread") {
        Err(ProtoError::GridMismatch { grid, spec: found }) => {
            assert_eq!(grid, grid_hash ^ 1);
            assert_eq!(found, grid_hash);
        }
        other => panic!("expected a grid mismatch, got {other:?}"),
    }
    // Nothing ran: no record, heartbeat or shard_done followed the claim.
    assert!(matches!(
        daemon.recv(Some(std::time::Duration::ZERO)),
        Err(ProtoError::Closed)
    ));
}

#[test]
fn all_seventeen_variants_are_covered_by_the_generator() {
    let mut kinds: Vec<&'static str> = (0..17)
        .map(|choice| arbitrary_message(choice, 3, 7, true).kind())
        .collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(kinds.len(), 17, "one distinct kind per generator choice");
}

// ---------------------------------------------------------------------------
// 2. Totality on garbage.
// ---------------------------------------------------------------------------

proptest! {
    /// Every prefix of a valid frame decodes to a *typed* outcome.  Before
    /// EOF a cut frame waits for more bytes and leaves the buffer intact;
    /// at EOF empty input is `Closed` and anything cut short is `Torn`, with
    /// fewer bytes than the frame's header plus payload.  Only the full
    /// frame decodes.  Never a panic, never a bogus success.
    #[test]
    fn torn_frames_yield_typed_errors(
        choice in 0u8..255,
        a in 0u64..10_000,
    ) {
        let msg = arbitrary_message(choice, a, a / 3, a % 2 == 0);
        let frame = encode_frame(&msg.encode());
        for cut in 0..=frame.len() {
            let mut pending = frame[..cut].to_vec();
            match decode_frame(&mut pending, false) {
                Ok(Some(payload)) => {
                    prop_assert_eq!(cut, frame.len(), "only the complete frame decodes");
                    prop_assert_eq!(payload, msg.encode());
                    prop_assert!(pending.is_empty(), "the frame is drained");
                }
                Ok(None) => {
                    prop_assert!(cut < frame.len());
                    prop_assert_eq!(&pending[..], &frame[..cut], "a waiting prefix is kept");
                }
                Err(other) => prop_assert!(false, "unexpected error before EOF: {other}"),
            }
            let mut ended = frame[..cut].to_vec();
            match decode_frame(&mut ended, true) {
                Ok(Some(payload)) => {
                    prop_assert_eq!(cut, frame.len(), "only the complete frame decodes");
                    prop_assert_eq!(payload, msg.encode());
                }
                Ok(None) => prop_assert!(false, "EOF never waits for more bytes"),
                Err(ProtoError::Closed) => prop_assert_eq!(cut, 0),
                Err(ProtoError::Torn { expected, got }) => {
                    prop_assert!(cut > 0 && cut < frame.len());
                    prop_assert_eq!(got, cut);
                    prop_assert!(got < expected);
                    prop_assert!(expected == 4 || expected == frame.len());
                }
                Err(other) => prop_assert!(false, "unexpected error class: {other}"),
            }
        }
    }

    /// Truncating or corrupting a message payload never panics the
    /// decoder: it either still decodes (a benign flip) or reports
    /// `Malformed`.
    #[test]
    fn corrupt_payloads_decode_to_malformed_not_panic(
        choice in 0u8..255,
        a in 0u64..10_000,
        cut in 0usize..2_000,
        flip in 0usize..2_000,
        bit in 0u8..8,
    ) {
        let msg = arbitrary_message(choice, a, a.wrapping_mul(31), a % 3 == 0);
        let bytes = msg.encode();

        let truncated = &bytes[..cut % (bytes.len() + 1)];
        if truncated.len() < bytes.len() {
            match Message::decode(truncated) {
                Err(ProtoError::Malformed(_)) => {}
                Err(other) => prop_assert!(false, "unexpected error class: {other}"),
                Ok(_) => prop_assert!(false, "a strict JSON prefix cannot decode"),
            }
        }

        let mut flipped = bytes.clone();
        let at = flip % flipped.len();
        flipped[at] ^= 1 << bit;
        match Message::decode(&flipped) {
            Ok(_) | Err(ProtoError::Malformed(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other}"),
        }
    }
}

#[test]
fn oversize_length_prefixes_are_rejected_without_allocating() {
    let mut frame = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(b"irrelevant");
    // Every prefix that completes the header is refused at once, EOF or
    // not, without waiting for (or buffering) the advertised payload.
    for cut in 4..=frame.len() {
        for eof in [false, true] {
            let mut pending = frame[..cut].to_vec();
            match decode_frame(&mut pending, eof) {
                Err(ProtoError::Oversize { len }) => assert_eq!(len, MAX_FRAME_BYTES + 1),
                other => panic!("cut {cut}, eof {eof}: expected Oversize, got {other:?}"),
            }
        }
    }
}

/// A real TCP stream cut mid-payload is a torn frame: the link reports
/// how many of the frame's bytes (header plus promised payload) arrived.
#[test]
fn a_tcp_stream_cut_mid_payload_is_torn() {
    use std::io::Write;
    use std::net::{Shutdown, TcpListener, TcpStream};

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let mut writer = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
    let (reader, _) = listener.accept().expect("accept");
    let payload = Message::Heartbeat { grid: 7, shard: 3 }.encode();
    let frame = encode_frame(&payload);
    let cut = 4 + payload.len() / 2;
    writer.write_all(&frame[..cut]).unwrap();
    writer.shutdown(Shutdown::Write).unwrap();

    let mut link = TcpLink::new(reader);
    match link.recv(Some(std::time::Duration::from_secs(10))) {
        Err(ProtoError::Torn { expected, got }) => {
            assert_eq!(expected, 4 + payload.len());
            assert_eq!(got, cut);
            assert!(got < expected);
        }
        other => panic!("expected Torn, got {other:?}"),
    }
}

#[test]
fn unknown_types_and_non_utf8_are_malformed() {
    for payload in [
        &b"{\"type\":\"warp_core\",\"seq\":1}"[..],
        b"{\"seq\":1}",
        b"{\"type\":\"claim\"}",
        b"not json at all",
        b"\xff\xfe\x00garbage",
        b"",
    ] {
        match Message::decode(payload) {
            Err(ProtoError::Malformed(_)) => {}
            other => panic!("{payload:?} should be Malformed, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// 3. Merge invariance under duplication + reordering.
// ---------------------------------------------------------------------------

proptest! {
    /// However re-granted shards duplicate and reorder the record stream,
    /// the canonical aggregation produces byte-identical reports.
    #[test]
    fn duplicated_reordered_record_batches_merge_byte_identically(
        rotation in 0usize..64,
        dup_mask in 0u64..u64::MAX,
        stride in 1usize..7,
    ) {
        let records = tiny_records();
        let canonical = ExperimentReport::from_records(records.clone());
        let canonical_bytes =
            serde_json::to_string_pretty(&canonical.to_json()).expect("report renders");

        // Ship every record as its wire line, rotate the order, interleave
        // by stride and duplicate a mask-chosen subset (a re-run shard).
        let lines: Vec<String> = records
            .iter()
            .map(|r| serde_json::to_string(r).expect("record serializes"))
            .collect();
        let mut shipped: Vec<String> = Vec::new();
        let n = lines.len();
        for i in 0..n {
            let at = (i * stride + rotation) % n;
            shipped.push(lines[at].clone());
            if dup_mask & (1 << (at % 64)) != 0 {
                shipped.push(lines[at].clone());
            }
        }
        // Stride-interleaving can skip indices; top up so every job is
        // present at least once (the daemon reopens a shard until every
        // one of its jobs has settled).
        shipped.extend(lines.iter().cloned());

        let decoded: Vec<JobRecord> = shipped
            .iter()
            .map(|line| serde_json::from_str(line).expect("line decodes"))
            .collect();
        let merged = ExperimentReport::from_records(decoded);
        let merged_bytes =
            serde_json::to_string_pretty(&merged.to_json()).expect("report renders");
        prop_assert_eq!(merged_bytes, canonical_bytes);
    }
}
