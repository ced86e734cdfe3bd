//! End-to-end contracts of the experiment service over the deterministic
//! loopback transport: the daemon, the socket-worker protocol and the
//! client commands, with no listener and no filesystem.
//!
//! The headline property mirrors the distributed runner's: **the service
//! topology is unobservable in the results**.  A grid submitted to the
//! daemon and completed by N loopback workers — cleanly, or with a worker
//! dying mid-shard after streaming a partial batch — must fetch a report
//! **byte-identical** to a single-process `ExperimentSpec::run` of the
//! same resolved spec.  Served runs under injected frame delays are
//! checked on random grids in `tests/chaos.rs`.
//!
//! No test here uses a fault plan, and none depends on another's state, so
//! they run side by side.

use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use caem_suite::wsnsim::faults::{self, RunEvent};
use caem_suite::wsnsim::persist::ExperimentStore;
use caem_suite::wsnsim::serve::{
    loopback_pair, run_socket_worker, serve_connection, FrameLink, LoopbackLink, LoopbackSpawner,
    Message, ProtoError, ServiceClient, ServiceConfig, ServiceState, SocketWorkerOptions,
    WorkerExit, PROTOCOL_VERSION,
};
use caem_suite::wsnsim::spec::GridSpec;

/// A small but non-degenerate grid: two deployment shapes × the paper's
/// three policies × two seeds = 12 jobs, short horizon, few nodes.
const SPEC_DOC: &str = r#"{
  "caem_grid_spec": 1,
  "name": "serve_loopback",
  "replicates": 2,
  "duration_s": 10.0,
  "node_count": 12,
  "scenarios": [
    { "label": "uniform_8pps", "rate_pps": 8.0 },
    {
      "label": "corridor_8pps",
      "rate_pps": 8.0,
      "topology": { "corridor": { "width_fraction": 0.3 } }
    }
  ]
}"#;

const SEED: u64 = 9_001;

/// The canonical single-process report of [`SPEC_DOC`], rendered exactly
/// as the daemon renders a fetched report.
fn expected_bytes() -> String {
    let resolved = GridSpec::parse(SPEC_DOC)
        .expect("spec parses")
        .resolve(SEED, true)
        .expect("spec resolves");
    let report = resolved.spec.run();
    serde_json::to_string_pretty(&report.to_json()).expect("report renders")
}

/// Submit [`SPEC_DOC`], complete it with `workers` loopback workers and
/// return the fetched report text.
fn run_fleet(state: &std::sync::Arc<Mutex<ServiceState>>, workers: usize) -> String {
    let spawner = LoopbackSpawner::new(state.clone());
    let mut link = spawner.connect();
    let mut client = ServiceClient::new(&mut link);
    let sub = client
        .submit(SPEC_DOC, true, SEED)
        .expect("daemon accepts the spec");
    assert_eq!(sub.name, "serve_loopback");
    assert_eq!(sub.jobs, 12);
    let report = run_fleet_into(&spawner, &mut client, workers);
    let status = client.status().expect("status");
    assert_eq!(status.completed, 1, "one grid completed");
    assert!(status.active.is_none(), "nothing left active");
    report
}

/// Send a request over a raw link and return its response, the next frame
/// (test-side mini client for driving the protocol by hand).
fn rpc(link: &mut LoopbackLink, msg: &Message) -> Message {
    link.send(&msg.encode()).expect("send");
    let frame = link
        .recv(Some(Duration::from_secs(10)))
        .expect("recv")
        .expect("response before timeout");
    let reply = Message::decode(&frame).expect("well-formed response");
    assert_eq!(reply.seq(), msg.seq(), "the next frame is the response");
    reply
}

fn hello(seq: u64, worker: &str) -> Message {
    Message::Hello {
        seq,
        protocol: PROTOCOL_VERSION,
        worker: worker.to_string(),
        expect_hash: None,
    }
}

#[test]
fn fleet_reports_are_byte_identical_clean_and_after_a_death() {
    let expected = expected_bytes();

    // Phase 1 — clean: three workers, four shards.
    let state = ServiceState::shared(ServiceConfig {
        shards_per_grid: 4,
        ..ServiceConfig::default()
    });
    assert_eq!(run_fleet(&state, 3), expected, "clean fleet equals run()");

    // Phase 2 — a worker dies mid-shard: it claims a shard, streams the
    // record of its first job, then vanishes without ShardDone.
    // The daemon must evict it on disconnect, re-grant only the still
    // unsettled jobs, and the surviving fleet must finish byte-identically.
    let state = ServiceState::shared(ServiceConfig {
        shards_per_grid: 2,
        ..ServiceConfig::default()
    });
    let spawner = LoopbackSpawner::new(state.clone());
    let mut clink = spawner.connect();
    let mut client = ServiceClient::new(&mut clink);
    client.submit(SPEC_DOC, true, SEED).expect("accepted");

    let mut dying = spawner.connect();
    assert!(matches!(
        rpc(&mut dying, &hello(1, "doomed")),
        Message::HelloAck { .. }
    ));
    let (grid, shard, spec, jobs) = match rpc(&mut dying, &Message::Claim { seq: 2 }) {
        Message::Grant {
            grid,
            shard,
            spec,
            jobs,
            ..
        } => (grid, shard, spec, jobs),
        other => panic!("expected a grant, got {other:?}"),
    };
    assert!(!jobs.is_empty());
    let granted = spec
        .jobs_at(&jobs[..1])
        .expect("granted keys lie on the grid");
    let first = spec.run_job(&granted[0]);
    let line = serde_json::to_string(&first).expect("record serializes");
    dying
        .send(
            &Message::Records {
                grid,
                shard,
                lines: vec![line],
            }
            .encode(),
        )
        .expect("partial batch lands");
    drop(dying); // mid-shard death: no ShardDone

    assert_eq!(run_fleet_into(&spawner, &mut client, 2), expected);
}

/// Finish an already-submitted grid with `workers` workers on an existing
/// spawner/client pair, then stop the fleet: every worker joins cleanly.
fn run_fleet_into(
    spawner: &LoopbackSpawner,
    client: &mut ServiceClient<'_>,
    workers: usize,
) -> String {
    let handles: Vec<_> = (0..workers).map(|i| spawner.spawn(i)).collect();
    let report = client
        .fetch_report(Duration::from_secs(300))
        .expect("grid completes");
    spawner.stop_workers();
    for handle in handles {
        handle.join().expect("worker exits cleanly");
    }
    report
}

#[test]
fn a_forged_line_for_a_real_key_does_not_settle_its_job() {
    let expected = expected_bytes();
    let state = ServiceState::shared(ServiceConfig {
        shards_per_grid: 2,
        ..ServiceConfig::default()
    });
    let spawner = LoopbackSpawner::new(state.clone());
    let mut clink = spawner.connect();
    let mut client = ServiceClient::new(&mut clink);
    client.submit(SPEC_DOC, true, SEED).expect("accepted");

    // A peer streams a line whose key is on the grid but whose config hash
    // is not the job's — a stale or forged record — then hangs up.
    let mut forger = spawner.connect();
    let (grid, shard, spec, jobs) = match rpc(&mut forger, &Message::Claim { seq: 1 }) {
        Message::Grant {
            grid,
            shard,
            spec,
            jobs,
            ..
        } => (grid, shard, spec, jobs),
        other => panic!("expected a grant, got {other:?}"),
    };
    let granted = spec
        .jobs_at(&jobs[..1])
        .expect("granted keys lie on the grid");
    let mut forged = spec.run_job(&granted[0]);
    forged.config_hash ^= 1;
    forger
        .send(
            &Message::Records {
                grid,
                shard,
                lines: vec![serde_json::to_string(&forged).expect("record serializes")],
            }
            .encode(),
        )
        .expect("forged batch lands");
    // Frames on one connection are handled in order: once this reply is
    // back, the forged batch has been absorbed, and it settled nothing.
    rpc(&mut forger, &Message::Claim { seq: 2 });
    let progress = client.status().expect("status").active.expect("grid open");
    assert_eq!(progress.settled, 0, "the forged line settled its job");
    drop(forger);

    // The forged line is ignored and its job stays open: the fleet re-runs
    // it, and the report has every replicate.
    assert_eq!(run_fleet_into(&spawner, &mut client, 2), expected);
}

#[test]
fn a_peer_that_sends_an_undecodable_frame_is_closed_and_loses_its_lease() {
    let expected = expected_bytes();
    // One shard under the default lease TTL: the second worker below gets
    // work only once the broken peer's lease is freed, and a lease freed
    // by expiry alone would keep it waiting for the whole TTL.
    let ttl = ServiceConfig::default().lease_ttl;
    let state = ServiceState::shared(ServiceConfig {
        shards_per_grid: 1,
        ..ServiceConfig::default()
    });
    let spawner = LoopbackSpawner::new(state.clone());
    let mut clink = spawner.connect();
    let mut client = ServiceClient::new(&mut clink);
    client.submit(SPEC_DOC, true, SEED).expect("accepted");

    let mut broken = spawner.connect();
    assert!(matches!(
        rpc(&mut broken, &Message::Claim { seq: 1 }),
        Message::Grant { .. }
    ));
    broken
        .send(br#"{"type":"records","seq":0,"grid":"#)
        .expect("the frame is delivered");
    match broken.recv(Some(Duration::from_secs(10))) {
        Err(ProtoError::Closed) => {}
        other => panic!("expected the daemon to close the link, got {other:?}"),
    }

    let started = Instant::now();
    assert_eq!(run_fleet_into(&spawner, &mut client, 1), expected);
    assert!(
        started.elapsed() < ttl,
        "the grid waited out the {ttl:?} lease TTL"
    );
}

#[test]
fn only_settling_lines_reach_the_store_journal() {
    let dir = std::env::temp_dir().join(format!(
        "caem_serve_loopback_{}_journal",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let state = ServiceState::open(
        ServiceConfig {
            shards_per_grid: 1,
            ..ServiceConfig::default()
        },
        &dir,
    )
    .expect("store directory opens");
    let spawner = LoopbackSpawner::new(state.clone());
    let mut clink = spawner.connect();
    let submission = ServiceClient::new(&mut clink)
        .submit(SPEC_DOC, true, SEED)
        .expect("accepted");

    let mut peer = spawner.connect();
    let (grid, shard, spec, jobs) = match rpc(&mut peer, &Message::Claim { seq: 1 }) {
        Message::Grant {
            grid,
            shard,
            spec,
            jobs,
            ..
        } => (grid, shard, spec, jobs),
        other => panic!("expected a grant, got {other:?}"),
    };
    let runs = spec.jobs_at(&jobs[..2]).expect("on the grid");
    let valid = spec.run_job(&runs[0]);
    let mut forged = spec.run_job(&runs[1]);
    forged.scenario.push_str("_renamed");
    let lines = [&valid, &valid, &forged]
        .iter()
        .map(|r| serde_json::to_string(r).expect("record serializes"))
        .collect();
    peer.send(&Message::Records { grid, shard, lines }.encode())
        .expect("batch lands");
    // Frames on one connection are handled in order: once this reply is
    // back, the batch above has been absorbed.
    rpc(&mut peer, &Message::Claim { seq: 2 });

    // The grid's own store holds its header and the one settling line,
    // journaled once.
    let path = dir.join(format!("{:016x}.jsonl", submission.grid_hash));
    let text = std::fs::read_to_string(&path).expect("the grid has a store");
    assert_eq!(text.lines().count(), 2, "{text}");
    let reloaded = ExperimentStore::load(&path).expect("store reloads");
    assert_eq!(reloaded.records().collect::<Vec<_>>(), [&valid]);
    // The accepted submission was journaled before it was acknowledged.
    let journal = std::fs::read_to_string(dir.join("grids.jsonl")).expect("grids journal");
    assert_eq!(journal.lines().count(), 1);
    assert!(
        journal.starts_with("{\"name\":\"serve_loopback\""),
        "{journal}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fetch_waits_for_the_newest_submitted_grid() {
    let state = ServiceState::shared(ServiceConfig {
        shards_per_grid: 2,
        ..ServiceConfig::default()
    });
    // Grid A completes.
    assert_eq!(run_fleet(&state, 2), expected_bytes());

    // Grid B, another seed of the same document, is submitted with no
    // worker attached: a fetch must not answer with A's finished report.
    let spawner = LoopbackSpawner::new(state.clone());
    let mut clink = spawner.connect();
    let mut client = ServiceClient::new(&mut clink);
    let other_seed = SEED + 1;
    client
        .submit(SPEC_DOC, true, other_seed)
        .expect("B is accepted");
    assert_eq!(client.try_fetch().expect("fetch"), None, "B is still open");

    let resolved = GridSpec::parse(SPEC_DOC)
        .expect("spec parses")
        .resolve(other_seed, true)
        .expect("spec resolves");
    let expected_b = serde_json::to_string_pretty(&resolved.spec.run().to_json()).expect("renders");
    assert_ne!(expected_b, expected_bytes(), "A and B differ");
    assert_eq!(run_fleet_into(&spawner, &mut client, 2), expected_b);
}

#[test]
fn handshakes_reject_version_skew_and_manifest_hash_mismatch() {
    let state = ServiceState::shared(ServiceConfig::default());
    let spawner = LoopbackSpawner::new(state.clone());

    let run_worker_with = |opts: SocketWorkerOptions| {
        let (mut wlink, mut served) = loopback_pair();
        let state = state.clone();
        let server = std::thread::spawn(move || serve_connection(&mut served, &state));
        let exit = run_socket_worker(&mut wlink, &opts).expect("transport survives");
        drop(wlink);
        server.join().expect("server thread");
        exit
    };

    // Version skew: a hello naming another protocol is refused, and the
    // daemon hangs up.
    let mut skewed = spawner.connect();
    let skew = Message::Hello {
        seq: 1,
        protocol: 99,
        worker: "skewed".to_string(),
        expect_hash: None,
    };
    match rpc(&mut skewed, &skew) {
        Message::Reject { reason, .. } => {
            assert!(
                reason.contains("protocol"),
                "reason names the skew: {reason}"
            )
        }
        other => panic!("expected rejection, got {other:?}"),
    }
    assert!(matches!(
        skewed.recv(Some(Duration::from_secs(10))),
        Err(ProtoError::Closed)
    ));

    // A pinned hash with no active grid to check it against.
    let mut opts = SocketWorkerOptions::new("early".to_string());
    opts.expect_hash = Some(42);
    match run_worker_with(opts) {
        WorkerExit::Rejected(reason) => {
            assert!(reason.contains("no active grid"), "got: {reason}")
        }
        other => panic!("expected rejection, got {other:?}"),
    }

    // A pinned hash that contradicts the active grid's hash.
    let mut clink = spawner.connect();
    let mut client = ServiceClient::new(&mut clink);
    let sub = client.submit(SPEC_DOC, true, SEED).expect("accepted");
    // The hash a worker pins is derivable offline: FNV-1a of the
    // `experiment --print-spec` document re-serialized compactly.
    let resolved = GridSpec::parse(SPEC_DOC)
        .expect("spec parses")
        .resolve(SEED, true)
        .expect("spec resolves");
    let print_spec =
        serde_json::to_string_pretty(&resolved.spec.to_json()).expect("resolved spec renders");
    let compact = serde_json::to_string(&serde_json::parse(&print_spec).expect("JSON"))
        .expect("document renders");
    let fnv1a = compact.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(sub.grid_hash, fnv1a);
    let mut opts = SocketWorkerOptions::new("mismatched".to_string());
    opts.expect_hash = Some(sub.grid_hash ^ 1);
    match run_worker_with(opts) {
        WorkerExit::Rejected(reason) => {
            assert!(
                reason.contains("hash"),
                "reason names the mismatch: {reason}"
            )
        }
        other => panic!("expected rejection, got {other:?}"),
    }

    // And the matching pin is accepted: the worker runs the whole grid.
    let mut opts = SocketWorkerOptions::new("pinned".to_string());
    opts.expect_hash = Some(sub.grid_hash);
    let stop = opts.stop.clone();
    let (mut wlink, mut served) = loopback_pair();
    let state2 = state.clone();
    std::thread::spawn(move || serve_connection(&mut served, &state2));
    let worker = std::thread::spawn(move || run_socket_worker(&mut wlink, &opts));
    let report = client
        .fetch_report(Duration::from_secs(300))
        .expect("pinned worker completes the grid");
    assert_eq!(report, expected_bytes());
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    match worker.join().expect("worker thread") {
        Ok(WorkerExit::Finished(outcome)) => assert!(outcome.jobs_run > 0),
        other => panic!("expected a finished worker, got {other:?}"),
    }
}

#[test]
fn released_shards_are_reclaimable_immediately_without_ttl_wait() {
    // A lease TTL no test could sit out: if re-claiming depended on
    // expiry, B below would never be granted A's shard.
    let state = ServiceState::shared(ServiceConfig {
        shards_per_grid: 2,
        lease_ttl: Duration::from_secs(3600),
    });
    let spawner = LoopbackSpawner::new(state.clone());
    let mut clink = spawner.connect();
    let mut client = ServiceClient::new(&mut clink);
    client.submit(SPEC_DOC, true, SEED).expect("accepted");

    // Worker A claims a shard, then hangs up without running it: the
    // lease ends with the connection.
    let mut a = spawner.connect();
    assert!(matches!(
        rpc(&mut a, &hello(1, "a")),
        Message::HelloAck { .. }
    ));
    assert!(matches!(
        rpc(&mut a, &Message::Claim { seq: 2 }),
        Message::Grant { .. }
    ));
    drop(a);

    // Worker B must be granted *both* shards — including the one A held —
    // long before any TTL could expire.  The daemon reads A's hang-up
    // asynchronously, so B claims until it holds two.
    let start = Instant::now();
    let mut b = spawner.connect();
    assert!(matches!(
        rpc(&mut b, &hello(1, "b")),
        Message::HelloAck { .. }
    ));
    let mut shards = Vec::new();
    let mut seq = 1;
    while shards.len() < 2 {
        seq += 1;
        match rpc(&mut b, &Message::Claim { seq }) {
            Message::Grant { shard, .. } => shards.push(shard),
            Message::NoWork { .. } => std::thread::sleep(Duration::from_millis(1)),
            other => panic!("expected a grant, got {other:?}"),
        }
    }
    shards.sort_unstable();
    assert_eq!(shards, vec![0, 1], "both shards grantable, no TTL wait");
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "re-claim happened immediately"
    );
}

/// A worker link that breaks right after it ships its first batch of
/// records, like the connection of a `kill -9`ed worker process: nothing
/// sent afterwards arrives, and every later send fails.
struct DiesAfterFirstRecords {
    inner: LoopbackLink,
    dead: bool,
}

impl FrameLink for DiesAfterFirstRecords {
    fn send(&mut self, payload: &[u8]) -> Result<(), ProtoError> {
        if self.dead {
            return Err(ProtoError::Io(std::io::ErrorKind::BrokenPipe.into()));
        }
        self.inner.send(payload)?;
        self.dead = matches!(Message::decode(payload), Ok(Message::Records { .. }));
        Ok(())
    }

    fn recv(&mut self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>, ProtoError> {
        if self.dead {
            return Err(ProtoError::Closed);
        }
        self.inner.recv(timeout)
    }
}

#[test]
fn a_worker_killed_mid_shard_has_already_settled_its_finished_jobs() {
    // One shard holding all 24 jobs, each long enough that its line ships
    // (after at most the worker's 50 ms linger) before many more settle.
    const JOBS: u64 = 24;
    let spec_doc = SPEC_DOC
        .replace("\"replicates\": 2", "\"replicates\": 4")
        .replace("\"duration_s\": 10.0", "\"duration_s\": 400.0");
    let state = ServiceState::shared(ServiceConfig {
        shards_per_grid: 1,
        ..ServiceConfig::default()
    });
    let spawner = LoopbackSpawner::new(state.clone());
    let mut clink = spawner.connect();
    let mut client = ServiceClient::new(&mut clink);
    assert_eq!(
        client.submit(&spec_doc, true, SEED).expect("accepted").jobs,
        JOBS
    );

    // The doomed worker and the healthy one below belong to one embedding
    // program and share its stop flag.  The dead link ends the doomed
    // worker's shard, and only that: the shared flag stays down.
    let opts = SocketWorkerOptions::new("doomed");
    let stop = opts.stop.clone();
    let mut link = DiesAfterFirstRecords {
        inner: spawner.connect(),
        dead: false,
    };
    let doomed = run_socket_worker(&mut link, &opts);
    assert!(matches!(doomed, Err(ProtoError::Io(_))), "{doomed:?}");
    assert!(
        !stop.load(Ordering::Relaxed),
        "a dead link raised the stop flag"
    );
    drop(link);

    // The daemon handles the dead connection's frames in order, so once it
    // has dropped the worker, the shipped batch is absorbed.
    let deadline = Instant::now() + Duration::from_secs(60);
    let progress = loop {
        let status = client.status().expect("status");
        if status.workers == 0 {
            break status.active.expect("the grid is still open");
        }
        assert!(
            Instant::now() < deadline,
            "the daemon never dropped the worker"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(
        (1..JOBS).contains(&progress.settled),
        "the records of finished jobs arrive before the shard is done, not in one \
         burst at its end: {} of {JOBS} settled when the worker died",
        progress.settled
    );
    assert_eq!(progress.shards_done, 0);

    // A healthy worker re-runs only what the dead one never shipped, and
    // the report is byte-identical to a single-process run.
    let (mut wlink, mut served) = loopback_pair();
    let state2 = state.clone();
    std::thread::spawn(move || serve_connection(&mut served, &state2));
    let mut healthy = SocketWorkerOptions::new("healthy");
    healthy.stop = stop.clone();
    let worker = std::thread::spawn(move || run_socket_worker(&mut wlink, &healthy));
    let report = client
        .fetch_report(Duration::from_secs(300))
        .expect("grid completes");
    stop.store(true, Ordering::Relaxed);
    match worker.join().expect("worker thread") {
        Ok(WorkerExit::Finished(outcome)) => {
            assert_eq!(outcome.jobs_run as u64, JOBS - progress.settled)
        }
        other => panic!("expected a finished worker, got {other:?}"),
    }
    let expected = GridSpec::parse(&spec_doc)
        .expect("spec parses")
        .resolve(SEED, true)
        .expect("spec resolves")
        .spec
        .run();
    assert_eq!(
        report,
        serde_json::to_string_pretty(&expected.to_json()).expect("report renders")
    );
}

/// A one-job grid: a single 500-node scenario simulated for `duration_s`
/// under one policy and one seed.
fn one_job_doc(duration_s: f64) -> String {
    format!(
        r#"{{ "caem_grid_spec": 1, "name": "one_long_job", "seeds": [{SEED}],
             "policies": ["Scheme1Adaptive"], "node_count": 500,
             "scenarios": [{{ "label": "long", "rate_pps": 8.0, "duration_s": {duration_s} }}] }}"#
    )
}

#[test]
fn a_job_longer_than_the_lease_ttl_keeps_its_lease() {
    // A job that runs several TTLs sends no record until it settles: only
    // the heartbeats the handshake asks for, at a twelfth of the TTL, keep
    // its connection, and so its lease, alive.  No other test in this file
    // lets a connection go silent for its TTL, so none evicts a worker.
    let ttl = Duration::from_millis(300);
    let resolve = |doc: &str| {
        GridSpec::parse(doc)
            .expect("spec parses")
            .resolve(SEED, false)
            .expect("spec resolves")
            .spec
    };
    // Size the job from a probe on this build, so it lasts about a second
    // (over three TTLs) whether the simulator is optimized or not.
    const PROBE_S: f64 = 10.0;
    let probe = Instant::now();
    resolve(&one_job_doc(PROBE_S)).run();
    let per_sim_s = probe.elapsed().as_secs_f64() / PROBE_S;
    let duration_s = (1.5 / per_sim_s).clamp(PROBE_S, 1e5).round();
    let doc = one_job_doc(duration_s);
    let expected =
        serde_json::to_string_pretty(&resolve(&doc).run().to_json()).expect("report renders");

    let evicted = faults::event_count(RunEvent::WorkerEvicted);
    let state = ServiceState::shared(ServiceConfig {
        shards_per_grid: 1,
        lease_ttl: ttl,
    });
    let spawner = LoopbackSpawner::new(state.clone());
    let mut clink = spawner.connect();
    let mut client = ServiceClient::new(&mut clink);
    assert_eq!(client.submit(&doc, false, SEED).expect("accepted").jobs, 1);
    let started = Instant::now();
    let worker = spawner.spawn(0);
    // A worker evicted mid-job leaves the grid open, so the fetch times out.
    let report = client
        .fetch_report(Duration::from_secs(60))
        .expect("grid completes");
    let took = started.elapsed();
    spawner.stop_workers();
    let outcome = worker.join().expect("worker exits cleanly");
    assert!(
        took > 2 * ttl,
        "the job took {took:?}, too short to outlast the {ttl:?} TTL"
    );
    assert_eq!(outcome.jobs_run, 1, "the job ran once, never re-granted");
    assert_eq!(outcome.shards_completed, 1);
    assert_eq!(faults::event_count(RunEvent::WorkerEvicted), evicted);
    assert_eq!(report, expected);
}

#[test]
fn a_rejected_submission_leaves_the_daemon_serving() {
    let state = ServiceState::shared(ServiceConfig {
        shards_per_grid: 2,
        ..ServiceConfig::default()
    });
    let spawner = LoopbackSpawner::new(state.clone());
    let mut link = spawner.connect();
    let mut client = ServiceClient::new(&mut link);
    let first_scenario = r#"{ "label": "uniform_8pps", "rate_pps": 8.0 }"#;
    let rejected = [
        // Lease timing is daemon configuration: a `distrib` block is an
        // unknown field, whatever value it carries.
        (
            SPEC_DOC.replacen(
                "\"replicates\": 2,",
                "\"replicates\": 2, \"distrib\": { \"lease_ttl_s\": 1e300 },",
                1,
            ),
            "unknown field `distrib`",
        ),
        // Out of range: caught when the document resolves.
        (
            SPEC_DOC.replacen(
                first_scenario,
                r#"{ "label": "uniform_8pps", "rate_pps": 8.0, "energy_spread": 1.5 }"#,
                1,
            ),
            "initial_energy_spread",
        ),
        // A replicate count whose seed axis could not even be allocated
        // is a typed error, not an abort of the daemon process.
        (
            SPEC_DOC.replacen("\"replicates\": 2,", "\"replicates\": 1000000000000000,", 1),
            "100000 / (scenarios × policies)",
        ),
        // Sequential stopping runs only locally.
        (
            SPEC_DOC.replacen(
                "\"replicates\": 2,",
                "\"replicates\": 2, \"sequential\": { \"metric\": \"delivery_rate\", \
                 \"target_half_width\": 0.1, \"max_replicates\": 4 },",
                1,
            ),
            "sequential stopping",
        ),
    ];
    for (doc, cause) in &rejected {
        assert_ne!(doc, SPEC_DOC, "the edit applied");
        match client.submit(doc, true, SEED) {
            Err(ProtoError::Rejected(reason)) => {
                assert!(reason.contains(cause), "{reason:?} names {cause:?}")
            }
            other => panic!("expected a SubmitErr, got {other:?}"),
        }
    }
    let status = client
        .status()
        .expect("the rejecting connection still serves");
    assert!(status.active.is_none(), "no rejected grid was queued");
    assert_eq!(status.queued, 0);

    // A valid grid on another connection completes byte-identically.
    assert_eq!(run_fleet(&state, 2), expected_bytes());
}
