//! Contract tests for distributed grid execution through the experiment
//! service.
//!
//! The distribution layer promises exactly one thing on top of the engine:
//! **the execution topology is unobservable in the results**.  One worker,
//! N workers, workers dying mid-shard, a daemon killed and restarted on its
//! store directory, leases stolen from silent workers, records merged in
//! any order — every path must reproduce the single-process
//! [`ExperimentSpec::run`] report bit for bit.  These tests drive an
//! in-process daemon ([`ServiceState`]) with loopback workers, which speak
//! the same frames as the `experiment --connect` worker processes the CI
//! service step kills.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration as StdDuration;

use caem_suite::caem::policy::PolicyKind;
use caem_suite::simcore::time::Duration;
use caem_suite::wsnsim::experiment::{ExperimentReport, ExperimentSpec, ScenarioSpec};
use caem_suite::wsnsim::faults::{self, RunEvent};
use caem_suite::wsnsim::persist::{ExperimentStore, JobRecord};
use caem_suite::wsnsim::serve::{
    run_socket_worker, serve_listener, FrameLink, LoopbackLink, LoopbackSpawner, Message,
    ServiceConfig, ServiceState, SocketWorkerOptions, TcpLink, WorkerExit,
};
use caem_suite::wsnsim::ScenarioConfig;

mod common;

use common::{
    daemon, diverse_spec, durable_daemon, grid_store, report_bits, served, served_with, temp_dir,
    wait_for_report,
};

/// Send `msg` and return the next frame, its response.
fn rpc(link: &mut LoopbackLink, msg: &Message) -> Message {
    link.send(&msg.encode()).expect("send");
    let frame = link
        .recv(Some(StdDuration::from_secs(10)))
        .expect("recv")
        .expect("response before timeout");
    Message::decode(&frame).expect("well-formed response")
}

#[test]
fn n_worker_and_single_worker_reports_are_bit_identical_to_run() {
    let spec = diverse_spec();
    let single_process = spec.run();

    for workers in 1..=3 {
        let dir = temp_dir(&format!("identical_{workers}"));
        let (report, simulated) = served(&spec, workers, &dir);
        assert_eq!(
            report, single_process,
            "{workers}-worker report equals ExperimentSpec::run"
        );
        assert_eq!(report_bits(&report), report_bits(&single_process));
        assert_eq!(simulated, spec.job_count(), "every job simulated once");
        // Every job journaled once, after the header; the offline
        // re-aggregation of the daemon's per-grid store alone reproduces
        // the same cells.
        let path = grid_store(&dir, &spec);
        let lines = std::fs::read_to_string(&path).expect("grid store exists");
        assert_eq!(lines.lines().count(), 1 + spec.job_count());
        let offline = ExperimentStore::load(&path)
            .expect("store reloads")
            .rebuild_report();
        assert_eq!(offline.cells, single_process.cells);
        assert_eq!(offline.job_count, spec.job_count());
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn a_restarted_daemon_resumes_its_journaled_grid_byte_identically() {
    let spec = diverse_spec();
    let single_process = spec.run();
    let dir = temp_dir("restart");
    let store_path = grid_store(&dir, &spec);
    let journal_path = dir.join("grids.jsonl");

    // Phase 1 — a daemon journals the grid, a worker settles three of its
    // jobs, and then the daemon "crashes": a `kill -9` leaves its
    // directory as it was, plus a torn half of the next record and of the
    // next submission, neither of which was acknowledged.
    let kept = 3;
    let grid = {
        let state = durable_daemon(&dir);
        let grid = state.lock().unwrap().submit_grid("restart", &spec);
        let mut peer = LoopbackSpawner::new(state.clone()).connect();
        let (shard, keys) = match rpc(&mut peer, &Message::Claim { seq: 1 }) {
            Message::Grant { shard, jobs, .. } => (shard, jobs),
            other => panic!("expected a grant, got {other:?}"),
        };
        let lines = spec
            .jobs_at(&keys[..kept])
            .expect("granted keys lie on the grid")
            .iter()
            .map(|job| serde_json::to_string(&spec.run_job(job)).expect("record serializes"))
            .collect();
        peer.send(&Message::Records { grid, shard, lines }.encode())
            .expect("records land");
        // Frames on one connection are handled in order: once the release
        // is acknowledged, the records are journaled.
        let released = rpc(
            &mut peer,
            &Message::Release {
                seq: 2,
                grid,
                shard,
            },
        );
        assert!(
            matches!(released, Message::ReleaseAck { .. }),
            "{released:?}"
        );
        grid
    };
    let text = std::fs::read_to_string(&store_path).expect("grid store exists");
    let next_record = text.lines().nth(1).expect("a journaled record");
    std::fs::write(
        &store_path,
        format!("{text}{}", &next_record[..next_record.len() / 2]),
    )
    .expect("tear the store");
    let journal = std::fs::read_to_string(&journal_path).expect("grids are journaled");
    assert_eq!(journal.lines().count(), 1, "one grid journaled");
    std::fs::write(&journal_path, format!("{journal}{{\"name\":\"tor")).expect("tear");

    // Phase 2 — a daemon restarted on the same directory, with nothing
    // resubmitted, queues the grid again with its three stored jobs
    // settled.  One worker dies holding a shard; two healthy ones finish.
    let state = durable_daemon(&dir);
    let spawner = LoopbackSpawner::new(state.clone());
    let mut doomed = spawner.connect();
    assert!(matches!(
        rpc(&mut doomed, &Message::Claim { seq: 1 }),
        Message::Grant { .. }
    ));
    drop(doomed);
    let handles: Vec<_> = (0..2).map(|index| spawner.spawn(index)).collect();
    let report = wait_for_report(&state, grid);
    spawner.stop_workers();
    let simulated: usize = handles
        .into_iter()
        .map(|handle| handle.join().expect("worker exits cleanly").jobs_run)
        .sum();
    assert_eq!(report, single_process);
    assert_eq!(report_bits(&report), report_bits(&single_process));
    assert_eq!(
        simulated,
        spec.job_count() - kept,
        "only the jobs the store is missing ran"
    );

    // A third daemon on the complete store finalizes the grid as it opens,
    // and a new submission lands on a line of its own after the torn one.
    let state = durable_daemon(&dir);
    let again = state.lock().unwrap().report(grid).cloned();
    assert_eq!(again.as_ref(), Some(&single_process), "finalized at open");
    state.lock().unwrap().submit_grid("again", &spec);
    let journal = std::fs::read_to_string(&journal_path).expect("journal");
    let lines: Vec<&str> = journal.lines().collect();
    assert_eq!(lines.len(), 3, "grid, torn fragment, new grid: {journal}");
    assert!(lines[2].starts_with("{\"name\":\"again\""), "{}", lines[2]);
    let reopened = durable_daemon(&dir);
    assert!(reopened.lock().unwrap().report(grid).is_some());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_lease_is_stolen_and_the_shard_completes() {
    let spec = diverse_spec();
    let state = ServiceState::shared(ServiceConfig {
        shards_per_grid: 4,
        lease_ttl: StdDuration::from_millis(200),
        ..ServiceConfig::default()
    });
    let spawner = LoopbackSpawner::new(state.clone());
    let grid = state.lock().unwrap().submit_grid("stale", &spec);

    // A hung worker: connected, holding a shard, never heartbeating.
    let mut hung = spawner.connect();
    assert!(matches!(
        rpc(&mut hung, &Message::Claim { seq: 1 }),
        Message::Grant { .. }
    ));

    // A healthy worker finishes its own shards, then steals the hung one
    // once its TTL lapses.
    let worker = spawner.spawn(0);
    let report = wait_for_report(&state, grid);
    assert_eq!(report_bits(&report), report_bits(&spec.run()));
    spawner.stop_workers();
    worker.join().expect("worker exits cleanly");
}

#[test]
fn merge_is_invariant_under_shuffled_store_discovery_order() {
    let spec = diverse_spec();
    let single_process = spec.run();
    let dir = temp_dir("shuffle");
    served(&spec, 3, &dir);
    let store = ExperimentStore::load(grid_store(&dir, &spec)).expect("store reloads");
    let mut records: Vec<JobRecord> = store.records().to_vec();
    // Re-granted jobs legitimately arrive twice.
    records.extend_from_within(..5);

    type Permutation = fn(&mut Vec<JobRecord>);
    let orders: [Permutation; 3] = [|_v| {}, |v| v.reverse(), |v| v.rotate_left(7)];
    for permute in orders {
        let mut shuffled = records.clone();
        permute(&mut shuffled);
        let mut report = ExperimentReport::from_records(shuffled);
        report.seeds = spec.seeds.clone();
        assert_eq!(report, single_process);
        assert_eq!(report_bits(&report), report_bits(&single_process));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn manifest_mismatch_is_rejected_instead_of_contaminating_the_directory() {
    let spec = diverse_spec();
    let dir = temp_dir("mismatch");
    served(&spec, 1, &dir);

    // The same job keys under different configurations: a different grid,
    // so a different store.  Even handed the first grid's records as its
    // own, none may settle a job of the edited grid.
    let mut edited = spec.clone();
    for scenario in &mut edited.scenarios {
        scenario.base = scenario.base.clone().with_duration(Duration::from_secs(9));
    }
    assert_ne!(grid_store(&dir, &edited), grid_store(&dir, &spec));
    std::fs::copy(grid_store(&dir, &spec), grid_store(&dir, &edited)).expect("copy store");
    let (report, simulated) = served(&edited, 2, &dir);
    assert_eq!(report_bits(&report), report_bits(&edited.run()));
    assert_eq!(simulated, edited.job_count(), "every stale record re-ran");
    // The first grid's store holds only its own records.
    let original = ExperimentStore::load(grid_store(&dir, &spec)).expect("reload");
    assert_eq!(original.rebuild_report().cells, spec.run().cells);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn distributed_load_grid_matches_the_resumable_spec_path() {
    let scenarios = [5.0, 12.0]
        .iter()
        .map(|&load| {
            ScenarioSpec::new(
                format!("load_{load}pps"),
                ScenarioConfig::small(PolicyKind::PureLeach, load, 0)
                    .with_duration(Duration::from_secs(8)),
            )
        })
        .collect();
    let spec = ExperimentSpec::paper_policies(scenarios, 41, 2);
    let expected = spec.run();
    let dir = temp_dir("load_grid");
    let (report, _) = served(&spec, 2, &dir);
    assert_eq!(report, expected);
    assert_eq!(report_bits(&report), report_bits(&expected));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn distributed_runs_stay_inside_the_process_thread_budget() {
    let spec = diverse_spec();
    let state = daemon();
    served_with(&state, &LoopbackSpawner::new(state.clone()), &spec, 3);
    // In-process workers draw their rayon fan-outs from the shared global
    // budget: however many workers run concurrently, the peak of live
    // spawned simulation threads never exceeds the process cap.
    assert!(rayon::peak_live_workers() <= rayon::process_thread_cap());
}

#[test]
fn a_store_that_completes_the_grid_finalizes_it_at_submit() {
    let spec = diverse_spec();
    let dir = temp_dir("complete_at_submit");
    let (report, _) = served(&spec, 2, &dir);
    // A fresh directory holding only the grid's store, with no journaled
    // submission and no worker attached: the store alone settles every
    // job, and the grid finalizes inside the submission itself.
    let fresh = temp_dir("complete_at_submit_fresh");
    std::fs::create_dir_all(&fresh).expect("create directory");
    std::fs::copy(grid_store(&dir, &spec), grid_store(&fresh, &spec)).expect("copy store");
    let state = durable_daemon(&fresh);
    let grid = state.lock().unwrap().submit_grid("resumed", &spec);
    let resumed = state
        .lock()
        .unwrap()
        .report(grid)
        .cloned()
        .expect("finalized at submit");
    assert_eq!(report_bits(&resumed), report_bits(&report));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&fresh).ok();
}

#[test]
fn tcp_workers_attach_through_serve_listener() {
    let spec = diverse_spec();
    let state = daemon();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address").to_string();
    {
        let state = state.clone();
        std::thread::spawn(move || serve_listener(&listener, &state));
    }
    let grid = state.lock().unwrap().submit_grid("tcp", &spec);
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..2)
        .map(|index| {
            let stream = std::net::TcpStream::connect(&addr).expect("connect");
            let mut opts = SocketWorkerOptions::new(format!("tcp_{index}"));
            opts.stop = stop.clone();
            std::thread::spawn(move || run_socket_worker(&mut TcpLink::new(stream), &opts))
        })
        .collect();
    let report = wait_for_report(&state, grid);
    // A raised stop flag drains both workers, which then exit cleanly.
    stop.store(true, Ordering::Relaxed);
    for worker in workers {
        let exit = worker.join().expect("worker thread");
        assert!(matches!(exit, Ok(WorkerExit::Finished(_))), "{exit:?}");
    }
    assert_eq!(report_bits(&report), report_bits(&spec.run()));
}

#[test]
fn a_grid_store_that_cannot_be_opened_is_reported_and_the_grid_still_completes() {
    let spec = diverse_spec();
    let dir = temp_dir("unwritable");
    // A directory where the grid's store file belongs: opening it fails.
    std::fs::create_dir_all(grid_store(&dir, &spec)).expect("create directory");
    let before = faults::event_count(RunEvent::JournalWriteFailed);
    let (report, simulated) = served(&spec, 2, &dir);
    assert!(faults::event_count(RunEvent::JournalWriteFailed) > before);
    assert_eq!(report_bits(&report), report_bits(&spec.run()));
    assert_eq!(simulated, spec.job_count());
    std::fs::remove_dir_all(&dir).ok();
}
