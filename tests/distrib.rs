//! Contract tests for distributed grid execution through the experiment
//! service.
//!
//! The distribution layer promises exactly one thing on top of the engine:
//! **the execution topology is unobservable in the results**.  One worker,
//! N workers, workers dying mid-shard, a coordinator killed and resumed
//! from its store, leases stolen from silent workers, records merged in any
//! order — every path must reproduce the single-process
//! [`ExperimentSpec::run`] report bit for bit.  These tests drive the
//! `--workers N` coordinator ([`Coordinator`]) with in-process loopback
//! workers, which speak the same frames as the `--connect` worker processes
//! the CI smoke job kills.

use std::time::{Duration as StdDuration, Instant};

use caem_suite::caem::policy::PolicyKind;
use caem_suite::simcore::time::Duration;
use caem_suite::wsnsim::distrib::{
    merge_outcome, DistribError, GridManifest, WorkerHandle, WorkerSpawner,
};
use caem_suite::wsnsim::experiment::{
    ExperimentReport, ExperimentSpec, ScenarioSpec, SequentialStopping,
};
use caem_suite::wsnsim::persist::{ExperimentStore, JobRecord};
use caem_suite::wsnsim::serve::{
    run_socket_worker, serve_listener, Coordinator, FrameLink, LoopbackSpawner, Message,
    ServiceConfig, ServiceState, SocketWorkerOptions, TcpLink, WorkerExit,
};
use caem_suite::wsnsim::ScenarioConfig;

mod common;

use common::{base, daemon, diverse_spec, report_bits, served, served_with, temp_store};

#[test]
fn n_worker_and_single_worker_reports_are_bit_identical_to_run() {
    let spec = diverse_spec();
    let single_process = spec.run();

    for workers in 1..=3 {
        let path = temp_store(&format!("identical_{workers}"));
        let (report, store) = served(&spec, workers, &path);
        assert_eq!(
            report, single_process,
            "{workers}-worker report equals ExperimentSpec::run"
        );
        assert_eq!(report_bits(&report), report_bits(&single_process));
        assert_eq!(store.appended(), spec.job_count(), "every job journaled");
        // The offline re-aggregation of the coordinator's store alone
        // reproduces the same cells.
        let offline = ExperimentStore::load(&path)
            .expect("store reloads")
            .rebuild_report();
        assert_eq!(offline.cells, single_process.cells);
        assert_eq!(offline.job_count, spec.job_count());
        std::fs::remove_file(&path).ok();
    }
}

/// Worker 0 claims a shard and dies holding it, like a `kill -9`ed worker
/// process; the rest are healthy loopback workers.
struct OneDoomedWorker(LoopbackSpawner);

impl WorkerSpawner for OneDoomedWorker {
    fn spawn(
        &self,
        endpoint: &str,
        index: usize,
        thread_budget: usize,
    ) -> Result<WorkerHandle, DistribError> {
        if index > 0 {
            return self.0.spawn(endpoint, index, thread_budget);
        }
        let mut link = self.0.connect();
        Ok(WorkerHandle::from_thread(std::thread::spawn(move || {
            for seq in 1.. {
                link.send(&Message::Claim { seq }.encode())
                    .expect("claim lands");
                let frame = link.recv(Some(StdDuration::from_secs(10)));
                let reply = frame.expect("recv").expect("a reply");
                if let Ok(Message::Grant { .. }) = Message::decode(&reply) {
                    break;
                }
                std::thread::sleep(StdDuration::from_millis(5));
            }
            Err(DistribError::Format("killed holding a shard".into()))
        })))
    }
}

#[test]
fn killed_workers_and_coordinator_restart_still_reproduce_the_report() {
    let spec = diverse_spec();
    let single_process = spec.run();
    let path = temp_store("kill_restart");

    // Phase 1 — a first coordinator journals the grid, then "crashes": a
    // `kill -9` mid-grid leaves the header, the records that had arrived,
    // and a torn fragment of the next line.
    served(&spec, 2, &path);
    let text = std::fs::read_to_string(&path).expect("read store");
    let lines: Vec<&str> = text.lines().collect();
    let kept = 7;
    let mut crashed: String = lines[..=kept].iter().map(|l| format!("{l}\n")).collect();
    crashed.push_str(&lines[kept + 1][..lines[kept + 1].len() / 2]);
    std::fs::write(&path, crashed).expect("write crashed store");

    // Phase 2 — the restarted coordinator resumes from its store while one
    // of its workers dies holding a shard.  Only the jobs the store is missing
    // run, and the report is byte-identical.
    let state = daemon();
    let spawner = OneDoomedWorker(LoopbackSpawner::new(state.clone()));
    let store = ExperimentStore::open(&path).expect("reopen crashed store");
    assert_eq!(store.len(), kept);
    let (report, store) = served_with(&state, &spawner, &spec, 3, store);
    assert_eq!(report, single_process);
    assert_eq!(report_bits(&report), report_bits(&single_process));
    assert_eq!(
        store.appended(),
        spec.job_count() - kept,
        "only the missing jobs were simulated"
    );

    // A third coordinator over the complete store simulates nothing.
    let (again, store) = served(&spec, 2, &path);
    assert_eq!(again, single_process);
    assert_eq!(store.appended(), 0, "nothing left to simulate");
    std::fs::remove_file(&path).ok();
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
    hung.send(&Message::Claim { seq: 1 }.encode())
        .expect("claim lands");
    let frame = hung
        .recv(Some(StdDuration::from_secs(10)))
        .expect("recv")
        .expect("grant");
    assert!(matches!(Message::decode(&frame), Ok(Message::Grant { .. })));

    // A healthy worker finishes its own shards, then steals the hung one
    // once its TTL lapses.
    let worker = spawner.spawn("loopback", 0, 1).expect("spawn");
    let deadline = Instant::now() + StdDuration::from_secs(300);
    let report = loop {
        if let Some(report) = state.lock().unwrap().take_report(grid) {
            break report;
        }
        assert!(Instant::now() < deadline, "the hung shard was never stolen");
        std::thread::sleep(StdDuration::from_millis(10));
    };
    assert_eq!(report_bits(&report), report_bits(&spec.run()));
    spawner.stop_workers();
    worker.join().expect("worker exits cleanly");
}

#[test]
fn merge_is_invariant_under_shuffled_store_discovery_order() {
    let spec = diverse_spec();
    let single_process = spec.run();
    let path = temp_store("shuffle");
    let (_, store) = served(&spec, 3, &path);
    let mut records: Vec<JobRecord> = store.records().to_vec();
    // Re-granted jobs legitimately arrive twice.
    records.extend_from_within(..5);
    let manifest = GridManifest::from_spec(&spec, 4);

    type Permutation = fn(&mut Vec<JobRecord>);
    let orders: [Permutation; 3] = [|_v| {}, |v| v.reverse(), |v| v.rotate_left(7)];
    for permute in orders {
        let mut shuffled = records.clone();
        permute(&mut shuffled);
        let outcome = merge_outcome(&manifest, shuffled, Vec::new());
        let mut report = ExperimentReport::from_records(outcome.records);
        report.seeds = spec.seeds.clone();
        assert_eq!(report, single_process);
        assert_eq!(report_bits(&report), report_bits(&single_process));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn manifest_mismatch_is_rejected_instead_of_contaminating_the_directory() {
    let spec = diverse_spec();
    let path = temp_store("mismatch");
    served(&spec, 1, &path);

    // The same job keys under different configurations: every stored
    // record is stale for the edited grid, so none may settle a job.
    let mut edited = spec.clone();
    for scenario in &mut edited.scenarios {
        scenario.base = scenario.base.clone().with_duration(Duration::from_secs(9));
    }
    let (report, store) = served(&edited, 2, &path);
    assert_eq!(report_bits(&report), report_bits(&edited.run()));
    assert_eq!(
        store.appended(),
        edited.job_count(),
        "every stale record re-ran"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn distributed_load_sweep_matches_the_resumable_spec_path() {
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
    let path = temp_store("sweep");
    let (report, _) = served(&spec, 2, &path);
    assert_eq!(report, expected);
    assert_eq!(report_bits(&report), report_bits(&expected));
    std::fs::remove_file(&path).ok();
}

#[test]
fn distributed_sequential_stopping_matches_the_store_backed_loop() {
    let spec = ExperimentSpec {
        scenarios: vec![ScenarioSpec::new("uniform", base(0))],
        policies: vec![PolicyKind::Scheme1Adaptive],
        seeds: vec![9_100, 9_101],
    };
    let stop = SequentialStopping {
        metric: "delivery_rate".to_string(),
        target_half_width: 1e-9, // unreachable: drives the loop to its cap
        batch: 2,
        max_replicates: 6,
    };

    // Reference: the single-process, store-backed sequential loop.
    let reference_path = temp_store("seq_reference");
    let mut store = ExperimentStore::open(&reference_path).expect("open store");
    let reference = spec.run_sequential(&mut store, &stop);

    // The same loop with each round served by two workers.
    let path = temp_store("sequential");
    let sequential = |store: ExperimentStore| {
        let state = daemon();
        state.lock().unwrap().attach_store(store);
        let spawner = LoopbackSpawner::new(state.clone());
        let mut coordinator =
            Coordinator::start(state.clone(), &spawner, "loopback", 2).expect("start");
        let outcome = spec
            .run_sequential_with(&stop, |round| coordinator.run(round))
            .expect("served sequential");
        let store = coordinator.finish().unwrap().unwrap();
        (outcome, store)
    };
    let (outcome, store) = sequential(ExperimentStore::open(&path).expect("open"));
    assert_eq!(outcome.converged, reference.converged);
    assert_eq!(outcome.rounds, reference.rounds, "identical CI trajectory");
    assert_eq!(outcome.report, reference.report);
    assert_eq!(report_bits(&outcome.report), report_bits(&reference.report));
    assert_eq!(store.appended(), stop.max_replicates);

    // Re-invocation resumes from the store: nothing is simulated again and
    // the outcome is unchanged.
    drop(store);
    let (again, store) = sequential(ExperimentStore::open(&path).expect("reopen"));
    assert_eq!(again.rounds, outcome.rounds);
    assert_eq!(again.report, outcome.report);
    assert_eq!(store.appended(), 0, "a re-invocation appends nothing");

    std::fs::remove_file(&reference_path).ok();
    std::fs::remove_file(&path).ok();
}

#[test]
fn distributed_runs_stay_inside_the_process_thread_budget() {
    let spec = diverse_spec();
    let path = temp_store("budget");
    served(&spec, 3, &path);
    // In-process workers draw their rayon fan-outs from the shared global
    // budget: however many workers run concurrently, the peak of live
    // spawned simulation threads never exceeds the process cap.
    assert!(rayon::peak_live_workers() <= rayon::process_thread_cap());
    // And the budget arithmetic offered to process workers divides the cap.
    let share = rayon::split_thread_budget(3);
    assert!(share >= 1);
    assert!(share * 3 <= rayon::process_thread_cap().max(3));
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_store_that_completes_the_grid_finalizes_it_at_submit() {
    let spec = diverse_spec();
    let path = temp_store("complete_at_submit");
    let (report, store) = served(&spec, 2, &path);
    // No worker is attached: the store alone settles every job, and the
    // grid finalizes inside the submission itself.
    let state = daemon();
    state.lock().unwrap().attach_store(store);
    let grid = state.lock().unwrap().submit_grid("resumed", &spec);
    let resumed = state
        .lock()
        .unwrap()
        .take_report(grid)
        .expect("finalized at submit");
    assert_eq!(report_bits(&resumed), report_bits(&report));
    std::fs::remove_file(&path).ok();
}

/// Workers that exit at once, without claiming anything.
struct DeadOnArrival;

impl WorkerSpawner for DeadOnArrival {
    fn spawn(
        &self,
        _endpoint: &str,
        _index: usize,
        _thread_budget: usize,
    ) -> Result<WorkerHandle, DistribError> {
        Ok(WorkerHandle::from_thread(std::thread::spawn(|| {
            Err(DistribError::Format("died on arrival".into()))
        })))
    }
}

#[test]
fn an_all_dead_fleet_is_finished_by_the_inline_worker() {
    let spec = diverse_spec();
    let path = temp_store("inline");
    let state = daemon();
    let (report, store) = served_with(
        &state,
        &DeadOnArrival,
        &spec,
        3,
        ExperimentStore::open(&path).expect("open"),
    );
    assert_eq!(report_bits(&report), report_bits(&spec.run()));
    assert_eq!(store.appended(), spec.job_count());
    std::fs::remove_file(&path).ok();
}

/// Socket workers on threads, attached over real TCP connections.
struct TcpThreads;

impl WorkerSpawner for TcpThreads {
    fn spawn(
        &self,
        endpoint: &str,
        index: usize,
        _thread_budget: usize,
    ) -> Result<WorkerHandle, DistribError> {
        let stream = std::net::TcpStream::connect(endpoint)?;
        Ok(WorkerHandle::from_thread(std::thread::spawn(move || {
            let opts = SocketWorkerOptions::new(format!("tcp_{index}"));
            match run_socket_worker(&mut TcpLink::new(stream), &opts) {
                Ok(WorkerExit::Finished(outcome)) => Ok(outcome),
                other => Err(DistribError::Format(format!("{other:?}"))),
            }
        })))
    }
}

#[test]
fn tcp_workers_attach_through_serve_listener() {
    let spec = diverse_spec();
    let path = temp_store("tcp");
    let state = daemon();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address").to_string();
    {
        let state = state.clone();
        std::thread::spawn(move || serve_listener(&listener, &state));
    }
    state
        .lock()
        .unwrap()
        .attach_store(ExperimentStore::open(&path).expect("open"));
    let mut coordinator = Coordinator::start(state.clone(), &TcpThreads, &addr, 2).expect("start");
    let report = coordinator.run(&spec).expect("served over TCP");
    // Shutdown hangs up on every worker, which then exits cleanly: finish
    // returns only once both have.
    coordinator.finish();
    assert_eq!(report_bits(&report), report_bits(&spec.run()));
    std::fs::remove_file(&path).ok();
}

#[test]
fn sequential_stopping_ends_at_the_first_runner_error() {
    let spec = diverse_spec();
    let stop = SequentialStopping {
        metric: "delivery_rate".to_string(),
        target_half_width: 1e-9,
        batch: 2,
        max_replicates: 6,
    };
    let mut rounds = 0;
    let outcome = spec.run_sequential_with(&stop, |round| {
        rounds += 1;
        if rounds == 2 {
            Err(round.seeds.len())
        } else {
            Ok(round.run())
        }
    });
    assert_eq!(outcome.err(), Some(4), "round two, with four seeds, failed");
    assert_eq!(rounds, 2, "no round runs after the error");
}
