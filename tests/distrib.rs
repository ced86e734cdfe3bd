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

/// A store directory in the byte layout of the formats this suite commits
/// to (store version 1): a `grids.jsonl` line, and the grid's store lines
/// (header, two records, a quarantine), recorded from a served run of the
/// test's one-scenario grid whose poison plan quarantined its Scheme 1 job.
const LITERAL_GRID: &str = r#"{"name":"literal","spec":{"policies":["PureLeach","Scheme1Adaptive","Scheme2Fixed"],"seeds":[400],"job_count":3,"scenarios":[{"label":"uniform","config_hash":"30a8b566f02c53c6","config":{"node_count":20,"field":{"width":100.0,"height":100.0},"topology":"Uniform","traffic":{"Poisson":{"rate_pps":8.0}},"traffic_profile":"Constant","buffer_capacity":50,"initial_energy_j":10.0,"initial_energy_spread":0.0,"churn":null,"policy":"PureLeach","caem":{"sampling_interval_packets":5,"queue_threshold":15,"initial_threshold":"Mbps2","lower_step_classes":1},"duration":5000000000,"seed":0,"round":{"round_duration":20000000000,"setup_duration":100000000},"ch_probability":0.05,"link_budget":{"data_tx_dbm":0.0,"tone_tx_dbm":-8.6,"noise_floor_dbm":-101.0,"antenna_gain_db":0.0},"path_loss":{"LogDistance":{"exponent":3.0,"reference_distance_m":1.0,"reference_loss_db":31.68569269524038}},"shadowing":{"sigma_db":6.0,"decorrelation_time_s":3.5},"frame":{"payload_bits":2000,"header_bits":64},"burst":{"min_packets":3,"max_packets":8},"backoff":{"slot":20000,"contention_window":10,"max_retransmissions":6},"tone":{"idle":{"duration":1000000,"interval":50000000,"repeating":true},"receive":{"duration":500000,"interval":10000000,"repeating":true},"collision":{"duration":500000,"interval":5000000,"repeating":false},"transmit":{"duration":500000,"interval":15000000,"repeating":true}},"power":{"data_tx_w":0.66,"data_rx_w":0.305,"data_sleep_w":0.0035,"data_startup_w":0.305,"startup_time":20000000,"tone_tx_w":0.092,"tone_rx_w":0.036},"codec":{"encode_j_per_bit":0.0,"decode_j_per_bit":0.0},"sensing_delay":8000000,"ch_detection_delay":500000,"energy_snapshot_interval":5000000000,"fairness_snapshot_interval":1000000000}}]}}"#;
const LITERAL_HEADER: &str = r#"{"caem_experiment_store":1,"metric_names":["delivery_rate","average_delay_ms","throughput_kbps","mj_per_delivered_packet","total_remaining_energy_j","nodes_alive","collisions","node_failures"]}"#;
const LITERAL_SCHEME2_RECORD: &str = r#"{"scenario_index":0,"scenario":"uniform","policy_index":2,"policy":"Scheme2Fixed","seed":400,"config_hash":15824267251074935974,"metrics":[0.4416365824308063,406.6235835912805,146.8,4.9022971489482305,198.20085694633602,20.0,0.0,0.0],"generated":831,"delivered":367,"events_processed":2903,"end_time_nanos":5000000000,"delay_p50_ms":175.0,"delay_p95_ms":2532.499999999999,"delay_p99_ms":3516.499999999999}"#;
const LITERAL_LEACH_RECORD: &str = r#"{"scenario_index":0,"scenario":"uniform","policy_index":0,"policy":"PureLeach","seed":400,"config_hash":1273563305789543490,"metrics":[0.49338146811071,700.7566640951225,164.0,11.179654006634147,195.41634185728003,20.0,38.0,0.0],"generated":831,"delivered":410,"events_processed":6451,"end_time_nanos":5000000000,"delay_p50_ms":531.25,"delay_p95_ms":1912.5,"delay_p99_ms":2247.4999999999995}"#;
const LITERAL_QUARANTINE: &str = r#"{"caem_job_failure":1,"scenario_index":0,"scenario":"uniform","policy_index":1,"policy":"Scheme1Adaptive","seed":400,"config_hash":1566577160353020723,"attempts":2,"reason":"job panicked: caem-injected-poison: injected poison in job (scenario 0, policy 1, seed 400)"}"#;
/// The report that grid was served with.
const LITERAL_REPORT: &str = r#"{"seeds":[400],"job_count":2,"cells":[{"scenario":"uniform","policy":"PureLeach","metrics":[{"name":"delivery_rate","mean":0.49338146811071,"ci95_half_width":0.0,"min":0.49338146811071,"max":0.49338146811071,"replicates":1},{"name":"average_delay_ms","mean":700.7566640951225,"ci95_half_width":0.0,"min":700.7566640951225,"max":700.7566640951225,"replicates":1},{"name":"throughput_kbps","mean":164.0,"ci95_half_width":0.0,"min":164.0,"max":164.0,"replicates":1},{"name":"mj_per_delivered_packet","mean":11.179654006634147,"ci95_half_width":0.0,"min":11.179654006634147,"max":11.179654006634147,"replicates":1},{"name":"total_remaining_energy_j","mean":195.41634185728003,"ci95_half_width":0.0,"min":195.41634185728003,"max":195.41634185728003,"replicates":1},{"name":"nodes_alive","mean":20.0,"ci95_half_width":0.0,"min":20.0,"max":20.0,"replicates":1},{"name":"collisions","mean":38.0,"ci95_half_width":0.0,"min":38.0,"max":38.0,"replicates":1},{"name":"node_failures","mean":0.0,"ci95_half_width":0.0,"min":0.0,"max":0.0,"replicates":1}]},{"scenario":"uniform","policy":"Scheme2Fixed","metrics":[{"name":"delivery_rate","mean":0.4416365824308063,"ci95_half_width":0.0,"min":0.4416365824308063,"max":0.4416365824308063,"replicates":1},{"name":"average_delay_ms","mean":406.6235835912805,"ci95_half_width":0.0,"min":406.6235835912805,"max":406.6235835912805,"replicates":1},{"name":"throughput_kbps","mean":146.8,"ci95_half_width":0.0,"min":146.8,"max":146.8,"replicates":1},{"name":"mj_per_delivered_packet","mean":4.9022971489482305,"ci95_half_width":0.0,"min":4.9022971489482305,"max":4.9022971489482305,"replicates":1},{"name":"total_remaining_energy_j","mean":198.20085694633602,"ci95_half_width":0.0,"min":198.20085694633602,"max":198.20085694633602,"replicates":1},{"name":"nodes_alive","mean":20.0,"ci95_half_width":0.0,"min":20.0,"max":20.0,"replicates":1},{"name":"collisions","mean":0.0,"ci95_half_width":0.0,"min":0.0,"max":0.0,"replicates":1},{"name":"node_failures","mean":0.0,"ci95_half_width":0.0,"min":0.0,"max":0.0,"replicates":1}]}],"quarantined":[{"scenario":"uniform","policy":"Scheme1Adaptive","seed":400,"attempts":2,"reason":"job panicked: caem-injected-poison: injected poison in job (scenario 0, policy 1, seed 400)"}]}"#;

#[test]
fn a_store_directory_in_the_committed_byte_layout_loads_and_resumes() {
    let config =
        ScenarioConfig::small(PolicyKind::PureLeach, 8.0, 0).with_duration(Duration::from_secs(5));
    let spec = ExperimentSpec::paper_policies(vec![ScenarioSpec::new("uniform", config)], 400, 1);
    let dir = temp_dir("literal");
    std::fs::create_dir_all(&dir).expect("store directory");
    // A crash tore a second submission and the PureLeach record.
    let journal_path = dir.join("grids.jsonl");
    let journal = format!("{LITERAL_GRID}\n{{\"name\":\"tor");
    std::fs::write(&journal_path, &journal).expect("write grids.jsonl");
    let torn = &LITERAL_LEACH_RECORD[..LITERAL_LEACH_RECORD.len() / 2];
    let store_text =
        format!("{LITERAL_HEADER}\n{LITERAL_SCHEME2_RECORD}\n{LITERAL_QUARANTINE}\n{torn}");
    let store_path = grid_store(&dir, &spec);
    std::fs::write(&store_path, &store_text).expect("write the grid store");

    let offline = ExperimentStore::load(&store_path).expect("the store loads");
    assert_eq!((offline.len(), offline.skipped_lines()), (1, 1));

    // A daemon restarted on the directory replays the grid with two jobs
    // settled; one worker re-runs only the torn job.
    let state = durable_daemon(&dir);
    let spawner = LoopbackSpawner::new(state.clone());
    let worker = spawner.spawn(0);
    let report = wait_for_report(&state, spec.hash());
    spawner.stop_workers();
    let outcome = worker.join().expect("worker exits cleanly");
    assert_eq!(outcome.jobs_run, 1, "only the torn job re-ran");
    assert_eq!(report_bits(&report), LITERAL_REPORT);
    // The re-run line starts on a line of its own, byte for byte the line
    // the crash tore, and the store re-aggregates to the served bytes.
    let resumed = std::fs::read_to_string(&store_path).expect("read the grid store");
    assert_eq!(resumed, format!("{store_text}\n{LITERAL_LEACH_RECORD}\n"));
    let rebuilt = ExperimentStore::load(&store_path).expect("the store reloads");
    assert_eq!(report_bits(&rebuilt.rebuild_report()), LITERAL_REPORT);
    let grids = std::fs::read_to_string(&journal_path).expect("read grids.jsonl");
    assert_eq!(grids, journal, "replaying the journal writes nothing");
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
    let mut records: Vec<JobRecord> = store.records().cloned().collect();
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
