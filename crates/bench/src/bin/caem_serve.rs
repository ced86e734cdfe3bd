//! `caem-serve`: the experiment service daemon and its client commands.
//!
//! One binary, four modes.  `--listen` runs the long-lived daemon: it
//! accepts grid-spec submissions, splits each accepted grid into shards and
//! multiplexes them across every socket worker that connects (workers
//! attach with `experiment --connect <addr>`; no shared filesystem).  The
//! other three modes are thin clients against a running daemon:
//!
//! ```bash
//! caem-serve --listen 127.0.0.1:7171 --store grids/ &  # daemon
//! caem-serve --submit specs/zoo.json --addr 127.0.0.1:7171 --quick
//! caem-serve --status --addr 127.0.0.1:7171
//! caem-serve --fetch  --addr 127.0.0.1:7171 --out report.json
//! ```
//!
//! The daemon is durable: it journals every accepted submission to
//! `<store>/grids.jsonl` before acknowledging it, and each grid's settled
//! records to `<store>/<grid hash>.jsonl`, an ordinary experiment store
//! (`experiment --reaggregate --store` reads it).  Killed and restarted on
//! the same `--store`, it queues its grids again and re-grants only the
//! jobs their stores are missing.
//!
//! A fetched report is written **verbatim** — the daemon renders it once
//! through the canonical aggregation pipeline, so the bytes are identical
//! to a single-process run of the same spec.

use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use caem_bench::cli::{ServeCli, ServeMode};
use caem_bench::DEFAULT_SEED;
use caem_wsnsim::serve::{
    serve_listener, ProtoError, ServiceClient, ServiceConfig, ServiceState, TcpLink,
};

const USAGE: &str = "\
usage: caem-serve <mode> [flags]

modes (exactly one selector):
  --listen <host:port>   run the daemon
    --store <dir>          journal submitted grids and their records here;
                           a restarted daemon resumes them (default
                           caem-serve-store in the working directory)
    --shards <n>           shards per submitted grid (default 8, clamped to
                           the grid's job count)
    --lease-ttl <s>        seconds a connection may stay silent before the
                           daemon closes it and re-grants its shards
                           (default 60; workers heartbeat at a twelfth
                           of it)
  --submit <file>        submit a grid-spec document to a daemon
    --addr <host:port>     daemon address (required)
    --quick                resolve the spec in quick mode
    --seed <n>             default seed when the document pins none
  --status               print a daemon's progress snapshot
    --addr <host:port>     daemon address (required)
  --fetch                fetch the report of the most recently submitted
                         grid, waiting until it completes
    --addr <host:port>     daemon address (required)
    --out <file>           write the report here instead of stdout
    --timeout <s>          give up after this many seconds (default 60)

Both `--flag value` and `--flag=value` work; unknown flags exit 2.";

fn die(message: String) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

fn die_usage(message: String) -> ! {
    eprintln!("error: {message}\n\n{USAGE}");
    std::process::exit(2);
}

/// Connection and transport failures are environmental, not usage errors:
/// exit 1, reserving exit 2 for the CLI/validation class.
fn fail(message: String) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}

fn connect(addr: &str) -> TcpLink {
    match TcpStream::connect(addr) {
        Ok(stream) => TcpLink::new(stream),
        Err(e) => fail(format!("cannot connect to daemon at {addr}: {e}")),
    }
}

fn daemon(listen: &str, store: &str, cfg: ServiceConfig) -> ! {
    // A store that cannot be opened or read is environmental, like an
    // address that cannot be bound.
    let state = ServiceState::open(cfg, store)
        .unwrap_or_else(|e| fail(format!("cannot open store directory {store}: {e}")));
    let listener = TcpListener::bind(listen)
        .unwrap_or_else(|e| fail(format!("cannot listen on {listen}: {e}")));
    let bound = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| listen.to_string());
    println!("caem-serve: listening on {bound}, journaling to {store}");
    serve_listener(&listener, &state);
    // `incoming()` never returns None; reaching here means the listener died.
    fail("listener closed unexpectedly".to_string());
}

fn submit(addr: &str, file: &str, quick: bool, seed: Option<u64>) {
    let text = std::fs::read_to_string(file)
        .unwrap_or_else(|e| die(format!("cannot read spec file {file}: {e}")));
    let mut link = connect(addr);
    let mut client = ServiceClient::new(&mut link);
    match client.submit(&text, quick, seed.unwrap_or(DEFAULT_SEED)) {
        Ok(sub) => println!(
            "submitted `{}` ({} jobs) as grid {:016x}",
            sub.name, sub.jobs, sub.grid_hash
        ),
        // The daemon's validation verdict (a rendered ConfigError or a
        // rejected shape): the same exit-2 class as local spec parsing.
        Err(ProtoError::Rejected(reason)) => die(format!("daemon rejected {file}: {reason}")),
        Err(e) => fail(format!("submit to {addr} failed: {e}")),
    }
}

fn status(addr: &str) {
    let mut link = connect(addr);
    let mut client = ServiceClient::new(&mut link);
    let snap = client
        .status()
        .unwrap_or_else(|e| fail(format!("status from {addr} failed: {e}")));
    match &snap.active {
        Some(p) => println!(
            "active grid `{}`: {}/{} jobs settled ({} quarantined), {}/{} shards done",
            p.name, p.settled, p.jobs, p.quarantined, p.shards_done, p.shard_count
        ),
        None => println!("no active grid"),
    }
    println!(
        "{} grid(s) queued behind it, {} completed, {} worker(s) connected",
        snap.queued, snap.completed, snap.workers
    );
    if let Some(events) = &snap.events {
        println!("{events}");
    }
}

fn fetch(addr: &str, out: Option<&str>, timeout: Option<Duration>) {
    let mut link = connect(addr);
    let mut client = ServiceClient::new(&mut link);
    let budget = timeout.unwrap_or(Duration::from_secs(60));
    let report = client
        .fetch_report(budget)
        .unwrap_or_else(|e| fail(format!("fetch from {addr} failed: {e}")));
    match out {
        // Verbatim bytes: this is what CI diffs against the single-process
        // artifact.
        Some(path) => match std::fs::write(path, &report) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => fail(format!("could not write {path}: {e}")),
        },
        None => print!("{report}"),
    }
}

fn main() {
    let cli = ServeCli::from_env().unwrap_or_else(|e| die_usage(e.to_string()));
    match &cli.mode {
        ServeMode::Daemon {
            listen,
            store,
            config,
        } => daemon(listen, store, config.clone()),
        ServeMode::Submit {
            addr,
            file,
            quick,
            seed,
        } => submit(addr, file, *quick, *seed),
        ServeMode::Status { addr } => status(addr),
        ServeMode::Fetch { addr, out, timeout } => fetch(addr, out.as_deref(), *timeout),
    }
}
