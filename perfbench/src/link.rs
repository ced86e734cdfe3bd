//! The served-grid path, instrumented from outside the service.
//!
//! An in-process daemon ([`ServiceState`]) is started per grid, the grid is
//! submitted over a loopback client link, and loopback workers are attached
//! with [`loopback_pair`] + [`serve_connection`] + [`run_socket_worker`] —
//! the same pieces `caem-serve` wires to sockets.  Each worker link can be
//! wrapped in a [`CountingLink`], which counts frames, bytes and time spent
//! blocked in `recv`, and timestamps the protocol moments the benchmark
//! reports (first grant, last shard-done request).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use caem_wsnsim::serve::{
    loopback_pair, run_socket_worker, serve_connection, FrameLink, LoopbackLink, Message,
    ProtoError, ServiceClient, ServiceConfig, ServiceState, SocketWorkerOptions, WorkerExit,
};

use crate::trace::Tracer;

/// How often the client polls for the finished report.  `fetch_report`
/// sleeps 100 ms between polls, which would quantise every served wall
/// time to that step.
const FETCH_POLL: Duration = Duration::from_millis(2);

/// Give up on a served grid that has not finished after this long.
const FETCH_DEADLINE: Duration = Duration::from_secs(150);

/// Counters shared by every wrapped worker link of one fleet.
pub struct LinkStats {
    epoch: Instant,
    /// Decode `records` frames to count the lines they carry (traced runs
    /// only: it parses every shipped record).
    count_records: bool,
    /// Frames sent and received.
    pub frames: AtomicU64,
    /// Payload bytes sent and received.
    pub bytes: AtomicU64,
    /// Nanoseconds spent blocked in `recv`.
    pub wait_ns: AtomicU64,
    /// `no_work` replies received.
    pub no_work: AtomicU64,
    /// Record lines shipped in `records` frames (when counted).
    pub records: AtomicU64,
    first_grant_ns: AtomicU64,
    last_shard_done_ns: AtomicU64,
}

impl LinkStats {
    /// Fresh counters; `count_records` enables the per-line record count.
    pub fn new(count_records: bool) -> Arc<Self> {
        Arc::new(LinkStats {
            epoch: Instant::now(),
            count_records,
            frames: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            wait_ns: AtomicU64::new(0),
            no_work: AtomicU64::new(0),
            records: AtomicU64::new(0),
            first_grant_ns: AtomicU64::new(u64::MAX),
            last_shard_done_ns: AtomicU64::new(0),
        })
    }

    fn stamp(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// When a worker first received a shard grant.
    pub fn first_grant(&self) -> Option<Instant> {
        let ns = self.first_grant_ns.load(Ordering::Relaxed);
        (ns != u64::MAX).then(|| self.epoch + Duration::from_nanos(ns))
    }

    /// When a worker last sent a shard-done request.  The daemon
    /// finalizes the grid (merge, aggregate, render) while handling the
    /// last one, before it acknowledges.
    pub fn last_shard_done(&self) -> Option<Instant> {
        let ns = self.last_shard_done_ns.load(Ordering::Relaxed);
        (ns != 0).then(|| self.epoch + Duration::from_nanos(ns))
    }

    /// Total `recv` wait across the fleet, in seconds.
    pub fn wait_s(&self) -> f64 {
        self.wait_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    fn count_frame(&self, payload: &[u8]) {
        self.frames.fetch_add(1, Ordering::Relaxed);
        self.bytes
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
    }
}

/// The message kinds the counters react to.
const WATCHED: [&str; 4] = ["grant", "no_work", "shard_done", "records"];

/// A frame's message kind, read from the `"type"` field the protocol
/// encodes first, falling back to a full decode.
pub fn frame_kind(payload: &[u8]) -> &'static str {
    if let Some(rest) = payload.strip_prefix(br#"{"type":""#) {
        return WATCHED
            .into_iter()
            .find(|k| rest.starts_with(k.as_bytes()) && rest.get(k.len()) == Some(&b'"'))
            .unwrap_or("other");
    }
    Message::decode(payload).map_or("other", |m| m.kind())
}

/// A [`FrameLink`] that forwards to `inner` and feeds [`LinkStats`].
pub struct CountingLink<L> {
    inner: L,
    stats: Arc<LinkStats>,
}

impl<L: FrameLink> CountingLink<L> {
    /// Wrap `inner`, counting into `stats`.
    pub fn new(inner: L, stats: Arc<LinkStats>) -> Self {
        CountingLink { inner, stats }
    }
}

impl<L: FrameLink> FrameLink for CountingLink<L> {
    fn send(&mut self, payload: &[u8]) -> Result<(), ProtoError> {
        let stats = &self.stats;
        stats.count_frame(payload);
        match frame_kind(payload) {
            "shard_done" => {
                stats
                    .last_shard_done_ns
                    .fetch_max(stats.stamp(), Ordering::Relaxed);
            }
            "records" if stats.count_records => {
                if let Ok(Message::Records { lines, .. }) = Message::decode(payload) {
                    stats
                        .records
                        .fetch_add(lines.len() as u64, Ordering::Relaxed);
                }
            }
            _ => {}
        }
        self.inner.send(payload)
    }

    fn recv(&mut self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>, ProtoError> {
        let started = Instant::now();
        let received = self.inner.recv(timeout);
        let stats = &self.stats;
        stats
            .wait_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if let Ok(Some(frame)) = &received {
            stats.count_frame(frame);
            match frame_kind(frame) {
                "grant" => {
                    stats
                        .first_grant_ns
                        .fetch_min(stats.stamp(), Ordering::Relaxed);
                }
                "no_work" => {
                    stats.no_work.fetch_add(1, Ordering::Relaxed);
                }
                _ => {}
            }
        }
        received
    }
}

/// What one served grid produced.
pub struct ServedGrid {
    /// When the grid was handed in (before the daemon started).
    pub started: Instant,
    /// When the client received the finished report.
    pub fetched: Instant,
    /// When the report bytes had been verified.
    pub verified: Instant,
    /// The caller's verdict on the report bytes.
    pub report_ok: bool,
    /// Jobs the workers quarantined.
    pub quarantined: u64,
    /// Workers that ended in a transport error, a rejection or a panic.
    pub worker_errors: Vec<String>,
}

/// Serve one grid: start a daemon, submit `spec`, attach `workers`
/// loopback workers (each link passed through `wrap`), poll for the report,
/// hand it to `verify`, then stop and join every thread started here.
///
/// Workers attach after the submit acknowledgement, so their first claim is
/// granted instead of being told to retry 100 ms later.
pub fn serve_grid(
    spec: &str,
    quick: bool,
    seed: u64,
    workers: usize,
    wrap: &dyn Fn(LoopbackLink) -> Box<dyn FrameLink>,
    verify: &dyn Fn(&str) -> bool,
    tracer: &mut Tracer,
) -> Result<ServedGrid, String> {
    let started = Instant::now();
    tracer.enter("serve.start", None);
    let state = ServiceState::shared(ServiceConfig::default());
    let mut daemon_threads: Vec<JoinHandle<()>> = Vec::new();
    let mut attach = || {
        let (peer, mut served) = loopback_pair();
        let state = state.clone();
        daemon_threads.push(std::thread::spawn(move || {
            serve_connection(&mut served, &state)
        }));
        peer
    };
    let mut client_link = attach();
    tracer.exit();

    let stop = Arc::new(AtomicBool::new(false));
    let mut worker_threads = Vec::new();
    let outcome = (|| -> Result<_, String> {
        let mut client = ServiceClient::new(&mut client_link);
        tracer.enter("serve.submit", None);
        let submission = client.submit(spec, quick, seed);
        tracer.exit();
        submission.map_err(|e| format!("submit failed: {e}"))?;

        tracer.enter("serve.attach", None);
        for index in 0..workers {
            let mut link = wrap(attach());
            let mut opts = SocketWorkerOptions::new(format!("perfbench_{index}"));
            opts.stop = stop.clone();
            worker_threads.push(std::thread::spawn(move || {
                run_socket_worker(&mut *link, &opts)
            }));
        }
        tracer.exit();

        tracer.enter("serve.wait", None);
        let report = loop {
            match client.try_fetch() {
                Ok(Some(report)) => break Ok(report),
                Ok(None) if started.elapsed() < FETCH_DEADLINE => std::thread::sleep(FETCH_POLL),
                Ok(None) => break Err("no report before the deadline".to_string()),
                Err(e) => break Err(format!("fetch failed: {e}")),
            }
        };
        tracer.exit();
        let report = report?;
        let fetched = Instant::now();
        tracer.enter("serve.verify", None);
        let report_ok = verify(&report);
        tracer.exit();
        Ok((fetched, Instant::now(), report_ok))
    })();

    tracer.enter("serve.teardown", None);
    stop.store(true, Ordering::Relaxed);
    let mut quarantined = 0;
    let mut worker_errors = Vec::new();
    for handle in worker_threads {
        match handle.join() {
            Ok(Ok(WorkerExit::Finished(done))) => quarantined += done.jobs_quarantined as u64,
            Ok(Ok(WorkerExit::Rejected(reason))) => worker_errors.push(reason),
            Ok(Err(e)) => worker_errors.push(e.to_string()),
            Err(_) => worker_errors.push("worker thread panicked".to_string()),
        }
    }
    drop(client_link);
    for handle in daemon_threads {
        if handle.join().is_err() {
            worker_errors.push("daemon connection thread panicked".to_string());
        }
    }
    tracer.exit();

    let (fetched, verified, report_ok) = outcome?;
    Ok(ServedGrid {
        started,
        fetched,
        verified,
        report_ok,
        quarantined,
        worker_errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_kind_reads_the_encoded_type() {
        let no_work = Message::NoWork {
            seq: 3,
            retry_ms: 100,
        };
        assert_eq!(frame_kind(&no_work.encode()), "no_work");
        let done = Message::ShardDone {
            seq: 4,
            grid: 1,
            shard: 0,
            sent: 2,
        };
        assert_eq!(frame_kind(&done.encode()), "shard_done");
        let records = Message::Records {
            grid: 1,
            shard: 0,
            lines: vec!["x".into()],
        };
        assert_eq!(frame_kind(&records.encode()), "records");
        assert_eq!(frame_kind(&Message::Claim { seq: 5 }.encode()), "other");
    }
}
