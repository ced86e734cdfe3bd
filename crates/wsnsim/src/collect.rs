//! Lock-free result plumbing: per-worker buffered sinks draining through a
//! channel collector that owns the store file.
//!
//! The old parallel record path funneled every completed job through a
//! `Mutex<&mut File>` — workers serialized **and** wrote under one lock, so
//! at high core counts the grid's tail is workers queueing on the sink
//! rather than simulating.  This module inverts the ownership:
//!
//! * every worker thread encodes its records into a **thread-local byte
//!   buffer** (serialization runs fully parallel, no shared state), which
//! * ships complete JSONL lines over a lock-free MPSC channel (`std`'s
//!   `mpsc` channel — a lock-free linked queue with `Sender: Sync`, so one
//!   handle is shared by reference across the fan-out), to
//! * a single **drainer thread** that owns the `&mut File` outright and
//!   writes batches through the same [`StoreIo`] seam, retry policy and
//!   fsync discipline as the serial path.
//!
//! Crash semantics are unchanged.  The drainer coalesces whatever lines are
//! already queued into one `write_all`, and a torn batch tears at a single
//! point exactly like a torn line: complete lines before the tear load
//! normally, the line at the tear is skipped by the loader, and nothing
//! after it exists.  Retries newline-terminate the file before rewriting
//! the whole batch, so a half-written fragment can never fuse with the
//! rewrite (duplicate whole lines are harmless — the store is
//! last-record-wins and aggregation is canonically ordered).
//!
//! Report identity is also unchanged: the collector only moves bytes.
//! Records still feed `ExperimentReport::from_records`, which sorts by the
//! canonical (scenario, policy, seed) key before folding, so fresh, resumed,
//! distributed, mutex-written and collector-written stores all aggregate to
//! bit-identical reports.
//!
//! ## Threading contract
//!
//! Buffered lines are flushed when the buffer crosses the sink's flush
//! threshold, when the owning thread exits (thread-local destructor), and
//! explicitly for the calling thread before the collector shuts down.  Every
//! thread that appends must therefore either exit before
//! [`ExperimentStore::with_parallel_sink`] returns (scoped fan-out workers
//! do) or *be* the calling thread — both hold for every call site in this
//! crate.
//!
//! [`StoreIo`]: crate::faults::StoreIo
//! [`ExperimentStore::with_parallel_sink`]: crate::persist::ExperimentStore::with_parallel_sink

use std::cell::RefCell;
use std::fs::File;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use crate::faults::{RetryPolicy, StoreIo};
use crate::persist::{append_line_with_recovery, encode_line, JobRecord, StoreError};

/// Coalesce queued lines into writes of at most this many bytes: large
/// enough to amortize the syscall under saturation, small enough that a
/// torn batch loses little.
pub(crate) const GATHER_BYTES: usize = 64 * 1024;

/// Distinguishes collectors so a thread-local buffer left over from one
/// collector can never leak lines into the next.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static LOCAL: RefCell<LocalBuffer> = const { RefCell::new(LocalBuffer::new()) };
}

/// One thread's private line buffer plus its clone of the channel sender.
/// Dropped (and therefore flushed) when the thread exits.
struct LocalBuffer {
    generation: u64,
    bytes: Vec<u8>,
    tx: Option<Sender<Vec<u8>>>,
}

impl LocalBuffer {
    const fn new() -> Self {
        LocalBuffer {
            generation: 0,
            bytes: Vec::new(),
            tx: None,
        }
    }

    /// Ship the buffered lines to the drainer.  A send failure means the
    /// drainer already shut down on a fatal IO error; the error surfaces
    /// from the collector itself, so the lines are dropped silently here.
    fn flush(&mut self) {
        if !self.bytes.is_empty() {
            if let Some(tx) = &self.tx {
                let _ = tx.send(std::mem::take(&mut self.bytes));
            }
            self.bytes.clear();
        }
    }

    /// Flush and disconnect from the current collector entirely.
    fn detach(&mut self) {
        self.flush();
        self.tx = None;
        self.generation = 0;
    }
}

impl Drop for LocalBuffer {
    fn drop(&mut self) {
        self.flush();
    }
}

/// The worker-facing handle of the lock-free record collector: shared by
/// reference across a parallel fan-out, appends never block on other
/// workers.  Obtained through
/// [`ExperimentStore::with_parallel_sink`](crate::persist::ExperimentStore::with_parallel_sink).
pub struct CollectorSink {
    tx: Sender<Vec<u8>>,
    generation: u64,
    /// Worker-side buffer threshold in bytes; 0 ships every line as soon as
    /// it is encoded (the engine default — a finished job is on its way to
    /// disk immediately, minimizing the loss window on a crash).
    flush_bytes: usize,
}

impl CollectorSink {
    /// Stream one record to the drainer (never blocks on other workers).
    ///
    /// IO errors surface from the enclosing
    /// [`with_parallel_sink`](crate::persist::ExperimentStore::with_parallel_sink)
    /// call once the fan-out finishes.
    pub fn append(&self, record: &JobRecord) {
        let line = encode_line(record).expect("job records always serialize");
        self.push_line(&line);
    }

    fn push_line(&self, line: &[u8]) {
        LOCAL.with(|slot| {
            let mut buf = slot.borrow_mut();
            if buf.generation != self.generation {
                // Leftovers from an earlier collector (already flushed when
                // it shut down, but be safe) must not travel on our channel.
                buf.detach();
                buf.generation = self.generation;
                buf.tx = Some(self.tx.clone());
            }
            buf.bytes.extend_from_slice(line);
            if buf.bytes.len() > self.flush_bytes {
                buf.flush();
            }
        });
    }

    /// Flush the calling thread's buffer and drop its channel handle.  The
    /// collector calls this for the spawning thread on shutdown (covering
    /// serial-inline fan-out fallbacks); worker threads flush via their
    /// thread-local destructors when they exit.
    pub fn flush_thread(&self) {
        LOCAL.with(|slot| {
            let mut buf = slot.borrow_mut();
            if buf.generation == self.generation {
                buf.detach();
            }
        });
    }
}

/// Run `f` with a live collector: spawns the drainer thread around the
/// store file, hands `f` the worker-facing sink, and joins the drainer
/// before returning.  Panics in `f` still shut the collector down cleanly
/// (buffered lines are written, the drainer is joined) and then resume.
pub(crate) fn run_collector<R>(
    io: Arc<dyn StoreIo>,
    retry: RetryPolicy,
    fsync: bool,
    flush_bytes: usize,
    file: &mut File,
    f: impl FnOnce(&CollectorSink) -> R,
) -> Result<R, StoreError> {
    let (tx, rx) = channel::<Vec<u8>>();
    let sink = CollectorSink {
        tx,
        generation: NEXT_GENERATION.fetch_add(1, Ordering::Relaxed),
        flush_bytes,
    };
    let io: &dyn StoreIo = &*io;
    let retry_ref = &retry;
    std::thread::scope(|scope| {
        let drainer = scope.spawn(move || drain(rx, io, retry_ref, file, fsync));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&sink)));
        // Close the channel: flush + drop the calling thread's sender
        // clone, then the sink's own. Fan-out workers have already exited
        // (their thread-local destructors flushed their buffers), so the
        // drainer sees a disconnect once the queue is empty.
        sink.flush_thread();
        drop(sink);
        let outcome = drainer.join().expect("record collector drainer panicked");
        match result {
            Ok(value) => outcome.map(|()| value),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

/// Drainer loop: receive line batches, coalesce whatever else is already
/// queued (up to [`GATHER_BYTES`]), and write each gathered batch through
/// the store's IO seam with the usual retry/torn-write/fsync discipline.
/// A fatal IO error stops the loop immediately — dropping the receiver
/// turns every later send into a silent no-op — and is reported once from
/// the collector.
fn drain(
    rx: Receiver<Vec<u8>>,
    io: &dyn StoreIo,
    retry: &RetryPolicy,
    file: &mut File,
    fsync: bool,
) -> Result<(), StoreError> {
    let mut pending: Vec<u8> = Vec::with_capacity(GATHER_BYTES);
    while let Ok(first) = rx.recv() {
        pending.clear();
        pending.extend_from_slice(&first);
        while pending.len() < GATHER_BYTES {
            match rx.try_recv() {
                Ok(more) => pending.extend_from_slice(&more),
                Err(_) => break,
            }
        }
        // The drainer runs off the simulation threads, so its span goes
        // straight into the process-wide profile (atomic adds).
        let span = caem_metrics::prof::Span::start();
        append_line_with_recovery(io, retry, file, &pending, fsync)?;
        span.stop_global(caem_metrics::prof::ProfKey::Collector, 1);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::experiment::METRIC_NAMES;
    use crate::persist::{ExperimentStore, JobRecord};
    use caem::policy::PolicyKind;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("caem_collect_unit_{}_{name}", std::process::id()))
    }

    fn tiny_record(seed: u64) -> JobRecord {
        JobRecord {
            scenario_index: 0,
            scenario: "uniform".into(),
            policy_index: 1,
            policy: PolicyKind::Scheme1Adaptive,
            seed,
            config_hash: 0xfeed_beef,
            metrics: vec![Some(0.5); METRIC_NAMES.len()],
            generated: 10,
            delivered: 8,
            events_processed: 1_000,
            end_time_nanos: 5_000_000_000,
            delay_p50_ms: Some(12.5),
            delay_p95_ms: None,
            delay_p99_ms: None,
        }
    }

    #[test]
    fn collector_round_trips_records_from_many_threads() {
        let path = temp_path("roundtrip");
        std::fs::remove_file(&path).ok();
        let threads = 8usize;
        let per_thread = 50u64;
        {
            let mut store = ExperimentStore::open(&path).unwrap();
            store
                .with_parallel_sink(|sink| {
                    std::thread::scope(|scope| {
                        for t in 0..threads as u64 {
                            scope.spawn(move || {
                                for i in 0..per_thread {
                                    sink.append(&tiny_record(t * per_thread + i));
                                }
                            });
                        }
                    });
                })
                .unwrap();
        }
        let store = ExperimentStore::load(&path).unwrap();
        assert_eq!(store.len(), threads * per_thread as usize);
        assert_eq!(store.skipped_lines(), 0);
        let mut seeds: Vec<u64> = store.records().iter().map(|r| r.seed).collect();
        seeds.sort_unstable();
        assert_eq!(seeds, (0..threads as u64 * per_thread).collect::<Vec<_>>());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn buffered_collector_flushes_worker_exit_and_calling_thread() {
        let path = temp_path("buffered");
        std::fs::remove_file(&path).ok();
        {
            let mut store = ExperimentStore::open(&path).unwrap();
            // A huge threshold: nothing flushes until the worker threads
            // exit (thread-local destructor) and the calling thread is
            // flushed by the collector's shutdown.
            store
                .with_buffered_sink(1 << 20, |sink| {
                    std::thread::scope(|scope| {
                        for t in 0..4u64 {
                            scope.spawn(move || {
                                for i in 0..25 {
                                    sink.append(&tiny_record(100 + t * 25 + i));
                                }
                            });
                        }
                    });
                    // And some lines from the calling thread itself.
                    for seed in 0..10 {
                        sink.append(&tiny_record(seed));
                    }
                })
                .unwrap();
        }
        let store = ExperimentStore::load(&path).unwrap();
        assert_eq!(store.len(), 110);
        assert_eq!(store.skipped_lines(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn collector_survives_a_panicking_closure() {
        let path = temp_path("panic");
        std::fs::remove_file(&path).ok();
        {
            let mut store = ExperimentStore::open(&path).unwrap();
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = store.with_parallel_sink(|sink| {
                    sink.append(&tiny_record(7));
                    panic!("fan-out blew up");
                });
            }));
            assert!(unwound.is_err(), "the panic must propagate");
            // The store handle stays usable: the drainer was joined, the
            // file is not wedged behind a dead thread.
            store.append(tiny_record(8)).unwrap();
        }
        let store = ExperimentStore::load(&path).unwrap();
        assert_eq!(store.len(), 2, "pre-panic and post-panic records persist");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn collector_and_mutex_sink_write_equivalent_stores() {
        // The thread-fuzz equivalence check: the same records pushed
        // through the lock-free path and the mutex baseline from racing
        // threads load back as identical record sets after canonical sort.
        let seeds: Vec<u64> = (0..200).collect();
        let canonical = |mut records: Vec<JobRecord>| {
            records.sort_by_key(JobRecord::key);
            records
        };
        let lockfree_path = temp_path("fuzz_lockfree");
        let mutex_path = temp_path("fuzz_mutex");
        std::fs::remove_file(&lockfree_path).ok();
        std::fs::remove_file(&mutex_path).ok();
        {
            let mut store = ExperimentStore::open(&lockfree_path).unwrap();
            store
                .with_parallel_sink(|sink| {
                    std::thread::scope(|scope| {
                        for chunk in seeds.chunks(13) {
                            scope.spawn(move || {
                                for &seed in chunk {
                                    sink.append(&tiny_record(seed));
                                    if seed % 3 == 0 {
                                        std::thread::yield_now();
                                    }
                                }
                            });
                        }
                    });
                })
                .unwrap();
        }
        {
            let mut store = ExperimentStore::open(&mutex_path).unwrap();
            let sink = store.mutex_sink();
            std::thread::scope(|scope| {
                for chunk in seeds.chunks(13) {
                    let sink = &sink;
                    scope.spawn(move || {
                        for &seed in chunk {
                            sink.append(&tiny_record(seed)).unwrap();
                            if seed % 3 == 0 {
                                std::thread::yield_now();
                            }
                        }
                    });
                }
            });
        }
        let lockfree = canonical(
            ExperimentStore::load(&lockfree_path)
                .unwrap()
                .records()
                .to_vec(),
        );
        let mutex = canonical(
            ExperimentStore::load(&mutex_path)
                .unwrap()
                .records()
                .to_vec(),
        );
        assert_eq!(lockfree, mutex);
        assert_eq!(lockfree.len(), seeds.len());
        std::fs::remove_file(&lockfree_path).ok();
        std::fs::remove_file(&mutex_path).ok();
    }
}
