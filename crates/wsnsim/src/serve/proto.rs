//! The wire protocol of the experiment service: length-prefixed JSON
//! frames carrying a small, explicitly-typed message vocabulary.
//!
//! A frame is a `u32` little-endian payload length followed by that many
//! bytes of JSON text.  Every message is a JSON object with a `"type"`
//! field (the vendored serde derive has no `#[serde(tag)]`, so the
//! discriminator is explicit, exactly like the store's `caem_job_failure`
//! marker) and a `"seq"` field.  Requests carry a fresh sequence number and
//! their response echoes it; a retransmitted request reuses its number, so
//! duplicated or reordered frames are detected by comparing `seq` instead
//! of trusting transport ordering.  Fire-and-forget messages ([`Records`],
//! [`Heartbeat`]) carry `seq = 0`.
//!
//! Everything here is total: torn frames, oversized lengths, malformed
//! JSON and unknown message types decode to a typed [`ProtoError`], never a
//! panic — the property the wire-protocol proptests pin down.
//!
//! [`Records`]: Message::Records
//! [`Heartbeat`]: Message::Heartbeat

use serde::Value;

use crate::experiment::ExperimentSpec;
use crate::persist::JobKey;

/// Protocol version spoken by this build.  A daemon rejects a worker whose
/// hello names any other version (exit 2 at the worker binary boundary).
/// Version 2 grants carry the grid's resolved spec plus job keys instead
/// of fully resolved jobs.
pub const PROTOCOL_VERSION: u64 = 2;

/// Upper bound on a frame's payload length.  A length prefix beyond this is
/// treated as garbage (a desynchronized or hostile peer), not an allocation
/// request.
pub const MAX_FRAME_BYTES: usize = 32 * 1024 * 1024;

/// Errors raised by the frame codec and message decoder.
#[derive(Debug)]
pub enum ProtoError {
    /// The peer closed the connection at a frame boundary.
    Closed,
    /// Transport failure.
    Io(std::io::Error),
    /// The stream ended inside a frame (a torn frame).
    Torn {
        /// Bytes of the whole frame: the 4-byte header plus the payload
        /// length it promises (4 when the header itself is cut).
        expected: usize,
        /// Bytes of the frame actually received.
        got: usize,
    },
    /// A frame header names a payload longer than [`MAX_FRAME_BYTES`].
    Oversize {
        /// The advertised payload length.
        len: usize,
    },
    /// A frame's payload is not a well-formed message.
    Malformed(String),
    /// The peer rejected this endpoint (handshake refused).
    Rejected(String),
    /// A request was retransmitted past its retry budget with no response.
    NoResponse(&'static str),
    /// A grant's spec does not hash to the grid the grant names; the
    /// worker refuses it before running anything.
    GridMismatch {
        /// The grid hash the grant names.
        grid: u64,
        /// What the grant's spec actually hashes to.
        spec: u64,
    },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Closed => write!(f, "connection closed by peer"),
            ProtoError::Io(e) => write!(f, "transport error: {e}"),
            ProtoError::Torn { expected, got } => {
                write!(f, "torn frame: {got} of {expected} bytes")
            }
            ProtoError::Oversize { len } => {
                write!(
                    f,
                    "frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"
                )
            }
            ProtoError::Malformed(m) => write!(f, "malformed frame: {m}"),
            ProtoError::Rejected(reason) => write!(f, "rejected by peer: {reason}"),
            ProtoError::NoResponse(what) => {
                write!(f, "no response to {what} within the retry budget")
            }
            ProtoError::GridMismatch { grid, spec } => write!(
                f,
                "grant for grid {grid:016x} carries a spec hashing to {spec:016x}"
            ),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Prefix `payload` with its `u32` little-endian length.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Pop one length-prefixed frame off the front of `buffer`, the bytes
/// received so far; `eof` says the stream has ended and no more will come.
///
/// A whole buffered frame is drained and its payload returned.  Without
/// one, the result is `Ok(None)` while more bytes may arrive; at EOF an
/// empty buffer is [`ProtoError::Closed`] and a partial frame is
/// [`ProtoError::Torn`], whose `expected` counts the header plus the
/// payload it promises (just the 4 header bytes if the header itself is
/// cut).  A length prefix beyond [`MAX_FRAME_BYTES`] is
/// [`ProtoError::Oversize`] as soon as the header is complete, before any
/// payload is buffered.
pub fn decode_frame(buffer: &mut Vec<u8>, eof: bool) -> Result<Option<Vec<u8>>, ProtoError> {
    let expected = match buffer.first_chunk::<4>() {
        Some(header) => {
            let len = u32::from_le_bytes(*header) as usize;
            if len > MAX_FRAME_BYTES {
                return Err(ProtoError::Oversize { len });
            }
            4 + len
        }
        None => 4,
    };
    if buffer.len() >= expected {
        let payload = buffer[4..expected].to_vec();
        buffer.drain(..expected);
        return Ok(Some(payload));
    }
    match (eof, buffer.len()) {
        (false, _) => Ok(None),
        (true, 0) => Err(ProtoError::Closed),
        (true, got) => Err(ProtoError::Torn { expected, got }),
    }
}

/// Progress of the grid a [`Message::StatusReply`] describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridProgress {
    /// The grid's display name.
    pub name: String,
    /// Total jobs in the grid.
    pub jobs: u64,
    /// Jobs settled so far (success records plus quarantines).
    pub settled: u64,
    /// Jobs settled in quarantine.
    pub quarantined: u64,
    /// Shards completed so far.
    pub shards_done: u64,
    /// Total shards of the grid.
    pub shard_count: u64,
}

/// Every message of the experiment-service protocol.
///
/// No `PartialEq`: a grant's [`ExperimentSpec`] carries full scenario configs
/// (floats, no equality). Round-trip tests compare re-encoded bytes
/// instead, which is stronger anyway.
#[derive(Debug, Clone)]
pub enum Message {
    /// Worker handshake: protocol version, identity, rayon thread share and
    /// an optional pinned grid hash (refused if the daemon's active grid
    /// differs — the CI grid-hash-mismatch negative check).
    Hello {
        /// Request sequence number.
        seq: u64,
        /// Protocol version the worker speaks.
        protocol: u64,
        /// The worker's display label.
        worker: String,
        /// Rayon threads the worker will use.
        threads: u64,
        /// Require the daemon's active grid to carry this grid hash.
        expect_hash: Option<u64>,
    },
    /// Handshake accepted; carries the daemon's lease tuning.
    HelloAck {
        /// Echoed request sequence number.
        seq: u64,
        /// Heartbeat interval the worker should honour, in milliseconds.
        heartbeat_ms: u64,
        /// Lease TTL after which a silent worker is evicted, in milliseconds.
        lease_ttl_ms: u64,
    },
    /// Handshake refused (version skew or grid-hash mismatch); the
    /// worker binary exits 2.
    Reject {
        /// Echoed request sequence number.
        seq: u64,
        /// Why the worker was refused.
        reason: String,
    },
    /// Worker asks for a shard.
    Claim {
        /// Request sequence number.
        seq: u64,
    },
    /// A shard granted to the claiming worker: the grid's resolved spec
    /// plus the keys of the shard's still-pending jobs (socket workers have
    /// no shared filesystem to read a grid from).  The worker checks
    /// that `spec` hashes to `grid`, then rebuilds each job from its key.
    Grant {
        /// Echoed request sequence number.
        seq: u64,
        /// Hash of the grid the shard belongs to
        /// ([`ExperimentSpec::hash`] of `spec`).
        grid: u64,
        /// The granted shard index.
        shard: u64,
        /// The grid's resolved spec.
        spec: ExperimentSpec,
        /// The shard's unsettled jobs, as (scenario, policy, seed) keys.
        jobs: Vec<JobKey>,
    },
    /// Nothing to grant right now; retry after the given delay.
    NoWork {
        /// Echoed request sequence number.
        seq: u64,
        /// Suggested delay before the next claim, in milliseconds.
        retry_ms: u64,
    },
    /// A batch of completed-job JSONL lines (at most ~64 KiB, coalesced by
    /// the worker).
    /// Fire-and-forget: losses are reconciled by the [`Message::ShardDone`]
    /// line count.
    Records {
        /// Hash of the grid the lines belong to.
        grid: u64,
        /// The shard the lines settle jobs of.
        shard: u64,
        /// Encoded store lines (no trailing newlines).
        lines: Vec<String>,
    },
    /// Keep-alive for a long-running shard (fire-and-forget).
    Heartbeat {
        /// Hash of the grid being worked.
        grid: u64,
        /// The shard being worked.
        shard: u64,
    },
    /// All of a shard's granted jobs are settled and their lines sent.
    ShardDone {
        /// Request sequence number.
        seq: u64,
        /// Hash of the grid.
        grid: u64,
        /// The completed shard.
        shard: u64,
        /// Lines this worker sent for the shard (the reconciliation count).
        sent: u64,
    },
    /// Shard completion acknowledged; the worker may drop its retained
    /// lines.
    DoneAck {
        /// Echoed request sequence number.
        seq: u64,
    },
    /// The daemon received fewer lines than the worker sent (dropped
    /// frames); the worker must resend its retained lines.
    DoneNack {
        /// Echoed request sequence number.
        seq: u64,
        /// Lines the daemon actually decoded for the shard.
        received: u64,
    },
    /// Graceful-shutdown release of an unfinished shard: the daemon
    /// re-grants it to the next claimer immediately, no TTL wait.
    Release {
        /// Request sequence number.
        seq: u64,
        /// Hash of the grid.
        grid: u64,
        /// The shard being handed back.
        shard: u64,
    },
    /// Release acknowledged.
    ReleaseAck {
        /// Echoed request sequence number.
        seq: u64,
    },
    /// Client submits a grid: the spec document text plus the resolve
    /// inputs ([`crate::spec::GridSpec::resolve`]'s `default_seed` and
    /// `quick`), validated daemon-side through the typed
    /// [`crate::config::ConfigError`] path.
    Submit {
        /// Request sequence number.
        seq: u64,
        /// The grid-spec document text.
        spec: String,
        /// Resolve in quick mode.
        quick: bool,
        /// Default seed when the document pins no `base_seed`.
        seed: u64,
    },
    /// Submission accepted and queued.
    SubmitAck {
        /// Echoed request sequence number.
        seq: u64,
        /// Grid hash identifying the queued grid.
        grid: u64,
        /// The grid's display name.
        name: String,
        /// Total jobs the grid enumerates to.
        jobs: u64,
    },
    /// Submission refused (spec parse/validation failure, rendered from
    /// the typed error); the client binary exits 2.
    SubmitErr {
        /// Echoed request sequence number.
        seq: u64,
        /// The rendered [`crate::config::ConfigError`].
        reason: String,
    },
    /// Client asks for service progress.
    Status {
        /// Request sequence number.
        seq: u64,
    },
    /// Service progress: queue depth, active-grid progress, worker count
    /// and the counted [`crate::faults::RunEvent`] summary.
    StatusReply {
        /// Echoed request sequence number.
        seq: u64,
        /// Grids queued behind the active one.
        queued: u64,
        /// Progress of the grid currently being worked, if any.
        active: Option<GridProgress>,
        /// Grids completed so far.
        completed: u64,
        /// Workers currently registered.
        workers: u64,
        /// [`crate::faults::event_summary`] of the daemon process.
        events: Option<String>,
    },
    /// Client asks for the most recent completed report.
    Fetch {
        /// Request sequence number.
        seq: u64,
    },
    /// The report, pre-rendered daemon-side with the canonical
    /// `to_string_pretty(report.to_json())` so the client writes the exact
    /// bytes a single-process run would (no client-side float re-rendering).
    FetchReply {
        /// Echoed request sequence number.
        seq: u64,
        /// Whether a completed report exists yet.
        ready: bool,
        /// The rendered report text (empty until `ready`).
        report: String,
    },
}

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl Message {
    /// The message's `"type"` discriminator.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Hello { .. } => "hello",
            Message::HelloAck { .. } => "hello_ack",
            Message::Reject { .. } => "reject",
            Message::Claim { .. } => "claim",
            Message::Grant { .. } => "grant",
            Message::NoWork { .. } => "no_work",
            Message::Records { .. } => "records",
            Message::Heartbeat { .. } => "heartbeat",
            Message::ShardDone { .. } => "shard_done",
            Message::DoneAck { .. } => "done_ack",
            Message::DoneNack { .. } => "done_nack",
            Message::Release { .. } => "release",
            Message::ReleaseAck { .. } => "release_ack",
            Message::Submit { .. } => "submit",
            Message::SubmitAck { .. } => "submit_ack",
            Message::SubmitErr { .. } => "submit_err",
            Message::Status { .. } => "status",
            Message::StatusReply { .. } => "status_reply",
            Message::Fetch { .. } => "fetch",
            Message::FetchReply { .. } => "fetch_reply",
        }
    }

    /// The sequence number the message carries (0 for fire-and-forget).
    pub fn seq(&self) -> u64 {
        match *self {
            Message::Hello { seq, .. }
            | Message::HelloAck { seq, .. }
            | Message::Reject { seq, .. }
            | Message::Claim { seq }
            | Message::Grant { seq, .. }
            | Message::NoWork { seq, .. }
            | Message::ShardDone { seq, .. }
            | Message::DoneAck { seq }
            | Message::DoneNack { seq, .. }
            | Message::Release { seq, .. }
            | Message::ReleaseAck { seq }
            | Message::Submit { seq, .. }
            | Message::SubmitAck { seq, .. }
            | Message::SubmitErr { seq, .. }
            | Message::Status { seq }
            | Message::StatusReply { seq, .. }
            | Message::Fetch { seq }
            | Message::FetchReply { seq, .. } => seq,
            Message::Records { .. } | Message::Heartbeat { .. } => 0,
        }
    }

    /// Encode the message as a frame payload (JSON text bytes).
    pub fn encode(&self) -> Vec<u8> {
        let value = self.to_value();
        serde_json::to_string(&value)
            .expect("protocol messages always serialize")
            .into_bytes()
    }

    fn to_value(&self) -> Value {
        let mut entries: Vec<(&str, Value)> = vec![
            ("type", Value::Str(self.kind().to_string())),
            ("seq", Value::UInt(self.seq())),
        ];
        match self {
            Message::Hello {
                protocol,
                worker,
                threads,
                expect_hash,
                ..
            } => {
                entries.push(("protocol", Value::UInt(*protocol)));
                entries.push(("worker", Value::Str(worker.clone())));
                entries.push(("threads", Value::UInt(*threads)));
                if let Some(hash) = expect_hash {
                    entries.push(("expect_hash", Value::UInt(*hash)));
                }
            }
            Message::HelloAck {
                heartbeat_ms,
                lease_ttl_ms,
                ..
            } => {
                entries.push(("heartbeat_ms", Value::UInt(*heartbeat_ms)));
                entries.push(("lease_ttl_ms", Value::UInt(*lease_ttl_ms)));
            }
            Message::Reject { reason, .. } | Message::SubmitErr { reason, .. } => {
                entries.push(("reason", Value::Str(reason.clone())));
            }
            Message::Claim { .. }
            | Message::DoneAck { .. }
            | Message::ReleaseAck { .. }
            | Message::Status { .. }
            | Message::Fetch { .. } => {}
            Message::Grant {
                grid,
                shard,
                spec,
                jobs,
                ..
            } => {
                entries.push(("grid", Value::UInt(*grid)));
                entries.push(("shard", Value::UInt(*shard)));
                entries.push(("spec", spec.to_json()));
                let keys = jobs
                    .iter()
                    .map(|&(scenario, policy, seed)| {
                        Value::Seq(vec![
                            Value::UInt(scenario as u64),
                            Value::UInt(policy as u64),
                            Value::UInt(seed),
                        ])
                    })
                    .collect();
                entries.push(("jobs", Value::Seq(keys)));
            }
            Message::NoWork { retry_ms, .. } => {
                entries.push(("retry_ms", Value::UInt(*retry_ms)));
            }
            Message::Records { grid, shard, lines } => {
                entries.push(("grid", Value::UInt(*grid)));
                entries.push(("shard", Value::UInt(*shard)));
                entries.push((
                    "lines",
                    Value::Seq(lines.iter().map(|l| Value::Str(l.clone())).collect()),
                ));
            }
            Message::Heartbeat { grid, shard } => {
                entries.push(("grid", Value::UInt(*grid)));
                entries.push(("shard", Value::UInt(*shard)));
            }
            Message::ShardDone {
                grid, shard, sent, ..
            } => {
                entries.push(("grid", Value::UInt(*grid)));
                entries.push(("shard", Value::UInt(*shard)));
                entries.push(("sent", Value::UInt(*sent)));
            }
            Message::DoneNack { received, .. } => {
                entries.push(("received", Value::UInt(*received)));
            }
            Message::Release { grid, shard, .. } => {
                entries.push(("grid", Value::UInt(*grid)));
                entries.push(("shard", Value::UInt(*shard)));
            }
            Message::Submit {
                spec, quick, seed, ..
            } => {
                entries.push(("spec", Value::Str(spec.clone())));
                entries.push(("quick", Value::Bool(*quick)));
                entries.push(("seed", Value::UInt(*seed)));
            }
            Message::SubmitAck {
                grid, name, jobs, ..
            } => {
                entries.push(("grid", Value::UInt(*grid)));
                entries.push(("name", Value::Str(name.clone())));
                entries.push(("jobs", Value::UInt(*jobs)));
            }
            Message::StatusReply {
                queued,
                active,
                completed,
                workers,
                events,
                ..
            } => {
                entries.push(("queued", Value::UInt(*queued)));
                if let Some(p) = active {
                    entries.push((
                        "active",
                        map(vec![
                            ("name", Value::Str(p.name.clone())),
                            ("jobs", Value::UInt(p.jobs)),
                            ("settled", Value::UInt(p.settled)),
                            ("quarantined", Value::UInt(p.quarantined)),
                            ("shards_done", Value::UInt(p.shards_done)),
                            ("shard_count", Value::UInt(p.shard_count)),
                        ]),
                    ));
                }
                entries.push(("completed", Value::UInt(*completed)));
                entries.push(("workers", Value::UInt(*workers)));
                if let Some(text) = events {
                    entries.push(("events", Value::Str(text.clone())));
                }
            }
            Message::FetchReply { ready, report, .. } => {
                entries.push(("ready", Value::Bool(*ready)));
                entries.push(("report", Value::Str(report.clone())));
            }
        }
        map(entries)
    }

    /// Decode a frame payload.  Any malformation — bad JSON, a missing or
    /// mistyped field, an unknown `"type"` — is a typed
    /// [`ProtoError::Malformed`], never a panic.
    pub fn decode(payload: &[u8]) -> Result<Message, ProtoError> {
        let text = std::str::from_utf8(payload)
            .map_err(|_| ProtoError::Malformed("frame payload is not UTF-8".into()))?;
        let value =
            serde_json::parse(text).map_err(|e| ProtoError::Malformed(format!("bad JSON: {e}")))?;
        let kind = str_field(&value, "type")?;
        let seq = uint_field(&value, "seq")?;
        let msg = match kind.as_str() {
            "hello" => Message::Hello {
                seq,
                protocol: uint_field(&value, "protocol")?,
                worker: str_field(&value, "worker")?,
                threads: uint_field(&value, "threads")?,
                expect_hash: opt_uint_field(&value, "expect_hash")?,
            },
            "hello_ack" => Message::HelloAck {
                seq,
                heartbeat_ms: uint_field(&value, "heartbeat_ms")?,
                lease_ttl_ms: uint_field(&value, "lease_ttl_ms")?,
            },
            "reject" => Message::Reject {
                seq,
                reason: str_field(&value, "reason")?,
            },
            "claim" => Message::Claim { seq },
            "grant" => {
                let spec = value
                    .get("spec")
                    .ok_or_else(|| "missing".to_string())
                    .and_then(ExperimentSpec::from_json)
                    .map_err(|e| ProtoError::Malformed(format!("undecodable grant spec: {e}")))?;
                let jobs = match value.get("jobs") {
                    Some(Value::Seq(items)) => {
                        items.iter().map(job_key).collect::<Result<Vec<_>, _>>()?
                    }
                    _ => return Err(ProtoError::Malformed("grant without a jobs list".into())),
                };
                Message::Grant {
                    seq,
                    grid: uint_field(&value, "grid")?,
                    shard: uint_field(&value, "shard")?,
                    spec,
                    jobs,
                }
            }
            "no_work" => Message::NoWork {
                seq,
                retry_ms: uint_field(&value, "retry_ms")?,
            },
            "records" => {
                let lines = match value.get("lines") {
                    Some(Value::Seq(items)) => items
                        .iter()
                        .map(|item| {
                            item.as_str().map(str::to_string).ok_or_else(|| {
                                ProtoError::Malformed("non-string record line".into())
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    _ => return Err(ProtoError::Malformed("records without lines".into())),
                };
                Message::Records {
                    grid: uint_field(&value, "grid")?,
                    shard: uint_field(&value, "shard")?,
                    lines,
                }
            }
            "heartbeat" => Message::Heartbeat {
                grid: uint_field(&value, "grid")?,
                shard: uint_field(&value, "shard")?,
            },
            "shard_done" => Message::ShardDone {
                seq,
                grid: uint_field(&value, "grid")?,
                shard: uint_field(&value, "shard")?,
                sent: uint_field(&value, "sent")?,
            },
            "done_ack" => Message::DoneAck { seq },
            "done_nack" => Message::DoneNack {
                seq,
                received: uint_field(&value, "received")?,
            },
            "release" => Message::Release {
                seq,
                grid: uint_field(&value, "grid")?,
                shard: uint_field(&value, "shard")?,
            },
            "release_ack" => Message::ReleaseAck { seq },
            "submit" => Message::Submit {
                seq,
                spec: str_field(&value, "spec")?,
                quick: bool_field(&value, "quick")?,
                seed: uint_field(&value, "seed")?,
            },
            "submit_ack" => Message::SubmitAck {
                seq,
                grid: uint_field(&value, "grid")?,
                name: str_field(&value, "name")?,
                jobs: uint_field(&value, "jobs")?,
            },
            "submit_err" => Message::SubmitErr {
                seq,
                reason: str_field(&value, "reason")?,
            },
            "status" => Message::Status { seq },
            "status_reply" => {
                let active = match value.get("active") {
                    None | Some(Value::Null) => None,
                    Some(progress) => Some(GridProgress {
                        name: str_field(progress, "name")?,
                        jobs: uint_field(progress, "jobs")?,
                        settled: uint_field(progress, "settled")?,
                        quarantined: uint_field(progress, "quarantined")?,
                        shards_done: uint_field(progress, "shards_done")?,
                        shard_count: uint_field(progress, "shard_count")?,
                    }),
                };
                Message::StatusReply {
                    seq,
                    queued: uint_field(&value, "queued")?,
                    active,
                    completed: uint_field(&value, "completed")?,
                    workers: uint_field(&value, "workers")?,
                    events: match value.get("events") {
                        None | Some(Value::Null) => None,
                        Some(v) => Some(
                            v.as_str()
                                .map(str::to_string)
                                .ok_or_else(|| ProtoError::Malformed("non-string events".into()))?,
                        ),
                    },
                }
            }
            "fetch" => Message::Fetch { seq },
            "fetch_reply" => Message::FetchReply {
                seq,
                ready: bool_field(&value, "ready")?,
                report: str_field(&value, "report")?,
            },
            other => {
                return Err(ProtoError::Malformed(format!(
                    "unknown message type `{other}`"
                )))
            }
        };
        Ok(msg)
    }
}

/// A grant's `[scenario, policy, seed]` job key.
fn job_key(item: &Value) -> Result<JobKey, ProtoError> {
    if let Value::Seq(parts) = item {
        if let [Some(scenario), Some(policy), Some(seed)] =
            parts.iter().map(Value::as_u64).collect::<Vec<_>>()[..]
        {
            if let (Ok(scenario), Ok(policy)) = (scenario.try_into(), policy.try_into()) {
                return Ok((scenario, policy, seed));
            }
        }
    }
    Err(ProtoError::Malformed(
        "grant job key is not a [scenario, policy, seed] triple".into(),
    ))
}

fn uint_field(value: &Value, name: &str) -> Result<u64, ProtoError> {
    value
        .get(name)
        .and_then(Value::as_u64)
        .ok_or_else(|| ProtoError::Malformed(format!("missing or non-integer `{name}`")))
}

fn opt_uint_field(value: &Value, name: &str) -> Result<Option<u64>, ProtoError> {
    match value.get(name) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| ProtoError::Malformed(format!("non-integer `{name}`"))),
    }
}

fn str_field(value: &Value, name: &str) -> Result<String, ProtoError> {
    value
        .get(name)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| ProtoError::Malformed(format!("missing or non-string `{name}`")))
}

fn bool_field(value: &Value, name: &str) -> Result<bool, ProtoError> {
    match value.get(name) {
        Some(Value::Bool(b)) => Ok(*b),
        _ => Err(ProtoError::Malformed(format!(
            "missing or non-boolean `{name}`"
        ))),
    }
}
