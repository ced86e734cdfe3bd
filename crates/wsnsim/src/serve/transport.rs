//! Frame transports: a buffered TCP link for real sockets and an
//! in-memory loopback link for deterministic tests.
//!
//! Both implement [`FrameLink`] — send/receive whole frames with an
//! optional receive timeout.  The TCP link reads incrementally into an
//! internal buffer (never `read_exact`) and pops frames off it with
//! [`decode_frame`], so a timeout that fires mid-frame keeps the partial
//! bytes and stays byte-synchronized; EOF inside a frame is a typed
//! [`ProtoError::Torn`].  The loopback link carries discrete
//! frames over channels and is the only place frame faults are injected,
//! by a link built under a [`FaultPlan`]: dropping, duplicating, delaying
//! or truncating frames there exercises the protocol's recovery paths
//! without desynchronizing a real byte stream.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

use crate::faults::{self, FaultPlan, FrameFault, RunEvent};

use super::proto::{decode_frame, encode_frame, ProtoError};

/// A bidirectional frame pipe.  `recv` returns `Ok(None)` on timeout and
/// [`ProtoError::Closed`] once the peer has hung up at a frame boundary.
pub trait FrameLink: Send {
    /// Send one frame payload.
    fn send(&mut self, payload: &[u8]) -> Result<(), ProtoError>;
    /// Receive the next frame payload, waiting at most `timeout`
    /// (indefinitely when `None`).
    fn recv(&mut self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>, ProtoError>;
}

/// [`FrameLink`] over a TCP stream with an internal reassembly buffer.
pub struct TcpLink {
    stream: TcpStream,
    buffer: Vec<u8>,
    eof: bool,
}

impl TcpLink {
    /// Wrap a connected stream.
    pub fn new(stream: TcpStream) -> Self {
        TcpLink {
            stream,
            buffer: Vec::new(),
            eof: false,
        }
    }
}

impl FrameLink for TcpLink {
    fn send(&mut self, payload: &[u8]) -> Result<(), ProtoError> {
        let frame = encode_frame(payload);
        self.stream.write_all(&frame)?;
        self.stream.flush()?;
        Ok(())
    }

    fn recv(&mut self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>, ProtoError> {
        loop {
            // At EOF the decoder yields a frame or an error, never `None`.
            if let Some(frame) = decode_frame(&mut self.buffer, self.eof)? {
                return Ok(Some(frame));
            }
            self.stream.set_read_timeout(timeout)?;
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => self.eof = true,
                Ok(n) => self.buffer.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(ProtoError::Io(e)),
            }
        }
    }
}

/// In-memory [`FrameLink`]: crossed channels of discrete frames.  A link
/// built under a [`FaultPlan`] (how a
/// [`LoopbackSpawner`](super::LoopbackSpawner) given one wires its
/// workers) consults that plan on every send and may drop, duplicate,
/// delay or truncate the frame — the deterministic stand-in for a lossy
/// network.  A link without a plan, such as [`loopback_pair`]'s, delivers
/// every frame intact.
pub struct LoopbackLink {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    faults: Option<Arc<FaultPlan>>,
}

impl FrameLink for LoopbackLink {
    fn send(&mut self, payload: &[u8]) -> Result<(), ProtoError> {
        let frame = match self.faults.as_ref().and_then(|plan| plan.frame_fault()) {
            None => payload,
            Some(FrameFault::Drop) => return Ok(()),
            Some(FrameFault::Duplicate) => {
                self.tx
                    .send(payload.to_vec())
                    .map_err(|_| ProtoError::Closed)?;
                payload
            }
            Some(FrameFault::Delay(d)) => {
                std::thread::sleep(d);
                payload
            }
            Some(FrameFault::Truncate) => &payload[..payload.len() / 2],
        };
        self.tx.send(frame.to_vec()).map_err(|_| ProtoError::Closed)
    }

    fn recv(&mut self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>, ProtoError> {
        match timeout {
            Some(t) => match self.rx.recv_timeout(t) {
                Ok(frame) => Ok(Some(frame)),
                Err(RecvTimeoutError::Timeout) => Ok(None),
                Err(RecvTimeoutError::Disconnected) => Err(ProtoError::Closed),
            },
            None => self.rx.recv().map(Some).map_err(|_| ProtoError::Closed),
        }
    }
}

/// Build a connected pair of loopback links (client end, server end).
pub fn loopback_pair() -> (LoopbackLink, LoopbackLink) {
    faulted_pair(None)
}

/// [`loopback_pair`] with both ends sending under `faults`.
pub(super) fn faulted_pair(faults: Option<Arc<FaultPlan>>) -> (LoopbackLink, LoopbackLink) {
    let (a_tx, a_rx) = mpsc::channel();
    let (b_tx, b_rx) = mpsc::channel();
    (
        LoopbackLink {
            tx: a_tx,
            rx: b_rx,
            faults: faults.clone(),
        },
        LoopbackLink {
            tx: b_tx,
            rx: a_rx,
            faults,
        },
    )
}

/// How long a requester waits for its response before retransmitting.
const REQUEST_TIMEOUT: Duration = Duration::from_millis(400);

/// Retransmissions before a request is declared unanswerable.
const REQUEST_ATTEMPTS: usize = 25;

/// Send a request and wait for the response echoing its sequence number.
///
/// This is the sender half of the protocol's at-most-once discipline: on
/// timeout the *same* frame (same `seq`) is retransmitted — the receiver's
/// response cache makes re-execution impossible — and responses carrying a
/// stale sequence number or an undecodable payload are discarded while the
/// wait continues.  Every retransmission and discarded frame is noted as
/// [`RunEvent::FrameRetried`].
pub(crate) fn request(
    link: &mut dyn FrameLink,
    msg: &super::proto::Message,
    what: &'static str,
) -> Result<super::proto::Message, ProtoError> {
    use super::proto::Message;
    use std::time::Instant;
    let bytes = msg.encode();
    let seq = msg.seq();
    for attempt in 0..REQUEST_ATTEMPTS {
        if attempt > 0 {
            faults::note_event(RunEvent::FrameRetried);
        }
        link.send(&bytes)?;
        let deadline = Instant::now() + REQUEST_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            match link.recv(Some(left))? {
                None => break,
                Some(frame) => match Message::decode(&frame) {
                    Ok(response) if response.seq() == seq => return Ok(response),
                    Ok(_) | Err(_) => {
                        faults::note_event(RunEvent::FrameRetried);
                    }
                },
            }
        }
    }
    Err(ProtoError::NoResponse(what))
}
