//! Frame transports: a buffered TCP link for real sockets and an
//! in-memory loopback link for deterministic tests.
//!
//! Both implement [`FrameLink`] — send/receive whole frames with an
//! optional receive timeout — and both are reliable: every frame sent
//! arrives exactly once, in order, until the link closes.  The TCP link
//! reads incrementally into an internal buffer (never `read_exact`) and
//! pops frames off it with [`decode_frame`], so a timeout that fires
//! mid-frame keeps the partial bytes and stays byte-synchronized; EOF
//! inside a frame is a typed [`ProtoError::Torn`].  The loopback link
//! carries discrete frames over channels; one built under a [`FaultPlan`]
//! delays some of them, widening race windows, and never loses, repeats or
//! cuts one.  The protocol therefore needs no retransmission: a request is
//! sent once, and a peer that dies or hangs is handled end to end: the
//! daemon closes its connection and re-grants its leases.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

use crate::faults::FaultPlan;

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

/// A TCP error that means the peer is gone — it hung up, or its process
/// died and the kernel reset the connection — is [`ProtoError::Closed`],
/// the same as a hang-up seen at a frame boundary; anything else is
/// [`ProtoError::Io`].
fn tcp_error(e: std::io::Error) -> ProtoError {
    use std::io::ErrorKind::{BrokenPipe, ConnectionAborted, ConnectionReset};
    match e.kind() {
        BrokenPipe | ConnectionReset | ConnectionAborted => ProtoError::Closed,
        _ => ProtoError::Io(e),
    }
}

impl FrameLink for TcpLink {
    fn send(&mut self, payload: &[u8]) -> Result<(), ProtoError> {
        let frame = encode_frame(payload);
        self.stream.write_all(&frame).map_err(tcp_error)?;
        self.stream.flush().map_err(tcp_error)
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
                Err(e) => return Err(tcp_error(e)),
            }
        }
    }
}

/// In-memory [`FrameLink`]: crossed channels of discrete frames.  A link
/// built under a [`FaultPlan`] (how a
/// [`LoopbackSpawner`](super::LoopbackSpawner) given one wires its
/// workers) consults that plan on every send and may delay the frame by a
/// few milliseconds.  Every frame is delivered intact, in order.
pub struct LoopbackLink {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    faults: Option<Arc<FaultPlan>>,
}

impl FrameLink for LoopbackLink {
    fn send(&mut self, payload: &[u8]) -> Result<(), ProtoError> {
        if let Some(delay) = self.faults.as_ref().and_then(|plan| plan.frame_delay()) {
            std::thread::sleep(delay);
        }
        self.tx
            .send(payload.to_vec())
            .map_err(|_| ProtoError::Closed)
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

/// How long a requester waits for its response.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// Send a request once and wait up to [`REQUEST_TIMEOUT`] for its response.
///
/// The link is reliable and the peer answers requests in order, so the
/// next frame is the response: one that does not echo the request's
/// sequence number is [`ProtoError::Malformed`], like an undecodable one,
/// and silence past the timeout is [`ProtoError::NoResponse`].
pub(crate) fn request(
    link: &mut dyn FrameLink,
    msg: &super::proto::Message,
    what: &'static str,
) -> Result<super::proto::Message, ProtoError> {
    use super::proto::Message;
    link.send(&msg.encode())?;
    let frame = link
        .recv(Some(REQUEST_TIMEOUT))?
        .ok_or(ProtoError::NoResponse(what))?;
    let response = Message::decode(&frame)?;
    if response.seq() != msg.seq() {
        return Err(ProtoError::Malformed(format!(
            "{} with seq {} in response to {what} seq {}",
            response.kind(),
            response.seq(),
            msg.seq()
        )));
    }
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn a_peer_that_drops_the_connection_ends_sends_in_closed() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut link = TcpLink::new(TcpStream::connect(listener.local_addr().unwrap()).unwrap());
        drop(listener.accept().expect("accept"));
        // The first writes may still land in the kernel's buffer; once the
        // peer's reset arrives, every send must report the hang-up, never
        // a transport error.
        let payload = [7u8; 4096];
        let error = (0..1_000)
            .find_map(|_| {
                std::thread::sleep(Duration::from_millis(1));
                link.send(&payload).err()
            })
            .expect("a send to a dropped peer fails");
        assert!(matches!(error, ProtoError::Closed), "got {error:?}");
        assert!(matches!(link.send(&payload), Err(ProtoError::Closed)));
    }
}
