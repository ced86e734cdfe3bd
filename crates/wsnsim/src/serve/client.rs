//! Client-side operations against a running daemon: submit a grid spec,
//! poll service status, fetch the finished report.
//!
//! Clients speak the same seq-disciplined request/response protocol as
//! workers (see [`super::proto`]) but skip the handshake — submitting and
//! fetching are stateless one-shots, so there is no version or grid hash to
//! pin.  The fetched report arrives pre-rendered by the daemon; callers
//! write it out verbatim to stay byte-identical with a single-process run.

use std::time::{Duration, Instant};

use super::proto::{GridProgress, Message, ProtoError};
use super::transport::{request, FrameLink};

/// The pauses between report polls: 2 ms, doubling up to a 100 ms cap.  A
/// report that is nearly ready is fetched within milliseconds, and a long
/// grid is still polled at most ten times a second.
fn poll_pauses() -> impl Iterator<Item = Duration> {
    const FIRST: Duration = Duration::from_millis(2);
    const CAP: Duration = Duration::from_millis(100);
    std::iter::successors(Some(FIRST), |pause| Some((*pause * 2).min(CAP)))
}

/// A grid accepted by the daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submission {
    /// Grid hash identifying the queued grid (workers may pin it via
    /// `--expect-hash`).
    pub grid_hash: u64,
    /// The grid's display name.
    pub name: String,
    /// Total jobs the grid enumerates to.
    pub jobs: u64,
}

/// A snapshot of daemon progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceStatus {
    /// Grids queued behind the active one.
    pub queued: u64,
    /// Progress of the grid being worked, if any.
    pub active: Option<GridProgress>,
    /// Grids completed so far.
    pub completed: u64,
    /// Workers currently registered.
    pub workers: u64,
    /// The daemon's counted recovery-event summary, if any events fired.
    pub events: Option<String>,
}

/// A client session over one link, numbering its requests.
pub struct ServiceClient<'a> {
    link: &'a mut dyn FrameLink,
    seq: u64,
}

impl<'a> ServiceClient<'a> {
    /// Wrap a connected link.
    pub fn new(link: &'a mut dyn FrameLink) -> Self {
        ServiceClient { link, seq: 0 }
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Submit a grid-spec document.  A daemon-side validation failure (the
    /// rendered [`crate::config::ConfigError`]) surfaces as
    /// [`ProtoError::Rejected`].
    pub fn submit(&mut self, spec: &str, quick: bool, seed: u64) -> Result<Submission, ProtoError> {
        let msg = Message::Submit {
            seq: self.next_seq(),
            spec: spec.to_string(),
            quick,
            seed,
        };
        match request(self.link, &msg, "submit")? {
            Message::SubmitAck {
                grid, name, jobs, ..
            } => Ok(Submission {
                grid_hash: grid,
                name,
                jobs,
            }),
            Message::SubmitErr { reason, .. } => Err(ProtoError::Rejected(reason)),
            other => Err(ProtoError::Malformed(format!(
                "unexpected {} in response to submit",
                other.kind()
            ))),
        }
    }

    /// Ask the daemon where things stand.
    pub fn status(&mut self) -> Result<ServiceStatus, ProtoError> {
        let msg = Message::Status {
            seq: self.next_seq(),
        };
        match request(self.link, &msg, "status")? {
            Message::StatusReply {
                queued,
                active,
                completed,
                workers,
                events,
                ..
            } => Ok(ServiceStatus {
                queued,
                active,
                completed,
                workers,
                events,
            }),
            other => Err(ProtoError::Malformed(format!(
                "unexpected {} in response to status",
                other.kind()
            ))),
        }
    }

    /// Fetch the report of the most recently submitted grid, once that
    /// grid has completed: `None` while it (or any grid queued before it)
    /// is still open, or before any grid was submitted.  An older grid's
    /// report is never returned in its place.
    pub fn try_fetch(&mut self) -> Result<Option<String>, ProtoError> {
        let msg = Message::Fetch {
            seq: self.next_seq(),
        };
        match request(self.link, &msg, "fetch")? {
            Message::FetchReply { ready, report, .. } => {
                Ok(if ready { Some(report) } else { None })
            }
            other => Err(ProtoError::Malformed(format!(
                "unexpected {} in response to fetch",
                other.kind()
            ))),
        }
    }

    /// Poll [`ServiceClient::try_fetch`] until the most recently submitted
    /// grid's report is available or `timeout` elapses.
    pub fn fetch_report(&mut self, timeout: Duration) -> Result<String, ProtoError> {
        let deadline = Instant::now() + timeout;
        for pause in poll_pauses() {
            if let Some(report) = self.try_fetch()? {
                return Ok(report);
            }
            if Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(pause);
        }
        Err(ProtoError::NoResponse("fetch (no completed report)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_polls_back_off_from_2_ms_to_a_100_ms_cap() {
        let pauses: Vec<u128> = poll_pauses().take(9).map(|d| d.as_millis()).collect();
        assert_eq!(pauses, [2, 4, 8, 16, 32, 64, 100, 100, 100]);
    }
}
