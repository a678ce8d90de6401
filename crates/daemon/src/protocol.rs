//! The wire protocol: line-delimited JSON over a Unix domain socket.
//!
//! One request per line, one response line per request, in order. The
//! payload types all derive the workspace serde, so a `JobSpec` travels
//! the socket in exactly the format `gurita_workload::trace` uses on
//! disk. Unknown commands produce an `ok: false` response rather than
//! closing the connection, so clients can be newer than the daemon.
//!
//! ```text
//! -> {"cmd":"submit","name":"etl","depends_on":["ingest"],"job":{...}}
//! <- {"ok":true,"job":{"name":"etl","id":1,"state":"held",...}}
//! -> {"cmd":"queue"}
//! <- {"ok":true,"jobs":[{...},{...}]}
//! -> {"cmd":"drain"}
//! <- {"ok":true,"stats":{...,"drained":true}}
//! ```

use gurita_model::JobSpec;
use serde::{Deserialize, Serialize};
use std::io::{self, BufRead, Read, Write};

/// A client request. `cmd` selects the operation; the remaining fields
/// are operation-specific and default to empty.
///
/// Commands: `submit` (requires `name` + `job`, optional `depends_on`),
/// `status` (`name`), `queue`, `cancel` (`name`), `stats`, `metrics`,
/// `ping`, `drain`, `shutdown`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Operation selector.
    pub cmd: String,
    /// Job name (submit/status/cancel). Names are the client-facing
    /// handle; the daemon assigns the numeric engine id.
    #[serde(default)]
    pub name: Option<String>,
    /// Names of jobs that must complete before this one is admitted.
    #[serde(default)]
    pub depends_on: Vec<String>,
    /// The job DAG to run (submit). The daemon assigns its id. Its
    /// arrival is honoured if it lies in the future at admission and
    /// clamped to the current virtual time otherwise.
    #[serde(default)]
    pub job: Option<JobSpec>,
}

impl Request {
    /// A bare command with no operands (`queue`, `stats`, `ping`,
    /// `drain`, `shutdown`).
    pub fn bare(cmd: &str) -> Self {
        Self {
            cmd: cmd.to_string(),
            name: None,
            depends_on: Vec::new(),
            job: None,
        }
    }

    /// A command addressing one job by name (`status`, `cancel`).
    pub fn named(cmd: &str, name: &str) -> Self {
        Self {
            cmd: cmd.to_string(),
            name: Some(name.to_string()),
            depends_on: Vec::new(),
            job: None,
        }
    }
}

/// Client-visible snapshot of one job in the daemon's registry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobView {
    /// Client-assigned name.
    pub name: String,
    /// Daemon-assigned dense id (the engine's `JobId` index).
    pub id: usize,
    /// Lifecycle state: `held` (waiting on dependencies), `queued`
    /// (admitted, arrival pending), `running`, `done`, or `cancelled`.
    pub state: String,
    /// Names this job waits on.
    #[serde(default)]
    pub depends_on: Vec<String>,
    /// Coflows completed so far (running jobs; totals for done ones).
    #[serde(default)]
    pub completed_coflows: usize,
    /// Total coflows in the job's DAG.
    #[serde(default)]
    pub total_coflows: usize,
    /// Virtual time of admission into the engine (absent while held).
    #[serde(default)]
    pub admitted_at: Option<f64>,
    /// Virtual completion time (done jobs only).
    #[serde(default)]
    pub completed_at: Option<f64>,
}

/// Daemon-level counters returned by `stats` and `drain`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DaemonStats {
    /// Current virtual time of the simulation clock.
    pub vtime: f64,
    /// Events processed by the engine.
    pub events: u64,
    /// Flows currently in flight.
    pub open_flows: usize,
    /// Coflows currently active.
    pub open_coflows: usize,
    /// Events pending in the engine's event queue.
    pub pending_events: usize,
    /// Jobs by registry state.
    pub jobs_held: usize,
    /// Jobs admitted whose arrival has not fired yet.
    pub jobs_queued: usize,
    /// Jobs actively moving bytes.
    pub jobs_running: usize,
    /// Jobs completed.
    pub jobs_done: usize,
    /// Jobs cancelled (directly or by a cancelled ancestor).
    pub jobs_cancelled: usize,
    /// Whether the engine is drained (no outstanding work).
    pub drained: bool,
    /// Final makespan — populated on the `drain` response only.
    #[serde(default)]
    pub makespan: Option<f64>,
    /// Average JCT across completed jobs — `drain` response only.
    #[serde(default)]
    pub avg_jct: Option<f64>,
}

/// A response line. `ok: false` carries `error`; payload fields are
/// populated per command.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Whether the request succeeded.
    pub ok: bool,
    /// Failure description when `ok` is false.
    #[serde(default)]
    pub error: Option<String>,
    /// The addressed job (submit/status).
    #[serde(default)]
    pub job: Option<JobView>,
    /// All registry jobs in submission order (queue).
    #[serde(default)]
    pub jobs: Option<Vec<JobView>>,
    /// Daemon counters (stats/drain).
    #[serde(default)]
    pub stats: Option<DaemonStats>,
    /// Full live-metrics snapshot (`metrics`): every registered family
    /// with its series, histogram buckets included. `gctl top` renders
    /// percentiles from this; the HTTP listener encodes the same
    /// snapshot as Prometheus text.
    #[serde(default)]
    pub metrics: Option<gurita_metrics::RegistrySnapshot>,
}

impl Response {
    /// A bare success.
    pub fn ok() -> Self {
        Self {
            ok: true,
            ..Self::default()
        }
    }

    /// A failure with a message.
    pub fn err(msg: impl Into<String>) -> Self {
        Self {
            ok: false,
            error: Some(msg.into()),
            ..Self::default()
        }
    }
}

/// Serializes `msg` as one JSON line and flushes it.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_line<T: Serialize, W: Write>(w: &mut W, msg: &T) -> io::Result<()> {
    let mut line = serde_json::to_string(msg)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("serialize: {e}")))?;
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// Largest frame [`read_line`] accepts: one JSON line of at most this
/// many bytes, not counting its newline. The cap keeps one peer from
/// growing the reader's buffer without bound. It sits far above the
/// frames in use: perfbench's `submit` frames average 1.8–5.5 KB.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Reads one JSON line into `T`. Returns `Ok(None)` at end of stream
/// (peer closed), `Err` on I/O failure, malformed JSON or a line longer
/// than [`MAX_FRAME_BYTES`].
///
/// # Errors
///
/// I/O errors from the reader; `InvalidData` for unparseable or
/// oversized lines.
pub fn read_line<T: Deserialize, R: BufRead>(r: &mut R) -> io::Result<Option<T>> {
    let mut line = String::new();
    loop {
        line.clear();
        let read = (&mut *r)
            .take(MAX_FRAME_BYTES as u64 + 1)
            .read_line(&mut line)?;
        if read == 0 {
            return Ok(None);
        }
        if read > MAX_FRAME_BYTES && !line.ends_with('\n') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame longer than {MAX_FRAME_BYTES} bytes"),
            ));
        }
        if line.trim().is_empty() {
            continue; // tolerate blank keep-alive lines
        }
        return serde_json::from_str(line.trim())
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad line: {e}")));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gurita_model::{CoflowSpec, FlowSpec, HostId, JobDag};

    fn job() -> JobSpec {
        JobSpec::new(
            0,
            0.0,
            vec![CoflowSpec::new(vec![FlowSpec::new(
                HostId(0),
                HostId(1),
                1e6,
            )])],
            JobDag::chain(1).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn request_roundtrips_through_a_line() {
        let req = Request {
            cmd: "submit".into(),
            name: Some("etl".into()),
            depends_on: vec!["ingest".into()],
            job: Some(job()),
        };
        let mut buf = Vec::new();
        write_line(&mut buf, &req).unwrap();
        assert!(buf.ends_with(b"\n"));
        let back: Request = read_line(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(req, back);
    }

    #[test]
    fn bare_requests_omit_fields_gracefully() {
        // A minimal hand-written line must parse: defaults fill in.
        let line = b"{\"cmd\":\"queue\"}\n".to_vec();
        let req: Request = read_line(&mut line.as_slice()).unwrap().unwrap();
        assert_eq!(req, Request::bare("queue"));
    }

    #[test]
    fn response_roundtrips() {
        let resp = Response {
            ok: true,
            error: None,
            job: Some(JobView {
                name: "a".into(),
                id: 3,
                state: "running".into(),
                depends_on: vec![],
                completed_coflows: 1,
                total_coflows: 4,
                admitted_at: Some(0.5),
                completed_at: None,
            }),
            jobs: None,
            stats: Some(DaemonStats::default()),
            metrics: None,
        };
        let mut buf = Vec::new();
        write_line(&mut buf, &resp).unwrap();
        let back: Response = read_line(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(resp, back);
    }

    /// A valid request padded to `len` bytes, plus its newline.
    fn padded_ping(len: usize) -> Vec<u8> {
        let mut frame = b"{\"cmd\":\"ping\"}".to_vec();
        frame.resize(len, b' ');
        frame.push(b'\n');
        frame
    }

    #[test]
    fn frames_over_the_cap_are_invalid_data() {
        let at_cap = padded_ping(MAX_FRAME_BYTES);
        let req: Request = read_line(&mut at_cap.as_slice()).unwrap().unwrap();
        assert_eq!(req, Request::bare("ping"));
        let over = padded_ping(MAX_FRAME_BYTES + 1);
        let err = read_line::<Request, _>(&mut over.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn end_of_stream_is_none_and_garbage_is_invalid_data() {
        let empty: io::Result<Option<Request>> = read_line(&mut (&b""[..]));
        assert!(matches!(empty, Ok(None)));
        let garbage: io::Result<Option<Request>> = read_line(&mut (&b"not json\n"[..]));
        assert_eq!(garbage.unwrap_err().kind(), io::ErrorKind::InvalidData);
    }
}
