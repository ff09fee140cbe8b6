//! A tiny blocking HTTP client for the service API.
//!
//! Used by the `dashlat submit`/`status` CLI subcommands, the bench
//! traffic driver, the torture harness, and the integration tests — the
//! same few lines of socket code everywhere, matching the server's
//! one-request-per-connection model. [`wait_terminal`] is the one way
//! they wait for a job to end.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use dashlat_sim::json::Value;

use crate::jobs::JobStatus;

/// Connect/read/write timeout of one request.
const TIMEOUT: Duration = Duration::from_secs(30);

/// The `wait` a job wait asks of each long poll: the daemon's own
/// ceiling.
const LONG_POLL_SECS: u64 = 30;

/// One parsed HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code (200, 429, ...).
    pub status: u16,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
}

impl HttpResponse {
    /// First header with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

/// Sends one request to `addr` and reads the full response. `body`
/// (when given) is sent as `application/json`. Connect/read/write all
/// carry a 30-second timeout, so a wedged daemon surfaces as an error.
///
/// # Errors
///
/// Connection, timeout, and malformed-response errors.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<HttpResponse> {
    request_within(addr, method, path, body, TIMEOUT)
}

fn request_within(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> io::Result<HttpResponse> {
    let sock_addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|e| bad(&format!("bad server address {addr:?}: {e}")))?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;

    let body = body.unwrap_or("");
    let extra = if body.is_empty() {
        String::new()
    } else {
        format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            body.len()
        )
    };
    stream.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\n{extra}Connection: close\r\n\r\n{body}"
        )
        .as_bytes(),
    )?;

    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad("response has no header/body separator"))?;
    let mut lines = head.lines();
    let status_line = lines.next().ok_or_else(|| bad("empty response"))?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_owned()))
        .collect();
    Ok(HttpResponse {
        status,
        headers,
        body: body.to_owned(),
    })
}

/// Waits until job `id` stops running and returns its status document:
/// complete, failed, cancelled, or interrupted by a daemon shutdown.
/// Between status reads it long-polls `GET /jobs/<id>/events`, which the
/// daemon answers on the job's next journal commit or on its end, so the
/// wait never sleeps. `deadline` bounds the wait (`None`: no bound).
///
/// # Errors
///
/// Connection and protocol errors, a status read that is not `200` or
/// not a status document, and `TimedOut` when the deadline passes with
/// the job still queued or running.
pub fn wait_terminal(addr: &str, id: u64, deadline: Option<Instant>) -> io::Result<Value> {
    follow_job(addr, id, deadline, |_| {})
}

/// [`wait_terminal`], calling `on_status` with every status document it
/// reads on the way, the last one included.
///
/// # Errors
///
/// As [`wait_terminal`].
pub fn follow_job(
    addr: &str,
    id: u64,
    deadline: Option<Instant>,
    mut on_status: impl FnMut(&Value),
) -> io::Result<Value> {
    let mut after = 0usize;
    loop {
        let resp = request(addr, "GET", &format!("/jobs/{id}"), None)?;
        if resp.status != 200 {
            return Err(bad(&format!(
                "GET /jobs/{id}: status {}: {}",
                resp.status,
                resp.body.trim()
            )));
        }
        let doc =
            Value::parse(&resp.body).map_err(|e| bad(&format!("bad status document: {e}")))?;
        on_status(&doc);
        let status: JobStatus = doc
            .get("status")
            .and_then(Value::as_str)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(&format!("no job status in {}", resp.body.trim())))?;
        if !matches!(status, JobStatus::Queued | JobStatus::Running) {
            return Ok(doc);
        }
        let wait = match deadline {
            None => LONG_POLL_SECS,
            Some(deadline) => {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("job #{id} still {} at the deadline", status.as_str()),
                    ));
                }
                // Rounded up, so that every poll waits.
                (left.as_secs() + u64::from(left.subsec_nanos() > 0)).min(LONG_POLL_SECS)
            }
        };
        let events = request_within(
            addr,
            "GET",
            &format!("/jobs/{id}/events?after={after}&wait={wait}"),
            None,
            TIMEOUT + Duration::from_secs(wait),
        )?;
        // A 404 is a poll that ended with no journal to return: the job
        // has none (yet, or at all, as chaos and verify jobs).
        if !matches!(events.status, 200 | 404) {
            return Err(bad(&format!(
                "GET /jobs/{id}/events: status {}: {}",
                events.status,
                events.body.trim()
            )));
        }
        if let Some(next) = events.header("x-events-next").and_then(|n| n.parse().ok()) {
            after = after.max(next);
        }
    }
}

/// Reads the daemon's bound address from the `addr` file it writes into
/// its data directory — how clients find a daemon started with an
/// ephemeral port (`--addr 127.0.0.1:0`).
///
/// # Errors
///
/// `NotFound` when no daemon has written the file yet; other I/O errors
/// as-is.
pub fn read_addr_file(data_dir: &Path) -> io::Result<String> {
    Ok(std::fs::read_to_string(data_dir.join("addr"))?
        .trim()
        .to_owned())
}
