//! A small resilient client for the serve API.
//!
//! Transport failures on idempotent requests (all the GETs) retry with
//! jittered exponential backoff; submissions retry only on 429 (the
//! server definitively did not accept the job, so resubmitting cannot
//! duplicate work) and on connection refusal (nothing was sent). A POST
//! that dies mid-flight is *not* retried — the job may have been
//! admitted.

use std::io::{self, ErrorKind, Read};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use serde::Value;

use crate::http::{self, Response};

/// Why a client call failed for good.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure that survived every retry.
    Io(String),
    /// The server answered with a non-success status.
    Status {
        /// HTTP status code.
        code: u16,
        /// Response body (usually `{"error": …}`).
        body: String,
    },
    /// A response arrived but was not the JSON shape expected.
    Protocol(String),
    /// [`Client::wait_job`] ran out of time.
    WaitTimeout {
        /// The job's last observed status.
        last_status: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(msg) => write!(f, "transport failure: {msg}"),
            ClientError::Status { code, body } => write!(f, "server answered {code}: {body}"),
            ClientError::Protocol(msg) => write!(f, "unexpected response: {msg}"),
            ClientError::WaitTimeout { last_status } => {
                write!(f, "job did not finish in time (last status: {last_status})")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// Seed for the backoff jitter — process-global so concurrent clients
/// decorrelate, stepped as a splitmix-style LCG.
static JITTER_STATE: AtomicU64 = AtomicU64::new(0x9E37_79B9_7F4A_7C15);

fn jitter_frac() -> f64 {
    let mut x = JITTER_STATE.fetch_add(0xA076_1D64_78BD_642F, Ordering::Relaxed);
    x ^= x >> 33;
    x = x.wrapping_mul(0xE993_7D4D_962F_6C2D);
    x ^= x >> 29;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Sleep before retry `attempt` (0-based): `base * 2^attempt`, scaled by
/// a uniform factor in `[0.5, 1.5)` so synchronized clients desynchronize.
fn backoff_delay(base: Duration, attempt: u32) -> Duration {
    let exp = base.saturating_mul(1u32 << attempt.min(10));
    exp.mul_f64(0.5 + jitter_frac())
}

/// A client bound to one server address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    /// Per-attempt connect budget.
    pub connect_timeout: Duration,
    /// Per-attempt socket read/write deadline.
    pub io_timeout: Duration,
    /// Extra attempts after the first (idempotent requests only).
    pub retries: u32,
    /// Base backoff, doubled per attempt and jittered.
    pub backoff: Duration,
}

impl Client {
    /// A client for `addr` (e.g. `"127.0.0.1:7077"`) with defaults
    /// suitable for tests and CI: 2 s connect, 30 s I/O, 3 retries.
    pub fn new(addr: impl Into<String>) -> Self {
        Client {
            addr: addr.into(),
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(30),
            retries: 3,
            backoff: Duration::from_millis(100),
        }
    }

    fn connect(&self) -> io::Result<TcpStream> {
        let addrs: Vec<SocketAddr> = self.addr.to_socket_addrs()?.collect();
        let mut last = io::Error::new(io::ErrorKind::NotFound, "no address resolved");
        for a in addrs {
            match TcpStream::connect_timeout(&a, self.connect_timeout) {
                Ok(s) => {
                    s.set_read_timeout(Some(self.io_timeout))?;
                    s.set_write_timeout(Some(self.io_timeout))?;
                    return Ok(s);
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Connects and writes one request; the response is the caller's to
    /// read.
    fn send(&self, method: &str, path: &str, body: Option<&str>) -> Result<TcpStream, String> {
        let mut stream = self.connect().map_err(|e| format!("connect: {e}"))?;
        let payload = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nConnection: close\r\nContent-Length: {}\r\n{}\r\n",
            self.addr,
            payload.len(),
            if body.is_some() {
                "Content-Type: application/json\r\n"
            } else {
                ""
            }
        );
        use std::io::Write;
        stream
            .write_all(head.as_bytes())
            .and_then(|()| stream.write_all(payload.as_bytes()))
            .map_err(|e| format!("send: {e}"))?;
        Ok(stream)
    }

    /// One request/response round trip, no retry.
    fn roundtrip(&self, method: &str, path: &str, body: Option<&str>) -> Result<Response, String> {
        let mut stream = self.send(method, path, body)?;
        http::read_response(&mut stream).map_err(|e| format!("receive: {e}"))
    }

    /// Runs `attempt` until it succeeds, backing off between transport
    /// failures, `retries + 1` times at most.
    fn retrying<T>(
        &self,
        mut attempt: impl FnMut() -> Result<T, String>,
    ) -> Result<T, ClientError> {
        let mut last = String::new();
        for n in 0..=self.retries {
            match attempt() {
                Ok(v) => return Ok(v),
                Err(e) => last = e,
            }
            if n < self.retries {
                std::thread::sleep(backoff_delay(self.backoff, n));
            }
        }
        Err(ClientError::Io(last))
    }

    /// GET with transport-level retry (idempotent by definition here).
    fn get(&self, path: &str) -> Result<Response, ClientError> {
        self.retrying(|| self.roundtrip("GET", path, None))
    }

    fn expect_2xx(resp: Response) -> Result<Response, ClientError> {
        if (200..300).contains(&resp.status) {
            Ok(resp)
        } else {
            Err(ClientError::Status {
                code: resp.status,
                body: resp.text(),
            })
        }
    }

    /// `GET /healthz`.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure or non-2xx.
    pub fn healthz(&self) -> Result<String, ClientError> {
        Self::expect_2xx(self.get("/healthz")?).map(|r| r.text())
    }

    /// `GET /readyz` — `Ok(true)` when ready, `Ok(false)` while draining.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure or unexpected status.
    pub fn readyz(&self) -> Result<bool, ClientError> {
        let resp = self.get("/readyz")?;
        match resp.status {
            200 => Ok(true),
            503 => Ok(false),
            code => Err(ClientError::Status {
                code,
                body: resp.text(),
            }),
        }
    }

    /// `GET /metrics` — the Prometheus text exposition.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure or non-2xx.
    pub fn metrics(&self) -> Result<String, ClientError> {
        Self::expect_2xx(self.get("/metrics")?).map(|r| r.text())
    }

    /// Submits a job once. 429 comes back as
    /// [`ClientError::Status`] with `code == 429` so callers can decide
    /// their own shedding policy.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure, rejection, or a malformed
    /// accept body.
    pub fn submit_job(&self, spec_json: &str) -> Result<u64, ClientError> {
        let resp = self
            .roundtrip("POST", "/jobs", Some(spec_json))
            .map_err(ClientError::Io)?;
        let resp = Self::expect_2xx(resp)?;
        let v: Value = serde_json::from_str(&resp.text())
            .map_err(|e| ClientError::Protocol(format!("accept body: {e}")))?;
        json_u64(&v, "id").ok_or_else(|| ClientError::Protocol("accept body has no id".into()))
    }

    /// Submits with retry on 429 and connection refusal (both provably
    /// non-duplicating), backing off with jitter between attempts.
    ///
    /// # Errors
    ///
    /// The last [`ClientError`] once retries are exhausted.
    pub fn submit_job_with_retry(&self, spec_json: &str) -> Result<u64, ClientError> {
        let mut last = ClientError::Io("no attempt made".to_string());
        for attempt in 0..=self.retries {
            match self.submit_job(spec_json) {
                Ok(id) => return Ok(id),
                Err(ClientError::Status { code: 429, body }) => {
                    last = ClientError::Status { code: 429, body };
                }
                Err(ClientError::Io(msg)) if msg.starts_with("connect:") => {
                    last = ClientError::Io(msg);
                }
                Err(other) => return Err(other),
            }
            if attempt < self.retries {
                std::thread::sleep(backoff_delay(self.backoff, attempt));
            }
        }
        Err(last)
    }

    /// `GET /jobs/<id>` — the raw status JSON.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure or non-2xx (404 included).
    pub fn job_status(&self, id: u64) -> Result<String, ClientError> {
        Self::expect_2xx(self.get(&format!("/jobs/{id}"))?).map(|r| r.text())
    }

    /// Waits for the job to finish and returns its final status JSON. The
    /// server ends a job's stream only after publishing the terminal
    /// status, so this follows `GET /jobs/<id>/stream` to its end (never
    /// past `timeout`) and then asks `GET /jobs/<id>` once — no polling
    /// interval to overshoot by. A job that already finished returns at
    /// once.
    ///
    /// # Errors
    ///
    /// [`ClientError::WaitTimeout`] if the job is still live at the
    /// deadline, or any transport/status error from either request (404
    /// for an unknown or forgotten id included).
    pub fn wait_job(&self, id: u64, timeout: Duration) -> Result<String, ClientError> {
        let deadline = Instant::now() + timeout;
        loop {
            self.follow_stream(id, deadline)?;
            let body = self.job_status(id)?;
            let v: Value = serde_json::from_str(&body)
                .map_err(|e| ClientError::Protocol(format!("status body: {e}")))?;
            let status = json_str(&v, "status").unwrap_or("unknown");
            if status != "queued" && status != "running" {
                return Ok(body);
            }
            // Still live: the deadline passed, or the stream was silent
            // for a whole `io_timeout` (a long queue) and is followed anew.
            if Instant::now() >= deadline {
                return Err(ClientError::WaitTimeout {
                    last_status: status.to_string(),
                });
            }
        }
    }

    /// Reads `GET /jobs/<id>/stream` until the server ends it, `deadline`
    /// passes or nothing arrives for `io_timeout`, keeping only enough of
    /// the response to tell a refusal (404, 503) from a stream.
    fn follow_stream(&self, id: u64, deadline: Instant) -> Result<(), ClientError> {
        /// More than any error answer; a stream's own lines are discarded.
        const KEEP: usize = 1024;
        let path = format!("/jobs/{id}/stream");
        let kept = self.retrying(|| {
            let mut stream = self.send("GET", &path, None)?;
            let mut kept = Vec::with_capacity(KEEP);
            let mut chunk = [0u8; 8192];
            loop {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Ok(kept);
                }
                stream
                    .set_read_timeout(Some(left.min(self.io_timeout)))
                    .map_err(|e| format!("receive: {e}"))?;
                match stream.read(&mut chunk) {
                    Ok(0) => return Ok(kept),
                    Ok(n) => kept.extend_from_slice(&chunk[..n.min(KEEP - kept.len())]),
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                        return Ok(kept)
                    }
                    Err(e) => return Err(format!("receive: {e}")),
                }
            }
        })?;
        let text = String::from_utf8_lossy(&kept);
        match text.split(' ').nth(1).and_then(|c| c.parse::<u16>().ok()) {
            Some(code) if !(200..300).contains(&code) => Err(ClientError::Status {
                code,
                body: text
                    .split_once("\r\n\r\n")
                    .map_or("", |(_, body)| body)
                    .to_string(),
            }),
            _ => Ok(()),
        }
    }

    /// `GET /jobs/<id>/stream` — blocks until the stream closes, then
    /// returns the JSONL lines.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure or non-2xx.
    pub fn stream_lines(&self, id: u64) -> Result<Vec<String>, ClientError> {
        let resp = Self::expect_2xx(self.get(&format!("/jobs/{id}/stream"))?)?;
        Ok(resp
            .text()
            .lines()
            .filter(|l| !l.is_empty())
            .map(str::to_string)
            .collect())
    }
}

/// Pulls a `u64` field out of a JSON object value.
fn json_u64(v: &Value, key: &str) -> Option<u64> {
    match v {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).and_then(|(_, v)| {
            if let Value::Int(i) = v {
                u64::try_from(*i).ok()
            } else {
                None
            }
        }),
        _ => None,
    }
}

/// Pulls a string field out of a JSON object value.
fn json_str<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match v {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).and_then(|(_, v)| {
            if let Value::Str(s) = v {
                Some(s.as_str())
            } else {
                None
            }
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_jitters_within_bounds() {
        for attempt in 0..4 {
            let base = Duration::from_millis(100);
            let d = backoff_delay(base, attempt);
            let nominal = base * (1 << attempt);
            assert!(d >= nominal.mul_f64(0.5), "attempt {attempt}: {d:?}");
            assert!(d <= nominal.mul_f64(1.5), "attempt {attempt}: {d:?}");
        }
    }

    #[test]
    fn json_helpers_read_map_fields() {
        let v: Value = serde_json::from_str(r#"{"id": 7, "status": "done"}"#).unwrap();
        assert_eq!(json_u64(&v, "id"), Some(7));
        assert_eq!(json_str(&v, "status"), Some("done"));
        assert_eq!(json_u64(&v, "missing"), None);
    }
}
