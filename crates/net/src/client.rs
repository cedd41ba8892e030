//! A tiny blocking HTTP client for the Koios server.
//!
//! Just enough for tests and examples: keep-alive connection reuse, JSON
//! request/response bodies, automatic one-shot reconnect when the pooled
//! connection was closed under us. Not a general HTTP client — it only
//! speaks to [`crate::server::KoiosServer`]-shaped peers (HTTP/1.1,
//! `Content-Length` framing).

use crate::http::{HttpError, HttpResponse};
use koios_common::Json;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Client-side failure.
#[derive(Debug)]
pub enum NetError {
    /// Transport failure (connect, read, write).
    Io(io::Error),
    /// The peer answered bytes that are not valid HTTP or not valid JSON.
    Protocol(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<HttpError> for NetError {
    fn from(e: HttpError) -> Self {
        match e {
            HttpError::Io(e) => NetError::Io(e),
            other => NetError::Protocol(other.to_string()),
        }
    }
}

/// A status code plus the decoded JSON body.
pub type JsonReply = (u16, Json);

/// Per-read socket timeout of every client connection.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// A blocking client bound to one server address.
pub struct KoiosClient {
    addr: SocketAddr,
    traceparent: Option<String>,
    conn: Option<BufReader<TcpStream>>,
}

impl KoiosClient {
    /// A client for `addr`; connections are opened lazily and reused
    /// (keep-alive) across calls.
    pub fn new(addr: SocketAddr) -> Self {
        KoiosClient {
            addr,
            traceparent: None,
            conn: None,
        }
    }

    /// Attaches a `traceparent` header to every subsequent request (see
    /// [`koios_telemetry::trace::TraceContext::render_traceparent`]), so
    /// the server records its span trees under the caller's trace id.
    pub fn with_traceparent(mut self, header: impl Into<String>) -> Self {
        self.traceparent = Some(header.into());
        self
    }

    /// `POST /search` with `body` (see [`crate::wire`] for the schema).
    pub fn search(&mut self, body: &Json) -> Result<JsonReply, NetError> {
        self.request("POST", "/search", Some(body))
    }

    /// Convenience `POST /search` for plain string elements.
    pub fn search_elements<S: AsRef<str>>(
        &mut self,
        elements: &[S],
    ) -> Result<JsonReply, NetError> {
        let body = Json::obj([(
            "elements",
            Json::arr(elements.iter().map(|e| Json::str(e.as_ref()))),
        )]);
        self.search(&body)
    }

    /// `GET /stats`.
    pub fn stats(&mut self) -> Result<JsonReply, NetError> {
        self.request("GET", "/stats", None)
    }

    /// `GET /metrics` — the Prometheus text exposition (not JSON).
    pub fn metrics(&mut self) -> Result<(u16, String), NetError> {
        self.request_text("GET", "/metrics")
    }

    /// `GET /healthz`.
    pub fn healthz(&mut self) -> Result<JsonReply, NetError> {
        self.request("GET", "/healthz", None)
    }

    /// `GET /healthz?full` — the deep readiness report (epoch, queue
    /// depth, worker liveness).
    pub fn healthz_full(&mut self) -> Result<JsonReply, NetError> {
        self.request("GET", "/healthz?full", None)
    }

    /// `GET /debug/engine` — corpus/index introspection.
    pub fn debug_engine(&mut self) -> Result<JsonReply, NetError> {
        self.request("GET", "/debug/engine", None)
    }

    /// `GET /debug/cache` — per-stripe cache introspection.
    pub fn debug_cache(&mut self) -> Result<JsonReply, NetError> {
        self.request("GET", "/debug/cache", None)
    }

    /// `GET /debug/profile` — the recorded stage-time report.
    pub fn debug_profile(&mut self) -> Result<JsonReply, NetError> {
        self.request("GET", "/debug/profile", None)
    }

    /// `GET /debug/profile?format=collapsed` — the flamegraph-ready
    /// collapsed-stack text (not JSON).
    pub fn debug_profile_collapsed(&mut self) -> Result<(u16, String), NetError> {
        self.request_text("GET", "/debug/profile?format=collapsed")
    }

    /// `GET /traces` — sampler stats plus summaries of the retained ring.
    pub fn traces(&mut self) -> Result<JsonReply, NetError> {
        self.request("GET", "/traces", None)
    }

    /// `GET /traces?id=…` — the full span tree of one retained trace
    /// (404 if the tail sampler dropped it).
    pub fn trace(&mut self, trace_id: u64) -> Result<JsonReply, NetError> {
        let path = format!("/traces?id={}", koios_common::fingerprint::hex(trace_id));
        self.request("GET", &path, None)
    }

    /// `POST /invalidate`.
    pub fn invalidate(&mut self) -> Result<JsonReply, NetError> {
        self.request("POST", "/invalidate", None)
    }

    /// `POST /ingest` with a pre-built `{"ops": [...]}` body (see
    /// [`crate::wire::parse_ingest_request`] for the op schema).
    pub fn ingest(&mut self, body: &Json) -> Result<JsonReply, NetError> {
        self.request("POST", "/ingest", Some(body))
    }

    /// `POST /snapshot` — persist the served corpus to `path` on the
    /// *server's* filesystem (appends a delta when `path` is the file the
    /// backend was last snapshotted to).
    pub fn snapshot(&mut self, path: &str) -> Result<JsonReply, NetError> {
        let body = Json::obj([("path", Json::str(path))]);
        self.request("POST", "/snapshot", Some(&body))
    }

    /// `POST /reload` — hot-swap the server's backend from a snapshot file.
    pub fn reload(&mut self, path: &str) -> Result<JsonReply, NetError> {
        let body = Json::obj([("path", Json::str(path))]);
        self.request("POST", "/reload", Some(&body))
    }

    /// One HTTP exchange; retried once on a fresh connection **only** when
    /// the pooled keep-alive connection turned out to be stale in a way
    /// that cannot have double-executed the request: the write itself
    /// failed, or the server closed the connection without sending a
    /// single response byte ([`HttpError::Closed`] — the server writes the
    /// response before any keep-alive close, so no status byte means the
    /// request was not answered). A failure *mid-response* is returned as
    /// an error instead of re-sent, since the server has already executed
    /// the request by the time it answers.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> Result<JsonReply, NetError> {
        let had_pooled_conn = self.conn.is_some();
        match self.request_once(method, path, body) {
            Err((e, retryable)) => {
                if retryable && had_pooled_conn {
                    self.request_once(method, path, body).map_err(|(e, _)| e)
                } else {
                    Err(e)
                }
            }
            Ok(reply) => Ok(reply),
        }
    }

    /// Like [`KoiosClient::request`] but for plain-text bodies (e.g.
    /// `GET /metrics`, whose Prometheus exposition is not JSON). Same
    /// stale-keep-alive retry rules.
    pub fn request_text(&mut self, method: &str, path: &str) -> Result<(u16, String), NetError> {
        let had_pooled_conn = self.conn.is_some();
        let decode = |response: HttpResponse| {
            let text = String::from_utf8(response.body).map_err(|_| {
                (
                    NetError::Protocol("response body is not UTF-8".into()),
                    false,
                )
            })?;
            Ok((response.status, text))
        };
        match self.exchange_once(method, path, None).and_then(decode) {
            Err((e, retryable)) => {
                if retryable && had_pooled_conn {
                    self.exchange_once(method, path, None)
                        .and_then(decode)
                        .map_err(|(e, _)| e)
                } else {
                    Err(e)
                }
            }
            Ok(reply) => Ok(reply),
        }
    }

    /// One exchange decoded as JSON; errors carry whether a retry on a
    /// fresh connection is safe (no risk of double execution).
    fn request_once(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> Result<JsonReply, (NetError, bool)> {
        let response = self.exchange_once(method, path, body)?;
        let text = std::str::from_utf8(&response.body).map_err(|_| {
            (
                NetError::Protocol("response body is not UTF-8".into()),
                false,
            )
        })?;
        let json = if text.is_empty() {
            Json::Null
        } else {
            Json::parse(text).map_err(|e| (NetError::Protocol(e.to_string()), false))?
        };
        Ok((response.status, json))
    }

    /// One raw HTTP exchange on the pooled connection.
    fn exchange_once(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> Result<HttpResponse, (NetError, bool)> {
        if self.conn.is_none() {
            let fresh = (|| {
                let stream = TcpStream::connect(self.addr)?;
                stream.set_read_timeout(Some(READ_TIMEOUT))?;
                stream.set_nodelay(true)?;
                Ok::<TcpStream, io::Error>(stream)
            })()
            .map_err(|e| (NetError::Io(e), false))?;
            self.conn = Some(BufReader::new(fresh));
        }
        let reader = self.conn.as_mut().expect("just ensured");

        let payload = body.map(|b| b.encode().into_bytes()).unwrap_or_default();
        let mut head = format!("{method} {path} HTTP/1.1\r\nhost: koios\r\n");
        if body.is_some() {
            head.push_str("content-type: application/json\r\n");
        }
        if let Some(tp) = &self.traceparent {
            head.push_str(&format!("traceparent: {tp}\r\n"));
        }
        head.push_str(&format!("content-length: {}\r\n\r\n", payload.len()));

        let write_result = (|| {
            let stream = reader.get_mut();
            stream.write_all(head.as_bytes())?;
            stream.write_all(&payload)?;
            stream.flush()
        })();
        if let Err(e) = write_result {
            // Nothing of the response was consumed; the request may sit in
            // a dead socket's buffer but was provably not answered.
            self.conn = None;
            return Err((e.into(), true));
        }

        let response = match HttpResponse::read_from(reader) {
            Ok(r) => r,
            Err(e) => {
                self.conn = None;
                // EOF before any status byte is the stale keep-alive
                // signature — safe to retry. Anything later (garbled or
                // truncated mid-response) is not.
                let retryable = matches!(e, HttpError::Closed);
                return Err((e.into(), retryable));
            }
        };
        if matches!(response.header("connection"), Some(v) if v.eq_ignore_ascii_case("close")) {
            self.conn = None;
        }
        Ok(response)
    }
}
