//! The HTTP server: a `std::net::TcpListener` accept loop in front of a
//! shared [`SearchService`].
//!
//! One thread accepts connections; each connection gets a handler thread
//! that reads HTTP/1.1 requests in a keep-alive loop and dispatches them.
//! The *search work itself* still runs on the service's persistent worker
//! pool — connection threads only parse, submit, await and serialize, so a
//! slow search does not monopolize a listener and the pool keeps applying
//! admission control and deadlines uniformly for network and in-process
//! callers alike.
//!
//! Routes:
//!
//! | Route | Meaning |
//! |-------|---------|
//! | `POST /search` | run one top-k search (body: see [`crate::wire`]) |
//! | `GET /stats` | [`ServiceStats`](koios_service::ServiceStats) snapshot |
//! | `GET /metrics` | Prometheus text exposition of the service registry |
//! | `GET /traces` | retained request traces (`?id=0x…` for one span tree) |
//! | `GET /healthz` | liveness + basic shape of the backend (`?full` for the readiness report) |
//! | `GET /debug/engine` | corpus/index introspection: liveness, posting histograms, memory |
//! | `GET /debug/cache` | per-stripe occupancy/bytes/age of both striped caches |
//! | `GET /debug/profile` | recorded stage time as a self-time table (`?format=collapsed` for flamegraph input) |
//! | `POST /invalidate` | drop result cache + bump token-cache generation |
//! | `POST /ingest` | apply a live mutation batch (body: see [`crate::wire`]) |
//! | `POST /snapshot` | persist the corpus (`{"path": ...}`; appends a delta when chaining) |
//! | `POST /reload` | hot-swap the backend from a snapshot file (`{"path": ...}`) |
//!
//! Every service owns its writer, so every server answers the mutation
//! routes; they carry no access control, which belongs in a front end. A
//! rejected batch (unknown set id, embedding dimension mismatch) is `400`
//! and mutates nothing; snapshot I/O failures are `500`.
//!
//! `POST /search` honours a `traceparent` request header (W3C-style
//! `00-<trace>-<span>-<flags>`): the request's span tree is recorded under
//! the client's trace id, parented to the client's span, and — when the
//! sampled flag is set — force-retained in the trace ring. The response
//! body's `"trace_id"` echoes whichever id (propagated or minted) the tree
//! was recorded under.
//!
//! Unknown paths give `404`, known paths with the wrong method `405`,
//! framing or JSON errors `400` (with an `"error"` body), oversized
//! messages `413`. Shutdown is graceful: stop accepting, then join every
//! connection thread (idle keep-alive connections notice within
//! [`IDLE_POLL`]).

use crate::http::{HttpError, HttpRequest, HttpResponse};
use crate::wire;
use koios_common::Json;
use koios_service::SearchService;
use koios_telemetry::trace::{trace_summary_json, trace_to_json, TraceContext};
use std::io::{self, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often an idle keep-alive connection re-checks the shutdown flag.
pub const IDLE_POLL: Duration = Duration::from_millis(200);

/// Maximum concurrently served connections. The per-message size caps in
/// [`crate::http`] bound memory per connection; this bounds the *number*
/// of handler threads, so a connection flood gets `503`s instead of
/// exhausting threads. Generous for a search service whose real ceiling
/// is the worker pool behind the queue.
pub const MAX_CONNECTIONS: usize = 256;

/// How many announced-but-unread body bytes the server drains before
/// answering `413` and closing — gives a client mid-upload a chance to
/// finish writing and actually *read* the rejection instead of seeing a
/// connection reset.
const DRAIN_LIMIT: u64 = 16 << 20;

/// A running server; dropping it (or calling [`KoiosServer::shutdown`])
/// stops the accept loop and joins every connection handler.
pub struct KoiosServer {
    service: Arc<SearchService>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl KoiosServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// serving `service` immediately.
    pub fn bind(service: Arc<SearchService>, addr: impl ToSocketAddrs) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(listener, service, stop))
        };
        Ok(KoiosServer {
            service,
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (read the ephemeral port from here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service behind the listener.
    pub fn service(&self) -> &Arc<SearchService> {
        &self.service
    }

    /// Stops accepting, wakes the accept loop, and joins every connection
    /// thread. In-flight requests finish; idle keep-alive connections are
    /// closed at their next [`IDLE_POLL`] tick. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            // Poke the blocking `accept` so it observes the flag.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for KoiosServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, service: Arc<SearchService>, stop: Arc<AtomicBool>) {
    let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let live = Arc::new(AtomicUsize::new(0));
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        // Admission at the socket level: refuse the connection with a 503
        // instead of spawning an unbounded number of handler threads.
        if live.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
            let _ = error_response(503, "too many connections").write_to(&mut stream, false);
            continue;
        }
        live.fetch_add(1, Ordering::SeqCst);
        let service = Arc::clone(&service);
        let stop_flag = Arc::clone(&stop);
        let live_count = Arc::clone(&live);
        let handle = std::thread::spawn(move || {
            // Released on drop, so a connection thread that unwinds still
            // gives its slot back.
            let _slot = LiveSlot(live_count);
            handle_connection(stream, &service, &stop_flag);
        });
        let mut guard = handlers.lock().expect("handler registry");
        guard.push(handle);
        // Opportunistic reaping keeps the registry from growing without
        // bound on long-lived servers.
        guard.retain(|h| !h.is_finished());
    }
    for handle in handlers.lock().expect("handler registry").drain(..) {
        let _ = handle.join();
    }
}

/// One admitted connection's share of [`MAX_CONNECTIONS`].
struct LiveSlot(Arc<AtomicUsize>);

impl Drop for LiveSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn handle_connection(stream: TcpStream, service: &SearchService, stop: &AtomicBool) {
    // Short read timeouts turn idle blocking reads into shutdown-flag polls.
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    loop {
        let request = match HttpRequest::read_from(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => return, // clean close
            Err(HttpError::IdleTimeout) => {
                // Idle between requests, nothing consumed: poll the flag,
                // keep waiting.
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            // Peer went away — or stalled *mid-message* past the read
            // timeout. Bytes of the half-read message are already consumed,
            // so resynchronizing is impossible; drop the connection rather
            // than parse the remainder as a fresh request.
            Err(HttpError::Io(_) | HttpError::Closed) => return,
            Err(e @ HttpError::TooLarge(_)) => {
                // The peer is probably still writing the oversized message;
                // drain a bounded amount so it can finish its send and read
                // the 413 instead of hitting a connection reset.
                let mut sink = std::io::sink();
                let _ = std::io::copy(&mut (&mut reader).take(DRAIN_LIMIT), &mut sink);
                let _ = error_response(413, e.to_string()).write_to(&mut writer, false);
                return;
            }
            Err(e @ HttpError::Malformed(_)) => {
                let _ = error_response(400, e.to_string()).write_to(&mut writer, false);
                return;
            }
        };
        let keep_alive = request.keep_alive() && !stop.load(Ordering::SeqCst);
        let response = dispatch(&request, service);
        if response.write_to(&mut writer, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

fn dispatch(request: &HttpRequest, service: &SearchService) -> HttpResponse {
    let path = request.path.split('?').next().unwrap_or("");
    match (request.method.as_str(), path) {
        ("POST", "/search") => search(request, service),
        ("GET", "/stats") => HttpResponse::json(200, &wire::stats_to_json(&service.stats())),
        ("GET", "/metrics") => HttpResponse::metrics_text(200, service.render_metrics()),
        ("GET", "/traces") => traces(request, service),
        ("GET", "/healthz") => healthz(request, service),
        ("GET", "/debug/engine") => HttpResponse::json(200, &service.debug_engine()),
        ("GET", "/debug/cache") => HttpResponse::json(200, &service.debug_cache()),
        ("GET", "/debug/profile") => debug_profile(request, service),
        ("POST", "/invalidate") => {
            service.invalidate_cache();
            HttpResponse::json(200, &Json::obj([("invalidated", Json::Bool(true))]))
        }
        ("POST", "/ingest") => ingest(request, service),
        ("POST", "/snapshot") => snapshot(request, service),
        ("POST", "/reload") => reload(request, service),
        (
            _,
            "/search" | "/stats" | "/metrics" | "/traces" | "/healthz" | "/debug/engine"
            | "/debug/cache" | "/debug/profile" | "/invalidate" | "/ingest" | "/snapshot"
            | "/reload",
        ) => error_response(405, "method not allowed"),
        _ => error_response(404, "not found"),
    }
}

/// `GET /healthz` — the bare probe answers with the same four fields it
/// always has (status, partitions, workers, sets: the cheap fast path load
/// balancers hammer). `?full` deepens it into a readiness report: serving
/// epoch, snapshot delta-chain length, queue depth against the worker
/// width, and worker liveness — `"ready"` flips to `false` when any worker
/// thread died.
fn healthz(request: &HttpRequest, service: &SearchService) -> HttpResponse {
    let query = request.path.split_once('?').map(|(_, q)| q).unwrap_or("");
    let full = query.split('&').any(|kv| kv == "full" || kv == "full=1");
    let mut fields = vec![
        ("status", Json::str("ok")),
        ("partitions", Json::num(service.partitions() as f64)),
        ("workers", Json::num(service.workers() as f64)),
        ("sets", Json::num(service.repository().num_sets() as f64)),
    ];
    if full {
        let workers = service.workers();
        let live = service.live_workers();
        let queued = service.queued();
        fields.push(("epoch", Json::num(service.engine_epoch() as f64)));
        fields.push((
            "delta_chain_len",
            Json::num(service.snapshot_info().map(|s| s.deltas).unwrap_or(0) as f64),
        ));
        fields.push(("live_workers", Json::num(live as f64)));
        fields.push(("queue_depth", Json::num(queued as f64)));
        // Queue pressure relative to the pool width: >1 means requests are
        // waiting behind a full complement of busy workers.
        fields.push((
            "queue_pressure",
            Json::num(queued as f64 / workers.max(1) as f64),
        ));
        fields.push(("ready", Json::Bool(live == workers)));
    }
    HttpResponse::json(200, &Json::obj(fields))
}

/// `GET /debug/profile` — the service's recorded stage time
/// ([`SearchService::profile`]). JSON by default (uptime, worker count,
/// self-time table, collapsed stacks as a string); `?format=collapsed`
/// serves the collapsed-stack text alone, ready to pipe into
/// `flamegraph.pl`.
fn debug_profile(request: &HttpRequest, service: &SearchService) -> HttpResponse {
    let query = request.path.split_once('?').map(|(_, q)| q).unwrap_or("");
    let profile = service.profile();
    if query.split('&').any(|kv| kv == "format=collapsed") {
        HttpResponse::text(200, profile.collapsed_stacks())
    } else {
        HttpResponse::json(200, &profile.to_json())
    }
}

fn search(request: &HttpRequest, service: &SearchService) -> HttpResponse {
    let json = match parse_body(request) {
        Ok(json) => json,
        Err(resp) => return resp,
    };
    // Parse against the repository served right now; the reply is
    // serialized against the one the worker actually pinned
    // (`response.repository`), which a concurrent `/ingest` may have moved
    // past this one. Token ids are append-only across mutation epochs, so
    // ids interned at epoch *e* name the same tokens at any later *e′*; set
    // ids and names are only ever resolved on the serving side.
    let mut search_request = match wire::parse_search_request(&json, &service.repository()) {
        Ok(req) => req,
        Err(e) => return bad_request(&e),
    };
    // Wire-propagated trace context: a valid `traceparent` header threads
    // the remote caller's trace id through the whole request, so the span
    // tree the service records is a subtree of the *client's* trace.
    if let Some(ctx) = request
        .header("traceparent")
        .and_then(TraceContext::parse_traceparent)
    {
        search_request = search_request.with_trace(ctx);
    }
    // Submit-then-await on the persistent pool: the connection thread
    // blocks, the queue applies the same admission control as in-process
    // callers. A search that panicked on its worker is this request's
    // failure, not the connection's: `join` hands the payload over instead
    // of unwinding here.
    let response = match service.submit(search_request).join() {
        Ok(response) => response,
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("opaque panic payload");
            return error_response(500, format!("search panicked: {message}"));
        }
    };
    // The serialize phase completes the queue/search/serialize latency
    // split: building the JSON body is the front-end's own contribution to
    // response time, invisible to the in-process service metrics.
    let serialize_start = std::time::Instant::now();
    let http = HttpResponse::json(
        200,
        &wire::response_to_json(&response, &response.repository),
    );
    let serialize_time = serialize_start.elapsed();
    service
        .metrics()
        .request_serialize
        .record_duration(serialize_time);
    // Appended after the worker sealed the tree: if the tail sampler
    // retained this trace, it grows a `serialize` span (and its total
    // duration extends to cover it).
    if let Some(id) = response.trace_id {
        service.record_trace_span(id, "serialize", serialize_start, serialize_time);
    }
    http
}

/// `GET /traces` — the retained trace ring. Without a query string:
/// sampler stats plus one summary per retained trace (newest first). With
/// `?id=0x…`: the full span tree, or `404` if the sampler dropped (or
/// never saw) that id. `409` when the service runs without tracing.
fn traces(request: &HttpRequest, service: &SearchService) -> HttpResponse {
    if !service.tracing_enabled() {
        return error_response(409, "tracing is disabled on this service");
    }
    let query = request.path.split_once('?').map(|(_, q)| q).unwrap_or("");
    let id_param = query
        .split('&')
        .find_map(|kv| kv.strip_prefix("id="))
        .map(str::trim);
    if let Some(raw) = id_param {
        let parsed = u64::from_str_radix(raw.trim_start_matches("0x"), 16).ok();
        return match parsed.and_then(|id| service.trace(id)) {
            Some(trace) => HttpResponse::json(200, &trace_to_json(&trace)),
            None => error_response(404, format!("no retained trace {raw}")),
        };
    }
    let stats = service.trace_stats().unwrap_or_default();
    let summaries = service
        .traces()
        .iter()
        .map(trace_summary_json)
        .collect::<Vec<_>>();
    HttpResponse::json(
        200,
        &Json::obj([
            ("enabled", Json::Bool(true)),
            (
                "stats",
                Json::obj([
                    ("completed", Json::num(stats.completed as f64)),
                    ("retained", Json::num(stats.retained as f64)),
                    ("sampled", Json::num(stats.sampled as f64)),
                    ("stored", Json::num(stats.stored as f64)),
                    ("capacity", Json::num(stats.capacity as f64)),
                ]),
            ),
            ("traces", Json::Arr(summaries)),
        ]),
    )
}

fn ingest(request: &HttpRequest, service: &SearchService) -> HttpResponse {
    let json = match parse_body(request) {
        Ok(json) => json,
        Err(resp) => return resp,
    };
    let ops = match wire::parse_ingest_request(&json) {
        Ok(ops) => ops,
        Err(e) => return bad_request(&e),
    };
    match service.ingest(&ops) {
        Ok(outcome) => HttpResponse::json(200, &wire::ingest_outcome_to_json(outcome)),
        Err(e) => live_error(&e),
    }
}

fn snapshot(request: &HttpRequest, service: &SearchService) -> HttpResponse {
    let json = match parse_body(request) {
        Ok(json) => json,
        Err(resp) => return resp,
    };
    let path = match wire::parse_path_request(&json) {
        Ok(path) => path,
        Err(e) => return bad_request(&e),
    };
    match service.snapshot_to(&path) {
        Ok(meta) => HttpResponse::json(200, &wire::snapshot_meta_to_json(&path, &meta)),
        Err(e) => live_error(&e),
    }
}

fn reload(request: &HttpRequest, service: &SearchService) -> HttpResponse {
    let json = match parse_body(request) {
        Ok(json) => json,
        Err(resp) => return resp,
    };
    let path = match wire::parse_path_request(&json) {
        Ok(path) => path,
        Err(e) => return bad_request(&e),
    };
    match service.reload(&path) {
        Ok(info) => HttpResponse::json(200, &wire::reload_to_json(&info, service.engine_epoch())),
        Err(e) => live_error(&e),
    }
}

/// Reads the request body as a JSON value, or the 400 to answer with.
fn parse_body(request: &HttpRequest) -> Result<Json, HttpResponse> {
    let text = std::str::from_utf8(&request.body).map_err(|_| bad_request("body is not UTF-8"))?;
    Json::parse(text).map_err(|e| bad_request(&e.to_string()))
}

/// Maps a [`LiveServiceError`] to its HTTP status: rejected batches `400`
/// (the client's ops were invalid; nothing was mutated), snapshot I/O or
/// corruption `500`.
fn live_error(e: &koios_service::LiveServiceError) -> HttpResponse {
    use koios_service::LiveServiceError;
    let status = match e {
        LiveServiceError::Rejected(_) => 400,
        LiveServiceError::Store(_) => 500,
    };
    error_response(status, e.to_string())
}

fn bad_request(message: &str) -> HttpResponse {
    error_response(400, message)
}

/// The `{"error": …}` body every failure answers with.
fn error_response(status: u16, message: impl Into<String>) -> HttpResponse {
    HttpResponse::json(status, &Json::obj([("error", Json::str(message))]))
}
