//! Live monitoring server: `/metrics`, `/health`, `/manifest.json`, an
//! SSE `/events` stream, and a live dashboard at `/`.
//!
//! A zero-dependency HTTP/1.1 server on `std::net::TcpListener` with a
//! small worker-thread pool. The simulation publishes state through a
//! cloneable [`ServeHandle`]; the server threads only ever read snapshots,
//! so nothing here can slow the hot loop:
//!
//! * the registry is published as a whole-snapshot clone at the same
//!   boundaries the JSONL exporter already syncs at;
//! * window rows and heartbeats fan out through a bounded
//!   [`BroadcastRing`] — a slow `/events` client loses old events instead
//!   of applying backpressure;
//! * `/` is rebuilt per request from the published snapshots with the
//!   [`report`](crate::report) renderer in its live-page mode (a
//!   `meta http-equiv="refresh"` strip; everything else identical to the
//!   static self-contained pages).
//!
//! Bind to port 0 for an ephemeral port (tests, parallel CI jobs);
//! [`Server::shutdown`] drains cleanly so a final `/metrics` scrape
//! observed before shutdown equals the run's written artifact.

mod http;
mod ring;

pub use http::{Request, RequestError, MAX_REQUEST_BYTES};
pub use ring::{BroadcastRing, RingEvent, RingRead};

use crate::contention::ContentionReport;
use crate::export::prometheus_text;
use crate::report::{Cell, HtmlPage, HtmlTable, Section};
use crate::timeseries::WindowRecord;
use crate::{labeled, MetricsRegistry, RunManifest};
use serde::Serialize;
use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Events the broadcast ring retains for late or slow `/events` readers.
const RING_CAPACITY: usize = 256;

/// Recent window rows kept for the dashboard's table.
const RECENT_WINDOWS: usize = 16;

/// Connection worker threads. Monitoring traffic is a handful of
/// scrapers; the pool exists so one stalled client cannot serialize the
/// rest, not for throughput.
const POOL_WORKERS: usize = 4;

/// Socket timeouts: a client that cannot produce a request head or drain
/// a response this fast is dropped rather than wedging a pool worker.
const READ_TIMEOUT: Duration = Duration::from_secs(5);
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// How long an `/events` handler waits for fresh events before emitting
/// a keep-alive comment (and checking for shutdown).
const SSE_POLL: Duration = Duration::from_millis(500);

/// One progress snapshot, published at the simulator's snapshot
/// boundaries and streamed to `/events` subscribers.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ServeHeartbeat {
    /// Processor references completed.
    pub refs: u64,
    /// Wall-clock seconds since the run started.
    pub wall_seconds: f64,
    /// Cumulative references per second.
    pub refs_per_second: f64,
    /// Miss ratio of the most recently closed window, when known.
    pub window_miss_ratio: Option<f64>,
    /// Currently active workers, when the caller runs a worker pool.
    pub active_workers: Option<u64>,
}

impl ServeHeartbeat {
    /// The heartbeat after `refs` references in `wall_seconds`, with the
    /// rate derived from the two (0 before any time has passed) and no
    /// window or worker detail.
    pub fn at(refs: u64, wall_seconds: f64) -> Self {
        ServeHeartbeat {
            refs,
            wall_seconds,
            refs_per_second: if wall_seconds > 0.0 {
                refs as f64 / wall_seconds
            } else {
                0.0
            },
            ..ServeHeartbeat::default()
        }
    }
}

/// Shared state between the publishing side (the simulation) and the
/// serving side (the connection handlers).
struct ServeState {
    title: Mutex<String>,
    registry: Mutex<MetricsRegistry>,
    manifest: Mutex<Option<RunManifest>>,
    heartbeat: Mutex<ServeHeartbeat>,
    recent: Mutex<VecDeque<WindowRecord>>,
    windows_published: Mutex<u64>,
    ring: BroadcastRing,
    done: AtomicBool,
    shutdown: AtomicBool,
}

impl ServeState {
    fn new() -> Self {
        ServeState {
            title: Mutex::new("seta live run".to_owned()),
            registry: Mutex::new(MetricsRegistry::new()),
            manifest: Mutex::new(None),
            heartbeat: Mutex::new(ServeHeartbeat::default()),
            recent: Mutex::new(VecDeque::with_capacity(RECENT_WINDOWS)),
            windows_published: Mutex::new(0),
            ring: BroadcastRing::new(RING_CAPACITY),
            done: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        }
    }
}

/// Locks one of the server's mutexes. Every lock in this module and in
/// its [`BroadcastRing`] goes through here, under one poisoning policy:
/// **a poisoned lock is recovered, not propagated.** Each guarded value is
/// a published snapshot, the event ring or the connection queue, and no
/// writer leaves it invalid between two steps, so whatever a panicking
/// holder left behind (at worst a half-applied update) is still safe to
/// read and overwrite. Propagating the poison instead would let one failed
/// connection handler panic the simulation on its next publish —
/// monitoring must never take down the run it observes.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The publishing side of a [`Server`]: cheap to clone, safe to hand to
/// the simulation thread. Every method takes a snapshot under a short
/// lock; none of them can block on clients.
#[derive(Clone)]
pub struct ServeHandle {
    state: Arc<ServeState>,
}

impl std::fmt::Debug for ServeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeHandle")
            .field("done", &self.state.done.load(Ordering::Relaxed))
            .finish()
    }
}

impl ServeHandle {
    /// Sets the dashboard's `<h1>`/`<title>` text.
    pub fn set_title(&self, title: &str) {
        *lock(&self.state.title) = title.to_owned();
    }

    /// Replaces the served registry snapshot (what `/metrics` renders).
    pub fn publish_registry(&self, registry: &MetricsRegistry) {
        *lock(&self.state.registry) = registry.clone();
    }

    /// Mutates the served registry in place — for publishers like the
    /// sweep runner that own no registry of their own.
    pub fn update_metrics(&self, f: impl FnOnce(&mut MetricsRegistry)) {
        f(&mut lock(&self.state.registry));
    }

    /// Replaces the served manifest (`/manifest.json`).
    pub fn publish_manifest(&self, manifest: &RunManifest) {
        *lock(&self.state.manifest) = Some(manifest.clone());
    }

    /// Publishes one closed window row: retained for the dashboard table
    /// and broadcast to `/events` subscribers as a `window` event.
    pub fn publish_window(&self, row: &WindowRecord) {
        {
            let mut recent = lock(&self.state.recent);
            if recent.len() == RECENT_WINDOWS {
                recent.pop_front();
            }
            recent.push_back(row.clone());
        }
        *lock(&self.state.windows_published) += 1;
        let data = serde_json::to_string(row).expect("window rows serialize");
        self.state.ring.publish("window", data);
    }

    /// Publishes a progress heartbeat: stored for `/health` and the
    /// dashboard strip, and broadcast as a `heartbeat` event.
    pub fn publish_heartbeat(&self, hb: &ServeHeartbeat) {
        *lock(&self.state.heartbeat) = hb.clone();
        let data = serde_json::to_string(hb).expect("heartbeats serialize");
        self.state.ring.publish("heartbeat", data);
    }

    /// Publishes per-stripe contention attribution: `serve_stripe_*`
    /// counters, gauges and wait/hold histograms merged into the served
    /// registry (so `/metrics` scrapes carry them, one labeled series
    /// per stripe) and a `contention` SSE event on `/events` with the
    /// same typed rows the `--contention-out` JSONL artifact uses.
    pub fn publish_contention(&self, report: &ContentionReport, threads: usize, requests: u64) {
        self.update_metrics(|m| {
            for s in &report.stripes {
                let label = s.stripe.to_string();
                let c = m.counter(&labeled("serve_stripe_accesses_total", "stripe", &label));
                m.set_counter(c, s.accesses);
                let c = m.counter(&labeled("serve_stripe_hits_total", "stripe", &label));
                m.set_counter(c, s.hits);
                let c = m.counter(&labeled(
                    "serve_stripe_acquisitions_total",
                    "stripe",
                    &label,
                ));
                m.set_counter(c, s.acquisitions);
                let g = m.gauge(&labeled("serve_stripe_occupancy", "stripe", &label));
                m.set_gauge(g, s.occupancy as f64);
                let h = m.histogram(&labeled("serve_stripe_wait_ns", "stripe", &label));
                m.set_histogram(h, s.wait_ns.clone());
                let h = m.histogram(&labeled("serve_stripe_hold_ns", "stripe", &label));
                m.set_histogram(h, s.hold_ns.clone());
            }
        });
        let payload = serde_json::json!({
            "stripes": report.stripe_rows(threads),
            "summary": report.summary_row(threads, requests),
        });
        let data = serde_json::to_string(&payload).expect("contention rows serialize");
        self.state.ring.publish("contention", data);
    }

    /// Marks the run complete: `/health` reports `done`, subscribers get
    /// a final `end` event, and the ring closes so `/events` streams
    /// drain and finish. The final published registry and manifest stay
    /// served until the server shuts down.
    pub fn finish_run(&self) {
        self.state.done.store(true, Ordering::SeqCst);
        let hb = lock(&self.state.heartbeat).clone();
        let data = serde_json::to_string(&hb).expect("heartbeats serialize");
        self.state.ring.publish("end", data);
        self.state.ring.close();
    }

    /// Whether [`finish_run`](Self::finish_run) has been called.
    pub fn is_done(&self) -> bool {
        self.state.done.load(Ordering::SeqCst)
    }

    /// Total window rows published so far.
    pub fn windows_published(&self) -> u64 {
        *lock(&self.state.windows_published)
    }
}

/// The live monitoring server. See the [module docs](self).
pub struct Server {
    state: Arc<ServeState>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts serving immediately. `addr` is anything
    /// [`ToSocketAddrs`] accepts; bind port 0 (`127.0.0.1:0`) for an
    /// OS-assigned ephemeral port, then read it back with
    /// [`local_addr`](Self::local_addr).
    ///
    /// # Errors
    ///
    /// Returns the bind error (address in use, permission denied, ...).
    pub fn bind<A: ToSocketAddrs>(addr: A) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServeState::new());
        let (tx, rx) = channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..POOL_WORKERS)
            .map(|_| {
                let rx = Arc::clone(&rx);
                let state = Arc::clone(&state);
                std::thread::spawn(move || worker_loop(&rx, &state))
            })
            .collect();
        let accept_state = Arc::clone(&state);
        let accept = std::thread::spawn(move || accept_loop(&listener, &tx, &accept_state));
        Ok(Server {
            state,
            addr,
            accept: Some(accept),
            workers,
        })
    }

    /// The address actually bound (resolves port 0 to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A publishing handle for the simulation side.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Graceful shutdown: stops accepting, wakes every blocked handler,
    /// and joins all server threads. In-flight responses finish first, so
    /// a scrape completed before this call reflects everything published
    /// before it.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        if self.state.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.state.ring.close();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

fn accept_loop(listener: &TcpListener, tx: &Sender<TcpStream>, state: &Arc<ServeState>) {
    loop {
        let accepted = listener.accept();
        if state.shutdown.load(Ordering::SeqCst) {
            break; // drops tx: workers drain their queue and exit
        }
        if let Ok((stream, _)) = accepted {
            let _ = tx.send(stream);
        }
    }
}

fn worker_loop(rx: &Arc<Mutex<Receiver<TcpStream>>>, state: &Arc<ServeState>) {
    loop {
        let stream = match lock(rx).recv() {
            Ok(s) => s,
            Err(_) => break, // accept loop gone
        };
        handle_connection(stream, state);
    }
}

fn handle_connection(mut stream: TcpStream, state: &Arc<ServeState>) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let request = match http::read_request(&mut stream) {
        Ok(r) => r,
        Err(RequestError::TooLarge) => {
            let _ = stream.write_all(&http::error_response(431, "request head too large"));
            return;
        }
        Err(RequestError::Malformed) => {
            let _ = stream.write_all(&http::error_response(400, "malformed request line"));
            return;
        }
        Err(RequestError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock => {
            let _ = stream.write_all(&http::error_response(408, "request head timed out"));
            return;
        }
        Err(RequestError::Io(_)) => return,
    };
    if request.method != "GET" {
        let _ = stream.write_all(&http::error_response(
            405,
            &format!("method {} not supported", request.method),
        ));
        return;
    }
    let response = match request.path.as_str() {
        "/metrics" => {
            let text = prometheus_text(&lock(&state.registry));
            http::response(
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &[],
                text.as_bytes(),
            )
        }
        "/health" => http::response(
            200,
            "application/json; charset=utf-8",
            &[],
            health_json(state).as_bytes(),
        ),
        "/manifest.json" => match lock(&state.manifest).as_ref() {
            Some(m) => http::response(
                200,
                "application/json; charset=utf-8",
                &[],
                serde_json::to_string(m)
                    .expect("manifest serializes")
                    .as_bytes(),
            ),
            None => http::error_response(404, "no manifest published yet"),
        },
        "/" => {
            let html = live_page(state);
            http::response(200, "text/html; charset=utf-8", &[], html.as_bytes())
        }
        "/events" => {
            serve_events(&mut stream, state);
            return;
        }
        other => http::error_response(404, &format!("no endpoint {other}")),
    };
    let _ = stream.write_all(&response);
}

fn health_json(state: &ServeState) -> String {
    let hb = lock(&state.heartbeat).clone();
    let status = if state.done.load(Ordering::SeqCst) {
        "done"
    } else {
        "running"
    };
    let windows = *lock(&state.windows_published);
    serde_json::to_string(&serde_json::json!({
        "status": status,
        "refs": hb.refs,
        "wall_seconds": hb.wall_seconds,
        "refs_per_second": hb.refs_per_second,
        "window_miss_ratio": hb.window_miss_ratio,
        "active_workers": hb.active_workers,
        "windows_published": windows,
    }))
    .expect("health serializes")
}

/// Streams `event:`/`id:`/`data:` frames from the broadcast ring until
/// the ring closes (run finished), the server shuts down, or the client
/// goes away. Gaps from ring eviction surface as a `: dropped N` comment.
fn serve_events(stream: &mut TcpStream, state: &Arc<ServeState>) {
    if stream.write_all(&http::sse_head()).is_err() {
        return;
    }
    let mut cursor = 0u64;
    loop {
        let read = state.ring.wait_after(cursor, SSE_POLL);
        let mut frame = String::new();
        if read.dropped > 0 {
            frame.push_str(&format!(": dropped {} events\n\n", read.dropped));
            cursor += read.dropped;
        }
        for e in &read.events {
            frame.push_str(&format!(
                "event: {}\nid: {}\ndata: {}\n\n",
                e.name, e.seq, e.data
            ));
            cursor = e.seq + 1;
        }
        let drained = read.events.is_empty();
        if frame.is_empty() {
            frame.push_str(": keep-alive\n\n");
        }
        if stream.write_all(frame.as_bytes()).is_err() {
            return;
        }
        if state.shutdown.load(Ordering::SeqCst) || (read.closed && drained) {
            return;
        }
    }
}

/// Builds the live dashboard from the published snapshots: an
/// auto-refreshing stats strip, the most recent window rows, and the
/// registry's counters and gauges. Same renderer as the static reports,
/// in live-page mode (see
/// [`validate_live_page`](crate::report::validate_live_page)).
fn live_page(state: &ServeState) -> String {
    let title = lock(&state.title).clone();
    let hb = lock(&state.heartbeat).clone();
    let done = state.done.load(Ordering::SeqCst);

    let mut page = HtmlPage::new(&title);
    page.live_refresh(2);
    page.subtitle(
        "live run — this page refreshes every 2 s; scrape /metrics for the machine-readable form",
    );

    let mut status = Section::new("status", "Run status");
    let fmt_opt = |v: Option<f64>| match v {
        Some(x) => format!("{x:.4}"),
        None => "-".to_owned(),
    };
    status.kv(&[
        (
            "status",
            if done {
                "done".into()
            } else {
                "running".to_owned()
            },
        ),
        ("refs", hb.refs.to_string()),
        ("wall seconds", format!("{:.1}", hb.wall_seconds)),
        ("refs / second", format!("{:.0}", hb.refs_per_second)),
        ("last window miss ratio", fmt_opt(hb.window_miss_ratio)),
        (
            "active workers",
            hb.active_workers.map_or("-".to_owned(), |w| w.to_string()),
        ),
        (
            "windows published",
            lock(&state.windows_published).to_string(),
        ),
    ]);
    status.push_html(
        "<p class=\"artifact\">endpoints: <a href=\"/metrics\"><code>/metrics</code></a> \
         <a href=\"/health\"><code>/health</code></a> \
         <a href=\"/manifest.json\"><code>/manifest.json</code></a> \
         <a href=\"/events\"><code>/events</code></a></p>",
    );
    page.push(status);

    let recent = lock(&state.recent);
    let mut windows = Section::new("windows", "Recent windows");
    if recent.is_empty() {
        windows.note("no windows closed yet");
    } else {
        let mut t = HtmlTable::new(&[
            "window",
            "segment",
            "refs",
            "read-ins",
            "miss ratio",
            "pos0 frac",
            "write-backs",
        ]);
        for w in recent.iter() {
            t.row(vec![
                Cell::int(w.window),
                Cell::int(w.segment),
                Cell::int(w.refs()),
                Cell::int(w.read_ins),
                Cell::text(fmt_opt(w.miss_ratio())),
                Cell::text(fmt_opt(w.pos0_fraction())),
                Cell::int(w.write_backs),
            ]);
        }
        windows.table(&t);
        windows.note("most recent windows last; the full series streams on /events");
    }
    drop(recent);
    page.push(windows);

    let registry = lock(&state.registry);
    let mut metrics = Section::new("metrics", "Registry snapshot");
    let mut counters = HtmlTable::new(&["counter", "value"]);
    for (name, v) in registry.counters() {
        counters.row(vec![Cell::text(name), Cell::int(v)]);
    }
    let mut gauges = HtmlTable::new(&["gauge", "value"]);
    for (name, v) in registry.gauges() {
        gauges.row(vec![Cell::text(name), Cell::num(v)]);
    }
    drop(registry);
    if counters.is_empty() && gauges.is_empty() {
        metrics.note("no registry snapshot published yet");
    } else {
        if !counters.is_empty() {
            metrics.table(&counters);
        }
        if !gauges.is_empty() {
            metrics.table(&gauges);
        }
    }
    metrics.note("snapshots publish at the run's snapshot boundaries; the final snapshot equals the written artifact");
    page.push(metrics);

    if let Some(m) = lock(&state.manifest).as_ref() {
        let mut manifest = Section::new("manifest", "Manifest");
        let rows: Vec<(&str, String)> = m
            .labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        manifest.kv(&rows);
        if let Some(trace) = &m.trace {
            manifest.note(&format!(
                "trace: {} ({} events, seed {})",
                trace.source, trace.events, trace.seed
            ));
        }
        page.push(manifest);
    }

    page.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::validate_live_page;
    use std::io::{BufRead, BufReader, Read};

    fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
            .unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").expect("full response");
        let code: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .expect("status code");
        (code, head.to_owned(), body.to_owned())
    }

    fn sample_registry() -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        let c = m.counter("refs_total");
        m.inc(c, 42);
        let g = m.gauge("l2_local_miss_ratio");
        m.set_gauge(g, 0.25);
        m
    }

    #[test]
    fn endpoints_serve_published_state() {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        handle.publish_registry(&sample_registry());
        let mut manifest = RunManifest::new("0.0.0");
        manifest.label("assoc", 4u32);
        handle.publish_manifest(&manifest);
        handle.publish_heartbeat(&ServeHeartbeat {
            refs: 42,
            wall_seconds: 1.5,
            refs_per_second: 28.0,
            window_miss_ratio: Some(0.25),
            active_workers: Some(1),
        });

        let (code, head, body) = get(addr, "/metrics");
        assert_eq!(code, 200);
        assert!(head.contains("text/plain; version=0.0.4"), "{head}");
        assert!(body.contains("refs_total 42"), "{body}");
        assert!(body.contains("l2_local_miss_ratio 0.25"), "{body}");

        let (code, _, body) = get(addr, "/health");
        assert_eq!(code, 200);
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["status"].as_str(), Some("running"));
        assert_eq!(v["refs"].as_u64(), Some(42));

        let (code, _, body) = get(addr, "/manifest.json");
        assert_eq!(code, 200);
        let m: RunManifest = serde_json::from_str(&body).unwrap();
        assert_eq!(m.label_value("assoc"), Some("4"));

        let (code, head, body) = get(addr, "/");
        assert_eq!(code, 200);
        assert!(head.contains("text/html"), "{head}");
        validate_live_page(&body).expect("live page validates");
        assert!(body.contains("refs_total"), "{body}");

        let (code, _, _) = get(addr, "/nope");
        assert_eq!(code, 404);
        server.shutdown();
    }

    #[test]
    fn a_poisoned_lock_is_recovered_and_keeps_serving() {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let handle = server.handle();
        handle.publish_registry(&sample_registry());
        // A holder that panics mid-update poisons the registry lock after
        // applying half its change.
        let poisoner = handle.clone();
        let joined = std::thread::spawn(move || {
            poisoner.update_metrics(|m| {
                let c = m.counter("refs_total");
                m.inc(c, 1);
                panic!("holder fails mid-update");
            });
        })
        .join();
        assert!(joined.is_err(), "the holder panicked");
        assert!(handle.state.registry.is_poisoned());

        // The publisher keeps going, and scrapes see what it publishes,
        // including the half-applied update.
        handle.update_metrics(|m| {
            let c = m.counter("refs_total");
            m.inc(c, 10);
        });
        handle.publish_heartbeat(&ServeHeartbeat {
            refs: 53,
            ..ServeHeartbeat::default()
        });
        let (code, _, body) = get(server.local_addr(), "/metrics");
        assert_eq!(code, 200);
        assert!(body.contains("refs_total 53"), "{body}");
        let (code, _, body) = get(server.local_addr(), "/health");
        assert_eq!(code, 200);
        assert!(body.contains("\"refs\":53"), "{body}");
        handle.finish_run();
        assert!(handle.is_done());
        server.shutdown();
    }

    #[test]
    fn health_flips_to_done_after_finish() {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let handle = server.handle();
        assert!(!handle.is_done());
        handle.finish_run();
        assert!(handle.is_done());
        let (_, _, body) = get(server.local_addr(), "/health");
        assert!(body.contains("\"status\":\"done\""), "{body}");
        server.shutdown();
    }

    #[test]
    fn events_stream_delivers_windows_in_order_and_ends() {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /events HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        for seg in 0..3u64 {
            handle.publish_window(&WindowRecord {
                window: seg,
                segment: seg,
                refs_start: seg * 10,
                refs_end: seg * 10 + 10,
                read_ins: 4,
                read_in_hits: 2,
                mru_pos0_hits: 1,
                write_backs: 1,
                strategies: Vec::new(),
            });
        }
        handle.finish_run();
        let mut reader = BufReader::new(stream);
        let mut ids = Vec::new();
        let mut names = Vec::new();
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line).unwrap() == 0 {
                break;
            }
            if let Some(rest) = line.strip_prefix("event: ") {
                names.push(rest.trim().to_owned());
            }
            if let Some(rest) = line.strip_prefix("id: ") {
                ids.push(rest.trim().parse::<u64>().unwrap());
            }
        }
        assert!(
            names.iter().filter(|n| n.as_str() == "window").count() >= 3,
            "{names:?}"
        );
        assert_eq!(names.last().map(String::as_str), Some("end"), "{names:?}");
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ordered ids: {ids:?}");
        server.shutdown();
    }

    #[test]
    fn publish_contention_lands_on_metrics_and_events() {
        use crate::contention::{
            ContentionObserver, ContentionReport, PhasedLatencyRecorder, PhasedSample,
            StripeContention,
        };

        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let handle = server.handle();

        // Subscribe before publishing so the event is guaranteed seen.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /events HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();

        let mut obs = StripeContention::new(2);
        obs.on_request(0, 10, 100, true);
        obs.on_request(0, 30, 200, false);
        obs.on_request(1, 5, 50, true);
        let mut phases = PhasedLatencyRecorder::new(1);
        phases.should_sample();
        phases.record(PhasedSample {
            total_ns: 150,
            wait_ns: 10,
            service_ns: 100,
        });
        let mut report = ContentionReport {
            stripes: obs.stripes().to_vec(),
            phases,
        };
        report.stripes[0].occupancy = 7;
        handle.publish_contention(&report, 4, 3);
        handle.finish_run();

        let (code, _, body) = get(addr, "/metrics");
        assert_eq!(code, 200);
        assert!(
            body.contains("serve_stripe_accesses_total{stripe=\"0\"} 2"),
            "{body}"
        );
        assert!(
            body.contains("serve_stripe_hits_total{stripe=\"1\"} 1"),
            "{body}"
        );
        assert!(
            body.contains("serve_stripe_occupancy{stripe=\"0\"} 7"),
            "{body}"
        );
        assert!(body.contains("serve_stripe_wait_ns"), "{body}");
        assert!(body.contains("serve_stripe_hold_ns"), "{body}");

        let mut reader = BufReader::new(stream);
        let mut names = Vec::new();
        let mut payload = None;
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line).unwrap() == 0 {
                break;
            }
            if let Some(rest) = line.strip_prefix("event: ") {
                names.push(rest.trim().to_owned());
            }
            if let Some(rest) = line.strip_prefix("data: ") {
                if names.last().map(String::as_str) == Some("contention") {
                    payload = Some(rest.trim().to_owned());
                }
            }
        }
        assert!(names.iter().any(|n| n == "contention"), "{names:?}");
        let v: serde_json::Value =
            serde_json::from_str(&payload.expect("contention data")).unwrap();
        assert_eq!(v["summary"]["threads"].as_u64(), Some(4));
        assert_eq!(v["summary"]["requests"].as_u64(), Some(3));
        assert_eq!(v["stripes"][0]["accesses"].as_u64(), Some(2));
        server.shutdown();
    }

    #[test]
    fn hostile_requests_get_4xx_and_the_server_survives() {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        // Oversized header block → 431.
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut junk = b"GET / HTTP/1.1\r\nX-Junk: ".to_vec();
        junk.extend(std::iter::repeat(b'a').take(MAX_REQUEST_BYTES + 64));
        stream.write_all(&junk).unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 431"), "{reply}");

        // Bad method → 405 with Allow.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 405"), "{reply}");
        assert!(reply.contains("Allow: GET"), "{reply}");

        // Garbage request line → 400.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"\x00\x01garbage\r\n\r\n").unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");

        // The server still answers a well-formed request afterwards.
        let (code, _, _) = get(addr, "/health");
        assert_eq!(code, 200);
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_and_is_idempotent_via_drop() {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        server.handle().publish_registry(&sample_registry());
        let (code, _, body) = get(addr, "/metrics");
        assert_eq!(code, 200);
        assert!(body.contains("refs_total 42"));
        server.shutdown(); // Drop then runs shutdown_impl again: no-op
        assert!(
            TcpStream::connect(addr).is_err() || {
                // Connecting may briefly succeed while the socket drains;
                // a request must not be answered either way.
                let mut s = TcpStream::connect(addr).unwrap();
                let _ = s.write_all(b"GET /health HTTP/1.1\r\n\r\n");
                let mut out = String::new();
                let _ = s.set_read_timeout(Some(Duration::from_millis(200)));
                s.read_to_string(&mut out)
                    .map(|_| out.is_empty())
                    .unwrap_or(true)
            }
        );
    }
}
