//! Daemon lifecycle: listener, connection threads, graceful shutdown.
//!
//! Thread layout (all spawned here; lint rule L5 sanctions `crates/serve`
//! alongside `crates/par` as the only crates allowed to spawn):
//!
//! * **batcher** — built first; runs the engine builder closure so the
//!   non-`Send` model lives entirely on this thread, then loops in
//!   [`crate::batcher::run`]. [`Server::start`] blocks until the engine
//!   is built, so a returned `Server` is ready to answer its first
//!   request (and a builder panic surfaces as a startup error, not a
//!   hung daemon).
//! * **acceptor** — blocking `accept` loop; one handler thread per
//!   connection. Shutdown unblocks it with a loopback self-connect.
//! * **conn handlers** — speak the binary protocol (persistent, many
//!   requests per connection) or the one-shot HTTP fallback. They only
//!   decode, enqueue, wait on the response slot, and encode — all model
//!   work happens on the batcher thread.
//!
//! Shutdown ordering matters: the queue is closed first so the batcher
//! drains and answers every accepted request, *then* connection sockets
//! are shut down to unblock idle reads. No accepted request is ever
//! dropped without a response.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::batcher::{self, BatchPolicy, Pending, Queue, ResponseSlot};
use crate::protocol::{
    decode_request, encode_response, read_frame, write_frame, Op, RecRequest, Status, MAGIC,
};
use crate::stats::StatsCell;
use crate::{RecEngine, ServeConfig};

/// How long a connection thread waits for the batcher to answer before
/// giving up on the request. The batcher answers every accepted request
/// (engine panics included), so this only guards daemon teardown races.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// Cap on HTTP fallback request heads.
const MAX_HTTP_HEAD: usize = 16 * 1024;

struct ConnSlot {
    handle: JoinHandle<()>,
    stream: TcpStream,
}

/// A running daemon. Dropping it without [`Server::shutdown`] detaches
/// the threads; call `shutdown` for a clean join.
pub struct Server {
    addr: SocketAddr,
    vocab: usize,
    queue: Arc<Queue>,
    stats: Arc<StatsCell>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    batcher: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<ConnSlot>>>,
}

impl Server {
    /// Bind 127.0.0.1:`cfg.port` and start serving. `builder` runs on the
    /// batcher thread (the engine's tensors are not `Send`); this call
    /// blocks until the engine is built and the daemon can answer
    /// requests.
    pub fn start<F>(cfg: ServeConfig, builder: F) -> std::io::Result<Server>
    where
        F: FnOnce() -> Box<dyn RecEngine> + Send + 'static,
    {
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        let addr = listener.local_addr()?;
        let queue = Arc::new(Queue::new(cfg.queue_cap));
        let stats = Arc::new(StatsCell::new());
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<ConnSlot>>> = Arc::new(Mutex::new(Vec::new()));

        let policy = BatchPolicy {
            max_batch: cfg.max_batch.max(1),
            linger: Duration::from_micros(cfg.linger_us),
        };
        let workers = cfg.workers;
        let (ready_tx, ready_rx) = mpsc::channel::<usize>();
        let batcher = {
            let queue = Arc::clone(&queue);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("slime-serve-batcher".into())
                .spawn(move || {
                    // Thread-local: the process-wide count stays as is.
                    slime_par::set_thread_cap(workers);
                    let mut engine = builder();
                    // Ignore send failure: start() only drops the receiver
                    // after a successful recv.
                    let _ = ready_tx.send(engine.vocab());
                    batcher::run(&queue, engine.as_mut(), policy, &stats);
                })?
        };
        let vocab = match ready_rx.recv() {
            Ok(v) => v,
            Err(_) => {
                // The builder panicked before reporting readiness.
                let _ = batcher.join();
                return Err(std::io::Error::other("engine builder failed"));
            }
        };

        let acceptor = {
            let queue = Arc::clone(&queue);
            let stats = Arc::clone(&stats);
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("slime-serve-acceptor".into())
                .spawn(move || {
                    for incoming in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let stream = match incoming {
                            Ok(s) => s,
                            Err(_) => continue,
                        };
                        stats.connections.fetch_add(1, Ordering::Relaxed);
                        let peer = match stream.try_clone() {
                            Ok(c) => c,
                            Err(_) => continue,
                        };
                        let queue = Arc::clone(&queue);
                        let stats = Arc::clone(&stats);
                        let spawned = std::thread::Builder::new()
                            .name("slime-serve-conn".into())
                            .spawn(move || handle_conn(stream, &queue, &stats, vocab));
                        if let Ok(handle) = spawned {
                            let mut slots = conns.lock().unwrap_or_else(|e| e.into_inner());
                            // Reap finished handlers so a long-lived daemon
                            // does not accumulate one slot per past
                            // connection.
                            slots.retain(|s| !s.handle.is_finished());
                            slots.push(ConnSlot {
                                handle,
                                stream: peer,
                            });
                        }
                    }
                })?
        };

        slime_trace::event!("serve.start", {
            "addr": format!("{addr}"),
            "vocab": vocab,
            "max_batch": policy.max_batch,
            "linger_us": cfg.linger_us
        });
        Ok(Server {
            addr,
            vocab,
            queue,
            stats,
            stop,
            acceptor: Some(acceptor),
            batcher: Some(batcher),
            conns,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Catalog size served by the engine.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Snapshot the serving counters.
    pub fn stats(&self) -> crate::StatsSnapshot {
        self.stats.snapshot()
    }

    /// Stop accepting, drain the queue (every accepted request is
    /// answered), and join every thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        // Close admission first so the batcher drains to empty and exits.
        self.queue.begin_shutdown();
        // Unblock the acceptor's blocking accept with a throwaway connect.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.batcher.take() {
            let _ = h.join();
        }
        // All slots are filled now; unblock idle reads and join handlers.
        let conns = std::mem::take(&mut *self.conns.lock().unwrap_or_else(|e| e.into_inner()));
        for c in &conns {
            let _ = c.stream.shutdown(std::net::Shutdown::Both);
        }
        for c in conns {
            let _ = c.handle.join();
        }
        slime_trace::event!("serve.stop", {});
    }
}

/// Enqueue one decoded request and wait for its response. Returns the
/// wire status and items; admission rejects come back immediately.
fn serve_request(queue: &Queue, stats: &StatsCell, req: RecRequest) -> (Status, Vec<(u32, f32)>) {
    let slot = Arc::new(ResponseSlot::new());
    let accepted = queue.push(
        Pending {
            req,
            slot: Arc::clone(&slot),
            enqueued: std::time::Instant::now(),
        },
        stats,
    );
    if !accepted {
        return (Status::Overloaded, Vec::new());
    }
    match slot.wait(RESPONSE_TIMEOUT) {
        Some(resp) => resp,
        None => (Status::Internal, Vec::new()),
    }
}

/// Per-connection loop: sniff the 4-byte preamble, then speak binary
/// frames or one-shot HTTP.
fn handle_conn(mut stream: TcpStream, queue: &Queue, stats: &StatsCell, vocab: usize) {
    let _ = stream.set_nodelay(true);
    let mut preamble = [0u8; 4];
    if stream.read_exact(&mut preamble).is_err() {
        return;
    }
    if preamble == MAGIC {
        serve_binary(stream, queue, stats, vocab);
    } else {
        stats.http_requests.fetch_add(1, Ordering::Relaxed);
        serve_http(stream, &preamble, queue, stats, vocab);
    }
}

fn serve_binary(mut stream: TcpStream, queue: &Queue, stats: &StatsCell, vocab: usize) {
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            Ok(None) | Err(_) => return, // clean EOF or socket teardown
        };
        let (status, items) = match decode_request(&payload) {
            Ok(Op::Recommend(req)) => serve_request(queue, stats, req),
            Ok(Op::Ping) => (Status::Ok, vec![(vocab as u32, 0.0f32)]),
            Err(_) => (Status::BadRequest, Vec::new()),
        };
        if write_frame(&mut stream, &encode_response(status, &items)).is_err() {
            return;
        }
    }
}

/// Parse `name` out of a `a=1&b=2` query string.
fn query_param<'q>(query: &'q str, name: &str) -> Option<&'q str> {
    query.split('&').find_map(|pair| {
        let (key, value) = pair.split_once('=')?;
        (key == name).then_some(value)
    })
}

/// Minimal HTTP/1.1 fallback: `GET /recommend?h=1,2,3&k=10&exclude=1`,
/// `GET /healthz`, `GET /stats`. One request per connection.
fn serve_http(
    mut stream: TcpStream,
    preamble: &[u8; 4],
    queue: &Queue,
    stats: &StatsCell,
    vocab: usize,
) {
    // Read the rest of the head (we already consumed 4 bytes).
    let mut head = preamble.to_vec();
    let mut buf = [0u8; 1024];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() > MAX_HTTP_HEAD {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => head.extend_from_slice(&buf[..n]),
        }
    }
    let head = String::from_utf8_lossy(&head);
    let mut parts = head.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m, t),
        _ => return,
    };
    if method != "GET" {
        respond_http(&mut stream, 405, "{\"error\":\"method not allowed\"}");
        return;
    }
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    match path {
        "/healthz" => {
            let body = format!("{{\"status\":\"ok\",\"vocab\":{vocab}}}");
            respond_http(&mut stream, 200, &body);
        }
        "/stats" => {
            respond_http(&mut stream, 200, &stats.snapshot().to_json());
        }
        "/recommend" => {
            let history: Vec<usize> = query_param(query, "h")
                .map(|h| h.split(',').filter_map(|s| s.parse().ok()).collect())
                .unwrap_or_default();
            let k: usize = query_param(query, "k")
                .and_then(|s| s.parse().ok())
                .unwrap_or(10);
            let exclude = matches!(query_param(query, "exclude"), Some("1") | Some("true"));
            let (status, items) = serve_request(
                queue,
                stats,
                RecRequest {
                    history,
                    k,
                    exclude,
                },
            );
            match status {
                Status::Ok => {
                    let rows: Vec<String> = items
                        .iter()
                        .map(|(item, score)| format!("{{\"item\":{item},\"score\":{score}}}"))
                        .collect();
                    let body = format!("{{\"items\":[{}]}}", rows.join(","));
                    respond_http(&mut stream, 200, &body);
                }
                Status::Overloaded => respond_http(&mut stream, 503, "{\"error\":\"overloaded\"}"),
                Status::BadRequest => respond_http(&mut stream, 400, "{\"error\":\"bad request\"}"),
                Status::Internal => respond_http(&mut stream, 500, "{\"error\":\"internal\"}"),
            }
        }
        _ => respond_http(&mut stream, 404, "{\"error\":\"not found\"}"),
    }
    // The acceptor holds a clone of this socket for shutdown, so dropping
    // our handle alone would not send FIN — shut the connection down
    // explicitly so `Connection: close` clients see EOF.
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

fn respond_http(stream: &mut TcpStream, code: u16, body: &str) {
    let reason = match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let resp = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(resp.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Client;

    /// Deterministic toy engine: item score = (first history id * 31 +
    /// item) % 97, no model needed.
    struct ToyEngine {
        vocab: usize,
    }

    impl RecEngine for ToyEngine {
        fn vocab(&self) -> usize {
            self.vocab
        }
        fn recommend(&mut self, reqs: &[&RecRequest]) -> Vec<Vec<(u32, f32)>> {
            reqs.iter()
                .map(|r| {
                    let seed = r.history.first().copied().unwrap_or(0);
                    let mut scored: Vec<(u32, f32)> = (1..self.vocab)
                        .filter(|i| !r.exclude || !r.history.contains(i))
                        .map(|i| (i as u32, ((seed * 31 + i) % 97) as f32))
                        .collect();
                    scored.sort_by(|a, b| {
                        b.1.partial_cmp(&a.1)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(a.0.cmp(&b.0))
                    });
                    scored.truncate(r.k);
                    scored
                })
                .collect()
        }
    }

    fn boot(max_batch: usize, linger_us: u64) -> Server {
        Server::start(
            ServeConfig {
                port: 0,
                workers: 0,
                max_batch,
                linger_us,
                queue_cap: 64,
            },
            || Box::new(ToyEngine { vocab: 50 }),
        )
        .expect("server boots")
    }

    #[test]
    fn workers_cap_only_the_batcher_thread() {
        let before = slime_par::num_threads();
        let (seen_tx, seen_rx) = std::sync::mpsc::channel();
        let server = Server::start(
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            move || {
                let _ = seen_tx.send(slime_par::num_threads());
                Box::new(ToyEngine { vocab: 50 })
            },
        )
        .expect("server boots");
        assert_eq!(seen_rx.recv().unwrap(), 1, "the engine builder runs capped");
        assert_eq!(
            slime_par::num_threads(),
            before,
            "the caller keeps its count"
        );
        server.shutdown();
    }

    #[test]
    fn binary_round_trip_ping_and_recommend() {
        let server = boot(4, 200);
        let mut client = Client::connect(server.addr()).unwrap();
        assert_eq!(client.ping().unwrap(), 50);
        let items = client.recommend(&[3, 4], 5, false).unwrap();
        assert_eq!(items.len(), 5);
        // Same request again: identical answer (engine is deterministic).
        assert_eq!(client.recommend(&[3, 4], 5, false).unwrap(), items);
        // Out-of-vocab id is a bad request, not a panic.
        match client.recommend(&[1000], 5, false) {
            Err(crate::ClientError::Rejected(Status::BadRequest)) => {}
            other => panic!("expected bad request, got {other:?}"),
        }
        let snap = server.stats();
        assert_eq!(snap.served, 2);
        assert_eq!(snap.bad_requests, 1);
        server.shutdown();
    }

    #[test]
    fn http_fallback_serves_recommend_health_and_stats() {
        let server = boot(4, 0);
        let get = |path: &str| -> String {
            let mut s = TcpStream::connect(server.addr()).unwrap();
            s.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
                .unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            out
        };
        let health = get("/healthz");
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        assert!(health.contains("\"vocab\":50"));
        let rec = get("/recommend?h=3,4&k=5");
        assert!(rec.starts_with("HTTP/1.1 200"), "{rec}");
        assert!(rec.contains("\"items\":["));
        let bad = get("/recommend?h=3&k=0");
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
        let missing = get("/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        let stats = get("/stats");
        assert!(stats.contains("\"served\":1"), "{stats}");
        server.shutdown();
    }

    #[test]
    fn shutdown_with_idle_connection_does_not_hang() {
        let server = boot(2, 100);
        // An idle binary connection sits blocked in read_frame.
        let _idle = Client::connect(server.addr()).unwrap();
        let mut active = Client::connect(server.addr()).unwrap();
        assert_eq!(active.recommend(&[1], 3, false).unwrap().len(), 3);
        server.shutdown(); // must join cleanly despite the idle reader
    }
}
