//! The connection plumbing: a std-only accept loop, one thread per
//! connection, keep-alive with a shutdown-poll quantum, per-request
//! panic isolation, and a graceful shutdown that drains in-flight work
//! and releases the port.
//!
//! Thread-per-connection (rather than a fixed worker pool) is a
//! deliberate choice for this protocol: connections are keep-alive, so a
//! pool of N workers pinned to N persistent sockets would starve every
//! client beyond the N-th — exactly the load-generator's shape (hundreds
//! of concurrent clients, one connection each). `max_connections` bounds
//! the thread count instead; see `docs/adr/008-whatif-service.md`.

use crate::error::WireError;
use crate::http::{read_request, respond_json, ReadOutcome};
use crate::service::Service;
use provabs_provenance::guard::run_isolated_mut;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything tunable about a server instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port `0` picks a free port (the handle reports it).
    pub addr: String,
    /// Request-body cap in bytes; larger declared bodies get `413`.
    pub max_body: usize,
    /// Concurrent-connection cap; excess connections get `503` and close.
    pub max_connections: usize,
    /// Where `save` artifacts live and `artifact` creates resolve.
    pub artifact_dir: PathBuf,
    /// The idle-poll quantum: how long a keep-alive connection blocks in
    /// `read` before re-checking the shutdown flag. Also the slow-client
    /// timeout for mid-request reads.
    pub read_timeout: Duration,
    /// Write timeout on each connection. A client that stops *reading*
    /// its response without disconnecting stalls writes on TCP
    /// backpressure; once a write blocks this long the client is treated
    /// as gone and the connection is closed. This bounds how long a
    /// stalled reader can pin its connection thread (and its slot under
    /// `max_connections`); it holds no lock meanwhile, so other requests
    /// — on the same session too — are not delayed by it.
    pub write_timeout: Duration,
    /// Deadline applied to compress/ask requests that do not send their
    /// own `deadline_ms`; `None` means unlimited.
    pub default_deadline_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_body: 1 << 20,
            max_connections: 512,
            artifact_dir: std::env::temp_dir().join("provabs-artifacts"),
            read_timeout: Duration::from_millis(250),
            write_timeout: Duration::from_secs(5),
            default_deadline_ms: None,
        }
    }
}

/// A running server: the bound address, the shared [`Service`], and the
/// shutdown controls. Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<Service>,
    shutdown: Arc<AtomicBool>,
    live: Arc<AtomicUsize>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Binds, spawns the accept loop, and returns once the server is
    /// reachable.
    pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
        std::fs::create_dir_all(&config.artifact_dir)?;
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let service = Arc::new(Service::new(
            config.artifact_dir.clone(),
            config.default_deadline_ms,
        ));
        let shutdown = Arc::new(AtomicBool::new(false));
        let live = Arc::new(AtomicUsize::new(0));

        let accept_service = Arc::clone(&service);
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_live = Arc::clone(&live);
        let accept_config = config.clone();
        let accept_thread = std::thread::Builder::new()
            .name("provabs-accept".to_string())
            .spawn(move || {
                accept_loop(
                    &listener,
                    &accept_config,
                    &accept_service,
                    &accept_shutdown,
                    &accept_live,
                );
            })?;

        Ok(ServerHandle {
            addr,
            service,
            shutdown,
            live,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the server actually bound (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service (registry access for in-process callers).
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Graceful shutdown: stop accepting, let in-flight requests finish,
    /// and wait up to `drain` for every connection to wind down. Returns
    /// `true` if the server drained fully within the timeout. Idempotent.
    pub fn stop(&mut self, drain: Duration) -> bool {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept_thread.take() {
            // The accept loop blocks in accept(2); a throwaway local
            // connection wakes it so it can observe the flag and exit.
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
            let _ = accept.join();
        }
        let deadline = Instant::now() + drain;
        while self.live.load(Ordering::Relaxed) > 0 {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        true
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop(Duration::from_secs(10));
    }
}

fn accept_loop(
    listener: &TcpListener,
    config: &ServerConfig,
    service: &Arc<Service>,
    shutdown: &Arc<AtomicBool>,
    live: &Arc<AtomicUsize>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shutdown.load(Ordering::SeqCst) {
            // The wakeup connection (or a late client) during shutdown.
            return;
        }
        // Reserve the slot atomically: a load-then-add pair could race
        // the decrement of exiting handlers past `max_connections`.
        let reserved = live
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < config.max_connections).then_some(n + 1)
            })
            .is_ok();
        if !reserved {
            let mut stream = stream;
            let busy = WireError::new(
                503,
                "server_busy",
                format!("connection limit ({}) reached", config.max_connections),
            );
            let _ = respond_json(&mut stream, 503, &busy.body(), true);
            continue;
        }
        let service = Arc::clone(service);
        let shutdown = Arc::clone(shutdown);
        let conn_live = Arc::clone(live);
        let config = config.clone();
        let spawned = std::thread::Builder::new()
            .name("provabs-conn".to_string())
            .spawn(move || {
                let _release = DecrementOnDrop(&conn_live);
                serve_connection(stream, &config, &service, &shutdown);
            });
        if spawned.is_err() {
            live.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Decrements the live-connection count however the thread exits.
struct DecrementOnDrop<'a>(&'a AtomicUsize);

impl Drop for DecrementOnDrop<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One connection's keep-alive loop: read a request, dispatch it inside
/// panic isolation, repeat until the client closes, an error ends the
/// connection, or shutdown is observed at an idle tick.
fn serve_connection(
    mut stream: TcpStream,
    config: &ServerConfig,
    service: &Arc<Service>,
    shutdown: &Arc<AtomicBool>,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(config.read_timeout)).is_err() {
        return;
    }
    // A write that blocks past this is a client that stopped reading;
    // the resulting timeout error closes the connection like any other
    // mid-response I/O failure.
    if stream
        .set_write_timeout(Some(config.write_timeout))
        .is_err()
    {
        return;
    }
    let Ok(clone) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(clone);
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match read_request(&mut reader, &mut stream, config.max_body) {
            Ok(ReadOutcome::Request(req)) => {
                let close = req.wants_close();
                // A panicking handler poisons nothing and takes down
                // nothing but its own request: the same isolation wall
                // the session uses for its evaluation workers.
                match run_isolated_mut(|| service.handle(&req, &mut stream)) {
                    Ok(Ok(())) => {}
                    // The response write itself failed — client is gone.
                    Ok(Err(_)) => return,
                    Err(panic_message) => {
                        let wire = WireError::new(
                            500,
                            "handler_panic",
                            format!("request handler panicked: {panic_message}"),
                        );
                        let _ = respond_json(&mut stream, 500, &wire.body(), true);
                        return;
                    }
                }
                if close {
                    return;
                }
            }
            Ok(ReadOutcome::Closed) => return,
            // Idle tick: nothing arrived within the read quantum — loop
            // around to re-check the shutdown flag.
            Ok(ReadOutcome::Idle) => {}
            Err(e) => {
                // Protocol errors answer with their typed status where
                // one exists (413/400/408); raw I/O failures just close.
                if let Some((status, body)) = e.response() {
                    let _ = respond_json(&mut stream, status, &body, true);
                }
                return;
            }
        }
    }
}
