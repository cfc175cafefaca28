//! Route dispatch: the what-if service's behaviour, one method per
//! route, independent of the connection plumbing in [`crate::server`].
//!
//! ```text
//! GET    /healthz                     liveness probe
//! GET    /stats                       all sessions' observability hooks
//! GET    /sessions                    hosted session names
//! POST   /sessions                    create (workload | provenance | artifact)
//! GET    /sessions/{name}             one session's hooks (alias: /stats)
//! DELETE /sessions/{name}             drop a session
//! POST   /sessions/{name}/compress    run guarded compression
//! POST   /sessions/{name}/ask         stream scenario answers (chunked)
//! POST   /sessions/{name}/save        persist the compiled artifact
//! ```
//!
//! Compress and ask each build a per-request [`Guard`]: the request's
//! `deadline_ms` (or the server default) becomes the [`Budget`], and a
//! fresh [`CancelToken`] is wired to the client's socket — a client that
//! disconnects cancels its own work at the next guard checkpoint
//! (compression) or chunk boundary (ask). The guard is *passed* to the
//! call it bounds ([`Session::compress_with`], [`Session::ask_with`]) and
//! dies with the request; the hosted session is shared by reference and
//! never holds one, so no request waits on another's session and there is
//! nothing to reset on any exit path. Numbers ride the wire as
//! shortest-round-trip decimal, so answers are bit-for-bit what a direct
//! [`Session::ask`] returns.

use crate::error::WireError;
use crate::http::{respond_json, ChunkedWriter, Request};
use crate::json::Json;
use crate::registry::{Registry, SessionEntry};
use provabs_datagen::workload::{Workload, WorkloadConfig};
use provabs_scenario::Scenario;
use provabs_session::{
    ArtifactOrigin, Budget, CancelToken, Completion, Guard, Session, SessionBuilder, Strategy,
    Target,
};
use provabs_trees::generate::tree_shape;
use std::io;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Scenarios evaluated per streamed chunk when the request does not pick
/// its own `chunk` size.
pub const DEFAULT_ASK_CHUNK: usize = 64;

/// The service state: the registry plus the knobs routes need.
pub struct Service {
    registry: Registry,
    artifact_dir: PathBuf,
    default_deadline_ms: Option<u64>,
    /// Requests dispatched (any route, including errors).
    pub requests: AtomicU64,
}

/// What a routed request wants done — pure data, so [`Service::handle`]
/// can wire the socket-dependent parts (disconnect watcher, streaming)
/// in one place.
enum Action {
    /// A complete JSON response.
    Respond(u16, Json),
    /// Run guarded compression on a session.
    Compress {
        entry: Arc<SessionEntry>,
        deadline_ms: Option<u64>,
    },
    /// Stream scenario answers from a session.
    Ask {
        entry: Arc<SessionEntry>,
        scenarios: Vec<Scenario>,
        deadline_ms: Option<u64>,
        chunk: usize,
    },
}

impl Service {
    /// A service persisting artifacts under `artifact_dir`.
    pub fn new(artifact_dir: PathBuf, default_deadline_ms: Option<u64>) -> Self {
        Self {
            registry: Registry::default(),
            artifact_dir,
            default_deadline_ms,
            requests: AtomicU64::new(0),
        }
    }

    /// The hosted-session registry (for tests and stats).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Dispatches one request and writes its response to `stream`.
    pub fn handle(&self, req: &Request, stream: &mut TcpStream) -> io::Result<()> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let close = req.wants_close();
        match self.route(req) {
            Ok(Action::Respond(status, body)) => respond_json(stream, status, &body, close),
            Ok(Action::Compress { entry, deadline_ms }) => {
                self.run_compress(&entry, deadline_ms, close, stream)
            }
            Ok(Action::Ask {
                entry,
                scenarios,
                deadline_ms,
                chunk,
            }) => self.run_ask(&entry, &scenarios, deadline_ms, chunk, close, stream),
            Err(e) => respond_json(stream, e.status, &e.body(), close),
        }
    }

    fn route(&self, req: &Request) -> Result<Action, WireError> {
        let segments = req.segments();
        match (req.method.as_str(), segments.as_slice()) {
            ("GET", []) => Ok(Action::Respond(
                200,
                Json::obj([
                    ("service", Json::from("provabs-server")),
                    ("sessions", Json::from(self.registry.len())),
                ]),
            )),
            ("GET", ["healthz"]) => Ok(Action::Respond(200, Json::obj([("ok", Json::from(true))]))),
            ("GET", ["stats"]) => Ok(Action::Respond(200, self.global_stats())),
            ("GET", ["sessions"]) => {
                let names: Vec<Json> = self
                    .registry
                    .entries()
                    .iter()
                    .map(|e| Json::from(e.name.clone()))
                    .collect();
                Ok(Action::Respond(
                    200,
                    Json::obj([("sessions", Json::Arr(names))]),
                ))
            }
            ("POST", ["sessions"]) => self.create(&body_json(req)?),
            ("GET", ["sessions", name]) | ("GET", ["sessions", name, "stats"]) => {
                let entry = self.entry(name)?;
                Ok(Action::Respond(200, session_stats(&entry)))
            }
            ("DELETE", ["sessions", name]) => match self.registry.remove(name) {
                Some(_) => Ok(Action::Respond(
                    200,
                    Json::obj([("deleted", Json::from(*name))]),
                )),
                None => Err(WireError::unknown_session(name)),
            },
            ("POST", ["sessions", name, "compress"]) => {
                let entry = self.entry(name)?;
                let body = body_json(req)?;
                if body.get("shards").is_some() {
                    return Err(WireError::bad_request(
                        "\"shards\" was removed: compression runs the session's strategy",
                    ));
                }
                Ok(Action::Compress {
                    entry,
                    deadline_ms: opt_u64(&body, "deadline_ms")?,
                })
            }
            ("POST", ["sessions", name, "ask"]) => {
                let entry = self.entry(name)?;
                let body = body_json(req)?;
                let scenarios = parse_scenarios(&body)?;
                let chunk = opt_u64(&body, "chunk")?
                    .map(|c| (c as usize).max(1))
                    .unwrap_or(DEFAULT_ASK_CHUNK);
                Ok(Action::Ask {
                    entry,
                    scenarios,
                    deadline_ms: opt_u64(&body, "deadline_ms")?,
                    chunk,
                })
            }
            ("POST", ["sessions", name, "save"]) => {
                let entry = self.entry(name)?;
                let body = body_json(req)?;
                let artifact = require_str(&body, "artifact")?;
                let path = self.artifact_path(artifact)?;
                entry.session.save(&path).map_err(WireError::from)?;
                let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                Ok(Action::Respond(
                    200,
                    Json::obj([
                        ("saved", Json::from(artifact)),
                        ("bytes", Json::from(bytes)),
                    ]),
                ))
            }
            // The path shape exists but the method is wrong → 405, not 404.
            (_, [] | ["healthz" | "stats" | "sessions"] | ["sessions", _] | ["sessions", _, _]) => {
                Err(WireError::new(
                    405,
                    "method_not_allowed",
                    format!("{} is not supported on {}", req.method, req.path),
                ))
            }
            _ => Err(WireError::new(
                404,
                "unknown_route",
                format!("no route for {}", req.path),
            )),
        }
    }

    fn entry(&self, name: &str) -> Result<Arc<SessionEntry>, WireError> {
        let entry = self
            .registry
            .get(name)
            .ok_or_else(|| WireError::unknown_session(name))?;
        entry.requests.fetch_add(1, Ordering::Relaxed);
        Ok(entry)
    }

    /// Resolves a wire-supplied artifact name inside the configured
    /// artifact directory — names are opaque identifiers, never paths.
    fn artifact_path(&self, name: &str) -> Result<PathBuf, WireError> {
        if name.is_empty() || name.len() > 128 || name.contains(['/', '\\']) || name.contains("..")
        {
            return Err(WireError::bad_request(format!(
                "artifact names must be plain identifiers, got {name:?}"
            )));
        }
        Ok(self.artifact_dir.join(format!("{name}.provabs")))
    }

    fn create(&self, body: &Json) -> Result<Action, WireError> {
        let name = require_str(body, "name")?;
        if name.is_empty() || name.len() > 128 || name.contains(['/', '\\']) {
            return Err(WireError::bad_request(format!(
                "session names must be short and slash-free, got {name:?}"
            )));
        }
        let strategy = opt_parsed::<Strategy>(body, "strategy", "bad_strategy")?;
        let target = opt_parsed::<Target>(body, "target", "bad_target")?;
        let bound = opt_u64(body, "bound")?;

        let session = if body.get("artifact").is_some() {
            let artifact = require_str(body, "artifact")?;
            let path = self.artifact_path(artifact)?;
            if !path.is_file() {
                return Err(WireError::new(
                    404,
                    "unknown_artifact",
                    format!("no saved artifact named {artifact:?}"),
                ));
            }
            let mapped = opt_bool(body, "mapped")?.unwrap_or(false);
            // An artifact carries its full compressed state; strategy /
            // bound / target do not apply to a reopened session.
            if mapped {
                Session::open_mapped(&path)
            } else {
                Session::open(&path)
            }
            .map_err(WireError::from)?
        } else {
            let mut builder = if body.get("workload").is_some() {
                self.workload_builder(body)?
            } else if body.get("provenance").is_some() {
                let provenance = require_str(body, "provenance")?;
                let b = SessionBuilder::from_text(provenance).map_err(WireError::from)?;
                match body.get("forest") {
                    Some(f) => {
                        let text = f
                            .as_str()
                            .ok_or_else(|| WireError::bad_request("\"forest\" must be a string"))?;
                        b.forest_text(text).map_err(WireError::from)?
                    }
                    None => b,
                }
            } else {
                return Err(WireError::bad_request(
                    "create needs one of \"workload\", \"provenance\", or \"artifact\"",
                ));
            };
            if let Some(s) = strategy {
                builder = builder.strategy(s);
            }
            if let Some(t) = target {
                builder = builder.target(t);
            }
            if let Some(b) = bound {
                builder = builder.bound(b as usize);
            }
            builder.build().map_err(WireError::from)?
        };

        let (polys, size_m, size_v) = session.original_size();
        let entry = self.registry.insert(name, session)?;
        Ok(Action::Respond(
            201,
            Json::obj([
                ("created", Json::from(entry.name.clone())),
                ("polys", Json::from(polys)),
                ("size_m", Json::from(size_m)),
                ("size_v", Json::from(size_v)),
            ]),
        ))
    }

    fn workload_builder(&self, body: &Json) -> Result<SessionBuilder, WireError> {
        let workload = match require_str(body, "workload")? {
            "tpch_q5" => Workload::TpchQ5,
            "tpch_q10" => Workload::TpchQ10,
            "tpch_q1" => Workload::TpchQ1,
            "telephony" => Workload::Telephony,
            "supply_chain" => Workload::SupplyChain,
            other => {
                return Err(WireError::new(
                    422,
                    "unknown_workload",
                    format!(
                        "unknown workload {other:?} (expected tpch_q5, tpch_q10, tpch_q1, \
                         telephony, or supply_chain)"
                    ),
                ))
            }
        };
        let mut config = WorkloadConfig::default();
        if let Some(scale) = body.get("scale") {
            config.scale = scale
                .as_f64()
                .filter(|s| *s > 0.0)
                .ok_or_else(|| WireError::bad_request("\"scale\" must be a positive number"))?;
        }
        if let Some(seed) = opt_u64(body, "seed")? {
            config.seed = seed;
        }
        if let Some(modulus) = opt_u64(body, "param_modulus")? {
            // Zero would reach `rem_euclid(0)`; above `i64::MAX` it would
            // wrap negative.
            config.param_modulus =
                i64::try_from(modulus)
                    .ok()
                    .filter(|&m| m > 0)
                    .ok_or_else(|| {
                        WireError::new(
                            422,
                            "bad_param_modulus",
                            format!("\"param_modulus\" must be 1..=i64::MAX, got {modulus}"),
                        )
                    })?;
        }
        let tree_type = opt_u64(body, "tree_type")?.unwrap_or(2);
        if !(1..=7).contains(&tree_type) {
            return Err(WireError::new(
                422,
                "bad_tree_type",
                format!("\"tree_type\" must be 1..=7, got {tree_type}"),
            ));
        }
        let tree_type = tree_type as u8;
        let shape_idx = opt_u64(body, "shape_idx")?.unwrap_or(1) as usize;
        tree_shape(tree_type, shape_idx)
            .map_err(|e| WireError::new(422, "bad_tree_shape", e.to_string()))?;
        let mut data = workload.generate(&config);
        let forest = data.primary_tree(tree_type, shape_idx);
        Ok(SessionBuilder::new(data.polys, data.vars).forest(forest))
    }

    /// Guarded compression: the request deadline (or server default)
    /// becomes the budget, client disconnect cancels via a watcher on the
    /// socket, and the *anytime* result — complete or interrupted — comes
    /// back as `200` with its [`Completion`], even when the deadline had
    /// expired before the first step. Only configuration errors reach the
    /// error mapping.
    fn run_compress(
        &self,
        entry: &SessionEntry,
        deadline_ms: Option<u64>,
        close: bool,
        stream: &mut TcpStream,
    ) -> io::Result<()> {
        let token = CancelToken::new();
        let guard = self.request_guard(deadline_ms, &token);
        let outcome = with_disconnect_cancel(stream, &token, || {
            entry
                .session
                .compress_with(&guard)
                .map(|(result, completion)| {
                    Json::obj([
                        ("session", Json::from(entry.name.clone())),
                        ("original_size_m", Json::from(result.original_size_m)),
                        ("original_size_v", Json::from(result.original_size_v)),
                        ("compressed_size_m", Json::from(result.compressed_size_m)),
                        ("compressed_size_v", Json::from(result.compressed_size_v)),
                        ("completion", completion_json(&completion)),
                    ])
                })
                .map_err(WireError::from)
        });
        match outcome {
            Ok(body) => respond_json(stream, 200, &body, close),
            Err(e) => respond_json(stream, e.status, &e.body(), close),
        }
    }

    /// Streams scenario answers as one JSON line per scenario over a
    /// chunked response. The first chunk is evaluated *before* the
    /// response head goes out, so guard trips and scenario errors on
    /// entry come back as typed statuses (`503` / `422`), not broken
    /// streams; later failures terminate the stream with an `"error"`
    /// line. A chunk with an answer JSON has no number for (a scenario
    /// factor large enough to overflow a monomial) is such a failure,
    /// `non_finite_answer`, and none of its lines are sent. Between
    /// chunks the client socket is peeked — a disconnected client cancels
    /// the remaining work.
    fn run_ask(
        &self,
        entry: &SessionEntry,
        scenarios: &[Scenario],
        deadline_ms: Option<u64>,
        chunk: usize,
        close: bool,
        stream: &mut TcpStream,
    ) -> io::Result<()> {
        let token = CancelToken::new();
        let guard = self.request_guard(deadline_ms, &token);
        let session = &entry.session;
        // Scenarios `at..` of `batch`, answered — or refused typed when an
        // answer is one JSON cannot carry.
        let ask = |at: usize, batch: &[Scenario]| {
            let run = session
                .ask_with(batch, session.eval_options(), &guard)
                .map_err(|e| interrupted_error(e, session, &guard))?;
            for (s, values) in run.values.iter().enumerate() {
                if let Some(p) = values.iter().position(|v| !v.is_finite()) {
                    return Err(WireError::new(
                        422,
                        "non_finite_answer",
                        format!(
                            "scenario {} makes polynomial {p} {}, which JSON cannot carry",
                            at + s,
                            values[p]
                        ),
                    ));
                }
            }
            Ok(run)
        };

        let first = match ask(0, &scenarios[..scenarios.len().min(chunk)]) {
            Ok(run) => run,
            Err(wire) => return respond_json(stream, wire.status, &wire.body(), close),
        };

        // An answer holds one value per polynomial.
        let polys = first.values.first().map_or(0, Vec::len);
        let mut writer = ChunkedWriter::start(stream, 200, "application/json", close)?;
        writer.json_line(&Json::obj([
            ("session", Json::from(entry.name.clone())),
            ("polys", Json::from(polys)),
            ("scenarios", Json::from(scenarios.len())),
        ]))?;

        let mut streamed = 0usize;
        let mut elapsed_us = first.elapsed.as_micros() as u64;
        let mut pending = Some(first);
        let mut failure: Option<WireError> = None;
        while streamed < scenarios.len() {
            let run = match pending.take() {
                Some(run) => run,
                None => {
                    // A client that went away cancels its own work before
                    // the next chunk is evaluated.
                    if peer_gone(writer.stream()) {
                        token.cancel();
                    }
                    let upper = (streamed + chunk).min(scenarios.len());
                    match ask(streamed, &scenarios[streamed..upper]) {
                        Ok(run) => run,
                        Err(wire) => {
                            failure = Some(wire);
                            break;
                        }
                    }
                }
            };
            elapsed_us += run.elapsed.as_micros() as u64;
            for values in &run.values {
                writer.json_line(&Json::obj([
                    ("index", Json::from(streamed)),
                    (
                        "values",
                        Json::Arr(values.iter().map(|v| Json::from(*v)).collect()),
                    ),
                ]))?;
                streamed += 1;
            }
        }
        entry
            .scenarios
            .fetch_add(streamed as u64, Ordering::Relaxed);

        match failure {
            // The status line is long gone; the typed error body becomes
            // the stream's terminal line instead (it carries "error",
            // "status", and "message" — same shape as a non-stream error).
            Some(wire) => writer.json_line(&wire.body())?,
            None => writer.json_line(&Json::obj([
                ("done", Json::from(true)),
                ("streamed", Json::from(streamed)),
                ("elapsed_us", Json::from(elapsed_us)),
            ]))?,
        }
        writer.finish()
    }

    fn request_guard(&self, deadline_ms: Option<u64>, token: &CancelToken) -> Guard {
        let budget = match deadline_ms.or(self.default_deadline_ms) {
            Some(ms) => Budget::with_deadline(Duration::from_millis(ms)),
            None => Budget::unlimited(),
        };
        Guard::new(budget).with_cancel(token.clone())
    }

    fn global_stats(&self) -> Json {
        let sessions: Vec<Json> = self
            .registry
            .entries()
            .iter()
            .map(|e| session_stats(e))
            .collect();
        Json::obj([
            (
                "requests",
                Json::from(self.requests.load(Ordering::Relaxed)),
            ),
            ("session_count", Json::from(self.registry.len())),
            ("sessions", Json::Arr(sessions)),
        ])
    }
}

/// A `503 cancelled` carries the best-so-far picture, so interrupted
/// callers see how far the work got: the checkpoints the request's own
/// guard ticked, and the session's compression outcome and elapsed time.
/// Other errors pass through the standard mapping.
fn interrupted_error(e: provabs_session::Error, session: &Session, guard: &Guard) -> WireError {
    let wire = WireError::from(e);
    if wire.status != 503 {
        return wire;
    }
    let stats = session.run_stats();
    wire.with("checkpoints_hit", Json::from(guard.checkpoints_hit()))
        .with("elapsed_us", Json::from(stats.elapsed.as_micros() as u64))
        .with("completion", completion_json(&stats.completion))
}

/// The per-session observability snapshot: the five façade hooks plus
/// the wire counters, as one JSON object. Reads a live session without
/// waiting on its requests.
pub fn session_stats(entry: &SessionEntry) -> Json {
    let session = &entry.session;
    let intern = session.intern_stats();
    let kernel = session.kernel_info();
    let run = session.run_stats();
    let mut pairs = vec![
        ("name", Json::from(entry.name.clone())),
        (
            "requests",
            Json::from(entry.requests.load(Ordering::Relaxed)),
        ),
        (
            "scenarios_answered",
            Json::from(entry.scenarios.load(Ordering::Relaxed)),
        ),
        ("compressed", Json::from(session.result().is_some())),
        ("compile_count", Json::from(session.compile_count())),
        (
            "intern_stats",
            Json::obj([
                (
                    "polyset_materializations",
                    Json::from(intern.polyset_materializations),
                ),
                ("arena_monomials", Json::from(intern.arena_monomials)),
                ("interned_source", Json::from(intern.interned_source)),
            ]),
        ),
        (
            "kernel_info",
            Json::obj([
                ("requested", Json::from(kernel.requested.to_string())),
                ("selected", Json::from(kernel.selected.to_string())),
                ("avx2_available", Json::from(kernel.avx2_available)),
                ("lanes", Json::from(kernel.lanes)),
            ]),
        ),
        ("artifact_info", artifact_json(session.artifact_info())),
        (
            "run_stats",
            Json::obj([
                ("checkpoints_hit", Json::from(run.checkpoints_hit)),
                ("elapsed_us", Json::from(run.elapsed.as_micros() as u64)),
                ("completion", completion_json(&run.completion)),
            ]),
        ),
    ];
    if let Some(result) = session.result() {
        pairs.push(("compressed_size_m", Json::from(result.compressed_size_m)));
        pairs.push(("compressed_size_v", Json::from(result.compressed_size_v)));
    }
    // The names scenarios may valuate — what clients need to build asks
    // that cannot 422 with `variable_not_in_abstraction`.
    if let Some(labels) = session.abstracted_labels() {
        pairs.push((
            "abstracted_labels",
            Json::Arr(labels.into_iter().map(Json::from).collect()),
        ));
    }
    Json::obj(pairs)
}

fn artifact_json(origin: &ArtifactOrigin) -> Json {
    match origin {
        ArtifactOrigin::Computed => Json::obj([("origin", Json::from("computed"))]),
        ArtifactOrigin::Opened {
            path,
            format_version,
            mapped,
        } => Json::obj([
            ("origin", Json::from("opened")),
            ("path", Json::from(path.display().to_string())),
            ("format_version", Json::from(u64::from(*format_version))),
            ("mapped", Json::from(*mapped)),
        ]),
        // `ArtifactOrigin` is #[non_exhaustive]; a future origin still
        // serialises (opaquely) rather than breaking the stats route.
        other => Json::obj([("origin", Json::from(format!("{other:?}")))]),
    }
}

fn completion_json(completion: &Completion) -> Json {
    match completion {
        Completion::Complete => Json::obj([("complete", Json::from(true))]),
        Completion::Interrupted {
            reason,
            steps,
            size_reached,
        } => Json::obj([
            ("complete", Json::from(false)),
            ("reason", Json::from(reason.to_string())),
            ("steps", Json::from(*steps)),
            ("size_reached", Json::from(*size_reached)),
        ]),
    }
}

/// True when the peer's half of the connection is gone (EOF or a hard
/// error on a non-blocking peek). The socket is flipped to non-blocking
/// only for the probe — the caller is not mid-read or mid-write.
fn peer_gone(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let mut probe = [0u8; 1];
    let gone = match stream.peek(&mut probe) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
        Err(_) => true,
    };
    let _ = stream.set_nonblocking(false);
    gone
}

/// Runs `work` while a watcher thread peeks the client socket and trips
/// `token` the moment the peer disconnects. The watcher owns the socket
/// for the duration (the caller must not read or write it inside
/// `work`); blocking mode is restored before this returns.
pub(crate) fn with_disconnect_cancel<T>(
    stream: &TcpStream,
    token: &CancelToken,
    work: impl FnOnce() -> T,
) -> T {
    let Ok(watch) = stream.try_clone() else {
        return work();
    };
    if watch.set_nonblocking(true).is_err() {
        return work();
    }
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let watcher_stop = Arc::clone(&stop);
    let watcher_token = token.clone();
    let watcher = std::thread::spawn(move || {
        let mut probe = [0u8; 1];
        while !watcher_stop.load(Ordering::Relaxed) {
            match watch.peek(&mut probe) {
                Ok(0) => {
                    watcher_token.cancel();
                    break;
                }
                // Pipelined bytes waiting is not a disconnect.
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(_) => {
                    watcher_token.cancel();
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(15));
        }
    });
    let out = work();
    stop.store(true, Ordering::Relaxed);
    let _ = watcher.join();
    let _ = stream.set_nonblocking(false);
    out
}

fn body_json(req: &Request) -> Result<Json, WireError> {
    req.json()
        .map_err(|_| WireError::bad_request("request body is not valid JSON"))
}

fn require_str<'a>(body: &'a Json, key: &str) -> Result<&'a str, WireError> {
    body.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| WireError::bad_request(format!("request needs a string {key:?} field")))
}

fn opt_u64(body: &Json, key: &str) -> Result<Option<u64>, WireError> {
    match body.get(key) {
        None => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            WireError::bad_request(format!("{key:?} must be a non-negative integer"))
        }),
    }
}

fn opt_bool(body: &Json, key: &str) -> Result<Option<bool>, WireError> {
    match body.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_bool()
            .map(Some)
            .ok_or_else(|| WireError::bad_request(format!("{key:?} must be a boolean"))),
    }
}

fn opt_parsed<T: std::str::FromStr>(
    body: &Json,
    key: &str,
    code: &'static str,
) -> Result<Option<T>, WireError>
where
    T::Err: std::fmt::Display,
{
    match body.get(key) {
        None => Ok(None),
        Some(v) => {
            let text = v
                .as_str()
                .ok_or_else(|| WireError::bad_request(format!("{key:?} must be a string")))?;
            text.parse::<T>()
                .map(Some)
                .map_err(|e| WireError::new(422, code, e.to_string()))
        }
    }
}

/// Parses `{"scenarios": [{"var": factor, …}, …]}` into [`Scenario`]s.
fn parse_scenarios(body: &Json) -> Result<Vec<Scenario>, WireError> {
    let list = body
        .get("scenarios")
        .and_then(Json::as_arr)
        .ok_or_else(|| WireError::bad_request("ask needs a \"scenarios\" array"))?;
    if list.is_empty() {
        return Err(WireError::bad_request("\"scenarios\" must be non-empty"));
    }
    list.iter()
        .map(|s| {
            let pairs = s.as_obj().ok_or_else(|| {
                WireError::bad_request(
                    "each scenario is an object mapping variable names to factors",
                )
            })?;
            let mut scenario = Scenario::new();
            for (var, factor) in pairs {
                let factor = factor.as_f64().ok_or_else(|| {
                    WireError::bad_request(format!("scenario factor for {var:?} must be a number"))
                })?;
                scenario = scenario.set(var.clone(), factor);
            }
            Ok(scenario)
        })
        .collect()
}
