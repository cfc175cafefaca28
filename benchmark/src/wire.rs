//! `service-q10`: the same phases, every one driven through [`Client`]
//! against an in-process [`ServerHandle`].
//!
//! The load is closed-loop: [`clients`] keep-alive connections from this
//! one process, each sending its next request only when the previous
//! answer is complete — callers waiting for a reply, not independent
//! arrivals. Responses are kept and checked against the twin after a
//! block ends, so parsing 2 996-value answers does not sit between
//! requests.

use crate::host::nproc;
use crate::prepare::{Prepared, FIRST_ASK, WIRE_BATCH};
use crate::rounds::{pool_offset, RoundSample, Sizes, Target, MIN_SINGLE_ASKS, REOPENS};
use crate::stats::{median, percentile};
use crate::tally::{bit_equal, Tally};
use crate::trace::{median_s, repeat, Tracer};
use provabs_provenance::fxhash::FxHashSet;
use provabs_provenance::var::{VarId, VarTable};
use provabs_scenario::Scenario;
use provabs_server::{Client, Json, Response, ServerConfig, ServerHandle};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Connections that generate load: no more than the host has cores for,
/// and two are enough to contend for one session lock.
fn clients() -> usize {
    nproc().min(2)
}

/// `{"var": factor, …}`.
fn scenario_json(scenario: &Scenario) -> Json {
    Json::obj(
        scenario
            .iter()
            .map(|(name, factor)| (name, Json::from(factor))),
    )
}

/// The body of an ask for `scenarios`, answered in one evaluation chunk.
fn ask_body(scenarios: &[Scenario]) -> Json {
    Json::obj([
        (
            "scenarios",
            Json::Arr(scenarios.iter().map(scenario_json).collect()),
        ),
        ("chunk", Json::from(scenarios.len())),
    ])
}

/// The per-scenario values of a complete ask stream, or why it is not one.
fn answers(response: &Response) -> Result<Vec<Vec<f64>>, String> {
    if response.status != 200 {
        return Err(format!(
            "status {}: {}",
            response.status,
            String::from_utf8_lossy(&response.body)
        ));
    }
    let lines = response.json_lines().map_err(|e| e.to_string())?;
    let done = lines
        .last()
        .and_then(|l| l.get("done"))
        .and_then(Json::as_bool);
    if done != Some(true) || lines.len() < 2 {
        return Err("the stream did not end with a done line".to_string());
    }
    lines[1..lines.len() - 1]
        .iter()
        .map(|line| {
            let values = line.get("values").and_then(Json::as_arr);
            values
                .ok_or_else(|| "an answer line without values".to_string())?
                .iter()
                .map(|v| v.as_f64().ok_or_else(|| "a non-numeric value".to_string()))
                .collect()
        })
        .collect()
}

/// Whether `got` is `want` up to `tolerance` relative error.
pub fn close(got: &[f64], want: &[f64], tolerance: f64) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| (g - w).abs() <= tolerance * w.abs().max(1e-12))
}

/// A pool scenario re-posed over the original variables: each leaf
/// below a chosen meta-variable gets that meta-variable's factor.
fn lift(
    p: &Prepared,
    vars: &mut VarTable,
    live: &FxHashSet<VarId>,
    scenario: &Scenario,
) -> Scenario {
    let result = &p.result;
    let coarse = scenario.valuation(vars);
    let lifted = result.vvs.lift_valuation(&result.forest, &coarse);
    // The lifting keeps the meta-variables' own assignments; the original
    // provenance does not mention them, and the service refuses names
    // that change nothing.
    let mut pairs: Vec<_> = lifted
        .iter()
        .filter(|(v, _)| live.contains(v))
        .map(|(v, c)| (v, *c))
        .collect();
    pairs.sort_by_key(|(v, _)| v.index());
    pairs
        .into_iter()
        .fold(Scenario::new(), |s, (v, c)| s.set(vars.name(v), c))
}

/// One timed request of a load block.
struct Exchange {
    started: Instant,
    ended: Instant,
    /// Index of the first pool scenario asked.
    at: usize,
    response: Response,
}

/// A closed-loop block: `connections` keep-alive connections post asks
/// of `per_request` pool scenarios (from `first` on) to `session` for
/// `block`, each request recorded as a span called `span`.
struct LoadSpec<'a> {
    /// The hosted session asked.
    session: &'a str,
    /// Scenarios per request.
    per_request: usize,
    /// Concurrent connections.
    connections: usize,
    /// Index of the first pool scenario.
    first: usize,
    /// How long to keep sending.
    block: Duration,
    /// Span name of one request.
    span: &'static str,
}

/// What a load block measured.
struct Load {
    /// Per-request latency in ms.
    latencies_ms: Vec<f64>,
    /// Scenarios answered.
    scenarios: u64,
    /// First request sent → last answer complete.
    wall_s: f64,
}

/// The service under test.
pub struct Wire<'p> {
    p: &'p Prepared,
    server: ServerHandle,
    addr: SocketAddr,
    admin: Client,
    artifact_dir: PathBuf,
}

/// Name of the uncompressed (`none`-strategy) session.
const ORIGINAL: &str = "original";

impl<'p> Wire<'p> {
    /// Starts a server with its artifacts under `scratch`, hosting the
    /// `none`-strategy session `speedup_x` compares against. Part of
    /// set-up.
    pub fn start(p: &'p Prepared, scratch: &Path, tally: &mut Tally) -> Result<Self, String> {
        let config = ServerConfig {
            artifact_dir: scratch.to_path_buf(),
            ..ServerConfig::default()
        };
        let server = ServerHandle::start(config).map_err(|e| format!("server start: {e}"))?;
        let addr = server.addr();
        let admin = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let mut wire = Self {
            p,
            server,
            addr,
            admin,
            artifact_dir: scratch.to_path_buf(),
        };
        let mut create = wire.create_body(ORIGINAL);
        if let Json::Obj(pairs) = &mut create {
            pairs.push(("strategy".to_string(), Json::from("none")));
        }
        wire.expect("POST", "/sessions", Some(&create), 201, tally)?;
        let path = format!("/sessions/{ORIGINAL}/compress");
        wire.expect("POST", &path, Some(&Json::obj::<&str>([])), 200, tally)?;
        Ok(wire)
    }

    /// Where `save` puts the artifact called `name`.
    fn artifact_path(&self, name: &str) -> PathBuf {
        self.artifact_dir.join(format!("{name}.provabs"))
    }

    /// The `workload` create the cold pass sends.
    fn create_body(&self, name: &str) -> Json {
        let config = &self.p.config;
        Json::obj([
            ("name", Json::from(name)),
            ("workload", Json::from("tpch_q10")),
            ("scale", Json::from(config.tpch_scale())),
            ("seed", Json::from(config.seed)),
            ("target", Json::from(config.kind.target().to_string())),
        ])
    }

    /// One admin request that must answer `status`.
    fn expect(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Json>,
        status: u16,
        tally: &mut Tally,
    ) -> Result<Response, String> {
        let response = self
            .admin
            .request(method, path, body)
            .map_err(|e| format!("{method} {path}: {e}"))?;
        let ok = tally.check(response.status == status, "wire request status");
        if !ok {
            return Err(format!(
                "{method} {path}: status {} (wanted {status}): {}",
                response.status,
                String::from_utf8_lossy(&response.body)
            ));
        }
        Ok(response)
    }

    /// Checks an ask response against the twin's answers to
    /// `pool[at..at + n]`.
    fn verify(&self, response: &Response, at: usize, n: usize, tally: &mut Tally) {
        match answers(response) {
            Ok(values) if values.len() == n => {
                for (i, got) in values.iter().enumerate() {
                    tally.check(
                        bit_equal(got, &self.p.expected[at + i]),
                        "wire answer equals the twin's answer",
                    );
                }
            }
            Ok(values) => {
                let what = format!("{} answers for {n} scenarios", values.len());
                tally.add(n as u64, n as u64, &what);
            }
            Err(e) => tally.add(n as u64, n as u64, &e),
        }
    }

    /// Runs one closed-loop block.
    fn load_block(
        &self,
        load: &LoadSpec,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> Result<Load, String> {
        let p = self.p;
        let &LoadSpec {
            per_request,
            connections,
            first,
            block,
            span,
            ..
        } = load;
        let path = format!("/sessions/{}/ask", load.session);
        let slots = p.pool.len() / per_request;
        let min_requests = MIN_SINGLE_ASKS.div_ceil(per_request * connections).max(1);
        let barrier = Barrier::new(connections);
        let per_client: Vec<Result<Vec<Exchange>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..connections)
                .map(|c| {
                    let (path, barrier) = (&path, &barrier);
                    scope.spawn(move || -> Result<Vec<Exchange>, String> {
                        let client = Client::connect(self.addr);
                        barrier.wait();
                        let mut client = client.map_err(|e| format!("connect: {e}"))?;
                        let deadline = Instant::now() + block;
                        let mut exchanges = Vec::new();
                        while exchanges.len() < min_requests || Instant::now() < deadline {
                            let slot = first / per_request + c + connections * exchanges.len();
                            let at = (slot % slots) * per_request;
                            let body = ask_body(&p.pool[at..at + per_request]);
                            let started = Instant::now();
                            let response = client.post(path, &body);
                            let ended = Instant::now();
                            exchanges.push(Exchange {
                                started,
                                ended,
                                at,
                                response: response.map_err(|e| format!("ask: {e}"))?,
                            });
                        }
                        Ok(exchanges)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client panicked".to_string()))
                })
                .collect()
        });
        let mut exchanges = Vec::new();
        for client in per_client {
            exchanges.extend(client?);
        }
        let started = exchanges.iter().map(|e| e.started).min();
        let ended = exchanges.iter().map(|e| e.ended).max();
        let wall = match (started, ended) {
            (Some(s), Some(e)) => e.duration_since(s),
            _ => return Err("a load block sent nothing".to_string()),
        };
        let mut latencies_ms = Vec::with_capacity(exchanges.len());
        for exchange in &exchanges {
            tr.record(span, exchange.started, exchange.ended);
            let took = exchange.ended.duration_since(exchange.started);
            latencies_ms.push(took.as_secs_f64() * 1e3);
            self.verify(&exchange.response, exchange.at, per_request, tally);
        }
        Ok(Load {
            scenarios: (exchanges.len() * per_request) as u64,
            latencies_ms,
            wall_s: wall.as_secs_f64(),
        })
    }

    /// Create → compress → first ask, all over the wire.
    fn cold_pass(
        &mut self,
        name: &str,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> Result<(f64, f64, Sizes), String> {
        let p = self.p;
        let create = self.create_body(name);
        let compress_path = format!("/sessions/{name}/compress");
        let ask_path = format!("/sessions/{name}/ask");
        let first = ask_body(&p.pool[..FIRST_ASK]);
        let root = tr.enter("cold_pass");
        let open = tr.enter("server.create");
        self.expect("POST", "/sessions", Some(&create), 201, tally)?;
        tr.exit(open);
        let open = tr.enter("server.compress");
        let compressed = self.expect(
            "POST",
            &compress_path,
            Some(&Json::obj::<&str>([])),
            200,
            tally,
        )?;
        let compress = tr.exit(open);
        let open = tr.enter("server.first_ask");
        let answered = self.expect("POST", &ask_path, Some(&first), 200, tally)?;
        tr.exit(open);
        let first_answer = tr.exit(root);

        self.verify(&answered, 0, FIRST_ASK, tally);
        let body = compressed.json().map_err(|e| e.to_string())?;
        let field = |key: &str| {
            body.get(key)
                .and_then(Json::as_u64)
                .map(|n| n as usize)
                .ok_or_else(|| format!("compress response lacks {key}"))
        };
        let sizes = Sizes {
            original_size_m: field("original_size_m")?,
            compressed_size_m: field("compressed_size_m")?,
            compressed_size_v: field("compressed_size_v")?,
        };
        let complete = body
            .get("completion")
            .and_then(|c| c.get("complete"))
            .and_then(Json::as_bool);
        tally.check(complete == Some(true), "wire compress ran to completion");
        Ok((first_answer.as_secs_f64(), compress.as_secs_f64(), sizes))
    }

    /// `compile_count` and `polyset_materializations` of a hosted
    /// session, from its stats route.
    fn counters(&mut self, name: &str, tally: &mut Tally) -> Result<(usize, usize), String> {
        let stats = self.expect("GET", &format!("/sessions/{name}"), None, 200, tally)?;
        let stats = stats.json().map_err(|e| e.to_string())?;
        let compiled = stats.get("compile_count").and_then(Json::as_u64);
        let materialized = stats
            .get("intern_stats")
            .and_then(|i| i.get("polyset_materializations"))
            .and_then(Json::as_u64);
        match (compiled, materialized) {
            (Some(c), Some(m)) => Ok((c as usize, m as usize)),
            _ => Err("stats lack compile_count or polyset_materializations".to_string()),
        }
    }

    /// The same batch on the `none`-strategy session (lifted to the
    /// original variables) and on the compressed one, alternating on one
    /// connection; returns each alternation's ratio.
    fn speedup_block(
        &mut self,
        name: &str,
        first: usize,
        slice: Duration,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> Result<Vec<f64>, String> {
        let p = self.p;
        let at = (first / WIRE_BATCH % (p.pool.len() / WIRE_BATCH)) * WIRE_BATCH;
        let batch = &p.pool[at..at + WIRE_BATCH];
        let coarse = ask_body(batch);
        let live = p.captured.working.live_vars();
        let mut vars = p.captured.vars.clone();
        let lifted: Vec<Scenario> = batch.iter().map(|s| lift(p, &mut vars, &live, s)).collect();
        let lifted = ask_body(&lifted);
        let original_path = format!("/sessions/{ORIGINAL}/ask");
        let compressed_path = format!("/sessions/{name}/ask");
        let block = tr.enter("block.original");
        let (mut ratios, mut inside) = (Vec::new(), Duration::ZERO);
        while ratios.len() < 2 || inside < slice {
            let (mut original, mut compressed) = (Duration::ZERO, Duration::ZERO);
            // Original, compressed, compressed, original — as
            // `measure_alternating` does in process.
            for side in [0, 1, 1, 0] {
                if side == 0 {
                    let open = tr.enter("server.ask_original");
                    let response =
                        self.expect("POST", &original_path, Some(&lifted), 200, tally)?;
                    original += tr.exit(open);
                    let got = answers(&response)?;
                    for (i, values) in got.iter().enumerate() {
                        tally.check(
                            close(values, &p.expected[at + i], 1e-9),
                            "the original provenance agrees with the abstraction",
                        );
                    }
                } else {
                    let open = tr.enter("server.ask_batch");
                    let response =
                        self.expect("POST", &compressed_path, Some(&coarse), 200, tally)?;
                    compressed += tr.exit(open);
                    self.verify(&response, at, WIRE_BATCH, tally);
                }
            }
            ratios.push(original.as_secs_f64() / compressed.as_secs_f64());
            inside += original + compressed;
        }
        tr.exit(block);
        Ok(ratios)
    }

    /// Save over the wire, then create-from-artifact (mapped) → first
    /// answer, [`REOPENS`] times.
    fn save_and_reopen(
        &mut self,
        name: &str,
        first: usize,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> Result<(Vec<f64>, u64), String> {
        let p = self.p;
        let block = tr.enter("block.persist");
        let save_body = Json::obj([("artifact", Json::from(name))]);
        let open = tr.enter("server.save");
        let saved = self.expect(
            "POST",
            &format!("/sessions/{name}/save"),
            Some(&save_body),
            200,
            tally,
        )?;
        tr.exit(open);
        let bytes = saved
            .json()
            .ok()
            .and_then(|j| j.get("bytes").and_then(Json::as_u64))
            .ok_or_else(|| "save response lacks bytes".to_string())?;
        let mut reopen_ms = Vec::with_capacity(REOPENS);
        for i in 0..REOPENS {
            let at = (first + i) % p.pool.len();
            let warm = format!("{name}-warm{i}");
            let create = Json::obj([
                ("name", Json::from(warm.as_str())),
                ("artifact", Json::from(name)),
                ("mapped", Json::from(true)),
            ]);
            let ask = ask_body(&p.pool[at..=at]);
            let reopen = tr.enter("reopen");
            let open = tr.enter("server.create_mapped");
            self.expect("POST", "/sessions", Some(&create), 201, tally)?;
            tr.exit(open);
            let open = tr.enter("server.mapped_first_ask");
            let answered = self.expect(
                "POST",
                &format!("/sessions/{warm}/ask"),
                Some(&ask),
                200,
                tally,
            )?;
            tr.exit(open);
            reopen_ms.push(tr.exit(reopen).as_secs_f64() * 1e3);
            self.verify(&answered, at, 1, tally);
            let (compiled, _) = self.counters(&warm, tally)?;
            tally.check(compiled == 0, "a reopened session never compiles");
            self.expect("DELETE", &format!("/sessions/{warm}"), None, 200, tally)?;
        }
        tr.exit(block);
        Ok((reopen_ms, bytes))
    }
}

impl Target for Wire<'_> {
    fn round(
        &mut self,
        round: u32,
        block: Duration,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> Result<RoundSample, String> {
        let p = self.p;
        let started = Instant::now();
        let name = format!("r{round}");
        let (first_answer_s, compress_s, sizes) = self.cold_pass(&name, tr, tally)?;

        let blocks = Instant::now();
        let open = tr.enter("block.single");
        let mut load = LoadSpec {
            session: &name,
            per_request: 1,
            connections: clients(),
            first: pool_offset(p, round, 0),
            block,
            span: "server.ask",
        };
        let single = self.load_block(&load, tr, tally)?;
        tr.exit(open);
        let open = tr.enter("block.bulk");
        load.per_request = WIRE_BATCH;
        load.first = pool_offset(p, round, 1);
        load.span = "server.ask_batch";
        let bulk = self.load_block(&load, tr, tally)?;
        tr.exit(open);
        let (compile_count, materializations) = self.counters(&name, tally)?;
        tally.check(compile_count == 1, "one compilation after the ask blocks");
        let speedups = self.speedup_block(&name, pool_offset(p, round, 2), block, tr, tally)?;
        let sliced = blocks.elapsed();

        let (reopen_ms, artifact_bytes) =
            self.save_and_reopen(&name, pool_offset(p, round, 3), tr, tally)?;
        self.expect("DELETE", &format!("/sessions/{name}"), None, 200, tally)?;
        std::fs::remove_file(self.artifact_path(&name))
            .map_err(|e| format!("remove artifact: {e}"))?;
        Ok(RoundSample {
            first_answer_s,
            compress_s: vec![compress_s],
            ask_ms: single.latencies_ms,
            bulk_scenarios: bulk.scenarios,
            bulk_s: bulk.wall_s,
            speedups,
            reopen_ms,
            artifact_bytes,
            sizes,
            compile_count,
            materializations,
            fixed_s: started.elapsed().saturating_sub(sliced).as_secs_f64(),
        })
    }

    fn cold_pass_untraced(&mut self, round: u32, tally: &mut Tally) -> Result<f64, String> {
        let name = format!("u{round}");
        let (first_answer_s, _, _) = self.cold_pass(&name, &mut Tracer::new(false), tally)?;
        self.expect("DELETE", &format!("/sessions/{name}"), None, 200, tally)?;
        Ok(first_answer_s)
    }

    /// The `server.*` rows: the admin routes and the codec timed one call
    /// at a time, then one client against [`clients`] on one session.
    fn layer_rows(
        &mut self,
        each: Duration,
        inproc_ask_ms: f64,
        tr: &mut Tracer,
        tally: &mut Tally,
        out: &mut BTreeMap<&'static str, f64>,
    ) -> Result<(), String> {
        let p = self.p;
        let create = self.create_body("layer");
        let none = Json::obj::<&str>([]);
        let save = Json::obj([("artifact", Json::from("layer"))]);
        let open = tr.enter("server.create");
        self.expect("POST", "/sessions", Some(&create), 201, tally)?;
        tr.exit(open);
        let open = tr.enter("server.compress");
        self.expect("POST", "/sessions/layer/compress", Some(&none), 200, tally)?;
        tr.exit(open);
        repeat(tr, each, "server.save", |_| {
            self.expect("POST", "/sessions/layer/save", Some(&save), 200, tally)
                .map(drop)
        })?;
        repeat(tr, each, "server.healthz", |_| {
            self.expect("GET", "/healthz", None, 200, tally).map(drop)
        })?;
        repeat(tr, each, "server.stats", |_| {
            self.expect("GET", "/stats", None, 200, tally).map(drop)
        })?;
        let request = ask_body(&p.pool[..1]).to_string();
        repeat(tr, each, "server.json_parse", |_| {
            Json::parse(&request).map(drop)
        })
        .map_err(|e| format!("parse: {e}"))?;
        let answer = repeat(tr, each, "server.json_encode", |_| {
            let values = p.expected[0].iter().map(|v| Json::from(*v)).collect();
            Json::obj([("index", Json::from(0usize)), ("values", Json::Arr(values))]).to_string()
        });
        for (metric, span, scale) in [
            ("server.create_ms", "server.create", 1e3),
            ("server.compress_wire_ms", "server.compress", 1e3),
            ("server.save_wire_ms", "server.save", 1e3),
            ("server.healthz_us", "server.healthz", 1e6),
            ("server.stats_ms", "server.stats", 1e3),
            ("server.json_parse_us", "server.json_parse", 1e6),
            ("server.json_encode_us", "server.json_encode", 1e6),
        ] {
            out.insert(metric, median_s(tr, span)? * scale);
        }
        out.insert("server.bytes_per_answer", answer.len() as f64);

        // One client, then as many as the end-to-end blocks use, on the
        // same session: the contention the session lock adds.
        let open = tr.enter("block.one_client");
        let mut load = LoadSpec {
            session: "layer",
            per_request: 1,
            connections: 1,
            first: 0,
            block: each * 3,
            span: "server.ask_1client",
        };
        let one = self.load_block(&load, tr, tally)?;
        tr.exit(open);
        let open = tr.enter("block.n_clients");
        load.connections = clients();
        load.span = "server.ask_nclients";
        let many = self.load_block(&load, tr, tally)?;
        tr.exit(open);
        let one_per_s = one.scenarios as f64 / one.wall_s;
        let many_per_s = many.scenarios as f64 / many.wall_s;
        out.insert(
            "server.ask_wire_overhead_us",
            (median(&one.latencies_ms) - inproc_ask_ms) * 1e3,
        );
        out.insert("server.ask_p95_ms", percentile(&one.latencies_ms, 95.0));
        out.insert("server.ask_p99_ms", percentile(&one.latencies_ms, 99.0));
        out.insert("server.ask_1client_per_s", one_per_s);
        out.insert("server.ask_nclients_per_s", many_per_s);
        out.insert(
            "server.contention_ratio",
            many_per_s / (one_per_s * clients() as f64),
        );
        self.expect("DELETE", "/sessions/layer", None, 200, tally)?;
        std::fs::remove_file(self.artifact_path("layer"))
            .map_err(|e| format!("remove artifact: {e}"))
    }

    /// Stops the server, waiting for its connections to wind down.
    fn stop(self: Box<Self>, tally: &mut Tally) {
        let Wire {
            mut server, admin, ..
        } = *self;
        drop(admin);
        tally.check(
            server.stop(Duration::from_secs(10)),
            "the server drains within ten seconds",
        );
    }
}
