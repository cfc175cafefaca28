//! Wire-level integration: real sockets, real concurrency, against the
//! in-process [`Session`] oracle.
//!
//! The invariants proved here are the service tier's reason to exist:
//! answers over the wire are bit-for-bit what a direct [`Session::ask`]
//! returns (the JSON codec's shortest-round-trip floats), hundreds of
//! requests across many connections compile the shared session's
//! lowering exactly once, a client that stops reading its answer delays
//! nobody else on that session, artifacts survive a save → reopen round
//! trip over the wire, malformed input comes back typed instead of as
//! connection resets, a connection past the cap is refused typed until a
//! slot frees, and shutdown drains in-flight work then releases the
//! port.

use provabs_datagen::workload::{Workload, WorkloadConfig};
use provabs_scenario::Scenario;
use provabs_server::{Client, Json, ServerConfig, ServerHandle};
use provabs_session::SessionBuilder;
use provabs_testkit::bits_equal;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start() -> ServerHandle {
    ServerHandle::start(ServerConfig::default()).expect("bind loopback")
}

fn post_ok(client: &mut Client, path: &str, body: &Json, want: u16) -> Json {
    let response = client.post(path, body).expect("request");
    let json = response.json().unwrap_or(Json::Null);
    assert_eq!(response.status, want, "{path}: {json}");
    json
}

fn create_telephony(client: &mut Client, name: &str) -> Json {
    post_ok(
        client,
        "/sessions",
        &Json::obj([
            ("name", Json::from(name)),
            ("workload", Json::from("telephony")),
        ]),
        201,
    )
}

fn labels_of(client: &mut Client, name: &str) -> Vec<String> {
    let stats = client
        .get(&format!("/sessions/{name}"))
        .expect("stats")
        .json()
        .expect("json");
    stats
        .get("abstracted_labels")
        .and_then(Json::as_arr)
        .expect("compressed session exposes labels")
        .iter()
        .filter_map(|l| l.as_str().map(str::to_string))
        .collect()
}

/// `values` lines of a streamed ask, in scenario order.
fn streamed_values(response: &provabs_server::Response) -> Vec<Vec<f64>> {
    assert!(response.chunked, "ask must stream chunked");
    let lines = response.json_lines().expect("NDJSON stream");
    let done = lines.last().expect("non-empty stream");
    assert_eq!(
        done.get("done").and_then(Json::as_bool),
        Some(true),
        "stream must end with the done line: {done}"
    );
    lines
        .iter()
        .filter(|l| l.get("index").is_some())
        .map(|l| {
            l.get("values")
                .and_then(Json::as_arr)
                .expect("values line")
                .iter()
                .map(|v| v.as_f64().expect("numeric"))
                .collect()
        })
        .collect()
}

/// Builds the same scenario batch twice: as the wire JSON and as the
/// oracle's [`Scenario`] values.
fn wire_scenarios(labels: &[String], salt: usize, count: usize) -> (Json, Vec<Scenario>) {
    let mut wire = Vec::with_capacity(count);
    let mut oracle = Vec::with_capacity(count);
    for i in 0..count {
        let name = &labels[(salt + i) % labels.len()];
        let factor = 0.25 + ((salt + i) % 7) as f64 * 0.5;
        wire.push(Json::obj([(name.clone(), Json::from(factor))]));
        oracle.push(Scenario::new().set(name.clone(), factor));
    }
    (Json::obj([("scenarios", Json::Arr(wire))]), oracle)
}

#[test]
fn wire_answers_match_direct_session_oracle_under_concurrency() {
    let server = start();
    let addr = server.addr();
    let mut admin = Client::connect(addr).expect("connect");
    create_telephony(&mut admin, "shared");
    post_ok(
        &mut admin,
        "/sessions/shared/compress",
        &Json::obj::<&str>([]),
        200,
    );
    let labels = Arc::new(labels_of(&mut admin, "shared"));

    // The oracle: the same workload, tree, and defaults, in-process.
    let mut data = Workload::Telephony.generate(&WorkloadConfig::default());
    let forest = data.primary_tree(2, 1);
    let oracle = SessionBuilder::new(data.polys, data.vars)
        .forest(forest)
        .build()
        .expect("valid configuration");
    oracle.compress().expect("compresses");
    assert_eq!(
        oracle.abstracted_labels().expect("compressed"),
        *labels,
        "wire and oracle disagree about the askable variables"
    );

    const CLIENTS: usize = 4;
    const REQUESTS: usize = 60;
    const SCENARIOS: usize = 2;
    // Expected answers for every (client, request) batch, bit-for-bit.
    let mut expected = Vec::new();
    for client_idx in 0..CLIENTS {
        let (_, scenarios) = wire_scenarios(&labels, client_idx, SCENARIOS);
        expected.push(oracle.ask(&scenarios).expect("oracle answers").values);
    }

    let workers: Vec<_> = (0..CLIENTS)
        .map(|client_idx| {
            let labels = Arc::clone(&labels);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let (body, _) = wire_scenarios(&labels, client_idx, SCENARIOS);
                let mut answers = Vec::new();
                for _ in 0..REQUESTS {
                    let response = client.post("/sessions/shared/ask", &body).expect("ask");
                    assert_eq!(response.status, 200);
                    answers.push(streamed_values(&response));
                }
                answers
            })
        })
        .collect();
    for (client_idx, worker) in workers.into_iter().enumerate() {
        let answers = worker.join().expect("no panic");
        assert_eq!(answers.len(), REQUESTS);
        for run in answers {
            assert_eq!(run.len(), SCENARIOS);
            bits_equal(&expected[client_idx], &run, "wire vs the direct session");
        }
    }

    // 240 asks + compress + stats across five connections: one compile.
    let stats = admin
        .get("/sessions/shared")
        .expect("stats")
        .json()
        .expect("json");
    assert_eq!(
        stats.get("compile_count").and_then(Json::as_u64),
        Some(1),
        "the shared session recompiled under concurrent wire traffic"
    );
    assert_eq!(
        stats.get("scenarios_answered").and_then(Json::as_u64),
        Some((CLIENTS * REQUESTS * SCENARIOS) as u64)
    );
}

#[test]
fn create_compress_ask_save_reopen_round_trip() {
    let server = start();
    let mut client = Client::connect(server.addr()).expect("connect");
    let created = create_telephony(&mut client, "origin");
    let compress = post_ok(
        &mut client,
        "/sessions/origin/compress",
        &Json::obj::<&str>([]),
        200,
    );
    assert_eq!(
        compress
            .get("completion")
            .and_then(|c| c.get("complete"))
            .and_then(Json::as_bool),
        Some(true)
    );
    let labels = labels_of(&mut client, "origin");
    let (ask, _) = wire_scenarios(&labels, 3, 4);
    let original = streamed_values(&client.post("/sessions/origin/ask", &ask).expect("ask"));

    // save → create-from-artifact (zero-copy mapped) → identical answers.
    post_ok(
        &mut client,
        "/sessions/origin/save",
        &Json::obj([("artifact", Json::from("roundtrip"))]),
        200,
    );
    let recreated = post_ok(
        &mut client,
        "/sessions",
        &Json::obj([
            ("name", Json::from("reopened")),
            ("artifact", Json::from("roundtrip")),
            ("mapped", Json::from(true)),
        ]),
        201,
    );
    for size in ["polys", "size_m", "size_v"] {
        assert_eq!(
            recreated.get(size).and_then(Json::as_u64),
            created.get(size).and_then(Json::as_u64),
            "{size} of the reopened session"
        );
    }
    let reopened = streamed_values(&client.post("/sessions/reopened/ask", &ask).expect("ask"));
    bits_equal(&original, &reopened, "reopened session");
    let stats = client
        .get("/sessions/reopened")
        .expect("stats")
        .json()
        .expect("json");
    let artifact = stats.get("artifact_info").expect("hook present");
    assert_eq!(
        artifact.get("origin").and_then(Json::as_str),
        Some("opened")
    );
    assert_eq!(artifact.get("mapped").and_then(Json::as_bool), Some(true));
    assert_eq!(
        stats.get("compile_count").and_then(Json::as_u64),
        Some(0),
        "a reopened session must answer without compiling"
    );
    assert_eq!(
        stats
            .get("intern_stats")
            .and_then(|i| i.get("polyset_materializations"))
            .and_then(Json::as_u64),
        Some(0),
        "create and ask report sizes off the opened columns, not a rebuilt poly-set"
    );
}

/// A scenario factor may be any finite number, and a large enough one
/// overflows a monomial: such an answer has no JSON number. On the first
/// chunk it is a typed `422 non_finite_answer` before the response head;
/// later, the stream's terminal error line — and every line the client
/// reads is JSON either way.
#[test]
fn a_non_finite_answer_is_a_typed_error_not_invalid_json() {
    let server = start();
    let mut client = Client::connect(server.addr()).expect("connect");
    create_telephony(&mut client, "overflow");
    post_ok(
        &mut client,
        "/sessions/overflow/compress",
        &Json::obj::<&str>([]),
        200,
    );
    let labels = labels_of(&mut client, "overflow");
    // Every askable variable at 1e308: a monomial with a coefficient
    // above 2 is past f64 already.
    let huge = Json::obj(labels.iter().map(|l| (l.clone(), Json::from(1e308))));
    let benign = Json::obj([(labels[0].clone(), Json::from(2.0))]);

    let first = client
        .post(
            "/sessions/overflow/ask",
            &Json::obj([("scenarios", Json::Arr(vec![huge.clone()]))]),
        )
        .expect("request");
    assert_eq!(first.status, 422);
    assert_eq!(
        first
            .json()
            .expect("json")
            .get("error")
            .and_then(Json::as_str),
        Some("non_finite_answer")
    );

    // One benign chunk streams; the next overflows and ends the stream.
    let later = client
        .post(
            "/sessions/overflow/ask",
            &Json::obj([
                ("scenarios", Json::Arr(vec![benign, huge])),
                ("chunk", Json::from(1u64)),
            ]),
        )
        .expect("request");
    assert_eq!(later.status, 200);
    let lines = later.json_lines().expect("every line is JSON");
    assert_eq!(lines.iter().filter(|l| l.get("index").is_some()).count(), 1);
    let last = lines.last().expect("a terminal line");
    assert_eq!(
        last.get("error").and_then(Json::as_str),
        Some("non_finite_answer"),
        "{last}"
    );
}

#[test]
fn typed_rejections_over_the_wire() {
    let server = start();
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    create_telephony(&mut client, "victim");

    // Unknown session → 404 with the stable code.
    let missing = client.get("/sessions/nope").expect("request");
    assert_eq!(missing.status, 404);
    assert_eq!(
        missing
            .json()
            .expect("json")
            .get("error")
            .and_then(Json::as_str),
        Some("unknown_session")
    );

    // Duplicate name → 409.
    let dup = client
        .post(
            "/sessions",
            &Json::obj([
                ("name", Json::from("victim")),
                ("workload", Json::from("telephony")),
            ]),
        )
        .expect("request");
    assert_eq!(dup.status, 409);

    // Unparseable strategy → 422 from the FromStr satellite.
    let strategy = client
        .post(
            "/sessions",
            &Json::obj([
                ("name", Json::from("s2")),
                ("workload", Json::from("telephony")),
                ("strategy", Json::from("online:2.5:7")),
            ]),
        )
        .expect("request");
    assert_eq!(strategy.status, 422);
    assert_eq!(
        strategy
            .json()
            .expect("json")
            .get("error")
            .and_then(Json::as_str),
        Some("bad_strategy")
    );

    // The removed per-request shard count → 400 naming the field, not
    // silently ignored.
    let shards = client
        .post(
            "/sessions/victim/compress",
            &Json::obj([("shards", Json::from(4u64))]),
        )
        .expect("request");
    assert_eq!(shards.status, 400);
    let body = shards.json().expect("json");
    assert_eq!(
        body.get("error").and_then(Json::as_str),
        Some("malformed_request")
    );
    assert!(
        body.get("message")
            .and_then(Json::as_str)
            .is_some_and(|m| m.contains("\"shards\"")),
        "{body}"
    );

    // The retired oracles are no strategies (ADR 021): refused like any
    // unparseable one, before a session — or an unguarded search over
    // every cut — exists.
    for (i, retired) in ["brute", "brute:18446744073709551616", "greedy:reference"]
        .into_iter()
        .enumerate()
    {
        let refused = client
            .post(
                "/sessions",
                &Json::obj([
                    ("name", Json::from(format!("oracle{i}"))),
                    ("workload", Json::from("telephony")),
                    ("strategy", Json::from(retired)),
                ]),
            )
            .expect("request");
        assert_eq!(refused.status, 422, "{retired}");
        assert_eq!(
            refused
                .json()
                .expect("json")
                .get("error")
                .and_then(Json::as_str),
            Some("bad_strategy"),
            "{retired}"
        );
    }

    // A scenario naming an unknown variable → 422 typed.
    post_ok(
        &mut client,
        "/sessions/victim/compress",
        &Json::obj::<&str>([]),
        200,
    );
    let unknown_var = client
        .post(
            "/sessions/victim/ask",
            &Json::obj([(
                "scenarios",
                Json::Arr(vec![Json::obj([("no_such_var", Json::from(2.0))])]),
            )]),
        )
        .expect("request");
    assert_eq!(unknown_var.status, 422);
    assert_eq!(
        unknown_var
            .json()
            .expect("json")
            .get("error")
            .and_then(Json::as_str),
        Some("unknown_variable")
    );

    // An already-expired per-request deadline → 503 "cancelled" with
    // best-so-far run info, before any stream bytes.
    let labels = labels_of(&mut client, "victim");
    let (ask, _) = wire_scenarios(&labels, 0, 2);
    let mut expired = match ask {
        Json::Obj(pairs) => pairs,
        _ => unreachable!(),
    };
    expired.push(("deadline_ms".to_string(), Json::from(0u64)));
    let expired = client
        .post("/sessions/victim/ask", &Json::Obj(expired))
        .expect("request");
    assert_eq!(expired.status, 503);
    let body = expired.json().expect("json");
    assert_eq!(body.get("error").and_then(Json::as_str), Some("cancelled"));
    assert!(
        body.get("completion").is_some(),
        "503 carries completion info"
    );

    // Bodies that are not JSON → 400; wrong method → 405; unknown route
    // → 404; oversized declared body → 413. Each on a throwaway
    // connection (the server closes after protocol-level rejections).
    let mut raw = Client::connect(addr).expect("connect");
    let bad_json = raw
        .request_raw_body("POST", "/sessions", b"{not json")
        .expect("request");
    assert_eq!(bad_json.status, 400);
    assert_eq!(
        bad_json
            .json()
            .expect("json")
            .get("error")
            .and_then(Json::as_str),
        Some("malformed_request")
    );

    let mut raw = Client::connect(addr).expect("connect");
    let wrong_method = raw.delete("/healthz").expect("request");
    assert_eq!(wrong_method.status, 405);

    let mut raw = Client::connect(addr).expect("connect");
    let no_route = raw.get("/sessions/x/y/z").expect("request");
    assert_eq!(no_route.status, 404);
    assert_eq!(
        no_route
            .json()
            .expect("json")
            .get("error")
            .and_then(Json::as_str),
        Some("unknown_route")
    );

    let mut raw = Client::connect(addr).expect("connect");
    let oversized = raw
        .request_oversized("POST", "/sessions", (1 << 20) + 1)
        .expect("request");
    assert_eq!(oversized.status, 413);
    assert_eq!(
        oversized
            .json()
            .expect("json")
            .get("error")
            .and_then(Json::as_str),
        Some("body_too_large")
    );
}

/// A `param_modulus` the parameter rules cannot use — zero, which would
/// reach `rem_euclid(0)`, or above `i64::MAX`, which would wrap negative
/// — is refused `422 bad_param_modulus` before any data is generated,
/// on every workload, and creates no session.
#[test]
fn a_bad_param_modulus_is_a_typed_422() {
    let server = start();
    let mut client = Client::connect(server.addr()).expect("connect");
    let cases = [
        ("tpch_q1", 0u64),
        ("tpch_q10", 0),
        ("telephony", 0),
        ("tpch_q1", 1 << 63),
        ("supply_chain", (1 << 63) + (1 << 11)),
    ];
    for (i, (workload, modulus)) in cases.into_iter().enumerate() {
        let name = format!("modulus{i}");
        let refused = client
            .post(
                "/sessions",
                &Json::obj([
                    ("name", Json::from(name.as_str())),
                    ("workload", Json::from(workload)),
                    ("param_modulus", Json::from(modulus)),
                ]),
            )
            .expect("request");
        let body = refused.json().expect("json");
        assert_eq!(refused.status, 422, "{workload} {modulus}: {body}");
        assert_eq!(
            body.get("error").and_then(Json::as_str),
            Some("bad_param_modulus"),
            "{workload} {modulus}"
        );
        let missing = client.get(&format!("/sessions/{name}")).expect("request");
        assert_eq!(missing.status, 404, "no session for {workload} {modulus}");
    }
}

/// A `shape_idx` past the last shape of its tree type is refused
/// `422 bad_tree_shape` before any data is generated, and creates no
/// session; the last in-range shape still builds.
#[test]
fn a_bad_tree_shape_is_a_typed_422() {
    let server = start();
    let mut client = Client::connect(server.addr()).expect("connect");
    let cases = [
        ("tpch_q10", 4u64, 3u64),
        ("telephony", 1, 6),
        ("tpch_q1", 7, 1 << 40),
    ];
    for (i, (workload, tree_type, shape_idx)) in cases.into_iter().enumerate() {
        let name = format!("shape{i}");
        let refused = client
            .post(
                "/sessions",
                &Json::obj([
                    ("name", Json::from(name.as_str())),
                    ("workload", Json::from(workload)),
                    ("tree_type", Json::from(tree_type)),
                    ("shape_idx", Json::from(shape_idx)),
                ]),
            )
            .expect("request");
        let body = refused.json().expect("json");
        assert_eq!(
            refused.status, 422,
            "{workload} {tree_type}/{shape_idx}: {body}"
        );
        assert_eq!(
            body.get("error").and_then(Json::as_str),
            Some("bad_tree_shape"),
            "{workload} {tree_type}/{shape_idx}"
        );
        let missing = client.get(&format!("/sessions/{name}")).expect("request");
        assert_eq!(
            missing.status, 404,
            "no session for {tree_type}/{shape_idx}"
        );
    }
    post_ok(
        &mut client,
        "/sessions",
        &Json::obj([
            ("name", Json::from("last_shape")),
            ("workload", Json::from("telephony")),
            ("tree_type", Json::from(4u64)),
            ("shape_idx", Json::from(2u64)),
        ]),
        201,
    );
}

#[test]
fn healthz_and_stats_expose_the_five_hooks() {
    let server = start();
    let mut client = Client::connect(server.addr()).expect("connect");
    let health = client.get("/healthz").expect("request");
    assert_eq!(health.status, 200);
    assert_eq!(
        health
            .json()
            .expect("json")
            .get("ok")
            .and_then(Json::as_bool),
        Some(true)
    );

    create_telephony(&mut client, "observed");
    post_ok(
        &mut client,
        "/sessions/observed/compress",
        &Json::obj::<&str>([]),
        200,
    );
    let stats = client.get("/stats").expect("request").json().expect("json");
    let sessions = stats.get("sessions").and_then(Json::as_arr).expect("array");
    assert_eq!(sessions.len(), 1);
    let observed = &sessions[0];
    for hook in [
        "compile_count",
        "intern_stats",
        "kernel_info",
        "artifact_info",
        "run_stats",
    ] {
        assert!(
            observed.get(hook).is_some(),
            "/stats must surface the {hook} hook"
        );
    }
    assert_eq!(
        observed
            .get("kernel_info")
            .and_then(|k| k.get("lanes"))
            .and_then(Json::as_u64)
            .map(|l| l >= 1),
        Some(true)
    );
    let kernel_keys: Vec<&str> = observed
        .get("kernel_info")
        .and_then(Json::as_obj)
        .expect("object")
        .iter()
        .map(|(key, _)| key.as_str())
        .collect();
    assert_eq!(
        kernel_keys,
        ["requested", "selected", "avx2_available", "lanes"]
    );
    // The compression ran under its request's guard, which is gone; what
    // it ticked there stays readable.
    assert_eq!(
        observed
            .get("run_stats")
            .and_then(|r| r.get("checkpoints_hit"))
            .and_then(Json::as_u64)
            .map(|ticks| ticks > 0),
        Some(true),
        "{observed}"
    );
}

/// A client that posts a huge ask and never reads the answer stalls its
/// own connection thread on TCP backpressure until `write_timeout` — and
/// nothing else: the session is shared, not locked, so `/stats` and
/// another client's ask on the *same* session answer meanwhile.
#[test]
fn a_stalled_reader_delays_no_other_request_on_its_session() {
    let write_timeout = Duration::from_secs(10);
    let server = ServerHandle::start(ServerConfig {
        write_timeout,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    create_telephony(&mut client, "shared");
    post_ok(
        &mut client,
        "/sessions/shared/compress",
        &Json::obj::<&str>([]),
        200,
    );
    let labels = labels_of(&mut client, "shared");

    // Far more answer bytes than the loopback socket buffers hold
    // (hundreds of values a scenario), on a socket nobody reads.
    let body =
        Json::obj([("scenarios", Json::Arr(vec![Json::obj::<&str>([]); 50_000]))]).to_string();
    let mut stalled = std::net::TcpStream::connect(addr).expect("connect");
    write!(
        stalled,
        "POST /sessions/shared/ask HTTP/1.1\r\nhost: provabs\r\n\
         content-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("request sent");
    std::thread::sleep(Duration::from_millis(500));

    let session_stats = |client: &mut Client| {
        let started = Instant::now();
        let stats = client.get("/stats").expect("stats").json().expect("json");
        let sessions = stats.get("sessions").and_then(Json::as_arr).expect("array");
        (sessions[0].clone(), started.elapsed())
    };
    let (before, stats_took) = session_stats(&mut client);
    assert_eq!(
        before.get("requests").and_then(Json::as_u64),
        Some(3),
        "compress, the labels read, and the stalled ask were routed: {before}"
    );
    assert_eq!(
        before.get("scenarios_answered").and_then(Json::as_u64),
        Some(0),
        "the stalled ask is still mid-stream: {before}"
    );

    let (ask, _) = wire_scenarios(&labels, 0, 2);
    let started = Instant::now();
    let answered = client.post("/sessions/shared/ask", &ask).expect("ask");
    let ask_took = started.elapsed();
    assert_eq!(streamed_values(&answered).len(), 2);

    let (after, _) = session_stats(&mut client);
    assert_eq!(
        after.get("scenarios_answered").and_then(Json::as_u64),
        Some(2),
        "only the second client's ask has finished: {after}"
    );
    for (what, took) in [("/stats", stats_took), ("a second ask", ask_took)] {
        assert!(
            took < write_timeout / 4,
            "{what} waited {took:?} behind a stalled reader (write_timeout {write_timeout:?})"
        );
    }
    // Hanging up fails the blocked write, which frees the connection.
    drop(stalled);
}

/// The accept loop's connection cap: with `max_connections: 2` and two
/// clients holding their connections open, a third connection is told
/// `503 server_busy` and closed; once one holder hangs up, its slot is
/// released and a new connection is served.
#[test]
fn a_connection_past_the_limit_is_refused_until_a_slot_frees() {
    let server = ServerHandle::start(ServerConfig {
        max_connections: 2,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.addr();
    // A request answered on each proves both connections hold a slot.
    let mut held: Vec<Client> = (0..2)
        .map(|_| {
            let mut client = Client::connect(addr).expect("connect");
            assert_eq!(client.get("/healthz").expect("healthz").status, 200);
            client
        })
        .collect();

    // The refusal is written at accept time, before any request, and
    // the server then closes: the whole reply is readable to EOF.
    let mut third = std::net::TcpStream::connect(addr).expect("connect");
    third
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut reply = String::new();
    std::io::Read::read_to_string(&mut third, &mut reply).expect("read to close");
    assert!(reply.starts_with("HTTP/1.1 503"), "{reply}");
    assert!(reply.contains("server_busy"), "{reply}");
    assert!(
        reply.to_ascii_lowercase().contains("connection: close"),
        "{reply}"
    );

    // Hanging up ends the holder's connection thread; the slot it frees
    // lets a new connection in within a bounded retry. A refused try may
    // also surface as a reset: the refusal can close before the request
    // is sent.
    drop(held.pop());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut client = Client::connect(addr).expect("connect");
        match client.get("/healthz").map(|r| r.status) {
            Ok(200) => break,
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            last => panic!("no slot was released: last reply {last:?}"),
        }
    }
    // The connection still held was served throughout.
    assert_eq!(held[0].get("/healthz").expect("healthz").status, 200);
}

/// An already-expired per-request deadline stops compression before its
/// first step: a 200 with an anytime (interrupted) completion, never a
/// hang or a reset — and the interrupted session still answers.
#[test]
fn an_expired_deadline_interrupts_compression_over_the_wire() {
    let server = start();
    let mut client = Client::connect(server.addr()).expect("connect");
    create_telephony(&mut client, "stalled");
    let stalled = post_ok(
        &mut client,
        "/sessions/stalled/compress",
        &Json::obj([("deadline_ms", Json::from(0u64))]),
        200,
    );
    let completion = stalled.get("completion").expect("completion");
    assert_eq!(
        completion.get("complete").and_then(Json::as_bool),
        Some(false),
        "{stalled}"
    );
    assert!(
        completion
            .get("reason")
            .and_then(Json::as_str)
            .is_some_and(|r| r.contains("deadline")),
        "{stalled}"
    );

    let labels = labels_of(&mut client, "stalled");
    let (ask, _) = wire_scenarios(&labels, 1, 2);
    let streamed = client.post("/sessions/stalled/ask", &ask).expect("ask");
    assert_eq!(streamed.status, 200);
    assert_eq!(streamed_values(&streamed).len(), 2);
}

#[test]
fn graceful_shutdown_drains_in_flight_work_and_releases_the_port() {
    let mut server = start();
    let addr = server.addr();
    let mut setup = Client::connect(addr).expect("connect");
    create_telephony(&mut setup, "draining");

    // Kick off a compress (hundreds of milliseconds of real work) and
    // begin shutdown while it is in flight.
    let in_flight = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client
            .post("/sessions/draining/compress", &Json::obj::<&str>([]))
            .expect("the in-flight request must complete through shutdown")
            .status
    });
    // Give the request time to reach the handler.
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        server.stop(Duration::from_secs(60)),
        "shutdown must drain every connection"
    );
    assert_eq!(in_flight.join().expect("no panic"), 200);

    // The port is actually free again.
    let rebound = std::net::TcpListener::bind(addr);
    assert!(rebound.is_ok(), "shutdown leaked the port: {rebound:?}");
}
