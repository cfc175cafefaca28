//! Guarded-execution and fault-injected-persistence contracts, driven
//! through the façade, each on every [`Strategy`]:
//!
//! * **Torn-artifact proof** — for *every* filesystem injection point a
//!   save performs (create / write / fsync / rename), a failing
//!   `Session::save_with_faults` over an existing artifact leaves that
//!   artifact **bit-for-bit intact** and surfaces typed
//!   [`Error::Persist`]; the survivor opens and answers identically
//!   through both the owned and the memory-mapped load path. Transient
//!   faults are retried and the save still lands.
//! * **Anytime compression** — a tripped guard (expired deadline, step
//!   cap, cancel token) leaves a sound best-so-far abstraction installed,
//!   tagged in [`Session::run_stats`], which saves and reopens like any
//!   other; evaluation under a tripped guard fails typed
//!   ([`Error::Cancelled`]), never hangs, and a frontier the guard cut
//!   short is [`Error::Cancelled`] too.
//!
//! Every guard and every fault plan here is an argument of the call it
//! bounds: nothing is read from the environment (ADR 025).

use provabs_datagen::workload::Workload;
use provabs_provenance::persist::WRITE_ATTEMPTS;
use provabs_scenario::Scenario;
use provabs_session::{
    Budget, CancelToken, Completion, Error, FaultFs, FaultOp, Guard, Interrupt, Session,
    SessionBuilder, Strategy,
};
use provabs_testkit::{attainable_bound, bits_equal, fixture, strategies, TempFile};
use std::path::Path;
use std::time::Duration;

/// Example 2's shape: two polynomials compressing 4 → 2 monomials.
fn small_builder() -> SessionBuilder {
    SessionBuilder::from_text("3·x1·a + 4·x2·a\n5·x1·b + 6·x2·b")
        .expect("parses")
        .forest_text("X(x1, x2)")
        .expect("parses")
        .strategy(Strategy::Greedy)
        .bound(2)
}

fn small_scenarios() -> Vec<Scenario> {
    vec![Scenario::new().set("X", 0.5), Scenario::new()]
}

/// Scenarios over the variables `session`'s abstraction kept
/// (compressing first): what it and every reopening of its artifact can
/// be asked.
fn scenarios_for(session: &Session) -> Vec<Scenario> {
    session.compress().expect("compresses");
    let labels = session.abstracted_labels().expect("compressed");
    (0..3)
        .map(|seed| Scenario::random(&labels, 0.5, seed))
        .chain([Scenario::new()])
        .collect()
}

/// One polynomial, 16 monomials over leaves `s0..s15`, under a
/// two-level tree `S(t0(..), .., t3(..))` — full compression takes five
/// greedy selection steps (four quartet merges, then the root), so
/// budget and cancellation trips land mid-run.
fn wide_builder() -> SessionBuilder {
    let monomials: Vec<String> = (0..16).map(|i| format!("{}·s{i}·a", i + 1)).collect();
    let quartets: Vec<String> = (0..4)
        .map(|q| {
            let leaves: Vec<String> = (0..4).map(|i| format!("s{}", 4 * q + i)).collect();
            format!("t{q}({})", leaves.join(", "))
        })
        .collect();
    SessionBuilder::from_text(&monomials.join(" + "))
        .expect("parses")
        .forest_text(&format!("S({})", quartets.join(", ")))
        .expect("parses")
        .strategy(Strategy::Greedy)
        .bound(1)
}

/// A guard whose token was cancelled before any call sees it.
fn cancelled() -> Guard {
    let token = CancelToken::new();
    token.cancel();
    Guard::unlimited().with_cancel(token)
}

/// The guard axis of the Strategy × Guard rows: unlimited first, then
/// three that trip on their first check — a deadline already passed, a cap of
/// one step, a token cancelled before the call — each with whether it
/// may also stop an evaluation batch. A step cap bounds selection steps
/// only, so it never does. Fresh per cell, so no cell sees another's
/// ticks.
fn guards() -> [(&'static str, Guard, bool); 4] {
    [
        ("unlimited", Guard::unlimited(), false),
        (
            "0 ms deadline",
            Guard::new(Budget::with_deadline(Duration::ZERO)),
            true,
        ),
        ("step cap 1", Guard::new(Budget::with_steps(1)), false),
        ("cancelled token", cancelled(), true),
    ]
}

/// Reopens the artifact at `path` through both load paths and asks each
/// opening `scenarios`: both must answer `want` to the last bit.
fn reopened_answer(path: &Path, scenarios: &[Scenario], want: &[Vec<f64>], context: &str) {
    for open in [Session::open, Session::open_mapped] {
        let reopened = open(path).unwrap_or_else(|e| panic!("{context}: reopen failed: {e}"));
        let got = reopened
            .ask(scenarios)
            .unwrap_or_else(|e| panic!("{context}: reopened ask failed: {e}"));
        bits_equal(want, &got.values, context);
    }
}

/// Strategy × FaultOp, both modes. Persistent: a later save of
/// *different* state fails at the injection point, typed, and the prior
/// artifact survives bit-for-bit, answering identically through both
/// load paths, with no temp sibling left behind. Transient: two faults
/// at the point are retried, the save lands byte-for-byte as a clean
/// save of the same state, and its reopenings answer like the saver.
#[test]
fn every_injection_point_leaves_the_prior_artifact_intact() {
    for (si, strategy) in strategies().into_iter().enumerate() {
        for op in FaultOp::ALL {
            let cell = format!("{strategy:?} × {op:?}");
            let tmp = TempFile::new(&format!("torn-{si}-{op:?}"));
            let path = &tmp.0;

            // Save artifact A and remember its exact bytes and answers.
            let session = small_builder()
                .strategy(strategy)
                .build()
                .expect("valid configuration");
            let scenarios = scenarios_for(&session);
            let expected = session.ask(&scenarios).expect("known names").values;
            session.save(path).expect("clean save");
            let bytes_a = std::fs::read(path).expect("artifact A exists");

            // Persistent mode: a later save of different state fails at
            // this injection point...
            let bigger = small_builder()
                .strategy(strategy)
                .bound(4)
                .build()
                .expect("valid");
            let err = bigger
                .save_with_faults(path, &FaultFs::fail_nth(op, 1))
                .expect_err("injected fault must surface");
            assert!(
                matches!(err, Error::Persist(_)),
                "{cell}: typed persist error, got {err:?}"
            );

            // ...and artifact A survives bit-for-bit, answering
            // identically through both load paths.
            let bytes_after = std::fs::read(path).expect("artifact still present");
            assert!(bytes_a == bytes_after, "{cell}: prior artifact torn");
            reopened_answer(path, &scenarios, &expected, &cell);

            assert_no_temp_sibling(path, &cell);

            // Transient mode: the same save, retried past two faults,
            // lands exactly as a clean save of that state.
            bigger
                .save_with_faults(path, &FaultFs::fail_nth_times(op, 1, 2))
                .unwrap_or_else(|e| panic!("{cell}: two transient faults must be retried: {e}"));
            let clean = TempFile::new(&format!("clean-{si}-{op:?}"));
            bigger.save(&clean.0).expect("clean save");
            let landed = std::fs::read(path).expect("artifact B exists");
            assert!(
                landed == std::fs::read(&clean.0).expect("clean artifact exists"),
                "{cell}: the retried save differs from a clean one"
            );
            assert!(landed != bytes_a, "{cell}: the retried save did not land");
            let bigger_scenarios = scenarios_for(&bigger);
            let bigger_answers = bigger.ask(&bigger_scenarios).expect("known names").values;
            reopened_answer(path, &bigger_scenarios, &bigger_answers, &cell);
        }
    }
}

/// No half-written temp sibling of `path` is left behind.
fn assert_no_temp_sibling(path: &Path, cell: &str) {
    let dir = path.parent().expect("temp dir");
    let stem = path.file_name().expect("file name").to_string_lossy();
    let leftovers: Vec<_> = std::fs::read_dir(dir)
        .expect("readable temp dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(stem.as_ref()) && *n != *stem)
        .collect();
    assert!(
        leftovers.is_empty(),
        "{cell}: leftover temp files {leftovers:?}"
    );
}

/// The retry budget's boundary, at every injection point: as many
/// transient faults as a save makes attempts exhaust it — a typed
/// [`Error::Persist`], the prior artifact byte-identical, no temp sibling
/// — and one fewer is retried, the save landing as a clean one.
#[test]
fn transient_faults_are_retried_and_the_save_lands() {
    for op in FaultOp::ALL {
        let tmp = TempFile::new(&format!("transient-{op:?}"));
        let path = &tmp.0;
        small_builder()
            .build()
            .expect("valid configuration")
            .save(path)
            .expect("clean save");
        let prior = std::fs::read(path).expect("artifact A exists");
        let bigger = small_builder().bound(4).build().expect("valid");

        let exhausted = format!("{op:?} × {WRITE_ATTEMPTS} transient faults");
        let err = bigger
            .save_with_faults(path, &FaultFs::fail_nth_times(op, 1, WRITE_ATTEMPTS))
            .expect_err("a fault on every attempt must surface");
        assert!(
            matches!(err, Error::Persist(_)),
            "{exhausted}: typed persist error, got {err:?}"
        );
        let after = std::fs::read(path).expect("artifact still present");
        assert!(after == prior, "{exhausted}: prior artifact torn");
        assert_no_temp_sibling(path, &exhausted);

        let retried = format!("{op:?} × {} transient faults", WRITE_ATTEMPTS - 1);
        bigger
            .save_with_faults(path, &FaultFs::fail_nth_times(op, 1, WRITE_ATTEMPTS - 1))
            .unwrap_or_else(|e| panic!("{retried}: must be retried: {e}"));
        let clean = TempFile::new(&format!("transient-clean-{op:?}"));
        bigger.save(&clean.0).expect("clean save");
        let landed = std::fs::read(path).expect("artifact B exists");
        assert!(
            landed == std::fs::read(&clean.0).expect("clean artifact exists"),
            "{retried}: the retried save differs from a clean one"
        );
        assert!(landed != prior, "{retried}: the retried save did not land");
    }
}

/// Strategy × Guard. Under each guard, on each strategy: compression is
/// `Ok` — complete and bit-equal to an unguarded session's under the
/// unlimited guard, interrupted with `size_reached` equal to the
/// installed prefix's size under a tripped one (`Strategy::None` selects
/// nothing, so it has nothing to interrupt and completes under every
/// guard). Asking under the guard answers what the session answers
/// unguarded — or, under a deadline or a token, is `Cancelled` — never a
/// panic; the state, interrupted
/// or not, saves, reopens owned and mapped, and answers bit-identically;
/// and the frontier is the unguarded one, or `Cancelled` whenever the
/// guard trips.
#[test]
fn every_strategy_under_every_guard_ends_typed() {
    let (data, forest) = fixture(Workload::Telephony);
    let bound = attainable_bound(&data.polys, &data.vars, &forest);
    for (si, strategy) in strategies().into_iter().enumerate() {
        let builder = SessionBuilder::new(data.polys.clone(), data.vars.clone())
            .forest(forest.clone())
            .strategy(strategy)
            .bound(bound);
        let unguarded = builder.clone().build().expect("valid configuration");
        let want = unguarded.compress().expect("attainable bound").clone();
        let want_frontier = unguarded
            .frontier(&Guard::unlimited())
            .expect("an unlimited trace completes");
        for (gi, (name, guard, stops_asks)) in guards().into_iter().enumerate() {
            let cell = format!("{strategy:?} × {name}");
            let trips = gi > 0;
            let session = builder.clone().build().expect("valid configuration");

            let (result, completion) = session
                .compress_with(&guard)
                .unwrap_or_else(|e| panic!("{cell}: compression must be anytime: {e}"));
            if trips && strategy != Strategy::None {
                let Completion::Interrupted { size_reached, .. } = completion else {
                    panic!("{cell}: a tripped guard must interrupt, got {completion:?}");
                };
                assert_eq!(size_reached, result.compressed_size_m, "{cell}");
                result
                    .vvs
                    .validate(&result.forest)
                    .expect("the prefix is sound");
            } else {
                assert_eq!(completion, Completion::Complete, "{cell}");
                assert_eq!(result.vvs, want.vvs, "{cell}");
                assert_eq!(
                    (result.compressed_size_m, result.compressed_size_v),
                    (want.compressed_size_m, want.compressed_size_v),
                    "{cell}"
                );
            }
            assert_eq!(session.run_stats().completion, completion, "{cell}");

            let scenarios = scenarios_for(&session);
            let answers = session.ask(&scenarios).expect("known names").values;
            if completion.is_complete() {
                let reference = unguarded.ask(&scenarios).expect("the same abstraction");
                bits_equal(&reference.values, &answers, &cell);
            }
            match session.ask_with(&scenarios, session.eval_options(), &guard) {
                Ok(run) => bits_equal(&answers, &run.values, &cell),
                Err(Error::Cancelled(_)) if stops_asks => {}
                Err(e) => panic!("{cell}: ask under the guard: {e}"),
            }

            let tmp = TempFile::new(&format!("guarded-{si}-{}", name.replace(' ', "-")));
            session.save(&tmp.0).expect("the installed state saves");
            reopened_answer(&tmp.0, &scenarios, &answers, &cell);

            match session.frontier(&guard) {
                Ok(points) if !trips => assert_eq!(points, want_frontier, "{cell}"),
                Err(Error::Cancelled(_)) if trips => {}
                other => panic!("{cell}: frontier {other:?}"),
            }
        }
    }
}

#[test]
fn a_cancelled_session_compresses_to_an_anytime_prefix_and_fails_asks_typed() {
    let session = wide_builder().build().expect("valid configuration");
    let guard = cancelled();

    // Compression is anytime: the guard tripped before any merge, so the
    // best-so-far abstraction is the (sound) identity, tagged as such.
    let (result, completion) = session.compress_with(&guard).expect("anytime result");
    assert_eq!(result.compressed_size_m, 16, "zero merges applied");
    assert_eq!(
        completion,
        Completion::Interrupted {
            reason: Interrupt::Cancelled,
            steps: 0,
            size_reached: 16,
        }
    );
    assert_eq!(session.run_stats().completion, completion);

    // Evaluation cannot return partial answers — it fails typed.
    let err = session
        .ask_with(
            &[Scenario::new().set("s0", 0.5)],
            session.eval_options(),
            &guard,
        )
        .expect_err("cancelled guard stops the batch");
    assert_eq!(err, Error::Cancelled(Interrupt::Cancelled));
}

#[test]
fn a_step_budget_interrupts_mid_run_and_the_prefix_still_answers() {
    let session = wide_builder().build().expect("valid configuration");
    let guard = Guard::new(Budget::with_steps(3));
    let (result, completion) = session.compress_with(&guard).expect("anytime result");
    let Completion::Interrupted {
        reason: Interrupt::StepCapExhausted,
        size_reached,
        ..
    } = completion
    else {
        panic!("expected a step-cap interruption, got {completion:?}");
    };
    assert_eq!(result.compressed_size_m, size_reached);
    assert!(
        result.compressed_size_m > 1 && result.compressed_size_m < 16,
        "a strict prefix: 1 < {} < 16",
        result.compressed_size_m
    );
    let stats = session.run_stats();
    assert!(
        stats.checkpoints_hit > 0,
        "selection steps were checkpointed"
    );

    // The prefix is a sound abstraction: asking over an *unmerged* leaf
    // still answers (identity part of the prefix VVS keeps it live), and
    // under the exhausted step-capped guard too — a step cap bounds
    // selection steps, never an evaluation batch.
    let labels = session.abstracted_labels().expect("compressed");
    let probe = labels.first().expect("non-empty label set").clone();
    let err_or_run = session.ask_with(
        &[Scenario::new().set(&probe, 2.0)],
        session.eval_options(),
        &guard,
    );
    assert!(
        err_or_run.is_ok(),
        "asking under a step-capped (not tripped-again) guard answers: {err_or_run:?}"
    );
}

#[test]
fn an_unlimited_session_reports_a_complete_run() {
    let session = small_builder().build().expect("valid configuration");
    session.ask(&small_scenarios()).expect("answers");
    let stats = session.run_stats();
    assert_eq!(stats.completion, Completion::Complete);
    assert!(stats.elapsed > std::time::Duration::ZERO);
}

#[test]
fn a_deadline_session_with_headroom_completes_normally() {
    let session = small_builder().build().expect("valid configuration");
    let guard = Guard::new(Budget::with_deadline(Duration::from_secs(3600)));
    let run = session
        .ask_with(&small_scenarios(), session.eval_options(), &guard)
        .expect("plenty of time");
    assert_eq!(run.values.len(), 2);
    assert_eq!(session.run_stats().completion, Completion::Complete);
    assert!(
        guard.checkpoints_hit() > 0,
        "compression ran under the guard"
    );
}
