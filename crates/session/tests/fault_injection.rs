//! Guarded-execution and fault-injected-persistence contracts, driven
//! through the façade:
//!
//! * **Torn-artifact proof** — for *every* filesystem injection point a
//!   save performs (create / write / fsync / rename), a failing
//!   `Session::save_with_faults` over an existing artifact leaves that
//!   artifact **bit-for-bit intact** and surfaces typed
//!   [`Error::Persist`]; the survivor opens and answers identically
//!   through both the owned and the memory-mapped load path. Transient
//!   faults are retried and the save still lands.
//! * **Anytime compression** — a tripped guard (cancel token, step
//!   budget) leaves a sound best-so-far abstraction installed, tagged in
//!   [`Session::run_stats`]; evaluation under a tripped guard fails
//!   typed ([`Error::Cancelled`]), never hangs.

use provabs_scenario::Scenario;
use provabs_session::{
    Budget, CancelToken, Completion, Error, FaultFs, FaultOp, Interrupt, Session, SessionBuilder,
    Strategy,
};
use provabs_testkit::TempFile;

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

#[test]
fn every_injection_point_leaves_the_prior_artifact_intact() {
    let scenarios = small_scenarios();
    for op in FaultOp::ALL {
        let tmp = TempFile::new(&format!("torn-{op:?}"));
        let path = &tmp.0;

        // Save artifact A and remember its exact bytes and answers.
        let session = small_builder().build().expect("valid configuration");
        let expected = session.ask(&scenarios).expect("known names").values;
        session.save(path).expect("clean save");
        let bytes_a = std::fs::read(path).expect("artifact A exists");

        // A later save of *different* state fails at this injection
        // point...
        let bigger = small_builder().bound(4).build().expect("valid");
        let err = bigger
            .save_with_faults(path, &FaultFs::fail_nth(op, 1))
            .expect_err("injected fault must surface");
        assert!(
            matches!(err, Error::Persist(_)),
            "{op:?}: typed persist error, got {err:?}"
        );

        // ...and artifact A survives bit-for-bit, answering identically
        // through both load paths.
        let bytes_after = std::fs::read(path).expect("artifact still present");
        assert_eq!(bytes_a, bytes_after, "{op:?}: prior artifact torn");
        for open in [Session::open, Session::open_mapped] {
            let reopened = open(path).unwrap_or_else(|e| panic!("{op:?}: reopen failed: {e}"));
            let got = reopened.ask(&scenarios).expect("same names").values;
            assert_eq!(got, expected, "{op:?}: reopened answers differ");
        }

        // No half-written temp sibling left behind.
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
            "{op:?}: leftover temp files {leftovers:?}"
        );
    }
}

#[test]
fn transient_faults_are_retried_and_the_save_lands() {
    for op in FaultOp::ALL {
        let tmp = TempFile::new(&format!("transient-{op:?}"));
        let session = small_builder().build().expect("valid configuration");
        session
            .save_with_faults(&tmp.0, &FaultFs::fail_nth_times(op, 1, 2))
            .unwrap_or_else(|e| panic!("{op:?}: two transient faults must be retried: {e}"));
        let reopened = Session::open(&tmp.0).expect("saved artifact opens");
        assert_eq!(
            reopened
                .ask(&small_scenarios())
                .expect("known names")
                .values,
            small_builder()
                .build()
                .expect("valid")
                .ask(&small_scenarios())
                .expect("known names")
                .values
        );
    }
}

#[test]
fn a_cancelled_session_compresses_to_an_anytime_prefix_and_fails_asks_typed() {
    let token = CancelToken::new();
    token.cancel();
    let session = wide_builder()
        .cancel_token(token)
        .build()
        .expect("valid configuration");

    // Compression is anytime: the guard tripped before any merge, so the
    // best-so-far abstraction is the (sound) identity, tagged as such.
    let (result, completion) = session
        .compress_with(session.guard())
        .expect("anytime result");
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
        .ask(&[Scenario::new().set("s0", 0.5)])
        .expect_err("cancelled guard stops the batch");
    assert_eq!(err, Error::Cancelled(Interrupt::Cancelled));
}

#[test]
fn a_step_budget_interrupts_mid_run_and_the_prefix_still_answers() {
    let session = wide_builder()
        .budget(Budget::unlimited().and_steps(3))
        .build()
        .expect("valid configuration");
    let (result, completion) = session
        .compress_with(session.guard())
        .expect("anytime result");
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
    // still answers (identity part of the prefix VVS keeps it live).
    let labels = session.abstracted_labels().expect("compressed");
    let probe = labels.first().expect("non-empty label set").clone();
    let err_or_run = session.ask(&[Scenario::new().set(&probe, 2.0)]);
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
    let session = small_builder()
        .deadline(std::time::Duration::from_secs(3600))
        .build()
        .expect("valid configuration");
    let run = session.ask(&small_scenarios()).expect("plenty of time");
    assert_eq!(run.values.len(), 2);
    assert_eq!(session.run_stats().completion, Completion::Complete);
}
