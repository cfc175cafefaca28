//! The façade contract: `Session` results are bit-for-bit identical to
//! the direct low-level calls — same VVS, same abstracted working set,
//! same scenario outputs, same accuracy/equivalence numbers — for every
//! [`Strategy`] variant on the telephony, TPC-H and supply-chain
//! fixtures; the session serves repeated batches with zero recompilation
//! and zero `PolySet` materialisations on the hot path (the
//! `intern_stats` hook); and every error path surfaces through the
//! unified [`Error`].
//!
//! The low-level pipeline *is* the interned one: compression consumes
//! and returns `WorkingSet`s over the shared monomial arena, and
//! evaluation freezes that arena. A session built from a `PolySet`
//! lowers it once, with `WorkingSet::from_polyset`, so the oracles below
//! start from that same lowering. The hash-map representation remains
//! the semantics reference — it equals the interned results up to
//! floating-point merge order (asserted here with a relative tolerance;
//! exactly, term-set-wise, in the `intern_equivalence` suite).

use provabs_core::competitor::pairwise_summarize;
use provabs_core::greedy::{greedy_frontier, greedy_vvs};
use provabs_core::online::{online_compress, Solver};
use provabs_core::optimal::{optimal_frontier, optimal_vvs};
use provabs_core::problem::{evaluate_vvs, prepare, InternedAbstraction};
use provabs_datagen::scale::{scale_forest, scale_working_set, ScaleConfig};
use provabs_datagen::workload::Workload;
use provabs_engine::query::GroupedProvenanceInterned;
use provabs_provenance::compiled::CompiledPolySet;
use provabs_provenance::guard::{Budget, CancelToken, Guard, Interrupt};
use provabs_provenance::valuation::Valuation;
use provabs_provenance::working::WorkingSet;
use provabs_provenance::{polyset_to_string, VarTable};
use provabs_scenario::accuracy::{coarse_valuation, error_stats};
use provabs_scenario::executor::{eval, EvalOptions};
use provabs_scenario::speedup::max_equivalence_error_prepared;
use provabs_scenario::Scenario;
use provabs_session::{Error, SessionBuilder, Strategy, Target};
use provabs_testkit::{attainable_bound, bits_equal, close, fixture, strategies};
use provabs_trees::cut::Vvs;
use provabs_trees::error::TreeError;
use provabs_trees::forest::Forest;
use std::time::Duration;

/// The direct low-level call each strategy promises to be identical to —
/// the same dispatch `Session::compress` performs, under no limits.
fn low_level_oracle(
    strategy: &Strategy,
    source: &WorkingSet<f64>,
    forest: &Forest,
    bound: usize,
) -> Result<InternedAbstraction<f64>, TreeError> {
    let guard = &Guard::unlimited();
    match strategy {
        Strategy::Optimal => optimal_vvs(source, forest, bound, guard).map(|(abs, _)| abs),
        Strategy::Greedy => greedy_vvs(source, forest, bound, guard).map(|(abs, _)| abs),
        Strategy::Online { fraction, seed } => online_compress(
            source,
            forest,
            bound,
            *fraction,
            *seed,
            Solver::Greedy,
            guard,
        )
        .map(|(o, _)| o.full),
        Strategy::Competitor => {
            pairwise_summarize(source, forest, bound, guard).map(|(abs, _, _)| abs)
        }
        Strategy::None => {
            let (cleaned, live) = prepare(source, forest)?;
            let vvs = Vvs::identity(&cleaned);
            Ok(evaluate_vvs(source.clone(), &cleaned, vvs, live.len()))
        }
        _ => unreachable!("non-exhaustive enum: add new strategies here"),
    }
}

/// The tentpole assertion: for every strategy, on the telephony and
/// TPC-H fixtures, the façade's compression, abstracted working set,
/// scenario answers and deterministic reports equal the low-level
/// interned pipeline bit for bit — repeated `ask` batches never
/// recompile, and the ask path never materialises a `PolySet`.
#[test]
fn facade_equals_low_level_for_every_strategy() {
    for workload in [Workload::Telephony, Workload::TpchQ10] {
        let (data, forest) = fixture(workload);
        // What `SessionBuilder::new` lowers its input to.
        let source = WorkingSet::from_polyset(&data.polys);
        let bound = attainable_bound(&data.polys, &data.vars, &forest);
        let opts = EvalOptions::new().threads(2);
        for strategy in strategies() {
            let context = format!("{} / {strategy:?}", workload.name());
            let expected = low_level_oracle(&strategy, &source, &forest, bound)
                .unwrap_or_else(|e| panic!("{context}: low-level failed: {e}"));

            let session = SessionBuilder::new(data.polys.clone(), data.vars.clone())
                .forest(forest.clone())
                .strategy(strategy)
                .bound(bound)
                .eval_options(opts.clone())
                .build()
                .unwrap_or_else(|e| panic!("{context}: build failed: {e}"));
            let got = session.compress().expect("low-level succeeded").clone();

            // Same VVS, same measures.
            assert_eq!(got.vvs, expected.result.vvs, "{context}: VVS differs");
            assert_eq!(got.original_size_m, expected.result.original_size_m);
            assert_eq!(got.original_size_v, expected.result.original_size_v);
            assert_eq!(got.compressed_size_m, expected.result.compressed_size_m);
            assert_eq!(got.compressed_size_v, expected.result.compressed_size_v);

            // Same abstracted working set (compared through the canonical
            // deterministic text rendering of the bridge).
            let expected_down = expected.working.to_polyset();
            assert_eq!(
                polyset_to_string(session.abstracted().expect("compressed"), session.vars()),
                polyset_to_string(&expected_down, &data.vars),
                "{context}: abstracted set differs"
            );

            // Same scenario outputs, bit for bit, against the low-level
            // batch engine on the same frozen arena.
            let names = expected.result.vvs.labels(&expected.result.forest);
            let scenarios: Vec<Scenario> = (0..5)
                .map(|i| Scenario::random(&names, 0.6, 100 + i))
                .collect();
            let mut oracle_vars = data.vars.clone();
            let vals: Vec<Valuation<f64>> = scenarios
                .iter()
                .map(|s| s.valuation(&mut oracle_vars))
                .collect();
            let frozen = expected.working.freeze();
            let unlimited = Guard::unlimited();
            let low = eval(frozen.view(), &vals, &opts, &unlimited)
                .into_result()
                .expect("clean batch")
                .values;
            let high = session.ask(&scenarios).expect("known names").values;
            bits_equal(&low, &high, &context);

            // Semantics guard: the hash-map reference evaluator agrees up
            // to merge-order float noise.
            let reference: Vec<Vec<f64>> =
                vals.iter().map(|v| v.eval_set(&expected_down)).collect();
            close(1e-12, &low, &reference, &context);

            // Second and third batches: identical values, zero
            // recompilation (the compile-count hook; the one lazy freeze
            // happened inside the first ask).
            let compile_count = session.compile_count();
            assert_eq!(compile_count, 1, "{context}: first ask freezes once");
            let again = session.ask(&scenarios).expect("known names").values;
            bits_equal(&high, &again, &context);
            let prepared = session.ask_prepared(&vals).expect("compressed").values;
            bits_equal(&high, &prepared, &context);
            assert_eq!(
                session.compile_count(),
                compile_count,
                "{context}: repeated batches must not recompile"
            );

            // Deterministic reports match the low-level measurements bit
            // for bit, all served off the same lowerings.
            let orig_names: Vec<String> = data.vars.iter().map(|(_, n)| n.to_string()).collect();
            let fine = Scenario::random(&orig_names, 0.5, 99);
            let fine_val = fine.valuation(&mut oracle_vars);
            let original_compiled = source.freeze();
            let coarse_val = coarse_valuation(&expected.result, &fine_val);
            let one = |compiled: &CompiledPolySet<f64>, val: &Valuation<f64>| {
                eval(
                    compiled.view(),
                    std::slice::from_ref(val),
                    &opts,
                    &unlimited,
                )
                .into_result()
                .expect("clean batch")
                .values
                .pop()
                .unwrap_or_default()
            };
            let low_exact = one(&original_compiled, &fine_val);
            let low_approx = one(&frozen, &coarse_val);
            let low_acc = error_stats(&low_exact, &low_approx);
            let high_acc = session.accuracy_report(&fine).expect("known names");
            assert_eq!(
                low_acc.mean_relative.to_bits(),
                high_acc.mean_relative.to_bits(),
                "{context}: accuracy mean differs"
            );
            assert_eq!(
                low_acc.max_relative.to_bits(),
                high_acc.max_relative.to_bits(),
                "{context}: accuracy max differs"
            );

            // Everything so far ran in the interned currency (the one
            // abstracted() bridge above is the only materialisation).
            assert_eq!(
                session.intern_stats().polyset_materializations,
                1,
                "{context}: evaluation paths must not materialise"
            );
            assert!(session.intern_stats().arena_monomials > 0, "{context}");

            // equivalence_error delegates to the hash-map reference on
            // both sides — its numbers equal the low-level call on the
            // session's own bridges, bit for bit.
            let low_err = max_equivalence_error_prepared(
                &source.to_polyset(),
                &expected_down,
                &expected.result,
                &vals,
            );
            let high_err = session.equivalence_error(&scenarios).expect("known names");
            assert_eq!(low_err.to_bits(), high_err.to_bits(), "{context}");

            // Speedup reports are timing-based (not bit-comparable):
            // assert they ran on both sides and are well-formed.
            let report = session
                .speedup_report(&scenarios, 2, session.eval_options())
                .expect("known names");
            assert!(report.original.as_nanos() > 0, "{context}");
            assert!(report.compressed.as_nanos() > 0, "{context}");
            assert!(
                (0.0..=100.0).contains(&report.speedup_pct),
                "{context}: {}",
                report.speedup_pct
            );
        }
    }
}

/// The acceptance invariant of the interned pipeline: a full
/// query → compress → ask run through `Session` — provenance emitted by
/// the engine's interned aggregation, compression consuming the arena,
/// evaluation freezing it — performs **zero** `PolySet` hash-map
/// materialisations, asserted by the `intern_stats` hook.
#[test]
fn query_compress_ask_is_materialisation_free() {
    for workload in [
        Workload::Telephony,
        Workload::TpchQ10,
        Workload::SupplyChain,
    ] {
        let (data, forest) = fixture(workload);
        let context = workload.name();
        let bound = attainable_bound(&data.polys, &data.vars, &forest);
        // The engine-emitted interned form: identical provenance, already
        // in the id currency (the fixture carries both representations).
        let session = SessionBuilder::from_query_interned(data.interned.clone(), data.vars.clone())
            .forest(forest.clone())
            .bound(bound)
            .build()
            .expect("valid configuration");
        session.compress().expect("bound attainable");
        let stats = session.intern_stats();
        assert!(stats.interned_source, "{context}");
        assert_eq!(stats.polyset_materializations, 0, "{context}: compress");

        let names = session.abstracted_labels().expect("compressed");
        let scenarios: Vec<Scenario> = (0..4)
            .map(|i| Scenario::random(&names, 0.6, 31 + i))
            .collect();
        let first = session.ask(&scenarios).expect("known names").values;
        let second = session.ask(&scenarios).expect("known names").values;
        assert_eq!(first, second, "{context}: asks are deterministic");
        // Speedup on the compiled engine freezes the original side from
        // the same arena — still no materialisation.
        let report = session
            .speedup_report(&scenarios, 2, session.eval_options())
            .expect("known names");
        assert!(report.original.as_nanos() > 0, "{context}");

        let stats = session.intern_stats();
        assert_eq!(
            stats.polyset_materializations, 0,
            "{context}: the query → compress → ask hot path must stay id-only"
        );
        assert_eq!(session.compile_count(), 2, "{context}: one freeze per side");

        // The values equal a session built from the materialised polys up
        // to merge-order float noise (the two arenas were interned in
        // different orders — emission vs ingest — so monomial layout, and
        // with it float summation order, legitimately differs).
        let reference = SessionBuilder::new(data.polys.clone(), data.vars.clone())
            .forest(forest)
            .bound(bound)
            .build()
            .expect("valid configuration");
        assert_eq!(
            reference.compress().expect("attainable").vvs,
            session.result().expect("compressed").vvs,
            "{context}: same VVS from either representation"
        );
        let ref_values = reference.ask(&scenarios).expect("known names").values;
        close(1e-12, &first, &ref_values, context);
    }
}

/// Satellite regression: `Strategy::None` populates the interned
/// bookkeeping (working set, live variables, arena stats) exactly like
/// the compressing strategies — the no-op path no longer skips engine
/// setup.
#[test]
fn strategy_none_populates_intern_bookkeeping() {
    let (data, forest) = fixture(Workload::Telephony);
    let loose_bound = data.polys.size_m();
    let none = SessionBuilder::new(data.polys.clone(), data.vars.clone())
        .forest(forest.clone())
        .strategy(Strategy::None)
        .build()
        .expect("valid");
    let identity_greedy = SessionBuilder::new(data.polys.clone(), data.vars.clone())
        .forest(forest.clone())
        .bound(loose_bound)
        .build()
        .expect("valid");
    none.compress().expect("identity always works");
    identity_greedy.compress().expect("loose bound is identity");

    // Same measures, same live-variable space, same arena bookkeeping.
    let (a, b) = (none.result().unwrap(), identity_greedy.result().unwrap());
    assert_eq!(a.compressed_size_m, b.compressed_size_m);
    assert_eq!(a.compressed_size_v, b.compressed_size_v);
    assert!(none.working().is_some(), "None caches the working set");
    assert_eq!(
        none.intern_stats().arena_monomials,
        identity_greedy.intern_stats().arena_monomials,
        "None interns exactly like the other strategies"
    );
    assert_eq!(none.intern_stats().polyset_materializations, 0);

    // Live-variable validation behaves like every other strategy: known
    // variables evaluate, unknown ones are rejected. (Restrict the draw
    // to variables that occur in the provenance — the fixture's variable
    // table also holds the forest's meta-variable labels.)
    let occurring = data.polys.var_set();
    let names: Vec<String> = data
        .vars
        .iter()
        .filter(|(id, _)| occurring.contains(id))
        .map(|(_, n)| n.to_string())
        .collect();
    let scenario = Scenario::random(&names, 0.5, 5);
    let run_none = none.ask(std::slice::from_ref(&scenario)).expect("known");
    let run_greedy = identity_greedy
        .ask(std::slice::from_ref(&scenario))
        .expect("known");
    bits_equal(&run_none.values, &run_greedy.values, "None vs identity");
    assert_eq!(
        none.ask(&[Scenario::new().set("nope", 0.5)]).unwrap_err(),
        Error::UnknownVariable("nope".into())
    );
    assert_eq!(none.intern_stats().polyset_materializations, 0);
}

/// Everything a session builds lazily sits in a `OnceLock` and every
/// counter is an atomic, so a session — compressed or not — is shared
/// across threads by plain reference (checked at compile time).
#[test]
fn session_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<provabs_session::Session>();
}

/// The property the server is built on: threads that share one
/// *uncompressed* `&Session` and all ask at once get one compression and
/// one freeze between them, and the answers a lone caller would.
#[test]
fn concurrent_asks_on_a_shared_uncompressed_session_compress_and_freeze_once() {
    const THREADS: usize = 8;
    let (data, forest) = fixture(Workload::Telephony);
    // A guard that can trip (but will not) counts its checkpoints, which
    // is how a second, discarded compression would show.
    let guard = || Guard::new(Budget::with_deadline(Duration::from_secs(3600)));
    let builder = SessionBuilder::new(data.polys, data.vars).forest(forest);

    let serial = builder.clone().build().expect("valid configuration");
    let serial_guard = guard();
    let names = serial
        .compress_with(&serial_guard)
        .map(|(r, _)| r.vvs.labels(&r.forest))
        .expect("attainable default target");
    let scenarios: Vec<Scenario> = (0..6).map(|i| Scenario::random(&names, 0.5, i)).collect();
    let expected = serial.ask(&scenarios).expect("known names").values;
    let one_compression = serial_guard.checkpoints_hit();
    assert!(one_compression > 0, "selection steps are checkpointed");

    let shared = builder.build().expect("valid configuration");
    let shared_guard = guard();
    let start = std::sync::Barrier::new(THREADS);
    let answers: Vec<Vec<Vec<f64>>> = std::thread::scope(|scope| {
        let asking: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    shared
                        .ask_with(&scenarios, shared.eval_options(), &shared_guard)
                        .expect("known names")
                        .values
                })
            })
            .collect();
        asking
            .into_iter()
            .map(|t| t.join().expect("no panic"))
            .collect()
    });
    for got in &answers {
        bits_equal(got, &expected, "shared session vs serial session");
    }
    assert_eq!(shared.compile_count(), 1, "one freeze for eight askers");
    assert_eq!(
        shared_guard.checkpoints_hit(),
        one_compression,
        "exactly one compression ran under the shared guard"
    );
    assert_eq!(shared.run_stats().checkpoints_hit, one_compression);
    assert_eq!(shared.intern_stats().polyset_materializations, 0);
}

/// The compress-once / ask-many pattern with several analysts over one
/// capture: threads that each build a session from a clone of one
/// captured `compress-scale`-shaped set, then compress and ask, answer
/// what a lone session answers — and the capture they all shared comes
/// out exactly as it went in (its arena ids, postings and runs).
#[test]
fn concurrent_sessions_over_one_capture_leave_it_as_it_was() {
    const THREADS: usize = 4;
    let config = ScaleConfig {
        groups: 16,
        plans: 32,
        months: 12,
        fill_permille: 950,
        seed: 7,
    };
    let mut vars = VarTable::new();
    let captured = scale_working_set(&config, &mut vars);
    let forest = scale_forest(&config, &mut vars);
    let observe = |ws: &WorkingSet<f64>| {
        let arena = ws.arena();
        let monos: Vec<_> = (0..arena.len() as u32)
            .map(|id| arena.mono(id).to_monomial())
            .collect();
        let postings: Vec<Vec<u32>> = (0..vars.len() as u32)
            .map(|v| {
                let (prefix, tail) = arena.postings_of(provabs_provenance::var::VarId(v));
                prefix.iter().chain(tail).copied().collect()
            })
            .collect();
        let runs: Vec<Vec<(u32, u64)>> = (0..ws.num_polys())
            .map(|pi| ws.poly_terms(pi).map(|(id, c)| (id, c.to_bits())).collect())
            .collect();
        (monos, postings, runs)
    };
    let snapshot = observe(&captured);
    let session = |working: WorkingSet<f64>| {
        let provenance = GroupedProvenanceInterned {
            keys: Vec::new(),
            working,
        };
        SessionBuilder::from_query_interned(provenance, vars.clone())
            .forest(forest.clone())
            .strategy(Strategy::Greedy)
            .build()
            .expect("valid configuration")
    };

    let serial = session(captured.clone());
    let names = serial
        .compress()
        .map(|r| r.vvs.labels(&r.forest))
        .expect("attainable default target");
    let scenarios: Vec<Scenario> = (0..6).map(|i| Scenario::random(&names, 0.5, i)).collect();
    let expected = serial.ask(&scenarios).expect("known names").values;

    let start = std::sync::Barrier::new(THREADS);
    let answers: Vec<(Vec<String>, Vec<Vec<f64>>)> = std::thread::scope(|scope| {
        let analysts: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let own = session(captured.clone());
                    start.wait();
                    let result = own.compress().expect("attainable default target");
                    let labels = result.vvs.labels(&result.forest);
                    (labels, own.ask(&scenarios).expect("known names").values)
                })
            })
            .collect();
        analysts
            .into_iter()
            .map(|t| t.join().expect("no panic"))
            .collect()
    });
    for (labels, got) in &answers {
        assert_eq!(labels, &names, "the same abstraction");
        bits_equal(got, &expected, "a session over a clone vs the serial one");
    }
    drop(serial);
    assert!(observe(&captured) == snapshot, "the capture changed");
}

#[test]
fn frontier_matches_the_low_level_frontiers() {
    let (data, forest) = fixture(Workload::Telephony);
    let builder = SessionBuilder::new(data.polys.clone(), data.vars.clone()).forest(forest.clone());
    let optimal = builder
        .clone()
        .strategy(Strategy::Optimal)
        .build()
        .expect("valid");
    let source = WorkingSet::from_polyset(&data.polys);
    let guard = Guard::unlimited();
    assert_eq!(
        optimal.frontier(&guard).expect("single tree"),
        optimal_frontier(&source, &forest, &guard)
            .expect("single tree")
            .0
    );
    let greedy = builder.clone().build().expect("valid");
    assert_eq!(
        greedy.frontier(&guard).expect("any forest"),
        greedy_frontier(&source, &forest, &guard)
            .expect("any forest")
            .0
    );
    // Tracing needs no hash-map form on the interned engines.
    assert_eq!(greedy.intern_stats().polyset_materializations, 0);
}

/// `frontier` runs under the guard it is given, and a trace the guard
/// cut short is an error, never a shorter trace: with a token cancelled
/// before the call, every tracer answers `Cancelled`.
#[test]
fn frontier_under_a_cancelled_token_is_a_typed_error() {
    let (data, forest) = fixture(Workload::Telephony);
    let token = CancelToken::new();
    token.cancel();
    let cancelled = Guard::unlimited().with_cancel(token);
    for strategy in [Strategy::Optimal, Strategy::default()] {
        let session = SessionBuilder::new(data.polys.clone(), data.vars.clone())
            .forest(forest.clone())
            .strategy(strategy)
            .build()
            .expect("valid");
        assert_eq!(
            session.frontier(&cancelled),
            Err(Error::Cancelled(Interrupt::Cancelled)),
            "{strategy:?}"
        );
    }
}

#[test]
fn ratio_target_matches_the_half_size_bound() {
    let (data, forest) = fixture(Workload::TpchQ10);
    let bound = (data.polys.size_m() / 2).max(1);
    let by_ratio = SessionBuilder::new(data.polys.clone(), data.vars.clone())
        .forest(forest.clone())
        .target(Target::Ratio(0.5))
        .build()
        .expect("valid");
    assert_eq!(by_ratio.bound(), bound);
    // Same outcome as the explicit half-size bound, whether the bound is
    // attainable on this fixture or not.
    let source = WorkingSet::from_polyset(&data.polys);
    match greedy_vvs(&source, &forest, bound, &Guard::unlimited()) {
        Ok((expected, _)) => {
            assert_eq!(
                by_ratio.compress().expect("attainable").vvs,
                expected.result.vvs
            );
        }
        Err(e) => assert_eq!(by_ratio.compress().unwrap_err(), Error::Tree(e)),
    }
}

// ---------------------------------------------------------------------
// Error paths: every failure surfaces through the unified `Error`.
// ---------------------------------------------------------------------

#[test]
fn bad_forest_surfaces_as_tree_error() {
    // Both leaves of the tree occur in one monomial: the forest violates
    // compatibility (`|m ∩ T| ≤ 1`, §2.2).
    let session = SessionBuilder::from_text("1·a·b + 2·a")
        .expect("parses")
        .forest_text("X(a, b)")
        .expect("parses")
        .build()
        .expect("shape is valid");
    let err = session.compress().unwrap_err();
    assert!(
        matches!(err, Error::Tree(TreeError::MonomialNotCompatible { .. })),
        "got {err:?}"
    );

    // A meta-variable that already occurs in the polynomials is equally
    // bad. (The internal node needs ≥ 2 surviving children — cleaning
    // collapses single-child nodes before the compatibility check.)
    let session = SessionBuilder::from_text("1·a + 2·b + 3·X")
        .expect("parses")
        .forest_text("X(a, b)")
        .expect("parses")
        .build()
        .expect("shape is valid");
    assert!(matches!(
        session.compress().unwrap_err(),
        Error::Tree(TreeError::MetaVariableInPolynomials(_))
    ));
}

#[test]
fn unknown_and_merged_scenario_variables_are_rejected() {
    let session = SessionBuilder::from_text("1·a + 2·b\n3·c")
        .expect("parses")
        .forest_text("X(a, b)")
        .expect("parses")
        .bound(2)
        .build()
        .expect("valid");
    let err = session
        .ask(&[Scenario::new().set("nope", 0.5)])
        .unwrap_err();
    assert_eq!(err, Error::UnknownVariable("nope".into()));
    // The chosen meta-variable and surviving originals are valid coarse
    // scenario targets.
    assert!(session.ask(&[Scenario::new().set("X", 0.5)]).is_ok());
    assert!(session.ask(&[Scenario::new().set("c", 0.5)]).is_ok());
    // A variable merged away by the compression is known but cannot
    // affect any coarse answer — asking it is rejected, not no-opped.
    let err = session.ask(&[Scenario::new().set("a", 0.5)]).unwrap_err();
    assert_eq!(err, Error::VariableNotInAbstraction("a".into()));
    // The same fine variable is legitimate input to accuracy_report,
    // which measures exactly that approximation.
    assert!(session
        .accuracy_report(&Scenario::new().set("a", 0.5))
        .is_ok());
}

#[test]
fn bound_of_zero_is_rejected_at_build_time() {
    let err = SessionBuilder::from_text("1·a + 2·b")
        .expect("parses")
        .forest_text("X(a, b)")
        .expect("parses")
        .bound(0)
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        Error::InvalidBound {
            bound: 0,
            size_m: 2
        }
    );
}

#[test]
fn missing_forest_and_single_tree_requirements() {
    let err = SessionBuilder::from_text("1·a")
        .expect("parses")
        .build()
        .unwrap_err();
    assert_eq!(err, Error::MissingForest);

    // Optimal requires a single tree; the forest here has two.
    let session = SessionBuilder::from_text("1·a1 + 2·a2 + 3·x1 + 4·x2")
        .expect("parses")
        .forest_text("A(a1, a2)\nX(x1, x2)")
        .expect("parses")
        .strategy(Strategy::Optimal)
        .build()
        .expect("shape is valid");
    assert!(matches!(
        session.compress().unwrap_err(),
        Error::Tree(TreeError::ExpectedSingleTree(2))
    ));
}

#[test]
fn unattainable_bound_carries_the_floor() {
    // Two trees of one leaf each: no merge is possible, the floor is 2.
    let session = SessionBuilder::from_text("1·a + 2·b")
        .expect("parses")
        .forest_text("A(a)\nB(b)")
        .expect("parses")
        .bound(1)
        .build()
        .expect("valid");
    match session.compress().unwrap_err() {
        Error::Tree(TreeError::BoundUnattainable {
            bound,
            best_possible,
        }) => {
            assert_eq!(bound, 1);
            assert_eq!(best_possible, 2);
        }
        other => panic!("expected BoundUnattainable, got {other:?}"),
    }
}

#[test]
fn strategy_none_serves_the_original_provenance() {
    let mut vars = VarTable::new();
    let polys = provabs_provenance::parse_polyset("3·x·a + 4·y·a", &mut vars).expect("parses");
    let session = SessionBuilder::new(polys.clone(), vars)
        .strategy(Strategy::None)
        .build()
        .expect("no forest needed");
    let result = session.compress().expect("identity always works");
    assert_eq!(result.compressed_size_m, polys.size_m());
    assert_eq!(result.compressed_size_v, polys.size_v());
    let run = session
        .ask(&[Scenario::new().set("a", 2.0)])
        .expect("known variable");
    assert_eq!(run.values, vec![vec![14.0]]);
}

/// The kernel-dispatch hook: `Session::kernel_info` reports exactly what
/// the builder's [`EvalOptions`] requested and what the dispatcher will
/// run, and every forced kernel answers bit-for-bit identically through
/// the façade — under an unlimited guard and under an armed one that
/// never trips alike (one executor, so a guard cannot change an answer).
#[test]
fn kernel_info_reports_the_dispatch_and_all_kernels_agree() {
    use provabs_provenance::simd::{avx2_available, LANES};
    use provabs_session::Kernel;

    for workload in [Workload::Telephony, Workload::TpchQ10] {
        let (data, forest) = fixture(workload);
        // Scenario names come from the compression result (identical across
        // kernels — the kernel only affects evaluation, never compression).
        let mut scenarios: Vec<Scenario> = Vec::new();
        // The portable generic kernel answers first and is the reference.
        let mut reference: Option<Vec<Vec<f64>>> = None;
        for kernel in [Kernel::Generic, Kernel::Avx2, Kernel::Auto] {
            let context = format!("{} / kernel {kernel}", workload.name());
            let session = SessionBuilder::new(data.polys.clone(), data.vars.clone())
                .forest(forest.clone())
                .strategy(Strategy::Greedy)
                .bound(data.polys.size_m())
                .eval_options(EvalOptions::new().kernel(kernel))
                .build()
                .expect("valid");

            // The observability hook, before any evaluation has happened.
            let info = session.kernel_info();
            assert_eq!(info.requested, kernel, "{context}: requested");
            // Every kernel reports its widest pass: four AVX2 registers
            // of four scenarios.
            assert_eq!(info.lanes, 16, "{context}: lane width");
            assert_eq!(LANES, 16, "{context}: LANES is the widest pass");
            assert_eq!(info.avx2_available, avx2_available(), "{context}: cpuid");
            assert_eq!(info.selected, kernel.resolve(), "{context}: selected");
            assert!(
                info.selected != Kernel::Auto,
                "{context}: selection must be concrete"
            );

            let result = session.compress().expect("attainable bound").clone();
            if scenarios.is_empty() {
                let names = result.vvs.labels(&result.forest);
                // Two wide passes, one narrow pass and a scalar tail of 3.
                scenarios = (0..(2 * LANES + 7))
                    .map(|i| Scenario::random(&names, 0.6, 300 + i as u64))
                    .collect();
            }
            let opts = session.eval_options();
            let values = session
                .ask_with(&scenarios, opts, &Guard::unlimited())
                .expect("known names")
                .values;
            let armed = Guard::new(Budget::with_deadline(Duration::from_secs(3600)))
                .with_cancel(CancelToken::new());
            let guarded = session
                .ask_with(&scenarios, opts, &armed)
                .expect("the guard never trips")
                .values;
            bits_equal(&values, &guarded, &format!("{context}: armed guard"));
            match &reference {
                None => reference = Some(values),
                Some(expected) => bits_equal(expected, &values, &context),
            }
        }
    }
}
