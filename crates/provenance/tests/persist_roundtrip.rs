//! The durable-artifact round-trip contract: a session saved with
//! `Session::save` and reopened — through the owned read path *and* the
//! zero-copy memory-mapped path — answers scenario batches bit-for-bit
//! identically to the in-process session, reports the same sizes, VVS
//! and intern stats, and never compiles (`compile_count() == 0`): the
//! compiled columns are resliced from the file image, not rebuilt.
//!
//! Swept across all three paper workloads (telephony, TPC-H Q10, the
//! supply-chain BOM), every [`Strategy`] variant, and a battery of
//! randomly generated poly-sets — with powers on most factors, on one in
//! ten, and over more variables than a `u16` indexes. What the file may
//! cost is a contract too: [`artifacts_stay_within_their_size_budget`].
//!
//! This suite lives in the provenance crate (which owns the format) and
//! drives it through the façade via a dev-dependency cycle — Cargo
//! permits dev-only cycles, and the format's contract *is* a whole-
//! pipeline property.

use provabs_datagen::scale::{scale_forest, scale_working_set, ScaleConfig};
use provabs_datagen::workload::Workload;
use provabs_provenance::guard::Guard;
use provabs_provenance::monomial::Monomial;
use provabs_provenance::persist::{section, RawArtifact, SharedCompiled, FORMAT_VERSION};
use provabs_provenance::polyset::PolySet;
use provabs_provenance::polyset_to_string;
use provabs_provenance::valuation::Valuation;
use provabs_provenance::var::VarTable;
use provabs_provenance::working::WorkingSet;
use provabs_scenario::Scenario;
use provabs_session::{ArtifactOrigin, Session, SessionBuilder, Strategy};
use provabs_testkit::{
    attainable_bound, bits_equal, fixture, leaf_table, runs, strategies, Coeffs, Powers, Rng,
    Shape, TempFile,
};

/// Opens `path` through both load paths and asserts each reopened
/// session is indistinguishable from `saved` on the given batch.
fn assert_open_paths_equivalent(
    saved: &Session,
    path: &TempFile,
    scenarios: &[Scenario],
    valuations: &[Valuation<f64>],
    context: &str,
) {
    let expected_run = saved.ask(scenarios).expect("known names").values;
    let expected_prepared = saved.ask_prepared(valuations).expect("compressed").values;
    let expected_result = saved.result().expect("compressed").clone();
    let expected_stats = saved.intern_stats();

    for (mapped, reopened) in [
        (false, Session::open(&path.0).expect("owned open")),
        (true, Session::open_mapped(&path.0).expect("mapped open")),
    ] {
        let context = format!("{context} / mapped={mapped}");

        // Artifact provenance is observable and correct.
        match reopened.artifact_info() {
            ArtifactOrigin::Opened {
                path: p,
                format_version,
                mapped: m,
            } => {
                assert_eq!(p, &path.0, "{context}");
                assert_eq!(*format_version, FORMAT_VERSION, "{context}");
                assert_eq!(*m, mapped, "{context}");
            }
            other => panic!("{context}: expected Opened origin, got {other:?}"),
        }
        assert!(
            format!("{reopened:?}").contains("Opened"),
            "{context}: Debug must surface the artifact origin"
        );
        assert_eq!(
            saved.artifact_info(),
            &ArtifactOrigin::Computed,
            "{context}"
        );

        // The opened session is already compressed, with identical
        // selection outcome and configuration.
        assert!(reopened.result().is_some(), "{context}");
        let got = reopened.result().expect("opened compressed").clone();
        assert_eq!(got.vvs, expected_result.vvs, "{context}: VVS differs");
        assert_eq!(got.original_size_m, expected_result.original_size_m);
        assert_eq!(got.original_size_v, expected_result.original_size_v);
        assert_eq!(got.compressed_size_m, expected_result.compressed_size_m);
        assert_eq!(got.compressed_size_v, expected_result.compressed_size_v);
        assert_eq!(reopened.bound(), saved.bound(), "{context}");
        assert_eq!(reopened.strategy(), saved.strategy(), "{context}");
        assert_eq!(
            reopened.abstracted_labels(),
            saved.abstracted_labels(),
            "{context}"
        );

        // Bit-for-bit identical answers, by names and by prepared
        // valuations, without a single compilation: the columns come
        // straight out of the artifact.
        let run = reopened.ask(scenarios).expect("known names").values;
        bits_equal(&expected_run, &run, &context);
        let prepared = reopened
            .ask_prepared(valuations)
            .expect("compressed")
            .values;
        bits_equal(&expected_prepared, &prepared, &context);
        let again = reopened.ask(scenarios).expect("known names").values;
        bits_equal(&run, &again, &context);
        assert_eq!(
            reopened.compile_count(),
            0,
            "{context}: opened sessions never compile for the ask path"
        );

        // Same intern bookkeeping, and the ask path stayed id-only.
        let stats = reopened.intern_stats();
        assert_eq!(
            stats.arena_monomials, expected_stats.arena_monomials,
            "{context}"
        );
        assert_eq!(
            stats.interned_source, expected_stats.interned_source,
            "{context}"
        );
        assert_eq!(
            stats.polyset_materializations, 0,
            "{context}: asks on an opened session must not materialise"
        );

        // The abstracted set rebuilt from the stored columns equals the
        // saver's, term for term (this forces `from_compiled`).
        assert_eq!(
            polyset_to_string(reopened.abstracted().expect("compressed"), reopened.vars()),
            polyset_to_string(saved.abstracted().expect("compressed"), saved.vars()),
            "{context}: abstracted set differs after decode"
        );
    }
}

/// The tentpole acceptance sweep: all three workloads × every strategy,
/// 16-scenario batches, both open paths, bit-for-bit equality with
/// `compile_count() == 0`.
#[test]
fn saved_sessions_answer_identically_for_every_workload_and_strategy() {
    for workload in [
        Workload::Telephony,
        Workload::TpchQ10,
        Workload::SupplyChain,
    ] {
        let (data, forest) = fixture(workload);
        let bound = attainable_bound(&data.polys, &data.vars, &forest);
        for strategy in strategies() {
            let context = format!("{} / {strategy:?}", workload.name());
            let session = SessionBuilder::new(data.polys.clone(), data.vars.clone())
                .forest(forest.clone())
                .strategy(strategy)
                .bound(bound)
                .build()
                .unwrap_or_else(|e| panic!("{context}: build failed: {e}"));
            session.compress().expect("attainable bound");

            let names = session.abstracted_labels().expect("compressed");
            let scenarios: Vec<Scenario> = (0..16)
                .map(|i| Scenario::random(&names, 0.6, 500 + i))
                .collect();
            let mut val_vars = session.vars().clone();
            let valuations: Vec<Valuation<f64>> = scenarios
                .iter()
                .map(|s| s.valuation(&mut val_vars))
                .collect();

            let file = TempFile::new(workload.name());
            session.save(&file.0).expect("save succeeds");
            assert_open_paths_equivalent(&session, &file, &scenarios, &valuations, &context);
        }
    }
}

/// Saving is deterministic: saving the same compressed state twice —
/// before and after evaluations warmed every cache — writes
/// byte-identical files. (This is what makes the ad-hoc freeze inside a
/// pre-evaluation `save` indistinguishable from the cached lowering.)
#[test]
fn save_is_deterministic_and_cache_independent() {
    let (data, forest) = fixture(Workload::Telephony);
    let bound = attainable_bound(&data.polys, &data.vars, &forest);
    let session = SessionBuilder::new(data.polys.clone(), data.vars.clone())
        .forest(forest)
        .bound(bound)
        .build()
        .expect("valid");

    // First save: compress has not even run yet (save runs it).
    let cold = TempFile::new("cold");
    session.save(&cold.0).expect("save");
    assert_eq!(session.compile_count(), 0, "save alone must not compile");

    // Warm every cache: asks (freeze), bridges (materialise).
    let names = session.abstracted_labels().expect("compressed");
    let scenarios: Vec<Scenario> = (0..4).map(|i| Scenario::random(&names, 0.6, i)).collect();
    session.ask(&scenarios).expect("known names");
    let _ = session.abstracted();
    let _ = session.original();

    let warm = TempFile::new("warm");
    session.save(&warm.0).expect("save");
    let a = std::fs::read(&cold.0).expect("cold bytes");
    let b = std::fs::read(&warm.0).expect("warm bytes");
    assert_eq!(a, b, "saves before/after cache warm-up must be identical");

    // And a reopened session re-saves the same bytes again.
    let reopened = Session::open(&cold.0).expect("open");
    let resaved = TempFile::new("resaved");
    reopened.save(&resaved.0).expect("save");
    let c = std::fs::read(&resaved.0).expect("resaved bytes");
    assert_eq!(a, c, "open → save must reproduce the artifact");
}

/// Reopened sessions serve the measurements and the *reference* paths
/// too: both sides of the accuracy and speedup reports straight off the
/// artifact's columns — nothing compiled, nothing materialised — and the
/// uncompiled hash-map engine off working sets rebuilt from them.
#[test]
fn opened_sessions_serve_reference_paths_and_reports() {
    let (data, forest) = fixture(Workload::TpchQ10);
    let bound = attainable_bound(&data.polys, &data.vars, &forest);
    let session = SessionBuilder::new(data.polys.clone(), data.vars.clone())
        .forest(forest)
        .bound(bound)
        .build()
        .expect("valid");
    session.compress().expect("attainable");
    let file = TempFile::new("reference");
    session.save(&file.0).expect("save");

    let names = session.abstracted_labels().expect("compressed");
    let scenarios: Vec<Scenario> = (0..3).map(|i| Scenario::random(&names, 0.6, i)).collect();
    let orig_names: Vec<String> = data.vars.iter().map(|(_, n)| n.to_string()).collect();
    let fine = Scenario::random(&orig_names, 0.5, 99);

    for reopened in [
        Session::open(&file.0).expect("open"),
        Session::open_mapped(&file.0).expect("open mapped"),
    ] {
        // Accuracy numbers match the saver's bit for bit (both sides
        // deterministic evaluations off equal state).
        let a = session.accuracy_report(&fine).expect("known names");
        let b = reopened.accuracy_report(&fine).expect("known names");
        assert_eq!(a.mean_relative.to_bits(), b.mean_relative.to_bits());
        assert_eq!(a.max_relative.to_bits(), b.max_relative.to_bits());
        // Speedup reports run (timing-based, not bit-comparable).
        let report = reopened
            .speedup_report(&scenarios, 2, reopened.eval_options())
            .expect("known");
        assert!(report.original.as_nanos() > 0);
        assert!(report.compressed.as_nanos() > 0);
        // The original side was evaluated off the stored columns, like
        // the abstracted one: no freeze, no working set, no poly-set.
        assert_eq!(reopened.compile_count(), 0, "reports must not compile");
        assert_eq!(reopened.intern_stats().polyset_materializations, 0);

        // The original provenance rebuilds from the artifact.
        assert_eq!(
            polyset_to_string(reopened.original(), reopened.vars()),
            polyset_to_string(session.original(), session.vars()),
            "original side must round-trip"
        );
        // Equivalence error runs on the hash-map reference, whose float
        // summation order legitimately differs after the rebuild
        // re-interns the maps — both sides must still be float noise.
        let ea = session.equivalence_error(&scenarios).expect("known names");
        let eb = reopened.equivalence_error(&scenarios).expect("known names");
        assert!(ea < 1e-9 && eb < 1e-9, "equivalence noise: {ea} vs {eb}");
        // The frontier runs on the rebuilt original working set.
        let unlimited = Guard::unlimited();
        assert_eq!(
            reopened.frontier(&unlimited).expect("unguarded"),
            session.frontier(&unlimited).expect("unguarded")
        );
    }
}

// ---------------------------------------------------------------------
// Random poly-sets: structural fuzz of the codecs through the façade.
// ---------------------------------------------------------------------

/// Twelve random poly-sets, with dense and with sparse powers (no
/// forest, `Strategy::None`): save → open (both paths) preserves the
/// working sets term-for-term and answers random prepared valuations
/// bit-for-bit; and a working set comes back from its own frozen columns
/// as the poly-set it was.
#[test]
fn random_polysets_roundtrip_bitwise() {
    for (seed, sparse_powers) in (1..=12u64).flat_map(|seed| [(seed, false), (seed, true)]) {
        let mut rng = Rng::new(0x9E37_79B9 ^ (seed << 16));
        let shape = Shape {
            vars: 3 + rng.below(20) as u32,
            arity: 0..=3,
            powers: [Powers::Dense(3), Powers::Sparse][usize::from(sparse_powers)],
            ..Shape::default()
        };
        let (vars, _) = leaf_table(shape.vars);
        let polys = shape.draw(&mut rng);
        let context = format!("seed {seed}, sparse powers {sparse_powers}");

        let ws = WorkingSet::from_polyset(&polys);
        let rebuilt = WorkingSet::from_compiled(ws.freeze().view());
        assert_eq!(rebuilt.num_polys(), polys.len(), "{context}");
        for (a, b) in rebuilt.to_polyset().iter().zip(polys.iter()) {
            assert_eq!(a, b, "{context}: from_compiled(freeze) is not the identity");
        }
        // Run for run in the same order too: a lowered set's ids follow
        // first occurrence, as the rebuilt set's do, so the ascending runs
        // list the same monomials and coefficients in the same places.
        assert_eq!(runs(&rebuilt), runs(&ws), "{context}: a run reordered");

        let session = SessionBuilder::new(polys.clone(), vars.clone())
            .strategy(Strategy::None)
            .build()
            .expect("no forest needed");
        session.compress().expect("identity always works");

        let valuations = shape.batch(&mut rng, shape.vars as usize, 4);

        let file = TempFile::new(&format!("random-{seed}"));
        session.save(&file.0).expect("save");
        let expected = session
            .ask_prepared(&valuations)
            .expect("compressed")
            .values;

        for reopened in [
            Session::open(&file.0).expect("open"),
            Session::open_mapped(&file.0).expect("open mapped"),
        ] {
            let got = reopened
                .ask_prepared(&valuations)
                .expect("compressed")
                .values;
            bits_equal(&expected, &got, &context);
            assert_eq!(reopened.compile_count(), 0, "{context}");
            assert_eq!(
                polyset_to_string(reopened.abstracted().expect("compressed"), reopened.vars()),
                polyset_to_string(session.abstracted().expect("compressed"), session.vars()),
                "{context}: abstracted set differs"
            );
            assert_eq!(
                polyset_to_string(reopened.original(), reopened.vars()),
                polyset_to_string(session.original(), session.vars()),
                "{context}: original set differs"
            );
        }
    }
}

/// More variables than a `u16` indexes: the columns are frozen, saved,
/// validated and evaluated four bytes an index, on both load paths.
#[test]
fn a_set_over_70_000_variables_roundtrips_on_wide_indices() {
    const VARS: u32 = 70_000;
    // Every variable occurs, in windows of two; the drawn monomials make
    // late ones (local index ≥ 65 536) meet early ones, and one factor in
    // ten carries a power.
    let shape = Shape {
        vars: VARS,
        arity: 2..=2,
        powers: Powers::Sparse,
        coeffs: Coeffs::Quarters,
        wide: true,
        ..Shape::default()
    };
    let mut rng = Rng::new(0x70_000);
    let (vars, _) = leaf_table(VARS);
    let polys = shape.draw(&mut rng);
    let session = SessionBuilder::new(polys, vars.clone())
        .strategy(Strategy::None)
        .build()
        .expect("no forest needed");
    session.compress().expect("identity always works");
    let frozen = session.working().expect("compressed").freeze();
    assert_eq!(frozen.num_vars(), VARS as usize);
    assert_eq!(frozen.view().factor_index_bytes(), 4);

    let valuations = shape.batch(&mut rng, 4_000, 5);
    let file = TempFile::new("wide");
    session.save(&file.0).expect("save");
    let expected = session
        .ask_prepared(&valuations)
        .expect("compressed")
        .values;
    for reopened in [
        Session::open(&file.0).expect("open"),
        Session::open_mapped(&file.0).expect("open mapped"),
    ] {
        let got = reopened
            .ask_prepared(&valuations)
            .expect("compressed")
            .values;
        bits_equal(&expected, &got, "wide indices");
        assert_eq!(reopened.compile_count(), 0);
        let rebuilt = reopened.working().expect("compressed").freeze();
        assert_eq!(rebuilt.view().factor_index_bytes(), 4);
        assert_eq!(
            polyset_to_string(reopened.original(), reopened.vars()),
            polyset_to_string(session.original(), session.vars()),
        );
    }
}

/// What an artifact may cost: beside its small sections (configuration,
/// variable table, forests, VVS), a stored monomial is its `f64`
/// coefficient and two bytes per factor — plus a `u32` prefix end only in
/// a set whose monomials differ in factor count — and its share of its
/// polynomial's prefix end and of the variable column: under 15 bytes
/// with three factors, under 13 with two, for `𝒫` and `𝒫↓S` alike. A
/// dense exponent column, a `u32` index, an ends column where every
/// monomial has the same degree, or a second copy of either set would
/// each break it.
#[test]
fn artifacts_stay_within_their_size_budget() {
    let budget = |session: &Session, per_monomial: usize, tag: &str| -> RawArtifact {
        let file = TempFile::new(tag);
        session.save(&file.0).expect("save");
        let bytes = std::fs::read(&file.0).expect("artifact bytes");
        let art = RawArtifact::open_bytes(bytes.clone()).expect("parses");
        // Header, TOC entry and padding per section, and the sections
        // that do not grow with the provenance.
        let container = 32 + 40 * art.section_ids().count();
        let small: usize = (section::SESSION_META..=section::LIVE_VARS)
            .map(|id| art.section(id).expect("present").len())
            .sum();
        let result = session.result().expect("compressed");
        let monomials = result.original_size_m + result.compressed_size_m;
        assert!(
            bytes.len() <= container + small + per_monomial * monomials,
            "{tag}: {} bytes, {small} of them fixed, for {monomials} stored monomials",
            bytes.len()
        );
        art
    };
    // Each column section of `art` in its own words: the degree its
    // monomials share, if they do, and its size against version 2's
    // codec, which stored an end per monomial whatever the degrees.
    let columns = |art: &RawArtifact, vars: usize| {
        [section::COMPILED_ABS, section::COMPILED_ORIG].map(|id| {
            let shared = SharedCompiled::validate(art, id, "columns", vars).expect("valid");
            let view = shared.view();
            let v2_len = 40
                + 12 * view.num_monomials()
                + 4 * (view.num_polys() + view.num_vars())
                + view.factor_index_bytes() * view.num_factors();
            let len = art.section(id).expect("present").len();
            (view.uniform_degree(), len, v2_len)
        })
    };

    // The scale fixture: every monomial is plan · month · group.
    let config = ScaleConfig {
        groups: 40,
        ..ScaleConfig::default()
    };
    let mut vars = VarTable::new();
    let working = scale_working_set(&config, &mut vars);
    let forest = scale_forest(&config, &mut vars);
    let bound = working.size_m() * 35 / 100;
    let num_vars = vars.len();
    let scale = SessionBuilder::new(working.to_polyset(), vars)
        .forest(forest)
        .strategy(Strategy::Greedy)
        .bound(bound)
        .build()
        .expect("valid");
    let art = budget(&scale, 15, "scale");
    for (degree, len, v2_len) in columns(&art, num_vars) {
        assert_eq!(degree, Some(3), "plan · month · group");
        assert!(len < v2_len, "{len} B, {v2_len} B with ends");
    }

    // Telephony: every monomial is plan · month.
    let (data, forest) = fixture(Workload::Telephony);
    let bound = attainable_bound(&data.polys, &data.vars, &forest);
    let telephony = SessionBuilder::new(data.polys.clone(), data.vars.clone())
        .forest(forest.clone())
        .bound(bound)
        .build()
        .expect("valid");
    let art = budget(&telephony, 13, "telephony");
    for (degree, _, _) in columns(&art, data.vars.len()) {
        assert_eq!(degree, Some(2), "plan · month");
    }

    // Mixed degrees: the same with one constant term among the plan ·
    // month ones. Both sets keep their ends column — and cost what they
    // cost in version 2, byte for byte, never more.
    let mut polys = data.polys.as_slice().to_vec();
    polys[0].add_term(Monomial::one(), 1.5);
    let polys = PolySet::from_vec(polys);
    let bound = attainable_bound(&polys, &data.vars, &forest);
    let mixed = SessionBuilder::new(polys, data.vars.clone())
        .forest(forest)
        .bound(bound)
        .build()
        .expect("valid");
    let art = budget(&mixed, 17, "mixed");
    for (degree, len, v2_len) in columns(&art, data.vars.len()) {
        assert_eq!(degree, None, "a constant among degree-2 monomials");
        assert_eq!(len, v2_len, "an ends column costs what it did");
    }
}
