//! The layer pass of a traced run: each layer's public functions, timed
//! from outside on clones of this workload's own inputs.
//!
//! The rounds already leave spans around the calls a workload makes on
//! its own path (engine query, session build, compress, asks, save,
//! reopen, wire requests). This pass adds the calls no workload makes
//! directly — the selection algorithm under the session, the freeze, the
//! valuation table and the kernel sweep, the batch executor, the JSON
//! codec, one client against several. A workload reports the rows of the
//! layers on its own path and no others (`spec::On`): no engine rows
//! where there are no tables, no `server.*` rows off the wire, the
//! selection algorithm of its own strategy, sharding and streaming on the
//! one workload of the size they exist for.

use crate::host::nproc;
use crate::prepare::{capture, generate, one_thread, Prepared, BATCH};
use crate::rounds::Target;
use crate::spec::On;
use crate::stats::{median, percentile};
use crate::tally::Tally;
use crate::trace::{median_s, repeat, Tracer};
use provabs_core::greedy::greedy_vvs_interned_guarded;
use provabs_core::optimal::optimal_vvs_interned_guarded;
use provabs_core::shard::{
    partition_by_size, sharded_greedy_interned_guarded, StreamingCompressor, StreamingConfig,
};
use provabs_provenance::guard::Guard;
use provabs_provenance::valuation::Valuation;
use provabs_provenance::working::WorkingSet;
use provabs_scenario::executor::{eval_compiled_view, eval_prepared, EvalOptions};
use provabs_session::Session;
use provabs_trees::clean::clean_forest_vars;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

/// Scenarios the hash-map reference evaluator is timed on (it is two
/// orders of magnitude slower than the compiled kernels).
const REFERENCE_SCENARIOS: usize = 32;
/// Chunks the streaming compressor ingests.
const STREAM_CHUNKS: usize = 8;

/// Runs the layer pass in about `seconds` and returns the rows it
/// measured, by name.
pub fn layer_pass(
    p: &Prepared,
    twin: &mut Session,
    target: &mut dyn Target,
    scratch: &Path,
    seconds: f64,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let kind = p.config.kind;
    let each = Duration::from_secs_f64(seconds / 32.0);
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();

    let root = tr.enter("layer_pass");
    let guard = Guard::unlimited();
    let source = &p.captured.working;
    let forest = &p.captured.forest;
    let size_m = source.size_m();
    let bound = twin.bound();

    // datagen: the generator again (it names its own span).
    repeat(tr, each, "probe.datagen", |tr| {
        drop(generate(&p.config, tr))
    });
    out.insert(
        "datagen.generate_ms",
        median_s(tr, "datagen.generate")? * 1e3,
    );

    // engine: the workload's own query, where it has one.
    if On::EngineFed.applies(kind) {
        let query = repeat(tr, each, "probe.engine", |tr| {
            capture(kind, &p.source, false, tr)
        });
        let join_s = median_s(tr, "engine.join")?;
        out.insert("engine.join_ms", join_s * 1e3);
        out.insert("engine.tuples_per_s", query.joined_tuples as f64 / join_s);
        out.insert(
            "engine.aggregate_interned_ms",
            median_s(tr, "engine.aggregate_interned")? * 1e3,
        );
        out.insert(
            "engine.monomials_emitted",
            query.captured.working.size_m() as f64,
        );
    }

    // session: what the rounds' cold passes spent outside the engine and
    // the selection algorithm.
    if On::InProcess.applies(kind) {
        out.insert("session.build_ms", median_s(tr, "session.build")? * 1e3);
        out.insert(
            "session.first_ask_ms",
            median_s(tr, "session.first_ask")? * 1e3,
        );
    }

    // trees
    let live = source.live_vars();
    let cleaned = repeat(tr, each, "trees.clean_forest", |_| {
        clean_forest_vars(forest, &live)
    });
    out.insert(
        "trees.clean_forest_ms",
        median_s(tr, "trees.clean_forest")? * 1e3,
    );
    out.insert("trees.forest_nodes", cleaned.num_nodes() as f64);

    // core: the selection algorithm of the workload's strategy,
    // directly, without the session.
    let algorithm_s = if On::Optimal.applies(kind) {
        let optimal = repeat(tr, each, "core.optimal", |_| {
            optimal_vvs_interned_guarded(source, forest, bound, &guard)
        });
        let (optimal, _) = optimal.map_err(|e| format!("optimal: {e}"))?;
        tally.check(
            optimal.result.compressed_size_m <= bound,
            "optimal meets the bound",
        );
        let optimal_s = median_s(tr, "core.optimal")?;
        out.insert("core.optimal_ms", optimal_s * 1e3);
        optimal_s
    } else {
        let greedy = repeat(tr, each, "core.greedy", |_| {
            greedy_vvs_interned_guarded(source, forest, bound, &guard)
        });
        let (greedy, _) = greedy.map_err(|e| format!("greedy: {e}"))?;
        tally.check(
            greedy.result.compressed_size_m <= bound,
            "greedy meets the bound",
        );
        let greedy_s = median_s(tr, "core.greedy")?;
        out.insert("core.greedy_ms", greedy_s * 1e3);
        out.insert("core.greedy_monomials_per_s", size_m as f64 / greedy_s);
        out.insert("core.vars_merged", greedy.result.vl() as f64);
        greedy_s
    };
    if On::InProcess.applies(kind) {
        out.insert(
            "session.compress_overhead_ms",
            (median_s(tr, "session.compress")? - algorithm_s) * 1e3,
        );
    }

    // Sessions run unsharded; these four rows say what sharding and
    // streaming would cost at this size. With one core they can show
    // only overhead (the trace file says `overhead_only`).
    if On::Scale.applies(kind) {
        let shards = nproc().max(2);
        repeat(tr, each, "core.sharded", |_| {
            sharded_greedy_interned_guarded(source, forest, bound, shards, &guard).map(drop)
        })
        .map_err(|e| format!("sharded greedy: {e}"))?;
        tally.check(true, "sharded greedy");
        let sharded_s = median_s(tr, "core.sharded")?;
        out.insert("core.sharded_nproc_ms", sharded_s * 1e3);
        out.insert("core.shard_speedup_x", algorithm_s / sharded_s);

        let chunks: Vec<WorkingSet<f64>> = partition_by_size(source, STREAM_CHUNKS)
            .iter()
            .map(|indices| source.subset(indices))
            .collect();
        let stream_config = StreamingConfig {
            bound,
            max_live_monomials: size_m / 4,
        };
        let stats = repeat(tr, each, "core.streaming_ingest", |_| {
            let mut stream = StreamingCompressor::new(forest, stream_config);
            for chunk in &chunks {
                stream.ingest(chunk, &guard)?;
            }
            stream.finish(&guard).map(|(_, _, stats)| stats)
        })
        .map_err(|e| format!("streaming ingest: {e}"))?;
        tally.check(true, "streaming ingest");
        out.insert(
            "core.streaming_ingest_ms",
            median_s(tr, "core.streaming_ingest")? * 1e3,
        );
        out.insert("core.streaming_peak_live", stats.peak_live_monomials as f64);
    }

    // provenance: intern, freeze, and the two halves of one evaluation.
    let original = twin.original().clone();
    let interned = repeat(tr, each, "provenance.intern", |_| {
        WorkingSet::from_polyset(&original)
    });
    out.insert(
        "provenance.intern_ms",
        median_s(tr, "provenance.intern")? * 1e3,
    );
    out.insert(
        "provenance.arena_bytes",
        interned.arena().estimated_bytes() as f64,
    );
    drop((interned, original));

    let abstracted = twin.working().expect("the twin is compressed");
    let frozen = repeat(tr, each, "provenance.freeze", |_| abstracted.freeze());
    out.insert(
        "provenance.freeze_ms",
        median_s(tr, "provenance.freeze")? * 1e3,
    );
    out.insert("provenance.compiled_bytes", frozen.estimated_bytes() as f64);
    let view = frozen.view();
    let mut vars = twin.vars().clone();
    let mut at = 0;
    repeat(tr, each, "scenario.valuation_build", |_| {
        at = (at + 1) % p.pool.len();
        p.pool[at].valuation(&mut vars)
    });
    let valuations: Vec<Valuation<f64>> = p.pool[..BATCH]
        .iter()
        .map(|s| s.valuation(&mut vars))
        .collect();
    out.insert(
        "scenario.valuation_build_us",
        median_s(tr, "scenario.valuation_build")? * 1e6,
    );
    let (mut table, mut values) = (Vec::new(), Vec::new());
    repeat(tr, each, "provenance.valuation_table", |_| {
        at = (at + 1) % BATCH;
        view.valuation_table_into(&valuations[at], &mut table);
    });
    repeat(tr, each, "provenance.eval_into", |_| {
        view.eval_into(&table, &mut values)
    });
    let table_s = median_s(tr, "provenance.valuation_table")?;
    let sweep_s = median_s(tr, "provenance.eval_into")?;
    out.insert("provenance.valuation_table_us", table_s * 1e6);
    out.insert("provenance.eval_into_us", sweep_s * 1e6);
    out.insert(
        "provenance.kernel_ns_per_monomial",
        sweep_s * 1e9 / view.num_monomials().max(1) as f64,
    );

    // scenario: the batch executor on one thread and on every core, and
    // the paper-faithful hash-map loop.
    let every_core = EvalOptions::new().threads(nproc());
    repeat(tr, each, "scenario.eval_compiled_1t", |_| {
        eval_compiled_view(view, &valuations, &one_thread())
    });
    repeat(tr, each, "scenario.eval_compiled_nproc", |_| {
        eval_compiled_view(view, &valuations, &every_core)
    });
    let one_s = median_s(tr, "scenario.eval_compiled_1t")?;
    let all_s = median_s(tr, "scenario.eval_compiled_nproc")?;
    out.insert("scenario.eval_compiled_1t_ms", one_s * 1e3);
    out.insert("scenario.eval_compiled_nproc_ms", all_s * 1e3);
    out.insert(
        "scenario.parallel_efficiency",
        one_s / (all_s * nproc() as f64),
    );
    let bridged = twin.abstracted().expect("the twin is compressed");
    repeat(tr, each, "scenario.serial_reference", |_| {
        eval_prepared(
            bridged,
            None,
            &valuations[..REFERENCE_SCENARIOS],
            &EvalOptions::serial_reference(),
        )
    });
    out.insert(
        "scenario.serial_reference_ms",
        median_s(tr, "scenario.serial_reference")? * 1e3,
    );
    drop(frozen);

    // session: one-scenario asks on the twin (the in-process side of the
    // wire-overhead comparison), then save, open and mapped open.
    repeat(tr, each * 2, "session.ask", |_| {
        at = (at + 1) % p.pool.len();
        twin.ask(&p.pool[at..=at]).map(drop)
    })
    .map_err(|e| format!("ask: {e}"))?;
    let ask_ms: Vec<f64> = tr
        .durations_s("session.ask")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    let ask_p50_ms = median(&ask_ms);
    out.insert(
        "session.ask_overhead_us",
        ask_p50_ms * 1e3 - (table_s + sweep_s) * 1e6,
    );
    out.insert("session.ask_p95_ms", percentile(&ask_ms, 95.0));
    out.insert("session.ask_p99_ms", percentile(&ask_ms, 99.0));

    let artifact = scratch.join("layer.provabs");
    repeat(tr, each, "session.save", |_| twin.save(&artifact)).map_err(|e| format!("save: {e}"))?;
    repeat(tr, each, "session.open", |_| {
        Session::open(&artifact).map(drop)
    })
    .map_err(|e| format!("open: {e}"))?;
    repeat(tr, each, "reopen", |tr| {
        let (opened, _) = tr.time("session.open_mapped", || Session::open_mapped(&artifact));
        let mut opened = opened?;
        tr.time("session.mapped_first_ask", || opened.ask(&p.pool[..1]))
            .0
            .map(drop)
    })
    .map_err(|e| format!("open_mapped: {e}"))?;
    for (metric, span) in [
        ("session.save_ms", "session.save"),
        ("session.open_ms", "session.open"),
        ("session.open_mapped_ms", "session.open_mapped"),
        ("session.mapped_first_ask_ms", "session.mapped_first_ask"),
    ] {
        out.insert(metric, median_s(tr, span)? * 1e3);
    }

    // The rows only this kind of target has (the wire's `server.*`).
    target.layer_rows(each, ask_p50_ms, tr, tally, &mut out)?;
    tr.exit(root);
    Ok(out)
}
