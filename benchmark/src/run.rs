//! One run of one workload: set-up, rounds, oracle checks, metrics.

use crate::host::{self, Scratch};
use crate::inproc::InProc;
use crate::layers;
use crate::prepare::{prepare, Config, Kind, Prepared};
use crate::rounds::{fold, run_rounds, RoundSample, Target, MIN_ROUNDS, MIN_TRACED_ROUNDS};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::tally::Tally;
use crate::trace::{ledger, Tracer};
use crate::wire::{close, Wire};
use provabs_scenario::executor::EvalOptions;
use provabs_server::Json;
use provabs_session::Session;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Pool scenarios the hash-map oracle re-evaluates.
const ORACLE_SCENARIOS: usize = 8;

/// What a run is asked to do.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload, seed and size.
    pub config: Config,
    /// How long to measure.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) or the
    /// untraced one (end-to-end metrics).
    pub traced: bool,
    /// Where the per-process scratch directory and the trace file go.
    pub out_dir: PathBuf,
}

/// A metric as measured.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Its name in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// `{name: {"value": …, "unit": …}, …}`, as the result line and the
/// trace file carry the metrics.
fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        let entry = Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]);
        (m.name, entry)
    }))
}

/// The result of a run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Operations and comparisons attempted.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
    /// Every end-to-end metric (untraced) or per-layer metric (traced).
    pub metrics: Vec<Metric>,
    /// What each measured round saw, for the report on standard error.
    pub rounds: Vec<RoundSample>,
    /// Where the run's wall time went: set-ups, rounds, and the layer
    /// pass or the oracle checks, in seconds.
    pub wall_s: [f64; 3],
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line JSON object the driver reads.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", metrics_json(&self.metrics)),
        ])
        .to_string()
    }
}

/// Starts the system under test. Part of set-up.
fn start<'p>(
    p: &'p Prepared,
    scratch: &'p Path,
    tally: &mut Tally,
) -> Result<Box<dyn Target + 'p>, String> {
    Ok(match p.config.kind {
        Kind::ServiceQ10 => Box::new(Wire::start(p, scratch, tally)?),
        _ => Box::new(InProc::new(p, scratch)),
    })
}

/// The oracle checks that do not belong to any timed phase, and the
/// accuracy metric. The twin's compiled answers are what every timed
/// answer was compared with; here they are tied to the paper's
/// definition of a right answer: the hash-map reference evaluator gives
/// the same bits, and the abstraction evaluates like the original
/// provenance under the lifted valuation.
fn oracle(p: &Prepared, twin: &mut Session, tally: &mut Tally) -> Result<f64, String> {
    let mut errors = Vec::with_capacity(p.fine.len());
    for fine in &p.fine {
        let report = twin
            .accuracy_report(fine)
            .map_err(|e| format!("accuracy report: {e}"))?;
        tally.check(
            report.mean_relative.is_finite(),
            "accuracy report is finite",
        );
        errors.push(report.mean_relative);
    }
    let sample = &p.pool[..ORACLE_SCENARIOS];
    let reference = twin
        .ask_with_options(sample, &EvalOptions::serial_reference())
        .map_err(|e| format!("reference ask: {e}"))?;
    for (got, want) in reference.values.iter().zip(&p.expected) {
        // The two engines sum a polynomial's terms in different orders,
        // so they agree to rounding, not to the bit.
        tally.check(
            close(got, want, 1e-9),
            "the hash-map reference engine agrees with the compiled engine",
        );
    }
    let deviation = twin
        .equivalence_error(sample)
        .map_err(|e| format!("equivalence error: {e}"))?;
    tally.check(
        deviation <= 1e-9,
        "the abstraction evaluates like the original under the lifted valuation",
    );
    Ok(errors.iter().sum::<f64>() / errors.len().max(1) as f64)
}

/// Looks a metric's unit up in the manifest tables.
fn metric(name: &'static str, value: f64) -> Metric {
    let unit = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("{name} is not in the manifest"));
    Metric { name, value, unit }
}

/// Runs the workload and reports.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let scratch = Scratch::create(&opts.out_dir).map_err(|e| format!("scratch directory: {e}"))?;
    let kind = opts.config.kind;
    let mut tally = Tally::default();
    let mut tr = Tracer::new(false);
    let run_started = Instant::now();

    // Set up several times and keep the last: one set-up is a single
    // sub-second sample, too few to hold a bound.
    let repeats = if opts.traced { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(repeats);
    for _ in 1..repeats {
        let started = Instant::now();
        let (prepared, twin) = prepare(opts.config, &mut tr, &mut tally)?;
        let system = start(&prepared, scratch.path(), &mut tally)?;
        setup_s.push(started.elapsed().as_secs_f64());
        system.stop(&mut tally);
        drop(twin);
    }
    tr.set_enabled(opts.traced);
    let started = Instant::now();
    let (prepared, mut twin) = prepare(opts.config, &mut tr, &mut tally)?;
    let mut system = start(&prepared, scratch.path(), &mut tally)?;
    setup_s.push(started.elapsed().as_secs_f64());

    // A traced run spends half of its time on fewer rounds and the other
    // half on the layer pass.
    let (min_rounds, seconds) = if opts.traced {
        (MIN_TRACED_ROUNDS, opts.seconds / 2.0)
    } else {
        (MIN_ROUNDS, opts.seconds)
    };
    let setups_s = run_started.elapsed().as_secs_f64();
    let rounds = run_rounds(
        &mut *system,
        min_rounds,
        seconds,
        opts.traced,
        &mut tr,
        &mut tally,
    )?;
    let rounds_s = run_started.elapsed().as_secs_f64() - setups_s;
    let timed = fold(&rounds.samples);
    let peak_rss_mb = host::peak_rss_mb();

    let last = rounds.samples.last().ok_or("no round ran")?;
    let sizes = last.sizes;
    tally.check(
        sizes.compressed_size_m == prepared.result.compressed_size_m
            && sizes.compressed_size_v == prepared.result.compressed_size_v
            && sizes.original_size_m == prepared.result.original_size_m,
        "the measured sessions compress like the twin",
    );

    let metrics = if opts.traced {
        let mut values = layers::layer_pass(
            &prepared,
            &mut twin,
            &mut *system,
            scratch.path(),
            opts.seconds / 2.0,
            &mut tr,
            &mut tally,
        )?;
        system.stop(&mut tally);
        // The end-to-end timings this host cannot hold to a bound, the
        // two counters, and what storing the spans of a cold pass cost:
        // the traced cold passes against the ones paired with them.
        values.insert("first_answer_s", timed.first_answer_s);
        values.insert("compress_s", timed.compress_s);
        values.insert("ask_p50_ms", timed.ask_p50_ms);
        values.insert("scenarios_per_s", timed.scenarios_per_s);
        values.insert("reopen_ms", timed.reopen_ms);
        values.insert("session.compile_count", last.compile_count as f64);
        values.insert("session.materializations", last.materializations as f64);
        values.insert(
            "trace_overhead_pct",
            (timed.first_answer_s / median(&rounds.untraced_first_answer_s) - 1.0) * 100.0,
        );
        // A row reads 0 on a workload that does not have its layer on
        // its path; the trace file lists those rows.
        let mut not_applicable = Vec::new();
        let metrics: Vec<Metric> = PER_LAYER
            .iter()
            .map(|m| match (m.on.applies(kind), values.get(m.name)) {
                (true, Some(value)) => metric(m.name, *value),
                (true, None) => panic!("{} not measured on {}", m.name, kind.name()),
                (false, Some(_)) => panic!("{} measured on {}", m.name, kind.name()),
                (false, None) => {
                    not_applicable.push(m.name);
                    metric(m.name, 0.0)
                }
            })
            .collect();
        write_trace(opts, &tr, &metrics, &not_applicable)?;
        metrics
    } else {
        system.stop(&mut tally);
        let mean_rel_error = oracle(&prepared, &mut twin, &mut tally)?;
        vec![
            metric("setup_s", median(&setup_s)),
            metric("speedup_x", timed.speedup_x),
            metric(
                "compressed_ratio",
                sizes.compressed_size_m as f64 / sizes.original_size_m as f64,
            ),
            metric("vars_kept", sizes.compressed_size_v as f64),
            metric("mean_rel_error", mean_rel_error),
            metric("artifact_bytes", last.artifact_bytes as f64),
            metric(
                "peak_rss_mb",
                peak_rss_mb.ok_or("/proc/self/status has no VmHWM")?,
            ),
        ]
    };
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        rounds: rounds.samples,
        wall_s: [
            setups_s,
            rounds_s,
            run_started.elapsed().as_secs_f64() - setups_s - rounds_s,
        ],
    })
}

/// Writes `trace-<workload>.json` into the output directory: host
/// fingerprint, per-layer metrics, ledger and spans.
fn write_trace(
    opts: &Options,
    tr: &Tracer,
    metrics: &[Metric],
    not_applicable: &[&str],
) -> Result<(), String> {
    let rows = ledger(tr.spans()).into_iter().map(|row| {
        Json::obj([
            ("name", Json::from(row.name)),
            ("count", Json::from(row.count)),
            ("total_ms", Json::from(row.total_ns as f64 / 1e6)),
            ("self_ms", Json::from(row.self_ns as f64 / 1e6)),
            ("root", Json::from(row.root)),
            ("share_of_root", Json::from(row.share_of_root)),
        ])
    });
    let spans = tr.spans().iter().map(|span| {
        Json::Arr(vec![
            Json::from(span.name),
            Json::from(span.start_ns),
            Json::from(span.end_ns),
            span.parent.map_or(Json::Null, Json::from),
            Json::from(u64::from(span.round)),
        ])
    });
    let overhead_only = host::nproc() == 1;
    let trace = Json::obj([
        ("workload", Json::from(opts.config.kind.name())),
        ("seed", Json::from(opts.config.seed)),
        ("host", host::fingerprint()),
        // With one core, the sharded and the parallel rows can only show
        // what sharding and threading cost, never what they gain.
        ("overhead_only", Json::from(overhead_only)),
        ("metrics", metrics_json(metrics)),
        ("not_applicable", Json::from(not_applicable.to_vec())),
        ("ledger", Json::Arr(rows.collect())),
        (
            "span_columns",
            Json::from(vec!["name", "start_ns", "end_ns", "parent", "round"]),
        ),
        ("spans", Json::Arr(spans.collect())),
    ]);
    let path = opts
        .out_dir
        .join(format!("trace-{}.json", opts.config.kind.name()));
    std::fs::write(&path, trace.to_string()).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::On;

    /// A run small and short enough for a debug build, leaving nothing
    /// behind once `out` is dropped.
    fn small(kind: Kind, seed: u64, traced: bool, out: &Scratch) -> Outcome {
        let opts = Options {
            config: Config {
                kind,
                seed,
                shrink: 40.0,
            },
            seconds: 0.8,
            traced,
            out_dir: out.path().to_path_buf(),
        };
        run(&opts).unwrap_or_else(|e| panic!("{}: {e}", kind.name()))
    }

    fn out() -> Scratch {
        Scratch::create(&host::out_dir()).expect("a directory for the test's output")
    }

    fn value(outcome: &Outcome, name: &str) -> f64 {
        let metric = outcome.metrics.iter().find(|m| m.name == name);
        metric.unwrap_or_else(|| panic!("{name} reported")).value
    }

    #[test]
    fn every_workload_reports_every_end_to_end_metric_with_its_unit() {
        let out = out();
        for kind in Kind::ALL {
            let outcome = small(kind, 5, false, &out);
            assert!(
                outcome.correct(),
                "{}: {} failed",
                kind.name(),
                outcome.failed
            );
            assert!(outcome.attempted > 0);
            let reported: Vec<_> = outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
            let declared: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(reported, declared, "{}", kind.name());
            for m in &outcome.metrics {
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{}: {m:?}",
                    kind.name()
                );
            }
            let line = outcome.result_line();
            let parsed = Json::parse(&line).expect("the result line is JSON");
            let keys: Vec<_> = parsed
                .as_obj()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert!(!line.contains('\n'));
        }
    }

    #[test]
    fn a_traced_run_reports_the_rows_on_its_path_and_writes_its_ledger() {
        let out = out();
        for kind in Kind::ALL {
            let outcome = small(kind, 5, true, &out);
            assert!(
                outcome.correct(),
                "{}: {} failed",
                kind.name(),
                outcome.failed
            );
            let reported: Vec<_> = outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
            let declared: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(reported, declared, "{}", kind.name());
            assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
            assert_eq!(value(&outcome, "session.compile_count"), 1.0);
            assert!(value(&outcome, "first_answer_s") > 0.0);

            let path = out.path().join(format!("trace-{}.json", kind.name()));
            let trace = std::fs::read_to_string(path).expect("the trace was written");
            let trace = Json::parse(&trace).expect("the trace is JSON");
            assert!(trace.get("host").and_then(|h| h.get("nproc")).is_some());
            // Exactly the rows off this workload's path read 0 and are
            // listed as such.
            let listed: Vec<&str> = trace
                .get("not_applicable")
                .and_then(Json::as_arr)
                .expect("a list")
                .iter()
                .filter_map(Json::as_str)
                .collect();
            let off_path: Vec<&str> = PER_LAYER
                .iter()
                .filter(|m| !m.on.applies(kind))
                .map(|m| m.name)
                .collect();
            assert_eq!(listed, off_path, "{}", kind.name());
            assert!(off_path.iter().all(|name| value(&outcome, name) == 0.0));
            assert_eq!(
                value(&outcome, "server.healthz_us") > 0.0,
                kind == Kind::ServiceQ10
            );

            let ledger = trace
                .get("ledger")
                .and_then(Json::as_arr)
                .expect("a ledger");
            let row = |name: &str| {
                let row = ledger
                    .iter()
                    .find(|r| r.get("name").and_then(Json::as_str) == Some(name));
                row.unwrap_or_else(|| panic!("{}: no {name} row", kind.name()))
            };
            assert!(row("cold_pass")
                .get("self_ms")
                .and_then(Json::as_f64)
                .is_some());
            let algorithm = if On::Optimal.applies(kind) {
                "core.optimal"
            } else {
                "core.greedy"
            };
            assert_eq!(
                row(algorithm).get("root").and_then(Json::as_str),
                Some("layer_pass")
            );
            let spans = trace.get("spans").and_then(Json::as_arr).expect("spans");
            assert!(spans.len() > 100);
        }
    }

    #[test]
    fn exact_metrics_repeat_with_the_seed_and_change_with_it() {
        let exact: Vec<_> = END_TO_END
            .iter()
            .filter(|m| m.exact)
            .map(|m| m.name)
            .collect();
        assert_eq!(
            exact,
            [
                "compressed_ratio",
                "vars_kept",
                "mean_rel_error",
                "artifact_bytes"
            ]
        );
        let out = out();
        let (a, b, other) = (
            small(Kind::WhatifQ1, 7, false, &out),
            small(Kind::WhatifQ1, 7, false, &out),
            small(Kind::WhatifQ1, 8, false, &out),
        );
        for name in &exact {
            assert_eq!(
                value(&a, name).to_bits(),
                value(&b, name).to_bits(),
                "{name} differs between two runs of one seed"
            );
        }
        assert!(
            exact
                .iter()
                .any(|name| value(&a, name) != value(&other, name)),
            "another seed generated the same inputs"
        );
    }
}
