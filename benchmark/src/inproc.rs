//! The three in-process workloads: every phase is a call on a
//! [`Session`] built from the captured provenance.

use crate::prepare::{build_session, capture, one_thread, Prepared, BATCH, FIRST_ASK};
use crate::rounds::{
    pool_offset, RoundSample, Sizes, Target, MIN_SINGLE_ASKS, REOPENS, SHORT_COMPRESS,
};
use crate::tally::{bit_equal, Tally};
use crate::trace::Tracer;
use provabs_scenario::apply::TimedRun;
use provabs_session::Session;
use std::path::Path;
use std::time::{Duration, Instant};

/// Most compress repeats in one round.
const MAX_COMPRESS_REPEATS: usize = 16;
/// Scenarios per side of one original-against-compressed alternation:
/// small enough that a block holds several alternations on the largest
/// workload, so that a round's ratio is a median too.
const SPEEDUP_BATCH: usize = 64;

/// An in-process system under test.
pub struct InProc<'p> {
    p: &'p Prepared,
    scratch: &'p Path,
}

/// A cold pass: the session it leaves behind and what it measured.
struct Cold {
    /// Compressed, frozen by its first ask.
    session: Session,
    /// Capture → first answer.
    first_answer: Duration,
    /// `Session::compress` alone.
    compress: Duration,
}

/// Compares `run` with the twin's answers to `pool[first..]`.
fn check_answers(p: &Prepared, run: &TimedRun, first: usize, tally: &mut Tally, what: &str) {
    for (i, values) in run.values.iter().enumerate() {
        let want = &p.expected[(first + i) % p.pool.len()];
        tally.check(bit_equal(values, want), what);
    }
}

/// The cold path a user pays once, under the root span `cold_pass`:
/// capture the provenance (the engine query), build the session,
/// compress, and ask the first batch — which freezes the compiled
/// lowering.
fn cold_pass(p: &Prepared, tr: &mut Tracer, tally: &mut Tally) -> Result<Cold, String> {
    let kind = p.config.kind;
    // The scale fixture is emitted during set-up; handing a session its
    // own copy is not part of the path being timed.
    let handed = (!kind.captures_per_cold_pass()).then(|| p.captured.clone());
    let root = tr.enter("cold_pass");
    let captured = match handed {
        Some(captured) => captured,
        None => capture(kind, &p.source, false, tr).captured,
    };
    let (session, _) = tr.time("session.build", || build_session(kind, captured));
    let mut session = session?;
    let (compressed, compress) = tr.time("session.compress", || {
        session.compress().map(|r| r.compressed_size_m)
    });
    let (first, _) = tr.time("session.first_ask", || session.ask(&p.pool[..FIRST_ASK]));
    let first_answer = tr.exit(root);

    let compressed = compressed.map_err(|e| format!("compress: {e}"))?;
    tally.check(
        compressed <= session.bound(),
        "compressed size within bound",
    );
    let first = first.map_err(|e| format!("first ask: {e}"))?;
    check_answers(p, &first, 0, tally, "first ask equals the twin's answer");
    tally.check(
        session.compile_count() == 1,
        "one compilation after the first ask",
    );
    Ok(Cold {
        session,
        first_answer,
        compress,
    })
}

/// One compress outside a cold pass, on a fresh session over a copy of
/// the captured provenance.
fn compress_once(p: &Prepared, tr: &mut Tracer, tally: &mut Tally) -> Result<Duration, String> {
    let mut session = build_session(p.config.kind, p.captured.clone())?;
    let (compressed, took) = tr.time("session.compress_repeat", || {
        session.compress().map(|r| r.compressed_size_m)
    });
    let compressed = compressed.map_err(|e| format!("compress: {e}"))?;
    tally.check(
        compressed <= session.bound(),
        "compressed size within bound",
    );
    Ok(took)
}

impl<'p> InProc<'p> {
    /// A target over `p`, saving artifacts under `scratch`.
    pub fn new(p: &'p Prepared, scratch: &'p Path) -> Self {
        Self { p, scratch }
    }

    /// One-scenario asks, closed loop, for `block`; returns each ask's
    /// latency in ms.
    fn single_block(
        &self,
        session: &mut Session,
        first: usize,
        block: Duration,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> Result<Vec<f64>, String> {
        let p = self.p;
        let open = tr.enter("block.single");
        let deadline = Instant::now() + block;
        let mut latencies = Vec::new();
        while latencies.len() < MIN_SINGLE_ASKS || Instant::now() < deadline {
            let at = (first + latencies.len()) % p.pool.len();
            let (run, took) = tr.time("session.ask", || session.ask(&p.pool[at..=at]));
            let run = run.map_err(|e| format!("ask: {e}"))?;
            check_answers(p, &run, at, tally, "ask equals the twin's answer");
            latencies.push(took.as_secs_f64() * 1e3);
        }
        tr.exit(open);
        Ok(latencies)
    }

    /// Batches of [`BATCH`] scenarios back to back until `block` has been
    /// spent inside `ask`; returns the scenarios answered and that time.
    fn bulk_block(
        &self,
        session: &mut Session,
        first: usize,
        block: Duration,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> Result<(u64, f64), String> {
        let p = self.p;
        let batches = p.pool.len() / BATCH;
        let open = tr.enter("block.bulk");
        let (mut answered, mut inside, mut n) = (0, Duration::ZERO, first / BATCH);
        while answered == 0 || inside < block {
            let at = (n % batches) * BATCH;
            let (run, took) = tr.time("session.ask_batch", || session.ask(&p.pool[at..at + BATCH]));
            let run = run.map_err(|e| format!("bulk ask: {e}"))?;
            check_answers(p, &run, at, tally, "bulk ask equals the twin's answer");
            answered += BATCH as u64;
            inside += took;
            n += 1;
        }
        tr.exit(open);
        Ok((answered, inside.as_secs_f64()))
    }

    /// Figure 10's quantity on the production engine: the same batch on
    /// the original provenance (through the lifted valuation) and on the
    /// compressed one — original, compressed, compressed, original — over
    /// and over for `block`; returns each alternation's ratio.
    fn speedup_block(
        &self,
        session: &mut Session,
        first: usize,
        block: Duration,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> Result<Vec<f64>, String> {
        let p = self.p;
        let at = (first / SPEEDUP_BATCH % (p.pool.len() / SPEEDUP_BATCH)) * SPEEDUP_BATCH;
        let batch = &p.pool[at..at + SPEEDUP_BATCH];
        let open = tr.enter("block.original");
        let (mut ratios, mut inside) = (Vec::new(), Duration::ZERO);
        while ratios.is_empty() || inside < block {
            let (report, _) = tr.time("session.speedup_report", || {
                session.speedup_report_with(batch, 2, &one_thread())
            });
            let report = report.map_err(|e| format!("speedup report: {e}"))?;
            tally.check(true, "speedup report");
            ratios.push(report.original.as_secs_f64() / report.compressed.as_secs_f64());
            inside += report.original + report.compressed;
        }
        tr.exit(open);
        Ok(ratios)
    }

    /// Saves the session, then reopens the artifact memory-mapped and
    /// asks it one scenario, [`REOPENS`] times; returns each reopen's
    /// time in ms and the artifact's size.
    fn save_and_reopen(
        &self,
        session: &mut Session,
        round: u32,
        first: usize,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> Result<(Vec<f64>, u64), String> {
        let p = self.p;
        let path = self.scratch.join(format!("r{round}.provabs"));
        let open = tr.enter("block.persist");
        let (saved, _) = tr.time("session.save", || session.save(&path));
        saved.map_err(|e| format!("save: {e}"))?;
        tally.check(true, "save");
        let bytes = std::fs::metadata(&path)
            .map_err(|e| format!("saved artifact: {e}"))?
            .len();
        let mut reopen_ms = Vec::with_capacity(REOPENS);
        for i in 0..REOPENS {
            let at = (first + i) % p.pool.len();
            let reopen = tr.enter("reopen");
            let (opened, _) = tr.time("session.open_mapped", || Session::open_mapped(&path));
            let mut opened = opened.map_err(|e| format!("open_mapped: {e}"))?;
            let (run, _) = tr.time("session.mapped_first_ask", || opened.ask(&p.pool[at..=at]));
            reopen_ms.push(tr.exit(reopen).as_secs_f64() * 1e3);
            let run = run.map_err(|e| format!("reopened ask: {e}"))?;
            check_answers(p, &run, at, tally, "reopened ask equals the twin's answer");
            tally.check(
                opened.compile_count() == 0,
                "a reopened session never compiles",
            );
        }
        tr.exit(open);
        std::fs::remove_file(&path).map_err(|e| format!("remove artifact: {e}"))?;
        Ok((reopen_ms, bytes))
    }
}

impl Target for InProc<'_> {
    fn round(
        &mut self,
        round: u32,
        block: Duration,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> Result<RoundSample, String> {
        let p = self.p;
        let started = Instant::now();

        let cold = cold_pass(p, tr, tally)?;
        let mut session = cold.session;
        let result = session.result().expect("compressed by the cold pass");
        let sizes = Sizes {
            original_size_m: result.original_size_m,
            compressed_size_m: result.compressed_size_m,
            compressed_size_v: result.compressed_size_v,
        };

        let blocks = Instant::now();
        let mut compress_s = vec![cold.compress.as_secs_f64()];
        if cold.compress < SHORT_COMPRESS {
            while compress_s.len() < MAX_COMPRESS_REPEATS && blocks.elapsed() < block {
                compress_s.push(compress_once(p, tr, tally)?.as_secs_f64());
            }
        }
        let ask_ms = self.single_block(&mut session, pool_offset(p, round, 0), block, tr, tally)?;
        let (bulk_scenarios, bulk_s) =
            self.bulk_block(&mut session, pool_offset(p, round, 1), block, tr, tally)?;
        let compile_count = session.compile_count();
        let materializations = session.intern_stats().polyset_materializations;
        tally.check(compile_count == 1, "one compilation after the ask blocks");
        tally.check(
            materializations == 0,
            "no hash-map materialisation on the ask path",
        );
        let speedups =
            self.speedup_block(&mut session, pool_offset(p, round, 2), block, tr, tally)?;
        let sliced = blocks.elapsed();

        let (reopen_ms, artifact_bytes) =
            self.save_and_reopen(&mut session, round, pool_offset(p, round, 3), tr, tally)?;
        Ok(RoundSample {
            first_answer_s: cold.first_answer.as_secs_f64(),
            compress_s,
            ask_ms,
            bulk_scenarios,
            bulk_s,
            speedups,
            reopen_ms,
            artifact_bytes,
            sizes,
            compile_count,
            materializations,
            fixed_s: started.elapsed().saturating_sub(sliced).as_secs_f64(),
        })
    }

    fn cold_pass_untraced(&mut self, _round: u32, tally: &mut Tally) -> Result<f64, String> {
        let cold = cold_pass(self.p, &mut Tracer::new(false), tally)?;
        Ok(cold.first_answer.as_secs_f64())
    }
}
