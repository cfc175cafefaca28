//! The round structure shared by the in-process and the wire workloads.
//!
//! A run is one discarded warm-up round plus at least [`MIN_ROUNDS`]
//! measured rounds, and a round is one pass over every phase: cold pass →
//! (compress repeats) → single-ask block → bulk block →
//! original-against-compressed block → save and reopens. Rounds
//! interleave the phases across the whole run, so a burst from a noisy
//! neighbour lands on one round of every metric instead of on every
//! sample of one.
//!
//! Every timing is the median over the measured rounds of the round's own
//! value: its cold pass, the median of its compresses, of its
//! one-scenario asks and of its reopens, the scenarios its bulk block
//! answered divided by the time that took, the median of its
//! original ÷ compressed ratios.

use crate::prepare::Prepared;
use crate::stats::median;
use crate::tally::Tally;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Fewest measured rounds of an untraced run.
pub const MIN_ROUNDS: u32 = 7;
/// Fewest measured rounds of a traced run (half of its time goes to the
/// layer pass).
pub const MIN_TRACED_ROUNDS: u32 = 4;
/// Most measured rounds of any run.
const MAX_ROUNDS: u32 = 24;
/// Share of the run that the phases a round cannot shorten (the cold
/// pass, the save) may take: where they are cheap, the run makes more
/// rounds for the medians to be taken over.
const FIXED_SHARE: f64 = 0.4;

/// A compress shorter than this is repeated to fill a block.
pub const SHORT_COMPRESS: Duration = Duration::from_millis(100);
/// Warm reopens per round.
pub const REOPENS: usize = 5;
/// Fewest one-scenario asks per block, however short it is.
pub const MIN_SINGLE_ASKS: usize = 32;

/// Sizes and counts that are a pure function of the seed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Sizes {
    /// `|𝒫|_M`.
    pub original_size_m: usize,
    /// `|𝒫↓S|_M`.
    pub compressed_size_m: usize,
    /// `|𝒫↓S|_V`.
    pub compressed_size_v: usize,
}

/// What one round measured.
#[derive(Clone, Debug, Default)]
pub struct RoundSample {
    /// Capture → build → compress → first ask.
    pub first_answer_s: f64,
    /// The cold pass's compress, plus the repeats.
    pub compress_s: Vec<f64>,
    /// Latency of each one-scenario ask, in ms.
    pub ask_ms: Vec<f64>,
    /// Scenarios the bulk block answered.
    pub bulk_scenarios: u64,
    /// Time they took: the sum of the batches in process, first request
    /// to last answer over the wire (where the connections overlap).
    pub bulk_s: f64,
    /// Time of a batch on the original provenance ÷ on the compressed,
    /// one ratio per alternation.
    pub speedups: Vec<f64>,
    /// Open (mapped) → first answer, in ms.
    pub reopen_ms: Vec<f64>,
    /// Size of the saved artifact.
    pub artifact_bytes: u64,
    /// What the cold pass compressed to.
    pub sizes: Sizes,
    /// `compile_count` of the round's session after its ask blocks.
    pub compile_count: usize,
    /// `polyset_materializations` of that session after its ask blocks.
    pub materializations: usize,
    /// Time spent outside the time-sliced blocks (what a shorter block
    /// cannot shrink).
    pub fixed_s: f64,
}

/// A system under test that can run rounds.
pub trait Target {
    /// Runs one round, each time-sliced block for about `block`. `round`
    /// is 0 for the warm-up.
    fn round(
        &mut self,
        round: u32,
        block: Duration,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> Result<RoundSample, String>;

    /// One more cold pass with no span stored, for the traced run to
    /// hold its traced cold passes against; returns its `first_answer_s`.
    fn cold_pass_untraced(&mut self, round: u32, tally: &mut Tally) -> Result<f64, String>;

    /// The per-layer rows only this kind of target has (the wire's
    /// `server.*`); each probe runs for about `each`. `inproc_ask_ms` is
    /// the twin's median one-scenario latency in process.
    fn layer_rows(
        &mut self,
        _each: Duration,
        _inproc_ask_ms: f64,
        _tr: &mut Tracer,
        _tally: &mut Tally,
        _out: &mut BTreeMap<&'static str, f64>,
    ) -> Result<(), String> {
        Ok(())
    }

    /// Shuts the system down.
    fn stop(self: Box<Self>, _tally: &mut Tally) {}
}

/// The per-run values of the timings.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    /// s.
    pub first_answer_s: f64,
    /// s.
    pub compress_s: f64,
    /// ms.
    pub ask_p50_ms: f64,
    /// Scenarios per second.
    pub scenarios_per_s: f64,
    /// Original ÷ compressed.
    pub speedup_x: f64,
    /// ms.
    pub reopen_ms: f64,
}

/// Folds the measured rounds: the median over the rounds of each round's
/// own value.
pub fn fold(rounds: &[RoundSample]) -> Timed {
    let over_rounds = |f: &dyn Fn(&RoundSample) -> f64| -> f64 {
        median(&rounds.iter().map(f).collect::<Vec<f64>>())
    };
    Timed {
        first_answer_s: over_rounds(&|r| r.first_answer_s),
        compress_s: over_rounds(&|r| median(&r.compress_s)),
        ask_p50_ms: over_rounds(&|r| median(&r.ask_ms)),
        scenarios_per_s: over_rounds(&|r| r.bulk_scenarios as f64 / r.bulk_s),
        speedup_x: over_rounds(&|r| median(&r.speedups)),
        reopen_ms: over_rounds(&|r| median(&r.reopen_ms)),
    }
}

/// What [`run_rounds`] returns.
pub struct Rounds {
    /// The measured rounds.
    pub samples: Vec<RoundSample>,
    /// `first_answer_s` of the extra cold passes made with no span
    /// stored (traced runs only).
    pub untraced_first_answer_s: Vec<f64>,
}

/// Runs the warm-up round and then at least `min_rounds` measured rounds
/// within about `seconds`. With `paired`, every measured round is paired
/// with a cold pass that stores no span, before or after it in turn.
pub fn run_rounds(
    target: &mut dyn Target,
    min_rounds: u32,
    seconds: f64,
    paired: bool,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<Rounds, String> {
    let started = Instant::now();
    tr.set_round(0);
    let warm_block = seconds / f64::from(min_rounds + 1) / 8.0;
    let warm_block = Duration::from_secs_f64(warm_block.min(0.25));
    let warm = target.round(0, warm_block, tr, tally)?;
    let blocks = if warm.compress_s.len() > 1 { 4.0 } else { 3.0 };
    let cold_passes = if paired { 2.0 } else { 1.0 };
    let warm_fixed_s = warm.fixed_s + (cold_passes - 1.0) * warm.first_answer_s;
    let rounds = (FIXED_SHARE * seconds / warm_fixed_s) as u32;
    let rounds = rounds.clamp(min_rounds, MAX_ROUNDS.max(min_rounds));
    let shortest_block = seconds / f64::from(rounds + 1) / 16.0;
    // Each round splits what is left of `seconds` evenly with the rounds
    // after it, less what the phases that cannot be shortened have taken
    // so far: a slow spell shortens the blocks that follow it, and the
    // run still ends on time.
    let mut fixed_s = vec![warm_fixed_s];
    let mut samples = Vec::with_capacity(rounds as usize);
    let mut untraced_first_answer_s = Vec::new();
    for round in 1..=rounds {
        let left = (seconds - started.elapsed().as_secs_f64()).max(0.0);
        let share = left / f64::from(rounds + 1 - round);
        let block = ((share - median(&fixed_s)) / blocks).max(shortest_block);
        tr.set_round(round);
        let mut unpaired_s = 0.0;
        if paired && round % 2 == 1 {
            unpaired_s = target.cold_pass_untraced(round, tally)?;
            untraced_first_answer_s.push(unpaired_s);
        }
        let sample = target.round(round, Duration::from_secs_f64(block), tr, tally)?;
        if paired && round % 2 == 0 {
            unpaired_s = target.cold_pass_untraced(round, tally)?;
            untraced_first_answer_s.push(unpaired_s);
        }
        fixed_s.push(sample.fixed_s + unpaired_s);
        samples.push(sample);
    }
    let first = &samples[0];
    tally.check(
        samples.iter().all(|s| s.sizes == first.sizes),
        "every cold pass compresses alike",
    );
    tally.check(
        samples
            .iter()
            .all(|s| s.artifact_bytes == first.artifact_bytes),
        "every round saves the same number of bytes",
    );
    Ok(Rounds {
        samples,
        untraced_first_answer_s,
    })
}

/// Index of the first pool scenario a block of `round` uses: rounds walk
/// the pool at different offsets.
pub fn pool_offset(p: &Prepared, round: u32, block: usize) -> usize {
    (round as usize * 331 + block * 97) % p.pool.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_takes_the_median_over_rounds_of_each_rounds_own_value() {
        let round = |scale: f64| RoundSample {
            first_answer_s: scale,
            compress_s: vec![scale / 10.0, scale / 5.0, scale],
            ask_ms: vec![2.0 * scale, 3.0 * scale, 40.0 * scale],
            bulk_scenarios: 512,
            bulk_s: 2.0 * scale,
            speedups: vec![1.9, 2.0, 2.6],
            reopen_ms: vec![4.0 * scale, 5.0 * scale, 9.0 * scale],
            ..RoundSample::default()
        };
        // One disturbed round in three moves no median; one freak sample
        // inside a round does not move that round's value.
        let timed = fold(&[round(1.0), round(1.0), round(9.0)]);
        assert_eq!(timed.first_answer_s, 1.0);
        assert_eq!(timed.compress_s, 0.2);
        assert_eq!(timed.ask_p50_ms, 3.0);
        assert_eq!(timed.scenarios_per_s, 256.0);
        assert_eq!(timed.speedup_x, 2.0);
        assert_eq!(timed.reopen_ms, 5.0);
        // Two disturbed rounds in three do.
        assert_eq!(fold(&[round(1.0), round(9.0), round(9.0)]).ask_p50_ms, 27.0);
    }
}
