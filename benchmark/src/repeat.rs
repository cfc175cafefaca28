//! `--check-repeat N`: is the benchmark steady enough to hold its bounds?
//!
//! Each workload runs as two sets of `N` fresh processes of this same
//! binary, run `i` of either set on seed `base + i`. For every end-to-end
//! metric this prints the two set medians, the share by which the second
//! is worse than the first, the bound, and each set's inter-quartile
//! spread; it fails when a gap exceeds its bound, when a metric that is a
//! pure function of the seed differs between the two runs of one seed,
//! or when any run fails a check. A spread above a third of the bound is
//! marked, because the repository's driver repeats this with ten runs a
//! set and rejects a benchmark whose spread reaches the bound. The last
//! column is what the comparison rule a claimed gain must meet
//! ([`compare`]) makes of the two sets: on one commit anything but
//! `Unresolved` means the host changed speed in between.

use crate::prepare::Kind;
use crate::spec::END_TO_END;
use crate::stats::{compare, median, spread};
use provabs_server::Json;
use std::collections::BTreeMap;
use std::process::Command;

/// The metrics of one child run, by name.
type Values = BTreeMap<String, f64>;

/// Runs one workload once in a child process and parses its result line.
fn child_run(kind: Kind, seed: u64, seconds: f64, shrink: f64) -> Result<Values, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", kind.name(), "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--shrink", &shrink.to_string()])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{} seed {seed} exited with {}: {}",
            kind.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let line = stdout.lines().last().ok_or("the run printed nothing")?;
    parse_result(line)
}

/// Parses a result line into its metric values, insisting on a correct
/// run.
fn parse_result(line: &str) -> Result<Values, String> {
    let result = Json::parse(line).map_err(|e| format!("result line: {e}"))?;
    if result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("the run was not correct: {line}"));
    }
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("the result line has no metrics")?;
    metrics
        .iter()
        .map(|(name, entry)| {
            let value = entry.get("value").and_then(Json::as_f64);
            Ok((
                name.clone(),
                value.ok_or_else(|| format!("{name} has no value"))?,
            ))
        })
        .collect()
}

/// One metric's value in every run of a set.
fn column(runs: &[Values], metric: &str) -> Result<Vec<f64>, String> {
    runs.iter()
        .map(|run| run.get(metric).copied())
        .collect::<Option<_>>()
        .ok_or_else(|| format!("a run did not report {metric}"))
}

/// Runs the check; `Ok(true)` when every workload × metric agrees.
pub fn check_repeat(
    runs: usize,
    kinds: &[Kind],
    seed: u64,
    seconds: f64,
    shrink: f64,
) -> Result<bool, String> {
    let mut steady = true;
    for &kind in kinds {
        let mut sets: [Vec<Values>; 2] = [Vec::new(), Vec::new()];
        for set in &mut sets {
            for i in 0..runs as u64 {
                set.push(child_run(kind, seed + i, seconds, shrink)?);
                eprint!(".");
            }
        }
        eprintln!();
        println!(
            "{} ({runs} runs a set, seeds {seed}..{})",
            kind.name(),
            seed + runs as u64
        );
        println!(
            "  {:<18} {:>14} {:>14} {:>8} {:>7} {:>8} {:>8}  {:<10}",
            "metric", "median A", "median B", "gap", "bound", "iqr A", "iqr B", "A against B"
        );
        for m in &END_TO_END {
            let (a, b) = (column(&sets[0], m.name)?, column(&sets[1], m.name)?);
            let gap = m.better.worsening(median(&a), median(&b));
            let (spread_a, spread_b) = (spread(&a), spread(&b));
            let mut notes = Vec::new();
            if gap > m.bound {
                steady = false;
                notes.push("GAP OVER BOUND");
            }
            if m.exact && a.iter().zip(&b).any(|(x, y)| x.to_bits() != y.to_bits()) {
                steady = false;
                notes.push("DIFFERS FOR ONE SEED");
            }
            if spread_a.max(spread_b) > m.bound / 3.0 {
                notes.push("spread over a third of the bound");
            }
            let verdict = format!("{:?}", compare(&a, &b, m.better));
            println!(
                "  {:<18} {:>14.6} {:>14.6} {:>+7.2}% {:>6.1}% {:>7.2}% {:>7.2}%  {:<10}  {}",
                m.name,
                median(&a),
                median(&b),
                gap * 100.0,
                m.bound * 100.0,
                spread_a * 100.0,
                spread_b * 100.0,
                verdict,
                notes.join("; ")
            );
        }
    }
    Ok(steady)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_parse_and_incorrect_runs_are_refused() {
        let line = r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#;
        let values = parse_result(line).expect("parses");
        assert_eq!(values.get("setup_s"), Some(&0.5));
        let failed = line.replace("true", "false");
        assert!(parse_result(&failed).is_err());
        assert!(parse_result("not json").is_err());
    }
}
