//! The provabs benchmark: four workloads, the end-to-end metrics and a
//! per-layer ledger, one command. See `benchmark/README.md`.
//!
//! ```text
//! provabs-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! provabs-benchmark --check-repeat <N> [--workload <name>] [--seed <n>]
//! ```
//!
//! The last line of standard output of a run is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`; everything meant
//! for people goes to standard error. The exit code is 0 only when every
//! check passed.

mod host;
mod inproc;
mod layers;
mod prepare;
mod repeat;
mod rounds;
mod run;
mod spec;
mod stats;
mod tally;
mod trace;
mod wire;

use prepare::{Config, Kind};
use run::{Options, Outcome};
use std::process::ExitCode;

/// What the command line asked for.
enum Command {
    Run(Options),
    CheckRepeat {
        runs: usize,
        kinds: Vec<Kind>,
        seed: u64,
        seconds: f64,
        shrink: f64,
    },
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let (mut workload, mut seed, mut seconds) = (None, 42u64, f64::from(spec::RUN_SECONDS));
    let (mut traced, mut shrink, mut check_repeat) = (false, 1.0f64, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot use {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Kind::parse(value).ok_or_else(bad)?),
            // The service takes its seed as a JSON number, exact below
            // 2^53; the twin must generate from the very same one.
            "--seed" => seed = value.parse::<u64>().map_err(|_| bad())? % (1 << 53),
            "--seconds" => seconds = value.parse().ok().filter(|s| *s > 0.0).ok_or_else(bad)?,
            "--trace" => {
                traced = matches!(value.as_str(), "0" | "1")
                    .then(|| value == "1")
                    .ok_or_else(bad)?
            }
            "--shrink" => shrink = value.parse().ok().filter(|s| *s >= 1.0).ok_or_else(bad)?,
            "--check-repeat" => {
                check_repeat = Some(value.parse().ok().filter(|n| *n >= 2).ok_or_else(bad)?)
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if let Some(runs) = check_repeat {
        return Ok(Command::CheckRepeat {
            runs,
            kinds: workload.map_or_else(|| Kind::ALL.to_vec(), |k| vec![k]),
            seed,
            seconds,
            shrink,
        });
    }
    let kind = workload
        .ok_or("--workload is required (cold-telephony, compress-scale, whatif-q1, service-q10)")?;
    Ok(Command::Run(Options {
        config: Config { kind, seed, shrink },
        seconds,
        traced,
        out_dir: host::out_dir(),
    }))
}

/// The human-readable report of a run, on standard error.
fn report(opts: &Options, outcome: &Outcome) {
    eprintln!(
        "{} seed {} ({}): {} of {} checks failed; host {}",
        opts.config.kind.name(),
        opts.config.seed,
        if opts.traced { "traced" } else { "untraced" },
        outcome.failed,
        outcome.attempted,
        host::fingerprint()
    );
    for m in &outcome.metrics {
        eprintln!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    // The timings (each the median of the rounds' values below) and the
    // failures as a share: a spell of interference shows as rounds that
    // are off on every line.
    let timed = rounds::fold(&outcome.rounds);
    for (name, value, unit) in [
        ("first_answer_s", timed.first_answer_s, "s"),
        ("compress_s", timed.compress_s, "s"),
        ("ask_p50_ms", timed.ask_p50_ms, "ms"),
        ("scenarios_per_s", timed.scenarios_per_s, "1/s"),
        ("reopen_ms", timed.reopen_ms, "ms"),
        (
            "failed_share",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
            "ratio",
        ),
    ] {
        eprintln!("  ({name:<34} {value:>16.6} {unit})");
    }
    let rounds = &outcome.rounds;
    let line = |name: &str, f: &dyn Fn(&rounds::RoundSample) -> f64| {
        let values: Vec<String> = rounds.iter().map(|r| format!("{:.4}", f(r))).collect();
        eprintln!("  by round: {name:<16} {}", values.join(" "));
    };
    line("first_answer_s", &|r| r.first_answer_s);
    line("compress_s", &|r| stats::median(&r.compress_s));
    line("ask_p50_ms", &|r| stats::median(&r.ask_ms));
    line("asks", &|r| r.ask_ms.len() as f64);
    line("scenarios_per_s", &|r| r.bulk_scenarios as f64 / r.bulk_s);
    line("speedup_x", &|r| stats::median(&r.speedups));
    line("reopen_ms", &|r| stats::median(&r.reopen_ms));
    let [setups, measured, checks] = outcome.wall_s;
    eprintln!(
        "  wall: set-ups {setups:.1} s, rounds {measured:.1} s, {} {checks:.1} s",
        if opts.traced {
            "layer pass"
        } else {
            "oracle checks"
        }
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(command) => command,
        Err(e) => {
            eprintln!("provabs-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match command {
        Command::Run(opts) => {
            host::pin_allocator();
            match run::run(&opts) {
                Ok(outcome) => {
                    report(&opts, &outcome);
                    println!("{}", outcome.result_line());
                    if outcome.correct() {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("provabs-benchmark: {}: {e}", opts.config.kind.name());
                    ExitCode::FAILURE
                }
            }
        }
        Command::CheckRepeat {
            runs,
            kinds,
            seed,
            seconds,
            shrink,
        } => match repeat::check_repeat(runs, &kinds, seed, seconds, shrink) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("provabs-benchmark: {e}");
                ExitCode::FAILURE
            }
        },
    }
}
