//! Prints the paper's figures and tables as markdown: one experiment by
//! name, or all of them as one consolidated document.
//!
//! Usage: `all_experiments [name] [scale]`. No name runs everything
//! (default scale 4 — the consolidated run trades size for coverage); a
//! single experiment defaults to scale 10.

use provabs_bench::experiments::*;
use provabs_bench::harness::Report;
use std::time::Instant;

/// Runs one experiment.
type Runner = fn(&ExpConfig) -> Vec<Report>;

/// The experiments in document order: name, heading, runner.
const EXPERIMENTS: [(&str, &str, Runner); 12] = [
    (
        "fig5",
        "Figure 5 — compression time vs #cuts (type 1)",
        |cfg| fig_compression_vs_cuts(cfg, &[1], true),
    ),
    (
        "fig6",
        "Figure 6 — compression time vs #cuts (types 2–4)",
        |cfg| fig_compression_vs_cuts(cfg, &[2, 3, 4], false),
    ),
    (
        "fig7",
        "Figure 7 — compression time vs #cuts (types 5–7)",
        |cfg| fig_compression_vs_cuts(cfg, &[5, 6, 7], false),
    ),
    (
        "fig8",
        "Figure 8 — compression time vs input data size",
        fig8_data_size,
    ),
    ("fig9", "Figure 9 — compression time vs bound", fig9_bound),
    ("fig10", "Figure 10 — assignment speedup vs bound", |cfg| {
        fig10_speedup(cfg, 50)
    }),
    (
        "fig11",
        "Figure 11 — compression time vs number of trees",
        fig11_num_trees,
    ),
    (
        "fig12",
        "Figure 12 — Opt vs competitor [3]",
        fig12_competitor,
    ),
    (
        "fig14",
        "Figure 14 — compression time vs number of variables",
        fig14_num_variables,
    ),
    (
        "online",
        "Extension (§6) — online compression via sampling",
        ext_online_sampling,
    ),
    (
        "table1",
        "Table 1 — greedy accuracy and speedup",
        table1_greedy_quality,
    ),
    ("table2", "Table 2 — abstraction tree inventory", |_| {
        vec![table2_tree_inventory()]
    }),
];

fn usage() -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _, _)| *name).collect();
    eprintln!("usage: all_experiments [name] [scale]");
    eprintln!("  name:  one of {} (default: all)", names.join(", "));
    eprintln!("  scale: workload scale, a positive number (default: 4 for all, 10 for one)");
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // A leading number is the scale of a run-everything invocation.
    let name = match args.first() {
        Some(first) if first.parse::<f64>().is_err() => Some(args.remove(0)),
        _ => None,
    };
    let selected: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|(n, _, _)| name.as_deref().is_none_or(|wanted| wanted == *n))
        .collect();
    let scale: f64 = match args.as_slice() {
        [] if name.is_some() => 10.0,
        [] => 4.0,
        [scale] => scale.parse().unwrap_or_else(|_| usage()),
        _ => usage(),
    };
    if selected.is_empty() || scale.is_nan() || scale <= 0.0 {
        usage();
    }
    let cfg = ExpConfig {
        scale,
        ..ExpConfig::default()
    };
    let start = Instant::now();
    if name.is_none() {
        println!("# provabs — full experiment suite (scale {scale})\n");
    }
    for (_, heading, run) in selected {
        println!("## {heading}\n");
        for report in run(&cfg) {
            report.print();
        }
    }
    eprintln!("finished in {:.1}s", start.elapsed().as_secs_f64());
}
