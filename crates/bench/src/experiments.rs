//! The evaluation experiments, one function per figure/table.
//!
//! Every function returns [`Report`]s whose rows mirror the series the
//! paper plots; the `all_experiments` binary prints one of them by name,
//! or all of them. Every timed compression starts from the workload's
//! hash-map poly-set, so the lowering into the interned working set is
//! inside the measured region — what the figures have always measured.

use crate::harness::{fmt_ms, time, Report};
use provabs_core::competitor::pairwise_summarize;
use provabs_core::greedy::greedy_vvs;
use provabs_core::optimal::optimal_vvs;
use provabs_core::problem::InternedAbstraction;
use provabs_core::reference::{brute_force_vvs, DEFAULT_CUT_LIMIT};
use provabs_datagen::workload::{Workload, WorkloadConfig, WorkloadData};
use provabs_provenance::guard::{Completion, Guard};
use provabs_provenance::polyset::PolySet;
use provabs_provenance::var::VarTable;
use provabs_provenance::working::WorkingSet;
use provabs_scenario::executor::EvalOptions;
use provabs_scenario::scenario::Scenario;
use provabs_session::{SessionBuilder, Strategy};
use provabs_trees::error::TreeError;
use provabs_trees::forest::Forest;
use provabs_trees::generate::{leaf_names, paper_tree, tree_type_shapes};
use std::time::Duration;

/// Experiment-wide knobs.
#[derive(Clone, Debug)]
pub struct ExpConfig {
    /// Workload scale (generator units; 10.0 ≈ 10⁵ tuples).
    pub scale: f64,
    /// RNG seed shared by generators and scenarios.
    pub seed: u64,
}

impl Default for ExpConfig {
    fn default() -> Self {
        Self {
            scale: 10.0,
            seed: 42,
        }
    }
}

impl ExpConfig {
    fn workload_config(&self) -> WorkloadConfig {
        WorkloadConfig {
            scale: self.scale,
            param_modulus: 128,
            seed: self.seed,
        }
    }
}

/// Outcome summary of one compression run: time plus either the variable
/// loss or the reason it failed.
fn describe(r: &Result<(InternedAbstraction<f64>, Completion), TreeError>) -> String {
    match r {
        Ok((abs, _)) => format!(
            "ok (m={}, vl={})",
            abs.result.compressed_size_m,
            abs.result.vl()
        ),
        Err(TreeError::BoundUnattainable { best_possible, .. }) => {
            format!("unattainable (floor={best_possible})")
        }
        Err(e) => format!("error: {e}"),
    }
}

/// The workload's hash-map poly-set lowered into the interned working set
/// the algorithms take. Called *inside* every timed closure, so each
/// figure keeps timing the lowering it has always timed.
fn lowered(data: &WorkloadData) -> WorkingSet<f64> {
    WorkingSet::from_polyset(&data.polys)
}

/// The paper's default bound: half the input size (§4.3).
fn half_bound(polys: &PolySet<f64>) -> usize {
    (polys.size_m() / 2).max(1)
}

/// Figures 5–7: compression time as a function of the number of cuts, for
/// the tree types of one family (`types` ⊆ 1..=7). Brute force is
/// attempted only for type-1 trees (Figure 5 plots it) and only below its
/// feasibility limit, mirroring the paper.
pub fn fig_compression_vs_cuts(cfg: &ExpConfig, types: &[u8], with_brute: bool) -> Vec<Report> {
    let guard = &Guard::unlimited();
    let mut reports = Vec::new();
    for workload in Workload::ALL {
        let mut data = workload.generate(&cfg.workload_config());
        let bound = half_bound(&data.polys);
        let mut report = Report::new(
            format!(
                "{} — suppliers/plans abstraction tree (|P|_M={}, B={})",
                workload.name(),
                data.polys.size_m(),
                bound
            ),
            &[
                "tree type",
                "shape",
                "#cuts",
                "Opt [ms]",
                "Greedy [ms]",
                "Brute-Force [ms]",
                "Opt outcome",
                "Greedy outcome",
            ],
        );
        for &ty in types {
            let shapes = tree_type_shapes(ty).expect("experiment tree types are within 1..=7");
            for (idx, shape) in shapes.iter().enumerate() {
                let forest = data.primary_tree(ty, idx);
                let cuts = forest.count_cuts();
                let (opt, t_opt) = time(|| optimal_vvs(&lowered(&data), &forest, bound, guard));
                let (greedy, t_greedy) =
                    time(|| greedy_vvs(&lowered(&data), &forest, bound, guard));
                let t_brute: Option<Duration> = if with_brute && cuts <= DEFAULT_CUT_LIMIT {
                    let (_, t) =
                        time(|| brute_force_vvs(&data.polys, &forest, bound, DEFAULT_CUT_LIMIT));
                    Some(t)
                } else {
                    None
                };
                report.row(vec![
                    ty.to_string(),
                    format!("{shape:?}"),
                    cuts.to_string(),
                    fmt_ms(Some(t_opt)),
                    fmt_ms(Some(t_greedy)),
                    fmt_ms(t_brute),
                    describe(&opt),
                    describe(&greedy),
                ]);
            }
        }
        reports.push(report);
    }
    reports
}

/// Figure 8: compression time as a function of the input data size.
pub fn fig8_data_size(cfg: &ExpConfig) -> Vec<Report> {
    let guard = &Guard::unlimited();
    let mut reports = Vec::new();
    let scales: Vec<f64> = [0.25, 0.5, 1.0, 2.0, 4.0]
        .iter()
        .map(|m| m * cfg.scale)
        .collect();
    for workload in Workload::ALL {
        let mut report = Report::new(
            format!("{} — compression time vs input data size", workload.name()),
            &["tuples", "|P|_M", "Opt [ms]", "Greedy [ms]", "Opt outcome"],
        );
        for &scale in &scales {
            let mut data = workload.generate(&WorkloadConfig {
                scale,
                ..cfg.workload_config()
            });
            let bound = half_bound(&data.polys);
            let forest = data.primary_tree(2, 1); // a mid-complexity tree
            let (opt, t_opt) = time(|| optimal_vvs(&lowered(&data), &forest, bound, guard));
            let (_, t_greedy) = time(|| greedy_vvs(&lowered(&data), &forest, bound, guard));
            report.row(vec![
                data.total_tuples.to_string(),
                data.polys.size_m().to_string(),
                fmt_ms(Some(t_opt)),
                fmt_ms(Some(t_greedy)),
                describe(&opt),
            ]);
        }
        reports.push(report);
    }
    reports
}

/// The bounds swept in Figures 9/10: five points between the maximal
/// compression the tree can achieve and the original size.
fn bound_sweep(data: &mut WorkloadData, forest: &Forest) -> Vec<usize> {
    let total = data.polys.size_m();
    // The floor is what full compression achieves.
    let source = lowered(data);
    let floor = match greedy_vvs(&source, forest, 1, &Guard::unlimited()) {
        Ok((abs, _)) => abs.result.compressed_size_m,
        Err(TreeError::BoundUnattainable { best_possible, .. }) => best_possible,
        Err(_) => total,
    };
    let span = total.saturating_sub(floor);
    (0..5)
        .map(|i| floor + span * i / 5)
        .map(|b| b.max(1))
        .collect()
}

/// Figure 9: compression time as a function of the bound.
pub fn fig9_bound(cfg: &ExpConfig) -> Vec<Report> {
    let guard = &Guard::unlimited();
    let mut reports = Vec::new();
    for workload in Workload::ALL {
        let mut data = workload.generate(&cfg.workload_config());
        let forest = data.primary_tree(2, 1);
        let bounds = bound_sweep(&mut data, &forest);
        let mut report = Report::new(
            format!(
                "{} — compression time vs bound (|P|_M={})",
                workload.name(),
                data.polys.size_m()
            ),
            &["bound B", "Opt [ms]", "Greedy [ms]", "Opt outcome"],
        );
        for &b in &bounds {
            let (opt, t_opt) = time(|| optimal_vvs(&lowered(&data), &forest, b, guard));
            let (_, t_greedy) = time(|| greedy_vvs(&lowered(&data), &forest, b, guard));
            report.row(vec![
                b.to_string(),
                fmt_ms(Some(t_opt)),
                fmt_ms(Some(t_greedy)),
                describe(&opt),
            ]);
        }
        reports.push(report);
    }
    reports
}

/// Figure 10: assignment-time speedup as a function of the bound. Each
/// bound is one compress-once `Session`; the serial-reference and
/// compiled-parallel engines are measured off that single compression
/// (the compiled lowerings are cached inside the session, so the second
/// engine pays zero recompilation).
pub fn fig10_speedup(cfg: &ExpConfig, scenarios_per_batch: usize) -> Vec<Report> {
    let mut reports = Vec::new();
    for workload in Workload::ALL {
        let mut data = workload.generate(&cfg.workload_config());
        let forest = data.primary_tree(2, 1);
        let bounds = bound_sweep(&mut data, &forest);
        let mut report = Report::new(
            format!(
                "{} — assignment speedup vs bound (|P|_M={})",
                workload.name(),
                data.polys.size_m()
            ),
            &[
                "bound B",
                "compressed |P↓S|_M",
                "speedup [%]",
                "original [ms]",
                "compressed [ms]",
                "compiled‖ original [ms]",
                "compiled‖ compressed [ms]",
            ],
        );
        let builder = SessionBuilder::new(data.polys, data.vars)
            .forest(forest)
            .strategy(Strategy::Optimal);
        for &b in &bounds {
            let session = builder
                .clone()
                .bound(b)
                .build()
                .expect("bound ≥ 1 by construction");
            if session.compress().is_err() {
                report.row(vec![
                    b.to_string(),
                    "-".into(),
                    "0".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
                continue;
            }
            let names = session.abstracted_labels().expect("compressed above");
            let scenarios: Vec<_> = (0..scenarios_per_batch)
                .map(|i| Scenario::random(&names, 0.5, cfg.seed + i as u64))
                .collect();
            // Both engines off one shared compression: the serial
            // reference is the paper-faithful number, the compiled
            // columns show that abstraction and engine speedups compose.
            let rep = session
                .speedup_report(&scenarios, 3, &EvalOptions::serial_reference())
                .expect("abstracted labels are known variables");
            let fast = session
                .speedup_report(&scenarios, 3, &EvalOptions::new())
                .expect("abstracted labels are known variables");
            report.row(vec![
                b.to_string(),
                session
                    .result()
                    .expect("compressed above")
                    .compressed_size_m
                    .to_string(),
                format!("{:.1}", rep.speedup_pct),
                fmt_ms(Some(rep.original)),
                fmt_ms(Some(rep.compressed)),
                fmt_ms(Some(fast.original)),
                fmt_ms(Some(fast.compressed)),
            ]);
        }
        reports.push(report);
    }
    reports
}

/// Figure 11: compression time as a function of the number of abstraction
/// trees (binary 3-level trees, 16 leaves each); greedy vs brute force.
pub fn fig11_num_trees(cfg: &ExpConfig) -> Vec<Report> {
    let guard = &Guard::unlimited();
    let mut reports = Vec::new();
    for workload in Workload::ALL {
        let mut data = workload.generate(&cfg.workload_config());
        let bound = half_bound(&data.polys);
        let mut report = Report::new(
            format!(
                "{} — compression time vs number of trees (B={bound})",
                workload.name()
            ),
            &[
                "#trees",
                "#cuts",
                "Greedy [ms]",
                "Brute-Force [ms]",
                "Greedy outcome",
            ],
        );
        for t in 2..=8 {
            let forest = data.binary_forest(t);
            let cuts = forest.count_cuts();
            let (greedy, t_greedy) = time(|| greedy_vvs(&lowered(&data), &forest, bound, guard));
            let t_brute = if cuts <= DEFAULT_CUT_LIMIT {
                let (_, t) =
                    time(|| brute_force_vvs(&data.polys, &forest, bound, DEFAULT_CUT_LIMIT));
                Some(t)
            } else {
                None // mirrors the paper: brute force infeasible beyond ~80k cuts
            };
            report.row(vec![
                t.to_string(),
                cuts.to_string(),
                fmt_ms(Some(t_greedy)),
                fmt_ms(t_brute),
                describe(&greedy),
            ]);
        }
        reports.push(report);
    }
    reports
}

/// Figure 12: Opt vs the competitor summarization of Ainy et al. as a
/// function of the bound (TPC-H Q1 and Q5 only, as in the paper; the
/// competitor is quadratic and run at a reduced scale). The
/// parameterization modulus is lowered to 16 so the sampled instances
/// keep the merge density of the paper's full-scale runs (see
/// EXPERIMENTS.md), and a 4-level tree gives the oracle fine-grained lift
/// steps.
pub fn fig12_competitor(cfg: &ExpConfig) -> Vec<Report> {
    let guard = &Guard::unlimited();
    let mut reports = Vec::new();
    for workload in [Workload::TpchQ5, Workload::TpchQ1] {
        // Q5 spreads its lineitems over 25 nations, so it needs the full
        // scale to accumulate merge opportunities; Q1 (8 dense groups) is
        // reduced so the quadratic competitor stays tractable.
        let scale = match workload {
            Workload::TpchQ5 => cfg.scale,
            _ => (cfg.scale * 0.2).max(0.5),
        };
        let mut data = workload.generate(&WorkloadConfig {
            scale,
            param_modulus: 16,
            ..cfg.workload_config()
        });
        let forest = data.primary_tree(5, 0);
        let bounds = bound_sweep(&mut data, &forest);
        let mut report = Report::new(
            format!(
                "{} — Opt vs competitor [3] (|P|_M={})",
                workload.name(),
                data.polys.size_m()
            ),
            &[
                "bound B",
                "Opt [ms]",
                "Prox [ms]",
                "oracle pairs",
                "Opt VL",
                "Prox VL",
            ],
        );
        for &b in &bounds {
            let (opt, t_opt) = time(|| optimal_vvs(&lowered(&data), &forest, b, guard));
            let (prox, t_prox) = time(|| pairwise_summarize(&lowered(&data), &forest, b, guard));
            let (pairs, prox_vl) = match &prox {
                Ok((abs, stats, _)) => (
                    stats.pairs_examined.to_string(),
                    abs.result.vl().to_string(),
                ),
                Err(_) => ("-".into(), "-".into()),
            };
            report.row(vec![
                b.to_string(),
                fmt_ms(Some(t_opt)),
                fmt_ms(Some(t_prox)),
                pairs,
                opt.as_ref()
                    .map(|(abs, _)| abs.result.vl().to_string())
                    .unwrap_or("-".into()),
                prox_vl,
            ]);
        }
        reports.push(report);
    }
    reports
}

/// Figure 14 (Appendix B): compression time as a function of the number
/// of variables (the abstraction tree keeps 128 leaves).
pub fn fig14_num_variables(cfg: &ExpConfig) -> Vec<Report> {
    let guard = &Guard::unlimited();
    let mut reports = Vec::new();
    for workload in [Workload::TpchQ5, Workload::TpchQ1] {
        let mut report = Report::new(
            format!(
                "{} — compression time vs number of variables",
                workload.name()
            ),
            &["modulus", "|P|_V", "Opt [ms]", "Greedy [ms]"],
        );
        for modulus in [128i64, 256, 512, 1024, 2048, 4096] {
            let mut data = workload.generate(&WorkloadConfig {
                param_modulus: modulus,
                ..cfg.workload_config()
            });
            let bound = half_bound(&data.polys);
            // The tree always covers the first 128 supplier variables.
            let leaves = data.primary_leaves[..128.min(data.primary_leaves.len())].to_vec();
            let forest = Forest::single(
                paper_tree(1, 1, "Supp", &leaves, &mut data.vars).expect("type 1 is valid"),
            );
            let (_, t_opt) = time(|| optimal_vvs(&lowered(&data), &forest, bound, guard));
            let (_, t_greedy) = time(|| greedy_vvs(&lowered(&data), &forest, bound, guard));
            report.row(vec![
                modulus.to_string(),
                data.polys.size_v().to_string(),
                fmt_ms(Some(t_opt)),
                fmt_ms(Some(t_greedy)),
            ]);
        }
        reports.push(report);
    }
    reports
}

/// Extension experiment (§6): online compression via sampling. For each
/// workload and sampling fraction, the VVS is chosen on a sample with an
/// adapted bound and evaluated against the full provenance — reporting
/// the quality gap and time saved relative to offline compression.
pub fn ext_online_sampling(cfg: &ExpConfig) -> Vec<Report> {
    let guard = &Guard::unlimited();
    use provabs_core::online::{estimate_full_size, online_compress, Solver};
    let mut reports = Vec::new();
    for workload in [Workload::TpchQ5, Workload::Telephony] {
        let mut data = workload.generate(&cfg.workload_config());
        let forest = data.primary_tree(2, 1);
        // A bound in the middle of the attainable range, so the offline
        // reference succeeds and the online scheme has a real target.
        let bound = bound_sweep(&mut data, &forest)[2];
        let (offline, t_offline) = time(|| optimal_vvs(&lowered(&data), &forest, bound, guard));
        let offline_desc = describe(&offline);
        let mut report = Report::new(
            format!(
                "{} — online (sampled) compression, |P|_M={}, B={bound}, offline {offline_desc} in {}",
                workload.name(),
                data.polys.size_m(),
                fmt_ms(Some(t_offline)),
            ),
            &[
                "fraction",
                "sample |P|_M",
                "size estimate",
                "adapted B",
                "online [ms]",
                "full |P↓S|_M",
                "adequate",
                "online VL",
            ],
        );
        let source = lowered(&data);
        for fraction in [0.05, 0.1, 0.2, 0.4, 0.8] {
            let estimate = estimate_full_size(&source, &[fraction / 2.0, fraction], cfg.seed);
            let (outcome, t_online) = time(|| {
                online_compress(
                    &lowered(&data),
                    &forest,
                    bound,
                    fraction,
                    cfg.seed,
                    Solver::Optimal,
                    guard,
                )
            });
            match outcome {
                Ok((o, _)) => report.row(vec![
                    format!("{fraction:.2}"),
                    o.sample_size_m.to_string(),
                    estimate.to_string(),
                    o.adapted_bound.to_string(),
                    fmt_ms(Some(t_online)),
                    o.full.result.compressed_size_m.to_string(),
                    o.full.result.is_adequate_for(bound).to_string(),
                    o.full.result.vl().to_string(),
                ]),
                Err(e) => report.row(vec![
                    format!("{fraction:.2}"),
                    "-".into(),
                    estimate.to_string(),
                    "-".into(),
                    fmt_ms(Some(t_online)),
                    "-".into(),
                    format!("{e}"),
                    "-".into(),
                ]),
            }
        }
        reports.push(report);
    }
    reports
}

/// Table 1: greedy accuracy (retained granularity relative to optimal)
/// and compression-time speedup over Opt, per tree type. Each cell is a
/// compress-once `Session` — one per (tree type, strategy) — sharing the
/// workload provenance through the cloned builder.
pub fn table1_greedy_quality(cfg: &ExpConfig) -> Vec<Report> {
    use provabs_scenario::accuracy::granularity_accuracy;
    let mut reports = Vec::new();
    for workload in Workload::ALL {
        let mut data = workload.generate(&cfg.workload_config());
        let bound = half_bound(&data.polys);
        let forests: Vec<_> = (1..=7u8).map(|ty| data.primary_tree(ty, 0)).collect();
        let builder = SessionBuilder::new(data.polys, data.vars).bound(bound);
        let mut report = Report::new(
            format!(
                "{} — greedy accuracy and speedup (B={bound})",
                workload.name()
            ),
            &["tree type", "accuracy [%]", "speedup [%]"],
        );
        for (ty, forest) in (1..=7u8).zip(forests) {
            // The timed region is compress() alone (the compiled lowering
            // is lazy and no result is cloned), so the speedup column
            // measures the selection algorithms, as before the façade.
            let compress = |strategy: Strategy| {
                let session = builder
                    .clone()
                    .forest(forest.clone())
                    .strategy(strategy)
                    .build()
                    .expect("bound ≥ 1 by construction");
                let (ok, t) = time(|| session.compress().is_ok());
                (ok.then_some(session), t)
            };
            let (opt, t_opt) = compress(Strategy::Optimal);
            let (greedy, t_greedy) = compress(Strategy::default());
            let accuracy = match (&opt, &greedy) {
                (Some(o), Some(g)) => {
                    let (o, g) = (o.result().expect("ok"), g.result().expect("ok"));
                    format!("{:.2}", 100.0 * granularity_accuracy(g, o))
                }
                // Both unattainable: the greedy traversed everything, same
                // maximal compression — count as agreement.
                (None, None) => "100.00".to_string(),
                _ => "-".to_string(),
            };
            let speedup = 100.0 * (t_opt.as_secs_f64() - t_greedy.as_secs_f64())
                / t_opt.as_secs_f64().max(1e-9);
            report.row(vec![ty.to_string(), accuracy, format!("{:.2}", speedup)]);
        }
        reports.push(report);
    }
    reports
}

/// Table 2: the abstraction-tree inventory — nodes, fan-outs and number
/// of valid variable sets per type, over 128 leaves.
pub fn table2_tree_inventory() -> Report {
    let leaves = leaf_names("s", 128);
    let mut report = Report::new(
        "Abstraction tree types (128 leaves)",
        &["type", "nodes", "fan-outs", "#VVS"],
    );
    for ty in 1..=7u8 {
        let shapes = tree_type_shapes(ty).expect("1..=7 are valid types");
        for (idx, shape) in shapes.iter().enumerate() {
            let mut vars = VarTable::new();
            let tree =
                paper_tree(ty, idx, "Supp", &leaves, &mut vars).expect("1..=7 are valid types");
            report.row(vec![
                ty.to_string(),
                tree.num_nodes().to_string(),
                format!("{shape:?}"),
                tree.count_cuts().to_string(),
            ]);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny config so the whole suite runs in test time (the binaries
    /// run the full scale; brute force is exercised by its own unit and
    /// integration tests, not here, to keep debug-mode test time sane).
    fn tiny() -> ExpConfig {
        ExpConfig {
            scale: 0.05,
            seed: 7,
        }
    }

    #[test]
    fn fig5_rows_cover_all_workloads_and_shapes() {
        let reports = fig_compression_vs_cuts(&tiny(), &[1], false);
        assert_eq!(reports.len(), Workload::ALL.len());
        for r in &reports {
            assert_eq!(r.rows().len(), tree_type_shapes(1).expect("type 1").len());
        }
    }

    #[test]
    fn fig9_and_fig10_share_bounds() {
        let reports = fig9_bound(&tiny());
        assert_eq!(reports.len(), Workload::ALL.len());
        for r in &reports {
            assert_eq!(r.rows().len(), 5);
        }
        let speedups = fig10_speedup(&tiny(), 5);
        assert_eq!(speedups.len(), Workload::ALL.len());
    }

    #[test]
    fn fig11_brute_force_stops_at_the_limit() {
        let reports = fig11_num_trees(&tiny());
        for r in &reports {
            // 26^4 = 456976 > 80000: brute force must be absent from 4
            // trees onwards.
            for row in r.rows() {
                let trees: usize = row[0].parse().expect("tree count");
                if trees >= 4 {
                    assert_eq!(row[3], "-", "brute force must be skipped");
                }
            }
        }
    }

    #[test]
    fn table2_matches_paper_values() {
        let report = table2_tree_inventory();
        // Spot-check the Table 2 rows quoted in the paper.
        let find = |nodes: &str| {
            report
                .rows()
                .iter()
                .find(|r| r[1] == nodes)
                .unwrap_or_else(|| panic!("row with {nodes} nodes"))
                .clone()
        };
        assert_eq!(find("131")[3], "5");
        assert_eq!(find("145")[3], "65537");
        assert_eq!(find("135")[3], "26");
        assert_eq!(find("153")[3], "390626");
        assert_eq!(find("143")[3], "677");
    }

    #[test]
    fn fig12_reports_oracle_calls() {
        let reports = fig12_competitor(&tiny());
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(!r.rows().is_empty());
        }
    }
}
