//! End-to-end golden tests reproducing every worked example in the paper,
//! through the umbrella crate's public API: the Figure 1 database feeds
//! the engine, whose provenance feeds the abstraction algorithms, whose
//! output feeds hypothetical reasoning.

use provabs::algo::greedy::greedy_vvs;
use provabs::algo::optimal::optimal_vvs;
use provabs::algo::reference::{brute_force_vvs, optimal_vvs_dense, DEFAULT_CUT_LIMIT};
use provabs::datagen::fixture::{example_forest, example_polys, example_provenance};
use provabs::provenance::guard::Guard;
use provabs::provenance::working::WorkingSet;
use provabs::provenance::VarTable;
use provabs::scenario::Scenario;
use provabs::trees::error::TreeError;
use provabs::trees::forest::Forest;
use provabs::trees::generate::{months_tree, plans_tree};
use provabs::trees::Vvs;

/// Example 2: the engine's polynomial for zip 10001, to the digit.
#[test]
fn example_2_from_the_engine() {
    let mut vars = VarTable::new();
    let grouped = example_provenance(&mut vars);
    let key = vec![provabs::engine::Value::str("10001")];
    let p = grouped.poly_for(&key).expect("zip 10001 present");
    assert_eq!(p.size_m(), 8);
    let coeff = |names: [&str; 2]| {
        let m = provabs::provenance::monomial::Monomial::from_vars(
            names.map(|n| vars.lookup(n).expect("interned")),
        );
        p.coefficient(&m)
    };
    assert!((coeff(["p1", "m1"]) - 220.8).abs() < 1e-9);
    assert!((coeff(["p1", "m3"]) - 240.0).abs() < 1e-9);
    assert!((coeff(["f1", "m1"]) - 127.4).abs() < 1e-9);
    assert!((coeff(["f1", "m3"]) - 114.45).abs() < 1e-9);
    assert!((coeff(["y1", "m1"]) - 75.9).abs() < 1e-9);
    assert!((coeff(["y1", "m3"]) - 72.5).abs() < 1e-9);
    assert!((coeff(["v", "m1"]) - 42.0).abs() < 1e-9);
    assert!((coeff(["v", "m3"]) - 24.2).abs() < 1e-9);
}

/// Example 2 continued: grouping m1, m3 into q1 merges the monomials and
/// the quarterly polynomial has the coefficients the paper prints.
#[test]
fn example_2_quarterly_abstraction() {
    let mut vars = VarTable::new();
    let grouped = example_provenance(&mut vars);
    let key = vec![provabs::engine::Value::str("10001")];
    let p = grouped.poly_for(&key).expect("zip 10001 present").clone();
    let polys = provabs::provenance::PolySet::from_vec(vec![p]);
    let forest = Forest::single(months_tree(&mut vars));
    let source = WorkingSet::from_polyset(&polys);
    let (abs, _) = optimal_vvs(&source, &forest, 4, &Guard::unlimited()).expect("attainable");
    let down = abs.result.apply(&polys);
    assert_eq!(down.size_m(), 4);
    // 460.8·p1·q1 + 241.85·f1·q1 + 148.4·y1·q1 + 66.2·v·q1
    let q1 = vars.lookup("q1").expect("interned");
    let coeff = |plan: &str| {
        down.iter().next().expect("one poly").coefficient(
            &provabs::provenance::monomial::Monomial::from_vars([
                vars.lookup(plan).expect("interned"),
                q1,
            ]),
        )
    };
    assert!((coeff("p1") - 460.8).abs() < 1e-9);
    assert!((coeff("f1") - 241.85).abs() < 1e-9);
    assert!((coeff("y1") - 148.4).abs() < 1e-9);
    assert!((coeff("v") - 66.2).abs() < 1e-9);
}

/// Example 5: the five valid variable sets validate; Example 6: S1 and S5
/// produce the stated sizes and granularities.
#[test]
fn examples_5_and_6() {
    let mut vars = VarTable::new();
    let polys = {
        let grouped = example_provenance(&mut vars);
        let key = vec![provabs::engine::Value::str("10001")];
        provabs::provenance::PolySet::from_vec(vec![grouped
            .poly_for(&key)
            .expect("zip present")
            .clone()])
    };
    let forest = Forest::single(plans_tree(&mut vars));
    for labels in [
        vec!["Business", "Special", "Standard"],
        vec!["SB", "e", "f1", "f2", "Y", "v", "Standard"],
        vec!["b1", "b2", "e", "Special", "Standard"],
        vec!["SB", "e", "F", "Y", "v", "p1", "p2"],
        vec!["Plans"],
    ] {
        let vvs = Vvs::from_labels(&forest, &vars, &labels).expect("labels");
        vvs.validate(&forest).expect("Example 5 sets are valid");
    }
    let s1 =
        Vvs::from_labels(&forest, &vars, &["Business", "Special", "Standard"]).expect("labels");
    let down1 = s1.apply(&polys, &forest);
    assert_eq!((down1.size_m(), down1.size_v()), (4, 4));
    let s5 = Vvs::from_labels(&forest, &vars, &["Plans"]).expect("labels");
    let down5 = s5.apply(&polys, &forest);
    assert_eq!((down5.size_m(), down5.size_v()), (2, 3));
}

/// Example 8: bound 3 with the months tree is unattainable (floor 4).
#[test]
fn example_8_unattainable_bound() {
    let mut vars = VarTable::new();
    let grouped = example_provenance(&mut vars);
    let key = vec![provabs::engine::Value::str("10001")];
    let polys = provabs::provenance::PolySet::from_vec(vec![grouped
        .poly_for(&key)
        .expect("zip present")
        .clone()]);
    let forest = Forest::single(months_tree(&mut vars));
    assert_eq!(
        optimal_vvs(
            &WorkingSet::from_polyset(&polys),
            &forest,
            3,
            &Guard::unlimited()
        )
        .expect_err("unattainable"),
        TreeError::BoundUnattainable {
            bound: 3,
            best_possible: 4
        }
    );
}

/// Example 13: the optimal DP over {P1, P2} with B = 9 selects
/// {SB, Special, e, p1} with ML = 6, VL = 3 — in all three solvers.
#[test]
fn example_13_all_solvers_agree() {
    let mut vars = VarTable::new();
    let polys = example_polys(&mut vars);
    assert_eq!(polys.size_m(), 14);
    let forest = Forest::single(plans_tree(&mut vars));
    let source = WorkingSet::from_polyset(&polys);
    let (opt, _) = optimal_vvs(&source, &forest, 9, &Guard::unlimited()).expect("attainable");
    let opt = opt.result;
    let dense = optimal_vvs_dense(&polys, &forest, 9).expect("attainable");
    let brute = brute_force_vvs(&polys, &forest, 9, DEFAULT_CUT_LIMIT).expect("small");
    assert_eq!(opt.vl(), 3);
    assert_eq!(opt.ml(), 6);
    assert_eq!(dense.vl(), 3);
    assert_eq!(brute.vl(), 3);
    assert_eq!(
        opt.vvs.labels(&opt.forest),
        vec!["SB", "Special", "e", "p1"]
            .into_iter()
            .map(String::from)
            .collect::<Vec<_>>()
    );
}

/// Example 15: the greedy run over both trees with B = 4 picks q1, SB,
/// Business, Special (ML = 11, VL = 5), while the optimum is VL = 4.
#[test]
fn example_15_greedy_vs_optimal() {
    let mut vars = VarTable::new();
    let polys = example_polys(&mut vars);
    let forest = example_forest(&mut vars);
    let source = WorkingSet::from_polyset(&polys);
    let (greedy, _) = greedy_vvs(&source, &forest, 4, &Guard::unlimited()).expect("attainable");
    assert_eq!((greedy.result.ml(), greedy.result.vl()), (11, 5));
    let brute = brute_force_vvs(&polys, &forest, 4, DEFAULT_CUT_LIMIT).expect("small");
    assert_eq!(brute.vl(), 4);
    assert!(brute.vvs.labels(&brute.forest).contains(&"q1".to_string()));
}

/// Example 1's scenarios, end to end: "what if the ppm of all plans
/// decreased by 20 % in March?" answered on compressed provenance.
#[test]
fn example_1_what_if_on_compressed_provenance() {
    let mut vars = VarTable::new();
    let polys = example_polys(&mut vars);
    let forest = example_forest(&mut vars);
    let source = WorkingSet::from_polyset(&polys);
    let (abs, _) = greedy_vvs(&source, &forest, 7, &Guard::unlimited()).expect("attainable");
    let compressed = abs.result.apply(&polys);
    // March (m3) sits under q1 after abstraction; scale the whole quarter.
    let baseline: f64 = compressed.eval(|_| 1.0).iter().sum();
    let val = Scenario::new().set("q1", 0.8).valuation(&mut vars);
    let discounted: f64 = val.eval_set(&compressed).iter().sum();
    // All monomials carry q1 (months m1, m3 both in q1): exact 20 % cut.
    assert!((discounted - baseline * 0.8).abs() < 1e-9);
}
