//! MIN/MAX-aggregate provenance through the whole pipeline: the
//! abstraction algorithms are generic over the coefficient ring, so the
//! same Algorithm 1 that compresses SUM provenance compresses `(min, ×)`
//! provenance — with the analogous semantics (grouped variables force a
//! uniform factor; merged monomials keep the min).

use provabs::algo::greedy::greedy_vvs;
use provabs::algo::optimal::optimal_vvs;
use provabs::datagen::fixture::figure_1_catalog;
use provabs::engine::expr::Expr;
use provabs::engine::param::VarRule;
use provabs::engine::query::Pipeline;
use provabs::provenance::coeff::{Coefficient, MinF64};
use provabs::provenance::guard::Guard;
use provabs::provenance::working::WorkingSet;
use provabs::provenance::{Valuation, VarTable};
use provabs::trees::forest::Forest;
use provabs::trees::generate::months_tree;

/// MIN(Dur·Price) per zip with month parameterization, from Figure 1.
fn min_provenance(vars: &mut VarTable) -> provabs::provenance::PolySet<MinF64> {
    let catalog = figure_1_catalog();
    Pipeline::scan(&catalog, "Cust")
        .expect("scan")
        .join(&catalog, "Calls", &[("ID", "CID")])
        .expect("join")
        .join(&catalog, "Plans", &[("Plan", "Plan")])
        .expect("join")
        .filter(&Expr::col("Mo").eq(Expr::col("PMo")))
        .expect("filter")
        .aggregate_min(
            &["Zip"],
            &Expr::col("Dur").mul(Expr::col("Price")),
            &[
                VarRule::mapped(
                    "Plan",
                    [
                        ("A", "p1"),
                        ("F1", "f1"),
                        ("Y1", "y1"),
                        ("V", "v"),
                        ("SB1", "b1"),
                        ("SB2", "b2"),
                        ("E", "e"),
                    ],
                ),
                VarRule::per_value("Mo", "m"),
            ],
            vars,
        )
        .expect("aggregate")
        .polys
}

#[test]
fn optimal_compresses_min_provenance() {
    let mut vars = VarTable::new();
    let polys = min_provenance(&mut vars);
    assert_eq!(polys.size_m(), 14); // same structure as the SUM provenance
    let forest = Forest::single(months_tree(&mut vars));
    // Group m1, m3 into q1: each (plan, quarter) keeps the min of its
    // months.
    let source = WorkingSet::from_polyset(&polys);
    let (abs, _) = optimal_vvs(&source, &forest, 7, &Guard::unlimited()).expect("attainable");
    let result = abs.result;
    assert_eq!(result.compressed_size_m, 7);
    assert_eq!(result.vl(), 1);
    let down = result.apply(&polys);
    let q1 = vars.lookup("q1").expect("interned");
    let p1 = vars.lookup("p1").expect("interned");
    let mono = provabs::provenance::monomial::Monomial::from_vars([p1, q1]);
    let merged = down
        .iter()
        .find(|p| p.coefficient(&mono) != MinF64::zero())
        .expect("plan A's quarterly monomial exists");
    // min(220.8 (January), 240 (March)) = 220.8.
    assert!((merged.coefficient(&mono).0 - 220.8).abs() < 1e-9);
}

#[test]
fn min_provenance_scenarios_scale_the_minimum() {
    let mut vars = VarTable::new();
    let polys = min_provenance(&mut vars);
    let forest = Forest::single(months_tree(&mut vars));
    let source = WorkingSet::from_polyset(&polys);
    let (abs, _) = optimal_vvs(&source, &forest, 7, &Guard::unlimited()).expect("attainable");
    let down = abs.result.apply(&polys);
    // Scenario: the whole first quarter costs 50 % — every group minimum
    // halves (all monomials carry q1; factors are non-negative).
    let q1 = vars.lookup("q1").expect("interned");
    let base: Vec<MinF64> = down.eval(|_| MinF64(1.0));
    let val = Valuation::with_default(MinF64(1.0)).set(q1, MinF64(0.5));
    let scaled = val.eval_set(&down);
    for (b, s) in base.iter().zip(&scaled) {
        assert!((s.0 - b.0 * 0.5).abs() < 1e-9);
    }
}

#[test]
fn greedy_also_handles_min_provenance() {
    let mut vars = VarTable::new();
    let polys = min_provenance(&mut vars);
    let forest = Forest::single(months_tree(&mut vars));
    let source = WorkingSet::from_polyset(&polys);
    let (abs, _) = greedy_vvs(&source, &forest, 7, &Guard::unlimited()).expect("attainable");
    let result = abs.result;
    assert!(result.is_adequate_for(7));
    result.vvs.validate(&result.forest).expect("valid VVS");
}
