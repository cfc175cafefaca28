//! Differential suite: the fused [`Pipeline`] against the eager
//! [`ops`] composition it replaced.
//!
//! One plan description ([`Step`]s) is run both ways — `Pipeline`'s
//! builder, and one materialised table per operator through
//! `ops::{filter, hash_join, project}` followed by the seed's
//! aggregation loops (kept here, over public API only, as the oracle).
//! The two must agree **to the bit**: the result table row for row in
//! order; group keys and their order; the order variables are interned
//! in; arena ids; `f64::to_bits` of every coefficient; and, for the
//! hash-map form, the polynomials' iteration order (which the session's
//! ingest turns into arena ids and artifact bytes).
//!
//! Random cases draw small tables over tiny value domains (so joins fan
//! out, keys repeat on the build side, sums cancel, sides come up empty,
//! `Int` meets `Float` in keys) and random chains of filter / join /
//! project, with equality filters that are and are not eligible for
//! folding into the join before them. Five fixed rows cover the five
//! [`Workload`] queries at small scale.

use provabs_datagen::workload::Workload;
use provabs_datagen::{bom, telephony, tpch};
use provabs_engine::expr::Expr;
use provabs_engine::ops;
use provabs_engine::param::VarRule;
use provabs_engine::query::Pipeline;
use provabs_engine::schema::{ColumnType, Schema};
use provabs_engine::table::Table;
use provabs_engine::value::{Row, Value};
use provabs_engine::{Catalog, EngineError};
use provabs_provenance::fxhash::FxHashMap;
use provabs_provenance::intern::{accumulate, MonoArena, MonoId};
use provabs_provenance::monomial::Monomial;
use provabs_provenance::polynomial::Polynomial;
use provabs_provenance::var::{VarId, VarTable};
use provabs_testkit::{cases, Rng};

// ---------------------------------------------------------------------
// One plan, two executions
// ---------------------------------------------------------------------

/// One stage of a plan, by name — what both executions are built from.
#[derive(Clone, Debug)]
enum Step {
    Filter(Expr),
    Join {
        table: String,
        on: Vec<(String, String)>,
    },
    Project(Vec<String>),
}

fn str_pairs(on: &[(String, String)]) -> Vec<(&str, &str)> {
    on.iter().map(|(l, r)| (l.as_str(), r.as_str())).collect()
}

fn strs(names: &[String]) -> Vec<&str> {
    names.iter().map(String::as_str).collect()
}

/// The oracle: one materialised table per operator.
fn eager_step(catalog: &Catalog, input: &Table, step: &Step) -> Result<Table, EngineError> {
    match step {
        Step::Filter(pred) => ops::filter(input, pred),
        Step::Join { table, on } => {
            ops::hash_join(input, catalog.get(table)?, &str_pairs(on), table)
        }
        Step::Project(columns) => ops::project(input, &strs(columns)),
    }
}

/// The engine under test.
fn fused_step(catalog: &Catalog, plan: Pipeline, step: &Step) -> Result<Pipeline, EngineError> {
    match step {
        Step::Filter(pred) => plan.filter(pred),
        Step::Join { table, on } => plan.join(catalog, table, &str_pairs(on)),
        Step::Project(columns) => plan.project(&strs(columns)),
    }
}

fn run_both(catalog: &Catalog, source: &str, steps: &[Step]) -> (Table, Pipeline) {
    let mut eager = catalog.get(source).expect("registered").clone();
    let mut fused = Pipeline::scan(catalog, source).expect("registered");
    for step in steps {
        eager = eager_step(catalog, &eager, step).expect("the oracle runs the plan");
        fused = fused_step(catalog, fused, step).expect("the pipeline takes the plan");
    }
    (eager, fused)
}

// ---------------------------------------------------------------------
// The oracle's aggregation: the seed's loops, over a materialised table
// ---------------------------------------------------------------------

/// The variable a rule names for `row` — two `format!`s and an intern per
/// row, no cache.
fn oracle_var(
    rule: &VarRule,
    schema: &Schema,
    row: &Row,
    vars: &mut VarTable,
) -> Result<VarId, EngineError> {
    let name = match rule {
        VarRule::PerValue { column, prefix } => {
            format!("{prefix}{}", row[schema.index_of(column)?])
        }
        VarRule::PerMod {
            column,
            modulus,
            prefix,
        } => {
            let k = row[schema.index_of(column)?].as_i64()?;
            format!("{prefix}{}", k.rem_euclid(*modulus))
        }
        VarRule::Mapped { column, map } => {
            let key = row[schema.index_of(column)?].to_string();
            map.get(&key)
                .ok_or(EngineError::TypeMismatch {
                    expected: "a mapped parameterization value",
                    got: key,
                })?
                .clone()
        }
    };
    Ok(vars.intern(&name))
}

/// What one aggregation query asks for.
struct Query {
    group_cols: Vec<String>,
    measure: Expr,
    rules: Vec<VarRule>,
}

/// Per row: group key (cloned), measure, monomial (built and boxed) — the
/// shared front half of the seed's two aggregation loops.
fn oracle_rows(
    table: &Table,
    query: &Query,
    vars: &mut VarTable,
    mut term: impl FnMut(Row, f64, Monomial),
) -> Result<(), EngineError> {
    let schema = table.schema();
    let (_, group_idx) = schema.project(&strs(&query.group_cols))?;
    let measure = query.measure.resolve(schema)?;
    for rule in &query.rules {
        rule.resolve(schema)?;
    }
    for row in rows(table) {
        let key: Row = group_idx.iter().map(|&i| row[i].clone()).collect();
        let coeff = measure.eval(&row)?.as_f64()?;
        let mono = Monomial::from_vars(
            query
                .rules
                .iter()
                .map(|rule| oracle_var(rule, schema, &row, vars))
                .collect::<Result<Vec<_>, _>>()?,
        );
        term(key, coeff, mono);
    }
    Ok(())
}

fn slot_of(index: &mut FxHashMap<Row, usize>, keys: &mut Vec<Row>, key: Row) -> usize {
    match index.get(&key) {
        Some(&i) => i,
        None => {
            index.insert(key.clone(), keys.len());
            keys.push(key);
            keys.len() - 1
        }
    }
}

/// The seed's `aggregate_with`.
fn oracle_sum(
    table: &Table,
    query: &Query,
    vars: &mut VarTable,
) -> Result<(Vec<Row>, Vec<Polynomial<f64>>), EngineError> {
    let mut keys = Vec::new();
    let mut polys: Vec<Polynomial<f64>> = Vec::new();
    let mut index = FxHashMap::default();
    oracle_rows(table, query, vars, |key, coeff, mono| {
        let slot = slot_of(&mut index, &mut keys, key);
        if slot == polys.len() {
            polys.push(Polynomial::zero());
        }
        polys[slot].add_term(mono, coeff);
    })?;
    Ok((keys, polys))
}

type Terms = Vec<FxHashMap<MonoId, f64>>;

/// The seed's `aggregate_with_interned`.
fn oracle_sum_interned(
    table: &Table,
    query: &Query,
    vars: &mut VarTable,
) -> Result<(Vec<Row>, MonoArena, Terms), EngineError> {
    let mut arena = MonoArena::new();
    let mut keys = Vec::new();
    let mut terms: Terms = Vec::new();
    let mut index = FxHashMap::default();
    oracle_rows(table, query, vars, |key, coeff, mono| {
        let id = arena.intern(&mono);
        let slot = slot_of(&mut index, &mut keys, key);
        if slot == terms.len() {
            terms.push(FxHashMap::default());
        }
        accumulate(&mut terms[slot], id, coeff);
    })?;
    Ok((keys, arena, terms))
}

// ---------------------------------------------------------------------
// "Equal" means to the bit
// ---------------------------------------------------------------------

/// Representation equality: `Value`'s own `==` calls `Int(1)` and
/// `Float(1.0)` equal; a row that changed representation is a difference.
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => false,
    }
}

fn rows(table: &Table) -> Vec<Row> {
    (0..table.len()).map(|i| table.row(i)).collect()
}

fn same_rows(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(v, w)| same_value(v, w)))
}

fn assert_same_table(fused: &Table, eager: &Table, plan: &str) {
    assert!(
        fused.schema().iter().eq(eager.schema().iter()),
        "schema\n{plan}\n{:?}\n{:?}",
        fused.schema(),
        eager.schema()
    );
    let (fused, eager) = (rows(fused), rows(eager));
    assert!(
        same_rows(&fused, &eager),
        "rows\n{plan}\nfused {fused:?}\neager {eager:?}"
    );
}

fn names(vars: &VarTable) -> Vec<String> {
    vars.iter().map(|(_, name)| name.to_string()).collect()
}

/// A polynomial's terms in *iteration* order, coefficients as bits.
fn iteration(p: &Polynomial<f64>) -> Vec<(Monomial, u64)> {
    p.iter().map(|(m, c)| (m.clone(), c.to_bits())).collect()
}

/// An id-space polynomial's terms by id, coefficients as bits.
fn sorted_bits(terms: impl Iterator<Item = (MonoId, f64)>) -> Vec<(MonoId, u64)> {
    let mut v: Vec<(MonoId, u64)> = terms.map(|(id, c)| (id, c.to_bits())).collect();
    v.sort_unstable();
    v
}

/// Runs `query` both ways — hash-map form first, interned form second,
/// over one variable table, as `Workload::generate` does — and demands
/// bit-identical output, or the identical error.
fn assert_same_aggregates(fused: &Pipeline, eager: &Table, query: &Query) {
    let plan = fused.explain();
    let cols = strs(&query.group_cols);
    let mut fused_vars = VarTable::new();
    let mut eager_vars = VarTable::new();

    let got = fused.aggregate_sum(&cols, &query.measure, &query.rules, &mut fused_vars);
    let want = oracle_sum(eager, query, &mut eager_vars);
    match (got, want) {
        (Ok(got), Ok((keys, polys))) => {
            assert!(same_rows(&got.keys, &keys), "group keys\n{plan}");
            assert_eq!(got.polys.len(), polys.len(), "{plan}");
            for (g, (a, b)) in got.polys.iter().zip(&polys).enumerate() {
                assert_eq!(iteration(a), iteration(b), "group {g}\n{plan}");
            }
        }
        (Err(got), Err(want)) => assert_eq!(got, want, "{plan}"),
        (got, want) => panic!(
            "one side failed\n{plan}\nfused ok: {}, eager ok: {}",
            got.is_ok(),
            want.is_ok()
        ),
    }
    assert_eq!(names(&fused_vars), names(&eager_vars), "{plan}");

    let got = fused.aggregate_sum_interned(&cols, &query.measure, &query.rules, &mut fused_vars);
    let want = oracle_sum_interned(eager, query, &mut eager_vars);
    match (got, want) {
        (Ok(got), Ok((keys, arena, terms))) => {
            assert!(same_rows(&got.keys, &keys), "group keys\n{plan}");
            let working = &got.working;
            assert_eq!(working.arena().len(), arena.len(), "arena size\n{plan}");
            for id in 0..arena.len() as MonoId {
                assert_eq!(working.mono(id), arena.mono(id), "arena id {id}\n{plan}");
            }
            assert_eq!(working.num_polys(), terms.len(), "{plan}");
            for (g, want) in terms.iter().enumerate() {
                assert_eq!(
                    sorted_bits(working.poly_terms(g).map(|(id, &c)| (id, c))),
                    sorted_bits(want.iter().map(|(&id, &c)| (id, c))),
                    "group {g}\n{plan}"
                );
            }
        }
        (Err(got), Err(want)) => assert_eq!(got, want, "{plan}"),
        (got, want) => panic!(
            "one side failed\n{plan}\nfused ok: {}, eager ok: {}",
            got.is_ok(),
            want.is_ok()
        ),
    }
    assert_eq!(names(&fused_vars), names(&eager_vars), "{plan}");
}

// ---------------------------------------------------------------------
// Random cases
// ---------------------------------------------------------------------

const TABLES: [&str; 3] = ["T0", "T1", "T2"];
const STRINGS: [&str; 3] = ["a", "b", "c"];

/// A value of a column of type `ty` from a domain of four: ints in −1..3
/// (sums cancel), halves and wholes for floats — a `Float`
/// column also holds the odd `Int` (tables widen them), which is how an
/// `Int` meets a `Float` in a join key or a group key.
fn random_value(rng: &mut Rng, ty: ColumnType) -> Value {
    match ty {
        ColumnType::Int => Value::Int(rng.below(4) as i64 - 1),
        ColumnType::Float if rng.chance(3) => Value::Int(rng.below(2) as i64),
        ColumnType::Float => Value::float(rng.below(4) as f64 / 2.0),
        ColumnType::Str => Value::str(rng.pick(&STRINGS)),
    }
}

/// Three tables of 0–8 rows and 2–4 typed columns. Every table has an
/// `Int` column called `k`, so every join renames a collision.
fn random_catalog(rng: &mut Rng) -> Catalog {
    let mut catalog = Catalog::new();
    for name in TABLES {
        let mut columns = vec![("k".to_string(), ColumnType::Int)];
        for c in 0..1 + rng.below(3) {
            let ty = rng.pick(&[ColumnType::Int, ColumnType::Float, ColumnType::Str]);
            columns.push((format!("{}{c}", name.to_lowercase()), ty));
        }
        let schema = Schema::new(columns).expect("distinct names");
        let mut table = Table::new(schema.clone());
        // One table in eight is empty.
        let rows = if rng.chance(8) { 0 } else { 1 + rng.below(8) };
        for _ in 0..rows {
            let row: Row = (0..schema.arity())
                .map(|i| random_value(rng, schema.column_type(i)))
                .collect();
            table.push(row).expect("values drawn per column type");
        }
        catalog.register(name, table).expect("fresh name");
    }
    catalog
}

fn columns_of(schema: &Schema, wanted: impl Fn(ColumnType) -> bool) -> Vec<String> {
    schema
        .iter()
        .filter(|&(_, ty)| wanted(ty))
        .map(|(name, _)| name.to_string())
        .collect()
}

fn is_str(ty: ColumnType) -> bool {
    ty == ColumnType::Str
}

fn is_num(ty: ColumnType) -> bool {
    ty != ColumnType::Str
}

fn compare(rng: &mut Rng, l: Expr, r: Expr) -> Expr {
    match rng.below(4) {
        0 => l.lt(r),
        1 => l.ge(r),
        _ => l.eq(r),
    }
}

/// A well-typed comparison over `schema`: column against column or
/// literal of its kind, or arithmetic against a number.
fn random_comparison(rng: &mut Rng, schema: &Schema) -> Expr {
    let strings = columns_of(schema, is_str);
    let numbers = columns_of(schema, is_num);
    if numbers.is_empty() || (!strings.is_empty() && rng.chance(3)) {
        let l = Expr::col(rng.pick(&strings));
        let r = if rng.chance(2) {
            Expr::col(rng.pick(&strings))
        } else {
            Expr::lit(rng.pick(&STRINGS))
        };
        return compare(rng, l, r);
    }
    let l = Expr::col(rng.pick(&numbers));
    let r = match rng.below(4) {
        0 => Expr::lit(rng.below(3) as i64),
        1 => Expr::lit(rng.below(4) as f64 / 2.0),
        _ => Expr::col(rng.pick(&numbers)),
    };
    if rng.chance(5) {
        let l = l.mul(Expr::col(rng.pick(&numbers)));
        return compare(rng, l, r);
    }
    compare(rng, l, r)
}

fn random_predicate(rng: &mut Rng, schema: &Schema) -> Expr {
    let a = random_comparison(rng, schema);
    match rng.below(6) {
        0 => a.and(random_comparison(rng, schema)),
        1 => a.or(Expr::Not(Box::new(random_comparison(rng, schema)))),
        2 => Expr::Not(Box::new(a)),
        _ => a,
    }
}

/// A join of `schema` with a random table on one or two key pairs — of
/// one kind mostly, now and then a string against a number (which key
/// matching answers with "no match", not an error) — and, half the time,
/// an equality filter across it directly afterwards: the shape that is
/// folded into the key list.
fn random_join(rng: &mut Rng, catalog: &Catalog, schema: &Schema, steps: &mut Vec<Step>) {
    let table = rng.pick(&TABLES);
    let right = catalog.get(table).expect("registered").schema().clone();
    let pair = |rng: &mut Rng| {
        let kind: fn(ColumnType) -> bool = if rng.chance(3) { is_str } else { is_num };
        let other: fn(ColumnType) -> bool = if rng.chance(12) { is_str } else { kind };
        let (l, r) = (columns_of(schema, kind), columns_of(&right, other));
        if l.is_empty() || r.is_empty() {
            ("k".to_string(), "k".to_string())
        } else {
            (rng.pick(&l), rng.pick(&r))
        }
    };
    let mut on = vec![pair(rng)];
    if rng.chance(4) {
        on.push(pair(rng));
    }
    steps.push(Step::Join {
        table: table.to_string(),
        on,
    });
    if rng.chance(2) {
        let Ok(joined) = schema.join(&right, table) else {
            return;
        };
        let kind: fn(ColumnType) -> bool = if rng.chance(3) { is_str } else { is_num };
        let left = columns_of(schema, kind);
        let new: Vec<String> = columns_of(&joined, kind)
            .into_iter()
            .skip(left.len())
            .collect();
        if left.is_empty() || new.is_empty() {
            return;
        }
        let (l, r) = (Expr::col(rng.pick(&left)), Expr::col(rng.pick(&new)));
        steps.push(Step::Filter(if rng.chance(2) { l.eq(r) } else { r.eq(l) }));
    }
}

fn random_projection(rng: &mut Rng, schema: &Schema) -> Step {
    let all = columns_of(schema, |_| true);
    let mut kept: Vec<String> = all.iter().filter(|_| rng.chance(2)).cloned().collect();
    if kept.is_empty() {
        kept.push(rng.pick(&all));
    }
    if rng.chance(2) {
        kept.reverse();
    }
    Step::Project(kept)
}

fn random_query(rng: &mut Rng, schema: &Schema) -> Query {
    let all = columns_of(schema, |_| true);
    let numbers = columns_of(schema, is_num);
    let ints = columns_of(schema, |ty| ty == ColumnType::Int);
    let mut group_cols: Vec<String> = Vec::new();
    for _ in 0..rng.below(3) {
        let c = rng.pick(&all);
        if !group_cols.contains(&c) {
            group_cols.push(c);
        }
    }
    // From the numbers, or from every column when a projection left none.
    let numeric = if numbers.is_empty() { &all } else { &numbers };
    let number = |rng: &mut Rng| Expr::col(rng.pick(numeric));
    let measure = match rng.below(8) {
        0 => Expr::lit(1i64),
        1 => number(rng).mul(number(rng)),
        2 => number(rng).sub(Expr::lit(0.5)),
        // A string measure: both sides must raise alike on the first row.
        3 => Expr::col(rng.pick(&all)),
        _ => number(rng),
    };
    let mut rules = Vec::new();
    for _ in 0..rng.below(4) {
        rules.push(match rng.below(6) {
            // One prefix for every rule: different columns name the same
            // variables, and a monomial gets exponents.
            0 | 1 => VarRule::per_value(rng.pick(&all), "v"),
            2 => VarRule::per_value(rng.pick(&all), "w"),
            3 => VarRule::per_mod(rng.pick(if ints.is_empty() { &all } else { &ints }), 2, "v"),
            // Over a Float column this raises on the first real float.
            4 => VarRule::per_mod(rng.pick(numeric), 3, "r"),
            // `c` is unmapped, and so is every number.
            _ => VarRule::mapped(rng.pick(&all), [("a", "v0"), ("b", "m"), ("1", "m")]),
        });
    }
    Query {
        group_cols,
        measure,
        rules,
    }
}

/// Draws a plan stage by stage against the schema the oracle has reached,
/// running both executions as it goes. A stage the oracle refuses (a
/// join whose renamed columns collide, say) must be refused alike by the
/// pipeline, and is then left out.
fn random_case(rng: &mut Rng) -> (Table, Pipeline, Query) {
    let catalog = random_catalog(rng);
    let source = rng.pick(&TABLES);
    let mut eager = catalog.get(source).expect("registered").clone();
    let mut fused = Pipeline::scan(&catalog, source).expect("registered");
    for _ in 0..rng.below(5) {
        let mut steps = Vec::new();
        match rng.below(5) {
            0 => steps.push(Step::Filter(random_predicate(rng, eager.schema()))),
            1 => steps.push(random_projection(rng, eager.schema())),
            _ => random_join(rng, &catalog, eager.schema(), &mut steps),
        }
        for step in &steps {
            match (
                eager_step(&catalog, &eager, step),
                fused_step(&catalog, fused.clone(), step),
            ) {
                (Ok(e), Ok(f)) => (eager, fused) = (e, f),
                (Err(e), Err(f)) => {
                    assert_eq!(e, f, "{step:?} after\n{}", fused.explain());
                    break;
                }
                (e, f) => panic!(
                    "{step:?} after\n{}\neager ok: {}, fused ok: {}",
                    fused.explain(),
                    e.is_ok(),
                    f.is_ok()
                ),
            }
        }
    }
    let query = random_query(rng, eager.schema());
    (eager, fused, query)
}

#[test]
fn fused_plans_equal_the_eager_composition_to_the_bit() {
    cases(512, 401, |rng, _| {
        let (eager, fused, query) = random_case(rng);
        assert_same_table(fused.table(), &eager, &fused.explain());
        assert_same_aggregates(&fused, &eager, &query);
        // A second drive off the same pipeline (cached join indexes, kept
        // table) says the same.
        assert_same_table(fused.table(), &eager, &fused.explain());
        assert_same_aggregates(&fused, &eager, &query);
    });
}

/// The generator reaches what it is there for: plans with a folded
/// equality, plans with a residual one, empty results, and aggregations
/// that raise.
#[test]
fn the_random_cases_cover_the_interesting_shapes() {
    let (mut pushed, mut residual, mut empty, mut raised, mut fan_out) = (0, 0, 0, 0, 0);
    cases(400, 402, |rng, _| {
        let (eager, fused, query) = random_case(rng);
        let plan = fused.explain();
        pushed += usize::from(plan.contains("[pushed down]"));
        residual += usize::from(plan.contains("\nfilter "));
        empty += usize::from(eager.is_empty());
        fan_out += usize::from(eager.len() > 6);
        raised += usize::from(oracle_sum(&eager, &query, &mut VarTable::new()).is_err());
    });
    for (what, n) in [
        ("pushed-down joins", pushed),
        ("residual filters", residual),
        ("empty results", empty),
        ("raising aggregations", raised),
        ("fan-out joins", fan_out),
    ] {
        assert!(n >= 20, "only {n} of 400 cases with {what}");
    }
}

// ---------------------------------------------------------------------
// The five workload queries
// ---------------------------------------------------------------------

fn join(table: &str, l: &str, r: &str) -> Step {
    Step::Join {
        table: table.to_string(),
        on: vec![(l.to_string(), r.to_string())],
    }
}

type Spec = (Pipeline, Vec<&'static str>, Expr, Vec<VarRule>);

/// The spec's own pipeline against the oracle's run of the same plan,
/// written out here stage by stage.
fn assert_workload(catalog: &Catalog, spec: Spec, source: &str, steps: &[Step]) {
    let (fused, cols, measure, rules) = spec;
    let (eager, rebuilt) = run_both(catalog, source, steps);
    assert_eq!(
        fused.explain(),
        rebuilt.explain(),
        "the test's copy of the plan is stale"
    );
    assert!(!eager.is_empty(), "the row checks something");
    let query = Query {
        group_cols: cols.iter().map(|c| c.to_string()).collect(),
        measure,
        rules,
    };
    assert_same_aggregates(&fused, &eager, &query);
    assert_same_table(fused.table(), &eager, &fused.explain());
}

#[test]
fn every_workload_query_equals_its_eager_composition() {
    let tpch_data = tpch::generate(tpch::TpchConfig {
        scale: 0.3,
        param_modulus: 16,
        seed: 11,
    });
    let customer_orders_lineitem = || {
        vec![
            join("orders", "c_custkey", "o_custkey"),
            join("lineitem", "o_orderkey", "l_orderkey"),
        ]
    };
    for workload in Workload::ALL {
        match workload {
            Workload::TpchQ1 => {
                assert_workload(
                    &tpch_data.catalog,
                    tpch::q1_spec(&tpch_data),
                    "lineitem",
                    &[],
                );
            }
            Workload::TpchQ5 => {
                let mut steps = customer_orders_lineitem();
                steps.push(join("supplier", "l_suppkey", "s_suppkey"));
                steps.push(Step::Filter(
                    Expr::col("c_nationkey").eq(Expr::col("s_nationkey")),
                ));
                steps.push(join("nation", "s_nationkey", "n_nationkey"));
                assert_workload(
                    &tpch_data.catalog,
                    tpch::q5_spec(&tpch_data),
                    "customer",
                    &steps,
                );
            }
            Workload::TpchQ10 => {
                let mut steps = customer_orders_lineitem();
                steps.push(Step::Filter(Expr::col("l_returnflag").eq(Expr::lit("R"))));
                assert_workload(
                    &tpch_data.catalog,
                    tpch::q10_spec(&tpch_data),
                    "customer",
                    &steps,
                );
            }
            Workload::Telephony => {
                let data = telephony::generate(telephony::TelephonyConfig {
                    customers: 300,
                    zips: 12,
                    plans: 16,
                    months: 12,
                    seed: 11,
                });
                let steps = [
                    join("Calls", "ID", "CID"),
                    join("Plans", "PlanId", "PlanId"),
                    Step::Filter(Expr::col("Mo").eq(Expr::col("PMo"))),
                ];
                assert_workload(
                    &data.catalog,
                    telephony::revenue_spec(&data),
                    "Cust",
                    &steps,
                );
            }
            Workload::SupplyChain => {
                let data = bom::generate(bom::BomConfig {
                    products: 40,
                    families: 6,
                    assemblies: 20,
                    components: 30,
                    param_modulus: 16,
                    seed: 11,
                });
                let steps = [
                    join("bom", "pid", "bpid"),
                    join("usage", "aid", "uaid"),
                    join("component", "sid", "csid"),
                ];
                assert_workload(
                    &data.catalog,
                    bom::cost_rollup_spec(&data),
                    "product",
                    &steps,
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Keys at the int/float boundary, type fidelity, NaN measures
// ---------------------------------------------------------------------

const TWO_POW_53: i64 = 1 << 53;

fn one_column_table(name: &str, ty: ColumnType, values: &[Value]) -> Table {
    let mut table = Table::new(Schema::of(&[("c", ColumnType::Int), (name, ty)]));
    for v in values {
        table
            .push(vec![Value::Int(0), v.clone()])
            .expect("admitted");
    }
    table
}

/// `I.k` holds ints, `F.f` a float column holding floats and ints, around
/// 2^53, where an int and its rounded float are neighbours, not equals.
fn boundary_catalog() -> Catalog {
    let big = TWO_POW_53;
    let ints = [big, big + 1, -big - 1, 3].map(Value::Int);
    let floats = [
        Value::float(big as f64),
        Value::Int(big + 1),
        Value::float(-big as f64),
        Value::float(3.0),
        Value::Int(3),
    ];
    let mut catalog = Catalog::new();
    let i = one_column_table("k", ColumnType::Int, &ints);
    catalog.register("I", i).expect("fresh");
    let f = one_column_table("f", ColumnType::Float, &floats);
    catalog.register("F", f).expect("fresh");
    catalog
}

#[test]
fn an_int_key_meets_a_float_key_exactly_at_2_pow_53() {
    let catalog = boundary_catalog();
    let plans = [
        // The keys themselves.
        vec![join("F", "k", "f")],
        // An equality across the join, folded into its key list — where
        // the eager side compares with `=` rather than matching keys.
        vec![
            join("F", "c", "c"),
            Step::Filter(Expr::col("k").eq(Expr::col("f"))),
        ],
    ];
    for steps in &plans {
        let (eager, fused) = run_both(&catalog, "I", steps);
        assert_same_table(fused.table(), &eager, &fused.explain());
        // 2^53 = 2^53.0, 2^53 + 1 = Int(2^53 + 1), 3 = 3.0 = Int(3);
        // −2^53 − 1 meets nothing.
        let pairs: Vec<(Value, Value)> = rows(&eager)
            .into_iter()
            .map(|row| (row[1].clone(), row[3].clone()))
            .collect();
        assert_eq!(pairs.len(), 4, "{}\n{pairs:?}", fused.explain());
        assert!(pairs.iter().all(|(k, f)| k == f));
        for group_by in ["k", "f"] {
            let query = Query {
                group_cols: vec![group_by.to_string()],
                measure: Expr::lit(1i64),
                rules: vec![VarRule::per_value("f", "v")],
            };
            assert_same_aggregates(&fused, &eager, &query);
        }
    }
    let (_, folded) = run_both(&catalog, "I", &plans[1]);
    assert!(folded.explain().ends_with("[pushed down]"));
}

#[test]
fn a_float_column_reads_back_every_cell_as_pushed() {
    let pushed = [
        Value::Int(3),
        Value::float(3.0),
        Value::Int(TWO_POW_53 + 1),
        Value::float(TWO_POW_53 as f64),
        Value::float(-0.0),
        Value::float(f64::INFINITY),
    ];
    let table = one_column_table("x", ColumnType::Float, &pushed);
    for (i, want) in pushed.iter().enumerate() {
        assert!(
            same_value(&table.row(i)[1], want),
            "row {i}: {:?}",
            table.row(i)
        );
        assert!(same_value(&table.get(i, "x").expect("column"), want));
    }
}

#[test]
fn per_value_names_follow_each_cell_as_pushed() {
    // Each cell is named after its own rendering: `Int(2^53 + 1)` keeps
    // its last digit in a `Float` column, and `-0.0` stays `-0`. Rust
    // renders `Float(3.0)` as `3`, so it names the variable `Int(3)` does.
    let pushed = [
        Value::Int(3),
        Value::float(3.0),
        Value::Int(TWO_POW_53 + 1),
        Value::float(TWO_POW_53 as f64),
        Value::Int(0),
        Value::float(-0.0),
    ];
    let table = one_column_table("x", ColumnType::Float, &pushed);
    let query = Query {
        group_cols: vec![],
        measure: Expr::col("x"),
        rules: vec![VarRule::per_value("x", "v")],
    };
    assert_same_aggregates(&Pipeline::from_table(table.clone()), &table, &query);
    let mut vars = VarTable::new();
    Pipeline::from_table(table)
        .aggregate_sum(&[], &query.measure, &query.rules, &mut vars)
        .expect("numeric");
    assert_eq!(
        names(&vars),
        ["v3", "v9007199254740993", "v9007199254740992", "v0", "v-0"]
    );
}

/// FNV-1a over every table's rows, cell by cell: a variant tag, then the
/// integer, the float's bits or the string's bytes.
fn catalog_digest(catalog: &Catalog) -> u64 {
    fn fnv(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    let mut names: Vec<&str> = catalog.names().collect();
    names.sort_unstable();
    let mut h = 0xcbf2_9ce4_8422_2325;
    for name in names {
        fnv(&mut h, name.as_bytes());
        for row in rows(catalog.get(name).expect("listed")) {
            for v in row {
                match v {
                    Value::Int(i) => {
                        fnv(&mut h, &[0]);
                        fnv(&mut h, &i.to_le_bytes());
                    }
                    Value::Float(f) => {
                        fnv(&mut h, &[1]);
                        fnv(&mut h, &f.to_bits().to_le_bytes());
                    }
                    Value::Str(s) => {
                        fnv(&mut h, &[2]);
                        fnv(&mut h, s.as_bytes());
                        fnv(&mut h, &[0xff]);
                    }
                }
            }
        }
    }
    h
}

/// `Table::row` gives back every row the generators pushed, variant and
/// bits included. The digests were taken over the row-major tables that
/// columns replaced, which kept each pushed `Vec<Value>` as it was.
#[test]
fn every_generated_row_reads_back_as_pushed() {
    let tpch_data = tpch::generate(tpch::TpchConfig {
        scale: 0.3,
        param_modulus: 16,
        seed: 11,
    });
    let phone = telephony::generate(telephony::TelephonyConfig {
        customers: 300,
        zips: 12,
        plans: 16,
        months: 12,
        seed: 11,
    });
    assert_eq!(catalog_digest(&tpch_data.catalog), 0x9efa_b4cb_8f8e_9d52);
    assert_eq!(catalog_digest(&phone.catalog), 0x7114_1c7d_4c2a_98a6);
}

#[test]
fn a_nan_measure_is_a_typed_error_not_a_panic() {
    let x = [1.5, f64::INFINITY, -2.0].map(Value::float);
    let table = one_column_table("x", ColumnType::Float, &x);
    let pipeline = Pipeline::from_table(table.clone());
    for measure in [
        Expr::col("x").sub(Expr::col("x")),
        Expr::lit(0i64).mul(Expr::col("x")),
    ] {
        let mut vars = VarTable::new();
        assert_eq!(
            pipeline
                .aggregate_sum(&["c"], &measure, &[], &mut vars)
                .err(),
            Some(EngineError::NotANumber),
            "{measure}"
        );
        assert_eq!(
            pipeline
                .aggregate_sum_interned(&["c"], &measure, &[], &mut vars)
                .err(),
            Some(EngineError::NotANumber)
        );
        let query = Query {
            group_cols: vec!["c".into()],
            measure,
            rules: vec![],
        };
        assert_same_aggregates(&pipeline, &table, &query);
    }
    // In a predicate NaN is unordered: false under `>`, true under `<>`.
    let nan = || Expr::col("x").sub(Expr::col("x"));
    for (pred, kept) in [
        (nan().gt(Expr::lit(0i64)), 0),
        (Expr::Not(Box::new(nan().eq(Expr::lit(0i64)))), 1),
    ] {
        let (eager, fused) = run_both(&catalog_of(table.clone()), "T", &[Step::Filter(pred)]);
        assert_same_table(fused.table(), &eager, &fused.explain());
        assert_eq!(eager.len(), kept);
    }
}

fn catalog_of(table: Table) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.register("T", table).expect("fresh");
    catalog
}
