//! Scalar expressions over rows.
//!
//! Used for filter predicates (`WHERE`), join residuals and the numeric
//! part of aggregate measures. Expressions are built against column
//! *names* and resolved against a schema once, so evaluation is index
//! chasing only — column and literal operands are read in place, never
//! cloned.
//!
//! A predicate is also *type-checked* against the schema when it is
//! resolved ([`Expr::predicate`]): comparing a string with a number,
//! arithmetic on a string and a non-boolean under `AND`/`OR`/`NOT` are
//! refused there, so evaluating a [`Predicate`] over rows of that schema
//! cannot fail.

use crate::error::EngineError;
use crate::schema::{ColumnType, Schema};
use crate::value::{Cell, Cells, Value};
use std::fmt;

/// An unresolved scalar expression tree.
#[derive(Clone, Debug)]
pub enum Expr {
    /// Column reference by name.
    Col(String),
    /// Literal value.
    Lit(Value),
    /// Arithmetic: `lhs op rhs` (numeric).
    Arith(Box<Expr>, ArithOp, Box<Expr>),
    /// Comparison: `lhs op rhs`.
    Cmp(Box<Expr>, CmpOp, Box<Expr>),
    /// Logical conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
}

/// Arithmetic operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
}

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less-than (numeric or lexicographic).
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
}

// The builder methods `add`/`mul`/`sub` intentionally mirror SQL-expression
// chaining (`col("a").mul(col("b"))`), not the std operator traits.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// Column reference.
    pub fn col(name: impl Into<String>) -> Self {
        Expr::Col(name.into())
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Self {
        Expr::Lit(v.into())
    }

    /// `self * other`.
    pub fn mul(self, other: Expr) -> Self {
        Expr::Arith(Box::new(self), ArithOp::Mul, Box::new(other))
    }

    /// `self + other`.
    pub fn add(self, other: Expr) -> Self {
        Expr::Arith(Box::new(self), ArithOp::Add, Box::new(other))
    }

    /// `self - other`.
    pub fn sub(self, other: Expr) -> Self {
        Expr::Arith(Box::new(self), ArithOp::Sub, Box::new(other))
    }

    /// `self == other`.
    pub fn eq(self, other: Expr) -> Self {
        Expr::Cmp(Box::new(self), CmpOp::Eq, Box::new(other))
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Self {
        Expr::Cmp(Box::new(self), CmpOp::Lt, Box::new(other))
    }

    /// `self <= other`.
    pub fn le(self, other: Expr) -> Self {
        Expr::Cmp(Box::new(self), CmpOp::Le, Box::new(other))
    }

    /// `self > other`.
    pub fn gt(self, other: Expr) -> Self {
        Expr::Cmp(Box::new(self), CmpOp::Gt, Box::new(other))
    }

    /// `self >= other`.
    pub fn ge(self, other: Expr) -> Self {
        Expr::Cmp(Box::new(self), CmpOp::Ge, Box::new(other))
    }

    /// `self && other`.
    pub fn and(self, other: Expr) -> Self {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// `self || other`.
    pub fn or(self, other: Expr) -> Self {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// Resolves `self` as a predicate over `schema`, refusing an
    /// ill-typed one with [`EngineError::TypeMismatch`] whether or not
    /// any row would ever reach the offending operand: a comparison must
    /// have two strings or two numbers, arithmetic needs numbers, and
    /// `AND`/`OR`/`NOT` — and the predicate as a whole — need booleans
    /// (comparisons, or integers read as "non-zero").
    pub fn predicate(&self, schema: &Schema) -> Result<Predicate, EngineError> {
        let resolved = self.resolve(schema)?;
        self.expect_boolean(schema)?;
        Ok(Predicate(resolved))
    }

    /// The static type of the expression's value. Comparisons and the
    /// logical connectives yield an integer (0 or 1), arithmetic a float.
    fn check(&self, schema: &Schema) -> Result<ColumnType, EngineError> {
        Ok(match self {
            Expr::Col(name) => schema.column_type(schema.index_of(name)?),
            Expr::Lit(Value::Int(_)) => ColumnType::Int,
            Expr::Lit(Value::Float(_)) => ColumnType::Float,
            Expr::Lit(Value::Str(_)) => ColumnType::Str,
            Expr::Arith(l, _, r) => {
                for side in [l, r] {
                    if side.check(schema)? == ColumnType::Str {
                        return Err(EngineError::TypeMismatch {
                            expected: "a numeric operand of arithmetic",
                            got: format!("the string {side} in {self}"),
                        });
                    }
                }
                ColumnType::Float
            }
            Expr::Cmp(l, _, r) => {
                let is_str = |side: &Expr| -> Result<bool, EngineError> {
                    Ok(side.check(schema)? == ColumnType::Str)
                };
                if is_str(l)? != is_str(r)? {
                    return Err(EngineError::TypeMismatch {
                        expected: "a comparison of two strings or of two numbers",
                        got: self.to_string(),
                    });
                }
                ColumnType::Int
            }
            Expr::And(l, r) | Expr::Or(l, r) => {
                l.expect_boolean(schema)?;
                r.expect_boolean(schema)?;
                ColumnType::Int
            }
            Expr::Not(e) => {
                e.expect_boolean(schema)?;
                ColumnType::Int
            }
        })
    }

    fn expect_boolean(&self, schema: &Schema) -> Result<(), EngineError> {
        match self.check(schema)? {
            ColumnType::Int => Ok(()),
            _ => Err(EngineError::TypeMismatch {
                expected: "a boolean (a comparison or an integer)",
                got: self.to_string(),
            }),
        }
    }

    /// Resolves column names against `schema`.
    pub fn resolve(&self, schema: &Schema) -> Result<Resolved, EngineError> {
        Ok(match self {
            Expr::Col(name) => Resolved::Col(schema.index_of(name)?),
            Expr::Lit(v) => Resolved::Lit(v.clone()),
            Expr::Arith(l, op, r) => Resolved::Arith(
                Box::new(l.resolve(schema)?),
                *op,
                Box::new(r.resolve(schema)?),
            ),
            Expr::Cmp(l, op, r) => Resolved::Cmp(
                Box::new(l.resolve(schema)?),
                *op,
                Box::new(r.resolve(schema)?),
            ),
            Expr::And(l, r) => {
                Resolved::And(Box::new(l.resolve(schema)?), Box::new(r.resolve(schema)?))
            }
            Expr::Or(l, r) => {
                Resolved::Or(Box::new(l.resolve(schema)?), Box::new(r.resolve(schema)?))
            }
            Expr::Not(e) => Resolved::Not(Box::new(e.resolve(schema)?)),
        })
    }
}

/// SQL-flavoured rendering (`l_returnflag = 'R'`, `(a AND b)`), used by
/// [`Pipeline::explain`](crate::query::Pipeline::explain) and by type
/// errors.
impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(name) => write!(f, "{name}"),
            Expr::Lit(Value::Str(s)) => write!(f, "'{s}'"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Arith(l, op, r) => {
                let op = match op {
                    ArithOp::Add => '+',
                    ArithOp::Sub => '-',
                    ArithOp::Mul => '*',
                };
                write!(f, "({l} {op} {r})")
            }
            Expr::Cmp(l, op, r) => {
                let op = match op {
                    CmpOp::Eq => "=",
                    CmpOp::Ne => "<>",
                    CmpOp::Lt => "<",
                    CmpOp::Le => "<=",
                    CmpOp::Gt => ">",
                    CmpOp::Ge => ">=",
                };
                write!(f, "{l} {op} {r}")
            }
            Expr::And(l, r) => write!(f, "({l} AND {r})"),
            Expr::Or(l, r) => write!(f, "({l} OR {r})"),
            Expr::Not(e) => write!(f, "NOT ({e})"),
        }
    }
}

/// A resolved expression: column references are row indexes.
#[derive(Clone, Debug)]
pub enum Resolved {
    /// Column by index.
    Col(usize),
    /// Literal.
    Lit(Value),
    /// Arithmetic node.
    Arith(Box<Resolved>, ArithOp, Box<Resolved>),
    /// Comparison node.
    Cmp(Box<Resolved>, CmpOp, Box<Resolved>),
    /// Conjunction.
    And(Box<Resolved>, Box<Resolved>),
    /// Disjunction.
    Or(Box<Resolved>, Box<Resolved>),
    /// Negation.
    Not(Box<Resolved>),
}

impl Resolved {
    /// Evaluates to a value; arithmetic that yields NaN is refused with
    /// [`EngineError::NotANumber`].
    pub fn eval(&self, row: &[Value]) -> Result<Value, EngineError> {
        match self.cell(row)? {
            Cell::Float(f) if f.is_nan() => Err(EngineError::NotANumber),
            cell => Ok(cell.to_value()),
        }
    }

    /// Evaluates without cloning what is already there: a column or a
    /// literal is borrowed (no `Arc<str>` refcount traffic per row), a
    /// computed number is owned. Arithmetic is IEEE: it may yield NaN,
    /// which comparisons treat as unordered, and which the value-returning
    /// evaluators ([`eval`](Self::eval), `eval_f64`) refuse.
    fn cell<'a, R: Cells + ?Sized>(&'a self, row: &'a R) -> Result<Cell<'a>, EngineError> {
        Ok(match self {
            Resolved::Col(i) => row.cell(*i),
            Resolved::Lit(v) => v.cell(),
            Resolved::Arith(l, op, r) => {
                let a = number(l.cell(row)?)?;
                let b = number(r.cell(row)?)?;
                Cell::Float(match op {
                    ArithOp::Add => a + b,
                    ArithOp::Sub => a - b,
                    ArithOp::Mul => a * b,
                })
            }
            Resolved::Cmp(l, op, r) => {
                Cell::Int(i64::from(compare(l.cell(row)?, r.cell(row)?, *op)?))
            }
            Resolved::And(l, r) => Cell::Int(i64::from(l.eval_bool(row)? && r.eval_bool(row)?)),
            Resolved::Or(l, r) => Cell::Int(i64::from(l.eval_bool(row)? || r.eval_bool(row)?)),
            Resolved::Not(e) => Cell::Int(i64::from(!e.eval_bool(row)?)),
        })
    }

    /// Evaluates as a boolean (predicates): an integer, read as
    /// "non-zero".
    pub(crate) fn eval_bool<R: Cells + ?Sized>(&self, row: &R) -> Result<bool, EngineError> {
        match self.cell(row)? {
            Cell::Int(i) => Ok(i != 0),
            other => Err(EngineError::TypeMismatch {
                expected: "integer",
                got: other.to_string(),
            }),
        }
    }

    /// Evaluates as a float (measures): ints widen, a string is a type
    /// error and NaN is [`EngineError::NotANumber`].
    pub(crate) fn eval_f64<R: Cells + ?Sized>(&self, row: &R) -> Result<f64, EngineError> {
        let x = number(self.cell(row)?)?;
        if x.is_nan() {
            return Err(EngineError::NotANumber);
        }
        Ok(x)
    }

    /// Rewrites every column index `i` to `cols[i]` — from positions in a
    /// plan's logical schema to the positions the fused loop reads cells
    /// at (see [`crate::query`]).
    pub(crate) fn remap(&mut self, cols: &[usize]) {
        match self {
            Resolved::Col(i) => *i = cols[*i],
            Resolved::Lit(_) => {}
            Resolved::Arith(l, _, r)
            | Resolved::Cmp(l, _, r)
            | Resolved::And(l, r)
            | Resolved::Or(l, r) => {
                l.remap(cols);
                r.remap(cols);
            }
            Resolved::Not(e) => e.remap(cols),
        }
    }
}

/// A cell as an operand of arithmetic: ints widen, strings are refused.
fn number(cell: Cell<'_>) -> Result<f64, EngineError> {
    match cell {
        Cell::Int(i) => Ok(i as f64),
        Cell::Float(f) => Ok(f),
        Cell::Str(_) => Err(EngineError::TypeMismatch {
            expected: "numeric",
            got: cell.to_string(),
        }),
    }
}

/// A predicate that was type-checked against the schema it was resolved
/// on ([`Expr::predicate`]): over rows of that schema it always
/// evaluates, so a plan that holds one cannot fail on it.
#[derive(Clone, Debug)]
pub struct Predicate(Resolved);

impl Predicate {
    /// Whether the row satisfies the predicate.
    pub(crate) fn holds<R: Cells + ?Sized>(&self, row: &R) -> bool {
        self.0
            .eval_bool(row)
            .expect("the predicate was type-checked against this schema")
    }

    /// See [`Resolved::remap`].
    pub(crate) fn remap(&mut self, cols: &[usize]) {
        self.0.remap(cols);
    }
}

/// Strings compare lexicographically; numbers exactly, `Int` against
/// `Float` included — not through `f64`, where neighbouring integers above
/// 2^53 round to one float — so that an equality filter agrees with
/// join-key matching (`Cell`'s `==`) and can be folded into a join. A NaN
/// is unordered: every comparison with it is false, but `<>`.
fn compare(a: Cell<'_>, b: Cell<'_>, op: CmpOp) -> Result<bool, EngineError> {
    use std::cmp::Ordering;
    let ord = match (a, b) {
        (Cell::Str(x), Cell::Str(y)) => Some(x.cmp(y)),
        (Cell::Str(_), _) => return number(a).map(|_| false),
        (_, Cell::Str(_)) => return number(b).map(|_| false),
        (x, y) => x.cmp_numbers(y),
    };
    Ok(match op {
        CmpOp::Eq => ord == Some(Ordering::Equal),
        CmpOp::Ne => ord != Some(Ordering::Equal),
        CmpOp::Lt => ord == Some(Ordering::Less),
        CmpOp::Le => matches!(ord, Some(Ordering::Less | Ordering::Equal)),
        CmpOp::Gt => ord == Some(Ordering::Greater),
        CmpOp::Ge => matches!(ord, Some(Ordering::Greater | Ordering::Equal)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;
    use crate::value::Row;

    fn schema() -> Schema {
        Schema::of(&[
            ("dur", ColumnType::Int),
            ("price", ColumnType::Float),
            ("plan", ColumnType::Str),
        ])
    }

    fn row() -> Row {
        vec![Value::Int(522), Value::float(0.4), Value::str("A")]
    }

    #[test]
    fn measure_expression() {
        // dur * price = 208.8 — the revenue term of the running example.
        let e = Expr::col("dur").mul(Expr::col("price"));
        let r = e.resolve(&schema()).expect("resolve");
        assert!((r.eval_f64(row().as_slice()).expect("eval") - 208.8).abs() < 1e-9);
    }

    #[test]
    fn predicates() {
        let e = Expr::col("plan")
            .eq(Expr::lit("A"))
            .and(Expr::col("dur").gt(Expr::lit(500i64)));
        let r = e.resolve(&schema()).expect("resolve");
        assert!(r.eval_bool(row().as_slice()).expect("eval"));
        let e2 = Expr::col("plan").eq(Expr::lit("B"));
        let r2 = e2.resolve(&schema()).expect("resolve");
        assert!(!r2.eval_bool(row().as_slice()).expect("eval"));
    }

    #[test]
    fn string_comparisons_are_lexicographic() {
        let e = Expr::col("plan").lt(Expr::lit("B"));
        let r = e.resolve(&schema()).expect("resolve");
        assert!(r.eval_bool(row().as_slice()).expect("eval"));
    }

    #[test]
    fn or_and_not() {
        let e = Expr::Not(Box::new(
            Expr::col("dur")
                .lt(Expr::lit(0i64))
                .or(Expr::col("dur").gt(Expr::lit(10_000i64))),
        ));
        let r = e.resolve(&schema()).expect("resolve");
        assert!(r.eval_bool(row().as_slice()).expect("eval"));
    }

    #[test]
    fn unknown_columns_fail_at_resolve_time() {
        let e = Expr::col("zz");
        assert!(e.resolve(&schema()).is_err());
    }

    fn refused(e: Expr) -> bool {
        matches!(
            e.predicate(&schema()),
            Err(EngineError::TypeMismatch { .. })
        )
    }

    #[test]
    fn predicate_refuses_a_string_compared_with_a_number() {
        assert!(refused(Expr::col("plan").eq(Expr::col("dur"))));
        assert!(refused(Expr::col("price").lt(Expr::lit("A"))));
        // Int against Float is one kind: numeric.
        assert!(!refused(Expr::col("dur").eq(Expr::col("price"))));
        assert!(!refused(Expr::col("plan").eq(Expr::lit("A"))));
    }

    #[test]
    fn predicate_refuses_arithmetic_on_a_string() {
        assert!(refused(
            Expr::col("plan").mul(Expr::lit(2i64)).gt(Expr::lit(1i64))
        ));
        assert!(!refused(
            Expr::col("dur").mul(Expr::col("price")).gt(Expr::lit(1i64))
        ));
    }

    #[test]
    fn predicate_refuses_a_non_boolean_under_a_connective() {
        let cmp = || Expr::col("dur").gt(Expr::lit(0i64));
        assert!(refused(cmp().and(Expr::col("price"))));
        assert!(refused(Expr::col("plan").or(cmp())));
        assert!(refused(Expr::Not(Box::new(
            Expr::col("dur").add(Expr::lit(1i64))
        ))));
        // The predicate as a whole must be boolean too; an integer
        // column reads as "non-zero".
        assert!(refused(Expr::col("price")));
        assert!(!refused(Expr::col("dur")));
        assert!(!refused(cmp().and(Expr::Not(Box::new(cmp())))));
    }

    #[test]
    fn a_checked_predicate_evaluates_like_the_unchecked_expression() {
        let e = Expr::col("plan").eq(Expr::lit("A")).and(
            Expr::col("dur")
                .mul(Expr::col("price"))
                .gt(Expr::lit(200i64)),
        );
        let checked = e.predicate(&schema()).expect("well-typed");
        assert!(checked.holds(row().as_slice()));
        let other = vec![Value::Int(10), Value::float(0.4), Value::str("A")];
        assert!(!checked.holds(other.as_slice()));
    }

    #[test]
    fn integers_compare_exactly() {
        let big = 1i64 << 53;
        let s = Schema::of(&[("a", ColumnType::Int), ("b", ColumnType::Int)]);
        let r = Expr::col("a")
            .eq(Expr::col("b"))
            .resolve(&s)
            .expect("resolve");
        // Both round to 2^53 as floats; as integers they differ.
        assert!(!r
            .eval_bool([Value::Int(big), Value::Int(big + 1)].as_slice())
            .expect("eval"));
        assert!(r
            .eval_bool([Value::Int(big + 1), Value::Int(big + 1)].as_slice())
            .expect("eval"));
    }

    #[test]
    fn expressions_render_as_sql() {
        let e = Expr::col("plan")
            .eq(Expr::lit("A"))
            .and(Expr::col("dur").mul(Expr::lit(0.5)).ge(Expr::lit(3i64)));
        assert_eq!(e.to_string(), "(plan = 'A' AND (dur * 0.5) >= 3)");
        assert_eq!(
            Expr::Not(Box::new(Expr::col("dur").lt(Expr::lit(0i64)))).to_string(),
            "NOT (dur < 0)"
        );
    }

    #[test]
    fn arithmetic_rejects_strings() {
        let e = Expr::col("plan").mul(Expr::lit(2i64));
        let r = e.resolve(&schema()).expect("resolve");
        assert!(r.eval(row().as_slice()).is_err());
    }
}
