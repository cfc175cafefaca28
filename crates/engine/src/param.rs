//! Cell parameterization: attaching provenance variables to measures.
//!
//! In the aggregate model (§2.1 case 2), the analyst "places variables
//! with the values in certain cells". A [`VarRule`] describes, per input
//! row, which provenance variable multiplies the measure:
//!
//! * the running example parameterizes the plan price by a per-plan
//!   variable (`p1`, `f1`, …) and a per-month variable (`m1`, …, `m12`),
//! * the TPC-H workloads parameterize the discount by
//!   `s{suppkey mod 128}` and `p{partkey mod 128}` (§4.2).

use crate::error::EngineError;
use crate::schema::Schema;
use crate::value::{Cell, Cells};
use provabs_provenance::fxhash::FxHashMap;
use provabs_provenance::var::{VarId, VarTable};
use std::sync::Arc;

/// A rule mapping each row to one provenance variable.
#[derive(Clone, Debug)]
pub enum VarRule {
    /// Variable `"{prefix}{value}"` — one variable per distinct value of
    /// `column` (e.g. `m{Mo}` → `m1`, `m3`).
    PerValue {
        /// Source column.
        column: String,
        /// Name prefix.
        prefix: String,
    },
    /// Variable `"{prefix}{key mod modulus}"` — the paper's TPC-H scheme
    /// `s_i` for `suppkey mod 128 = i`.
    PerMod {
        /// Source (integer) column.
        column: String,
        /// Modulus (e.g. 128).
        modulus: i64,
        /// Name prefix.
        prefix: String,
    },
    /// Explicit value → variable-name mapping (e.g. plan `A` → `p1`,
    /// `SB1` → `b1` in the running example). Values without a mapping
    /// error at evaluation time.
    Mapped {
        /// Source column.
        column: String,
        /// value (rendered) → variable name.
        map: FxHashMap<String, String>,
    },
}

impl VarRule {
    /// Shorthand for [`VarRule::PerValue`].
    pub fn per_value(column: impl Into<String>, prefix: impl Into<String>) -> Self {
        VarRule::PerValue {
            column: column.into(),
            prefix: prefix.into(),
        }
    }

    /// Shorthand for [`VarRule::PerMod`].
    pub fn per_mod(column: impl Into<String>, modulus: i64, prefix: impl Into<String>) -> Self {
        VarRule::PerMod {
            column: column.into(),
            modulus,
            prefix: prefix.into(),
        }
    }

    /// Shorthand for [`VarRule::Mapped`].
    pub fn mapped<'a>(
        column: impl Into<String>,
        pairs: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> Self {
        VarRule::Mapped {
            column: column.into(),
            map: pairs
                .into_iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    /// Resolves the rule against a schema.
    pub fn resolve(&self, schema: &Schema) -> Result<ResolvedRule, EngineError> {
        let (column, kind) = match self {
            VarRule::PerValue { column, prefix } => (
                column,
                RuleKind::PerValue {
                    prefix: prefix.clone(),
                },
            ),
            VarRule::PerMod {
                column,
                modulus,
                prefix,
            } => (
                column,
                RuleKind::PerMod {
                    modulus: *modulus,
                    prefix: prefix.clone(),
                },
            ),
            VarRule::Mapped { column, map } => (column, RuleKind::Mapped { map: map.clone() }),
        };
        Ok(ResolvedRule {
            col: schema.index_of(column)?,
            kind,
            cache: VarCache::default(),
        })
    }
}

#[derive(Clone, Debug)]
enum RuleKind {
    PerValue { prefix: String },
    PerMod { modulus: i64, prefix: String },
    Mapped { map: FxHashMap<String, String> },
}

/// `value → variable` for the values a rule has already named. Keyed by
/// the cell's exact representation — not by value equality, under which
/// `Float(-0.0)` equals `Int(0)` and `Float(0.0)`, though it renders, and
/// so is named, `-0`.
#[derive(Clone, Debug, Default)]
struct VarCache {
    ints: FxHashMap<i64, VarId>,
    floats: FxHashMap<u64, VarId>,
    strs: FxHashMap<Arc<str>, VarId>,
}

impl VarCache {
    fn get(&self, cell: Cell<'_>) -> Option<VarId> {
        match cell {
            Cell::Int(i) => self.ints.get(&i),
            Cell::Float(f) => self.floats.get(&f.to_bits()),
            Cell::Str(s) => self.strs.get(&**s),
        }
        .copied()
    }

    fn insert(&mut self, cell: Cell<'_>, id: VarId) {
        match cell {
            Cell::Int(i) => self.ints.insert(i, id),
            Cell::Float(f) => self.floats.insert(f.to_bits(), id),
            Cell::Str(s) => self.strs.insert(Arc::clone(s), id),
        };
    }
}

/// A [`VarRule`] bound to a column index, with a per-rule cache of the
/// variables it has handed out, so a value that recurs over millions of
/// rows is rendered and interned once and costs a lookup afterwards. The
/// cache holds ids of the [`VarTable`] the rule was first used with: use
/// one resolved rule with one table.
#[derive(Clone, Debug)]
pub struct ResolvedRule {
    col: usize,
    kind: RuleKind,
    cache: VarCache,
}

impl ResolvedRule {
    /// The variable for `row`, interned in `vars`. A `PerMod` rule reads
    /// its column as an `i64`, every rule answers a value it has named
    /// before from its cache.
    ///
    /// Which rows raise does not depend on the cache: a `PerMod` rule
    /// refuses every non-integer before looking anything up, and a
    /// `Mapped` rule caches only values it has a mapping for.
    pub(crate) fn var<R: Cells + ?Sized>(
        &mut self,
        row: &R,
        vars: &mut VarTable,
    ) -> Result<VarId, EngineError> {
        let cell = row.cell(self.col);
        let key = match (&self.kind, cell) {
            (RuleKind::PerMod { modulus, .. }, Cell::Int(i)) => Cell::Int(i.rem_euclid(*modulus)),
            (RuleKind::PerMod { .. }, other) => {
                return Err(EngineError::TypeMismatch {
                    expected: "integer",
                    got: other.to_string(),
                })
            }
            (RuleKind::PerValue { .. } | RuleKind::Mapped { .. }, cell) => cell,
        };
        if let Some(id) = self.cache.get(key) {
            return Ok(id);
        }
        let id = match &self.kind {
            RuleKind::PerValue { prefix } | RuleKind::PerMod { prefix, .. } => {
                vars.intern(&format!("{prefix}{key}"))
            }
            RuleKind::Mapped { map } => {
                let rendered = key.to_string();
                match map.get(&rendered) {
                    Some(name) => vars.intern(name),
                    None => {
                        return Err(EngineError::TypeMismatch {
                            expected: "a mapped parameterization value",
                            got: rendered,
                        })
                    }
                }
            }
        };
        self.cache.insert(key, id);
        Ok(id)
    }

    /// Moves the rule's column from a position in a plan's logical schema
    /// to the position the fused loop reads it at (see [`crate::query`]).
    pub(crate) fn remap(&mut self, cols: &[usize]) {
        self.col = cols[self.col];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;
    use crate::value::{Row, Value};

    fn schema() -> Schema {
        Schema::of(&[
            ("Plan", ColumnType::Str),
            ("Mo", ColumnType::Int),
            ("SuppKey", ColumnType::Int),
        ])
    }

    fn row() -> Row {
        vec![Value::str("SB1"), Value::Int(3), Value::Int(1307)]
    }

    #[test]
    fn per_value_rule() {
        let mut vars = VarTable::new();
        let mut rule = VarRule::per_value("Mo", "m")
            .resolve(&schema())
            .expect("resolve");
        let v = rule.var(row().as_slice(), &mut vars).expect("var");
        assert_eq!(vars.name(v), "m3");
    }

    #[test]
    fn per_mod_rule() {
        let mut vars = VarTable::new();
        let mut rule = VarRule::per_mod("SuppKey", 128, "s")
            .resolve(&schema())
            .expect("resolve");
        let v = rule.var(row().as_slice(), &mut vars).expect("var");
        assert_eq!(vars.name(v), format!("s{}", 1307 % 128));
    }

    #[test]
    fn mapped_rule_and_missing_value() {
        let mut vars = VarTable::new();
        let mut rule = VarRule::mapped("Plan", [("SB1", "b1"), ("A", "p1")])
            .resolve(&schema())
            .expect("resolve");
        let v = rule.var(row().as_slice(), &mut vars).expect("var");
        assert_eq!(vars.name(v), "b1");
        let bad_row = vec![Value::str("ZZ"), Value::Int(1), Value::Int(0)];
        assert!(rule.var(bad_row.as_slice(), &mut vars).is_err());
    }

    #[test]
    fn unknown_column_fails_at_resolve() {
        assert!(VarRule::per_value("zz", "x").resolve(&schema()).is_err());
    }

    #[test]
    fn per_mod_requires_integers() {
        let mut vars = VarTable::new();
        let mut rule = VarRule::per_mod("Plan", 128, "s")
            .resolve(&schema())
            .expect("resolve");
        assert!(rule.var(row().as_slice(), &mut vars).is_err());
    }

    #[test]
    fn the_cache_does_not_change_which_rows_raise() {
        let s = Schema::of(&[("k", ColumnType::Float), ("plan", ColumnType::Str)]);
        let mut vars = VarTable::new();
        // PerMod: Int(3) is cached first; Float(3.0) equals it as a
        // `Value` and must still be refused, every time.
        let mut per_mod = VarRule::per_mod("k", 4, "s").resolve(&s).expect("resolve");
        let int_row = vec![Value::Int(3), Value::str("A")];
        let float_row = vec![Value::float(3.0), Value::str("A")];
        let v = per_mod.var(int_row.as_slice(), &mut vars).expect("integer");
        assert_eq!(vars.name(v), "s3");
        assert!(per_mod.var(float_row.as_slice(), &mut vars).is_err());
        assert!(per_mod.var(float_row.as_slice(), &mut vars).is_err());
        assert_eq!(
            per_mod.var(int_row.as_slice(), &mut vars).expect("cached"),
            v
        );
        // 7 and 3 share a residue, hence a variable.
        let seven = vec![Value::Int(7), Value::str("A")];
        assert_eq!(
            per_mod.var(seven.as_slice(), &mut vars).expect("integer"),
            v
        );

        // Mapped: an unknown value raises on every row that carries it,
        // before and after known values were cached.
        let mut mapped = VarRule::mapped("plan", [("A", "p1")])
            .resolve(&s)
            .expect("resolve");
        let unknown = vec![Value::Int(0), Value::str("ZZ")];
        assert!(mapped.var(unknown.as_slice(), &mut vars).is_err());
        let p1 = mapped.var(int_row.as_slice(), &mut vars).expect("mapped");
        assert_eq!(
            mapped.var(int_row.as_slice(), &mut vars).expect("cached"),
            p1
        );
        assert!(mapped.var(unknown.as_slice(), &mut vars).is_err());
    }

    #[test]
    fn cached_names_follow_the_rendering_not_value_equality() {
        // Int(0) == Float(-0.0) as `Value`s, but they render differently
        // and must not share a cache entry; nor may Int(2^53 + 1) and
        // Float(2^53), which no longer compare equal either.
        let s = Schema::of(&[("k", ColumnType::Float)]);
        let mut vars = VarTable::new();
        let mut rule = VarRule::per_value("k", "x").resolve(&s).expect("resolve");
        let zero = rule
            .var([Value::Int(0)].as_slice(), &mut vars)
            .expect("var");
        let negative_zero = rule
            .var([Value::float(-0.0)].as_slice(), &mut vars)
            .expect("var");
        assert_eq!(Value::Int(0), Value::float(-0.0));
        assert_eq!(vars.name(zero), "x0");
        assert_eq!(vars.name(negative_zero), "x-0");
        let big = (1i64 << 53) + 1;
        let a = rule
            .var([Value::Int(big)].as_slice(), &mut vars)
            .expect("var");
        let b = rule
            .var([Value::float((1u64 << 53) as f64)].as_slice(), &mut vars)
            .expect("var");
        assert_eq!(vars.name(a), format!("x{big}"));
        assert_eq!(vars.name(b), format!("x{}", 1u64 << 53));
        assert_ne!(a, b);
    }
}
