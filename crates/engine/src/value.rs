//! Runtime values.
//!
//! Three types cover the paper's workloads: 64-bit integers (keys,
//! months, durations), floats (prices, discounts) and interned strings
//! (plan names, zip codes, flags). `Value` implements `Eq`/`Hash` so it
//! can serve as a join or group key: an `Int` equals a `Float` exactly
//! when the float is that integer, and equal values hash alike (NaN is
//! rejected at construction). Tables store columns, not `Value`s (see
//! [`crate::table`]); the engine reads their cells as `Cell`s, which
//! compare and hash by the same rules.

use crate::error::EngineError;
use provabs_provenance::fxhash::FxHasher;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A runtime value.
#[derive(Clone, Debug)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float (never NaN).
    Float(f64),
    /// Interned string.
    Str(Arc<str>),
}

impl Value {
    /// String constructor.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Float constructor; rejects NaN so `Eq`/`Hash` stay lawful.
    pub fn float(f: f64) -> Self {
        assert!(!f.is_nan(), "NaN values are not supported");
        Value::Float(f)
    }

    /// The value as an `f64` (ints widen), or a type error.
    pub fn as_f64(&self) -> Result<f64, EngineError> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Float(f) => Ok(*f),
            Value::Str(_) => Err(EngineError::TypeMismatch {
                expected: "numeric",
                got: format!("{self}"),
            }),
        }
    }

    /// The value as an `i64`, or a type error.
    pub fn as_i64(&self) -> Result<i64, EngineError> {
        match self {
            Value::Int(i) => Ok(*i),
            _ => Err(EngineError::TypeMismatch {
                expected: "integer",
                got: format!("{self}"),
            }),
        }
    }

    /// The value as a string slice, or a type error.
    pub fn as_str(&self) -> Result<&str, EngineError> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(EngineError::TypeMismatch {
                expected: "string",
                got: format!("{self}"),
            }),
        }
    }

    /// A short type name for diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
        }
    }
}

impl Value {
    /// The value as a [`Cell`]: what comparisons, hashing and rendering
    /// read, so that a stored cell and a `Value` agree on all three.
    pub(crate) fn cell(&self) -> Cell<'_> {
        match self {
            Value::Int(i) => Cell::Int(*i),
            Value::Float(f) => Cell::Float(*f),
            Value::Str(s) => Cell::Str(s),
        }
    }
}

/// Mixed int/float values compare exactly (not through `f64`, where
/// neighbouring integers above 2^53 round to one float).
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cell() == other.cell()
    }
}

impl Eq for Value {}

/// Agrees with `==`: equal values hash alike, whatever their variants.
impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.cell().key_hash());
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.cell().fmt(f)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

/// A row of values.
pub type Row = Vec<Value>;

/// One cell, read in place — from a [`Value`], a table column or an
/// expression — without cloning it: a string is borrowed together with
/// its `Arc`, so a reader that keeps it (a group key, a materialised
/// table) shares the string instead of copying it.
///
/// Unlike a `Value`, a `Float` cell may be NaN: arithmetic produces one
/// from `inf - inf` or `0 · inf`. Comparisons treat it as IEEE does, and
/// the evaluators refuse to hand one out (`EngineError::NotANumber`).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Cell<'a> {
    Int(i64),
    Float(f64),
    Str(&'a Arc<str>),
}

impl Cell<'_> {
    /// The owned value (the string `Arc` is shared, not copied).
    pub(crate) fn to_value(self) -> Value {
        match self {
            Cell::Int(i) => Value::Int(i),
            Cell::Float(f) => Value::Float(f),
            Cell::Str(s) => Value::Str(Arc::clone(s)),
        }
    }

    /// The cell's contribution to a key hash: ints by value, integral
    /// floats as the integer they equal, other floats by bit pattern,
    /// strings by content ([`str_hash`]). Cells that are `==` hash alike.
    pub(crate) fn key_hash(self) -> u64 {
        match self {
            Cell::Int(i) => i as u64,
            Cell::Float(f) => exact_int(f).map_or(f.to_bits(), |i| i as u64),
            Cell::Str(s) => str_hash(s),
        }
    }

    /// The numeric order, exact across `Int` and `Float`; `None` when a
    /// side is NaN or a string.
    pub(crate) fn cmp_numbers(self, other: Self) -> Option<Ordering> {
        match (self, other) {
            (Cell::Int(a), Cell::Int(b)) => Some(a.cmp(&b)),
            (Cell::Float(a), Cell::Float(b)) => a.partial_cmp(&b),
            (Cell::Int(a), Cell::Float(b)) => cmp_int_float(a, b),
            (Cell::Float(a), Cell::Int(b)) => cmp_int_float(b, a).map(Ordering::reverse),
            _ => None,
        }
    }
}

/// Strings compare by content; numbers exactly, across `Int` and `Float`.
impl PartialEq for Cell<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Cell::Str(a), Cell::Str(b)) => a == b,
            (Cell::Str(_), _) | (_, Cell::Str(_)) => false,
            (a, b) => a.cmp_numbers(*b) == Some(Ordering::Equal),
        }
    }
}

impl fmt::Display for Cell<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Int(i) => write!(f, "{i}"),
            Cell::Float(x) => write!(f, "{x}"),
            Cell::Str(s) => write!(f, "{s}"),
        }
    }
}

/// Where an evaluator reads cells from, by position: a row of values, a
/// table row ([`crate::table::TableRow`]), or the fused loop's tuple of
/// row indices (`query::Cursor`).
pub(crate) trait Cells {
    /// The cell at `at`.
    fn cell(&self, at: usize) -> Cell<'_>;

    /// [`Cell::key_hash`] of the cell at `at`; a table reads a string's
    /// from its dictionary instead of hashing it again.
    fn key_hash(&self, at: usize) -> u64 {
        self.cell(at).key_hash()
    }
}

impl Cells for [Value] {
    fn cell(&self, at: usize) -> Cell<'_> {
        self[at].cell()
    }
}

/// The key hash of a string cell (see [`Cell::key_hash`]); a string
/// column computes it once per dictionary entry.
pub(crate) fn str_hash(s: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    h.write_u8(0xff);
    h.finish()
}

/// Folds the key hashes of a key's cells into one.
pub(crate) fn combine_key_hashes(cells: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = FxHasher::default();
    for cell in cells {
        h.write_u64(cell);
    }
    h.finish()
}

/// 2^63, the first float above every `i64`.
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

/// The integer `f` equals exactly, if any.
fn exact_int(f: f64) -> Option<i64> {
    // `fract` of an infinity is NaN, so infinities fall through.
    (f.fract() == 0.0 && (-TWO_POW_63..TWO_POW_63).contains(&f)).then_some(f as i64)
}

/// `i` against `f`, exactly; `None` if `f` is NaN.
fn cmp_int_float(i: i64, f: f64) -> Option<Ordering> {
    if f.is_nan() {
        return None;
    }
    if f >= TWO_POW_63 {
        return Some(Ordering::Less);
    }
    if f < -TWO_POW_63 {
        return Some(Ordering::Greater);
    }
    // In range, the integral part is an exact `i64`; the fraction
    // decides a tie.
    let whole = f.trunc();
    Some(i.cmp(&(whole as i64)).then(0.0.partial_cmp(&(f - whole))?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn accessors_and_type_errors() {
        assert_eq!(Value::Int(3).as_f64().expect("widen"), 3.0);
        assert_eq!(Value::float(2.5).as_f64().expect("float"), 2.5);
        assert!(Value::str("x").as_f64().is_err());
        assert_eq!(Value::str("abc").as_str().expect("str"), "abc");
        assert!(Value::Int(1).as_str().is_err());
        assert_eq!(Value::Int(7).as_i64().expect("int"), 7);
        assert!(Value::float(1.0).as_i64().is_err());
    }

    fn hash_of(v: &Value) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn mixed_int_float_equality_is_exact() {
        // 2^53 + 1 rounds to 2^53 as a float; as values they differ.
        let big = 1i64 << 53;
        assert_ne!(Value::Int(big + 1), Value::float(big as f64));
        assert_eq!(Value::Int(big), Value::float(big as f64));
        assert_eq!(Value::Int(i64::MIN), Value::float(-TWO_POW_63));
        assert_eq!(
            hash_of(&Value::Int(i64::MIN)),
            hash_of(&Value::float(-TWO_POW_63))
        );
        assert_ne!(Value::Int(i64::MAX), Value::float(TWO_POW_63));
        assert_ne!(Value::Int(3), Value::float(3.5));
        assert_eq!(Value::Int(0), Value::float(-0.0));
        assert_eq!(hash_of(&Value::Int(0)), hash_of(&Value::float(-0.0)));
        for f in [f64::INFINITY, f64::NEG_INFINITY] {
            assert_ne!(Value::Int(i64::MAX), Value::float(f));
            assert_ne!(Value::Int(i64::MIN), Value::float(f));
        }
    }

    #[test]
    fn exact_order_of_an_int_against_a_float() {
        let big = 1i64 << 53;
        let order = |i: i64, f: f64| Value::Int(i).cell().cmp_numbers(Value::float(f).cell());
        assert_eq!(order(big + 1, big as f64), Some(Ordering::Greater));
        assert_eq!(order(-big - 1, -big as f64), Some(Ordering::Less));
        assert_eq!(order(2, 2.5), Some(Ordering::Less));
        assert_eq!(order(-2, -2.5), Some(Ordering::Greater));
        assert_eq!(order(i64::MAX, TWO_POW_63), Some(Ordering::Less));
        assert_eq!(order(i64::MIN, -TWO_POW_63), Some(Ordering::Equal));
        assert_eq!(order(0, f64::NEG_INFINITY), Some(Ordering::Greater));
        assert_eq!(Cell::Int(0).cmp_numbers(Cell::Float(f64::NAN)), None);
    }

    /// Equal ⇒ same hash, over keys drawn around ±2^53 where int and
    /// float neighbours crowd together, and over whole rows of them.
    #[test]
    fn equal_values_hash_alike() {
        provabs_testkit::cases(256, 301, |rng, _| {
            let values: Vec<Value> = (0..rng.within(2..=7))
                .map(|_| {
                    let base = [0, 1i64 << 53, -(1i64 << 53), 1i64 << 62][rng.below(4) as usize];
                    let i = base + rng.int(-4..=4);
                    match rng.below(4) {
                        0 => Value::Int(i),
                        1 => Value::float(i as f64),
                        2 => Value::float(i as f64 + 0.5),
                        _ => Value::float(-(i as f64)),
                    }
                })
                .collect();
            let key_hash =
                |row: &[&Value]| combine_key_hashes(row.iter().map(|v| v.cell().key_hash()));
            let other = &values[0];
            for a in &values {
                for b in &values {
                    if a == b {
                        assert_eq!(hash_of(a), hash_of(b), "{a:?} {b:?}");
                        assert_eq!(key_hash(&[a, other]), key_hash(&[b, other]));
                    }
                }
            }
        });
    }

    #[test]
    fn mixed_numeric_equality_and_hash_agree() {
        let a = Value::Int(4);
        let b = Value::float(4.0);
        assert_eq!(a, b);
        let mut map = HashMap::new();
        map.insert(a, "hit");
        assert_eq!(map.get(&b), Some(&"hit"));
    }

    #[test]
    fn values_as_group_keys() {
        let mut counts: HashMap<Row, usize> = HashMap::new();
        *counts.entry(vec![Value::str("10001")]).or_insert(0) += 1;
        *counts.entry(vec![Value::str("10001")]).or_insert(0) += 1;
        *counts.entry(vec![Value::str("10002")]).or_insert(0) += 1;
        assert_eq!(counts[&vec![Value::str("10001")]], 2);
        assert_eq!(counts.len(), 2);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_is_rejected() {
        let _ = Value::float(f64::NAN);
    }
}
