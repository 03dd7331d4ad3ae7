//! Runtime values, arithmetic, comparison and calendar helpers.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::error::{err, EngineError, EngineErrorKind, Result};

/// A runtime value. Dates are stored as days since 1970-01-01 (can be
/// negative); decimals are evaluated in double precision which is sufficient
/// for the benchmark workloads.
///
/// Strings are interned behind an `Arc<str>` so that cloning a value — which
/// the row-sharing executor does only for residual materializations — is a
/// reference-count bump rather than a heap copy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Arc<str>),
    Date(i32),
}

impl Value {
    /// String constructor.
    pub fn str(s: impl Into<Arc<str>>) -> Self {
        Value::Str(s.into())
    }

    /// Parse a `YYYY-MM-DD` date into a [`Value::Date`].
    pub fn date_from_str(s: &str) -> Result<Self> {
        Ok(Value::Date(parse_date(s)?))
    }

    /// `true` if this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view (ints promoted to f64); `None` for non-numeric values.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(*b as i64 as f64),
            _ => None,
        }
    }

    /// Integer view; truncates floats.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) => Some(*f as i64),
            Value::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_ref()),
            _ => None,
        }
    }

    /// Boolean view following SQL truthiness (NULL is `None`).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            Value::Int(i) => Some(*i != 0),
            Value::Float(f) => Some(*f != 0.0),
            Value::Null => None,
            _ => None,
        }
    }

    /// SQL comparison. Returns `None` when either side is NULL or the types
    /// are incomparable.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Date(a), Value::Date(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            // Date vs Int allows comparing against raw day counts.
            (Value::Date(a), Value::Int(b)) => Some((*a as i64).cmp(b)),
            (Value::Int(a), Value::Date(b)) => Some(a.cmp(&(*b as i64))),
            _ => {
                let a = self.as_f64()?;
                let b = other.as_f64()?;
                a.partial_cmp(&b)
            }
        }
    }

    /// The total order `ORDER BY` sorts by. It agrees with
    /// [`Value::compare`] on every pair that orders and ranks the rest:
    /// NULL above every value (so last ascending and first descending, as
    /// in PostgreSQL), NaN above every number, dates and booleans among the
    /// numbers by numeric value (as `compare` orders them against integers,
    /// which keeps the order transitive), and numbers before strings.
    pub(crate) fn sort_cmp(&self, other: &Value) -> Ordering {
        let number = |v: &Value| match v {
            Value::Date(d) => Some(f64::from(*d)),
            v => v.as_f64(),
        };
        let rank = |v: &Value| match v {
            Value::Str(_) => 1,
            Value::Null => 2,
            _ => 0,
        };
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Date(a), Value::Date(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => match (number(self), number(other)) {
                (Some(a), Some(b)) => a
                    .partial_cmp(&b)
                    .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan())),
                _ => rank(self).cmp(&rank(other)),
            },
        }
    }

    /// SQL equality (NULL never equals anything).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.compare(other).map(|o| o == Ordering::Equal)
    }

    /// Addition, including `date + interval days`.
    pub fn add(&self, other: &Value) -> Result<Value> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (Value::Int(a), Value::Int(b)) => checked_int(a.checked_add(*b), "+"),
            (Value::Date(d), Value::Int(days)) => Ok(Value::Date(d + *days as i32)),
            (Value::Int(days), Value::Date(d)) => Ok(Value::Date(d + *days as i32)),
            (Value::Str(a), Value::Str(b)) => Ok(Value::str(format!("{a}{b}"))),
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => Ok(Value::Float(a + b)),
                _ => err(format!("cannot add {self:?} and {other:?}")),
            },
        }
    }

    /// Subtraction, including `date - interval days`.
    pub fn sub(&self, other: &Value) -> Result<Value> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (Value::Int(a), Value::Int(b)) => checked_int(a.checked_sub(*b), "-"),
            (Value::Date(d), Value::Int(days)) => Ok(Value::Date(d - *days as i32)),
            (Value::Date(a), Value::Date(b)) => Ok(Value::Int((*a - *b) as i64)),
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => Ok(Value::Float(a - b)),
                _ => err(format!("cannot subtract {other:?} from {self:?}")),
            },
        }
    }

    /// Multiplication.
    pub fn mul(&self, other: &Value) -> Result<Value> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (Value::Int(a), Value::Int(b)) => checked_int(a.checked_mul(*b), "*"),
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => Ok(Value::Float(a * b)),
                _ => err(format!("cannot multiply {self:?} and {other:?}")),
            },
        }
    }

    /// Division (always double precision, matching SQL decimal division).
    pub fn div(&self, other: &Value) -> Result<Value> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => {
                    if b == 0.0 {
                        err("division by zero")
                    } else {
                        Ok(Value::Float(a / b))
                    }
                }
                _ => err(format!("cannot divide {self:?} by {other:?}")),
            },
        }
    }

    /// Modulo on integers.
    pub fn modulo(&self, other: &Value) -> Result<Value> {
        match (self.as_i64(), other.as_i64()) {
            (Some(_), Some(0)) => err("modulo by zero"),
            (Some(a), Some(b)) => checked_int(a.checked_rem(b), "%"),
            _ => Ok(Value::Null),
        }
    }

    /// Unary minus.
    pub fn neg(&self) -> Result<Value> {
        match self {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => checked_int(i.checked_neg(), "negation"),
            Value::Float(f) => Ok(Value::Float(-f)),
            _ => err(format!("cannot negate {self:?}")),
        }
    }
}

/// `i64` arithmetic is checked: an overflow is a typed
/// [`EngineErrorKind::Arithmetic`] error — never a debug-build panic or a
/// silent release-build wrap inside a `SUM`.
fn checked_int(result: Option<i64>, op: &str) -> Result<Value> {
    result.map(Value::Int).ok_or_else(|| int_overflow(op))
}

/// The typed error of an overflowing `i64` operation (shared with the
/// aggregate accumulator's integer `SUM`).
pub(crate) fn int_overflow(op: &str) -> EngineError {
    EngineError::with_kind(
        EngineErrorKind::Arithmetic,
        format!("integer overflow in `{op}`"),
    )
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Date(a), Value::Date(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b || (a.is_nan() && b.is_nan()),
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => *a as f64 == *b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Ints and floats that compare equal must hash equally: hash the
            // f64 bit pattern of the numeric value for both.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Date(d) => {
                4u8.hash(state);
                d.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{v:.4}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "{}", format_date(*d)),
        }
    }
}

// ---------------------------------------------------------------------------
// Calendar arithmetic (proleptic Gregorian, days since 1970-01-01)
// ---------------------------------------------------------------------------

/// Convert a civil date to days since the Unix epoch
/// (Howard Hinnant's `days_from_civil` algorithm).
pub fn days_from_civil(y: i32, m: u32, d: u32) -> i32 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u32;
    let mp = (m + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe as i32 - 719_468
}

/// Convert days since the Unix epoch back to a civil `(year, month, day)`.
pub fn civil_from_days(z: i32) -> (i32, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u32;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i32 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = (mp + 2) % 12 + 1;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Parse `YYYY-MM-DD` into days since the epoch.
pub fn parse_date(s: &str) -> Result<i32> {
    let parts: Vec<&str> = s.trim().split('-').collect();
    if parts.len() != 3 {
        return err(format!("invalid date literal `{s}`"));
    }
    let y: i32 = parts[0]
        .parse()
        .map_err(|_| crate::error::EngineError::new(format!("bad year in `{s}`")))?;
    let m: u32 = parts[1]
        .parse()
        .map_err(|_| crate::error::EngineError::new(format!("bad month in `{s}`")))?;
    let d: u32 = parts[2]
        .parse()
        .map_err(|_| crate::error::EngineError::new(format!("bad day in `{s}`")))?;
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return err(format!("date out of range `{s}`"));
    }
    Ok(days_from_civil(y, m, d))
}

/// Format days since the epoch as `YYYY-MM-DD`.
pub fn format_date(days: i32) -> String {
    let (y, m, d) = civil_from_days(days);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Add a number of calendar months to a date, clamping the day of month.
pub fn add_months(days: i32, months: i32) -> i32 {
    let (y, m, d) = civil_from_days(days);
    let total = y * 12 + (m as i32 - 1) + months;
    let ny = total.div_euclid(12);
    let nm = (total.rem_euclid(12) + 1) as u32;
    let max_day = days_in_month(ny, nm);
    days_from_civil(ny, nm, d.min(max_day))
}

fn days_in_month(y: i32, m: u32) -> u32 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if (y % 4 == 0 && y % 100 != 0) || y % 400 == 0 {
                29
            } else {
                28
            }
        }
        _ => 30,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_roundtrip() {
        for s in [
            "1970-01-01",
            "1992-02-29",
            "1998-12-01",
            "2024-07-15",
            "1900-03-01",
        ] {
            let days = parse_date(s).unwrap();
            assert_eq!(format_date(days), s);
        }
        assert_eq!(parse_date("1970-01-01").unwrap(), 0);
        assert_eq!(parse_date("1970-01-02").unwrap(), 1);
    }

    #[test]
    fn add_months_handles_year_rollover_and_clamping() {
        let d = parse_date("1995-12-15").unwrap();
        assert_eq!(format_date(add_months(d, 1)), "1996-01-15");
        assert_eq!(format_date(add_months(d, 12)), "1996-12-15");
        let eom = parse_date("1996-01-31").unwrap();
        assert_eq!(format_date(add_months(eom, 1)), "1996-02-29");
        let eom = parse_date("1995-01-31").unwrap();
        assert_eq!(format_date(add_months(eom, 1)), "1995-02-28");
    }

    #[test]
    fn arithmetic_promotes_types() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)).unwrap(), Value::Int(5));
        assert_eq!(
            Value::Int(2).add(&Value::Float(0.5)).unwrap(),
            Value::Float(2.5)
        );
        assert_eq!(
            Value::Float(10.0).div(&Value::Int(4)).unwrap(),
            Value::Float(2.5)
        );
        assert!(Value::Int(1).div(&Value::Int(0)).is_err());
    }

    #[test]
    fn integer_overflow_is_a_typed_error_not_a_panic() {
        let max = Value::Int(i64::MAX);
        for overflowing in [
            max.add(&Value::Int(1)),
            Value::Int(i64::MIN).sub(&Value::Int(1)),
            max.mul(&Value::Int(2)),
            Value::Int(i64::MIN).neg(),
        ] {
            let e = overflowing.unwrap_err();
            assert_eq!(e.kind(), EngineErrorKind::Arithmetic, "{e}");
        }
        // The boundary itself is still representable.
        assert_eq!(
            Value::Int(i64::MAX - 1).add(&Value::Int(1)).unwrap(),
            Value::Int(i64::MAX)
        );
    }

    #[test]
    fn null_propagates_through_arithmetic() {
        assert_eq!(Value::Null.add(&Value::Int(1)).unwrap(), Value::Null);
        assert_eq!(Value::Int(1).mul(&Value::Null).unwrap(), Value::Null);
    }

    #[test]
    fn date_interval_arithmetic() {
        let d = Value::Date(parse_date("1998-12-01").unwrap());
        let moved = d.sub(&Value::Int(90)).unwrap();
        assert_eq!(moved, Value::Date(parse_date("1998-09-02").unwrap()));
    }

    #[test]
    fn comparisons_follow_sql_semantics() {
        assert_eq!(
            Value::Int(3).compare(&Value::Float(3.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(Value::Null.compare(&Value::Int(3)), None);
        assert_eq!(
            Value::str("abc").compare(&Value::str("abd")),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn hash_is_consistent_with_eq_across_numeric_types() {
        use std::collections::hash_map::DefaultHasher;
        fn h(v: &Value) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_eq!(h(&Value::Int(3)), h(&Value::Float(3.0)));
    }

    #[test]
    fn string_concat_via_add() {
        assert_eq!(
            Value::str("ab").add(&Value::str("cd")).unwrap(),
            Value::str("abcd")
        );
    }
}
