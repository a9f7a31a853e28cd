//! Offline stand-in for `serde_json`, covering the slice the workspace
//! uses: [`Value`] / [`Number`], the [`json!`] macro over plain expressions,
//! [`to_string`] / [`to_string_pretty`], [`from_str`] parsing into a
//! [`Value`] tree, and `Display` rendering that matches serde_json's output
//! for the value shapes produced here. Every path to text goes through
//! `serde`'s one streaming [`JsonWriter`], which `Value` also implements
//! [`Serialize`] against.

// Shim code mirrors upstream API shapes; keep clippy out of it.
#![allow(clippy::all)]
use serde::{JsonWriter, Serialize};
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (integer or float).
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object: ordered key → value pairs (insertion order preserved).
    Object(Vec<(String, Value)>),
}

/// A JSON number: integer-ness is preserved, as in serde_json.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Number(Repr);

#[derive(Debug, Clone, Copy)]
enum Repr {
    I64(i64),
    U64(u64),
    F64(f64),
}

impl PartialEq for Repr {
    fn eq(&self, other: &Repr) -> bool {
        match (*self, *other) {
            (Repr::I64(a), Repr::I64(b)) => a == b,
            (Repr::U64(a), Repr::U64(b)) => a == b,
            (Repr::F64(a), Repr::F64(b)) => a == b,
            // Signed/unsigned reprs of the same integer are the same number.
            (Repr::I64(a), Repr::U64(b)) | (Repr::U64(b), Repr::I64(a)) => a >= 0 && a as u64 == b,
            // Integers never equal floats, matching serde_json.
            _ => false,
        }
    }
}

impl Number {
    /// Lossy view as `f64` (always succeeds for the shim's representations).
    pub fn as_f64(&self) -> Option<f64> {
        Some(match self.0 {
            Repr::I64(v) => v as f64,
            Repr::U64(v) => v as f64,
            Repr::F64(v) => v,
        })
    }

    /// Exact view as `i64` if the number is a signed integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self.0 {
            Repr::I64(v) => Some(v),
            Repr::U64(v) => i64::try_from(v).ok(),
            Repr::F64(_) => None,
        }
    }

    /// Exact view as `u64` if the number is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self.0 {
            Repr::I64(v) => u64::try_from(v).ok(),
            Repr::U64(v) => Some(v),
            Repr::F64(_) => None,
        }
    }

    /// Whether the underlying representation is a signed integer.
    pub fn is_i64(&self) -> bool {
        matches!(self.0, Repr::I64(_))
    }

    /// Whether the underlying representation is an unsigned integer.
    pub fn is_u64(&self) -> bool {
        matches!(self.0, Repr::U64(_))
    }

    /// Whether the underlying representation is a float.
    pub fn is_f64(&self) -> bool {
        matches!(self.0, Repr::F64(_))
    }

    /// Build from an `f64` (`None` for NaN / infinity, as in serde_json).
    pub fn from_f64(v: f64) -> Option<Number> {
        v.is_finite().then_some(Number(Repr::F64(v)))
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&to_text(self, false))
    }
}

impl Serialize for Number {
    fn write_json(&self, w: &mut JsonWriter) {
        match self.0 {
            Repr::I64(v) => w.i64(v),
            Repr::U64(v) => w.u64(v),
            Repr::F64(v) => w.f64(v),
        }
    }
}

impl Value {
    /// Lossy numeric view (`None` for non-numbers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    /// String view (`None` for non-strings).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this is `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Exact unsigned-integer view (`None` for non-integers).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// Exact signed-integer view (`None` for non-integers).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// Boolean view (`None` for non-booleans).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array view (`None` for non-arrays).
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Object view as ordered key → value pairs (`None` for non-objects).
    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// Look up `key` in an object (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&to_text(self, false))
    }
}

impl Serialize for Value {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::Number(n) => n.write_json(w),
            Value::String(s) => w.str(s),
            Value::Array(items) => w.array(items),
            Value::Object(entries) => {
                w.begin_object();
                for (k, v) in entries {
                    w.key(k);
                    v.write_json(w);
                }
                w.end_object();
            }
        }
    }
}

macro_rules! impl_value_eq_prim {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                *self == Value::from(*other)
            }
        }

        impl PartialEq<Value> for $t {
            fn eq(&self, other: &Value) -> bool {
                Value::from(*self) == *other
            }
        }
    )*};
}

impl_value_eq_prim!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize, bool);

/// Floats compare through [`Value::as_f64`], as in serde_json, so `null`
/// never equals NaN or an infinity even though those serialize as `null`.
macro_rules! impl_value_eq_float {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                self.as_f64() == Some(*other as f64)
            }
        }

        impl PartialEq<Value> for $t {
            fn eq(&self, other: &Value) -> bool {
                *other == *self
            }
        }
    )*};
}

impl_value_eq_float!(f64, f32);

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}

impl PartialEq<Value> for &str {
    fn eq(&self, other: &Value) -> bool {
        other.as_str() == Some(*self)
    }
}

impl PartialEq<Value> for String {
    fn eq(&self, other: &Value) -> bool {
        other.as_str() == Some(self.as_str())
    }
}

macro_rules! impl_value_from_int {
    ($($t:ty => $repr:ident as $cast:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::Number(Number(Repr::$repr(v as $cast)))
            }
        }
    )*};
}

impl_value_from_int!(
    i8 => I64 as i64, i16 => I64 as i64, i32 => I64 as i64, i64 => I64 as i64,
    isize => I64 as i64,
    u8 => U64 as u64, u16 => U64 as u64, u32 => U64 as u64, u64 => U64 as u64,
    usize => U64 as u64
);

/// NaN and infinities become `Value::Null`, as in serde_json.
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Number::from_f64(v).map_or(Value::Null, Value::Number)
    }
}

impl From<f32> for Value {
    fn from(v: f32) -> Value {
        Value::from(v as f64)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

macro_rules! impl_value_from_ref {
    ($($t:ty),*) => {$(
        impl From<&$t> for Value {
            fn from(v: &$t) -> Value {
                Value::from(*v)
            }
        }
    )*};
}

impl_value_from_ref!(i32, i64, u32, u64, usize, f64, f32, bool);

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

/// Serialization error (the shim's data model is total, so this only exists
/// for signature compatibility).
#[derive(Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

fn to_text<T: Serialize + ?Sized>(value: &T, pretty: bool) -> String {
    let mut w = JsonWriter::new(pretty);
    value.write_json(&mut w);
    w.finish()
}

/// Serialize `value` as a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(to_text(value, false))
}

/// Serialize `value` as pretty-printed JSON (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(to_text(value, true))
}

/// Parse a JSON document into a [`Value`] tree. Objects preserve key order,
/// numbers keep their integer-ness (as in serde_json's
/// `from_str::<Value>`), and trailing garbage after the document is an
/// error.
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            _ => Err(Error(format!("unexpected input at byte {}", self.pos))),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self
                .peek()
                .ok_or_else(|| Error("unterminated string".into()))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error("unterminated escape".into()))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error("invalid \\u escape".into()))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by the shim's
                            // writer; reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| Error("unsupported \\u escape".into()))?;
                            out.push(c);
                        }
                        _ => return Err(Error(format!("bad escape at byte {}", self.pos))),
                    }
                }
                _ => {
                    // Re-decode from the byte position to keep multi-byte
                    // UTF-8 sequences intact.
                    let start = self.pos - 1;
                    let s = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| Error("invalid UTF-8 in string".into()))?;
                    let c = s.chars().next().expect("non-empty by construction");
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".into()))?;
        let repr = if !is_float {
            if text.starts_with('-') {
                text.parse::<i64>().map(Repr::I64).ok()
            } else {
                text.parse::<u64>().map(Repr::U64).ok()
            }
        } else {
            None
        };
        let repr = match repr {
            Some(r) => r,
            None => Repr::F64(
                text.parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite())
                    .ok_or_else(|| Error(format!("invalid number '{text}'")))?,
            ),
        };
        Ok(Value::Number(Number(repr)))
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error(format!("expected ',' or ']' at byte {}", self.pos))),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(Error(format!("expected ',' or '}}' at byte {}", self.pos))),
            }
        }
    }
}

/// Build a [`Value`] from a plain expression (or `null`). Object/array
/// literal syntax from the real `json!` macro is intentionally unsupported.
#[macro_export]
macro_rules! json {
    (null) => {
        $crate::Value::Null
    };
    ($e:expr) => {
        $crate::Value::from($e)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_macro_preserves_integerness() {
        let one = json!(1);
        match &one {
            Value::Number(n) => {
                assert!(n.is_i64());
                assert_eq!(n.as_f64(), Some(1.0));
            }
            _ => panic!("expected number"),
        }
        assert_eq!(one.to_string(), "1");
        assert_eq!(json!(1.5).to_string(), "1.5");
        assert_eq!(json!(2.0).to_string(), "2.0");
        assert_eq!(json!("hi").to_string(), "\"hi\"");
        assert_eq!(json!(null), Value::Null);
    }

    #[test]
    fn float_equality_matches_test_usage() {
        // Mirrors `num(1.23456) == json!(1.235)` in the bench crate.
        let r = (1.23456f64 * 1000.0).round() / 1000.0;
        assert_eq!(json!(r), json!(1.235));
    }

    #[test]
    fn pretty_print_shape() {
        let v = Value::Object(vec![
            ("a".into(), json!(1)),
            ("b".into(), Value::Array(vec![json!(true), Value::Null])),
        ]);
        let s = to_string_pretty(&v).unwrap();
        assert_eq!(s, "{\n  \"a\": 1,\n  \"b\": [\n    true,\n    null\n  ]\n}");
        assert_eq!(to_string(&v).unwrap(), "{\"a\":1,\"b\":[true,null]}");
    }

    #[test]
    fn non_finite_floats_are_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(json!(v), Value::Null);
            assert_eq!(to_string(&v).unwrap(), "null");
            assert_eq!(to_string(&vec![v]).unwrap(), "[null]");
        }
        assert_eq!(json!(f32::NAN), Value::Null);
        // Comparison goes through `as_f64`, so `null` equals no float.
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_ne!(Value::Null, v);
            assert_ne!(v, Value::Null);
            assert_ne!(Value::Null, v as f32);
        }
        assert_eq!(json!(1), 1.0, "numbers compare by value, as in serde_json");
        assert!(
            from_str("1e999").is_err(),
            "out-of-range numbers are rejected"
        );
    }

    #[test]
    fn string_escaping() {
        assert_eq!(json!("a\"b\\c\nd").to_string(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let v = Value::Object(vec![
            ("a".into(), json!(1)),
            ("b".into(), Value::Array(vec![json!(true), Value::Null])),
            ("c".into(), json!(-2.5)),
            ("d".into(), json!("x\n\"y\"")),
        ]);
        for text in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            assert_eq!(from_str(&text).unwrap(), v);
        }
    }

    #[test]
    fn parse_preserves_integerness_and_key_order() {
        let v = from_str("{\"z\": 1, \"a\": 2.0, \"n\": -3}").unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["z", "a", "n"]);
        assert_eq!(v.get("z").unwrap().as_u64(), Some(1));
        assert!(v.get("a").unwrap().as_u64().is_none(), "2.0 stays a float");
        assert_eq!(v.get("n").unwrap().as_i64(), Some(-3));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(from_str("").is_err());
        assert!(from_str("{\"a\": }").is_err());
        assert!(from_str("[1, 2] tail").is_err());
        assert!(from_str("nul").is_err());
        assert!(from_str("\"open").is_err());
    }

    #[test]
    fn value_accessors() {
        let v = from_str("{\"arr\": [1], \"b\": true}").unwrap();
        assert_eq!(v.get("arr").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert!(v.get("missing").is_none());
        assert!(json!(1).get("x").is_none());
    }
}
