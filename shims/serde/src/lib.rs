//! Offline stand-in for the `serde` crate.
//!
//! The real serde is unavailable in this build environment (no network, no
//! vendored registry), so this shim provides the small slice of its surface
//! the workspace actually uses: a [`Serialize`] trait plus a derive macro.
//! The workspace only ever serializes to JSON, so instead of serde's
//! visitor-based data model a type streams itself straight into a
//! [`JsonWriter`]: there is no intermediate tree and no allocation per
//! field or number. The derive macro mirrors serde's externally tagged
//! representation for enums, and the writer follows `serde_json`'s output
//! rules (compact or two-space pretty layout, `null` for non-finite
//! floats), so swapping the real crates back in produces identical JSON.

// Shim code mirrors upstream API shapes; keep clippy out of it.
#![allow(clippy::all)]
pub use serde_derive::Serialize;
use std::fmt::{self, Write};

/// Types that can write themselves as JSON.
pub trait Serialize {
    /// Write `self` as one JSON value at the writer's current position.
    fn write_json(&self, w: &mut JsonWriter);
}

/// Spaces per nesting level in pretty output, as in serde_json.
const INDENT: usize = 2;

/// Streaming JSON text writer, compact or indented.
///
/// Containers are written as `begin_*`, then [`element`](Self::element)
/// before each array item or [`field`](Self::field) / [`key`](Self::key)
/// before each object member, then `end_*`. Empty containers print as `{}`
/// and `[]`.
pub struct JsonWriter {
    out: String,
    /// Whether to put each element on its own indented line.
    pretty: bool,
    depth: usize,
    /// Whether the innermost open container has no element yet. When a
    /// container closes, its parent has at least the one just closed, so a
    /// single flag suffices.
    empty: bool,
}

impl JsonWriter {
    /// A writer producing compact output, or with `pretty` output indented
    /// by two spaces per level.
    pub fn new(pretty: bool) -> JsonWriter {
        JsonWriter {
            out: String::new(),
            pretty,
            depth: 0,
            empty: false,
        }
    }

    /// The text written so far.
    pub fn finish(self) -> String {
        self.out
    }

    /// Open an object.
    pub fn begin_object(&mut self) {
        self.open('{');
    }

    /// Close the innermost object.
    pub fn end_object(&mut self) {
        self.close('}');
    }

    /// Open an array.
    pub fn begin_array(&mut self) {
        self.open('[');
    }

    /// Close the innermost array.
    pub fn end_array(&mut self) {
        self.close(']');
    }

    /// Write `items` as an array.
    pub fn array<'a, T: Serialize + 'a>(&mut self, items: impl IntoIterator<Item = &'a T>) {
        self.begin_array();
        for item in items {
            self.element();
            item.write_json(self);
        }
        self.end_array();
    }

    /// Start the next array element.
    pub fn element(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.newline();
    }

    /// Start the next object member from a pre-escaped `"name":` literal.
    pub fn field(&mut self, quoted_name_colon: &str) {
        self.element();
        self.out.push_str(quoted_name_colon);
        if self.pretty {
            self.out.push(' ');
        }
    }

    /// Start the next object member, escaping `key`.
    pub fn key(&mut self, key: &str) {
        self.element();
        self.str(key);
        self.out.push(':');
        if self.pretty {
            self.out.push(' ');
        }
    }

    /// Write `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// Write `true` or `false`.
    pub fn bool(&mut self, v: bool) {
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Write a signed integer.
    pub fn i64(&mut self, v: i64) {
        self.display(v);
    }

    /// Write an unsigned integer.
    pub fn u64(&mut self, v: u64) {
        self.display(v);
    }

    /// Write a float as serde_json does: integral values below 1e16 keep a
    /// trailing `.0`, and NaN and infinities, which JSON cannot express,
    /// become `null`.
    pub fn f64(&mut self, v: f64) {
        if !v.is_finite() {
            self.null();
        } else if v == v.trunc() && v.abs() < 1e16 {
            self.display(format_args!("{v:.1}"));
        } else {
            self.display(v);
        }
    }

    /// Write a quoted, escaped string.
    pub fn str(&mut self, s: &str) {
        self.out.push('"');
        let mut start = 0;
        for (i, b) in s.bytes().enumerate() {
            let esc = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            self.out.push_str(&s[start..i]);
            if esc.is_empty() {
                self.display(format_args!("\\u{b:04x}"));
            } else {
                self.out.push_str(esc);
            }
            start = i + 1;
        }
        self.out.push_str(&s[start..]);
        self.out.push('"');
    }

    fn display(&mut self, v: impl fmt::Display) {
        write!(self.out, "{v}").expect("writing to a String cannot fail");
    }

    fn open(&mut self, c: char) {
        self.out.push(c);
        self.depth += 1;
        self.empty = true;
    }

    fn close(&mut self, c: char) {
        self.depth -= 1;
        if !self.empty {
            self.newline();
        }
        self.out.push(c);
        self.empty = false;
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            self.out
                .extend(std::iter::repeat(' ').take(INDENT * self.depth));
        }
    }
}

macro_rules! impl_ser {
    ($($method:ident($v:ident => $e:expr): $($t:ty),*;)*) => {$($(
        impl Serialize for $t {
            fn write_json(&self, w: &mut JsonWriter) {
                let $v = self;
                w.$method($e);
            }
        }
    )*)*};
}

impl_ser! {
    i64(v => *v as i64): i8, i16, i32, i64, isize;
    u64(v => *v as u64): u8, u16, u32, u64, usize;
    f64(v => *v as f64): f32, f64;
    bool(v => *v): bool;
    str(v => v): str, String;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, w: &mut JsonWriter) {
        (**self).write_json(w);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        (**self).write_json(w);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            None => w.null(),
            Some(v) => v.write_json(w),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, w: &mut JsonWriter) {
        w.array(self);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        w.array(self);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn write_json(&self, w: &mut JsonWriter) {
        w.array(self);
    }
}

macro_rules! impl_ser_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn write_json(&self, w: &mut JsonWriter) {
                w.begin_array();
                $(w.element(); self.$idx.write_json(w);)+
                w.end_array();
            }
        }
    };
}

impl_ser_tuple!(A: 0);
impl_ser_tuple!(A: 0, B: 1);
impl_ser_tuple!(A: 0, B: 1, C: 2);
impl_ser_tuple!(A: 0, B: 1, C: 2, D: 3);

#[cfg(test)]
mod tests {
    use super::*;

    fn compact<T: Serialize + ?Sized>(v: &T) -> String {
        let mut w = JsonWriter::new(false);
        v.write_json(&mut w);
        w.finish()
    }

    #[test]
    fn primitives_serialize() {
        assert_eq!(compact(&1u64), "1");
        assert_eq!(compact(&-2i32), "-2");
        assert_eq!(compact("x"), "\"x\"");
        assert_eq!(compact(&None::<u64>), "null");
        assert_eq!(compact(&vec![1u64, 2]), "[1,2]");
        assert_eq!(compact(&(1u8, "a", 0.5f32)), "[1,\"a\",0.5]");
    }
}
