//! The workspace's one JSON emitter: a compact, insertion-ordered writer
//! into a single `String`.
//!
//! Every report in the repository — [`crate::Registry::to_json`], the
//! event ring, the chaos campaign report, every `BENCH_*.json` — is a
//! [`ToJson`] value rendered through a [`Writer`]. Output is
//! deterministic: keys appear in the order they are written, there is no
//! whitespace, and a non-finite float is `null` (JSON has no `inf`/`NaN`).
//!
//! ```
//! use occam_obs::json::{self, Fixed, ToJson, Writer};
//!
//! struct Run { name: String, rate: f64, lost: Option<u64> }
//! impl ToJson for Run {
//!     fn write_json(&self, w: &mut Writer) {
//!         w.object(|w| {
//!             w.field("name", &self.name)
//!                 .field("rate", Fixed(self.rate, 1))
//!                 .field("lost", self.lost);
//!         });
//!     }
//! }
//! let run = Run { name: "a\"b".into(), rate: 2.5, lost: None };
//! assert_eq!(json::to_string(&run), r#"{"name":"a\"b","rate":2.5,"lost":null}"#);
//! ```

use std::fmt::Write as _;

/// A value that writes itself as exactly one JSON value.
pub trait ToJson {
    /// Writes `self` into `w` as one value (scalar, object or array).
    fn write_json(&self, w: &mut Writer);
}

/// Renders `v` as a compact JSON document.
pub fn to_string(v: &(impl ToJson + ?Sized)) -> String {
    let mut w = Writer::default();
    v.write_json(&mut w);
    w.finish()
}

/// The output buffer plus the one bit of state comma placement needs.
/// `Writer::default()` is an empty document.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// True once a value has been written at the current nesting level:
    /// the next sibling takes a leading comma. False at the start of the
    /// document and right after `{`, `[` or a key.
    comma: bool,
}

impl Writer {
    /// The rendered document.
    pub fn finish(self) -> String {
        self.out
    }

    /// Writes `{…}`; `body` writes the fields in order.
    pub fn object(&mut self, body: impl FnOnce(&mut Writer)) {
        self.nest('{', '}', body);
    }

    /// Writes `[…]`; `body` writes the elements in order.
    pub fn array(&mut self, body: impl FnOnce(&mut Writer)) {
        self.nest('[', ']', body);
    }

    /// Writes `"key":` inside an object; the next `value`, `object` or
    /// `array` call supplies the field's value.
    pub fn key(&mut self, key: &str) -> &mut Writer {
        key.write_json(self);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Writes one value: an array element, or the value after a [`key`].
    ///
    /// [`key`]: Writer::key
    pub fn value(&mut self, v: impl ToJson) -> &mut Writer {
        v.write_json(self);
        self
    }

    /// Writes the field `"key":v` inside an object.
    pub fn field(&mut self, key: &str, v: impl ToJson) -> &mut Writer {
        self.key(key).value(v)
    }

    fn nest(&mut self, open: char, close: char, body: impl FnOnce(&mut Writer)) {
        self.token(format_args!("{open}"));
        self.comma = false;
        body(self);
        self.out.push(close);
        self.comma = true;
    }

    /// Writes `v` as rendered by `t` — or `null`, since JSON has no
    /// `inf`/`NaN`.
    fn float(&mut self, v: f64, t: std::fmt::Arguments<'_>) {
        if v.is_finite() {
            self.token(t);
        } else {
            self.token(format_args!("null"));
        }
    }

    /// Writes one already-valid token, preceded by a comma when it
    /// follows a sibling.
    fn token(&mut self, t: std::fmt::Arguments<'_>) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
        let _ = self.out.write_fmt(t);
    }
}

/// Integers and `bool`: their `Display` form is already a JSON token.
macro_rules! display_scalars {
    ($($t:ty)*) => {$(
        impl ToJson for $t {
            fn write_json(&self, w: &mut Writer) {
                w.token(format_args!("{self}"));
            }
        }
    )*};
}
display_scalars!(u8 u16 u32 u64 u128 usize i32 i64 bool);

/// Shortest representation that round-trips; `null` when non-finite.
impl ToJson for f64 {
    fn write_json(&self, w: &mut Writer) {
        w.float(*self, format_args!("{self}"));
    }
}

/// A float rendered with a fixed number of decimals (`Fixed(x, 2)` is
/// `{x:.2}`); `null` when non-finite.
#[derive(Clone, Copy, Debug)]
pub struct Fixed(pub f64, pub usize);

impl ToJson for Fixed {
    fn write_json(&self, w: &mut Writer) {
        w.float(self.0, format_args!("{:.*}", self.1, self.0));
    }
}

/// An escaped string: `"` and `\` are backslash-escaped, `\n`/`\t`/`\r`
/// use their short forms and other control characters become `\u00XX`.
impl ToJson for str {
    fn write_json(&self, w: &mut Writer) {
        w.token(format_args!("\""));
        for c in self.chars() {
            match c {
                '"' => w.out.push_str("\\\""),
                '\\' => w.out.push_str("\\\\"),
                '\n' => w.out.push_str("\\n"),
                '\t' => w.out.push_str("\\t"),
                '\r' => w.out.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(w.out, "\\u{:04x}", c as u32);
                }
                c => w.out.push(c),
            }
        }
        w.out.push('"');
    }
}

impl ToJson for String {
    fn write_json(&self, w: &mut Writer) {
        self.as_str().write_json(w);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, w: &mut Writer) {
        (**self).write_json(w);
    }
}

/// `None` is `null`.
impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, w: &mut Writer) {
        match self {
            Some(v) => v.write_json(w),
            None => w.token(format_args!("null")),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, w: &mut Writer) {
        w.array(|w| {
            for v in self {
                v.write_json(w);
            }
        });
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, w: &mut Writer) {
        self.as_slice().write_json(w);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A strict recogniser for the JSON grammar (RFC 8259, no extensions):
    /// true iff `s` is exactly one well-formed value.
    pub(crate) fn well_formed(s: &str) -> bool {
        let b = s.as_bytes();
        matches!(value(b, ws(b, 0)), Some(end) if ws(b, end) == b.len())
    }

    fn ws(b: &[u8], mut i: usize) -> usize {
        while matches!(b.get(i), Some(b' ' | b'\n' | b'\t' | b'\r')) {
            i += 1;
        }
        i
    }

    fn digits(b: &[u8], i: usize) -> Option<usize> {
        let n = b[i..].iter().take_while(|c| c.is_ascii_digit()).count();
        (n > 0).then_some(i + n)
    }

    fn string(b: &[u8], mut i: usize) -> Option<usize> {
        if b.get(i) != Some(&b'"') {
            return None;
        }
        i += 1;
        loop {
            match *b.get(i)? {
                b'"' => return Some(i + 1),
                b'\\' => match *b.get(i + 1)? {
                    b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => i += 2,
                    b'u' if b.get(i + 2..i + 6)?.iter().all(u8::is_ascii_hexdigit) => i += 6,
                    _ => return None,
                },
                c if c < 0x20 => return None,
                _ => i += 1,
            }
        }
    }

    fn number(b: &[u8], mut i: usize) -> Option<usize> {
        if b.get(i) == Some(&b'-') {
            i += 1;
        }
        i = if b.get(i) == Some(&b'0') {
            i + 1
        } else {
            digits(b, i)?
        };
        if b.get(i) == Some(&b'.') {
            i = digits(b, i + 1)?;
        }
        if matches!(b.get(i), Some(b'e' | b'E')) {
            i += 1;
            if matches!(b.get(i), Some(b'+' | b'-')) {
                i += 1;
            }
            i = digits(b, i)?;
        }
        Some(i)
    }

    /// Parses `open (item (',' item)*)? close`, where an object item is
    /// `string ':' value`.
    fn container(b: &[u8], i: usize, close: u8) -> Option<usize> {
        let mut i = ws(b, i + 1);
        if b.get(i) == Some(&close) {
            return Some(i + 1);
        }
        loop {
            if close == b'}' {
                i = ws(b, string(b, i)?);
                if b.get(i) != Some(&b':') {
                    return None;
                }
                i = ws(b, i + 1);
            }
            i = ws(b, value(b, i)?);
            match *b.get(i)? {
                b',' => i = ws(b, i + 1),
                c if c == close => return Some(i + 1),
                _ => return None,
            }
        }
    }

    fn value(b: &[u8], i: usize) -> Option<usize> {
        match *b.get(i)? {
            b'{' => container(b, i, b'}'),
            b'[' => container(b, i, b']'),
            b'"' => string(b, i),
            b't' => b[i..].starts_with(b"true").then_some(i + 4),
            b'f' => b[i..].starts_with(b"false").then_some(i + 5),
            b'n' => b[i..].starts_with(b"null").then_some(i + 4),
            _ => number(b, i),
        }
    }

    #[test]
    fn recogniser_is_strict() {
        for ok in [
            "0",
            "-1.5e+3",
            "\"\\u00e9\\n\"",
            "[]",
            "{}",
            " {\"a\":[1,{\"b\":null}],\"c\":true} ",
        ] {
            assert!(well_formed(ok), "{ok}");
        }
        for bad in [
            "",
            "01",
            "1.",
            ".5",
            "inf",
            "NaN",
            "[1,]",
            "{\"a\":}",
            "{a:1}",
            "{\"a\":1,}",
            "\"\n\"",
            "\"\\x\"",
            "[1 2]",
            "1 2",
            "{\"a\" 1}",
            "nul",
            "[",
            "\"",
        ] {
            assert!(!well_formed(bad), "{bad}");
        }
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(to_string(r#"a"b\c"#), r#""a\"b\\c""#);
        assert_eq!(to_string("x\ny\tz\r"), r#""x\ny\tz\r""#);
        assert_eq!(to_string("\u{1}"), r#""\u0001""#);
        assert_eq!(to_string("dc01.pod*.é"), "\"dc01.pod*.é\"");
        // Keys are escaped like any other string.
        let mut w = Writer::default();
        w.object(|w| {
            w.field("a\"b", 1u64);
        });
        assert_eq!(w.finish(), r#"{"a\"b":1}"#);
    }

    #[test]
    fn containers_nest_and_keep_insertion_order() {
        let mut w = Writer::default();
        w.object(|w| {
            w.field("z", 1u64).field("a", -2i64);
            w.key("empty_obj").object(|_| {});
            w.key("empty_arr").array(|_| {});
            w.key("rows").array(|w| {
                w.value(true).value("s");
                w.object(|w| {
                    w.field("k", vec![1u32, 2]);
                });
                w.array(|w| {
                    w.value(Vec::<u64>::new());
                });
            });
            w.field("tail", false);
        });
        let out = w.finish();
        assert_eq!(
            out,
            r#"{"z":1,"a":-2,"empty_obj":{},"empty_arr":[],"rows":[true,"s",{"k":[1,2]},[[]]],"tail":false}"#
        );
        assert!(well_formed(&out));
    }

    #[test]
    fn option_is_value_or_null() {
        assert_eq!(to_string(&Some(3u64)), "3");
        assert_eq!(to_string(&None::<u64>), "null");
        assert_eq!(to_string(&Some("x".to_string())), "\"x\"");
        assert_eq!(to_string(&vec![Some(1u8), None]), "[1,null]");
    }

    #[test]
    fn floats_are_shortest_or_fixed_and_never_non_finite() {
        assert_eq!(to_string(&0.05f64), "0.05");
        assert_eq!(to_string(&0.1f64), "0.1");
        assert_eq!(to_string(&0.0f64), "0");
        assert_eq!(to_string(&1e21f64), "1000000000000000000000");
        assert_eq!(to_string(&Fixed(2.0, 2)), "2.00");
        assert_eq!(to_string(&Fixed(1234.56, 0)), "1235");
        assert_eq!(to_string(&Fixed(0.126, 1)), "0.1");
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert_eq!(to_string(&bad), "null");
            assert_eq!(to_string(&Fixed(bad, 1)), "null");
        }
        // The quotients the bench reports compute: a zero denominator
        // must not leak `inf`/`NaN` into a report.
        let (clone_ns, snap_ns, idle) = (1.0e6f64, 0.0f64, 0.0f64);
        let doc = to_string(&vec![
            Fixed(clone_ns / snap_ns, 1),
            Fixed(idle / snap_ns, 3),
        ]);
        assert_eq!(doc, "[null,null]");
        assert!(well_formed(&doc));
    }
}
