//! Minimal JSON emission and parsing.
//!
//! The experiment harness emits its JSON artifacts (`report.json`,
//! `BENCH_sweep.json`, store entries) by writing text directly, with no
//! serialization framework: every serialized type implements [`ToJson`],
//! almost always through `#[derive(ToJson)]` (from `dlp-json-derive`,
//! re-exported here). Output is compact (no whitespace), and the encoding
//! is fixed because store keys hash it:
//!
//! * non-finite floats are written as `null` (JSON has no NaN/Inf);
//! * strings escape `"`, `\`, and every control character (`\n`, `\r`,
//!   `\t`, and `\u00XX` for the rest), so any standard parser accepts the
//!   output;
//! * a unit struct is `null`, a newtype struct its inner value, and a
//!   tuple or tuple struct an array;
//! * map keys that do not render as strings are rendered and then quoted,
//!   so `BTreeMap<u32, f64>` emits `{"2": 1.5, ...}`;
//! * unit enum variants are strings, newtype variants `{"Name": value}`,
//!   tuple variants arrays, and struct variants a bare object with no
//!   variant-name wrapper — consumers distinguish variants by their field
//!   names, e.g. a sweep cell's `"outcome"` is either
//!   `{"stats": ..., "mismatch": ...}` or `{"error": "..."}`.
//!
//! Since the result store and dead-letter queue read
//! their own artifacts back, the module also carries a small recursive-
//! descent [`parse`] returning a [`JsonValue`] tree. Numbers keep their
//! raw text ([`JsonValue::Num`]) so that full-precision `u64` values
//! (seeds, fingerprints) round-trip exactly — they would be mangled by
//! an `f64` intermediate. The parser accepts anything [`to_string`]
//! emits plus standard JSON written by hand (whitespace, all escape
//! forms including `\uXXXX`), nested at most [`MAX_DEPTH`] deep.
//!
//! Records decode through their types: [`FromJson`], derived with
//! `#[derive(FromJson)]` beside `ToJson`, reads back a named struct, a
//! newtype, or an enum of struct variants exactly as `ToJson` wrote it,
//! so a persisted record has one schema, its type. Decoding is strict: a
//! missing field, a value of the wrong JSON type, or an integer out of
//! its field's range fails the whole value ([`from_str`] returns
//! `None`), and the store reads such a record as a miss.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub use dlp_json_derive::{FromJson, ToJson};

/// A value that writes itself as compact JSON.
pub trait ToJson {
    /// Append `self`'s JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

/// A value that reads itself back from the JSON its [`ToJson`] wrote.
///
/// # Examples
///
/// ```
/// use dlp_common::json::{from_str, FromJson, ToJson};
///
/// #[derive(Debug, PartialEq, ToJson, FromJson)]
/// struct Cell {
///     cycles: u64,
///     speedup: Option<f64>,
/// }
///
/// let cell = Cell { cycles: 1024, speedup: None };
/// assert_eq!(from_str(&dlp_common::json::to_string(&cell)), Some(cell));
/// assert_eq!(from_str::<Cell>(r#"{"speedup":1.5}"#), None, "every field is required");
/// ```
pub trait FromJson: Sized {
    /// Decode `v`, or `None` if it is not a value of this type.
    fn from_json(v: &JsonValue) -> Option<Self>;
}

/// Parse `text` and decode it as a `T`; `None` if either step fails.
#[must_use]
pub fn from_str<T: FromJson>(text: &str) -> Option<T> {
    T::from_json(&parse(text).ok()?)
}

/// Serialize `value` to a compact JSON string.
///
/// # Examples
///
/// ```
/// use dlp_common::json::ToJson;
///
/// #[derive(ToJson)]
/// struct Cell {
///     kernel: &'static str,
///     cycles: u64,
///     speedup: Option<f64>,
/// }
///
/// let json = dlp_common::json::to_string(&Cell {
///     kernel: "fft",
///     cycles: 1024,
///     speedup: None,
/// });
/// assert_eq!(json, r#"{"kernel":"fft","cycles":1024,"speedup":null}"#);
/// ```
#[must_use]
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// A JSON parse failure, with the byte offset it was found at.
#[derive(Debug)]
pub struct JsonError(String);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl std::error::Error for JsonError {}

macro_rules! display_impl {
    ($($ty:ty),*) => {$(
        impl ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

display_impl!(bool, u8, u16, u32, u64, usize, i32, i64);

// A number decodes only from its exact text: `1.0` is not a `u64`, and
// `4294967296` is not a `u32`. `null` is not an `f64`; a float that may be
// non-finite is persisted as an `Option<f64>`.
macro_rules! number_from_json {
    ($($ty:ty),*) => {$(
        impl FromJson for $ty {
            fn from_json(v: &JsonValue) -> Option<Self> {
                match v {
                    JsonValue::Num(s) => s.parse().ok(),
                    _ => None,
                }
            }
        }
    )*};
}

number_from_json!(u8, u32, u64, usize, f64);

impl FromJson for bool {
    fn from_json(v: &JsonValue) -> Option<Self> {
        v.as_bool()
    }
}

impl FromJson for String {
    fn from_json(v: &JsonValue) -> Option<Self> {
        v.as_str().map(str::to_string)
    }
}

/// `null` is `None`; anything else must decode as a `T`.
impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &JsonValue) -> Option<Self> {
        match v {
            JsonValue::Null => Some(None),
            v => T::from_json(v).map(Some),
        }
    }
}

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        let mut start = 0;
        for (i, b) in self.bytes().enumerate() {
            let escaped = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // Every escaped byte is ASCII, so `i` is a char boundary.
            out.push_str(&self[start..i]);
            if escaped.is_empty() {
                let _ = write!(out, "\\u{b:04x}");
            } else {
                out.push_str(escaped);
            }
            start = i + 1;
        }
        out.push_str(&self[start..]);
        out.push('"');
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<K: ToJson, V: ToJson> ToJson for BTreeMap<K, V> {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // JSON keys must be strings: quote a key that renders as a
            // bare scalar.
            let key = to_string(k);
            if key.starts_with('"') {
                out.push_str(&key);
            } else {
                key.write_json(out);
            }
            out.push(':');
            v.write_json(out);
        }
        out.push('}');
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(']');
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// A parsed JSON document.
///
/// Objects preserve insertion order as a `Vec` of pairs (no hashing, so
/// iteration is deterministic); numbers keep their source text so
/// integer values round-trip at full 64-bit precision.
///
/// # Examples
///
/// ```
/// use dlp_common::json::{parse, JsonValue};
///
/// let v = parse(r#"{"cells":2,"seed":18446744073709551615}"#).unwrap();
/// assert_eq!(v.get("cells").and_then(JsonValue::as_u64), Some(2));
/// assert_eq!(v.get("seed").and_then(JsonValue::as_u64), Some(u64::MAX));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw source text (e.g. `"-3.5"`, `"42"`).
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, as ordered `(key, value)` pairs.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on an object (first match); `None` on other shapes.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, when it is a number that parses as one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (`null` reads as `None`, matching the
    /// serializer's non-finite-float convention).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as a `bool`.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// The deepest array/object nesting [`parse`] accepts. The documents the
/// workspace reads nest three or four levels; the bound keeps a hostile
/// or corrupt file from overflowing the parser's stack.
pub const MAX_DEPTH: usize = 128;

/// Parse a JSON document.
///
/// # Errors
///
/// [`JsonError`] with a byte offset on malformed input, trailing
/// garbage, or nesting deeper than [`MAX_DEPTH`] — the store layer
/// treats any parse failure as a cache miss.
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser { text, pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(JsonError(format!("trailing data at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    /// Byte offset of the next unread byte. It only steps over ASCII
    /// bytes, whole `\u` escapes and string runs that stop before an
    /// ASCII byte (an unknown escape fails at once), so slicing `text`
    /// here never splits a char.
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> JsonError {
        JsonError(format!("{what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn lit(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.lit("true", JsonValue::Bool(true)),
            Some(b'f') => self.lit("false", JsonValue::Bool(false)),
            Some(b'n') => self.lit("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parse one array or object with `parse_fn`, one level deeper.
    fn nested(
        &mut self,
        parse_fn: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = parse_fn(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
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
                                .text
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            // `from_str_radix` alone would take a sign.
                            let code = Some(hex)
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not emitted by our
                            // serializer; map them to the replacement
                            // character rather than failing the parse.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash at
                    // once. Both are ASCII, so the run ends on a char
                    // boundary.
                    let rest = &self.text[self.pos..];
                    let run = rest.bytes().position(|b| b == b'"' || b == b'\\');
                    let run = run.unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if text.is_empty() || text == "-" || text.parse::<f64>().is_err() {
            return Err(self.err("invalid number"));
        }
        Ok(JsonValue::Num(text.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::{from_str, parse, to_string, FromJson, JsonValue, ToJson};
    use std::collections::BTreeMap;

    #[derive(ToJson)]
    enum Tag {
        Plain,
        Wrapped(u8),
        Fields { x: i32 },
    }

    #[test]
    fn scalars_and_structs() {
        #[derive(ToJson)]
        struct S {
            a: u64,
            b: f64,
            c: Option<String>,
            d: Vec<bool>,
        }
        let got = to_string(&S {
            a: 7,
            b: f64::NAN,
            c: Some("hi\"x".into()),
            d: vec![true, false],
        });
        assert_eq!(got, r#"{"a":7,"b":null,"c":"hi\"x","d":[true,false]}"#);
    }

    #[test]
    fn enum_variants() {
        assert_eq!(to_string(&Tag::Plain), r#""Plain""#);
        assert_eq!(to_string(&Tag::Wrapped(3)), r#"{"Wrapped":3}"#);
        // Struct variants are unwrapped by workspace convention (see the
        // module docs): fields only, no variant-name layer.
        assert_eq!(to_string(&Tag::Fields { x: -1 }), r#"{"x":-1}"#);
    }

    #[derive(Debug, PartialEq, ToJson, FromJson)]
    struct Record {
        count: u32,
        ratio: Option<f64>,
        name: String,
        done: bool,
    }

    #[test]
    fn from_json_reads_named_structs_and_requires_every_field() {
        let record = Record { count: 3, ratio: None, name: "a\"b".into(), done: true };
        let json = to_string(&record);
        assert_eq!(from_str(&json), Some(record));
        let with_ratio = Record { count: 0, ratio: Some(-2.5), name: String::new(), done: false };
        assert_eq!(from_str(&to_string(&with_ratio)), Some(with_ratio));
        for field in ["count", "ratio", "name", "done"] {
            let JsonValue::Obj(mut pairs) = parse(&json).unwrap() else { panic!("object") };
            pairs.retain(|(k, _)| k != field);
            assert_eq!(Record::from_json(&JsonValue::Obj(pairs)), None, "without {field}");
        }
        let extra = r#"{"count":1,"ratio":0.5,"name":"","done":false,"more":[]}"#;
        assert_eq!(from_str::<Record>(extra).map(|r| r.count), Some(1), "extra members ignored");
        for bad in [
            r#"{"count":4294967296,"ratio":null,"name":"","done":true}"#,
            r#"{"count":1.0,"ratio":null,"name":"","done":true}"#,
            r#"{"count":-1,"ratio":null,"name":"","done":true}"#,
            r#"{"count":"1","ratio":null,"name":"","done":true}"#,
            r#"{"count":1,"ratio":null,"name":null,"done":true}"#,
            r#"{"count":1,"ratio":null,"name":"","done":1}"#,
            r#"[1,null,"",true]"#,
        ] {
            assert_eq!(from_str::<Record>(bad), None, "{bad}");
        }
    }

    #[test]
    fn from_json_reads_newtypes_as_their_inner_value() {
        #[derive(Debug, PartialEq, ToJson, FromJson)]
        struct Rate(u32);
        assert_eq!(from_str(&to_string(&Rate(u32::MAX))), Some(Rate(u32::MAX)));
        assert_eq!(from_str::<Rate>("4294967296"), None);
        assert_eq!(from_str::<Rate>(r#"{"0":1}"#), None);
    }

    #[test]
    fn from_json_selects_struct_variants_by_their_first_field() {
        #[derive(Debug, PartialEq, ToJson, FromJson)]
        enum Outcome {
            Ran { cycles: u64, mismatch: Option<usize> },
            Failed { error: String },
        }
        for outcome in [
            Outcome::Ran { cycles: 9, mismatch: Some(2) },
            Outcome::Ran { cycles: 0, mismatch: None },
            Outcome::Failed { error: "e".into() },
        ] {
            assert_eq!(from_str(&to_string(&outcome)), Some(outcome));
        }
        assert_eq!(from_str::<Outcome>(r#"{"cycles":1}"#), None, "missing field");
        assert_eq!(
            from_str::<Outcome>(r#"{"cycles":"x","mismatch":null,"error":"e"}"#),
            None,
            "a chosen variant that fails to decode does not fall through"
        );
        assert_eq!(from_str::<Outcome>("{}"), None);
        assert_eq!(from_str::<Outcome>(r#""Ran""#), None);
    }

    #[test]
    fn non_string_map_keys_are_quoted() {
        let mut m = BTreeMap::new();
        m.insert(2u32, "two");
        assert_eq!(to_string(&m), r#"{"2":"two"}"#);
    }

    #[test]
    fn parse_round_trips_serializer_output() {
        #[derive(ToJson)]
        struct S {
            a: u64,
            b: f64,
            c: Option<String>,
            d: Vec<bool>,
        }
        let json = to_string(&S {
            a: u64::MAX,
            b: -2.5,
            c: Some("quote\" slash\\ newline\n".into()),
            d: vec![true, false],
        });
        let v = parse(&json).unwrap();
        assert_eq!(v.get("a").and_then(JsonValue::as_u64), Some(u64::MAX));
        assert_eq!(v.get("b").and_then(JsonValue::as_f64), Some(-2.5));
        assert_eq!(
            v.get("c").and_then(JsonValue::as_str),
            Some("quote\" slash\\ newline\n")
        );
        assert_eq!(
            v.get("d").and_then(JsonValue::as_array).map(<[JsonValue]>::len),
            Some(2)
        );
    }

    #[test]
    fn every_control_character_is_escaped_and_round_trips() {
        let mut s: String = (0u8..0x20).map(char::from).collect();
        s.push_str("\"\\");
        let json = to_string(&s);
        assert!(json.bytes().all(|b| b >= 0x20), "raw control byte in {json:?}");
        assert_eq!(parse(&json).unwrap().as_str(), Some(s.as_str()));
        assert_eq!(to_string("a\tb\r\u{1}"), r#""a\tb\r\u0001""#);
    }

    #[test]
    fn parse_handles_whitespace_nesting_and_escapes() {
        let v = parse(
            " { \"outer\" : [ 1 , { \"k\" : null } , \"\\u0041\\t\" ] , \"neg\" : -17 } ",
        )
        .unwrap();
        let arr = v.get("outer").and_then(JsonValue::as_array).unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("k"), Some(&JsonValue::Null));
        assert_eq!(arr[2].as_str(), Some("A\t"));
        assert_eq!(v.get("neg"), Some(&JsonValue::Num("-17".into())));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "{\"a\":}", "tru", "01a", "\"unterminated",
            "{\"a\":1} trailing", "nul", "-", "\"bad \\x escape\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail to parse");
        }
    }

    #[test]
    fn parse_preserves_object_order_and_duplicate_lookup_takes_first() {
        let v = parse(r#"{"z":1,"a":2,"z":3}"#).unwrap();
        match &v {
            JsonValue::Obj(pairs) => {
                let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["z", "a", "z"]);
            }
            other => panic!("expected object, got {other:?}"),
        }
        assert_eq!(v.get("z").and_then(JsonValue::as_u64), Some(1));
    }
}
