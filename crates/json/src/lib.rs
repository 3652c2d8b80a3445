//! Minimal JSON for an offline workspace: a [`Value`] tree, a recursive
//! parser, compact/pretty writers, and [`ToJson`]/[`FromJson`] conversion
//! traits.
//!
//! This replaces `serde`/`serde_json` (banned under the offline-purity
//! policy — see DESIGN.md). There is no derive machinery: each serialized
//! struct implements the traits by hand, which keeps the wire format explicit
//! and reviewable. The format written here is plain JSON, compatible with the
//! files the previous serde-based code produced (structs as objects keyed by
//! field name, enums as unit-variant strings).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional part that fits `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; keys are sorted (BTreeMap) for deterministic output.
    Obj(BTreeMap<String, Value>),
}

/// Parse or conversion failure, with a short path/context description.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

impl Value {
    /// Member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Required object member, as an error otherwise.
    pub fn field(&self, key: &str) -> Result<&Value, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError(format!("missing field {key:?}")))
    }

    /// Numeric value as `f64` (accepts both `Int` and `Float`).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// Integral value as `i64` (accepts `Float` only when exact).
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Int(i) => Some(i),
            Value::Float(f) if f.fract() == 0.0 && f.abs() < 9e15 => Some(f as i64),
            _ => None,
        }
    }

    /// String contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Bool contents.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Array contents.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Object contents.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Compact single-line serialization.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        write_value(self, None, 0, &mut out);
        out
    }

    /// Human-readable serialization with 2-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        write_value(self, Some(2), 0, &mut out);
        out
    }
}

/// Convert a Rust value into a JSON tree.
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Value;
}

/// Reconstruct a Rust value from a JSON tree.
pub trait FromJson: Sized {
    /// Parse `self` out of `v`, with a descriptive error on mismatch.
    fn from_json(v: &Value) -> Result<Self, JsonError>;
}

/// Serialize any [`ToJson`] value to a compact string.
pub fn to_string(v: &impl ToJson) -> String {
    v.to_json().to_compact()
}

/// Serialize any [`ToJson`] value to a pretty string.
pub fn to_string_pretty(v: &impl ToJson) -> String {
    v.to_json().to_pretty()
}

/// Parse a JSON document and convert it to `T`.
pub fn from_str<T: FromJson>(s: &str) -> Result<T, JsonError> {
    T::from_json(&parse(s)?)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_f64(f: f64, out: &mut String) {
    if !f.is_finite() {
        // JSON has no NaN/Inf; mirror serde_json and write null. The
        // sanitize feature exists to keep such values out of checkpoints.
        out.push_str("null");
    } else {
        // `{}` prints the shortest decimal that round-trips the f64.
        out.push_str(&format!("{f}"));
    }
}

fn write_value(v: &Value, indent: Option<usize>, depth: usize, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => write_f64(*f, out),
        Value::Str(s) => write_escaped(s, out),
        Value::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(w) = indent {
                    out.push('\n');
                    out.push_str(&" ".repeat(w * (depth + 1)));
                }
                write_value(item, indent, depth + 1, out);
            }
            if let Some(w) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(w * depth));
            }
            out.push(']');
        }
        Value::Obj(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(w) = indent {
                    out.push('\n');
                    out.push_str(&" ".repeat(w * (depth + 1)));
                }
                write_escaped(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, indent, depth + 1, out);
            }
            if let Some(w) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(w * depth));
            }
            out.push('}');
        }
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

/// Parse a JSON document. Trailing whitespace is allowed; trailing content is
/// an error.
pub fn parse(s: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        src: s,
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return err(format!("trailing content at byte {}", p.pos));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            None => err("unexpected end of input"),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => err(format!("unexpected {:?} at byte {}", c as char, self.pos)),
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| JsonError("bad escape".into()))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pair handling for non-BMP chars.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return err("invalid low surrogate");
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| JsonError("bad \\u escape".into()))?);
                        }
                        other => {
                            return err(format!("unknown escape \\{}", other as char));
                        }
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in one
                    // go. Both are ASCII, so they never sit inside a
                    // multi-byte character and the run ends on a char
                    // boundary of the (already valid UTF-8) input.
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let run = self
                        .src
                        .get(start..self.pos)
                        .ok_or_else(|| JsonError("invalid utf-8".into()))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return err("truncated \\u escape");
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| JsonError("bad \\u escape".into()))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| JsonError("bad \\u escape".into()))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
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
            .map_err(|_| JsonError("bad number".into()))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(f) => Ok(Value::Float(f)),
            Err(_) => err(format!("invalid number {text:?}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Conversions for primitives and containers
// ---------------------------------------------------------------------------

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl FromJson for Value {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_bool().ok_or_else(|| JsonError("expected bool".into()))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError("expected string".into()))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_f64()
            .ok_or_else(|| JsonError("expected number".into()))
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Value {
        // Route through the shortest decimal that round-trips the f32, so a
        // weights file says `0.1`, not the 17-digit f64 expansion of 0.1f32.
        // Parsing that decimal back as f64 and narrowing recovers the f32
        // exactly.
        Value::Float(format!("{self}").parse::<f64>().unwrap_or(*self as f64))
    }
}

impl FromJson for f32 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(f64::from_json(v)? as f32)
    }
}

macro_rules! int_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<Self, JsonError> {
                let i = v.as_i64().ok_or_else(|| JsonError("expected integer".into()))?;
                <$t>::try_from(i).map_err(|_| JsonError(format!("{i} out of range")))
            }
        }
    )*};
}

int_json!(usize, isize, u8, i8, u16, i16, u32, i32, i64);

impl ToJson for u64 {
    fn to_json(&self) -> Value {
        // Seeds and counters fit i64 in practice; fall back to float rather
        // than wrapping for the pathological huge case.
        match i64::try_from(*self) {
            Ok(i) => Value::Int(i),
            Err(_) => Value::Float(*self as f64),
        }
    }
}

impl FromJson for u64 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let i = v
            .as_i64()
            .ok_or_else(|| JsonError("expected integer".into()))?;
        u64::try_from(i).map_err(|_| JsonError(format!("{i} out of range for u64")))
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for &[T] {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_arr()
            .ok_or_else(|| JsonError("expected array".into()))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(x) => x.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for BTreeMap<String, T> {
    fn to_json(&self) -> Value {
        Value::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<T: FromJson> FromJson for BTreeMap<String, T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_obj()
            .ok_or_else(|| JsonError("expected object".into()))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), T::from_json(v)?)))
            .collect()
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (*self).to_json()
    }
}

macro_rules! tuple_json {
    ($(($($name:ident : $idx:tt),+ $(,)?))+) => {$(
        impl<$($name: ToJson),+> ToJson for ($($name,)+) {
            fn to_json(&self) -> Value {
                Value::Arr(vec![$(self.$idx.to_json()),+])
            }
        }
    )+};
}

tuple_json! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
}

/// Builder for object values: `obj([("k", v.to_json()), ...])`.
pub fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "0", "-17", "3.5", "\"hi\""] {
            let v = parse(text).unwrap();
            assert_eq!(v.to_compact(), text);
        }
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, 2.5, "x"], "b": {"c": null}, "d": true}"#).unwrap();
        assert_eq!(v.field("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.field("b").unwrap().get("c"), Some(&Value::Null));
        assert_eq!(v.field("d").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "line\nbreak \"quoted\" back\\slash tab\t unicode \u{1F600} nul\u{0001}";
        let json = Value::Str(original.to_string()).to_compact();
        let back = parse(&json).unwrap();
        assert_eq!(back.as_str(), Some(original));
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn keys_mix_multibyte_characters_and_escapes() {
        // Runs of multi-byte characters on either side of escapes, in keys
        // and values, with the escape first, last and in the middle.
        let text = r#"{"día\n€": "ü\"😀\\", "\tkey日本": ["é", "xéy"], "😀": 1}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.field("día\n€").unwrap().as_str(), Some("ü\"😀\\"));
        let arr = v.field("\tkey日本").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_str(), Some("é"));
        assert_eq!(arr[1].as_str(), Some("xéy"));
        assert!(v.field("😀").is_ok());
        assert!(parse(r#"{"ü"#).is_err(), "unterminated key");
    }

    #[test]
    fn f32_values_roundtrip_exactly() {
        for &f in &[0.1f32, -2.5e-8, 3.14159265, f32::MIN_POSITIVE, 1e30] {
            let text = f.to_json().to_compact();
            let back: f32 = f32::from_json(&parse(&text).unwrap()).unwrap();
            assert_eq!(back, f, "{text}");
        }
    }

    #[test]
    fn f32_writes_short_decimals() {
        assert_eq!(0.1f32.to_json().to_compact(), "0.1");
        assert_eq!(2.0f32.to_json().to_compact(), "2");
    }

    #[test]
    fn vec_and_map_conversions() {
        let v = vec![1usize, 2, 3];
        let back: Vec<usize> = from_str(&to_string(&v)).unwrap();
        assert_eq!(back, v);

        let mut m = BTreeMap::new();
        m.insert("x".to_string(), vec![1.0f32, -2.0]);
        let back: BTreeMap<String, Vec<f32>> = from_str(&to_string(&m)).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn option_is_null_or_value() {
        assert_eq!(Some(3usize).to_json().to_compact(), "3");
        assert_eq!(None::<usize>.to_json(), Value::Null);
        let o: Option<usize> = from_str("null").unwrap();
        assert_eq!(o, None);
        let o: Option<usize> = from_str("5").unwrap();
        assert_eq!(o, Some(5));
    }

    #[test]
    fn pretty_output_is_indented_and_reparses() {
        let v = parse(r#"{"a":[1,2],"b":"x"}"#).unwrap();
        let pretty = v.to_pretty();
        assert!(pretty.contains("\n  \"a\": [\n    1,"));
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn errors_carry_context() {
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("tru").is_err());
        assert!(parse("1 2").unwrap_err().0.contains("trailing"));
        let e = usize::from_json(&Value::Str("x".into())).unwrap_err();
        assert!(e.0.contains("integer"));
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(Value::Float(f64::NAN).to_compact(), "null");
        assert_eq!(Value::Float(f64::INFINITY).to_compact(), "null");
    }

    #[test]
    fn big_u64_survives_via_float_fallback() {
        let v = u64::MAX.to_json();
        assert!(matches!(v, Value::Float(_)));
        assert_eq!(12345u64.to_json(), Value::Int(12345));
    }

    #[test]
    fn tuples_serialize_as_arrays() {
        let t = ("name".to_string(), 3usize, 0.5f64);
        assert_eq!(t.to_json().to_compact(), "[\"name\",3,0.5]");
    }
}
