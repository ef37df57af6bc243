//! The workspace's one JSON codec: a hand-rolled parser for flat-ish
//! objects and a small builder that renders them.
//!
//! Three surfaces speak it — the job API's request and response
//! bodies, the per-job trace renderer, and the JSONL telemetry log —
//! so they share one lexer, one escaper and one float writer.
//!
//! Scalar values parse into typed [`JsonValue`]s: integers stay exact
//! (`U64`, then `I64`, and only then `F64`), so a seed above 2^53
//! survives the trip. Nested objects and arrays are checked against the
//! full grammar, then captured verbatim as [`JsonValue::Raw`]; callers that need
//! one re-parse it (a terminal job's status nests its `result`
//! object, a stored trace nests its `events` array). The builder
//! exposes the same `raw` splicing for pre-rendered sub-objects.
//!
//! Everything here is error-returning, never panicking: the parser
//! sits on the job server's request path and on `rlmul report`'s
//! reading of untrusted log lines.

use std::fmt::Write as _;

/// 2^64 as an `f64`: the first float [`JsonValue::as_u64`] refuses.
const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;

/// Deepest object/array nesting a nested value may have; deeper input
/// is refused instead of recursing without bound.
const MAX_DEPTH: usize = 512;

/// A parsed or to-be-rendered JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// String value.
    Str(String),
    /// A number written without fraction or exponent that fits `u64`.
    U64(u64),
    /// A negative integer that fits `i64`.
    I64(i64),
    /// Any other number. Non-finite values render as `null`.
    F64(f64),
    /// Boolean value.
    Bool(bool),
    /// JSON `null`.
    Null,
    /// A nested object or array, captured verbatim (bracket-matched
    /// and string-aware) but not interpreted.
    Raw(String),
}

impl JsonValue {
    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            JsonValue::U64(n) => Some(n as f64),
            JsonValue::I64(n) => Some(n as f64),
            JsonValue::F64(x) => Some(x),
            _ => None,
        }
    }

    /// The value as a non-negative integer: any integer in range, or
    /// an integral float below 2^64 (so `8.0` reads as `8`).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            JsonValue::U64(n) => Some(n),
            JsonValue::I64(n) => u64::try_from(n).ok(),
            JsonValue::F64(x) if x >= 0.0 && x.fract() == 0.0 && x < TWO_POW_64 => Some(x as u64),
            _ => None,
        }
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::U64(v)
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::U64(v as u64)
    }
}
impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::U64(v as u64)
    }
}
impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::I64(v)
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::F64(v)
    }
}
impl From<f32> for JsonValue {
    fn from(v: f32) -> Self {
        JsonValue::F64(v as f64)
    }
}
impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_owned())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

/// A parsed JSON object: `(key, value)` pairs in document order, keys
/// unique.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JsonObject {
    fields: Vec<(String, JsonValue)>,
}

impl JsonObject {
    /// Looks up a field by key.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// String field accessor.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(JsonValue::as_str)
    }

    /// Unsigned-integer field accessor (see [`JsonValue::as_u64`]).
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(JsonValue::as_u64)
    }

    /// Numeric field accessor (see [`JsonValue::as_f64`]).
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(JsonValue::as_f64)
    }

    /// All fields in document order.
    pub fn fields(&self) -> &[(String, JsonValue)] {
        &self.fields
    }

    /// Consumes the object, yielding its fields in document order.
    pub fn into_fields(self) -> Vec<(String, JsonValue)> {
        self.fields
    }
}

/// Parses one JSON object (UTF-8 bytes). Duplicate keys are rejected:
/// accepting one would make accessors answer from whichever copy they
/// scan first, a request-smuggling foothold.
///
/// # Errors
///
/// A human-readable description of the first syntax problem, suitable
/// for a 400 response body.
pub fn parse_object(bytes: &[u8]) -> Result<JsonObject, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "body is not UTF-8".to_string())?;
    let mut p = Parser { text, bytes: text.as_bytes(), pos: 0 };
    let object = p.object()?;
    p.end("object")?;
    Ok(object)
}

/// Parses a JSON array of objects — the shape of the `/jobs` listing
/// and of a stored trace's `events` field. Each element obeys the
/// same rules as [`parse_object`].
///
/// # Errors
///
/// A human-readable description of the first syntax problem.
pub fn parse_object_array(text: &str) -> Result<Vec<JsonObject>, String> {
    let mut p = Parser { text, bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    p.eat(b'[')?;
    let mut out = Vec::new();
    p.skip_ws();
    if !p.peek_is(b']') {
        loop {
            p.skip_ws();
            if !p.peek_is(b'{') {
                return Err(format!("array element at byte {} is not an object", p.pos));
            }
            out.push(p.object()?);
            p.skip_ws();
            if !p.eat_if(b',') {
                break;
            }
        }
    }
    p.skip_ws();
    p.eat(b']')?;
    p.end("array")?;
    Ok(out)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    /// Skips JSON's four whitespace bytes (space, tab, LF, CR).
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek_is(&self, b: u8) -> bool {
        self.bytes.get(self.pos) == Some(&b)
    }

    fn eat_if(&mut self, b: u8) -> bool {
        let hit = self.peek_is(b);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.eat_if(b) {
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    /// The text between two byte offsets. Callers only cut next to
    /// ASCII bytes, so the `None` arm is unreachable in practice.
    fn slice(&self, start: usize, end: usize) -> Result<&str, String> {
        self.text.get(start..end).ok_or_else(|| format!("bad UTF-8 boundary at byte {start}"))
    }

    fn end(&mut self, what: &str) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("trailing characters after {what}"))
        }
    }

    fn object(&mut self) -> Result<JsonObject, String> {
        self.skip_ws();
        self.eat(b'{')?;
        let mut fields: Vec<(String, JsonValue)> = Vec::new();
        self.skip_ws();
        if !self.peek_is(b'}') {
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.eat(b':')?;
                self.skip_ws();
                let value = self.value()?;
                if fields.iter().any(|(k, _)| *k == key) {
                    return Err(format!("duplicate key `{key}`"));
                }
                fields.push((key, value));
                self.skip_ws();
                if !self.eat_if(b',') {
                    break;
                }
            }
        }
        self.skip_ws();
        self.eat(b'}')?;
        Ok(JsonObject { fields })
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte whole.
            let run = self.pos;
            while self.bytes.get(self.pos).is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(self.slice(run, self.pos)?);
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err("unterminated string".into());
            };
            if b < 0x20 {
                return Err(format!("raw control byte {b:#04x} in string at byte {}", self.pos));
            }
            self.pos += 1;
            if b == b'"' {
                return Ok(out);
            }
            let Some(&esc) = self.bytes.get(self.pos) else {
                return Err("unterminated escape".into());
            };
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
                    let mut code = self.hex4().ok_or_else(|| "bad \\u escape".to_string())?;
                    // A high surrogate followed by an escaped low one
                    // is one character outside the BMP; a lone
                    // surrogate becomes U+FFFD.
                    if (0xd800..0xdc00).contains(&code)
                        && self.bytes.get(self.pos..self.pos + 2) == Some(b"\\u")
                    {
                        self.pos += 2;
                        let low = self.hex4().ok_or_else(|| "bad \\u escape".to_string())?;
                        if (0xdc00..0xe000).contains(&low) {
                            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                        } else {
                            out.push('\u{fffd}');
                            code = low;
                        }
                    }
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                other => return Err(format!("unknown escape '\\{}'", other as char)),
            }
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.bytes.get(self.pos) {
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'{' | b'[') => self.raw(),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    /// Reads the four hex digits of a `\\u` escape.
    fn hex4(&mut self) -> Option<u32> {
        let hex = self.bytes.get(self.pos..self.pos + 4)?;
        let code =
            hex.iter().try_fold(0u32, |acc, &h| Some(acc << 4 | (h as char).to_digit(16)?))?;
        self.pos += 4;
        Some(code)
    }

    /// Skips a run of ASCII digits; returns how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// One number in JSON's grammar: `-? (0 | [1-9][0-9]*) (. [0-9]+)?
    /// ([eE] [+-]? [0-9]+)?`. Integers that fit stay exact integers.
    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        let bad = || format!("invalid number at byte {start}");
        self.eat_if(b'-');
        let int_start = self.pos;
        let int_digits = self.digits();
        if int_digits == 0 || (int_digits > 1 && self.peek_at(int_start) == Some(b'0')) {
            return Err(bad());
        }
        let mut integral = true;
        if self.eat_if(b'.') {
            integral = false;
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        if self.eat_if(b'e') || self.eat_if(b'E') {
            integral = false;
            let _ = self.eat_if(b'+') || self.eat_if(b'-');
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        let text = self.slice(start, self.pos)?;
        if integral {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(JsonValue::I64(n));
            }
        }
        text.parse::<f64>().map(JsonValue::F64).map_err(|_| bad())
    }

    fn peek_at(&self, pos: usize) -> Option<u8> {
        self.bytes.get(pos).copied()
    }

    /// Captures a nested object or array verbatim, after checking that
    /// it is valid JSON throughout.
    fn raw(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        self.skip_nested(0)?;
        Ok(JsonValue::Raw(self.slice(start, self.pos)?.to_owned()))
    }

    /// Validates one object or array starting at `self.pos` and moves
    /// past it. A closer of the wrong kind is reported as mismatched.
    fn skip_nested(&mut self, depth: usize) -> Result<(), String> {
        if depth >= MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {}", self.pos));
        }
        let (close, other) = if self.eat_if(b'{') {
            (b'}', b']')
        } else {
            self.eat(b'[')?;
            (b']', b'}')
        };
        self.skip_ws();
        if self.eat_if(close) {
            return Ok(());
        }
        loop {
            self.skip_ws();
            if close == b'}' {
                self.string()?;
                self.skip_ws();
                self.eat(b':')?;
                self.skip_ws();
            }
            match self.peek_at(self.pos) {
                Some(b'{' | b'[') => self.skip_nested(depth + 1)?,
                _ => {
                    self.value()?;
                }
            }
            self.skip_ws();
            if self.eat_if(b',') {
                continue;
            }
            if self.eat_if(close) {
                return Ok(());
            }
            return Err(match self.peek_at(self.pos) {
                Some(b) if b == other => format!("mismatched '{}' at byte {}", b as char, self.pos),
                Some(_) => format!("expected ',' or '{}' at byte {}", close as char, self.pos),
                None => "unterminated nested value".into(),
            });
        }
    }

    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("expected `{lit}` at byte {}", self.pos))
        }
    }
}

/// Incremental JSON object builder. Fields render in insertion order;
/// strings are escaped; floats use Rust's shortest-round-trip
/// formatting with a `.0` kept on whole values so they parse back as
/// floats, and non-finite floats become `null`.
#[derive(Debug)]
pub struct JsonBuilder {
    out: String,
    any: bool,
}

impl Default for JsonBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonBuilder {
    /// An empty object (`{`).
    pub fn new() -> Self {
        JsonBuilder { out: String::from("{"), any: false }
    }

    fn key(&mut self, key: &str) {
        if self.any {
            self.out.push(',');
        }
        self.any = true;
        escape_into(&mut self.out, key);
        self.out.push(':');
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        escape_into(&mut self.out, value);
        self
    }

    /// Adds an unsigned-integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// Adds a signed-integer field.
    pub fn i64(mut self, key: &str, value: i64) -> Self {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// Adds a float field (`null` when non-finite).
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        if value.is_finite() {
            let start = self.out.len();
            let _ = write!(self.out, "{value}");
            // "1" would parse back as an integer; keep floatness.
            if !self.out[start..].contains(['.', 'e', 'E']) {
                self.out.push_str(".0");
            }
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        self.out.push_str(if value { "true" } else { "false" });
        self
    }

    /// Splices pre-rendered JSON (an object or array) as a field
    /// value. The caller guarantees `value` is valid JSON.
    pub fn raw(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.out.push_str(value);
        self
    }

    /// Adds a field of any [`JsonValue`] kind.
    pub fn value(self, key: &str, value: &JsonValue) -> Self {
        match value {
            JsonValue::Str(s) => self.str(key, s),
            JsonValue::U64(n) => self.u64(key, *n),
            JsonValue::I64(n) => self.i64(key, *n),
            JsonValue::F64(x) => self.f64(key, *x),
            JsonValue::Bool(b) => self.bool(key, *b),
            JsonValue::Null => self.raw(key, "null"),
            JsonValue::Raw(r) => self.raw(key, r),
        }
    }

    /// Closes and returns the rendered object.
    pub fn build(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// Renders a JSON array from pre-rendered element strings.
pub fn json_array(elements: &[String]) -> String {
    let mut out = String::from("[");
    for (i, e) in elements.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(e);
    }
    out.push(']');
    out
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_objects() {
        let o = parse_object(br#"{"bits": 8, "kind": "and", "deep": false, "x": 1.5}"#).unwrap();
        assert_eq!(o.get_u64("bits"), Some(8));
        assert_eq!(o.get_str("kind"), Some("and"));
        assert_eq!(o.get("deep"), Some(&JsonValue::Bool(false)));
        assert_eq!(o.get_f64("x"), Some(1.5));
        assert_eq!(o.get("missing"), None);
    }

    #[test]
    fn captures_nested_values_verbatim() {
        let o = parse_object(br#"{"id":7,"result":{"best_cost":1.5,"tags":["a","}"]},"ok":true}"#)
            .unwrap();
        assert_eq!(o.get_u64("id"), Some(7));
        assert_eq!(
            o.get("result"),
            Some(&JsonValue::Raw(r#"{"best_cost":1.5,"tags":["a","}"]}"#.into()))
        );
        assert_eq!(o.get("ok"), Some(&JsonValue::Bool(true)));
        // Nested values are opaque: typed accessors refuse them.
        assert_eq!(o.get_u64("result"), None);
        // Arrays of objects (the /jobs listing shape) round-trip too.
        let list = parse_object(br#"{"count":2,"jobs":[{"id":1},{"id":2}]}"#).unwrap();
        assert_eq!(list.get("jobs"), Some(&JsonValue::Raw(r#"[{"id":1},{"id":2}]"#.into())));
        assert!(parse_object(br#"{"a": {"b": 1}"#).is_err(), "unbalanced nesting");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_object(b"not json").is_err());
        assert!(parse_object(br#"{"a": 1} trailing"#).is_err());
        assert!(parse_object(&[0xff, 0xfe]).is_err());
    }

    #[test]
    fn malformed_lines_are_errors() {
        for bad in ["", "{", r#"{"a":}"#, r#"{"a":1,}"#, r#"{"a" 1}"#, r#"{"a":1"#, r#"{"a":-}"#] {
            assert!(parse_object(bad.as_bytes()).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn escapes_round_trip() {
        for text in ["a\"b\\c\nd", "a \"quoted\"\\path\nwith\tcontrol\u{1}\u{8}\u{c}\r"] {
            let body = JsonBuilder::new().str("msg", text).u64("n", 3).build();
            let o = parse_object(body.as_bytes()).unwrap();
            assert_eq!(o.get_str("msg"), Some(text), "{body}");
            assert_eq!(o.get_u64("n"), Some(3));
        }
    }

    #[test]
    fn builder_renders_arrays_and_floats() {
        let rows = vec![JsonBuilder::new().u64("id", 1).build()];
        let body = JsonBuilder::new()
            .raw("jobs", &json_array(&rows))
            .f64("p50", 0.5)
            .f64("bad", f64::NAN)
            .bool("ok", true)
            .i64("delta", -3)
            .value("none", &JsonValue::Null)
            .build();
        assert_eq!(
            body,
            r#"{"jobs":[{"id":1}],"p50":0.5,"bad":null,"ok":true,"delta":-3,"none":null}"#
        );
    }

    #[test]
    fn object_arrays_parse_per_element() {
        let rows = parse_object_array(r#"[{"seq":0,"kind":"a"},{"seq":1,"kind":"b"}]"#).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get_u64("seq"), Some(0));
        assert_eq!(rows[1].get_str("kind"), Some("b"));
        assert!(parse_object_array("[]").unwrap().is_empty());
        assert!(parse_object_array(r#"[{"a":1},2]"#).is_err(), "non-object element");
        assert!(parse_object_array(r#"[{"a":1}"#).is_err(), "unterminated array");
        assert!(parse_object_array(r#"[{"a":1,"a":2}]"#).is_err(), "duplicate key in element");
    }

    #[test]
    fn integral_floats_keep_floatness() {
        let body = JsonBuilder::new().f64("v", 2.0).build();
        assert_eq!(body, r#"{"v":2.0}"#);
        let o = parse_object(body.as_bytes()).unwrap();
        assert_eq!(o.get_f64("v"), Some(2.0));
        // Readers of integer fields still take a whole float.
        assert_eq!(o.get_u64("v"), Some(2));
    }

    #[test]
    fn whole_valued_floats_stay_floats() {
        let body = JsonBuilder::new().f64("v", 1.0).f64("w", -2.0).f64("big", 1e21).build();
        let o = parse_object(body.as_bytes()).unwrap();
        assert_eq!(o.get("v"), Some(&JsonValue::F64(1.0)), "{body}");
        assert_eq!(o.get("w"), Some(&JsonValue::F64(-2.0)), "{body}");
        assert_eq!(o.get("big"), Some(&JsonValue::F64(1e21)), "{body}");
    }

    #[test]
    fn integers_and_floats_keep_their_type() {
        let o = parse_object(br#"{"a":3,"b":3.5,"c":-2,"d":1e-3}"#).unwrap();
        assert_eq!(o.get("a"), Some(&JsonValue::U64(3)));
        assert_eq!(o.get("b"), Some(&JsonValue::F64(3.5)));
        assert_eq!(o.get("c"), Some(&JsonValue::I64(-2)));
        assert_eq!(o.get("d"), Some(&JsonValue::F64(1e-3)));
        // Negative integers are numbers, not unsigned ones.
        assert_eq!(o.get_u64("c"), None);
        assert_eq!(o.get_f64("c"), Some(-2.0));
    }

    #[test]
    fn non_finite_floats_degrade_to_null() {
        let body = JsonBuilder::new().f64("inf", f64::INFINITY).f64("nan", f64::NAN).build();
        assert_eq!(body, r#"{"inf":null,"nan":null}"#);
        let o = parse_object(body.as_bytes()).unwrap();
        assert_eq!(o.get("inf"), Some(&JsonValue::Null));
        assert_eq!(o.get_f64("inf"), None);
    }

    #[test]
    fn whitespace_is_tolerated() {
        let o = parse_object(b" {\t\"ev\" :\r\n \"x\" , \"n\" : 4 } ").unwrap();
        assert_eq!(o.get_str("ev"), Some("x"));
        assert_eq!(o.get_u64("n"), Some(4));
        // Only JSON's four whitespace bytes: form feed is not one.
        assert!(parse_object(b"{\x0c\"n\":4}").is_err());
    }
}
