//! The structured event model and its JSONL form.
//!
//! Every event is one flat JSON object per line: `"ev"` first, then
//! every field in insertion order. Encoding and parsing go through
//! the workspace codec ([`rlmul_obs::json`]); on top of it an event
//! line must carry a string `"ev"` and no nested values. The parser is
//! insensitive to whitespace and field order, so logs survive hand
//! edits and third-party pretty-printers.

use rlmul_obs::json::{parse_object, JsonBuilder, JsonValue};
use std::error::Error;
use std::fmt;

/// One structured telemetry record: a kind tag plus ordered fields.
///
/// Field order is preserved through serialization, so seeded runs
/// produce byte-identical logs (timestamps and timings excepted).
/// Field values are flat [`JsonValue`]s; a non-finite float is
/// written as `null` and reads back as NaN through [`Event::get_f64`].
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    kind: String,
    fields: Vec<(String, JsonValue)>,
}

impl Event {
    /// A new event of the given kind (serialized as the `"ev"` key).
    pub fn new(kind: &str) -> Self {
        Event { kind: kind.to_owned(), fields: Vec::new() }
    }

    /// Builder-style field append.
    #[must_use]
    pub fn with<V: Into<JsonValue>>(mut self, key: &str, value: V) -> Self {
        self.fields.push((key.to_owned(), value.into()));
        self
    }

    /// Appends a field in place.
    pub fn push<V: Into<JsonValue>>(&mut self, key: &str, value: V) {
        self.fields.push((key.to_owned(), value.into()));
    }

    /// The event kind.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// The ordered fields.
    pub fn fields(&self) -> &[(String, JsonValue)] {
        &self.fields
    }

    /// First value stored under `key`, if any.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Numeric coercion of the value under `key`: any integer or
    /// float field reads as `f64`, and `null` (a non-finite float on
    /// the way out) reads as NaN.
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            JsonValue::Null => Some(f64::NAN),
            v => v.as_f64(),
        }
    }

    /// Unsigned coercion of the value under `key` (see
    /// [`JsonValue::as_u64`]).
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.get(key)?.as_u64()
    }

    /// String field under `key`.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }

    /// Serializes this event as a single JSONL line (no trailing
    /// newline): `"ev"` first, then the fields in order.
    pub fn to_json(&self) -> String {
        let mut b = JsonBuilder::new().str("ev", &self.kind);
        for (k, v) in &self.fields {
            b = b.value(k, v);
        }
        b.build()
    }

    /// Parses a JSONL line into an event. Inverse of
    /// [`Event::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::Parse`] for anything that is not a
    /// flat JSON object with a string `"ev"` key.
    pub fn parse_json(line: &str) -> Result<Event, TelemetryError> {
        let parse = |what: String| TelemetryError::Parse { what };
        let mut fields = parse_object(line.as_bytes()).map_err(parse)?.into_fields();
        let Some(at) = fields.iter().position(|(k, _)| k == "ev") else {
            return Err(parse("missing \"ev\" key".into()));
        };
        let kind = match fields.remove(at).1 {
            JsonValue::Str(kind) => kind,
            other => return Err(parse(format!("\"ev\" must be a string, found {other:?}"))),
        };
        if let Some((k, _)) = fields.iter().find(|(_, v)| matches!(v, JsonValue::Raw(_))) {
            return Err(parse(format!("nested value under `{k}` is not an event field")));
        }
        Ok(Event { kind, fields })
    }
}

/// Telemetry decoding failures.
#[derive(Debug)]
#[non_exhaustive]
pub enum TelemetryError {
    /// A line is not a well-formed flat JSON event object.
    Parse {
        /// Human-readable description.
        what: String,
    },
}

impl fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelemetryError::Parse { what } => write!(f, "telemetry parse: {what}"),
        }
    }
}

impl Error for TelemetryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_round_trips() {
        let e = Event::new("episode")
            .with("step", 17u64)
            .with("reward", -0.125f64)
            .with("method", "dqn")
            .with("hit", true)
            .with("delta", -3i64)
            .with("whole", 2.0f64)
            .with("text", "a \"quoted\"\\path\nwith\tcontrol\u{1}");
        let line = e.to_json();
        assert!(!line.contains('\n'));
        assert_eq!(Event::parse_json(&line).unwrap(), e, "{line}");
    }

    #[test]
    fn trace_events_round_trip_with_fixed_field_order() {
        let e = Event::new("trace")
            .with("trace_id", "tr-00000007.0")
            .with("seq", 3u64)
            .with("micros", 1250u64)
            .with("kind", "cache_hit")
            .with("detail", "context=00ff");
        let line = e.to_json();
        assert_eq!(
            line,
            r#"{"ev":"trace","trace_id":"tr-00000007.0","seq":3,"micros":1250,"kind":"cache_hit","detail":"context=00ff"}"#
        );
        assert_eq!(Event::parse_json(&line).unwrap(), e);
    }

    #[test]
    fn malformed_events_are_errors() {
        for bad in [
            "",
            "{}",                        // no "ev"
            r#"{"ev":1}"#,               // non-string kind
            r#"{"ev":null}"#,            // non-string kind
            r#"{"ev":"x","a":[1,2]}"#,   // nested
            r#"{"ev":"x","a":{"b":1}}"#, // nested
            r#"{"ev":"x","ev":"y"}"#,    // duplicate kind
            r#"{"ev":"x"} trailing"#,
        ] {
            assert!(Event::parse_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn kind_may_sit_anywhere_and_fields_keep_their_order() {
        let e = Event::parse_json(r#" { "n" : 4 , "ev" : "x", "m": 5 } "#).unwrap();
        assert_eq!(e.kind(), "x");
        let keys: Vec<&str> = e.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["n", "m"]);
        assert_eq!(e.to_json(), r#"{"ev":"x","n":4,"m":5}"#);
    }

    #[test]
    fn null_reads_as_nan() {
        let e = Event::new("x").with("inf", f64::INFINITY);
        let line = e.to_json();
        assert_eq!(line, r#"{"ev":"x","inf":null}"#);
        let back = Event::parse_json(&line).unwrap();
        assert!(back.get_f64("inf").unwrap().is_nan());
        assert_eq!(back.get_u64("inf"), None);
    }

    #[test]
    fn integer_fields_coerce_by_type() {
        let e = Event::parse_json(r#"{"ev":"x","a":3,"b":3.5,"c":-2,"d":"4"}"#).unwrap();
        assert_eq!(e.get("a"), Some(&JsonValue::U64(3)));
        assert_eq!(e.get("c"), Some(&JsonValue::I64(-2)));
        assert_eq!((e.get_u64("a"), e.get_f64("a")), (Some(3), Some(3.0)));
        assert_eq!((e.get_u64("b"), e.get_f64("b")), (None, Some(3.5)));
        assert_eq!((e.get_u64("c"), e.get_f64("c")), (None, Some(-2.0)));
        assert_eq!((e.get_u64("d"), e.get_f64("d"), e.get_str("d")), (None, None, Some("4")));
        // A non-negative signed value built in-process still reads unsigned.
        assert_eq!(Event::new("x").with("n", 7i64).get_u64("n"), Some(7));
    }
}
