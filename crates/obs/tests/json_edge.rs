//! Edge-case coverage for the workspace's hand-rolled JSON codec: the
//! parser sits directly on the job server's request path and on
//! `rlmul report`'s reading of log lines, so every malformed body
//! must come back as a clean `Err` (which the API turns into a 400)
//! — never a panic, never a silently wrong parse.
//!
//! Fixed corpus first (the shapes we know are nasty: escapes, deep
//! nesting, mismatched brackets, truncation, duplicate keys, big
//! integers), then deterministic property sweeps over generated
//! bodies and random truncations/corruptions.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlmul_obs::json::{parse_object, JsonBuilder, JsonValue};

// ---------------------------------------------------------------
// Fixed corpus: escape sequences
// ---------------------------------------------------------------

#[test]
fn escape_sequences_decode_exactly() {
    let o = parse_object(br#"{"s":"a\"b\\c\/d\ne\rf\tgA\u00e9"}"#).unwrap();
    assert_eq!(o.get_str("s"), Some("a\"b\\c/d\ne\rf\tgA\u{e9}"));
    // Backspace and form feed are JSON escapes too.
    let o = parse_object(br#"{"s":"x\by\fz","\b\f":"\u0008"}"#).unwrap();
    assert_eq!(o.get_str("s"), Some("x\u{8}y\u{c}z"));
    assert_eq!(o.get_str("\u{8}\u{c}"), Some("\u{8}"));
}

#[test]
fn escaped_quotes_do_not_end_strings_or_keys() {
    let o = parse_object(br#"{"k\"ey":"v\"alue"}"#).unwrap();
    assert_eq!(o.get_str("k\"ey"), Some("v\"alue"));
}

#[test]
fn broken_escapes_are_clean_errors() {
    let cases: &[&[u8]] = &[
        br#"{"s":"\x"}"#,     // unknown escape
        br#"{"s":"\"#,        // escape at end of input
        br#"{"s":"\u00"}"#,   // truncated \u
        br#"{"s":"\u00zz"}"#, // non-hex \u
        br#"{"s":"\u+0ff"}"#, // sign inside \u
        br#"{"s":"unterminated"#,
    ];
    for body in cases {
        let err = parse_object(body).expect_err(&format!("{}", String::from_utf8_lossy(body)));
        assert!(!err.is_empty());
    }
}

#[test]
fn lone_surrogate_escape_degrades_to_replacement_char() {
    // \ud800 is not a valid scalar value; the parser substitutes
    // U+FFFD rather than erroring or panicking in char::from_u32.
    let o = parse_object(br#"{"s":"\ud800"}"#).unwrap();
    assert_eq!(o.get_str("s"), Some("\u{fffd}"));
}

#[test]
fn escaped_surrogate_pairs_decode_to_one_character() {
    let o = parse_object(br#"{"s":"\ud83d\ude00","t":"a\uD834\uDD1Eb"}"#).unwrap();
    assert_eq!(o.get_str("s"), Some("\u{1f600}"));
    assert_eq!(o.get_str("t"), Some("a\u{1d11e}b"));
    // A high surrogate followed by anything but a low one stays a
    // lone surrogate; the following escape still decodes.
    let o = parse_object(br#"{"s":"\ud83d\u0041"}"#).unwrap();
    assert_eq!(o.get_str("s"), Some("\u{fffd}A"));
}

#[test]
fn raw_control_bytes_in_strings_are_errors() {
    for body in [
        b"{\"s\":\"a\nb\"}".as_slice(),
        b"{\"s\":\"\x01\"}".as_slice(),
        b"{\"k\tey\":1}".as_slice(),
        b"{\"v\":{\"s\":\"\x1f\"}}".as_slice(),
    ] {
        let err = parse_object(body).expect_err(&String::from_utf8_lossy(body));
        assert!(err.contains("control byte"), "{err}");
    }
    // Escaped, the same characters are fine.
    assert_eq!(parse_object(br#"{"s":"a\nb"}"#).unwrap().get_str("s"), Some("a\nb"));
}

// ---------------------------------------------------------------
// Fixed corpus: deeply nested Raw values
// ---------------------------------------------------------------

#[test]
fn deeply_nested_raw_values_capture_verbatim() {
    // 128 levels of object nesting, captured as one opaque Raw.
    let mut inner = String::from(r#"{"leaf":1}"#);
    for _ in 0..127 {
        inner = format!(r#"{{"n":{inner}}}"#);
    }
    let body = format!(r#"{{"deep":{inner},"after":true}}"#);
    let o = parse_object(body.as_bytes()).unwrap();
    assert_eq!(o.get("deep"), Some(&JsonValue::Raw(inner)));
    assert_eq!(o.get("after"), Some(&JsonValue::Bool(true)));
}

#[test]
fn nested_raw_tracks_brackets_inside_strings() {
    let o = parse_object(br#"{"v":{"a":"}{][","b":["{","]"]},"tail":0}"#).unwrap();
    assert_eq!(o.get("v"), Some(&JsonValue::Raw(r#"{"a":"}{][","b":["{","]"]}"#.into())));
    assert_eq!(o.get_u64("tail"), Some(0));
}

#[test]
fn unbalanced_nesting_is_a_clean_error() {
    assert!(parse_object(br#"{"v":{"a":1"#).is_err());
    assert!(parse_object(br#"{"v":[[[1]]"#).is_err());
    assert!(parse_object(br#"{"v":{"s":"{"#).is_err());
    // A closer of the wrong kind is an error, not a balanced value.
    for body in [
        br#"{"v":{"a":[1}}"#.as_slice(),
        br#"{"v":[{"a":1]}"#.as_slice(),
        br#"{"v":[1}"#.as_slice(),
        br#"{"v":{"a":"]"]}"#.as_slice(),
    ] {
        let err = parse_object(body).expect_err(&String::from_utf8_lossy(body));
        assert!(err.contains("mismatched"), "{err}");
    }
}

#[test]
fn nested_values_are_validated_not_just_bracket_counted() {
    for body in [
        br#"{"v":{"a":1 2}}"#.as_slice(),
        br#"{"v":[1 2]}"#.as_slice(),
        br#"{"v":{"a"}}"#.as_slice(),
        br#"{"v":{1:2}}"#.as_slice(),
        br#"{"v":[1,]}"#.as_slice(),
        br#"{"v":{"a":tru}}"#.as_slice(),
        br#"{"v":[007]}"#.as_slice(),
        br#"{"v":{"a":"\x"}}"#.as_slice(),
    ] {
        assert!(parse_object(body).is_err(), "{}", String::from_utf8_lossy(body));
    }
    let o = parse_object(br#"{"v":{"a":[1,-2.5e3,true,null,{"b":"c"}],"d":{}},"w":[]}"#).unwrap();
    assert_eq!(o.get("w"), Some(&JsonValue::Raw("[]".into())));
}

#[test]
fn nesting_beyond_the_depth_bound_is_a_clean_error() {
    let deep = format!(r#"{{"v":{}{}}}"#, "[".repeat(100_000), "]".repeat(100_000));
    assert!(parse_object(deep.as_bytes()).is_err());
}

// ---------------------------------------------------------------
// Fixed corpus: integers
// ---------------------------------------------------------------

#[test]
fn numbers_follow_the_json_grammar() {
    for bad in ["+8", "007", "-01", ".5", "1.", "-", "1e", "1e+", "--1", "0x10", "1.e5"] {
        let body = format!(r#"{{"n":{bad}}}"#);
        assert!(parse_object(body.as_bytes()).is_err(), "{bad} must be rejected");
    }
    let o = parse_object(br#"{"a":0,"b":-0,"c":0.5,"d":1e5,"e":1E+2,"f":-2.5e-3,"g":10}"#).unwrap();
    assert_eq!(o.get("a"), Some(&JsonValue::U64(0)));
    assert_eq!(o.get("b"), Some(&JsonValue::I64(0)));
    assert_eq!(o.get_f64("c"), Some(0.5));
    assert_eq!(o.get_f64("d"), Some(1e5));
    assert_eq!(o.get_f64("e"), Some(100.0));
    assert_eq!(o.get_f64("f"), Some(-2.5e-3));
    assert_eq!(o.get("g"), Some(&JsonValue::U64(10)));
}

#[test]
fn integers_keep_full_precision() {
    // 2^53 + 1 has no exact f64; it must not be rounded to 2^53.
    let o = parse_object(br#"{"seed":9007199254740993,"max":18446744073709551615}"#).unwrap();
    assert_eq!(o.get("seed"), Some(&JsonValue::U64(9_007_199_254_740_993)));
    assert_eq!(o.get_u64("max"), Some(u64::MAX));
    // One past u64::MAX is a float no integer reader accepts.
    let o = parse_object(br#"{"seed":18446744073709551616}"#).unwrap();
    assert_eq!(o.get_u64("seed"), None);
    assert_eq!(o.get_f64("seed"), Some(18_446_744_073_709_551_616.0));
    // Negative integers keep their sign and type.
    let o = parse_object(br#"{"d":-9223372036854775808}"#).unwrap();
    assert_eq!(o.get("d"), Some(&JsonValue::I64(i64::MIN)));
}

// ---------------------------------------------------------------
// Fixed corpus: duplicate keys
// ---------------------------------------------------------------

#[test]
fn duplicate_keys_are_rejected() {
    let err = parse_object(br#"{"bits":4,"bits":64}"#).unwrap_err();
    assert!(err.contains("duplicate key `bits`"), "{err}");
    // Escaped spellings that decode to the same key count too.
    assert!(parse_object(br#"{"ab":1,"ab":2}"#).is_err(), "escaped duplicate");
    // Distinct keys stay fine.
    assert!(parse_object(br#"{"a":1,"b":1,"c":1}"#).is_ok());
}

// ---------------------------------------------------------------
// Property sweeps
// ---------------------------------------------------------------

/// A printable string with embedded JSON-hostile characters mixed in.
fn hostile_string(rng: &mut StdRng) -> String {
    let pool = ['"', '\\', '{', '}', '[', ']', ',', ':', '\n', '\t', 'a', 'é', '∑', ' '];
    let len = rng.gen_range(0..24);
    (0..len).map(|_| pool[rng.gen_range(0..pool.len())]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Builder output always re-parses, and hostile strings survive
    /// the escape/unescape round trip exactly.
    #[test]
    fn built_bodies_round_trip(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s1 = hostile_string(&mut rng);
        let s2 = hostile_string(&mut rng);
        let n: u64 = rng.gen_range(0..1 << 40);
        let body = JsonBuilder::new()
            .str("first", &s1)
            .u64("n", n)
            .str("second", &s2)
            .bool("flag", n.is_multiple_of(2))
            .build();
        let o = parse_object(body.as_bytes()).unwrap();
        prop_assert_eq!(o.get_str("first"), Some(s1.as_str()));
        prop_assert_eq!(o.get_str("second"), Some(s2.as_str()));
        prop_assert_eq!(o.get_u64("n"), Some(n));
    }

    /// Every strict prefix of a valid body is an error, never a panic
    /// and never an accidental parse.
    #[test]
    fn truncated_bodies_are_clean_errors(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let body = JsonBuilder::new()
            .str("s", &hostile_string(&mut rng))
            .raw("nest", r#"{"a":[1,{"b":"}"}]}"#)
            .u64("n", rng.gen_range(0..1000))
            .build();
        prop_assert!(parse_object(body.as_bytes()).is_ok());
        for cut in 0..body.len() {
            let prefix = &body.as_bytes()[..cut];
            prop_assert!(parse_object(prefix).is_err(), "cut {} of {}", cut, body);
        }
    }

    /// Arbitrary byte garbage never panics the parser.
    #[test]
    fn random_bytes_never_panic(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.gen_range(0..64);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let _ = parse_object(&bytes); // Ok or Err, both fine — just no panic
    }

    /// A duplicated key inserted at a random position is always
    /// rejected.
    #[test]
    fn any_duplicate_key_is_rejected(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = ["bits", "steps", "seed", "tenant"];
        let dup = keys[rng.gen_range(0..keys.len())];
        let mut fields: Vec<String> =
            keys.iter().map(|k| format!(r#""{k}":1"#)).collect();
        let at = rng.gen_range(0..=fields.len());
        fields.insert(at, format!(r#""{dup}":2"#));
        let body = format!("{{{}}}", fields.join(","));
        let err = parse_object(body.as_bytes()).unwrap_err();
        prop_assert!(err.contains("duplicate key"), "{}: {}", body, err);
    }
}
