//! Edge-case coverage for the hand-rolled JSON parser in
//! `cst_telemetry::json`: escape handling, unicode, nesting depth,
//! exponent-form numbers, and truncated input. Every malformed input must
//! come back as a clean `Err` — the parser sits on the `cstuner report`
//! path and reads every daemon request line, so a hostile line must never
//! panic the CLI or abort the daemon.
//!
//! The string scanner is checked differentially against the decoder it
//! replaced, kept below as a character-by-character reference.

use cst_telemetry::json::{parse, write_escaped, Value, MAX_DEPTH};
use proptest::prelude::*;

#[test]
fn escaped_quotes_and_backslashes_round_trip() {
    for original in [
        r#"a"b"#,
        r"back\slash",
        r#"both \" at once \\ twice"#,
        "\\",
        "\"",
        "\\\"\\",
        "trailing backslash\\",
    ] {
        let mut buf = String::new();
        write_escaped(&mut buf, original);
        assert_eq!(parse(&buf).unwrap().as_str(), Some(original), "via {buf}");
    }
    // Hand-written escapes (not produced by our writer) parse too.
    assert_eq!(parse(r#""\"\\\/""#).unwrap().as_str(), Some("\"\\/"));
    assert_eq!(parse(r#""\b\f\n\r\t""#).unwrap().as_str(), Some("\u{8}\u{c}\n\r\t"));
}

#[test]
fn unicode_strings_round_trip() {
    for original in ["héllo wörld", "日本語テキスト", "emoji 🜁🜂", "mix \u{1} ünïcode\n"]
    {
        let mut buf = String::new();
        write_escaped(&mut buf, original);
        assert_eq!(parse(&buf).unwrap().as_str(), Some(original));
    }
    // \u escapes decode, including a raw control escape.
    assert_eq!(parse("\"\\u00e9\\u0001\"").unwrap().as_str(), Some("é\u{1}"));
    // A lone surrogate escape maps to the replacement character rather
    // than panicking (our writer never produces surrogates).
    assert_eq!(parse(r#""\ud800""#).unwrap().as_str(), Some("\u{fffd}"));
}

#[test]
fn truncated_unicode_escape_is_a_clean_err() {
    assert!(parse(r#""\u00"#).is_err());
    assert!(parse(r#""\u"#).is_err());
    assert!(parse(r#""\uzzzz""#).is_err());
}

#[test]
fn deeply_nested_objects_and_arrays_parse() {
    let depth = 200;
    let mut src = String::new();
    for _ in 0..depth {
        src.push_str(r#"{"k":["#);
    }
    src.push('1');
    for _ in 0..depth {
        src.push_str("]}");
    }
    let mut v = parse(&src).unwrap();
    for _ in 0..depth {
        v = v.get("k").and_then(|a| a.as_arr()).map(|a| a[0].clone()).unwrap();
    }
    assert_eq!(v.as_f64(), Some(1.0));
}

/// Run `f` on a thread with a 2 MiB stack, the size the daemon's
/// connection handlers get.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new().stack_size(2 << 20).spawn(f).unwrap().join().unwrap()
}

#[test]
fn nesting_past_the_cap_is_a_typed_err_not_a_stack_overflow() {
    let arrays = on_small_stack(|| parse(&"[".repeat(1 << 20)));
    assert_eq!(arrays, Err(format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")));
    let objects = on_small_stack(|| parse(&r#"{"k":"#.repeat(1 << 18)));
    assert_eq!(objects, Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", 5 * MAX_DEPTH)));
}

#[test]
fn nesting_at_the_cap_parses_on_a_small_stack() {
    let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(on_small_stack(move || parse(&nest(MAX_DEPTH))).is_ok());
    assert!(on_small_stack(move || parse(&nest(MAX_DEPTH + 1))).is_err());
    let half = MAX_DEPTH / 2;
    let mixed = format!("{}1{}", r#"{"k":["#.repeat(half), "]}".repeat(half));
    assert!(on_small_stack(move || parse(&mixed)).is_ok());
}

#[test]
fn numbers_with_exponents_parse_exactly() {
    for (src, want) in [
        ("1e3", 1e3f64),
        ("1E3", 1e3),
        ("-2.5e-2", -2.5e-2),
        ("6.02e+23", 6.02e23),
        ("0.0", 0.0),
        ("-0.0", -0.0),
        ("1e308", 1e308),
    ] {
        let got = parse(src).unwrap().as_f64().unwrap();
        assert_eq!(got.to_bits(), want.to_bits(), "{src}");
    }
    // Overflowing exponents saturate to infinity per strtod semantics; the
    // parser must not reject or panic.
    assert_eq!(parse("1e999").unwrap().as_f64(), Some(f64::INFINITY));
    // Malformed numbers are clean errors.
    for bad in ["1e", "1e+", "--1", "1.2.3", "+1", "0x10"] {
        assert!(parse(bad).is_err(), "{bad} should not parse");
    }
}

#[test]
fn truncated_input_is_a_clean_err_never_a_panic() {
    let full = r#"{"type":"iteration","seq":3,"v_s":1.5,"xs":[1,2,3],"s":"a\"b"}"#;
    for end in 1..full.len() {
        if !full.is_char_boundary(end) {
            continue;
        }
        let cut = &full[..end];
        assert!(parse(cut).is_err(), "truncation at {end} ({cut}) parsed");
    }
    assert!(parse(full).is_ok());
    assert!(parse("").is_err());
    assert!(parse("   ").is_err());
}

#[test]
fn objects_keep_key_order_and_allow_duplicates_first_wins() {
    let v = parse(r#"{"b":1,"a":2}"#).unwrap();
    match &v {
        Value::Obj(fields) => {
            assert_eq!(fields[0].0, "b");
            assert_eq!(fields[1].0, "a");
        }
        other => panic!("expected object, got {other:?}"),
    }
    // `get` returns the first occurrence of a duplicated key.
    let dup = parse(r#"{"k":1,"k":2}"#).unwrap();
    assert_eq!(dup.get("k").and_then(Value::as_f64), Some(1.0));
}

#[test]
fn a_four_mib_string_parses_in_one_pass() {
    // A decoder that re-validates the rest of the input per character
    // (the reference below) needs hours for this input. No timing
    // assertion; the test only has to finish.
    let literal = r#"héllo wörld 日本 🜁 \"q\" \\ \u00e9\n"#;
    let decoded = "héllo wörld 日本 🜁 \"q\" \\ é\n";
    let copies = (4 << 20) / literal.len();
    let doc = format!("\"{}\"", literal.repeat(copies));
    assert_eq!(parse(&doc).unwrap().as_str(), Some(decoded.repeat(copies).as_str()));
}

/// The string decoder as it was before the run scanner: one `char` at a
/// time, re-validating the rest of the input for each. It reads
/// documents that are one string literal between optional whitespace
/// and returns what `parse` returned for them, errors included.
fn reference_parse_string_doc(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let err = |pos: usize, msg: &str| format!("{msg} at byte {pos}");
    let skip_ws = |mut pos: usize| {
        while matches!(bytes.get(pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            pos += 1;
        }
        pos
    };
    let mut pos = skip_ws(0);
    if bytes.get(pos) != Some(&b'"') {
        return Err(err(pos, "expected a JSON value"));
    }
    pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(pos) {
            None => return Err(err(pos, "unterminated string")),
            Some(b'"') => {
                pos += 1;
                break;
            }
            Some(b'\\') => {
                pos += 1;
                match bytes.get(pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(pos + 1..pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| err(pos, "truncated \\u escape"))?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| err(pos, "bad \\u escape"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        pos += 4;
                    }
                    _ => return Err(err(pos, "bad escape")),
                }
                pos += 1;
            }
            Some(_) => {
                let rest =
                    std::str::from_utf8(&bytes[pos..]).map_err(|_| err(pos, "invalid utf-8"))?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                pos += c.len_utf8();
            }
        }
    }
    pos = skip_ws(pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing data"));
    }
    Ok(Value::Str(out))
}

/// String-literal fragments: plain and multi-byte text, raw control
/// characters, every escape, `\u` escapes (valid, surrogate, short,
/// non-hex, sign-prefixed), bad escapes and a stray quote.
const PIECES: &[&str] = &[
    "a", "Zq7 ", "é", "ü", "日本", "🜁", "\u{1}", "\t", "\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n",
    "\\r", "\\t", "\\u00e9", "\\u65E5", "\\ud800", "\\u0001", "\\u12", "\\uzzzz", "\\u+abc",
    "\\uéé", "\\x", "\\é", "\"",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn run_scanner_matches_the_per_character_reference(
        picks in prop::collection::vec(0usize..PIECES.len(), 0..24),
        cut in 0usize..1000,
    ) {
        let body: String = picks.iter().map(|&i| PIECES[i]).collect();
        let mut doc = format!(" \"{body}\" ");
        // Truncate a third of the cases at a character boundary.
        if cut < 333 {
            let mut end = cut * doc.len() / 333;
            while !doc.is_char_boundary(end) {
                end -= 1;
            }
            doc.truncate(end);
        }
        prop_assert_eq!(parse(&doc), reference_parse_string_doc(&doc), "doc {:?}", doc);
    }
}
