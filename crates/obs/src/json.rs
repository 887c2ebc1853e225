//! Canonical JSON emission and parsing, shared by every wire format in the workspace.
//!
//! The workspace has no serialization dependency: campaign reports, shard reports, and
//! execution traces all serialize through this small hand-rolled writer. The output is
//! *canonical*: fixed key order, no whitespace, and floats rendered with Rust's
//! shortest-round-trip `Display` — so two documents with identical contents produce
//! byte-identical strings, which the determinism tests (1 worker vs N workers, record
//! vs replay) rely on.
//!
//! The reverse direction is a minimal recursive-descent JSON reader ([`parse`]).
//! Numbers keep their **raw token** ([`JsonValue::Number`]) instead of being eagerly
//! converted, so integer fields parse exactly (`u64` seeds above 2^53 survive) and
//! float fields round-trip bit for bit through Rust's shortest-round-trip rendering.

use dg_cloudsim::InterferenceProfile;
use std::fmt::Write as _;

/// Appends a JSON string literal (with escaping) to `out`.
pub fn push_str_literal(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
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

/// Appends a JSON number for `value`. JSON has no representation for non-finite
/// floats, so they are encoded as the strings `"inf"`, `"-inf"`, and `"nan"` — the
/// same encoding execution traces use — and [`parse_f64`] restores them losslessly.
/// (Reports used to write `null` here, which collapsed `±inf` to NaN on the way
/// back in.)
pub fn push_f64(out: &mut String, value: f64) {
    if value.is_finite() {
        // Rust's f64 Display is the shortest decimal string that round-trips, never in
        // scientific notation — both JSON-valid and deterministic.
        let _ = write!(out, "{value}");
    } else if value.is_nan() {
        out.push_str("\"nan\"");
    } else if value > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

/// Parses a float written by [`push_f64`], bit-for-bit for finite values and exactly
/// for the non-finite encodings `"inf"` / `"-inf"` / `"nan"`. A bare `null` is
/// accepted as NaN for backward compatibility with reports written before the
/// non-finite encoding was unified (those had already collapsed `±inf` to `null`,
/// so NaN is the most faithful reading available).
pub fn parse_f64(value: &JsonValue) -> Result<f64, String> {
    match value {
        JsonValue::Number(token) => token
            .parse::<f64>()
            .map_err(|_| format!("invalid float token {token:?}")),
        JsonValue::Str(s) => match s.as_str() {
            "inf" => Ok(f64::INFINITY),
            "-inf" => Ok(f64::NEG_INFINITY),
            "nan" => Ok(f64::NAN),
            other => Err(format!("unknown non-finite float encoding {other:?}")),
        },
        JsonValue::Null => Ok(f64::NAN),
        other => Err(format!("expected a float, got {other:?}")),
    }
}

/// Appends `"key":` to an object body, handling the leading comma.
pub fn push_key(out: &mut String, first: &mut bool, key: &str) {
    if !*first {
        out.push(',');
    }
    *first = false;
    push_str_literal(out, key);
    out.push(':');
}

/// Appends the canonical JSON form of an [`InterferenceProfile`] to `out`.
///
/// The named recipes serialize as bare strings (`"typical"`, `"heavy"`,
/// `"dedicated"`), the parameterised ones as single-key objects
/// (`{"constant":0.5}`, `{"custom":[base,value_amplitude,regime_scale,
/// burst_magnitude]}`). The enum itself accepts any value: a negative or non-finite
/// parameter is written as given, [`parse_profile`] rejects it, and
/// [`InterferenceProfile::sampler`] panics on it. For every profile a node can run,
/// the shortest-round-trip float rendering of [`push_f64`] is lossless and
/// [`parse_profile`] round-trips bit for bit. `dg-scenario` embeds profiles in
/// `ScenarioSpec` documents through this pair.
pub fn push_profile(out: &mut String, profile: &InterferenceProfile) {
    match profile {
        InterferenceProfile::Dedicated => out.push_str("\"dedicated\""),
        InterferenceProfile::Typical => out.push_str("\"typical\""),
        InterferenceProfile::Heavy => out.push_str("\"heavy\""),
        InterferenceProfile::Constant(level) => {
            out.push_str("{\"constant\":");
            push_f64(out, *level);
            out.push('}');
        }
        InterferenceProfile::Custom {
            base,
            value_amplitude,
            regime_scale,
            burst_magnitude,
        } => {
            out.push_str("{\"custom\":[");
            for (i, value) in [base, value_amplitude, regime_scale, burst_magnitude]
                .into_iter()
                .enumerate()
            {
                if i > 0 {
                    out.push(',');
                }
                push_f64(out, *value);
            }
            out.push_str("]}");
        }
    }
}

/// Parses the canonical JSON form written by [`push_profile`] back into an
/// [`InterferenceProfile`]. Floats round-trip bit for bit.
pub fn parse_profile(value: &JsonValue) -> Result<InterferenceProfile, String> {
    let finite = |value: &JsonValue, what: &str| -> Result<f64, String> {
        let parsed = value
            .number_token()
            .and_then(|t| t.parse::<f64>().ok())
            .ok_or_else(|| format!("profile {what} is not a number"))?;
        if !parsed.is_finite() || parsed < 0.0 {
            return Err(format!("profile {what} must be finite and non-negative"));
        }
        Ok(parsed)
    };
    match value {
        JsonValue::Str(name) => match name.as_str() {
            "dedicated" => Ok(InterferenceProfile::Dedicated),
            "typical" => Ok(InterferenceProfile::Typical),
            "heavy" => Ok(InterferenceProfile::Heavy),
            other => Err(format!("unknown profile name {other:?}")),
        },
        JsonValue::Object(_) => {
            if let Some(level) = value.get("constant") {
                return Ok(InterferenceProfile::Constant(finite(level, "constant")?));
            }
            let parts = value
                .get("custom")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| {
                    "profile object needs a \"constant\" or \"custom\" key".to_string()
                })?;
            if parts.len() != 4 {
                return Err("custom profile needs 4 parameters".to_string());
            }
            Ok(InterferenceProfile::Custom {
                base: finite(&parts[0], "base")?,
                value_amplitude: finite(&parts[1], "value_amplitude")?,
                regime_scale: finite(&parts[2], "regime_scale")?,
                burst_magnitude: finite(&parts[3], "burst_magnitude")?,
            })
        }
        other => Err(format!("expected a profile, got {other:?}")),
    }
}

/// FNV-1a over a canonical textual encoding: the stable 64-bit fingerprint discipline
/// shared by `CampaignSpec::fingerprint` and `ScenarioSpec::fingerprint`. Independent
/// of process, host, and run.
pub fn fnv1a(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A parsed JSON value. Object keys keep their document order; numbers keep their raw
/// token so callers decide the target type without precision loss.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its raw token (e.g. `"245.3"`, `"18446744073709551615"`).
    Number(String),
    /// A string (escapes already resolved).
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in document order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up `key` in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The raw number token, if this is a number.
    pub fn number_token(&self) -> Option<&str> {
        match self {
            JsonValue::Number(token) => Some(token),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Maximum container nesting the parser accepts. Canonical reports need depth 3; the
/// limit exists so a corrupt or hostile document (`[[[[...`) returns an error instead
/// of overflowing the stack of the merging process.
const MAX_DEPTH: usize = 64;

/// Parses one JSON document. Returns a description of the first syntax error (with a
/// byte offset) on malformed input; a key repeated within one object is such an error.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_whitespace();
    let value = parser.parse_value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(format!(
            "trailing characters after JSON document at byte {}",
            parser.pos
        ));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", byte as char, self.pos))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(format!(
                "unexpected character {:?} at byte {}",
                other as char, self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn nested(
        &mut self,
        body: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth >= MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let result = body(self);
        self.depth -= 1;
        result
    }

    fn parse_literal(&mut self, literal: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number tokens are ASCII")
            .to_string();
        // Validate the token now so downstream field conversions only have to handle
        // target-type range errors, not syntax.
        if token.parse::<f64>().is_err() {
            return Err(format!("invalid number {token:?} at byte {start}"));
        }
        Ok(JsonValue::Number(token))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'u') => {
                            let hex_start = self.pos + 1;
                            let hex = self
                                .bytes
                                .get(hex_start..hex_start + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("invalid \\u escape {hex:?}"))?;
                            // The writer only emits \u for control characters, so
                            // surrogate pairs never appear in canonical reports.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid code point {code:#x}"))?,
                            );
                            self.pos += 4;
                        }
                        other => {
                            return Err(format!("invalid escape {other:?} at byte {}", self.pos))
                        }
                    }
                    self.pos += 1;
                }
                Some(byte) => {
                    // Consume one full UTF-8 character. The input is a &str, so
                    // boundaries are valid by construction; the leading byte gives the
                    // sequence length, keeping this O(1) per character.
                    let len = match byte {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let c = std::str::from_utf8(&self.bytes[self.pos..self.pos + len])
                        .expect("input is a &str, so char boundaries are valid")
                        .chars()
                        .next()
                        .expect("non-empty slice");
                    out.push(c);
                    self.pos += len;
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(entries));
        }
        loop {
            self.skip_whitespace();
            let key_start = self.pos;
            let key = self.parse_string()?;
            // A repeated key would otherwise be shadowed silently: `get` finds the
            // first entry only.
            if entries.iter().any(|(seen, _)| *seen == key) {
                return Err(format!("duplicate key {key:?} at byte {key_start}"));
            }
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(entries));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        let mut out = String::new();
        push_str_literal(&mut out, "a\"b\\c\nd");
        assert_eq!(out, r#""a\"b\\c\nd""#);
    }

    #[test]
    fn control_characters_use_unicode_escapes() {
        let mut out = String::new();
        push_str_literal(&mut out, "\u{01}");
        assert_eq!(out, "\"\\u0001\"");
    }

    #[test]
    fn floats_render_shortest_round_trip() {
        let mut out = String::new();
        push_f64(&mut out, 245.3);
        out.push(' ');
        push_f64(&mut out, f64::NAN);
        out.push(' ');
        push_f64(&mut out, f64::INFINITY);
        out.push(' ');
        push_f64(&mut out, f64::NEG_INFINITY);
        assert_eq!(out, "245.3 \"nan\" \"inf\" \"-inf\"");
    }

    #[test]
    fn non_finite_floats_round_trip_exactly() {
        for value in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut out = String::new();
            push_f64(&mut out, value);
            let parsed = parse_f64(&parse(&out).expect("valid JSON")).expect("valid float");
            assert_eq!(parsed.to_bits(), value.to_bits(), "through {out}");
        }
        // Legacy reports wrote null for every non-finite value; it still reads as NaN.
        assert!(parse_f64(&JsonValue::Null).unwrap().is_nan());
        assert!(parse_f64(&JsonValue::Str("infinity".into())).is_err());
        assert!(parse_f64(&JsonValue::Bool(true)).is_err());
    }

    #[test]
    fn keys_are_comma_separated() {
        let mut out = String::from("{");
        let mut first = true;
        push_key(&mut out, &mut first, "a");
        out.push('1');
        push_key(&mut out, &mut first, "b");
        out.push('2');
        out.push('}');
        assert_eq!(out, r#"{"a":1,"b":2}"#);
    }

    #[test]
    fn parser_round_trips_canonical_documents() {
        let doc = r#"{"name":"a\"b","n":-3.25,"flags":[true,false,null],"nested":{"x":18446744073709551615}}"#;
        let value = parse(doc).expect("valid document");
        assert_eq!(value.get("name").and_then(JsonValue::as_str), Some("a\"b"));
        assert_eq!(
            value.get("n").and_then(JsonValue::number_token),
            Some("-3.25")
        );
        let flags = value.get("flags").and_then(JsonValue::as_array).unwrap();
        assert_eq!(flags[0].as_bool(), Some(true));
        assert_eq!(flags[2], JsonValue::Null);
        assert_eq!(
            value
                .get("nested")
                .and_then(|n| n.get("x"))
                .and_then(JsonValue::number_token)
                .map(str::parse::<u64>),
            Some(Ok(u64::MAX)),
            "u64 values above 2^53 must survive parsing exactly"
        );
    }

    #[test]
    fn parser_accepts_whitespace_and_empty_containers() {
        let value = parse(" { \"a\" : [ ] , \"b\" : { } } ").expect("valid");
        assert_eq!(value.get("a"), Some(&JsonValue::Array(Vec::new())));
        assert_eq!(value.get("b"), Some(&JsonValue::Object(Vec::new())));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "{\"a\":1} x",
            "1.2.3",
            "{\"a\":1,\"b\":2,\"a\":3}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
        let err = parse("{\"a\":{\"k\":1,\"k\":2}}").expect_err("nested duplicate");
        assert_eq!(err, "duplicate key \"k\" at byte 12");
    }

    #[test]
    fn parser_rejects_pathological_nesting_instead_of_overflowing() {
        let hostile = "[".repeat(100_000);
        let err = parse(&hostile).expect_err("deep nesting must be rejected");
        assert!(err.contains("nesting deeper than"), "got {err}");

        // Realistic nesting stays well within the limit.
        let legal = format!("{}1{}", "[".repeat(32), "]".repeat(32));
        assert!(parse(&legal).is_ok());
    }

    #[test]
    fn multibyte_characters_survive_string_parsing() {
        let value = parse("{\"k\":\"héllo → 🌍\"}").expect("valid");
        assert_eq!(
            value.get("k").and_then(JsonValue::as_str),
            Some("héllo → 🌍")
        );
    }

    #[test]
    fn profiles_round_trip_through_canonical_json() {
        let awkward = 0.1 + 0.2; // not exactly representable as "0.3"
        for profile in [
            InterferenceProfile::Dedicated,
            InterferenceProfile::Typical,
            InterferenceProfile::Heavy,
            InterferenceProfile::Constant(0.5),
            InterferenceProfile::Constant(awkward),
            InterferenceProfile::Custom {
                base: 0.05,
                value_amplitude: awkward,
                regime_scale: 1.0,
                burst_magnitude: 0.9,
            },
        ] {
            let mut out = String::new();
            push_profile(&mut out, &profile);
            let parsed = parse_profile(&parse(&out).expect("valid JSON")).expect("valid profile");
            assert_eq!(parsed, profile, "round trip through {out}");
            let mut again = String::new();
            push_profile(&mut again, &parsed);
            assert_eq!(again, out, "byte-identical re-serialization");
        }
    }

    #[test]
    fn malformed_profiles_are_rejected() {
        for bad in [
            "\"mystery\"",
            "{\"constant\":-1}",
            "{\"custom\":[1,2,3]}",
            "{\"other\":1}",
            "3",
        ] {
            let value = parse(bad).expect("syntactically valid JSON");
            assert!(parse_profile(&value).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn fnv1a_is_stable_and_sensitive() {
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("abc"), fnv1a("abc"));
        assert_ne!(fnv1a("abc"), fnv1a("abd"));
    }

    #[test]
    fn parsed_floats_round_trip_bit_for_bit() {
        for value in [245.3, 0.1 + 0.2, f64::MIN_POSITIVE, 1e300, -0.0] {
            let mut out = String::new();
            push_f64(&mut out, value);
            let parsed = parse(&out).expect("number parses");
            let token = parsed.number_token().expect("is a number");
            assert_eq!(token.parse::<f64>().unwrap().to_bits(), value.to_bits());
        }
    }
}
