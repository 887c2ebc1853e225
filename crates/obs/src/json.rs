//! Canonical JSON: the one writer and the typed readers behind every wire format in
//! the workspace.
//!
//! The workspace has no serialization dependency. Execution traces, shard reports,
//! lab manifests, scenario specs, campaign and retune reports, event lines, metrics
//! snapshots and the `BENCH_*.json` records are all written through [`Object`] and
//! [`Array`], which place every brace, comma and key, and read back through
//! [`Node`], whose errors name the key path of the value at fault. The output is
//! *canonical*: fixed key order, no whitespace, and floats rendered with Rust's
//! shortest-round-trip `Display` — so two documents with identical contents produce
//! byte-identical strings, which the determinism tests (1 worker vs N workers, record
//! vs replay) rely on.
//!
//! The parser ([`parse`]) is a minimal recursive-descent reader. Numbers keep their
//! **raw token** ([`JsonValue::Number`]) instead of being eagerly converted, so
//! integer fields parse exactly (`u64` seeds above 2^53 survive) and float fields
//! round-trip bit for bit through Rust's shortest-round-trip rendering.
//!
//! ```
//! use dg_obs::json::{self, FromJson, Node, ReadError};
//!
//! struct Point {
//!     label: String,
//!     at: Vec<f64>,
//!     hits: Option<u64>,
//! }
//!
//! impl FromJson for Point {
//!     fn from_node(node: Node<'_, '_>) -> Result<Self, ReadError> {
//!         Ok(Point {
//!             label: node.read("label")?,
//!             at: node.read("at")?,
//!             hits: node.read_opt("hits")?,
//!         })
//!     }
//! }
//!
//! let text = json::object(|o| {
//!     o.field("label", "origin").field("at", &[0.0, f64::INFINITY]);
//! });
//! assert_eq!(text, r#"{"label":"origin","at":[0,"inf"]}"#);
//! let point: Point = json::decode(&text).unwrap();
//! assert_eq!((point.label.as_str(), point.at[1], point.hits), ("origin", f64::INFINITY, None));
//!
//! let err = json::decode::<Vec<Point>>(r#"[{"label":"a","at":[1]},{"label":"b","at":[1,"x"]}]"#);
//! assert_eq!(err.err().unwrap(), r#"[1].at[1]: unknown non-finite float encoding "x""#);
//! ```

use dg_cloudsim::{ExecutionSpec, InterferenceProfile, SimTime};
use std::fmt::{self, Write as _};
use std::str::FromStr;

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
/// floats, so they are encoded as the strings `"inf"`, `"-inf"`, and `"nan"`, and
/// [`parse_f64`] restores them losslessly.
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
        other => Err(format!("expected a float, found {}", other.kind())),
    }
}

/// Appends `"key":` to an object body, handling the leading comma. [`Object`] writes
/// every key through this.
pub fn push_key(out: &mut String, first: &mut bool, key: &str) {
    if !*first {
        out.push(',');
    }
    *first = false;
    push_str_literal(out, key);
    out.push(':');
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

// ---------- writing ----------

/// A value with a canonical JSON form.
pub trait ToJson {
    /// Appends the value's canonical JSON to `out`.
    fn write_json(&self, out: &mut String);
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        push_str_literal(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        push_str_literal(out, self);
    }
}

/// Shortest round-trip, non-finite values as `"inf"`, `"-inf"` and `"nan"`
/// ([`push_f64`]).
impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        push_f64(out, *self);
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        Array::write(out, |array| {
            for item in self {
                array.push(item);
            }
        });
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

/// `null` for `None`. An optional *key* is left out instead, with an `if` around
/// [`Object::field`].
impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(value) => value.write_json(out),
            None => out.push_str("null"),
        }
    }
}

/// A JSON object being written: it places the braces, each key and every comma.
pub struct Object<'a> {
    out: &'a mut String,
    first: bool,
}

impl Object<'_> {
    /// Writes `{`, the entries `body` adds, and `}` to `out`.
    pub fn write(out: &mut String, body: impl FnOnce(&mut Object<'_>)) {
        out.push('{');
        let mut object = Object { out, first: true };
        body(&mut object);
        object.out.push('}');
    }

    /// Adds `"key":value`.
    pub fn field(&mut self, key: &str, value: &(impl ToJson + ?Sized)) -> &mut Self {
        push_key(self.out, &mut self.first, key);
        value.write_json(self.out);
        self
    }

    /// Adds `"key":{...}`, with the entries `body` adds.
    pub fn object(&mut self, key: &str, body: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        push_key(self.out, &mut self.first, key);
        Object::write(self.out, body);
        self
    }

    /// Adds `"key":[...]`, with the elements `body` pushes.
    pub fn array(&mut self, key: &str, body: impl FnOnce(&mut Array<'_>)) -> &mut Self {
        push_key(self.out, &mut self.first, key);
        Array::write(self.out, body);
        self
    }
}

/// A JSON array being written: it places the brackets and every comma.
pub struct Array<'a> {
    out: &'a mut String,
    first: bool,
}

impl Array<'_> {
    /// Writes `[`, the elements `body` pushes, and `]` to `out`.
    pub fn write(out: &mut String, body: impl FnOnce(&mut Array<'_>)) {
        out.push('[');
        let mut array = Array { out, first: true };
        body(&mut array);
        array.out.push(']');
    }

    fn slot(&mut self) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out
    }

    /// Appends one element.
    pub fn push(&mut self, value: &(impl ToJson + ?Sized)) -> &mut Self {
        value.write_json(self.slot());
        self
    }

    /// Appends one object, with the entries `body` adds.
    pub fn object(&mut self, body: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        Object::write(self.slot(), body);
        self
    }
}

/// One canonical JSON object, with the entries `body` adds, as a new string.
pub fn object(body: impl FnOnce(&mut Object<'_>)) -> String {
    let mut out = String::new();
    Object::write(&mut out, body);
    out
}

// ---------- reading ----------

/// Why a value could not be read: where it sits in its document, and what is wrong
/// with it. Displays as `path: message`, e.g.
/// `streams[2].events[7].spec: expected [base_time, sensitivity]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadError {
    /// The key path of the value at fault; empty for the document itself.
    pub path: String,
    /// What is wrong with it.
    pub message: String,
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            f.write_str(&self.message)
        } else {
            write!(f, "{}: {}", self.path, self.message)
        }
    }
}

impl std::error::Error for ReadError {}

/// Where a [`Node`] sits in its document: a chain of keys and indices back to the
/// root, rendered only when a read fails.
#[derive(Debug, Clone, Copy)]
enum Path<'p> {
    Root,
    Key(&'p Path<'p>, &'p str),
    Index(&'p Path<'p>, usize),
}

impl Path<'_> {
    fn error(&self, message: impl fmt::Display) -> ReadError {
        ReadError {
            path: self.to_string(),
            message: message.to_string(),
        }
    }
}

impl fmt::Display for Path<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Path::Root => Ok(()),
            Path::Key(Path::Root, key) => f.write_str(key),
            Path::Key(parent, key) => write!(f, "{parent}.{key}"),
            Path::Index(parent, index) => write!(f, "{parent}[{index}]"),
        }
    }
}

/// A value of a parsed document, with the key path that reached it, so that every
/// typed read names where it failed.
#[derive(Debug, Clone, Copy)]
pub struct Node<'v, 'p> {
    value: &'v JsonValue,
    path: Path<'p>,
}

impl<'v> Node<'v, '_> {
    /// The root of a parsed document.
    pub fn root(value: &'v JsonValue) -> Self {
        Node {
            value,
            path: Path::Root,
        }
    }

    /// An error about this value.
    pub fn error(&self, message: impl fmt::Display) -> ReadError {
        self.path.error(message)
    }

    fn expected(&self, what: impl fmt::Display) -> ReadError {
        self.error(format_args!("expected {what}, found {}", self.value.kind()))
    }

    fn child<'s>(&'s self, key: &'s str, value: &'v JsonValue) -> Node<'v, 's> {
        Node {
            value,
            path: Path::Key(&self.path, key),
        }
    }

    /// The value under `key`, which may be absent; an error if this is not an object.
    pub fn get_opt<'s>(&'s self, key: &'s str) -> Result<Option<Node<'v, 's>>, ReadError> {
        match self.value {
            JsonValue::Object(entries) => Ok(entries
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, value)| self.child(key, value))),
            _ => Err(self.expected("an object")),
        }
    }

    /// The value under `key`, which must be present.
    pub fn get<'s>(&'s self, key: &'s str) -> Result<Node<'v, 's>, ReadError> {
        self.get_opt(key)?
            .ok_or_else(|| Path::Key(&self.path, key).error("missing"))
    }

    /// Reads the value under `key`, which must be present.
    pub fn read<T: FromJson>(&self, key: &str) -> Result<T, ReadError> {
        T::from_node(self.get(key)?)
    }

    /// Reads the value under `key`; `None` when the key is absent.
    pub fn read_opt<T: FromJson>(&self, key: &str) -> Result<Option<T>, ReadError> {
        self.get_opt(key)?.map(T::from_node).transpose()
    }

    /// Fails on the first key of this object that `known` does not list.
    pub fn only_keys(&self, known: &[&str]) -> Result<(), ReadError> {
        let JsonValue::Object(entries) = self.value else {
            return Err(self.expected("an object"));
        };
        match entries
            .iter()
            .find(|(key, _)| !known.contains(&key.as_str()))
        {
            Some((key, value)) => Err(self.child(key, value).error("unknown key")),
            None => Ok(()),
        }
    }

    /// The elements of this array, each with its index on its path.
    pub fn items<'s>(
        &'s self,
    ) -> Result<impl ExactSizeIterator<Item = Node<'v, 's>> + 's, ReadError> {
        let JsonValue::Array(items) = self.value else {
            return Err(self.expected("an array"));
        };
        Ok(items.iter().enumerate().map(|(index, value)| Node {
            value,
            path: Path::Index(&self.path, index),
        }))
    }

    /// The elements of this array, which must hold exactly `N`. `shape` names them
    /// in the error, e.g. `[base_time, sensitivity]`.
    pub fn elements<const N: usize>(&self, shape: &str) -> Result<[Node<'v, '_>; N], ReadError> {
        self.items()
            .ok()
            .and_then(|items| items.collect::<Vec<_>>().try_into().ok())
            .ok_or_else(|| self.error(format_args!("expected {shape}")))
    }

    /// A finite, non-negative float: a duration, an instant or a rate.
    pub fn non_negative(&self) -> Result<f64, ReadError> {
        let value = f64::from_node(*self)?;
        if value.is_finite() && value >= 0.0 {
            Ok(value)
        } else {
            Err(self.error(format_args!(
                "expected a finite, non-negative number, found {value}"
            )))
        }
    }

    /// The string payload.
    pub fn str(&self) -> Result<&'v str, ReadError> {
        self.value.as_str().ok_or_else(|| self.expected("a string"))
    }
}

/// A value that can be read back from its canonical JSON form.
pub trait FromJson: Sized {
    /// Reads the value at `node`, or says what is wrong with it and where.
    fn from_node(node: Node<'_, '_>) -> Result<Self, ReadError>;
}

impl FromJson for String {
    fn from_node(node: Node<'_, '_>) -> Result<Self, ReadError> {
        node.str().map(str::to_string)
    }
}

/// Every float [`push_f64`] writes, bit for bit, and a legacy `null` as NaN
/// ([`parse_f64`]).
impl FromJson for f64 {
    fn from_node(node: Node<'_, '_>) -> Result<Self, ReadError> {
        parse_f64(node.value).map_err(|message| node.error(message))
    }
}

impl FromJson for bool {
    fn from_node(node: Node<'_, '_>) -> Result<Self, ReadError> {
        node.value.as_bool().ok_or_else(|| node.expected("a bool"))
    }
}

macro_rules! exact_integers {
    ($($t:ty),*) => {$(
        /// Written exactly, in decimal.
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }

        /// Read exactly from the number's token; a fraction, an exponent or a value
        /// out of range is an error.
        impl FromJson for $t {
            fn from_node(node: Node<'_, '_>) -> Result<Self, ReadError> {
                let token = node
                    .value
                    .number_token()
                    .ok_or_else(|| node.expected(stringify!($t)))?;
                <$t>::from_str(token)
                    .map_err(|_| node.error(format_args!("expected {}, found {token}", stringify!($t))))
            }
        }
    )*};
}
exact_integers!(u32, u64, usize);

impl<T: FromJson> FromJson for Vec<T> {
    fn from_node(node: Node<'_, '_>) -> Result<Self, ReadError> {
        node.items()?.map(T::from_node).collect()
    }
}

/// `None` for `null`.
impl<T: FromJson> FromJson for Option<T> {
    fn from_node(node: Node<'_, '_>) -> Result<Self, ReadError> {
        match node.value {
            JsonValue::Null => Ok(None),
            _ => T::from_node(node).map(Some),
        }
    }
}

/// Parses `text` and reads a `T` from its root. Syntax errors and read errors both
/// come back as their message.
pub fn decode<T: FromJson>(text: &str) -> Result<T, String> {
    let root = parse(text)?;
    T::from_node(Node::root(&root)).map_err(|err| err.to_string())
}

// ---------- interference profiles ----------

/// The named recipes as bare strings (`"typical"`, `"heavy"`, `"dedicated"`), the
/// parameterised ones as single-key objects (`{"constant":0.5}`,
/// `{"custom":[base,value_amplitude,regime_scale,burst_magnitude]}`). The enum
/// accepts any value: a negative or non-finite parameter is written as given, the
/// reader rejects it, and [`InterferenceProfile::sampler`] panics on it. For every
/// profile a node can run, the shortest-round-trip float rendering is lossless and
/// the reader round-trips bit for bit. `dg-scenario` embeds profiles in
/// `ScenarioSpec` documents this way.
impl ToJson for InterferenceProfile {
    fn write_json(&self, out: &mut String) {
        match self {
            InterferenceProfile::Dedicated => "dedicated".write_json(out),
            InterferenceProfile::Typical => "typical".write_json(out),
            InterferenceProfile::Heavy => "heavy".write_json(out),
            InterferenceProfile::Constant(level) => Object::write(out, |o| {
                o.field("constant", level);
            }),
            InterferenceProfile::Custom {
                base,
                value_amplitude,
                regime_scale,
                burst_magnitude,
            } => Object::write(out, |o| {
                o.field(
                    "custom",
                    &[*base, *value_amplitude, *regime_scale, *burst_magnitude],
                );
            }),
        }
    }
}

/// Reads the form written above; every parameter must be finite and non-negative.
impl FromJson for InterferenceProfile {
    fn from_node(node: Node<'_, '_>) -> Result<Self, ReadError> {
        if let Ok(name) = node.str() {
            return match name {
                "dedicated" => Ok(InterferenceProfile::Dedicated),
                "typical" => Ok(InterferenceProfile::Typical),
                "heavy" => Ok(InterferenceProfile::Heavy),
                other => Err(node.error(format_args!("unknown profile name {other:?}"))),
            };
        }
        if let Some(level) = node.get_opt("constant")? {
            return Ok(InterferenceProfile::Constant(level.non_negative()?));
        }
        let custom = node.get("custom")?;
        let [base, value_amplitude, regime_scale, burst_magnitude] =
            custom.elements("[base, value_amplitude, regime_scale, burst_magnitude]")?;
        Ok(InterferenceProfile::Custom {
            base: base.non_negative()?,
            value_amplitude: value_amplitude.non_negative()?,
            regime_scale: regime_scale.non_negative()?,
            burst_magnitude: burst_magnitude.non_negative()?,
        })
    }
}

// ---------- simulator values ----------

/// `[base_time, sensitivity]`, as execution traces record each player.
impl ToJson for ExecutionSpec {
    fn write_json(&self, out: &mut String) {
        [self.base_time(), self.sensitivity()].write_json(out);
    }
}

/// A finite, positive base time and a finite, non-negative sensitivity.
impl FromJson for ExecutionSpec {
    fn from_node(node: Node<'_, '_>) -> Result<Self, ReadError> {
        let [base_time, sensitivity] = node.elements("[base_time, sensitivity]")?;
        let (base_time, sensitivity) = (base_time.non_negative()?, sensitivity.non_negative()?);
        if base_time == 0.0 {
            return Err(node.error("a spec's base time must be positive"));
        }
        Ok(ExecutionSpec::new(base_time, sensitivity))
    }
}

/// Seconds since the simulation origin.
impl ToJson for SimTime {
    fn write_json(&self, out: &mut String) {
        push_f64(out, self.as_seconds());
    }
}

/// Finite and non-negative.
impl FromJson for SimTime {
    fn from_node(node: Node<'_, '_>) -> Result<Self, ReadError> {
        node.non_negative().map(SimTime::from_seconds)
    }
}

/// Reads an [`InterferenceProfile`] from its canonical form. Floats round-trip bit
/// for bit.
pub fn parse_profile(value: &JsonValue) -> Result<InterferenceProfile, String> {
    InterferenceProfile::from_node(Node::root(value)).map_err(|err| err.to_string())
}

// ---------- parsing ----------

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

    /// What kind of value this is, for error messages.
    fn kind(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "a bool",
            JsonValue::Number(_) => "a number",
            JsonValue::Str(_) => "a string",
            JsonValue::Array(_) => "an array",
            JsonValue::Object(_) => "an object",
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

    fn to_string(value: &impl ToJson) -> String {
        let mut out = String::new();
        value.write_json(&mut out);
        out
    }

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
            let out = to_string(&profile);
            let parsed = parse_profile(&parse(&out).expect("valid JSON")).expect("valid profile");
            assert_eq!(parsed, profile, "round trip through {out}");
            assert_eq!(to_string(&parsed), out, "byte-identical re-serialization");
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
    fn the_writer_places_every_comma_and_nests() {
        let text = object(|o| {
            o.field("name", "a\"b")
                .field("n", &u64::MAX)
                .field("x", &-0.0)
                .field("ok", &true)
                .field("none", &None::<f64>)
                .object("empty", |_| {})
                .object("nested", |n| {
                    n.array("rows", |a| {
                        a.push(&1_usize).object(|row| {
                            row.field("y", &[0.5, f64::NAN]);
                        });
                    });
                })
                .array("empty_list", |_| {});
        });
        assert_eq!(
            text,
            r#"{"name":"a\"b","n":18446744073709551615,"x":-0,"ok":true,"none":null,"empty":{},"nested":{"rows":[1,{"y":[0.5,"nan"]}]},"empty_list":[]}"#
        );
        assert_eq!(to_string(&Vec::<u32>::new()), "[]");
    }

    #[test]
    fn read_errors_name_the_key_path() {
        let doc = parse(r#"{"a":[{"b":1},{"b":"x"}],"c":{"d":[1,2,3]},"e":1.5}"#).unwrap();
        let root = Node::root(&doc);
        let list = root.get("a").unwrap();
        let second = list.items().unwrap().nth(1).unwrap();
        assert_eq!(
            second.read::<u64>("b").unwrap_err().to_string(),
            "a[1].b: expected u64, found a string"
        );
        let c = root.get("c").unwrap();
        assert_eq!(
            c.get("d")
                .unwrap()
                .elements::<2>("[x, y]")
                .unwrap_err()
                .to_string(),
            "c.d: expected [x, y]"
        );
        assert_eq!(
            root.read::<String>("z").unwrap_err().to_string(),
            "z: missing"
        );
        assert_eq!(
            root.read::<u64>("e").unwrap_err().to_string(),
            "e: expected u64, found 1.5"
        );
        assert_eq!(
            root.get("e")
                .unwrap()
                .read::<u64>("f")
                .unwrap_err()
                .to_string(),
            "e: expected an object, found a number"
        );
        assert_eq!(
            root.only_keys(&["a", "c"]).unwrap_err().to_string(),
            "e: unknown key"
        );
        assert_eq!(root.read_opt::<f64>("missing"), Ok(None));
        assert_eq!(root.read_opt::<f64>("e"), Ok(Some(1.5)));
    }

    #[test]
    fn integers_are_read_exactly() {
        let doc =
            parse("[18446744073709551615,18446744073709551616,-0,1e3,1.0,4294967296]").unwrap();
        let root = Node::root(&doc);
        let items: Vec<Node<'_, '_>> = root.items().unwrap().collect();
        assert_eq!(u64::from_node(items[0]), Ok(u64::MAX));
        for item in &items[1..5] {
            assert!(u64::from_node(*item).is_err());
        }
        assert!(u32::from_node(items[5]).is_err());
        assert_eq!(u64::from_node(items[5]), Ok(1 << 32));
    }

    #[test]
    fn optional_values_read_null_as_none() {
        let doc = parse(r#"{"p":null,"q":"typical"}"#).unwrap();
        let root = Node::root(&doc);
        assert_eq!(root.read::<Option<InterferenceProfile>>("p"), Ok(None));
        assert_eq!(
            root.read::<Option<InterferenceProfile>>("q"),
            Ok(Some(InterferenceProfile::Typical))
        );
        assert_eq!(decode::<Option<u32>>("null"), Ok(None));
        assert!(decode::<u32>("null").is_err());
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
