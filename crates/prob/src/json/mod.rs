//! Minimal hand-rolled JSON: a value tree, a recursive-descent parser and
//! an emitter, replacing `serde`/`serde_json` so model artifacts (networks,
//! fault trees, budgets, registers) persist without external dependencies.
//!
//! Numbers are kept in two variants — [`Json::U64`] for unsigned integer
//! tokens and [`Json::Num`] for everything else — so 64-bit subset bitmasks
//! (Dempster–Shafer focal elements) round-trip exactly even beyond 2^53.
//!
//! ```
//! use sysunc_prob::json::{self, Json};
//! let v = json::parse(r#"{"lo": 0.25, "tags": ["a", "b"], "n": null}"#)?;
//! assert_eq!(v.get("lo").and_then(Json::as_f64), Some(0.25));
//! assert_eq!(json::parse(&v.to_string())?, v);
//! # Ok::<(), json::JsonError>(())
//! ```

use std::fmt;

pub mod writer;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer token (lossless for u64 bitmasks).
    U64(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member of an object by key (`None` for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::U64(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as a `u64` (floats only when exactly integral).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as a `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The value as a `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Compact single-line rendering.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation.
    pub fn emit_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::U64(n) => out.push_str(&n.to_string()),
            Json::Num(x) => out.push_str(&emit_f64(*x)),
            Json::Str(s) => emit_string(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(members) if members.is_empty() => out.push_str("{}"),
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    emit_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.emit())
    }
}

fn emit_f64(x: f64) -> String {
    if x.is_finite() {
        // `{:?}` prints the shortest representation that round-trips.
        let s = format!("{x:?}");
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        // JSON has no Inf/NaN; encode as null like serde_json does.
        "null".to_string()
    }
}

fn emit_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse or decode failure, with a byte offset for parse errors.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonError {
    /// The input is not well-formed JSON.
    Parse {
        /// Byte offset of the failure.
        at: usize,
        /// What went wrong.
        message: String,
    },
    /// The JSON is well-formed but does not match the expected shape.
    Decode(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Parse { at, message } => write!(f, "JSON parse error at byte {at}: {message}"),
            JsonError::Decode(message) => write!(f, "JSON decode error: {message}"),
        }
    }
}

impl std::error::Error for JsonError {}

impl JsonError {
    /// Convenience constructor for shape mismatches.
    pub fn decode<S: Into<String>>(message: S) -> Self {
        JsonError::Decode(message.into())
    }

    /// Decode error for a missing object member.
    pub fn missing(key: &str) -> Self {
        JsonError::Decode(format!("missing member '{key}'"))
    }
}

/// Parses a complete JSON document (rejects trailing garbage).
///
/// # Errors
///
/// Returns [`JsonError::Parse`] with a byte offset for malformed input.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

/// Nesting depth beyond which the parser refuses (stack-overflow guard).
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError::Parse { at: self.pos, message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect_byte(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let cp = self.unicode_escape()?;
                            out.push(cp);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("unescaped control character")),
                Some(_) => {
                    // Copy the run of plain bytes up to the next quote,
                    // backslash or control byte in one piece. All three
                    // are ASCII, so the run ends on a character boundary
                    // of the (valid UTF-8) input.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c >= 0x20 && c != b'"' && c != b'\\') {
                        self.pos += 1;
                    }
                    let run = self.text.get(start..self.pos);
                    out.push_str(run.ok_or_else(|| self.err("invalid UTF-8"))?);
                }
            }
        }
    }

    /// Parses the `XXXX` of a `\u` escape (after the `u`); handles
    /// surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        self.pos += 1; // consume 'u'
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: require a low surrogate right behind it.
            if self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if (0xDC00..0xE000).contains(&lo) {
                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(cp).ok_or_else(|| self.err("invalid surrogate pair"));
                }
            }
            return Err(self.err("unpaired surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            cp = cp * 16 + d;
            self.pos += 1;
        }
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            return Err(self.err("expected digit"));
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected digit after '.'"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected digit in exponent"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = self.text.get(start..self.pos).ok_or_else(|| self.err("invalid number"))?;
        if integral && !text.starts_with('-') {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::U64(n));
            }
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| self.err("invalid number"))
    }
}

/// Conversion of a value into its JSON representation.
pub trait ToJson {
    /// Builds the JSON value tree for `self`.
    fn to_json(&self) -> Json;
}

/// Reconstruction of a value from its JSON representation.
pub trait FromJson: Sized {
    /// Decodes `v`, validating shape and invariants.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError::Decode`] when `v` does not represent a valid
    /// instance.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

/// Serializes a value to a compact JSON string (mirrors
/// `serde_json::to_string`, but infallible: emission cannot fail).
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().emit()
}

/// Serializes a value to an indented JSON string.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().emit_pretty()
}

/// Parses a JSON string and decodes it into `T`.
///
/// # Errors
///
/// Returns [`JsonError::Parse`] for malformed JSON and
/// [`JsonError::Decode`] for shape mismatches.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&parse(text)?)
}

// ---------------------------------------------------------------------
// Blanket and primitive impls.
// ---------------------------------------------------------------------

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64().ok_or_else(|| JsonError::decode("expected number"))
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::U64(*self)
    }
}

impl FromJson for u64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_u64().ok_or_else(|| JsonError::decode("expected unsigned integer"))
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::U64(*self as u64)
    }
}

impl FromJson for usize {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_usize().ok_or_else(|| JsonError::decode("expected unsigned integer"))
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool().ok_or_else(|| JsonError::decode("expected bool"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str().map(str::to_string).ok_or_else(|| JsonError::decode("expected string"))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_arr()
            .ok_or_else(|| JsonError::decode("expected array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(x) => x.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        if v.is_null() {
            Ok(None)
        } else {
            T::from_json(v).map(Some)
        }
    }
}

/// Builds a [`Json::Obj`] from `(key, value)` pairs.
pub fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Fetches a required member of an object and decodes it.
///
/// # Errors
///
/// Returns [`JsonError::Decode`] when the member is missing or mistyped.
pub fn field<T: FromJson>(v: &Json, key: &str) -> Result<T, JsonError> {
    T::from_json(v.get(key).ok_or_else(|| JsonError::missing(key))?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::U64(42));
        assert_eq!(parse("-1.5").unwrap(), Json::Num(-1.5));
        assert_eq!(parse("2e3").unwrap(), Json::Num(2000.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_structures_with_whitespace() {
        let v = parse(" { \"a\" : [ 1 , 2.5 , null ] , \"b\" : { } } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap(), &Json::Obj(vec![]));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "tru", "1.2.3", "\"unterminated", "{\"a\"}", "[1] x", "nul"] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn u64_masks_round_trip_exactly() {
        let big = u64::MAX;
        let v = parse(&Json::U64(big).emit()).unwrap();
        assert_eq!(v.as_u64(), Some(big));
    }

    #[test]
    fn floats_round_trip_shortest() {
        for x in [0.1, 1.0 / 3.0, -2.5e-8, 1e300, 0.0] {
            let v = parse(&Json::Num(x).emit()).unwrap();
            assert_eq!(v.as_f64(), Some(x), "round trip of {x}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "quote\" backslash\\ newline\n tab\t unicode→ control\u{1}";
        let v = parse(&Json::Str(s.to_string()).emit()).unwrap();
        assert_eq!(v.as_str(), Some(s));
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse(r#""A""#).unwrap().as_str(), Some("A"));
        // Surrogate pair for 𝄞 (U+1D11E).
        assert_eq!(parse(r#""𝄞""#).unwrap().as_str(), Some("𝄞"));
        assert!(parse(r#""\ud834""#).is_err(), "unpaired surrogate");
    }

    #[test]
    fn multibyte_runs_between_escapes_decode_whole() {
        let text = r#""é→\n𝄞\"üé\\日本𝄞\t末""#;
        assert_eq!(parse(text).unwrap().as_str(), Some("é→\n𝄞\"üé\\日本𝄞\t末"));
        // A control byte right after a multi-byte run is refused where it
        // stands, and a run cut by the end of input is unterminated.
        let err = parse("\"日本\u{1}\"").unwrap_err();
        assert!(
            matches!(&err, JsonError::Parse { at: 7, message } if message.contains("control")),
            "{err}"
        );
        assert!(matches!(parse("\"日本"), Err(JsonError::Parse { at: 7, .. })));
    }

    /// Parse time of one JSON string of `bytes` plain characters (best of
    /// five, after a warm-up).
    fn string_parse_time(bytes: usize) -> std::time::Duration {
        let text = format!("\"{}\"", "aé→".repeat(bytes / 6));
        (0..6)
            .map(|_| {
                let t = std::time::Instant::now();
                let v = parse(&text).unwrap();
                let took = t.elapsed();
                assert_eq!(v.as_str().map(str::len), Some(text.len() - 2));
                took
            })
            .skip(1)
            .min()
            .unwrap()
    }

    #[test]
    #[ignore = "release timing tier: run via ci.sh"]
    fn string_parsing_is_linear_in_the_string_length() {
        // Linear code reads about 4x; the quadratic decoder read 14x.
        let ratio = string_parse_time(256 * 1024).as_secs_f64()
            / string_parse_time(64 * 1024).as_secs_f64();
        eprintln!("256 KiB / 64 KiB string parse time: {ratio:.2}x");
        assert!(ratio < 8.0, "string parsing grows {ratio:.1}x for 4x the length");
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = obj([
            ("name", Json::Str("x".into())),
            ("vals", Json::Arr(vec![Json::U64(1), Json::Num(0.5)])),
        ]);
        let pretty = v.emit_pretty();
        assert!(pretty.contains('\n'));
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn nesting_guard_trips() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn option_and_vec_round_trip() {
        let xs: Vec<Option<f64>> = vec![Some(1.5), None, Some(-2.0)];
        let back: Vec<Option<f64>> = from_str(&to_string(&xs)).unwrap();
        assert_eq!(back, xs);
    }

    #[test]
    fn non_finite_floats_emit_null() {
        assert_eq!(Json::Num(f64::NAN).emit(), "null");
        assert_eq!(Json::Num(f64::INFINITY).emit(), "null");
    }
}
