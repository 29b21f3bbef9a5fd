//! A minimal hand-rolled JSON writer and parser.
//!
//! The build environment is offline, so there is no `serde`; trace files
//! are assembled with this writer (and read back by [`parse`], which the
//! `epidemic-analyze` consumer uses). It produces deterministic
//! output by construction: fields appear exactly in the order they are
//! written, floats use Rust's shortest-roundtrip `Display` (stable across
//! platforms and thread counts), and non-finite floats — which JSON cannot
//! represent — serialize as `null`.
//!
//! # Example
//!
//! ```
//! use epidemic_trace::json::JsonObject;
//!
//! let mut obj = JsonObject::new();
//! obj.field_str("event", "contact").field_u64("cycle", 3);
//! assert_eq!(obj.finish(), r#"{"event":"contact","cycle":3}"#);
//! ```

use std::fmt::Write;

/// Escapes `s` into `out` as JSON string *contents* (no surrounding
/// quotes).
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to String cannot fail");
            }
            c => out.push(c),
        }
    }
}

/// Writes `x` into `out` as a JSON number; non-finite values become
/// `null` (JSON has no NaN/Infinity).
pub(crate) fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        write!(out, "{x}").expect("writing to String cannot fail");
    } else {
        out.push_str("null");
    }
}

/// An in-progress JSON object; fields are emitted in call order.
#[derive(Debug, Clone, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject {
            buf: String::from("{"),
        }
    }

    fn key(&mut self, name: &str) -> &mut String {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        escape_into(&mut self.buf, name);
        self.buf.push_str("\":");
        &mut self.buf
    }

    /// Adds a string field.
    pub fn field_str(&mut self, name: &str, value: &str) -> &mut Self {
        let buf = self.key(name);
        buf.push('"');
        escape_into(buf, value);
        buf.push('"');
        self
    }

    /// Adds an unsigned integer field.
    pub fn field_u64(&mut self, name: &str, value: u64) -> &mut Self {
        let buf = self.key(name);
        write!(buf, "{value}").expect("writing to String cannot fail");
        self
    }

    /// Adds a float field (`null` when non-finite).
    pub fn field_f64(&mut self, name: &str, value: f64) -> &mut Self {
        let buf = self.key(name);
        write_f64(buf, value);
        self
    }

    /// Adds a boolean field.
    pub fn field_bool(&mut self, name: &str, value: bool) -> &mut Self {
        let buf = self.key(name);
        buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds an array of unsigned integers.
    pub fn field_u64_array(
        &mut self,
        name: &str,
        values: impl IntoIterator<Item = u64>,
    ) -> &mut Self {
        let buf = self.key(name);
        buf.push('[');
        for (i, v) in values.into_iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            write!(buf, "{v}").expect("writing to String cannot fail");
        }
        buf.push(']');
        self
    }

    /// Adds an array of floats (`null` for non-finite elements).
    pub fn field_f64_array(
        &mut self,
        name: &str,
        values: impl IntoIterator<Item = f64>,
    ) -> &mut Self {
        let buf = self.key(name);
        buf.push('[');
        for (i, v) in values.into_iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            write_f64(buf, v);
        }
        buf.push(']');
        self
    }

    /// Adds pre-serialized JSON verbatim (an object, array or literal the
    /// caller already rendered).
    pub fn field_raw(&mut self, name: &str, json: &str) -> &mut Self {
        self.key(name).push_str(json);
        self
    }

    /// Closes the object and returns its text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// A parsed JSON value (see [`parse`]).
///
/// Numbers are kept as `f64` — every value this workspace serializes is
/// either a u64 well inside the 2^53 exact-integer range or already an
/// f64. Object fields preserve source order (they are stored as a vec of
/// pairs, not a map), so `parse(x).to_string()`-style round-trips keep
/// deterministic field ordering.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, fields in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a field of an object; `None` for missing fields or
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric value as a `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields in source order, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// A JSON parse error: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of the problem.
    pub message: String,
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document (the inverse of this module's writer).
///
/// Strict on structure (unbalanced brackets, missing colons and trailing
/// garbage are errors) and tolerant on content the writer can produce:
/// `null` in number position parses as a `Value::Null`. Duplicate object
/// keys are kept as-is; [`Value::get`] returns the first. Arrays and
/// objects nested more than [`MAX_DEPTH`] deep are an error at the bracket
/// that goes one level too far.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON document"));
    }
    Ok(value)
}

/// How deeply [`parse`] lets arrays and objects nest — far above anything
/// this workspace writes, and low enough that the recursive descent cannot
/// overflow the stack.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("invalid literal (expected {text})")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses an array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs do not appear in our own
                            // output (escape_into only \u-escapes control
                            // characters); map lone surrogates to the
                            // replacement character rather than erroring.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape character")),
                    }
                }
                _ => {
                    // Copy the run up to the next quote or backslash whole:
                    // both are ASCII, so the run ends on a char boundary.
                    let start = self.pos - 1;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = self
                        .input
                        .get(start..self.pos)
                        .ok_or_else(|| self.err("invalid UTF-8 in string"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii by scan");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Renders a sequence of pre-serialized JSON values as an array.
pub fn array_of(items: impl IntoIterator<Item = String>) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_render_in_call_order() {
        let mut obj = JsonObject::new();
        obj.field_u64("a", 1)
            .field_str("b", "x")
            .field_f64("c", 0.5)
            .field_bool("d", false);
        assert_eq!(obj.finish(), r#"{"a":1,"b":"x","c":0.5,"d":false}"#);
    }

    #[test]
    fn escapes_control_characters_and_quotes() {
        let mut obj = JsonObject::new();
        obj.field_str("s", "a\"b\\c\nd\te\u{1}");
        assert_eq!(obj.finish(), r#"{"s":"a\"b\\c\nd\te\u0001"}"#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut obj = JsonObject::new();
        obj.field_f64("nan", f64::NAN)
            .field_f64("inf", f64::INFINITY)
            .field_f64_array("xs", [1.0, f64::NEG_INFINITY]);
        assert_eq!(obj.finish(), r#"{"nan":null,"inf":null,"xs":[1,null]}"#);
    }

    #[test]
    fn arrays_and_raw_fields() {
        let mut obj = JsonObject::new();
        obj.field_u64_array("counts", [3, 0, 7])
            .field_raw("nested", r#"{"k":1}"#);
        assert_eq!(obj.finish(), r#"{"counts":[3,0,7],"nested":{"k":1}}"#);
        assert_eq!(
            array_of(["1".to_string(), "2".to_string()]),
            "[1,2]".to_string()
        );
    }

    #[test]
    fn empty_object_is_braces() {
        assert_eq!(JsonObject::new().finish(), "{}");
    }

    #[test]
    fn parser_round_trips_writer_output() {
        let mut obj = JsonObject::new();
        obj.field_str("s", "a\"b\\c\nd")
            .field_u64("n", 42)
            .field_f64("x", 0.25)
            .field_bool("b", true)
            .field_f64("null_via_nan", f64::NAN)
            .field_u64_array("a", [1, 2, 3])
            .field_raw("o", r#"{"k":1}"#);
        let v = parse(&obj.finish()).expect("writer output parses");
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\\c\nd"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("x").unwrap().as_f64(), Some(0.25));
        assert_eq!(v.get("b"), Some(&Value::Bool(true)));
        assert_eq!(v.get("null_via_nan"), Some(&Value::Null));
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].as_u64(), Some(3));
        assert_eq!(v.get("o").unwrap().get("k").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parser_handles_whitespace_negatives_and_exponents() {
        let v = parse(" { \"a\" : [ -1.5 , 2e3 , null , false ] } ").unwrap();
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(-1.5));
        assert_eq!(arr[1].as_f64(), Some(2000.0));
        assert_eq!(arr[2], Value::Null);
        assert_eq!(arr[3], Value::Bool(false));
        // as_u64 rejects negatives and fractions.
        assert_eq!(arr[0].as_u64(), None);
    }

    #[test]
    fn parser_preserves_object_field_order() {
        let v = parse(r#"{"z":1,"a":2}"#).unwrap();
        let fields = v.as_object().unwrap();
        assert_eq!(fields[0].0, "z");
        assert_eq!(fields[1].0, "a");
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            r#"{"a" 1}"#,
            r#"{"a":1} extra"#,
            "tru",
            r#""unterminated"#,
            "[1 2]",
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(!err.message.is_empty());
            assert!(err.to_string().contains("at byte"));
        }
        // A real artifact cut short at any character before its end.
        let bench = include_str!("../../../BENCH_repro.json").trim_end();
        assert!(parse(bench).is_ok());
        for (cut, _) in bench.char_indices() {
            assert!(parse(&bench[..cut]).is_err(), "cut at byte {cut}");
        }
    }

    /// Regression: every ordinary string character re-validated the rest
    /// of the document as UTF-8, so an 80 k-character string took 0.2 s
    /// and a megabyte one minutes.
    #[test]
    fn a_megabyte_string_parses_in_linear_time() {
        let body = "é€x🦀".repeat(100_000);
        assert_eq!(body.len(), 1_000_000);
        let doc = format!(r#"{{"s":"{body}\n{body}"}}"#);
        let start = std::time::Instant::now();
        let v = parse(&doc).expect("a long string parses");
        let elapsed = start.elapsed();
        assert_eq!(
            v.get("s").unwrap().as_str(),
            Some(&*format!("{body}\n{body}"))
        );
        assert!(elapsed.as_secs_f64() < 0.5, "took {elapsed:?}");
    }

    /// Regression: nesting recursed without bound, so two million `[`
    /// overflowed the stack and aborted the process.
    #[test]
    fn nesting_past_the_limit_is_an_error_at_the_bracket() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let objects = format!("{}1{}", r#"{"a":"#.repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(parse(&objects).is_ok());

        let err = parse(&nest(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        let err = parse(&format!("[{{\"a\":{}", "[".repeat(MAX_DEPTH))).expect_err("mixed");
        assert_eq!(err.offset, 6 + MAX_DEPTH - 2);

        let err = parse(&"[".repeat(2_000_000)).expect_err("two million brackets");
        assert_eq!(err.offset, MAX_DEPTH);
    }

    proptest::proptest! {
        /// Text from JSON's alphabet and beyond ASCII parses or errs.
        #[test]
        fn parse_never_panics(text in "[\\[\\]{}\":,.0-9eE+\\\\ a-z\t\n\u{e9}\u{1F600}-]{0,64}") {
            let _ = parse(&text);
        }
    }
}
